import json
import warnings

import golden


def test_desk_chain_reproduces_the_golden_file(tmp_path):
    """Every digest on a machine with the recorded fingerprint; elsewhere the
    losses within 1e-12 and the accuracies and selections exactly. The test
    prints which comparison ran, and warns when it could not compare digests."""
    want = json.loads(golden.GOLDEN.read_text())
    got = golden.run_chain(tmp_path)
    ran = golden.comparison(got, want)
    print(ran)
    if golden.fingerprint_differences(got, want):
        warnings.warn(ran)
    assert golden.differences(got, want) == [], ran


def test_comparison_names_the_fingerprint_fields_that_differ():
    want = {"fingerprint": {"cpu": "x", "blas_threads": 2}}
    assert golden.comparison({"fingerprint": dict(want["fingerprint"])}, want).startswith(
        "compared every digest")
    ran = golden.comparison({"fingerprint": {"cpu": "x", "blas_threads": 1}}, want)
    assert "within 1e-12" in ran and "not digests" in ran
    assert "blas_threads (1 here, 2 recorded)" in ran and "cpu" not in ran


def test_update_summary_names_what_the_rewrite_replaces():
    want = {"fingerprint": {"cpu": "x", "blas_threads": 2}, "digests": {"a.ckpt": "1", "b.tsv": "2"},
            "losses": {"t.tune": [1.0, 0.5], "t.pretrain": [2.0]}, "accuracies": {"t.eval": 0.5},
            "selections": {"t.sweep": "lr=0.01"}}
    bits_only = {**want, "digests": {"a.ckpt": "1", "b.tsv": "3"},
                 "losses": {"t.tune": [1.0, 0.5 + 2.0 ** -50], "t.pretrain": [2.0]}}
    assert golden.update_summary(bits_only, want) == [
        "compared every digest: the machine fingerprint matches the record",
        "digest of b.tsv: 3 != 2",
        "largest loss difference: 8.88e-16 (t.tune)"]
    moved = {**want, "fingerprint": {"cpu": "x", "blas_threads": 1},
             "losses": {"t.tune": [1.0, 0.5], "t.pretrain": [2.25]}, "accuracies": {"t.eval": 0.75}}
    summary = golden.update_summary(moved, want)
    assert summary[0].startswith("compared values within 1e-12")
    assert summary[1:] == ["losses t.pretrain: [2.25] != [2.0]", "accuracies t.eval: 0.75 != 0.5",
                           "largest loss difference: 0.25 (t.pretrain)"]
    assert golden.update_summary(want, want)[1:] == ["golden outputs match", "largest loss difference: 0"]
