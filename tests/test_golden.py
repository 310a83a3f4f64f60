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
