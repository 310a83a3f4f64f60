import json

import golden


def test_desk_chain_reproduces_the_golden_file(tmp_path):
    """Every digest on a machine with the recorded fingerprint; elsewhere the
    losses within 1e-12 and the accuracies and selections exactly."""
    want = json.loads(golden.GOLDEN.read_text())
    assert golden.differences(golden.run_chain(tmp_path), want) == []
