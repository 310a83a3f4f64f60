import json

import golden


def test_desk_chain_reproduces_the_golden_file(tmp_path):
    """Every digest on a machine with the recorded fingerprint; elsewhere the
    losses within 1e-12 and the accuracies and selections exactly. With
    PSP_GOLDEN_N3000=1 the N=3000 chain is checked too."""
    want = json.loads(golden.GOLDEN.read_text())
    assert golden.differences(golden.run_chain(tmp_path, golden.N3000), want) == []
