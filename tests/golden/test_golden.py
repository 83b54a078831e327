"""Every invocation of the golden corpus reproduces its recorded exit code
and the digests of its stdout, stderr and output files, byte for byte."""

import json

import pytest

from regen import MANIFEST, cases, environment, run_case

RECORDED = json.loads(MANIFEST.read_text())
CASES = cases()


def test_manifest_records_every_case():
    assert sorted(RECORDED["cases"]) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_case(name, tmp_path):
    argv, files = CASES[name]
    record = run_case(argv, files, tmp_path)
    assert record == RECORDED["cases"][name], (
        f"golden case {name!r} no longer reproduces its manifest entry. Recorded with "
        f"{RECORDED['environment']}, run with {environment()}: a different environment "
        "can change the last bits of a BLAS result. If the change is meant to alter this "
        "output, rerun tests/golden/regen.py and list the changed case with the reason.")
