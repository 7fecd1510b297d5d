"""CLI output byte for byte against the golden file written by make_golden.py,
and against the benchmark's reference outputs."""

import gzip
import json
from pathlib import Path

import pytest

from make_golden import CASES, GOLDEN, run

EXPECTED = json.loads(gzip.decompress(GOLDEN.read_bytes()).decode("utf-8"))
REFS = Path(__file__).resolve().parent.parent / "perfbench" / "refs"

# The benchmark's commands, each with the reference file it writes
# (perfbench/make_refs.py); the golden file stops at degree 30.
FORMULA_CAP_CASES = {
    "verify-n6-egf198": ["verify", "--max-n", "6", "--egf-order", "198", "--format", "json"],
    "table-egf-n200": ["table", "--method", "egf", "--max-n", "200"],
    "ratios-n200": ["ratios", "--max-n", "200"],
    "export-eup-n200": ["export", "--sequence", "Eup", "--max-n", "200"],
    "verify-n11-egf20": ["verify", "--max-n", "11", "--egf-order", "20", "--format", "json"],
    "bijection-check-n10": ["bijection-check", "--max-n", "10", "--format", "json"],
}


def test_golden_file_covers_every_case():
    assert sorted(EXPECTED) == sorted(" ".join(argv) for argv in CASES)


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_equals_the_golden_file(argv):
    assert run(argv) == EXPECTED[" ".join(argv)]


@pytest.mark.parametrize("key", FORMULA_CAP_CASES)
def test_formula_cap_output_equals_the_benchmark_reference(key):
    expected = gzip.decompress((REFS / f"{key}.out.gz").read_bytes())
    result = run(FORMULA_CAP_CASES[key])
    assert (result["exit"], result["stderr"]) == (0, "")
    assert result["stdout"].encode("utf-8") == expected
