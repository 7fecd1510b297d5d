"""CLI output byte for byte against the golden file written by make_golden.py."""

import gzip
import json

import pytest

from make_golden import CASES, GOLDEN, run

EXPECTED = json.loads(gzip.decompress(GOLDEN.read_bytes()).decode("utf-8"))


def test_golden_file_covers_every_case():
    assert sorted(EXPECTED) == sorted(" ".join(argv) for argv in CASES)


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_equals_the_golden_file(argv):
    assert run(argv) == EXPECTED[" ".join(argv)]
