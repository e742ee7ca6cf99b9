"""Wreath CLI output and coset descent must stay byte-identical to the golden file.

tests/data/make_wreath_golden.py wrote tests/data/wreath_golden.json; a
change that alters any entry must regenerate it on purpose.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "make_wreath_golden", Path(__file__).parent / "data" / "make_wreath_golden.py"
)
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)

GOLDEN = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
CLI_CASES = golden.cli_cases()


def test_golden_covers_every_entry():
    descents = [f"descent {seed}" for seed in range(golden.DESCENTS)]
    assert list(GOLDEN) == list(CLI_CASES) + descents


@pytest.mark.parametrize("label", list(CLI_CASES))
def test_wreath_cli_output_is_byte_identical(label):
    assert golden.cli_text(*CLI_CASES[label]) == GOLDEN[label]


def test_descent_output_is_byte_identical():
    for label, text in golden.descent_texts().items():
        assert text == GOLDEN[label], label
