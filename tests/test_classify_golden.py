"""classify reports must stay byte-identical to the committed golden output.

tests/data/make_classify_golden.py wrote tests/data/classify_golden.json; a
change that alters any report must regenerate it on purpose.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "make_classify_golden", Path(__file__).parent / "data" / "make_classify_golden.py"
)
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)

GOLDEN = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
GROUPS = golden.golden_groups()


def test_golden_covers_every_fixture():
    assert list(GOLDEN) == list(GROUPS)


@pytest.mark.parametrize("label", list(GROUPS))
def test_classify_json_is_byte_identical(label):
    assert golden.report_text(GROUPS[label]) == GOLDEN[label]
