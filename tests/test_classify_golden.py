"""classify reports must stay byte-identical to the committed golden output.

tests/data/make_classify_golden.py wrote tests/data/classify_golden.json; a
change that alters any report must regenerate it on purpose.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from houghton_kit.blocks import WINDOW_CAVEAT
from houghton_kit.rays import RaySystem

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


PROOF_OR_UNSEARCHED = [
    label for label, text in GOLDEN.items()
    if json.loads(text)["block_findings"]["caveat"] != WINDOW_CAVEAT
]


@pytest.mark.parametrize("label", PROOF_OR_UNSEARCHED)
def test_classify_builds_no_window_where_the_search_does_not_run(label, monkeypatch):
    # the orbit section is read off the folded segments, and the block
    # proof reads no window, so only the window-bounded search builds one
    def no_window(system, depth):
        raise AssertionError(f"classify built the window of depth {depth}")

    monkeypatch.setattr(RaySystem, "window", no_window)
    assert golden.report_text(GROUPS[label]) == GOLDEN[label]
