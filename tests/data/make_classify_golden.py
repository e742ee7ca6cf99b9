"""Write the golden classify reports that tests/test_classify_golden.py compares.

Each fixture group is classified at its own window (40 unless the fixture
names another) and its report is stored as the exact text of
``json.dumps(report, sort_keys=True)``, so the test checks byte-identical
output.  Regenerate only when a change to the report is intended; the
script prints, for each label whose report text moved, the report keys that
moved (dotted down to the leaf, as ``block_findings.caveat``), or "no report
moved":

    PYTHONPATH=src python3 tests/data/make_classify_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

from houghton_kit.classify import classify
from houghton_kit.elements import from_cycles, generator, houghton_generators, transposition
from houghton_kit.subgroups import GeneratedSubgroup, delta_k

GOLDEN = Path(__file__).with_name("classify_golden.json")
WINDOW = 40


def pair_group() -> GeneratedSubgroup:
    """The n = 2 pair group of the acceptance suite."""
    return GeneratedSubgroup.from_elements(
        2,
        [
            generator(2, 2) ** 2,
            transposition(2, (1, 0), (1, 1)),
            from_cycles(2, [[(1, 0), (1, 2)], [(1, 1), (1, 3)]]),
        ],
    )


def deep_join_group(join: int = 41) -> GeneratedSubgroup:
    """<g2^2, (1:0 1:join)>: one orbit, whose two parities meet only at (1, join)."""
    return GeneratedSubgroup.from_elements(
        2, [generator(2, 2) ** 2, transposition(2, (1, 0), (1, join))]
    )


def golden_groups() -> dict:
    """Fixture label -> (subgroup, window), in a fixed order."""
    groups = {
        "delta_k(3,2)": delta_k(3, 2),
        "delta_k(4,2)": delta_k(4, 2),
        "delta_k(5,3)": delta_k(5, 3),
        "pair": pair_group(),
        "H_3": GeneratedSubgroup.from_elements(3, houghton_generators(3)),
        "H_4": GeneratedSubgroup.from_elements(4, houghton_generators(4)),
    }
    fixtures = {label: (group, WINDOW) for label, group in groups.items()}
    fixtures["deep_join@10"] = (deep_join_group(), 10)
    fixtures["deep_join@20"] = (deep_join_group(), 20)
    fixtures["deep_join_far@10"] = (deep_join_group(10**4 + 1), 10)
    return fixtures


def report_text(fixture: tuple) -> str:
    """The golden text of one (subgroup, window) fixture."""
    group, window = fixture
    return json.dumps(classify(group, window=window).to_json_dict(), sort_keys=True)


def moved_keys(old, new, prefix: str = "") -> list:
    """Dotted paths of the report keys whose values differ, down to the leaves.

    Two dicts are compared key by key; any other pair of differing values,
    lists included, is one leaf.
    """
    if not (isinstance(old, dict) and isinstance(new, dict)):
        return [] if old == new else [prefix]
    out = []
    for key in sorted(old.keys() | new.keys()):
        out += moved_keys(old.get(key), new.get(key), f"{prefix}.{key}" if prefix else key)
    return out


def main() -> None:
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    golden = {label: report_text(fixture) for label, fixture in golden_groups().items()}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(golden)} reports to {GOLDEN}")
    moved = [label for label in golden if old.get(label) != golden[label]]
    for label in moved:
        if label in old:
            keys = ", ".join(moved_keys(json.loads(old[label]), json.loads(golden[label])))
        else:
            keys = "new fixture"
        print(f"moved: {label}: {keys}")
    if not moved:
        print("no report moved")


if __name__ == "__main__":
    main()
