"""Write the golden wreath outputs that tests/test_wreath_golden.py compares.

Each entry is stored as exact text, so the test checks byte-identical output:

- ``wreath embed --json`` and ``wreath verify --json`` runs of the CLI on the
  pair group, on ``delta_k(3,2)`` with singleton blocks and on the
  intransitive group ``<g2^4, (1:0 1:2), (1:1 1:3)>`` with a pair block on
  one orbit and a singleton on the other, stored as ``[exit code, stdout,
  stderr]``; the embed runs include a word that breaks the congruence
  (exit 2) and one whose head leaves the window (exit 3), and the
  intransitive verify at window 20 cannot read a translation (exit 3);
- ``phi_s_descent`` on 20 seeded wreath elements of the pair context, stored
  as its status, steps, witness, residue and reason.

Regenerate only when a change to these outputs is intended; the script
prints the labels whose text moved, or "no entry moved":

    PYTHONPATH=src python3 tests/data/make_wreath_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

from houghton_kit.blocks import BlockSystem
from houghton_kit.cli import cli_main
from houghton_kit.elements import from_cycles, generator, identity, transposition
from houghton_kit.subgroups import GeneratedSubgroup, delta_k
from houghton_kit.wreath import (
    MultiWreathElement,
    build_block_context,
    kk_embed,
    phi_s_descent,
    random_words,
)

GOLDEN = Path(__file__).with_name("wreath_golden.json")
DESCENTS = 20

PAIR_BLOCKS = [[[1, 0], [1, 1]]]
DELTA_BLOCKS = [[[1, 0]], [[1, 1]]]
SPLIT_BLOCKS = [[[1, 0], [1, 2]], [[1, 1]]]


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


def intransitive_group() -> GeneratedSubgroup:
    """<g2^4, (1:0 1:2), (1:1 1:3)>: the even line positions pair up, the odd ones stay single."""
    return GeneratedSubgroup.from_elements(
        2,
        [
            generator(2, 2) ** 4,
            transposition(2, (1, 0), (1, 2)),
            transposition(2, (1, 1), (1, 3)),
        ],
    )


def cli_cases() -> dict:
    """Label -> (subgroup, block lists, extra CLI arguments after the paths)."""
    pair, delta, split = pair_group(), delta_k(3, 2), intransitive_group()
    return {
        "embed pair": ("embed", pair, PAIR_BLOCKS, []),
        "embed pair words": (
            "embed",
            pair,
            PAIR_BLOCKS,
            ["--word", "g2^4 * (1:0 1:1)", "--word", "(1:0 1:2)(1:1 1:3) * g2^-2",
             "--word", "g2^6 * (1:0 1:1) * g2^-2", "--window", "40"],
        ),
        "embed pair breaks the congruence": (
            "embed", pair, PAIR_BLOCKS, ["--word", "(1:1 1:2)"],
        ),
        "embed pair past the window": (
            "embed", pair, PAIR_BLOCKS, ["--word", "(1:0 1:70)(1:1 1:71)"],
        ),
        "embed delta_k(3,2)": ("embed", delta, DELTA_BLOCKS, ["--window", "30"]),
        "embed delta_k(3,2) words": (
            "embed",
            delta,
            DELTA_BLOCKS,
            ["--word", "g2^2 * g3^-2", "--word", "(1:0 1:2) * g2^2", "--window", "30"],
        ),
        "verify pair": ("verify", pair, PAIR_BLOCKS, ["--samples", "40", "--seed", "1"]),
        "verify delta_k(3,2)": (
            "verify", delta, DELTA_BLOCKS, ["--samples", "40", "--seed", "2", "--window", "30"],
        ),
        "embed intransitive": ("embed", split, SPLIT_BLOCKS, ["--window", "60"]),
        "verify intransitive": (
            "verify", split, SPLIT_BLOCKS, ["--samples", "40", "--seed", "3", "--window", "60"],
        ),
        "verify intransitive at window 20": (
            "verify", split, SPLIT_BLOCKS, ["--samples", "40", "--seed", "3", "--window", "20"],
        ),
    }


def cli_text(action: str, group: GeneratedSubgroup, blocks, extra) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        spath = Path(tmp) / "group.json"
        bpath = Path(tmp) / "blocks.json"
        spath.write_text(json.dumps(group.to_json_dict()), encoding="utf-8")
        bpath.write_text(json.dumps(blocks), encoding="utf-8")
        argv = ["--json", "wreath", action, "--subgroup", str(spath), "--blocks", str(bpath)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv + list(extra))
    return json.dumps([code, out.getvalue(), err.getvalue()])


def descent_texts() -> dict:
    """Label -> phi_s_descent output for seeded alphas in the pair context."""
    group = pair_group()
    ctx = build_block_context(group, BlockSystem.from_lists(PAIR_BLOCKS), 60)
    kernel = [group.generators[1]]
    candidates = [qp for qp in ctx.quotient.quotient_points if 1 <= qp.pos <= 6]
    out = {}
    for seed in range(DESCENTS):
        rng = random.Random(seed)
        g = random_words(group, 1, 3, rng)[0]
        offs = rng.sample(candidates, rng.randint(1, 3))
        alpha = kk_embed(g, ctx).multiply(
            MultiWreathElement(ctx, tuple((qp, (1, 0)) for qp in offs), identity(2))
        )
        result = phi_s_descent(alpha, group, ctx, kernel)
        out[f"descent {seed}"] = json.dumps(
            {
                "status": result.status,
                "steps": [[list(qp), k, m] for qp, k, m in result.steps],
                "witness": result.witness and result.witness.to_json_dict(),
                "residue": result.residue and result.residue.to_json_dict(),
                "reason": result.reason,
            },
            sort_keys=True,
        )
    return out


def golden_texts() -> dict:
    texts = {label: cli_text(*case) for label, case in cli_cases().items()}
    texts.update(descent_texts())
    return texts


def main() -> None:
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    golden = golden_texts()
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(golden)} entries to {GOLDEN}")
    moved = [label for label in golden if old.get(label) != golden[label]]
    print(f"moved: {', '.join(moved)}" if moved else "no entry moved")


if __name__ == "__main__":
    main()
