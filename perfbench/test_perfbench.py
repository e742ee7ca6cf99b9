"""Tests of the benchmark itself, on tiny passes of every workload.

Run from the root of the repository:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import itertools
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload, trace, seed=1, cwd=HERE.parent, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=600, cwd=cwd,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_pass_prints_every_metric_and_no_failure(workload):
    lines, result = _result(_run(workload, 0))
    text = "\n".join(lines)
    for name, unit in bench.END_TO_END.items():
        assert re.search(rf"^  {name} +\S+ {re.escape(unit)}\b", text, re.M), name
    fail_ratio = re.search(r"^  fail_ratio +(\S+)", text, re.M).group(1)
    assert float(fail_ratio) == 0
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_pass_reports_every_layer_metric_with_equal_digests(workload):
    lines, result = _result(_run(workload, 1))
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    digests = [line.split()[-1] for line in lines if "output digest" in line]
    assert len(digests) == 2 and digests[0] == digests[1]
    assert result["correct"] is True
    if workload == "classify-suite":
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["blocks.find_block_systems.systems"] >= 1
        assert metrics["blocks.verify_block_system.valid_ratio"] > 0
        assert metrics["subgroups.orbit_windows.points"] > 0
        assert metrics["blocks.congruence_classes.points"] > 0


def test_same_seed_gives_the_same_output_digest():
    digests = set()
    for _ in range(2):
        lines, _ = _result(_run("classify-suite", 0, seed=5))
        digests.add(lines[0].split()[-1])
    assert len(digests) == 1


def test_traced_run_removes_every_wrapper(tmp_path, capsys):
    args = bench.parse_args(
        ["--workload", "wreath-descent", "--seed", "2", "--seconds", "1", "--trace", "1",
         "--size", "tiny"]
    )
    sys.path.insert(0, str(bench.SRC))
    correct, attempted, failed, metrics, failures = bench.trace(
        args, WORKLOADS[args.workload], tmp_path
    )
    assert tracing.leftover_wrappers() == []
    assert correct, failures
    assert metrics["wreath.phi_s_descent.calls"]["value"] > 0


def test_wrappers_cover_names_imported_elsewhere():
    sys.path.insert(0, str(bench.SRC))
    hk = bench.import_kit()
    tr = tracing.Tracer()
    tr.install()
    try:
        assert hasattr(hk.wreath.build_quotient, tracing.MARK)
        assert hasattr(hk.blocks.orbit_windows, tracing.MARK)
        assert hasattr(hk.classify.find_block_systems, tracing.MARK)
        assert hasattr(hk.rays.RaySystem.window, tracing.MARK)
        assert hasattr(hk.elements.HoughtonElement.__dict__["from_json_dict"].__func__, tracing.MARK)
    finally:
        tr.uninstall()
    assert tracing.leftover_wrappers() == []
    assert hk.wreath.build_quotient is hk.blocks.quotient


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = _run("classify-suite", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_oracles_on_known_lattices():
    # the non-level example of the acceptance suite: index 3, witness (2, 1)
    vecs = [(1, 2, -3), (2, 1, -3)]
    assert oracles.zero_sum_index(vecs, 3) == 3
    assert oracles.first_level_failure(vecs, 3) == (2, 1)
    assert oracles.congruence_modulus(vecs, 3) is None
    congruence = [(2, -2, 0), (2, 0, -2)]
    assert oracles.zero_sum_index(congruence, 3) == 4
    assert oracles.first_level_failure(congruence, 3) is None
    assert oracles.congruence_modulus(congruence, 3) == 2
    assert oracles.kernel_type([1, 1, 0, 0]) == 1


KERNEL_DEFECT = pytest.mark.xfail(
    strict=True,
    reason="bns.rational_kernel back-substitutes from an echelon form that is not "
    "reduced, so subgroup_type misses support-2 characters such as (0,0,1,2)",
)


@pytest.mark.parametrize(
    "n", [3, pytest.param(4, marks=KERNEL_DEFECT), pytest.param(5, marks=KERNEL_DEFECT)]
)
def test_bns_type_matches_the_kernel_support_rule(n):
    # every character with coefficients 0..3, the range cli-inputs draws from;
    # cli-inputs runs bns type on 3 rays only until 4 and 5 pass here
    sys.path.insert(0, str(bench.SRC))
    hk = bench.import_kit()
    wrong = []
    for coeffs in itertools.product(range(4), repeat=n):
        if len(set(coeffs)) == 1:
            continue
        text = " + ".join(f"{c} t{j}" for j, c in enumerate(coeffs, 1) if c)
        verdict = hk.bns.subgroup_type(n, hk.bns.kernel_lattice_of_character(text, n))
        if verdict.type_f_max != oracles.kernel_type(coeffs) or verdict.capped:
            wrong.append(coeffs)
    assert wrong == []


def test_speed_scaling_drops_probes_and_follows_the_reference():
    speed = bench.Speed()
    ref = bench.REFERENCE_S
    speed.samples = [(0.0, ref), (1.0, 1.0 + ref), (2.0, 2.0 + 2 * ref)]
    # the probe at 1.0 ran inside the interval: its time is not the program's
    assert speed.scaled(0.5, 1.5) == pytest.approx(1.0 - ref)
    speed.samples = [(t, t + 2 * ref) for t in (0.0, 1.0, 2.0)]
    assert speed.scaled(0.5, 1.5) == pytest.approx((1.0 - 2 * ref) / 2)
