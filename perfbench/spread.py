"""Run the benchmark over several seeds and report each metric's quartiles.

    python3 perfbench/spread.py --seeds 1-10
    python3 perfbench/spread.py --workloads cli-inputs --seeds 1-5 --trace 1
    python3 perfbench/spread.py --seeds 1-10 --out perfbench/baseline/untraced-seeds-1-10.json

Runs are sequential, one process at a time, with ``run_seconds`` from
BENCHMARK.json.  The spread of a metric is the distance between its first
and third quartiles as a share of its median.  ``--out`` writes the summary,
with the commit and the machine it was measured on, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def seed_list(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT, timeout=60)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_once(workload, seed, trace):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="write the summary as JSON to this file")
    args = p.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in SPEC["end_to_end"]}
    summary = {
        "commit": commit(),
        "machine": f"{cpu_model()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
        "run_seconds": SPEC["run_seconds"],
        "trace": args.trace,
        "seeds": seed_list(args.seeds),
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        values, units, correct = {}, {}, []
        for seed in summary["seeds"]:
            result = run_once(workload, seed, args.trace)
            correct.append(result["correct"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{workload} seed {seed}: correct {result['correct']}, "
                  f"{result['attempted']} attempted, {result['failed']} failed", flush=True)
        stats = {name: dict(summarize(v), unit=units[name]) for name, v in values.items()}
        summary["workloads"][workload] = {"correct": correct, "metrics": stats}
        for name, s in stats.items():
            bound = bounds.get(name) if not args.trace else None
            note = f"  bound {bound}" if bound is not None else ""
            print(f"  {name:<42} median {s['median']:<12.6g} {s['unit']:<6} "
                  f"spread {s['spread']:.4f}{note}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
