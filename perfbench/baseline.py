#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 perfbench/baseline.py --seeds 101-110 --seconds 36
    python3 perfbench/baseline.py --seeds 101-110 --seconds 36 --traced-seed 101 \\
        --out perfbench/BASELINE.json

Runs ``run.py`` once per (seed, workload), one process at a time, seed-major so
that a drift of the machine's speed hits every workload alike.  For every
end-to-end metric it prints the median of the runs and the spread
(q3 - q1) / median, quartiles as ``statistics.quantiles(values, n=4)``, and
marks a spread above a third of the metric's bound in BENCHMARK.json with
``*`` and one above the bound with ``!``.  With ``--out`` it writes every
value, plus one traced run per workload when ``--traced-seed`` is given.
Exits 1 when a run fails or fails its correctness gate.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def spread_of(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("101-110"))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    parser.add_argument("--traced-seed", type=int, default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])

    values = {w: {} for w in workloads}
    env = None
    bad = 0
    for seed in args.seeds:
        for w in workloads:
            report, result = run_once(w, seed, args.seconds, 0)
            env = report["env"]
            bad += not result["correct"] or result["failed"] != 0
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)

    table = {w: {name: {"unit": bounds[name]["unit"], **spread_of(vals)}
                 for name, vals in values[w].items()} for w in workloads}
    print(f"\n{'metric':18s}" + "".join(f"{w:>22s}" for w in workloads))
    for name, b in bounds.items():
        cells = []
        for w in workloads:
            s = table[w][name]
            mark = ("!" if s["spread"] > b["bound"] else
                    "*" if s["spread"] > b["bound"] / 3 else " ")
            cells.append(f"{s['median']:12.4g} ({s['spread']:.3f}){mark}")
        print(f"{name:18s}" + "".join(f"{c:>22s}" for c in cells))

    if args.out is not None:
        out = {
            "description": (f"perfbench over seeds {args.seeds[0]}-{args.seeds[-1]} per workload "
                            f"(--seconds {args.seconds:g}, --trace 0), seed-major, one process "
                            "at a time; spread = (q3 - q1) / median, quartiles as "
                            "statistics.quantiles(values, n=4)."),
            "seeds": args.seeds,
            "run_seconds": args.seconds,
            "end_to_end": table,
            "env": {k: v for k, v in (env or {}).items()
                    if k not in ("workload", "seed", "trace")},
        }
        if args.traced_seed is not None:
            out["traced_seed"] = args.traced_seed
            out["per_layer"] = {}
            for w in workloads:
                _, result = run_once(w, args.traced_seed, args.seconds, 1)
                bad += not result["correct"] or result["failed"] != 0
                out["per_layer"][w] = {k: m["value"] for k, m in result["metrics"].items()}
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    if bad:
        print(f"{bad} run(s) failed the correctness gate", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
