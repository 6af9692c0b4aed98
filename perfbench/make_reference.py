#!/usr/bin/env python3
"""Regenerate perfbench/reference.json, the stored reference of the correctness gate.

    python3 perfbench/make_reference.py

Runs are computed with ``ssue.run_estimation`` (a path the benchmark's own
step loop and the CLI batches do not share), one per scenario seed the
benchmark can draw: 42 and the seed pool.  The KL matrix is the benchmark's
21-point, horizon-20 matrix.  Regenerate only when a change is meant to move
results, and say so in the change.
"""

import json
import sys

import run


def main() -> int:
    ssue = run.import_ssue()
    runs = {}
    for seed in (run.TRACK_FIRST_SEED,) + run.SEED_POOL:
        record = ssue.run_estimation(ssue.tracking_preset(seed=seed))
        metrics = ssue.run_metrics(record)
        runs[str(seed)] = {
            "identified": int(record.identified[-1]),
            "mu": [float(v) for v in record.mu[-1]],
            "delta_hat": float(record.fused_means[-1, 0]),
            "delta_err": float(metrics.delta_error_traj[-1]),
            "success": bool(metrics.success),
        }
        print(f"seed {seed}: {runs[str(seed)]}", file=sys.stderr)

    scenario = ssue.tracking_preset()
    model = scenario.model
    grid = ssue.DeltaGrid.from_domain(model.domain, points_per_interval=run.KL_GRID_POINTS)
    D = ssue.kl_separation(model, grid, run.KL_HORIZON, x_ref=scenario.x0_truth)

    C = ssue.linearized_C(model, x_ref=scenario.x0_truth)
    rank_grid = ssue.DeltaGrid.from_domain(model.domain, points_per_interval=run.RANK_GRID_POINTS)
    report = ssue.pairwise_rank_test(model.A, C, model.locations, rank_grid, run.RANK_HORIZON)
    msgs = run.check_rank_report(report)
    if msgs:
        raise SystemExit("; ".join(msgs))

    run.REFERENCE.write_text(json.dumps({"runs": runs, "kl_matrix": D.tolist()}) + "\n")
    print(f"wrote {run.REFERENCE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
