#!/usr/bin/env python3
"""Joint observability: when can outputs alone pin down (x0, delta, location)?

Two triplets are distinguishable exactly when the side-by-side stacked
observability matrices of their hypotheses reach combined rank 2n.  A small
two-state system passes the certificate; the tracking geometry does not,
because under any two hypotheses some pair of initial states gives the same
outputs.
Reconstruction then inverts a noise-free output stack on an observable setup.
"""

import numpy as np

import ssue

# --- a textbook case that is jointly observable -----------------------------
A = np.eye(2)
C = np.eye(2)
locations = ssue.LocationSet((
    ssue.LocationMatrix(np.diag([1.0, 0.0])),
    ssue.LocationMatrix(np.diag([0.0, 1.0])),
))
grid = ssue.DeltaGrid(values=[-0.1])
report = ssue.pairwise_rank_test(A, C, locations, grid, K=3)
print("two-state example: smallest passing horizon =", report.smallest_passing_N)

# --- the tracking geometry is not -------------------------------------------
scn = ssue.tracking_preset()
C_rng = ssue.linearized_C(scn.model, x_ref=scn.x0_truth)
grid = ssue.DeltaGrid.from_domain(scn.model.domain, points_per_interval=11)
report = ssue.pairwise_rank_test(scn.model.A, C_rng, scn.model.locations, grid, K=10)
print(f"tracking preset: smallest passing horizon = {report.smallest_passing_N}, "
      f"{len(report.failures)} failing pairs")
worst = max(row[-1] for row in report.failures)
print(f"  best rank any pair reaches: {worst} of required {report.required_rank}")
print("  every variant keeps eigenvalue 1 with a 2-dimensional eigenspace, and the")
print("  linearized range C has rank 2, so some pair of initial states gives the")
print("  same outputs under any two hypotheses (the PBH test fails for every pair).")
print("  (Location discrimination still works statistically: the output")
print("  covariances differ; see demo 04.)")

# --- reconstruction from a noise-free stack ---------------------------------
rng = np.random.default_rng(12)
C_full = np.eye(4)
grid = ssue.DeltaGrid(values=np.linspace(-0.2, -0.01, 20))
d_true = float(rng.choice(grid.values))
i_true = int(rng.integers(3))
x0 = rng.normal(0, 3, 4)
Y = ssue.stack_observability(d_true, scn.model.locations[i_true],
                             scn.model.A, C_full, 10) @ x0
out = ssue.reconstruct(Y, scn.model.A, C_full, scn.model.locations, grid, tol=1e-8)
print("\nreconstruction with full-state measurements:")
print(f"  truth:     delta={d_true:+.3f}, location {i_true}, x0={np.round(x0, 3)}")
print(f"  recovered: delta={out.delta:+.3f}, location {out.loc_index}, "
      f"x0={np.round(out.x0, 3)}  (residual {out.residual:.1e})")
