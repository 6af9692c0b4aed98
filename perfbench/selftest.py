#!/usr/bin/env python3
"""Self-test of the benchmark's correctness gate.

    python3 perfbench/selftest.py

Runs real pieces of the benchmark against the stored reference (the gate must
pass) and against deliberately wrong references (the gate must trip and count
the operations as failed).  Exits 0 when the gate behaves, 1 otherwise.
Takes about half a minute.
"""

import copy
import os
import shutil
import sys

import run


def main() -> int:
    ssue = run.import_ssue()
    import numpy as np

    ref = run.load_reference()
    workdir = run.WORK / f"selftest_{os.getpid()}"
    workdir.mkdir(parents=True)
    problems = []

    def bench(reference):
        return run.Bench(ssue, np, reference, seed=0, workdir=workdir)

    def expect(name, failed, should_fail):
        ok = bool(failed) == should_fail
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {failed} failed "
              f"({'must trip' if should_fail else 'must pass'})")
        if not ok:
            problems.append(name)

    def wrong(edit):
        bad = copy.deepcopy(ref)
        edit(bad)
        return bad

    try:
        # track-online: the step loop on seed 42, then a reference whose final mu is off.
        b = bench(ref)
        b.step_piece(seed=run.TRACK_FIRST_SEED)
        expect("track-online, true reference", b.tally.failed, False)
        b = bench(wrong(lambda r: r["runs"]["42"]["mu"].__setitem__(1, 0.999)))
        b.step_piece(seed=run.TRACK_FIRST_SEED)
        expect("track-online, final mu of the true location set to 0.999", b.tally.failed, True)
        # The same run cut into the scheduler's 100-step pieces (seed 42 comes first).
        b = bench(wrong(lambda r: r["runs"]["42"]["mu"].__setitem__(1, 0.999)))
        b.step_chunk_piece()
        while b.current_run is not None:
            b.step_chunk_piece()
        expect("track-online in pieces, final mu set to 0.999", b.tally.failed, True)
        base = ref["runs"]["42"]
        for label, change in (("identified index wrong", {"identified": base["identified"] + 1}),
                              ("delta_hat off by 1e-5", {"delta_hat": base["delta_hat"] + 1e-5})):
            msgs = run.check_track_run({"42": {**base, **change}}, 42, base["identified"],
                                       base["mu"], base["delta_hat"])
            expect(f"track-online, {label}", len(msgs), True)

        # mc-batch: one CLI batch, then a reference that disagrees on a run's success.
        b = bench(ref)
        b.mc_piece(start=run.MC_FIXED_SEEDS[0])
        expect("mc-batch, true reference", b.tally.failed, False)
        first = ref["runs"][str(run.MC_FIXED_SEEDS[0])]
        b = bench(wrong(lambda r: r["runs"][str(run.MC_FIXED_SEEDS[0])].update(
            success=not first["success"])))
        b.mc_piece(start=run.MC_FIXED_SEEDS[0])
        expect("mc-batch, success flipped in reference", b.tally.failed, True)

        # diagnostics: KL matrix with one entry off by 1e-6 relative.
        b = bench(ref)
        b.kl_piece()
        expect("diagnostics KL, true reference", b.tally.failed, False)
        row = ref["kl_matrix"][0]
        b = bench(wrong(lambda r: r["kl_matrix"][0].__setitem__(1, row[1] * (1 + 1e-6))))
        b.kl_piece()
        expect("diagnostics KL, one entry off by 1e-6 relative", b.tally.failed, True)

        # diagnostics: the rank test against the expected and a wrong failing-pair count.
        b = bench(ref)
        b.rank_piece()
        expect("diagnostics rank test, true reference", b.tally.failed, False)
        saved = run.RANK_FAILING_PAIRS
        run.RANK_FAILING_PAIRS = saved - 1
        try:
            b = bench(ref)
            b.rank_piece()
            expect("diagnostics rank test, wrong pair count", b.tally.failed, True)
        finally:
            run.RANK_FAILING_PAIRS = saved

        # diagnostics: reconstructions against their truth and against a wrong truth.
        b = bench(ref)
        b.recon_piece()
        expect("diagnostics reconstruct, true truths", b.tally.failed, False)
        model = ssue.tracking_preset().model
        grid = ssue.DeltaGrid(values=np.linspace(*run.RECON_GRID))
        x0 = np.array([1.0, -2.0, 0.5, 3.0])
        d = float(grid.values[3])
        C = np.eye(4)
        Y = ssue.stack_observability(d, model.locations[1], model.A, C, run.RECON_HORIZON) @ x0
        out = ssue.reconstruct(Y, model.A, C, model.locations, grid, tol=1e-8)
        expect("diagnostics reconstruct, wrong location",
               len(run.check_reconstruction(np, out, d, 2, x0)), True)
        expect("diagnostics reconstruct, wrong x0",
               len(run.check_reconstruction(np, out, d, 1, x0 + 1e-6)), True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass

    if problems:
        print(f"gate self-test FAILED: {problems}", file=sys.stderr)
        return 1
    print("gate self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
