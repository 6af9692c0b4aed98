#!/usr/bin/env python3
"""End-to-end benchmark of the ``ssue`` package, driven only through its public API.

Usage (from the repository root)::

    python3 perfbench/run.py --workload track-online --seed 1 --seconds 40 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

* ``track-online``  -- 300-step tracking runs fed one measurement at a time
  through ``ssue.ssue_step``; per-step latency.
* ``mc-batch``      -- ``ssue estimate --runs 2`` batches run in-process through
  ``ssue.cli.main``; Monte Carlo throughput.
* ``diagnostics``   -- the default rank test, a KL matrix and noise-free
  reconstructions; the control that never touches the filter.

Every run measures pieces of every part, so every end-to-end metric is
defined on every workload: first the fixed base pieces, then pieces on inputs
drawn from ``--seed``, interleaved so that each part's share of the
``--seconds`` measured follows the workload's shares (SHARES; the workload's
own part gets the most).  ``--trace 1`` runs only the workload's own part, with spans
recorded at the layer boundaries (see perfbench/spans.py), and prints the
per-layer metrics instead.  Outputs are checked against perfbench/reference.json
on every run.  The last line of stdout is the JSON result; the line before it
is a report with the environment stamp, sample counts and any gate failures.
"""

from __future__ import annotations

import os

# Single-threaded BLAS (<= nproc): one closed-loop caller, and steadier timings
# on a shared machine.  Must be set before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("track-online", "mc-batch", "diagnostics")

# Inputs.  Scenario seeds of the tracking preset: 42 is the README/test seed
# and always runs first; the pool starts at the acceptance-batch seeds.
TRACK_FIRST_SEED = 42
SEED_POOL = tuple(range(1000, 1064))
MC_RUNS_PER_BATCH = 2
MC_FIXED_SEEDS = (1000, 1001, 1002, 1003)  # in every run: ident_rate, delta_err_median
RANK_GRID_POINTS = 101
RANK_HORIZON = 10
RANK_FAILING_PAIRS = 45753  # every pair of the 303 hypotheses fails, by design
KL_GRID_POINTS = 21
KL_HORIZON = 20
RECON_PER_PIECE = 20
RECON_GRID = (-0.2, -0.01, 20)
RECON_HORIZON = 10
SETUP_REPEATS = 5
STEP_CHUNK = 100  # steps of a tracking run per scheduled piece
# Rough seconds per piece of each part, used only until the run has timed one.
PIECE_SECONDS = {"step": 0.7, "mc": 4.0, "rank": 5.0, "kl": 0.5, "recon": 0.1, "setup": 0.5}

# Share of a run's measured time per part.  Every workload runs every part, so
# every end-to-end metric is defined on it; its own part gets the largest share.
# Every part keeps a floor on every workload (at 40 s: two rank tests, the four
# fixed CLI runs, seven KL matrices, 240 reconstructions, five set-ups and
# three tracking runs).  Pieces of all parts are interleaved,
# so each metric's samples spread over the whole run: a shared host's speed
# drifts for seconds at a time, and a metric read from a few pieces in one
# stretch of the run follows that drift.
PARTS = ("step", "mc", "rank", "kl", "recon", "setup")
SHARES = {
    "track-online": {"step": 0.38, "mc": 0.20, "rank": 0.25, "kl": 0.08, "recon": 0.03,
                     "setup": 0.06},
    "mc-batch": {"step": 0.18, "mc": 0.40, "rank": 0.25, "kl": 0.08, "recon": 0.03,
                 "setup": 0.06},
    "diagnostics": {"step": 0.14, "mc": 0.20, "rank": 0.37, "kl": 0.15, "recon": 0.08,
                    "setup": 0.06},
}
# Parts of a traced run: the workload's own layers only.
TRACED_PARTS = {"track-online": ("step",), "mc-batch": ("mc",),
                "diagnostics": ("rank", "kl", "recon")}

# Correctness tolerances.
TRACK_ATOL = 1e-6       # final mu and delta_hat against the reference run
KL_RTOL, KL_ATOL = 1e-8, 1e-10
RECON_X0_RTOL = 1e-8    # as acceptance criterion 5

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import ssue
scenario = ssue.tracking_preset(seed=42)
ssue.initial_bank(scenario.model)
print(repr(time.perf_counter() - t0))
"""

clock = time.perf_counter


def import_ssue():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "ssue" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ssue package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import ssue
    import ssue.cli  # noqa: F401  (the CLI is not imported by the package)

    if Path(ssue.__file__).resolve().parent != (SRC / "ssue").resolve():
        raise SystemExit(f"perfbench: imported ssue from {ssue.__file__}, not from {SRC}")
    return ssue


def load_reference() -> dict:
    if not REFERENCE.is_file():
        raise SystemExit(f"perfbench: missing {REFERENCE}; run perfbench/make_reference.py")
    return json.loads(REFERENCE.read_text())


# ---------------------------------------------------------------------------
# Correctness gate.  Each check returns a list of mismatch messages (empty = ok).

def check_track_run(ref_runs: dict, seed: int, identified: int, mu, delta_hat: float) -> list[str]:
    ref = ref_runs[str(seed)]
    msgs = []
    if identified != ref["identified"]:
        msgs.append(f"seed {seed}: identified {identified}, reference {ref['identified']}")
    mu_err = max(abs(float(a) - b) for a, b in zip(mu, ref["mu"]))
    if len(mu) != len(ref["mu"]) or not mu_err <= TRACK_ATOL:
        msgs.append(f"seed {seed}: final mu off by {mu_err:.3g} (tolerance {TRACK_ATOL:g})")
    d_err = abs(float(delta_hat) - ref["delta_hat"])
    if not d_err <= TRACK_ATOL:
        msgs.append(f"seed {seed}: final delta_hat off by {d_err:.3g} (tolerance {TRACK_ATOL:g})")
    return msgs


def check_mc_batch(ref_runs: dict, aggregate: dict, labels: list[str]) -> tuple[dict, list[str]]:
    """Per-run mismatches (seed -> messages) and batch-level mismatches.

    The batch's success rate and median final |delta error| must equal the
    values of a ``run_estimation`` loop on the same seeds (stored reference).
    """
    per_run = {}
    for run in aggregate["per_run"]:
        msgs = check_track_run(ref_runs, run["seed"], labels.index(run["identified"]),
                               run["final_mu"], run["final_delta_hat"])
        if msgs:
            per_run[run["seed"]] = msgs
    refs = [ref_runs[str(r["seed"])] for r in aggregate["per_run"]]
    batch = []
    rate = statistics.fmean(r["success"] for r in refs)
    if aggregate["success_rate"] != rate:
        batch.append(f"success_rate {aggregate['success_rate']} != reference {rate}")
    med = statistics.median(r["delta_err"] for r in refs)
    if not abs(aggregate["median_final_delta_abs_error"] - med) <= TRACK_ATOL:
        batch.append(f"median delta error {aggregate['median_final_delta_abs_error']} "
                     f"!= reference {med}")
    return per_run, batch


def check_rank_report(report) -> list[str]:
    msgs = []
    if report.smallest_passing_N is not None:
        msgs.append(f"rank test passed at N={report.smallest_passing_N}; expected no pass")
    if len(report.failures) != RANK_FAILING_PAIRS:
        msgs.append(f"rank test: {len(report.failures)} failing pairs, "
                    f"expected {RANK_FAILING_PAIRS}")
    return msgs


def check_kl(np, ref_kl, D) -> list[str]:
    ref = np.asarray(ref_kl, dtype=float)
    if D.shape != ref.shape:
        return [f"KL matrix shape {D.shape}, reference {ref.shape}"]
    if not np.allclose(D, ref, rtol=KL_RTOL, atol=KL_ATOL):
        worst = float(np.max(np.abs(D - ref) / (KL_ATOL + KL_RTOL * np.abs(ref))))
        return [f"KL matrix differs from reference ({worst:.3g}x tolerance)"]
    return []


def check_reconstruction(np, out, delta: float, loc: int, x0) -> list[str]:
    if out.delta != delta or out.loc_index != loc:
        return [f"reconstruct: got (delta {out.delta}, location {out.loc_index}), "
                f"truth (delta {delta}, location {loc})"]
    if not np.linalg.norm(out.x0 - x0) <= RECON_X0_RTOL * np.linalg.norm(x0):
        return ["reconstruct: x0 not recovered to relative 1e-8"]
    return []


class Tally:
    """Operations attempted and failed (raised, or failed the gate)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def fail(self, count: int, messages) -> None:
        self.failed += count
        self.messages.extend(messages)
        for msg in messages:
            print(f"perfbench: FAILED {msg}", file=sys.stderr)

    def error(self, count: int, what: str) -> None:
        traceback.print_exc(file=sys.stderr)
        self.fail(count, [f"{what}: {sys.exc_info()[1]!r}"])


# ---------------------------------------------------------------------------
# Pieces of work.  Each run interleaves pieces of every part (see SHARES).

class Bench:
    def __init__(self, ssue, np, ref: dict, seed: int, workdir: Path):
        self.ssue = ssue
        self.np = np
        self.ref = ref
        self.workdir = workdir
        self.tally = Tally()
        self.spent = dict.fromkeys(PARTS, 0.0)
        self.step_samples: list[float] = []
        self.counted_updates = 0  # Newton counters cover the fixed inputs' updates
        self.current_run = None  # tracking run the scheduler is part-way through
        self.mc_runs = 0
        self.mc_seconds = 0.0
        self.mc_bytes = 0
        self.fixed_runs: list[dict] = []  # CLI summaries of the MC_FIXED_SEEDS runs
        self.rank_s: list[float] = []
        self.kl_s: list[float] = []
        self.recon_s: list[float] = []
        self.setup_s: list[float] = []
        self.recon_rng = np.random.default_rng(seed)
        pool = list(SEED_POOL)
        random.Random(seed).shuffle(pool)
        self.track_seeds = itertools.chain([TRACK_FIRST_SEED], itertools.cycle(pool))
        starts = list(range(MC_FIXED_SEEDS[-1] + 1, SEED_POOL[-1] + 2 - MC_RUNS_PER_BATCH,
                            MC_RUNS_PER_BATCH))
        random.Random(seed + 1).shuffle(starts)
        self.mc_starts = itertools.chain(MC_FIXED_SEEDS[::MC_RUNS_PER_BATCH],
                                         itertools.cycle(starts))
        self.config = workdir / "config.json"
        self.config.write_text(json.dumps({"scenario": {}}))
        self.scenario = ssue.tracking_preset()

    # -- track-online ------------------------------------------------------

    def track_run(self, seed: int, tracer=None, steps=None, check=True):
        """One 300-step tracking run fed one measurement at a time (README manual loop).

        A generator: it pauses after every STEP_CHUNK steps, so the scheduler
        can interleave other parts within a run, and returns the step times.
        """
        ssue = self.ssue
        scenario = ssue.tracking_preset(seed=seed)
        measurements = ssue.simulate(scenario).measurements[:steps]
        model = scenario.model
        bank = ssue.initial_bank(model)
        step = ssue.ssue_step  # looked up per run so a traced run gets the wrapper
        samples = []
        result = None
        for j, y in enumerate(measurements):
            self.tally.attempted += check
            t0 = clock()
            try:
                result = step(bank, y, model)
            except Exception:
                self.tally.error(1, f"ssue_step on seed {seed}")
                return []
            samples.append(clock() - t0)
            bank = result.bank
            if (j + 1) % STEP_CHUNK == 0 and j + 1 < len(measurements):
                yield
        if not check:
            return []
        msgs = check_track_run(self.ref["runs"], seed, result.identified_index,
                               result.bank.weights, result.fused.delta_mean)
        if msgs:
            self.tally.fail(len(samples), msgs)
        self.step_samples.extend(samples)
        if tracer is not None and not self.counted_updates:
            self.counted_updates = len(tracer.reports)
        return samples

    def step_piece(self, tracer=None, seed=None, steps=None, check=True) -> list[float]:
        """One whole tracking run; returns its step times."""
        seed = next(self.track_seeds) if seed is None else seed
        run = self.track_run(seed, tracer, steps, check)
        while True:
            try:
                next(run)
            except StopIteration as stop:
                return stop.value

    def step_chunk_piece(self, tracer=None) -> None:
        """The next STEP_CHUNK steps of the current tracking run; a new run when it ends."""
        if self.current_run is None:
            self.current_run = self.track_run(next(self.track_seeds), tracer)
        try:
            next(self.current_run)
        except StopIteration:
            self.current_run = None

    # -- mc-batch ----------------------------------------------------------

    def mc_piece(self, tracer=None, start=None, runs=MC_RUNS_PER_BATCH, steps=None,
                 check=True) -> None:
        """``ssue estimate --runs N`` in-process; records go under the work dir."""
        start = next(self.mc_starts) if start is None else start
        out = self.workdir / f"mc_{start}"
        argv = ["estimate", "--config", str(self.config), "--seed", str(start),
                "--runs", str(runs), "--out", str(out)]
        if steps is not None:
            argv += ["--steps", str(steps)]
        self.tally.attempted += runs if check else 0
        captured = io.StringIO()
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                t0 = clock()
                code = self.ssue.cli.main(argv)
                elapsed = clock() - t0
            if code != 0:
                self.tally.fail(runs, [f"ssue estimate --seed {start} exited {code}: "
                                       f"{captured.getvalue().strip()}"])
                return
            if not check:
                return
            self.mc_bytes += sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
            aggregate = json.loads((out / "aggregate.json").read_text())
        except Exception:
            self.tally.error(runs, f"ssue estimate --seed {start} --runs {runs}")
            return
        finally:
            shutil.rmtree(out, ignore_errors=True)
        labels = self.scenario.model.locations.labels
        per_run, batch = check_mc_batch(self.ref["runs"], aggregate, labels)
        for msgs in per_run.values():
            self.tally.fail(1, msgs)
        if batch:
            self.tally.fail(runs - len(per_run), batch)
        self.mc_runs += runs
        self.mc_seconds += elapsed
        self.fixed_runs += [r for r in aggregate["per_run"] if r["seed"] in MC_FIXED_SEEDS]
        if tracer is not None and start == MC_FIXED_SEEDS[-MC_RUNS_PER_BATCH]:
            self.counted_updates = len(tracer.reports)

    # -- diagnostics -------------------------------------------------------

    def _timed(self, what: str, check: bool, fn, *args, **kwargs):
        self.tally.attempted += check
        try:
            t0 = clock()
            out = fn(*args, **kwargs)
            return out, clock() - t0
        except Exception:
            self.tally.error(1, what)
            return None, None

    def rank_piece(self, tracer=None, points=RANK_GRID_POINTS, check=True) -> None:
        """All-pairs rank test on the default 101-point grid at K=10."""
        ssue, model = self.ssue, self.scenario.model
        C = ssue.linearized_C(model, x_ref=self.scenario.x0_truth)
        grid = ssue.DeltaGrid.from_domain(model.domain, points_per_interval=points)
        report, elapsed = self._timed("pairwise_rank_test", check, ssue.pairwise_rank_test,
                                      model.A, C, model.locations, grid, RANK_HORIZON)
        if report is not None and check:
            msgs = check_rank_report(report)
            if msgs:
                self.tally.fail(1, msgs)
            self.rank_s.append(elapsed)

    def kl_piece(self, tracer=None, points=KL_GRID_POINTS, check=True) -> None:
        """KL separation matrix over a 21-point grid at horizon 20."""
        ssue, model = self.ssue, self.scenario.model
        grid = ssue.DeltaGrid.from_domain(model.domain, points_per_interval=points)
        D, elapsed = self._timed("kl_separation", check, ssue.kl_separation, model, grid,
                                 KL_HORIZON, x_ref=self.scenario.x0_truth)
        if D is not None and check:
            msgs = check_kl(self.np, self.ref["kl_matrix"], D)
            if msgs:
                self.tally.fail(1, msgs)
            self.kl_s.append(elapsed)

    def recon_piece(self, tracer=None, calls=RECON_PER_PIECE, check=True) -> None:
        """Noise-free reconstructions of seeded random truths (acceptance criterion 5)."""
        ssue, np, model = self.ssue, self.np, self.scenario.model
        A, locations = model.A, model.locations
        C_full = np.eye(model.n)  # full-state output keeps every pair separated
        grid = ssue.DeltaGrid(values=np.linspace(*RECON_GRID))
        rng = self.recon_rng
        for _ in range(calls):
            d = float(rng.choice(grid.values))
            i = int(rng.integers(len(locations)))
            x0 = rng.normal(0.0, 3.0, model.n)
            Y = ssue.stack_observability(d, locations[i], A, C_full, RECON_HORIZON) @ x0
            out, elapsed = self._timed("reconstruct", check, ssue.reconstruct, Y, A, C_full,
                                       locations, grid, tol=1e-8)
            if out is not None and check:
                msgs = check_reconstruction(np, out, d, i, x0)
                if msgs:
                    self.tally.fail(1, msgs)
                self.recon_s.append(elapsed)

    # -- set-up --------------------------------------------------------------

    def setup_piece(self, tracer=None, check=True) -> None:
        """Import ssue, build the tracking model and its initial bank, in a fresh interpreter."""
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        if check:
            self.setup_s.append(float(proc.stdout.strip().splitlines()[-1]))

    # -- scheduling --------------------------------------------------------

    def warm_up(self, parts) -> None:
        """Untimed, unchecked, small: lazy imports, allocator and caches settle first."""
        small = {"step": {"seed": TRACK_FIRST_SEED, "steps": 60},
                 "mc": {"start": MC_FIXED_SEEDS[0], "runs": 2, "steps": 30},
                 "rank": {"points": 5}, "kl": {"points": 3}, "recon": {"calls": 5},
                 "setup": {}}
        for part in parts:
            getattr(self, f"{part}_piece")(check=False, **small[part])

    def run(self, shares: dict, seconds: float, tracer=None) -> None:
        """Interleave pieces so each part's time tracks its share of the time spent.

        Every part runs at least its base pieces (the fixed inputs: seed 42,
        the MC_FIXED_SEEDS batches, one of each diagnostic, SETUP_REPEATS
        set-ups); pieces then go to the part furthest behind its share, among
        those whose mean piece so far fits in what is left of ``seconds``,
        until none fits.  Base pieces still owed take precedence once they
        need the rest of the time.
        """
        base = {"step": 1, "mc": len(MC_FIXED_SEEDS) // MC_RUNS_PER_BATCH,
                "rank": 1, "kl": 1, "recon": 1, "setup": SETUP_REPEATS}
        done = dict.fromkeys(shares, 0)

        def piece_s(p):
            return self.spent[p] / done[p] if done[p] else PIECE_SECONDS[p]

        while True:
            total = sum(self.spent[p] for p in shares)
            left = seconds - total
            owed = [p for p in shares if done[p] < base[p]]
            fits = [p for p in shares if piece_s(p) <= left]

            def behind(p):
                return (shares[p] * total - self.spent[p], shares[p])

            if owed and (not fits or sum((base[p] - done[p]) * piece_s(p) for p in owed) >= left):
                part = max(owed, key=behind)
            elif fits:
                part = max(fits, key=behind)
            elif self.current_run is not None:
                part = "step"  # finish the tracking run under way, so it is checked
            else:
                break
            t0 = clock()
            if part == "step":
                self.step_chunk_piece(tracer)
            else:
                getattr(self, f"{part}_piece")(tracer)
            self.spent[part] += clock() - t0
            done[part] += 1


# ---------------------------------------------------------------------------
# Metrics and environment.

def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(round(q * len(ordered), 9)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _openblas_threads(np):
    import ctypes
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(np, workload: str, seed: int, trace: int) -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "ssue").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads_env": BLAS_THREADS,
        "blas_threads_runtime": _openblas_threads(np),
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "platform": platform.platform(),
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(bench: Bench) -> tuple[dict, dict]:
    s, setup = bench.step_samples, bench.setup_s
    p95 = percentile(s, 0.95)
    fixed = bench.fixed_runs
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "step_ms_p50": metric(1e3 * statistics.median(s), "ms"),
        "step_ms_p95": metric(1e3 * p95, "ms"),
        "mc_runs_per_s": metric(bench.mc_runs / bench.mc_seconds, "1/s"),
        "ident_rate": metric(statistics.fmean(r["identification_correct"] for r in fixed),
                             "fraction"),
        "delta_err_median": metric(statistics.median(r["final_delta_abs_error"] for r in fixed),
                                   "1"),
        # Mean time per call: on a shared host whose speed switches between a
        # fast and a slow mode for seconds at a time, a median of a few samples
        # jumps between the modes while the mean moves smoothly.
        "rank_test_s": metric(statistics.fmean(bench.rank_s), "s"),
        "kl_matrix_s": metric(statistics.fmean(bench.kl_s), "s"),
        "reconstruct_ms": metric(1e3 * statistics.fmean(bench.recon_s), "ms"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    samples = {
        "setup_s": len(setup),
        "step_ms_p50": len(s),
        "step_ms_p95": len(s),
        "step_samples_beyond_p95": sum(1 for v in s if v > p95),
        "mc_runs_per_s": bench.mc_runs,
        "ident_rate": len(fixed),
        "delta_err_median": len(fixed),
        "rank_test_s": len(bench.rank_s),
        "kl_matrix_s": len(bench.kl_s),
        "reconstruct_ms": len(bench.recon_s),
        "seconds_per_part": {p: round(t, 3) for p, t in bench.spent.items()},
    }
    return metrics, samples


def traced_run(bench: Bench, workload: str, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics from spans; on track-online also the tracing overhead."""
    from spans import Tracer, tracing_metrics

    tracer = Tracer()
    parts = TRACED_PARTS[workload]
    bench.warm_up(parts)
    untraced, traced, runs = [], [], 0
    if parts == ("step",):
        # Untraced and traced passes alternate over the same seeds, so machine
        # drift hits both sides alike.
        t_end = clock() + seconds
        while clock() < t_end:
            seed = next(bench.track_seeds)
            untraced += bench.step_piece(seed=seed)
            with tracer:
                traced += bench.step_piece(tracer, seed=seed)
            runs += 1
    else:
        with tracer:
            bench.run({p: SHARES[workload][p] for p in parts}, seconds, tracer)
        runs = bench.mc_runs
    layers = tracer.layer_metrics(runs=runs, bytes_written=bench.mc_bytes,
                                  counted_updates=bench.counted_updates)
    layers.update(tracing_metrics(tracer, untraced, traced))
    metrics = {k: metric(v, u) for k, (v, u) in layers.items()}
    samples = {"steps_traced": len(traced), "steps_untraced": len(untraced),
               "traced_runs": runs, "spans": len(tracer.names),
               "newton_updates_counted": bench.counted_updates or len(tracer.reports),
               "rank_tests": len(bench.rank_s),
               "kl_matrices": len(bench.kl_s), "reconstructions": len(bench.recon_s)}
    return metrics, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ssue = import_ssue()
    import numpy as np

    ref = load_reference()
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"run_{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        bench = Bench(ssue, np, ref, args.seed, workdir)
        report = {"env": environment(np, args.workload, args.seed, args.trace)}
        if args.trace:
            metrics, report["samples"] = traced_run(bench, args.workload, args.seconds)
        else:
            bench.warm_up(PARTS)
            bench.run(SHARES[args.workload], args.seconds)
            metrics, report["samples"] = end_to_end(bench)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    tally = bench.tally
    report["failed_frac"] = tally.failed / tally.attempted if tally.attempted else 1.0
    report["failures"] = tally.messages[:20]
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
