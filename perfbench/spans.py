"""Span recorder for the traced benchmark mode.

Nothing here touches the ``ssue`` sources.  ``Tracer.install`` temporarily
rebinds public functions at the module boundaries where one layer calls
another (``ssue.filters.predict``, ``ssue.sim.save_record``, ...) to wrappers
that record a span per call: name, start, end and parent span.  Every module
of the package that binds the same function object gets the wrapper, so a
call is seen whichever module's global it goes through.  Measurement maps
built while the tracer is installed are ``dataclasses.replace``d copies whose
``evaluate``/``jacobian`` record spans too.  Spans stay in memory until the
run ends; ``Tracer.layer_metrics`` turns them into per-layer numbers.

A function missing from the package (renamed or removed by a later change)
is skipped, and its metrics read 0.
"""

from __future__ import annotations

import dataclasses
import statistics
import sys
import time
from collections import Counter, defaultdict

# (module, function) pairs wrapped in traced runs; the span name is the
# defining module's short name plus the function name.
TRACED_FUNCTIONS = (
    ("ssue.filters", "ssue_step"),
    ("ssue.filters", "ekf_step"),
    ("ssue.filters", "predict"),
    ("ssue.filters", "log_likelihood"),
    ("ssue.filters", "newton_update"),
    ("ssue.filters", "update_weights_log"),
    ("ssue.belief", "fuse"),
    ("ssue.belief", "ensure_spd"),
    ("ssue.belief", "assemble_joint_covariance"),
    ("ssue.belief", "belief_from_joint"),
    ("ssue.sim", "simulate"),
    ("ssue.sim", "run_estimation"),
    ("ssue.sim", "run_metrics"),
    ("ssue.sim", "save_record"),
    ("ssue.cli", "main"),
    ("ssue.observability", "stack_observability"),
    ("ssue.observability", "pairwise_rank_test"),
    ("ssue.observability", "reconstruct"),
    ("ssue.analysis", "output_covariance"),
    ("ssue.analysis", "kl_separation"),
)
MAP_FACTORIES = (("ssue.model", "range_sensor_map"), ("ssue.model", "linear_map"))
ITERS_HIST_MAX = 10  # NewtonOptions.max_iterations default

STEP = "filters.ssue_step"
NEWTON = "filters.newton_update"
EVALUATE = "model.map.evaluate"
JACOBIAN = "model.map.jacobian"


class Tracer:
    """In-memory span list plus the Newton reports seen at ``ssue_step`` returns."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.reports: list = []  # UpdateReport objects, in call order
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, on_result=None):
        names, starts, ends, parents, stack = (self.names, self.starts, self.ends,
                                               self.parents, self._stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _on_step(self, result):
        self.reports.extend(getattr(result, "reports", ()))

    def _counting_map(self, factory):
        def build(*args, **kwargs):
            mmap = factory(*args, **kwargs)
            return dataclasses.replace(
                mmap,
                evaluate=self.wrap(EVALUATE, mmap.evaluate),
                jacobian=self.wrap(JACOBIAN, mmap.jacobian),
            )
        return build

    def install(self) -> None:
        """Rebind every traced function in every loaded ``ssue`` module."""
        modules = [m for k, m in sys.modules.items() if k == "ssue" or k.startswith("ssue.")]
        targets = [(mod, fn, f"{mod.rsplit('.', 1)[1]}.{fn}", None) for mod, fn in TRACED_FUNCTIONS]
        targets += [(mod, fn, None, "map") for mod, fn in MAP_FACTORIES]
        for mod_name, fn_name, span_name, kind in targets:
            original = getattr(sys.modules.get(mod_name), fn_name, None)
            if original is None:
                continue
            if kind == "map":
                replacement = self._counting_map(original)
            else:
                replacement = self.wrap(span_name, original,
                                        self._on_step if span_name == STEP else None)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, value))
                        setattr(mod, attr, replacement)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover (seconds)."""
        self_t = [e - s for s, e in zip(self.starts, self.ends)]
        for i, p in enumerate(self.parents):
            if p >= 0:
                self_t[p] -= self.ends[i] - self.starts[i]
        return self_t

    def _under(self, root: str) -> list[bool]:
        """Whether each span is ``root`` or has a ``root`` ancestor."""
        flags = []
        for name, p in zip(self.names, self.parents):
            flags.append(name == root or (p >= 0 and flags[p]))
        return flags

    def layer_metrics(self, runs: int, bytes_written: int, counted_updates: int) -> dict:
        """Per-layer metrics: name -> (value, unit).

        Filter, belief and map figures count only work inside ``ssue_step``
        calls and are per step; ``ekf_step`` is per call (one per step of a
        Monte Carlo run); sim/cli figures are per estimation run; observability
        and analysis figures are per call of the diagnostic they serve.  Newton
        counters cover the first ``counted_updates`` updates seen: those of the
        fixed inputs (the seed-42 run, or the seed 1000-1003 CLI runs), so
        they are exact counts.
        """
        self_t = self.self_times()
        in_step = self._under(STEP)
        calls, step_calls = Counter(), Counter()
        dur, own, step_own = defaultdict(float), defaultdict(float), defaultdict(float)
        rank_stack_own = 0.0  # stack_observability called by the rank test itself
        for i, (name, p) in enumerate(zip(self.names, self.parents)):
            calls[name] += 1
            dur[name] += self.ends[i] - self.starts[i]
            own[name] += self_t[i]
            if in_step[i]:
                step_calls[name] += 1
                step_own[name] += self_t[i]
            if name == "observability.stack_observability" and p >= 0 \
                    and self.names[p] == "observability.pairwise_rank_test":
                rank_stack_own += self_t[i]

        def per(x, n):
            return x / n if n else 0.0

        steps = calls[STEP]
        out = {}
        for name in ("filters.ssue_step", "filters.predict", "filters.log_likelihood",
                     "filters.newton_update", "filters.update_weights_log", "belief.fuse",
                     "belief.ensure_spd", "belief.assemble_joint_covariance",
                     EVALUATE, JACOBIAN):
            out[f"{name}.self_ms"] = (1e3 * per(step_own[name], steps), "ms/step")
        for name in ("belief.ensure_spd", "belief.assemble_joint_covariance",
                     "belief.belief_from_joint", EVALUATE, JACOBIAN):
            out[f"{name}.calls_per_step"] = (per(step_calls[name], steps), "calls/step")
        out["filters.ekf_step.self_ms"] = (
            1e3 * per(own["filters.ekf_step"], calls["filters.ekf_step"]), "ms/step")

        # Newton work counters: UpdateReports returned through ssue_step, and
        # residual evaluations = map evaluations made directly by newton_update.
        reports = self.reports[:counted_updates] if counted_updates else self.reports
        iters = [r.iterations_used for r in reports]
        newton_spans = [i for i, n in enumerate(self.names) if n == NEWTON][:len(reports)]
        last = newton_spans[-1] if newton_spans else -1
        evals = sum(1 for i in range(last + 1) if self.names[i] == EVALUATE
                    and self.parents[i] >= 0 and self.names[self.parents[i]] == NEWTON)
        out["filters.newton_update.nonconverged"] = (
            sum(1 for r in reports if not r.converged), "count")
        out["filters.newton_update.iters_mean"] = (per(sum(iters), len(iters)), "iters")
        for k in range(ITERS_HIST_MAX + 1):
            out[f"filters.newton_update.iters_hist.{k}"] = (iters.count(k), "count")
        out["filters.newton_update.residual_evals_per_update"] = (
            per(evals, len(newton_spans)), "evals/update")
        out["filters.newton_update.accepted_step_ratio"] = (per(sum(iters), evals), "ratio")

        for name in ("sim.simulate", "sim.run_metrics", "sim.save_record"):
            out[f"{name}.ms_per_run"] = (1e3 * per(dur[name], runs), "ms/run")
        out["sim.run_estimation.self_ms_per_run"] = (
            1e3 * per(own["sim.run_estimation"], runs), "ms/run")
        out["sim.save_record.bytes_per_run"] = (per(bytes_written, runs), "bytes/run")
        out["cli.self_ms_per_run"] = (1e3 * per(own["cli.main"], runs), "ms/run")

        rank_calls = calls["observability.pairwise_rank_test"]
        kl_calls = calls["analysis.kl_separation"]
        out["observability.pairwise_rank_test.self_ms"] = (
            1e3 * per(own["observability.pairwise_rank_test"], rank_calls), "ms/call")
        out["observability.stack_observability.self_ms"] = (
            1e3 * per(rank_stack_own, rank_calls), "ms/call")
        out["observability.reconstruct.ms_per_call"] = (
            1e3 * per(dur["observability.reconstruct"], calls["observability.reconstruct"]),
            "ms/call")
        out["analysis.kl_separation.self_ms"] = (
            1e3 * per(own["analysis.kl_separation"], kl_calls), "ms/call")
        out["analysis.output_covariance.self_ms"] = (
            1e3 * per(own["analysis.output_covariance"], kl_calls), "ms/call")
        return out


def tracing_metrics(tracer, untraced: list[float], traced: list[float]) -> dict:
    """Overhead of the traced run and how much of the step time the spans account for."""
    step_spans = [i for i, n in enumerate(tracer.names) if n == STEP]
    span_total = sum(tracer.ends[i] - tracer.starts[i] for i in step_spans)
    self_t = tracer.self_times()
    step_self = sum(self_t[i] for i in step_spans)
    p50_u = 1e3 * statistics.median(untraced) if untraced else 0.0
    p50_t = 1e3 * statistics.median(traced) if traced else 0.0
    return {
        "tracing.step_ms_p50_untraced": (p50_u, "ms"),
        "tracing.step_ms_p50_traced": (p50_t, "ms"),
        "tracing.step_overhead_ms": (p50_t - p50_u if untraced else 0.0, "ms"),
        # ssue_step spans over the benchmark's own timing of the same calls
        "tracing.step_accounted_share": (span_total / sum(traced) if traced else 0.0, "ratio"),
        # share of the step inside child spans; the rest is ssue_step's own self time
        "tracing.step_children_share": (1.0 - step_self / span_total if span_total else 0.0,
                                        "ratio"),
    }
