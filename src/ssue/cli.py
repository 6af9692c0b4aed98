"""Config-driven command line front end.

Commands::

    ssue simulate      --config cfg.json [--seed N] [--steps N] [--out DIR]
    ssue estimate      --config cfg.json [--seed N] [--steps N] [--out DIR]
                       [--input RECORD_DIR] [--runs N]
    ssue observability --config cfg.json [--out DIR]
    ssue analyze       --config cfg.json --input RECORD_DIR [--out DIR]

The config file is a single JSON document; command line flags win over file
values.  Exit codes: 0 success, 2 configuration error, 3 numerical failure
(with ``--runs N``: any run failed; the others are still written),
4 not observable on the grid at the tested horizon.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .analysis import kl_separation, linearized_C, loglik_ratio_trajectory
from .errors import ConfigurationError, ContractError, NumericalFailureError
from .observability import DeltaGrid, pairwise_rank_test
from .sim import (
    MetricsSummary,
    RunRecord,
    Scenario,
    _write_csv,
    estimate_batch,
    load_record,
    save_record,
    simulate,
    tracking_preset,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_NOT_OBSERVABLE = 4


def _scenario_from_config(cfg: dict) -> Scenario:
    """The ``"model"`` form takes the fields of :meth:`Scenario.to_dict`, the preset
    form the parameters of :func:`tracking_preset`."""
    scn = cfg["scenario"]
    _only(scn, [f.name for f in fields(Scenario)] if "model" in scn
          else inspect.signature(tracking_preset).parameters, "scenario.")
    try:
        if "model" in scn:
            return Scenario.from_dict({"Ts": 0.1, **scn,
                                       "steps": _integer(scn["steps"], "scenario.steps"),
                                       "seed": _integer(scn.get("seed", 0), "scenario.seed")})
        return tracking_preset(**scn)
    except KeyError as exc:
        raise ConfigurationError(f"scenario is missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad scenario field: {exc}") from exc


def _object(cfg: dict, key: str) -> dict:
    value = cfg.get(key, {})
    if not isinstance(value, dict):
        raise ConfigurationError(f"'{key}' must be an object")
    return value


def _only(obj: dict, keys, where: str) -> dict:
    """``obj``, refusing every key outside ``keys`` by its path ``where + key``."""
    unknown = ", ".join(f"'{where}{key}'" for key in sorted(set(obj) - set(keys)))
    if unknown:
        raise ConfigurationError(f"unknown config key {unknown}")
    return obj


def _integer(value, name: str) -> int:
    """``value`` as an int; fractional numbers, booleans and non-numbers are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not float(value).is_integer():
        raise ConfigurationError(f"'{name}' must be an integer, got {value!r}")
    return int(value)


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigurationError("config root must be a JSON object")
    return _only(cfg, ("scenario", "observability", "analysis", "output_dir"), "")


def _apply_overrides(cfg: dict, args) -> dict:
    scn = dict(_object(cfg, "scenario"))
    for key in ("seed", "steps"):
        if getattr(args, key, None) is not None:
            scn[key] = getattr(args, key)
    cfg = dict(cfg)
    cfg["scenario"] = scn
    if args.out is not None:
        cfg["output_dir"] = args.out
    return cfg


def _output_dir(cfg: dict) -> Path:
    out = Path(cfg.get("output_dir", "ssue_out"))
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise ConfigurationError(f"output_dir {out} is not writable: {exc}") from exc
    return out


def cmd_simulate(cfg: dict, args) -> int:
    scenario = _scenario_from_config(cfg)
    out = _output_dir(cfg)
    save_record(simulate(scenario), out)
    print(f"wrote truth/measurements for {scenario.steps} steps to {out}")
    return EXIT_OK


def cmd_estimate(cfg: dict, args) -> int:
    scenario = _scenario_from_config(cfg)
    runs = args.runs
    if runs < 1:
        raise ConfigurationError("--runs must be >= 1")
    records = None
    if args.input is not None:
        if runs > 1:
            raise ConfigurationError("--input and --runs cannot be combined")
        record = load_record(args.input)
        if record.scenario is None:
            record.scenario = scenario
        scenario = record.scenario
        if record.truth.shape[1] != scenario.model.n:
            raise ConfigurationError("input record does not match the configured model")
        records = [record]
    out = _output_dir(cfg)

    scenarios = [replace(scenario, seed=scenario.seed + i) for i in range(runs)]
    outcomes = estimate_batch(scenarios, records)
    if runs == 1 and not isinstance(outcomes[0], RunRecord):
        raise outcomes[0]
    summary = MetricsSummary.from_outcomes(scenarios, outcomes)
    metrics = iter(summary.per_run)
    for i, outcome in enumerate(outcomes):
        if isinstance(outcome, RunRecord):
            directory = out / f"run_{i:03d}" if runs > 1 else out
            save_record(outcome, directory)
            (directory / "summary.json").write_text(json.dumps(next(metrics).to_dict(), indent=2))
    if runs == 1:
        run = summary.per_run[0]
        print(f"identified {run.identified} "
              f"(delta_hat {run.final_delta_hat:.4f}); outputs in {out}")
        return EXIT_OK
    (out / "aggregate.json").write_text(json.dumps(summary.to_dict(), indent=2))
    for seed, message in summary.failures:
        print(f"numerical failure: run with seed {seed}: {message}", file=sys.stderr)
    print(f"{len(summary.per_run)} of {runs} runs completed: success rate "
          f"{summary.success_rate:.2f}; outputs in {out}")
    return EXIT_NUMERICAL if summary.failures else EXIT_OK


def cmd_observability(cfg: dict, args) -> int:
    scenario = _scenario_from_config(cfg)
    obs_cfg = _only(_object(cfg, "observability"), ("K", "grid_points"), "observability.")
    K = _integer(obs_cfg.get("K", 10), "observability.K")
    if K < 1:
        raise ConfigurationError("observability K must be >= 1")
    grid_points = _integer(obs_cfg.get("grid_points", 101), "observability.grid_points")
    out = _output_dir(cfg)

    model = scenario.model
    # Nonlinear measurement maps are linearized at the scenario's initial truth.
    C = linearized_C(model, x_ref=scenario.x0_truth)
    grid = DeltaGrid.from_domain(model.domain, points_per_interval=grid_points)
    report = pairwise_rank_test(model.A, C, model.locations, grid, K)

    doc = report.to_dict()
    doc["grid"] = {
        "points": int(len(grid)),
        "min": float(grid.values.min()),
        "max": float(grid.values.max()),
        "resolution": grid.resolution,
    }
    (out / "observability_report.json").write_text(json.dumps(doc))
    if report.smallest_passing_N is None:
        print(f"not observable on the grid at horizon {K}: "
              f"{len(report.failures)} failing pairs (report in {out})", file=sys.stderr)
        return EXIT_NOT_OBSERVABLE
    print(f"observable from N={report.smallest_passing_N}; report in {out}")
    return EXIT_OK


def cmd_analyze(cfg: dict, args) -> int:
    if args.input is None:
        raise ConfigurationError("analyze needs --input RECORD_DIR")
    ana = _only(_object(cfg, "analysis"), ("horizon", "ratio_pairs"), "analysis.")
    horizon = _integer(ana.get("horizon", 20), "analysis.horizon")
    pairs = ana.get("ratio_pairs")
    if pairs is not None:
        if not isinstance(pairs, list) or not all(
                isinstance(pair, list) and len(pair) == 2 for pair in pairs):
            raise ConfigurationError("'analysis.ratio_pairs' must be a list of [t, i] pairs")
        pairs = [[_integer(v, "analysis.ratio_pairs") for v in pair] for pair in pairs]
    try:
        record = load_record(args.input)
    except (OSError, ContractError) as exc:
        raise ConfigurationError(f"cannot load record {args.input}: {exc}") from exc
    if record.log_lambdas is None or record.scenario is None:
        raise ConfigurationError(
            f"record {args.input} has no stored likelihoods; run `ssue estimate` first")
    out = _output_dir(cfg)
    scenario = record.scenario
    model = scenario.model
    M = model.M

    grid = DeltaGrid(values=np.array([scenario.true_delta]))
    D = kl_separation(model, grid, horizon, x_ref=scenario.x0_truth)
    labels = model.locations.labels
    _write_csv(out / "kl_matrix.csv", [""] + labels,
               ([label] + row for label, row in zip(labels, D.tolist())))

    if pairs is None:
        pairs = [[t, i] for t in range(M) for i in range(M) if t != i]
    for t, i in pairs:
        traj = loglik_ratio_trajectory(record, t, i)
        _write_csv(out / f"loglik_ratio_{labels[t]}_vs_{labels[i]}.csv", ["step", "log_ratio"],
                   enumerate(traj.tolist()))
    print(f"KL matrix (horizon {horizon}) and {len(pairs)} ratio trajectories in {out}")
    return EXIT_OK


COMMANDS = {
    "simulate": cmd_simulate,
    "estimate": cmd_estimate,
    "observability": cmd_observability,
    "analyze": cmd_analyze,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssue",
        description="Simultaneous state and uncertainty estimation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "seed": dict(type=int, default=None, help="override scenario seed"),
        "steps": dict(type=int, default=None, help="override run length"),
        "input": dict(default=None, help="existing record directory"),
        "runs": dict(type=int, default=1, help="Monte Carlo batch size (seeds seed..seed+N-1)"),
    }
    for name, help_text, own_flags in (
        ("simulate", "generate truth and measurement CSVs", ("seed", "steps")),
        ("estimate", "run the filter (and EKF baseline) over a scenario",
         ("seed", "steps", "input", "runs")),
        ("observability", "pairwise rank test over the delta grid", ()),
        ("analyze", "KL matrix and evidence-ratio trajectories of a record", ("input",)),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the JSON config")
        cmd.add_argument("--out", default=None, help="override output_dir")
        for flag in own_flags:
            cmd.add_argument(f"--{flag}", **flags[flag])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _apply_overrides(_load_config(args.config), args)
        return COMMANDS[args.command](cfg, args)
    except (ConfigurationError, ContractError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc} (context: {exc.context})", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
