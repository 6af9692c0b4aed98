import collections
import dataclasses
import json
import time

import numpy as np
import pytest

import ssue


@pytest.fixture(scope="session")
def tracking_scenario():
    return ssue.tracking_preset(seed=42)


@pytest.fixture(scope="session")
def tracking_batch():
    """20 seeded full estimation runs of the tracking preset, filtered as one
    Monte Carlo batch and shared by the consistency and scenario-reproduction
    acceptance criteria.

    Returns (records, wall_time_seconds); the build time is charged against
    both criteria's runtime budgets.
    """
    t0 = time.time()
    template = ssue.tracking_preset()
    records = ssue.estimate_batch([dataclasses.replace(template, seed=1000 + i)
                                   for i in range(20)])
    return records, time.time() - t0


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture()
def count_linalg(monkeypatch):
    """Calling it starts counting every np.linalg call: returns a Counter of calls by
    name and a list of (name, shape of the first argument) in call order."""
    def start():
        calls, shapes = collections.Counter(), []
        for name in np.linalg.__all__:
            fn = getattr(np.linalg, name)
            if callable(fn) and not isinstance(fn, type):
                def counted(*args, _real=fn, _name=name, **kwargs):
                    calls[_name] += 1
                    shapes.append((_name, np.shape(args[0]) if args else None))
                    return _real(*args, **kwargs)
                monkeypatch.setattr(np.linalg, name, counted)
        return calls, shapes
    return start


def _break_record(record, fault: str) -> str:
    """Give the record directory ``record`` of an estimation run one fault that
    ``save_record`` never writes; returns the name of the file it broke."""
    name = fault.split("_")[0] + (".json" if fault.startswith("meta") else ".csv")
    path = record / name
    text = path.read_text()
    lines = text.splitlines()
    doc = json.loads(text) if fault.startswith("meta") else None
    if fault == "meta_not_json":
        text = "{not json"
    elif fault == "meta_string":
        text = json.dumps("record")
    elif fault == "meta_no_true_delta":
        del doc["scenario"]["true_delta"]
        text = json.dumps(doc)
    elif fault == "meta_bad_matrix":
        doc["scenario"]["model"]["A"] = "x"
        text = json.dumps(doc)
    elif fault.endswith("_short"):  # half of the steps
        text = "\n".join(lines[:1 + (len(lines) - 1) // 2]) + "\n"
    elif fault.endswith("_column_dropped"):
        text = "\n".join(line.rsplit(",", 1)[0] for line in lines) + "\n"
    elif fault == "weights_two_hypotheses":  # a well-formed weights.csv of locations 0 and 1
        M = (len(lines[0].split(",")) - 1) // 2
        text = "\n".join(",".join(line.split(",")[i] for i in (0, 1, 2, M + 1, M + 2))
                         for line in lines) + "\n"
    path.write_text(text)
    return name


@pytest.fixture(params=["meta_not_json", "meta_string", "meta_no_true_delta", "meta_bad_matrix",
                        "weights_short", "weights_column_dropped", "weights_two_hypotheses",
                        "estimates_short", "estimates_column_dropped"])
def break_record(request):
    """Breaks an estimation record directory with this fixture's fault and returns
    the name of the file it broke."""
    return lambda record: _break_record(record, request.param)
