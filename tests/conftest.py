import dataclasses
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
