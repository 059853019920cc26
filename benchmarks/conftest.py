"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one table or figure of the paper on a synthetic
world.  The world is larger than the unit-test one (so that per-day metrics
are less noisy) but still laptop-scale; set the environment variable
``REPRO_BENCH_SCALE=paper`` to run closer to the paper's hyperparameters
(slower, more faithful hyperparameter values).
"""

from __future__ import annotations

import os

import pytest

from repro.core import ExperimentConfig, ExperimentRunner, ModelHyperparameters
from repro.datagen import generate_world
from repro.datagen.profiles import ProfileConfig
from repro.datagen.transactions import WorldConfig

BENCH_NETWORK_DAYS = 25
BENCH_TRAIN_DAYS = 7
BENCH_SCALE = os.environ.get("REPRO_BENCH_SCALE", "laptop")


def bench_hyperparameters() -> ModelHyperparameters:
    if BENCH_SCALE == "paper":
        return ModelHyperparameters()  # the values of Section 5.1
    return ModelHyperparameters.laptop_scale()


@pytest.fixture(scope="session")
def bench_world():
    """The synthetic evaluation world shared by every benchmark."""
    config = WorldConfig(
        profile=ProfileConfig(
            num_users=1500,
            num_communities=12,
            fraudster_fraction=0.03,
            seed=11,
        ),
        num_days=BENCH_NETWORK_DAYS + BENCH_TRAIN_DAYS + 8,
        transactions_per_user_per_day=0.45,
        seed=11,
    )
    return generate_world(config)


@pytest.fixture(scope="session")
def bench_runner(bench_world):
    """Experiment runner with the benchmark hyperparameters (2 rolling datasets)."""
    config = ExperimentConfig(
        num_datasets=2,
        network_days=BENCH_NETWORK_DAYS,
        train_days=BENCH_TRAIN_DAYS,
        hyperparameters=bench_hyperparameters(),
    )
    return ExperimentRunner(bench_world, config)


def run_once(benchmark, func):
    """Run ``func`` exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(func, rounds=1, iterations=1, warmup_rounds=0)
