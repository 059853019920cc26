"""Every settable value is checked once, where it is set (``repro.contracts``).

The classes are found by reflection, so a new one is covered without an edit
here: every public ``*Config`` / ``*Spec`` dataclass in ``src/repro`` (with
``ModelHyperparameters``), Figure 10's ``ClusterCostModel`` and
``MeasuredRound`` (``benchmarks/paper/cost_model.py``) and every public
detector.  Each field or constructor parameter annotated ``int`` or
``float`` (``Optional`` too) is fed values of kinds no such setting can use: a
float for an integer, ``True``, NaN, ±inf, a negative number and a string.
Each must be rejected at construction with a :class:`ReproError` subclass —
never accepted, and never a bare ``TypeError`` — unless :data:`ALLOWED` names
the (class, field, kind) with its reason; then the object is built and used
once, which must not raise.  ``2.5`` is not fed to ``float`` fields: it is a
float, and the bounds each field declares are tested by the field's own
tests.  Tier-1 runs the fixed values of every field and a bounded number of
drawn ones; the ``slow`` soak draws many more.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import math
import pkgutil
import types
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.datagen import generate_world
from repro.datagen.profiles import ProfileConfig
from repro.datagen.transactions import WorldConfig
from repro.exceptions import (
    DataGenerationError,
    EmbeddingError,
    GraphError,
    ModelError,
    ReproError,
    ServingError,
)
from repro.graph.random_walk import RandomWalkConfig
from repro.kunpeng.cluster import ClusterConfig
from repro.models.base import BaseDetector
from repro.models.gbdt import GradientBoostingClassifier
from repro.nrl.word2vec import SkipGramConfig
from repro.serving.admission import AdmissionConfig
from repro.serving.coalescer import CoalescerConfig, RequestCoalescer

#: Dataclasses covered although their names end in neither Config nor Spec.
NAMED = ("ModelHyperparameters", "ClusterCostModel", "MeasuredRound")

#: Modules outside ``src/repro`` whose settings are checked the same way.
MOVED = ("benchmarks.paper.cost_model",)


def _public_classes():
    names = [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")]
    for module_name in [*names, *MOVED]:
        module = importlib.import_module(module_name)
        for name, value in vars(module).items():
            if inspect.isclass(value) and value.__module__ == module.__name__ and name[0] != "_":
                yield value


CLASSES = sorted(set(_public_classes()), key=lambda cls: f"{cls.__module__}.{cls.__qualname__}")
CONFIGS = [
    cls
    for cls in CLASSES
    if dataclasses.is_dataclass(cls)
    and (cls.__name__.endswith(("Config", "Spec")) or cls.__name__ in NAMED)
]
DETECTORS = [cls for cls in CLASSES if issubclass(cls, BaseDetector) and not inspect.isabstract(cls)]

#: Valid values of the fields that have no default.
REQUIRED = {
    "AdmissionConfig": dict(capacity_rps=10.0),
    "BurstSpec": dict(day=0, start_hour=8),
    "EmbeddingBlockSpec": dict(set_name="dw", dimension=4),
    "MeasuredRound": dict(
        cluster=ClusterConfig(),
        total_compute_units=1.0,
        comm_values_per_round=1.0,
        num_rounds=1,
        measured_seconds=1.0,
    ),
    "SliceSpec": dict(network_start=0, network_end=2, train_start=2, train_end=4, test_day=4),
}


def _scalar_kind(hint):
    """``"int"`` or ``"float"`` for an int / float annotation (optional too)."""
    members = [hint]
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        members = [arg for arg in typing.get_args(hint) if arg is not type(None)]
    return {int: "int", float: "float"}.get(members[0]) if len(members) == 1 else None


def _numeric_fields(cls):
    """``(name, "int" | "float")`` of every numeric field or parameter."""
    if dataclasses.is_dataclass(cls):
        hints = typing.get_type_hints(cls)
        names = [field.name for field in dataclasses.fields(cls)]
    else:
        hints, names = {}, []
        for klass in cls.__mro__:  # a ``**kwargs`` constructor takes its base's parameters
            init = klass.__dict__.get("__init__")
            if init is None or klass is BaseDetector:
                continue
            parameters = inspect.signature(init).parameters.values()
            hints = {**typing.get_type_hints(init), **hints}
            names += [p.name for p in parameters if p.kind is p.KEYWORD_ONLY and p.name not in names]
            if not any(p.kind is p.VAR_KEYWORD for p in parameters):
                break
    kinds = [(name, _scalar_kind(hints[name])) for name in names]
    return [(name, kind) for name, kind in kinds if kind is not None]


CASES = [(cls, name, kind) for cls in CONFIGS + DETECTORS for name, kind in _numeric_fields(cls)]

#: One value of each kind no numeric setting of the repo can use.
FIXED = {
    "float": 2.5,
    "bool": True,
    "nan": math.nan,
    "+inf": math.inf,
    "-inf": -math.inf,
    "negative": -1,
    "string": "x",
}


def _drawn(kind):
    """The same kinds, drawn."""
    return {
        "float": st.floats(-1e6, 1e6),
        "bool": st.booleans(),
        "nan": st.just(math.nan),
        "+inf": st.just(math.inf),
        "-inf": st.just(-math.inf),
        "negative": st.integers(-(10**6), -1)
        if kind == "int"
        else st.floats(-1e6, 0.0, exclude_max=True),
        "string": st.text(max_size=4),
    }


def _kinds(kind):
    """A float is a float field's own kind of value."""
    return [name for name in FIXED if not (kind == "float" and name == "float")]


def _run_world(config):
    generate_world(
        WorldConfig(
            profile=ProfileConfig(num_users=60, num_communities=3, fraudster_fraction=0.05, seed=5),
            fraud=config,
            num_days=4,
            transactions_per_user_per_day=0.6,
            seed=5,
        )
    )


class _EchoFrontEnd:
    def process_batch(self, requests, *, was_fraud=None):
        return list(requests)


def _run_coalescer(config):
    coalescer = RequestCoalescer(_EchoFrontEnd(), config)
    for now_ms in (0.0, 1_000.0, 1e9):
        assert coalescer.submit(f"request@{now_ms}", now_ms=now_ms) == []
    assert len(coalescer.flush()) == 3


#: ``(class, field, kind)`` -> why values of that kind are legal there, and
#: how the test uses the object built with one.
ALLOWED = {
    ("FraudConfig", "fraud_amount_log_mean", "negative"): (
        "a log-mean below 0 is a median fraud amount below 1; amounts are clipped to [10, 200000]",
        _run_world,
    ),
    ("CoalescerConfig", "max_delay_ms", "+inf"): (
        "no deadline: a batch flushes only when full (replay_transactions' batch mode)",
        _run_coalescer,
    ),
}


def _problem(cls, name, kind, value):
    """What is wrong with how ``cls`` treats ``value`` for ``name`` (None: nothing)."""
    call = f"{cls.__name__}({name}={value!r})"
    try:
        built = cls(**{**REQUIRED.get(cls.__name__, {}), name: value})
    except ReproError:
        return None
    except Exception as error:  # noqa: BLE001 - the bare error is the finding
        return f"{call} raised a bare {type(error).__name__}: {error}"
    allowed = ALLOWED.get((cls.__name__, name, kind))
    if allowed is None:
        return f"{call} was accepted"
    allowed[1](built)
    return None


def test_discovery_finds_the_configs_and_detectors():
    names = {cls.__name__ for cls in CONFIGS + DETECTORS}
    assert {"RandomWalkConfig", "WorldConfig", "AdmissionConfig", "SliceSpec", *NAMED} <= names
    assert {
        "GradientBoostingClassifier",
        "LogisticRegression",
        "DistributedGBDT",
    } <= names
    assert len(CONFIGS) >= 24 and len(CASES) >= 100
    assert {key[:2] for key in ALLOWED} <= {(cls.__name__, name) for cls, name, _ in CASES}


@pytest.mark.parametrize("cls", CONFIGS + DETECTORS, ids=lambda cls: cls.__name__)
def test_every_numeric_field_rejects_the_fixed_bad_values(cls):
    problems = [
        _problem(cls, name, value_kind, FIXED[value_kind])
        for name, kind in _numeric_fields(cls)
        for value_kind in _kinds(kind)
    ]
    assert [problem for problem in problems if problem] == []


def _drawn_bad_values_are_rejected(data):
    cls, name, kind = data.draw(st.sampled_from(CASES), label="field")
    value_kind = data.draw(st.sampled_from(_kinds(kind)), label="kind")
    value = data.draw(_drawn(kind)[value_kind], label="value")
    assert _problem(cls, name, value_kind, value) is None


test_drawn_bad_values_are_rejected = settings(max_examples=150, deadline=None)(
    given(st.data())(_drawn_bad_values_are_rejected)
)
test_drawn_bad_values_are_rejected_soak = pytest.mark.slow(
    settings(max_examples=3000, deadline=None)(given(st.data())(_drawn_bad_values_are_rejected))
)


def test_defaults_construct():
    for cls in CONFIGS + DETECTORS:
        cls(**REQUIRED.get(cls.__name__, {}))


# ---------------------------------------------------------------------------
# Named regressions: each of these was accepted, or failed later with a bare
# TypeError, before the contracts.
# ---------------------------------------------------------------------------


def test_gbdt_num_trees_must_be_an_integer():
    """It fitted to a bare TypeError ("'float' object cannot be interpreted
    as an integer") from the boosting loop's range()."""
    with pytest.raises(ModelError, match="num_trees"):
        GradientBoostingClassifier(num_trees=2.5)


def test_gbdt_min_samples_leaf_must_be_an_integer():
    """It fitted silently, with a fractional leaf-size rule."""
    with pytest.raises(ModelError, match="min_samples_leaf"):
        GradientBoostingClassifier(min_samples_leaf=2.5)


def test_walk_length_must_be_an_integer():
    """Walking raised a bare TypeError from numpy."""
    with pytest.raises(GraphError, match="walk_length"):
        RandomWalkConfig(walk_length=2.5)


def test_admission_queue_depth_must_be_an_integer():
    with pytest.raises(ServingError, match="max_queue_depth"):
        AdmissionConfig(capacity_rps=10.0, max_queue_depth=2.5)


def test_a_string_dimension_is_a_repro_error():
    """``validate()`` raised a bare TypeError comparing a str with 0."""
    with pytest.raises(EmbeddingError, match="dimension"):
        SkipGramConfig(dimension="32")


def test_a_checked_config_cannot_be_mutated():
    config = CoalescerConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.max_batch = 0  # type: ignore[misc]
    with pytest.raises(ServingError, match="max_batch"):
        dataclasses.replace(config, max_batch=0)
    with pytest.raises(DataGenerationError, match="num_users"):
        dataclasses.replace(ProfileConfig(), num_users=0)
