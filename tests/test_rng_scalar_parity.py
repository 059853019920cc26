"""The scalar spellings of :mod:`repro.rng` against the numpy calls they replace.

The per-element world generators draw single values with :func:`clamp` and
:class:`Categorical` instead of ``np.clip`` and ``Generator.choice(..., p=...)``.
Every generated row is compared by ``repr`` downstream, so the properties here
ask for the same bits after the conversion each call site applies, and for the
generator to be left in the same state.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.rng import Categorical, clamp

# ---------------------------------------------------------------------------
# Categorical == Generator.choice(len(p), p=p), draw for draw
# ---------------------------------------------------------------------------

_weights = st.lists(
    st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=1e3)), min_size=1, max_size=8
).filter(lambda weights: sum(weights) > 0.0)


def _categorical_matches_choice(seed, weights, draws):
    p = np.asarray(weights) / np.sum(weights)
    ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
    categorical = Categorical(p)
    got = [categorical.draw(ours) for _ in range(draws)]
    assert got == [numpys.choice(len(p), p=p) for _ in range(draws)]
    assert all(p[index] > 0.0 for index in got)
    # One double per draw, as numpy consumes: the streams stay aligned.
    assert ours.random() == numpys.random()


_categorical_runs = given(
    seed=st.integers(0, 2**32 - 1), weights=_weights, draws=st.integers(1, 40)
)
#: Zeros at both ends and in the middle, and a single outcome.
_categorical_examples = (
    example(seed=0, weights=[0.0, 1.0, 0.0, 2.0, 0.0], draws=40),
    example(seed=1, weights=[5.0], draws=3),
)


def _categorical_property(max_examples: int):
    test = _categorical_matches_choice
    for case in _categorical_examples:
        test = case(test)
    return settings(max_examples=max_examples, deadline=None)(_categorical_runs(test))


test_categorical_draw_matches_numpy_choice = _categorical_property(60)
test_categorical_draw_matches_numpy_choice_soak = pytest.mark.slow(_categorical_property(2000))


@pytest.mark.parametrize(
    "values, p",
    [
        (("app", "web", "pos", "api"), (0.6, 0.15, 0.2, 0.05)),
        (("app", "web", "pos", "api"), (0.5, 0.3, 0.1, 0.1)),
        ((1, 2, 3), (0.35, 0.40, 0.25)),
        ((1, 2, 3), (0.10, 0.35, 0.55)),
    ],
)
def test_the_generators_mixes_draw_what_choice_draws_over_their_values(values, p):
    ours, numpys = np.random.default_rng(3), np.random.default_rng(3)
    categorical = Categorical(p)
    got = [values[categorical.draw(ours)] for _ in range(2000)]
    assert got == [numpys.choice(values, p=p).item() for _ in range(2000)]
    assert ours.random() == numpys.random()


class _FixedDouble:
    """A stand-in generator whose one double is chosen by the test."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


def test_a_double_equal_to_a_cdf_step_lands_where_searchsorted_right_puts_it():
    # Ties have probability ~2**-53 under a real generator, so pin them here.
    p = np.array([0.0, 0.25, 0.0, 0.25, 0.5])
    cdf = p.cumsum() / p.cumsum()[-1]
    categorical = Categorical(p)
    for u in (0.0, *cdf[:-1], 0.9999999999999999):
        assert categorical.draw(_FixedDouble(u)) == cdf.searchsorted(u, side="right")
    # choice accepts a p that sums to 1 within 1.5e-8 and divides its cdf by
    # the last entry: 0.5 then falls below the first step, not on it.
    assert Categorical((0.5, 0.5 - 1e-9)).draw(_FixedDouble(0.5)) == 0


@pytest.mark.parametrize(
    "p", [(), (0.5, 0.6), (1.5, -0.5), (0.5, float("nan")), ((0.5, 0.5),)], ids=repr
)
def test_probabilities_numpy_would_refuse_are_refused_at_construction(p):
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(max(len(p), 1), p=p)
    with pytest.raises(ValueError, match="p must be"):
        Categorical(p)


# ---------------------------------------------------------------------------
# clamp == np.clip, after the call site's float() / int()
# ---------------------------------------------------------------------------

#: The bounds and conversion of the call sites, each pair once (the two IP
#: risks and the risk propensity share ``(0, 1, float)``; ``_sample_age``'s
#: bounds are the ``ProfileConfig`` defaults).
_CALL_SITES = (
    (0.5, 100_000.0, float),
    (0, 23, int),
    (0, 1, float),
    (1, 4000, int),
    (1, 12, int),
    (18, 75, int),
    (10.0, 200_000.0, float),
    (0, 30, int),
)
_SPECIALS = (0.0, -0.0, math.inf, -math.inf, math.nan)


def _converted(convert, value):
    """``convert(value)`` as ``repr`` (so ``-0.0`` and NaN compare), or the
    exception type it raises (``int`` of NaN or infinity)."""
    try:
        return repr(convert(value))
    except (ValueError, OverflowError) as error:
        return type(error)


def _assert_clamp_is_clip(value, low, high, convert):
    assert _converted(convert, clamp(value, low, high)) == _converted(
        convert, np.clip(value, low, high)
    ), (value, low, high)


def _values(low, high):
    return st.one_of(
        st.floats(),
        st.integers(-(2**53), 2**53),
        st.sampled_from((low, high, float(low), float(high), *_SPECIALS)),
    )


@st.composite
def _call_site_cases(draw):
    low, high, convert = draw(st.sampled_from(_CALL_SITES))
    return draw(_values(low, high)), low, high, convert


@st.composite
def _free_cases(draw):
    # Any bounds but NaN ones, which no call site has: numpy answers NaN.
    bounds = st.one_of(
        st.floats(allow_nan=False), st.integers(-1000, 1000), st.sampled_from(_SPECIALS[:-1])
    )
    low, high = draw(bounds), draw(bounds)
    return draw(_values(low, high)), low, high, draw(st.sampled_from((float, int)))


def _clamp_matches_clip(case):
    _assert_clamp_is_clip(*case)


_clamp_runs = given(case=st.one_of(_call_site_cases(), _free_cases()))


def _clamp_property(max_examples: int):
    return settings(max_examples=max_examples, deadline=None)(_clamp_runs(_clamp_matches_clip))


test_clamp_matches_numpy_clip = _clamp_property(300)
test_clamp_matches_numpy_clip_soak = pytest.mark.slow(_clamp_property(10_000))


@pytest.mark.parametrize("low, high, convert", _CALL_SITES)
@pytest.mark.parametrize("value", [*_SPECIALS, 0, 1, 23, 4000, 1e300, -1e300])
def test_clamp_matches_numpy_clip_on_the_edges_of_every_call_site(value, low, high, convert):
    for candidate in (value, low, high, float(low), float(high)):
        _assert_clamp_is_clip(candidate, low, high, convert)


def test_a_tie_with_a_bound_keeps_the_value_as_numpy_does():
    assert repr(clamp(-0.0, 0, 1)) == repr(float(np.clip(-0.0, 0, 1))) == "-0.0"
    assert repr(clamp(0.0, -1.0, -0.0)) == repr(float(np.clip(0.0, -1.0, -0.0))) == "0.0"
    assert repr(clamp(2.0, 3.0, 1.0)) == repr(float(np.clip(2.0, 3.0, 1.0))) == "1.0"
