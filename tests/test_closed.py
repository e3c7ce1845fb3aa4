"""The numpy-free closed forms: the minimiser's grid, and the relations between the bounds that hold today."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from overlapbounds.closed import (
    TailFunction,
    freedman_exp_bound,
    freedman_tail_bound,
    geometric_tail_bound,
    improved_exp_bound,
    linspace,
    powerlaw_tail_asymptotic,
    rate_aware_exp_bound,
)
from overlapbounds.errors import DomainError


@pytest.mark.parametrize("n", [129, 257])
@given(st.tuples(st.floats(-1e300, 1e300), st.floats(-1e300, 1e300)).map(sorted))
@settings(max_examples=500, deadline=None, derandomize=True)
def test_grid_is_numpy_linspace_bit_for_bit(n, ends):
    lo, hi = ends
    assert linspace(lo, hi, n) == np.linspace(lo, hi, n).tolist()


def test_one_point_grid_is_its_lower_end():
    assert linspace(0.25, 0.75, 1) == np.linspace(0.25, 0.75, 1).tolist() == [0.25]


# positive values across the double range (the magnitudes tests/test_cli.py draws), and counts up to its top
_POSITIVE = st.one_of(st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.99), st.integers(-323, 307)),
                      st.sampled_from([5e-324, 1e-300, 0.5, 0.999999, 1.0, 2.0, 1e300, 1.7976931348623157e308]))
_K = st.one_of(st.integers(1, 100), st.builds(lambda e: 10**e, st.integers(0, 30)),
               st.integers(1, int(sys.float_info.max)))
_TAIL = st.tuples(st.sampled_from([TailFunction.power, TailFunction.geometric]), _POSITIVE, _POSITIVE)


def _nonincreasing(tail):
    """Whether a tail bound at the larger of two counts is at most the one at the smaller."""
    return lambda k, j, *params: tail(max(k, j), *params).value <= tail(min(k, j), *params).value


# relation: (the arguments it is drawn at, whether it holds there); a DomainError means a bound does not apply
RELATIONS = {
    "thm2.7 <= thm2.9": (st.tuples(_POSITIVE, _POSITIVE),
                         lambda c1, r: freedman_exp_bound(r, c1).value <= improved_exp_bound(r, c1).value),
    "cor2.10 >= 1": (st.tuples(_TAIL, _POSITIVE),
                     lambda tail, r: rate_aware_exp_bound(r, tail[0](*tail[1:])).value >= 1.0),
    "freedman.tail <= 1": (st.tuples(_K, _POSITIVE), lambda k, c1: freedman_tail_bound(k, c1).value <= 1.0),
    "freedman.tail nonincreasing in k": (st.tuples(_K, _K, _POSITIVE), _nonincreasing(freedman_tail_bound)),
    "ex2.12.tail nonincreasing in k": (st.tuples(_K, _K, _POSITIVE, _POSITIVE),
                                       _nonincreasing(powerlaw_tail_asymptotic)),
    "ex2.13.tail nonincreasing in k": (st.tuples(_K, _K, _POSITIVE, _POSITIVE), _nonincreasing(geometric_tail_bound)),
}


@pytest.mark.parametrize("relation", RELATIONS)
@given(data=st.data())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_closed_form_relation_holds_wherever_its_bounds_apply(relation, data):
    draw, holds = RELATIONS[relation]
    args = data.draw(draw)
    try:
        assert holds(*args), args
    except DomainError:
        pass

