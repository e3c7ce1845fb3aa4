"""The numpy-free closed forms' minimiser grid; the relations between the bounds are rows of tests/test_relations.py."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from overlapbounds.closed import linspace


@pytest.mark.parametrize("n", [129, 257])
@given(st.tuples(st.floats(-1e300, 1e300), st.floats(-1e300, 1e300)).map(sorted))
@settings(max_examples=500, deadline=None, derandomize=True)
def test_grid_is_numpy_linspace_bit_for_bit(n, ends):
    lo, hi = ends
    assert linspace(lo, hi, n) == np.linspace(lo, hi, n).tolist()


def test_one_point_grid_is_its_lower_end():
    assert linspace(0.25, 0.75, 1) == np.linspace(0.25, 0.75, 1).tolist() == [0.25]
