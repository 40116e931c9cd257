"""Hypothesis inputs and a comparison for the measure and kernel constructors.

The inputs sit on and just across each validation rule's boundary: NaN,
+-inf, -0.0, negative dust at -INVARIANT_ATOL and just below it, sums at
the last double within a tolerance of 1 and the first beyond it, wrong
shapes, ragged lists, Fortran-ordered and strided arrays.
"""
import math

import numpy as np
import pytest
from hypothesis import strategies as st

from probmorph._tol import INVARIANT_ATOL


def just_outside(x):
    return float(np.nextafter(x, np.inf if x > 0 else -np.inf))


# entries that sit on or just across a rule's boundary
SPECIAL_ENTRIES = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, -INVARIANT_ATOL,
    just_outside(-INVARIANT_ATOL), -INVARIANT_ATOL / 2, 1e-300, 1e308,
]


def edge_of_sum(atol, side):
    """The double farthest from 1 on one side (+1 or -1) within atol of 1."""
    s, away = 1.0 + side * atol, 1.0 + side
    while abs(s - 1.0) > atol:
        s = float(np.nextafter(s, 1.0))
    while abs(float(np.nextafter(s, away)) - 1.0) <= atol:
        s = float(np.nextafter(s, away))
    return s


def past_edge_of_sum(atol, side):
    return float(np.nextafter(edge_of_sum(atol, side), 1.0 + side))


def _sum_targets(atol):
    edges = [f(atol, side) for f in (edge_of_sum, past_edge_of_sum) for side in (1, -1)]
    return [1.0, 1.0 + atol / 2, 1.2, *edges]


@st.composite
def weight_rows(draw, n, atol):
    """n weights whose exact sum is a target on either side of 1 +- atol.

    The first n - 1 weights are dyadic, so the last one, target minus
    their sum, is exact and any summation order lands on the target.
    Up to two entries are then overwritten by SPECIAL_ENTRIES.
    """
    ints = draw(st.lists(st.integers(0, 64), min_size=n - 1, max_size=n - 1))
    head = [a / (64 * n) for a in ints]
    target = draw(st.sampled_from(_sum_targets(atol)))
    row = head + [target - sum(head)]
    for i in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        row[i] = draw(st.sampled_from(SPECIAL_ENTRIES))
    return row


def shaped_inputs(draw, rows):
    """rows (a list of lists) as a constructor might receive it, well or badly shaped."""
    form = draw(st.sampled_from(["array", "list", "fortran", "strided", "short", "long", "ragged"]))
    a = np.array(rows)
    if form == "list":
        return rows
    if form == "fortran":
        return np.asfortranarray(a)
    if form == "strided":  # a view into a larger buffer that the caller keeps
        return np.repeat(a, 2, axis=1)[:, ::2]
    if form == "short":
        return a[:, :-1] if a.shape[1] > 1 else a[:-1]
    if form == "long":
        return np.hstack([a, a[:, :1]])
    if form == "ragged":
        return [*rows[:-1], rows[-1] + [0.0]]
    return a


def assert_builds_like(build, reference, spaces, given_input, attr):
    """build and reference agree on acceptance, error type and message, and stored bits.

    Both are called as f(*spaces, given_input); reference returns the
    array that build must store as `attr`, read-only and not shared with
    the caller. Returns the built object, or None when both raised.
    """
    try:
        expect = reference(*spaces, given_input)
    except Exception as exc:
        with pytest.raises(type(exc)) as info:
            build(*spaces, given_input)
        assert type(info.value) is type(exc) and str(info.value) == str(exc)
        return None
    got = build(*spaces, given_input)
    stored = getattr(got, attr)
    assert stored.dtype == np.float64 and stored.shape == expect.shape
    assert stored.tobytes() == expect.tobytes()
    assert not stored.flags.writeable and stored.flags.c_contiguous
    if isinstance(given_input, np.ndarray):
        given_input[...] = 7.0
        assert stored.tobytes() == expect.tobytes()
    return got
