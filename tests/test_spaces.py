import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from constructor_inputs import (
    assert_builds_like,
    edge_of_sum,
    just_outside,
    past_edge_of_sum,
    shaped_inputs,
    weight_rows,
)
from probmorph._tol import INVARIANT_ATOL, PROB_SUM_ATOL
from probmorph.spaces import (
    Dataset,
    FiniteSpace,
    ProbMeasure,
    ProductSpace,
    SignedMeasure,
    SpaceMismatchError,
    dirac,
    empirical,
    jordan_hahn,
    marginal,
    product,
    tv_norm,
)

AB = FiniteSpace(["a", "b"])
CD = FiniteSpace(["c", "d"])


def signed_measures(max_size=6):
    return st.integers(2, max_size).flatmap(
        lambda n: st.lists(
            st.floats(-5, 5, allow_nan=False), min_size=n, max_size=n
        ).map(lambda w: SignedMeasure(FiniteSpace(list(range(n))), w))
    )


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------
def test_space_requires_distinct_labels():
    with pytest.raises(ValueError):
        FiniteSpace(["a", "a"])


def test_space_structural_equality():
    assert FiniteSpace(["a", "b"]) == AB
    assert FiniteSpace(["a", "b"], coords=[[0.0], [1.0]]) != AB
    assert FiniteSpace(["b", "a"]) != AB


def test_product_space_row_major_order():
    prod = ProductSpace(AB, CD)
    assert prod.labels == (("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"))
    assert prod.size == 4
    assert prod.left == AB and prod.right == CD


def test_product_space_concatenates_coords():
    x = FiniteSpace(["a", "b"], coords=[[1.0, 2.0], [4.0, 5.0]])
    y = FiniteSpace(["c", "d", "e"], coords=[[3.0], [6.0], [7.0]])
    prod = ProductSpace(x, y)
    expect = [
        np.concatenate([x.coords[i], y.coords[j]]) for i in range(2) for j in range(3)
    ]
    assert np.array_equal(prod.coords, expect)


def test_prob_measure_rejects_bad_sum():
    with pytest.raises(ValueError):
        ProbMeasure(AB, [0.6, 0.6])
    with pytest.raises(ValueError):
        ProbMeasure(AB, [1.2, -0.2])


def test_prob_measure_renormalizes_tiny_drift():
    p = ProbMeasure(AB, [0.5 + 2e-10, 0.5])
    assert math.isclose(p.total_mass(), 1.0, abs_tol=1e-15)


def test_dataset_rejects_unknown_labels():
    prod = ProductSpace(AB, CD)
    with pytest.raises(KeyError, match="y label 'z' is not in the right factor"):
        Dataset(prod, [("a", "z")])
    with pytest.raises(KeyError, match="x label 'z' is not in the left factor"):
        Dataset(prod, [("a", "c"), ("z", "c")])


def test_dataset_counts_match_a_pair_loop():
    x = FiniteSpace([f"x{i}" for i in range(4)])
    y = FiniteSpace([f"y{j}" for j in range(3)])
    prod = ProductSpace(x, y)
    rng = np.random.default_rng(5)
    pairs = [(f"x{i}", f"y{j}") for i, j in zip(rng.integers(0, 3, 50), rng.integers(0, 3, 50))]
    S = Dataset(prod, pairs)
    loop = np.zeros((4, 3))
    for a, b in pairs:
        loop[x.index(a), y.index(b)] += 1
    assert np.array_equal(S.counts(), loop)
    assert loop[3].sum() == 0  # x3 is never drawn
    assert np.array_equal(empirical(S).weights, loop.reshape(-1) / 50)
    assert S.counts().shape == (4, 3) and Dataset(prod, []).counts().sum() == 0


def test_dataset_cells_are_the_product_indices_of_the_pairs():
    prod = ProductSpace(FiniteSpace(["a", "b", "c"]), FiniteSpace([0, 1.5]))
    pairs = [("c", 1.5), ("a", 0), ("b", 1.5), ("c", 0)]
    S = Dataset(prod, pairs)
    assert S.cells.tolist() == [prod.index(p) for p in pairs] == [5, 0, 3, 4]
    assert S.cells.dtype == np.intp and not S.cells.flags.writeable
    with pytest.raises(TypeError, match="unhashable"):
        Dataset(prod, [(["a"], 0)])


# Reference copies of the measure constructors' rules, one check per rule in
# precedence order. They return the array a constructor must store, or raise.
def reference_signed_weights(space, weights):
    w = np.asarray(weights, dtype=float).reshape(-1)
    if w.shape[0] != space.size:
        raise ValueError(f"{w.shape[0]} weights for {space.size} points")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    return w.copy()


def reference_prob_weights(space, weights):
    w = np.asarray(weights, dtype=float).reshape(-1).copy()
    if w.shape[0] != space.size:
        raise ValueError(f"{w.shape[0]} weights for {space.size} points")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    if np.any(w < -INVARIANT_ATOL):
        raise ValueError(f"negative weight {w.min():.3e} in a probability measure")
    np.clip(w, 0.0, None, out=w)
    s = math.fsum(w)
    if abs(s - 1.0) > PROB_SUM_ATOL:
        raise ValueError(f"weights sum to {s!r}, not 1")
    if s != 1.0:
        w /= s
    return reference_signed_weights(space, w)


@st.composite
def measure_inputs(draw, atol):
    """A space of 1 to 5 points and weights for it: flat, as a column, or as two rows."""
    n = draw(st.integers(1, 5))
    weights = draw(weight_rows(n, atol))
    layout = draw(st.sampled_from(["flat", "column", "two-rows"]))
    if layout == "column":
        return FiniteSpace(list(range(n))), shaped_inputs(draw, [[w] for w in weights])
    if layout == "two-rows":
        return FiniteSpace(list(range(n))), shaped_inputs(draw, [weights, weights])
    shaped = shaped_inputs(draw, [weights])
    if isinstance(shaped, np.ndarray) and shaped.shape[0] == 1:
        shaped = shaped[0]
    return FiniteSpace(list(range(n))), shaped


@settings(max_examples=400, deadline=None)
@given(measure_inputs(PROB_SUM_ATOL))
def test_prob_measure_matches_the_reference_rules(case):
    space, weights = case
    assert_builds_like(ProbMeasure, reference_prob_weights, [space], weights, "weights")


@settings(max_examples=200, deadline=None)
@given(measure_inputs(PROB_SUM_ATOL))
def test_signed_measure_matches_the_reference_rules(case):
    space, weights = case
    assert_builds_like(SignedMeasure, reference_signed_weights, [space], weights, "weights")


@pytest.mark.parametrize(
    "n, weights, error",
    [
        (2, [edge_of_sum(PROB_SUM_ATOL, -1), 0.0], None),
        (2, [edge_of_sum(PROB_SUM_ATOL, 1), 0.0], None),
        (2, [past_edge_of_sum(PROB_SUM_ATOL, 1), 0.0], ValueError),
        (2, [past_edge_of_sum(PROB_SUM_ATOL, -1), 0.0], ValueError),
        (2, [1.0, -INVARIANT_ATOL], None),
        (2, [1.0, just_outside(-INVARIANT_ATOL)], ValueError),
        (2, [1.0, -0.0], None),
        (3, [math.inf, 1e308, 1e308], ValueError),  # not finite, before any sum
        (2, [1e308, 1e308], OverflowError),  # math.fsum overflows
        (2, {"a": 1.0}, TypeError),
        (2, [[0.5], [0.5, 0.0]], ValueError),
        (2, 0.5, ValueError),
    ],
)
def test_prob_measure_boundaries(n, weights, error):
    space = FiniteSpace(list(range(n)))
    if error is None:
        mu = assert_builds_like(ProbMeasure, reference_prob_weights, [space], weights, "weights")
        assert not np.signbit(mu.weights).any()
    else:
        with pytest.raises(error):
            ProbMeasure(space, weights)
        assert_builds_like(ProbMeasure, reference_prob_weights, [space], weights, "weights")


# ---------------------------------------------------------------------------
# dirac / empirical
# ---------------------------------------------------------------------------
def test_dirac_point_masses():
    assert dirac(AB, "a").weights.tolist() == [1.0, 0.0]
    assert dirac(AB, "b").weights.tolist() == [0.0, 1.0]
    assert dirac(FiniteSpace(["a"]), "a").weights.tolist() == [1.0]
    with pytest.raises(KeyError):
        dirac(AB, "z")


def test_empirical_frequencies():
    # counts by hand: a appears 3 of 4 times
    mu = empirical(["a", "a", "b", "a"], AB)
    assert mu.weights.tolist() == [0.75, 0.25]
    assert empirical(["a"], AB).weights.tolist() == [1.0, 0.0]
    assert empirical(["a", "b"], AB).weights.tolist() == [0.5, 0.5]


def test_empirical_rejects_empty():
    with pytest.raises(ValueError):
        empirical([], AB)


def test_empirical_of_dataset_lives_on_the_product():
    prod = ProductSpace(AB, CD)
    S = Dataset(prod, [("a", "c"), ("a", "c"), ("b", "d")])
    mu = empirical(S)
    assert mu.space == prod
    assert np.allclose(mu.weights, [2 / 3, 0, 0, 1 / 3])


# ---------------------------------------------------------------------------
# tv_norm / jordan_hahn
# ---------------------------------------------------------------------------
def test_tv_norm_values():
    three = FiniteSpace([1, 2, 3])
    assert tv_norm(SignedMeasure(AB, [0.5, -0.5])) == 1.0
    assert tv_norm(SignedMeasure(three, [0.2, -0.3, 0.1])) == pytest.approx(
        0.6, abs=1e-15
    )
    assert tv_norm(ProbMeasure(AB, [0.25, 0.75])) == pytest.approx(1.0, abs=1e-15)


def test_jordan_hahn_split():
    three = FiniteSpace([1, 2, 3])
    pos, neg = jordan_hahn(SignedMeasure(three, [-1.0, 2.0, 0.0]))
    assert pos.weights.tolist() == [0.0, 2.0, 0.0]
    assert neg.weights.tolist() == [1.0, 0.0, 0.0]
    p = ProbMeasure(AB, [0.3, 0.7])
    pos, neg = jordan_hahn(p)
    assert np.allclose(pos.weights, p.weights)
    assert np.all(neg.weights == 0.0)


@given(signed_measures())
def test_jordan_hahn_round_trip_and_minimality(mu):
    pos, neg = jordan_hahn(mu)
    assert np.all(pos.weights >= 0) and np.all(neg.weights >= 0)
    assert np.array_equal(pos.weights - neg.weights, mu.weights)
    assert np.all(pos.weights * neg.weights == 0.0)
    assert tv_norm(mu) == pytest.approx(
        pos.weights.sum() + neg.weights.sum(), abs=1e-12
    )


@given(signed_measures(), signed_measures(4), st.floats(-10, 10, allow_nan=False))
def test_tv_norm_is_a_norm(mu, nu, c):
    assert tv_norm(c * mu) == pytest.approx(abs(c) * tv_norm(mu), abs=1e-12)
    if mu.space == nu.space:
        assert tv_norm(mu + nu) <= tv_norm(mu) + tv_norm(nu) + 1e-12


def test_tv_norm_zero_iff_zero():
    assert tv_norm(SignedMeasure(AB, [0.0, 0.0])) == 0.0
    assert tv_norm(SignedMeasure(AB, [1e-300, 0.0])) > 0.0


# ---------------------------------------------------------------------------
# product / marginal
# ---------------------------------------------------------------------------
def test_product_outer():
    mu = SignedMeasure(AB, [0.3, 0.7])
    nu = SignedMeasure(CD, [1.0, 0.0])
    assert product(mu, nu).weights.tolist() == [0.3, 0.0, 0.7, 0.0]
    d = product(dirac(AB, "a"), dirac(CD, "c"))
    assert d.weights.tolist() == [1.0, 0.0, 0.0, 0.0]
    half = SignedMeasure(AB, [0.5, 0.5])
    assert np.allclose(product(half, SignedMeasure(CD, [0.5, 0.5])).weights, 0.25)


def test_product_space_mismatch():
    prod = ProductSpace(AB, CD)
    with pytest.raises(SpaceMismatchError):
        product(SignedMeasure(CD, [1, 0]), SignedMeasure(AB, [1, 0]), prod)


def test_marginal_hand_example():
    prod = ProductSpace(AB, CD)
    mu = SignedMeasure(prod, [0.2, 0.2, 0.1, 0.5])
    assert marginal(mu, "left").weights.tolist() == [0.4, 0.6]
    assert marginal(mu, "right").weights.tolist() == pytest.approx([0.3, 0.7])


def test_marginal_of_dirac_and_non_product_error():
    d = product(dirac(AB, "a"), dirac(CD, "c"))
    assert marginal(d, "left").weights.tolist() == [1.0, 0.0]
    with pytest.raises(SpaceMismatchError):
        marginal(dirac(AB, "a"), "left")


def test_marginal_preserves_prob_type():
    prod = ProductSpace(AB, CD)
    mu = ProbMeasure(prod, [0.2, 0.2, 0.1, 0.5])
    assert isinstance(marginal(mu, "left"), ProbMeasure)


@given(
    st.lists(st.floats(-3, 3, allow_nan=False), min_size=2, max_size=2),
    st.lists(st.floats(-3, 3, allow_nan=False), min_size=3, max_size=3),
)
def test_marginal_of_product_scales_by_factor_mass(wx, wy):
    mu = SignedMeasure(AB, wx)
    nu = SignedMeasure(FiniteSpace([1, 2, 3]), wy)
    left = marginal(product(mu, nu), "left")
    assert np.allclose(left.weights, mu.weights * nu.total_mass(), atol=1e-12)


@settings(max_examples=30)
@given(
    st.lists(st.sampled_from(["a", "b"]), min_size=1, max_size=8),
    st.lists(st.sampled_from(["a", "b"]), min_size=1, max_size=8),
)
def test_empirical_concatenation_is_mass_weighted_average(xs, ys):
    both = empirical(xs + ys, AB)
    na, nb = len(xs), len(ys)
    mixed = (na * empirical(xs, AB).weights + nb * empirical(ys, AB).weights) / (
        na + nb
    )
    assert np.allclose(both.weights, mixed, atol=1e-12)


def test_signed_measure_arithmetic():
    mu = SignedMeasure(AB, [1.0, -2.0])
    nu = SignedMeasure(AB, [0.5, 0.5])
    assert (mu + nu).weights.tolist() == [1.5, -1.5]
    assert (mu - nu).weights.tolist() == [0.5, -2.5]
    assert (2.0 * mu).weights.tolist() == [2.0, -4.0]
    assert mu.weight("b") == -2.0


# every refusal of the module that no test above reaches: (call, exception type, message fragment)
SPACES_REFUSALS = {
    "sum-two-spaces": (
        lambda: SignedMeasure(AB, [1.0, 0.0]) + SignedMeasure(CD, [1.0, 0.0]),
        SpaceMismatchError, "measures live on different spaces",
    ),
    "space-without-points": (lambda: FiniteSpace([]), ValueError, "a FiniteSpace needs at least one point"),
    "dataset-off-a-product": (lambda: Dataset(AB, []), TypeError, "Dataset requires a ProductSpace"),
    "empirical-labels-without-space": (
        lambda: empirical(["a"]), ValueError, "a space is required when data is a list of labels",
    ),
    "marginal-axis": (
        lambda: marginal(product(dirac(AB, "a"), dirac(CD, "c")), "middle"),
        ValueError, "axis must be 'left' or 'right', got 'middle'",
    ),
}


@pytest.mark.parametrize("case", SPACES_REFUSALS.values(), ids=list(SPACES_REFUSALS))
def test_spaces_refusals(case):
    call, exc, fragment = case
    with pytest.raises(exc) as info:
        call()
    assert info.type is exc and fragment in str(info.value)
