import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from constructor_inputs import assert_builds_like, just_outside, shaped_inputs, weight_rows
from probmorph._tol import INVARIANT_ATOL
from probmorph.kernels import GramMatrix, KernelSpec, gram
from probmorph.morphisms import (
    MarkovKernel,
    SignedKernel,
    _top_eigenvalue,
    compose,
    deterministic,
    disintegrate,
    embedded_operator_norm,
    graph,
    graph_pushforward,
    identity_kernel,
    joint,
    projection_kernel,
    pullback,
    pushforward,
    sup_tv_norm,
)
from probmorph.spaces import (
    FiniteSpace,
    ProbMeasure,
    ProductSpace,
    SignedMeasure,
    SpaceMismatchError,
    dirac,
    marginal,
    product,
    tv_norm,
)

X2 = FiniteSpace(["x1", "x2"])
Y2 = FiniteSpace(["y1", "y2"])


def stochastic(rng, ns, nt):
    m = rng.random((ns, nt)) + 1e-3
    return m / m.sum(axis=1, keepdims=True)


def random_markov(rng, source, target):
    return MarkovKernel(source, target, stochastic(rng, source.size, target.size))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------
def test_markov_kernel_validation():
    with pytest.raises(ValueError):
        MarkovKernel(X2, Y2, [[0.5, 0.6], [0.5, 0.5]])
    with pytest.raises(ValueError):
        MarkovKernel(X2, Y2, [[1.1, -0.1], [0.5, 0.5]])
    k = MarkovKernel(X2, Y2, [[0.5, 0.5], [0.0, 1.0]])
    row = k.row("x2")
    assert isinstance(row, ProbMeasure)
    assert row.weights.tolist() == [0.0, 1.0]


# Reference copies of the kernel constructors' rules, one check per rule in
# precedence order. They return the array a constructor must store, or raise.
def reference_signed_rows(source, target, rows):
    m = np.asarray(rows, dtype=float)
    if m.shape != (source.size, target.size):
        raise ValueError(f"row matrix shape {m.shape}, expected {(source.size, target.size)}")
    if not np.all(np.isfinite(m)):
        raise ValueError("kernel rows must be finite")
    return m.copy()


def reference_markov_rows(source, target, rows):
    m = np.asarray(rows, dtype=float)
    if m.shape == (source.size, target.size) and np.all(np.isfinite(m)):
        if np.any(m < -INVARIANT_ATOL):
            raise ValueError(f"negative entry {float(m.min()):.3e} in a Markov kernel row")
        m = np.clip(m, 0.0, None)
        sums = m.sum(axis=1)
        off = np.abs(sums - 1.0)
        if np.any(off > INVARIANT_ATOL):
            i = int(np.argmax(off))
            raise ValueError(
                f"row-stochasticity: row at {source.labels[i]!r} sums to {float(sums[i])!r}, not 1"
            )
    return reference_signed_rows(source, target, m)


@st.composite
def kernel_inputs(draw):
    """Spaces of 1 to 4 points and a row matrix for them, rows summing near 1."""
    n, k = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rows = [draw(weight_rows(k, INVARIANT_ATOL)) for _ in range(n)]
    return FiniteSpace(list(range(n))), FiniteSpace(list(range(k))), shaped_inputs(draw, rows)


# a row of two 1e308 entries overflows its sum, in the reference as in the constructor
OVERFLOW_WARNING = "ignore:overflow encountered in reduce:RuntimeWarning"


@pytest.mark.filterwarnings(OVERFLOW_WARNING)
@settings(max_examples=400, deadline=None)
@given(kernel_inputs())
def test_markov_kernel_matches_the_reference_rules(case):
    source, target, rows = case
    assert_builds_like(MarkovKernel, reference_markov_rows, [source, target], rows, "matrix")


@settings(max_examples=200, deadline=None)
@given(kernel_inputs())
def test_signed_kernel_matches_the_reference_rules(case):
    source, target, rows = case
    assert_builds_like(SignedKernel, reference_signed_rows, [source, target], rows, "matrix")


@pytest.mark.parametrize(
    "rows, error",
    [
        ([[1.0, -INVARIANT_ATOL], [0.0, 1.0]], None),
        ([[1.0, just_outside(-INVARIANT_ATOL)], [0.0, 1.0]], ValueError),
        ([[1.0, -0.0], [-0.0, 1.0]], None),
        ([[1.0, 0.0], [math.inf, -math.inf]], ValueError),
        ([[1e308, 1e308], [0.0, 1.0]], ValueError),  # the row sum overflows
        ({"a": 1.0}, TypeError),
        ([[0.5, 0.5], [1.0]], ValueError),
    ],
)
@pytest.mark.filterwarnings(OVERFLOW_WARNING)
def test_markov_kernel_boundaries(rows, error):
    if error is None:
        k = assert_builds_like(MarkovKernel, reference_markov_rows, [X2, Y2], rows, "matrix")
        assert not np.signbit(k.matrix).any()
    else:
        with pytest.raises(error):
            MarkovKernel(X2, Y2, rows)
        assert_builds_like(MarkovKernel, reference_markov_rows, [X2, Y2], rows, "matrix")


def test_markov_kernel_overflowing_row_is_rejected_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the message prints the sum as a Python float, not as np.float64(inf)
        with pytest.raises(ValueError, match=r"^row-stochasticity: row at 'x1' sums to inf, not 1"):
            MarkovKernel(X2, Y2, [[1e308, 1e308], [0.0, 1.0]])
        with pytest.raises(ValueError, match=r"row at 'x2' sums to 1\.1, not 1$"):
            MarkovKernel(X2, Y2, [[0.5, 0.5], [0.6, 0.5]])


def test_deterministic_examples():
    ident = deterministic(X2, X2, {"x1": "x1", "x2": "x2"})
    assert np.array_equal(ident.matrix, np.eye(2))
    const = deterministic(X2, Y2, {"x1": "y1", "x2": "y1"})
    assert np.array_equal(const.matrix, [[1.0, 0.0], [1.0, 0.0]])
    swap = deterministic(X2, X2, {"x1": "x2", "x2": "x1"})
    assert np.array_equal(swap.matrix, [[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(KeyError):
        deterministic(X2, Y2, {"x1": "nope", "x2": "y1"})


# ---------------------------------------------------------------------------
# pushforward / pullback
# ---------------------------------------------------------------------------
def test_pushforward_examples():
    mu = ProbMeasure(X2, [0.4, 0.6])
    assert np.array_equal(
        pushforward(identity_kernel(X2), mu).weights, mu.weights
    )
    const = MarkovKernel(X2, Y2, [[0.5, 0.5], [0.5, 0.5]])
    assert pushforward(const, ProbMeasure(X2, [0.3, 0.7])).weights.tolist() == [0.5, 0.5]
    k = MarkovKernel(X2, Y2, [[0.5, 0.5], [0.0, 1.0]])
    out = pushforward(k, mu)
    assert isinstance(out, ProbMeasure)
    assert np.allclose(out.weights, [0.2, 0.8])
    with pytest.raises(SpaceMismatchError):
        pushforward(k, ProbMeasure(Y2, [0.5, 0.5]))


def test_pullback_examples():
    k = MarkovKernel(X2, Y2, [[0.5, 0.5], [0.0, 1.0]])
    assert pullback(k, [1.0, 1.0]).tolist() == [1.0, 1.0]
    assert pullback(identity_kernel(X2), [3.0, -2.0]).tolist() == [3.0, -2.0]
    assert pullback(k, [0.0, 2.0]).tolist() == [1.0, 2.0]
    with pytest.raises(ValueError):
        pullback(k, [1.0, 2.0, 3.0])


def test_compose_example():
    t1 = MarkovKernel(X2, Y2, [[1.0, 0.0], [0.5, 0.5]])
    t2 = MarkovKernel(Y2, Y2, [[0.5, 0.5], [0.0, 1.0]])
    assert np.allclose(compose(t2, t1).matrix, [[0.5, 0.5], [0.25, 0.75]])
    assert np.allclose(compose(t2, identity_kernel(Y2)).matrix, t2.matrix)


def test_joint_example():
    t1 = MarkovKernel(X2, Y2, [[0.5, 0.5], [1.0, 0.0]])
    t2 = MarkovKernel(X2, X2, [[0.3, 0.7], [0.0, 1.0]])
    j = joint(t1, t2)
    assert j.target.size == 4
    assert np.allclose(j.matrix[0], [0.15, 0.35, 0.15, 0.35])
    k1 = deterministic(X2, Y2, {"x1": "y1", "x2": "y2"})
    k2 = deterministic(X2, X2, {"x1": "x2", "x2": "x1"})
    jd = joint(k1, k2)
    assert jd.row("x1").weight(("y1", "x2")) == 1.0


def test_graph_examples():
    t = MarkovKernel(X2, Y2, [[0.3, 0.7], [0.2, 0.8]])
    g = graph(t)
    # row at x1 lives on {x1,x2}x{y1,y2}, supported on the x1 block
    assert np.allclose(g.matrix[1], [0.0, 0.0, 0.2, 0.8])
    kappa = deterministic(X2, Y2, {"x1": "y2", "x2": "y1"})
    gk = graph(kappa)
    assert gk.row("x1").weight(("x1", "y2")) == 1.0
    single = FiniteSpace(["only"])
    t1 = MarkovKernel(single, Y2, [[0.4, 0.6]])
    assert np.allclose(graph(t1).matrix, [[0.4, 0.6]])


@st.composite
def finite_spaces(draw, tag):
    """A space of 1 to 5 points, with or without coordinates."""
    n = draw(st.integers(1, 5))
    coords = [[0.5 * i] for i in range(n)] if draw(st.booleans()) else None
    return FiniteSpace([f"{tag}{i}" for i in range(n)], coords)


@st.composite
def any_kernels(draw):
    """A Markov kernel, or a signed one whose rows may hold -0.0, between two spaces."""
    source, target = draw(finite_spaces("x")), draw(finite_spaces("y"))
    if draw(st.booleans()):
        counts = st.lists(st.integers(0, 64), min_size=target.size, max_size=target.size)
        rows = st.lists(counts.filter(any), min_size=source.size, max_size=source.size)
        return MarkovKernel(source, target, [[c / sum(r) for c in r] for r in draw(rows)])
    entries = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 0.0])
    cells = source.size * target.size
    flat = draw(st.lists(entries, min_size=cells, max_size=cells))
    return SignedKernel(source, target, np.reshape(flat, (source.size, target.size)))


@settings(max_examples=200, deadline=None)
@given(any_kernels())
def test_graph_is_the_joint_with_the_identity_bit_for_bit(t):
    closed, reference = graph(t), joint(identity_kernel(t.source), t)
    assert type(closed) is type(reference)
    assert closed.source == reference.source and closed.target == reference.target
    assert closed.matrix.tobytes() == reference.matrix.tobytes()


@settings(max_examples=100, deadline=None)
@given(finite_spaces("x"), finite_spaces("y"))
def test_projection_kernel_is_the_deterministic_projection_bit_for_bit(left, right):
    space = ProductSpace(left, right)
    for axis, factor, i in (("left", left, 0), ("right", right, 1)):
        closed = projection_kernel(space, axis)
        reference = deterministic(space, factor, lambda p: p[i])
        assert closed.source == space and closed.target == factor
        assert closed.matrix.tobytes() == reference.matrix.tobytes()


def test_graph_projection_recovers_kernel():
    t = MarkovKernel(X2, Y2, [[0.3, 0.7], [0.2, 0.8]])
    proj = projection_kernel(ProductSpace(X2, Y2), "right")
    assert np.allclose(compose(proj, graph(t)).matrix, t.matrix)


def test_graph_pushforward_examples():
    mu = ProbMeasure(X2, [0.3, 0.7])
    diag = graph_pushforward(identity_kernel(X2), mu)
    assert np.allclose(diag.weights, [0.3, 0.0, 0.0, 0.7])
    t = MarkovKernel(X2, Y2, [[0.5, 0.5], [1 / 6, 5 / 6]])
    out = graph_pushforward(t, ProbMeasure(X2, [0.4, 0.6]))
    assert np.allclose(out.weights, [0.2, 0.2, 0.1, 0.5])
    zero = graph_pushforward(t, SignedMeasure(X2, [0.0, 0.0]))
    assert np.all(zero.weights == 0.0)


def test_disintegrate_hand_example():
    prod = ProductSpace(X2, Y2)
    mu = ProbMeasure(prod, [0.2, 0.2, 0.1, 0.5])
    mu_x, cond = disintegrate(mu)
    assert np.allclose(mu_x.weights, [0.4, 0.6])
    assert np.allclose(cond.matrix, [[0.5, 0.5], [1 / 6, 5 / 6]])


def test_disintegrate_independent_and_dirac():
    prod = ProductSpace(X2, Y2)
    nu = ProbMeasure(Y2, [0.25, 0.75])
    mu = ProbMeasure(prod, product(ProbMeasure(X2, [0.5, 0.5]), nu).weights)
    _, cond = disintegrate(mu)
    assert np.allclose(cond.matrix, np.tile(nu.weights, (2, 1)))

    point = ProbMeasure(prod, product(dirac(X2, "x1"), dirac(Y2, "y2")).weights)
    mu_x, cond = disintegrate(point, zero_row_policy="uniform")
    assert np.array_equal(mu_x.weights, [1.0, 0.0])
    assert np.array_equal(cond.matrix[0], [0.0, 1.0])
    assert np.allclose(cond.matrix[1], [0.5, 0.5])
    with pytest.raises(ValueError, match="x2"):
        disintegrate(point, zero_row_policy="error")


def test_sup_tv_norm():
    assert sup_tv_norm(MarkovKernel(X2, Y2, [[0.5, 0.5], [0.0, 1.0]])) == 1.0
    zero = SignedKernel(X2, Y2, [[0.0, 0.0], [0.0, 0.0]])
    assert sup_tv_norm(zero) == 0.0
    mixed = SignedKernel(X2, Y2, [[0.5, -0.5], [2.0, 0.0]])
    assert sup_tv_norm(mixed) == 2.0


def test_signed_kernel_rows_and_scalar_multiples():
    k = SignedKernel(X2, Y2, [[0.5, -1.5], [2.0, 0.25]])
    row = k.row("x2")
    assert type(row) is SignedMeasure and row.space == Y2
    assert np.array_equal(row.weights, [2.0, 0.25])
    for scaled in (k * -2.0, -2.0 * k):
        assert type(scaled) is SignedKernel
        assert (scaled.source, scaled.target) == (X2, Y2)
        assert np.array_equal(scaled.matrix, [[-1.0, 3.0], [-4.0, -0.5]])
    # a multiple of a Markov kernel is only a signed kernel
    assert type(2.0 * MarkovKernel(X2, Y2, np.eye(2))) is SignedKernel


# ---------------------------------------------------------------------------
# embedded operator norm
# ---------------------------------------------------------------------------
def _delta_pair(source, target):
    return (
        gram(KernelSpec("delta"), source),
        gram(KernelSpec("delta"), ProductSpace(source, target)),
    )


def test_operator_norm_identity_graph():
    gX, gXX = _delta_pair(X2, X2)
    assert embedded_operator_norm(identity_kernel(X2), gX, gXX) == pytest.approx(
        1.0, abs=1e-12
    )


def test_operator_norm_one_point_source_is_zero():
    # a one-point source carries no two distinct probability measures to stretch
    x1 = FiniteSpace(["x1"])
    gX, gXY = _delta_pair(x1, Y2)
    assert embedded_operator_norm(MarkovKernel(x1, Y2, [[0.3, 0.7]]), gX, gXY) == 0.0


def test_operator_norm_constant_deterministic():
    gX, gXY = _delta_pair(X2, Y2)
    const = deterministic(X2, Y2, {"x1": "y1", "x2": "y1"})
    assert embedded_operator_norm(const, gX, gXY) == pytest.approx(1.0, abs=1e-12)


def test_operator_norm_constant_rows_closed_form():
    # all rows equal to nu: graph rows differ only in the X slot, and the
    # quotient collapses to a one-dimensional problem with value ||nu||_2
    gX, gXY = _delta_pair(X2, Y2)
    nu = np.array([0.3, 0.7])
    const = MarkovKernel(X2, Y2, np.tile(nu, (2, 1)))
    assert embedded_operator_norm(const, gX, gXY) == pytest.approx(
        float(np.linalg.norm(nu)), abs=1e-12
    )


def test_operator_norm_homogeneity():
    rng = np.random.default_rng(5)
    X = FiniteSpace(["a", "b", "c"])
    t = random_markov(rng, X, Y2)
    gX, gXY = _delta_pair(X, Y2)
    base = embedded_operator_norm(t, gX, gXY)
    scaled = GramMatrix(gXY.points, 9.0 * gXY.values)
    assert embedded_operator_norm(t, gX, scaled) == pytest.approx(3.0 * base, rel=1e-10)


def test_operator_norm_matches_direct_search():
    # brute-force the Rayleigh quotient over random sum-zero directions
    rng = np.random.default_rng(11)
    X = FiniteSpace(["a", "b", "c"])
    t = random_markov(rng, X, Y2)
    gX, gXY = _delta_pair(X, Y2)
    val = embedded_operator_norm(t, gX, gXY)
    best = 0.0
    for _ in range(2000):
        u = rng.standard_normal(3)
        u -= u.mean()
        pushed = (u[:, None] * t.matrix).ravel()
        num = float(pushed @ gXY.values @ pushed)
        den = float(u @ gX.values @ u)
        if den > 1e-12:
            best = max(best, num / den)
    assert val >= math.sqrt(best) - 1e-9
    assert val == pytest.approx(math.sqrt(best), rel=0.05)


@pytest.mark.parametrize(
    "spec",
    [
        KernelSpec("gaussian", sigma=0.8),
        KernelSpec("laplacian", sigma=0.5, scale=2.0),
        KernelSpec("delta"),
    ],
    ids=["gaussian", "laplacian", "delta"],
)
def test_operator_norm_factored_matches_dense(spec):
    rng = np.random.default_rng(17)
    X = FiniteSpace(["a", "b", "c", "d"], coords=[[0.0], [0.7], [1.5], [2.6]])
    Y = FiniteSpace(["u", "v", "w"], coords=[[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
    gX, gXY = gram(spec, X), gram(spec, ProductSpace(X, Y))
    dense = GramMatrix(gXY.points, gXY.values)
    for _ in range(5):
        t = random_markov(rng, X, Y)
        assert embedded_operator_norm(t, gX, gXY) == pytest.approx(
            embedded_operator_norm(t, gX, dense), abs=1e-12
        )


def test_operator_norm_rejects_singular_gx():
    g_sing = GramMatrix(X2, [[1.0, 1.0], [1.0, 1.0]])
    _, gXY = _delta_pair(X2, Y2)
    t = MarkovKernel(X2, Y2, [[0.5, 0.5], [0.2, 0.8]])
    with pytest.raises(ValueError):
        embedded_operator_norm(t, g_sing, gXY)


def test_top_eigenvalue_raises_when_the_eigen_solve_fails():
    with pytest.raises(np.linalg.LinAlgError):
        _top_eigenvalue(np.full((3, 3), np.nan), np.eye(3))


# ---------------------------------------------------------------------------
# algebraic laws on random instances
# ---------------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 6), st.integers(2, 6), st.integers(2, 6))
def test_category_laws(seed, nx, ny, nz):
    rng = np.random.default_rng(seed)
    X = FiniteSpace([f"x{i}" for i in range(nx)])
    Y = FiniteSpace([f"y{i}" for i in range(ny)])
    Z = FiniteSpace([f"z{i}" for i in range(nz)])
    t1, t2 = random_markov(rng, X, Y), random_markov(rng, Y, Z)
    t3 = random_markov(rng, Z, X)
    assert np.allclose(
        compose(t3, compose(t2, t1)).matrix,
        compose(compose(t3, t2), t1).matrix,
        atol=1e-12,
    )
    assert np.allclose(compose(t1, identity_kernel(X)).matrix, t1.matrix, atol=1e-12)
    assert np.allclose(compose(identity_kernel(Y), t1).matrix, t1.matrix, atol=1e-12)

    mu = ProbMeasure(X, stochastic(rng, 1, nx)[0])
    lhs = pushforward(compose(t2, t1), mu).weights
    rhs = pushforward(t2, pushforward(t1, mu)).weights
    assert np.allclose(lhs, rhs, atol=1e-12)

    f = rng.standard_normal(ny)
    assert float(pushforward(t1, mu).weights @ f) == pytest.approx(
        float(mu.weights @ pullback(t1, f)), abs=1e-12
    )


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 6), st.integers(2, 6))
def test_graph_identities(seed, nx, ny):
    rng = np.random.default_rng(seed)
    X = FiniteSpace([f"x{i}" for i in range(nx)])
    Y = FiniteSpace([f"y{i}" for i in range(ny)])
    t = random_markov(rng, X, Y)
    mu = ProbMeasure(X, stochastic(rng, 1, nx)[0])
    jp = graph_pushforward(t, mu)
    assert np.allclose(marginal(jp, "left").weights, mu.weights, atol=1e-12)
    # disintegrating the pushforward recovers t on the (positive) support
    _, cond = disintegrate(jp)
    assert np.allclose(cond.matrix, t.matrix, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 5), st.integers(2, 5))
def test_pushforward_tv_nonexpansive(seed, nx, ny):
    rng = np.random.default_rng(seed)
    X = FiniteSpace([f"x{i}" for i in range(nx)])
    Y = FiniteSpace([f"y{i}" for i in range(ny)])
    t = random_markov(rng, X, Y)
    mu = SignedMeasure(X, rng.standard_normal(nx))
    assert tv_norm(pushforward(t, mu)) <= tv_norm(mu) + 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 4), st.integers(2, 4))
def test_graph_additivity(seed, nx, ny):
    rng = np.random.default_rng(seed)
    X = FiniteSpace([f"x{i}" for i in range(nx)])
    Y = FiniteSpace([f"y{i}" for i in range(ny)])
    k1 = SignedKernel(X, Y, rng.standard_normal((nx, ny)))
    k2 = SignedKernel(X, Y, rng.standard_normal((nx, ny)))
    lhs = graph(k1 + k2).matrix
    rhs = (graph(k1) + graph(k2)).matrix
    assert np.allclose(lhs, rhs, atol=1e-12)


# every refusal of the module that no test above reaches: (call, exception type, message fragment)
def _t(source, target):
    return MarkovKernel(source, target, np.eye(2))


XY2 = ProductSpace(X2, Y2)
DELTA = KernelSpec("delta")
MORPHISMS_REFUSALS = {
    "sum-other-grids": (
        lambda: SignedKernel(X2, Y2, np.eye(2)) + SignedKernel(Y2, X2, np.eye(2)),
        SpaceMismatchError, "kernel sum needs matching source and target",
    ),
    "projection-axis": (
        lambda: projection_kernel(XY2, "middle"), ValueError, "axis must be 'left' or 'right', got 'middle'",
    ),
    "compose-mismatch": (
        lambda: compose(_t(X2, Y2), _t(X2, Y2)), SpaceMismatchError, "inner target and outer source do not match",
    ),
    "joint-two-sources": (lambda: joint(_t(X2, Y2), _t(Y2, X2)), SpaceMismatchError, "joint needs a shared source"),
    "graph-pushforward-off-source": (
        lambda: graph_pushforward(_t(X2, Y2), dirac(Y2, "y1")),
        SpaceMismatchError, "measure does not live on the kernel's source",
    ),
    "disintegrate-policy": (
        lambda: disintegrate(product(dirac(X2, "x1"), dirac(Y2, "y1")), "drop"),
        ValueError, "unknown zero_row_policy 'drop'",
    ),
    "disintegrate-not-a-product": (
        lambda: disintegrate(dirac(X2, "x1")), SpaceMismatchError, "disintegrate needs a ProbMeasure on a ProductSpace",
    ),
    "opnorm-gx-off-source": (
        lambda: embedded_operator_norm(_t(X2, Y2), gram(DELTA, Y2), gram(DELTA, XY2)),
        SpaceMismatchError, "gX must live on the kernel's source",
    ),
    "opnorm-gxy-off-product": (
        lambda: embedded_operator_norm(_t(X2, Y2), gram(DELTA, X2), gram(DELTA, Y2)),
        SpaceMismatchError, "gXY must live on the source x target product",
    ),
}


@pytest.mark.parametrize("case", MORPHISMS_REFUSALS.values(), ids=list(MORPHISMS_REFUSALS))
def test_morphisms_refusals(case):
    call, exc, fragment = case
    with pytest.raises(exc) as info:
        call()
    assert info.type is exc and fragment in str(info.value)
