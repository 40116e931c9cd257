import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probmorph.kernels import GramMatrix, KernelSpec, NotPSDError, c_k, gram, mmd
from probmorph.learning import WFunctionalSpec, w_functional
from probmorph.losses import (
    empirical_risk,
    excess_risk,
    expected_risk,
    instantaneous_loss,
    kl_and_bh_check,
    mmd_correct_loss,
    sup_row_mmd,
    tv_correct_loss,
)
from probmorph.morphisms import (
    MarkovKernel,
    deterministic,
    disintegrate,
    graph_pushforward,
)
from probmorph.spaces import (
    Dataset,
    FiniteSpace,
    ProbMeasure,
    ProductSpace,
    SpaceMismatchError,
    dirac,
    empirical,
    product,
)

X2 = FiniteSpace(["x1", "x2"], coords=[[0.0], [1.0]])
Y2 = FiniteSpace(["y1", "y2"], coords=[[0.0], [1.0]])
PROD = ProductSpace(X2, Y2)
G_DELTA = gram(KernelSpec("delta"), Y2)


def random_instance(rng, nx, ny, coords=True):
    X = FiniteSpace(
        [f"x{i}" for i in range(nx)],
        coords=rng.standard_normal((nx, 1)).cumsum(axis=0) if coords else None,
    )
    Y = FiniteSpace(
        [f"y{i}" for i in range(ny)],
        coords=np.arange(ny, dtype=float)[:, None] if coords else None,
    )
    rows = rng.random((nx, ny)) + 0.05
    rows /= rows.sum(axis=1, keepdims=True)
    h = MarkovKernel(X, Y, rows)
    w = rng.random(nx * ny) + 0.02
    mu = ProbMeasure(ProductSpace(X, Y), w / w.sum())
    return X, Y, h, mu


# ---------------------------------------------------------------------------
# instantaneous loss
# ---------------------------------------------------------------------------
def test_zero_one_loss_via_linear_kernel():
    # deterministic predictor on Y = {0,1} with the linear kernel: the
    # embedded quadratic loss reduces to 1 iff the prediction misses
    Y = FiniteSpace([0, 1], coords=[[0.0], [1.0]])
    X = FiniteSpace(["u", "v"])
    g = gram(KernelSpec("linear"), Y)
    h = deterministic(X, Y, {"u": 0, "v": 1})
    assert instantaneous_loss(h, "u", 0, g) == pytest.approx(0.0, abs=1e-12)
    assert instantaneous_loss(h, "u", 1, g) == pytest.approx(1.0, abs=1e-12)
    assert instantaneous_loss(h, "v", 0, g) == pytest.approx(1.0, abs=1e-12)
    assert instantaneous_loss(h, "v", 1, g) == pytest.approx(0.0, abs=1e-12)


def test_instantaneous_loss_examples():
    h = MarkovKernel(X2, Y2, [[0.5, 0.5], [1.0, 0.0]])
    # delta kernel: 0.5 + 1 - 2*0.5 = 0.5
    assert instantaneous_loss(h, "x1", "y1", G_DELTA) == pytest.approx(0.5)
    match = deterministic(X2, Y2, {"x1": "y2", "x2": "y1"})
    assert instantaneous_loss(match, "x1", "y2", G_DELTA) == 0.0
    with pytest.raises(KeyError):
        instantaneous_loss(h, "zz", "y1", G_DELTA)


# ---------------------------------------------------------------------------
# risks
# ---------------------------------------------------------------------------
def test_expected_risk_examples():
    h = MarkovKernel(X2, Y2, [[0.5, 0.5], [0.5, 0.5]])
    uniform = ProbMeasure(PROD, [0.25] * 4)
    r = expected_risk(h, uniform, G_DELTA)
    assert r.value == pytest.approx(0.5, abs=1e-12)

    point = ProbMeasure(PROD, product(dirac(X2, "x1"), dirac(Y2, "y2")).weights)
    hit = deterministic(X2, Y2, {"x1": "y2", "x2": "y1"})
    assert expected_risk(hit, point, G_DELTA).value == 0.0


def test_empirical_risk_matches_expected_on_empirical_measure():
    S = Dataset(PROD, [("x1", "y1"), ("x1", "y2"), ("x2", "y2")])
    h = MarkovKernel(X2, Y2, [[0.3, 0.7], [0.6, 0.4]])
    emp = empirical_risk(h, S, G_DELTA)
    exp = expected_risk(h, empirical(S), G_DELTA)
    assert emp.value == pytest.approx(exp.value, abs=1e-12)
    assert emp.per_sample is not None and len(emp.per_sample) == 3
    assert emp.value == pytest.approx(sum(emp.per_sample) / 3, abs=1e-12)


def test_empirical_risk_examples():
    single = Dataset(PROD, [("x1", "y2")])
    hit = deterministic(X2, Y2, {"x1": "y2", "x2": "y1"})
    assert empirical_risk(hit, single, G_DELTA).value == 0.0

    S = Dataset(PROD, [("x1", "y1"), ("x1", "y2")])
    h = MarkovKernel(X2, Y2, [[0.5, 0.5], [0.5, 0.5]])
    assert empirical_risk(h, S, G_DELTA).value == pytest.approx(0.5)
    doubled = Dataset(PROD, list(S.pairs) * 2)
    assert empirical_risk(h, doubled, G_DELTA).value == pytest.approx(
        empirical_risk(h, S, G_DELTA).value, abs=1e-12
    )
    with pytest.raises(ValueError):
        empirical_risk(h, Dataset(PROD, []), G_DELTA)


def test_excess_risk_examples():
    mu = ProbMeasure(PROD, [0.2, 0.2, 0.1, 0.5])
    _, cond = disintegrate(mu)
    assert excess_risk(cond, mu, G_DELTA) == pytest.approx(0.0, abs=1e-14)

    nu = ProbMeasure(Y2, [0.3, 0.7])
    indep = ProbMeasure(PROD, product(ProbMeasure(X2, [0.4, 0.6]), nu).weights)
    prime = np.array([0.8, 0.2])
    h = MarkovKernel(X2, Y2, np.tile(prime, (2, 1)))
    expected = float(np.sum((prime - nu.weights) ** 2))  # delta-kernel mmd^2
    assert excess_risk(h, indep, G_DELTA) == pytest.approx(expected, abs=1e-12)


def test_sup_row_mmd_is_the_largest_row_mmd():
    rng = np.random.default_rng(11)
    for nx, ny in ((1, 2), (3, 4), (5, 3)):
        X, Y, h, _ = random_instance(rng, nx, ny)
        _, _, f, _ = random_instance(rng, nx, ny)
        f = MarkovKernel(X, Y, f.matrix)
        for spec in (
            KernelSpec("delta"),
            KernelSpec("gaussian", sigma=0.7),
            KernelSpec("laplacian", sigma=1.3),
        ):
            g = gram(spec, Y)
            rows = max(mmd(g, f.row(x), h.row(x)) for x in X.labels)
            assert sup_row_mmd(f, h, g) == pytest.approx(rows, abs=1e-12)
        assert sup_row_mmd(h, h, g) == 0.0


def test_sup_row_mmd_checks_grids_and_psd():
    f = MarkovKernel(X2, Y2, [[1.0, 0.0], [0.5, 0.5]])
    h = MarkovKernel(X2, Y2, [[0.0, 1.0], [0.5, 0.5]])
    with pytest.raises(SpaceMismatchError):
        sup_row_mmd(f, h, gram(KernelSpec("delta"), X2))
    with pytest.raises(SpaceMismatchError):
        sup_row_mmd(f, MarkovKernel(Y2, Y2, h.matrix), G_DELTA)
    with pytest.raises(SpaceMismatchError):
        excess_risk(f, ProbMeasure(PROD, [0.25] * 4), gram(KernelSpec("delta"), X2))
    # eigenvalue -5e-10 along (1, -1): within the Gram tolerance, but the
    # squared row distance -1e-9 is not roundoff
    g = GramMatrix(Y2, [[1.0, 1.0 + 5e-10], [1.0 + 5e-10, 1.0]])
    with pytest.raises(NotPSDError):
        sup_row_mmd(f, h, g)
    with pytest.raises(NotPSDError):
        excess_risk(f, ProbMeasure(PROD, [0.0, 0.5, 0.25, 0.25]), g)


@pytest.mark.parametrize("scale", [1.0, 1e4, 1e8, 1e12, 1e100])
def test_rank_deficient_linear_grams_raise_no_error(scale):
    # the rows of f and h differ along v, orthogonal to 1 and to the label
    # coordinates, so every exact squared row distance is 0 and only
    # roundoff of the Gram's size is left
    rng = np.random.default_rng(int(math.log10(scale)))
    spec = KernelSpec("linear", scale=scale)
    for _ in range(40):
        nx, dim = int(rng.integers(2, 6)), int(rng.integers(1, 3))
        ny = dim + int(rng.integers(2, 6))
        X = FiniteSpace([f"x{i}" for i in range(nx)], coords=rng.uniform(-2, 4, (nx, 1)))
        Y = FiniteSpace([f"y{i}" for i in range(ny)], coords=rng.uniform(-2, 4, (ny, dim)))
        v = np.linalg.svd(np.vstack([np.ones(ny), Y.coords.T]))[2][-1]
        f = 0.5 * rng.dirichlet(np.ones(ny), nx) + 0.5 / ny
        h = f + rng.uniform(-0.5, 0.5, (nx, 1)) / (ny * np.abs(v).max()) * v
        F, H = MarkovKernel(X, Y, f), MarkovKernel(X, Y, h)
        mu = ProbMeasure(ProductSpace(X, Y), (rng.dirichlet(np.ones(nx))[:, None] * f).reshape(-1))
        g = gram(spec, Y)
        tiny = 1e-6 * math.sqrt(g.max_entry)
        assert all(mmd(g, F.row(x), H.row(x)) <= tiny for x in X.labels)
        assert sup_row_mmd(F, H, g) <= tiny
        assert excess_risk(H, mu, g) <= tiny * tiny
        w = WFunctionalSpec.from_kernel(spec, X, Y, include_operator_norm=False)
        assert math.isfinite(w_functional(H, w))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 5), st.integers(2, 5),
       st.sampled_from(["gaussian", "linear", "delta"]))
def test_risk_decomposition(seed, nx, ny, variant):
    rng = np.random.default_rng(seed)
    X, Y, h, mu = random_instance(rng, nx, ny)
    spec = KernelSpec(variant, sigma=1.0 if variant == "gaussian" else None)
    g = gram(spec, Y)
    _, cond = disintegrate(mu)
    lhs = expected_risk(h, mu, g).value
    rhs = excess_risk(h, mu, g) + expected_risk(cond, mu, g).value
    assert lhs == pytest.approx(rhs, abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 4), st.integers(2, 4))
def test_loss_bounded_by_4ck2(seed, nx, ny):
    rng = np.random.default_rng(seed)
    X, Y, h, mu = random_instance(rng, nx, ny)
    for variant in ("gaussian", "delta", "linear"):
        spec = KernelSpec(variant, sigma=1.0 if variant == "gaussian" else None)
        g = gram(spec, Y)
        bound = 4.0 * c_k(spec, Y) ** 2
        for x in X.labels:
            for y in Y.labels:
                val = instantaneous_loss(h, x, y, g)
                assert -1e-12 <= val <= bound + 1e-9


def test_risk_minimizer_is_conditional():
    rng = np.random.default_rng(7)
    X, Y, _, mu = random_instance(rng, 3, 3)
    g = gram(KernelSpec("gaussian", sigma=1.0), Y)
    _, cond = disintegrate(mu)
    floor = expected_risk(cond, mu, g).value
    for _ in range(300):
        rows = rng.random((3, 3)) + 1e-3
        rows /= rows.sum(axis=1, keepdims=True)
        h = MarkovKernel(X, Y, rows)
        assert expected_risk(h, mu, g).value >= floor - 1e-10


# ---------------------------------------------------------------------------
# correct losses
# ---------------------------------------------------------------------------
def test_tv_correct_loss_examples():
    mu = ProbMeasure(PROD, [0.2, 0.2, 0.1, 0.5])
    _, cond = disintegrate(mu)
    assert tv_correct_loss(cond, mu) == pytest.approx(0.0, abs=1e-14)

    diag = ProbMeasure(PROD, [0.5, 0.0, 0.0, 0.5])
    uni = MarkovKernel(X2, Y2, [[0.5, 0.5], [0.5, 0.5]])
    assert tv_correct_loss(uni, diag) == pytest.approx(1.0, abs=1e-12)
    assert tv_correct_loss(uni, diag, k=2) == pytest.approx(1.0, abs=1e-12)
    other = ProbMeasure(PROD, [0.4, 0.1, 0.1, 0.4])
    assert tv_correct_loss(uni, other, k=2) == pytest.approx(
        tv_correct_loss(uni, other) ** 2, abs=1e-12
    )


def test_mmd_correct_loss_examples():
    g_prod = gram(KernelSpec("delta"), PROD)
    mu = ProbMeasure(PROD, [0.2, 0.2, 0.1, 0.5])
    _, cond = disintegrate(mu)
    assert mmd_correct_loss(cond, mu, g_prod) == pytest.approx(0.0, abs=1e-12)

    diag = ProbMeasure(PROD, [0.5, 0.0, 0.0, 0.5])
    uni = MarkovKernel(X2, Y2, [[0.5, 0.5], [0.5, 0.5]])
    assert mmd_correct_loss(uni, diag, g_prod) == pytest.approx(0.5, abs=1e-12)

    from probmorph.kernels import GramMatrix

    scaled = GramMatrix(g_prod.points, 4.0 * g_prod.values)
    assert mmd_correct_loss(uni, diag, scaled) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 4), st.integers(2, 4))
def test_correct_losses_vanish_together(seed, nx, ny):
    rng = np.random.default_rng(seed)
    X, Y, h, mu = random_instance(rng, nx, ny)
    g_y = gram(KernelSpec("delta"), Y)
    g_prod = gram(KernelSpec("delta"), mu.space)
    _, cond = disintegrate(mu)
    for candidate in (cond, h):
        tv = tv_correct_loss(candidate, mu)
        md = mmd_correct_loss(candidate, mu, g_prod)
        ex = excess_risk(candidate, mu, g_y)
        small = tv < 1e-9
        assert (md < 1e-9) == small
        assert (ex < 1e-9) == small


# ---------------------------------------------------------------------------
# Bretagnolle-Huber
# ---------------------------------------------------------------------------
def test_bh_examples():
    p = ProbMeasure(Y2, [0.5, 0.5])
    res = kl_and_bh_check(p, p)
    assert res == (0.0, 0.0, 0.0, True)

    res = kl_and_bh_check(ProbMeasure(Y2, [1.0, 0.0]), ProbMeasure(Y2, [0.5, 0.5]))
    assert res.l1 == pytest.approx(1.0)
    assert res.kl == pytest.approx(math.log(2.0))
    assert res.bound == pytest.approx(2.0 * math.sqrt(0.5))
    assert res.holds

    res = kl_and_bh_check(ProbMeasure(Y2, [1.0, 0.0]), ProbMeasure(Y2, [0.0, 1.0]))
    assert res.l1 == pytest.approx(2.0)
    assert math.isinf(res.kl)
    assert res.bound == 2.0
    assert res.holds


@settings(max_examples=200)
@given(
    st.integers(2, 16),
    st.integers(0, 10**6),
)
def test_bh_holds_randomly(n, seed):
    rng = np.random.default_rng(seed)
    p = rng.random(n) + 1e-9
    f = rng.random(n) + 1e-9
    res = kl_and_bh_check(
        ProbMeasure(FiniteSpace(list(range(n))), p / p.sum()),
        ProbMeasure(FiniteSpace(list(range(n))), f / f.sum()),
    )
    assert res.holds


# every refusal of the module that no test above reaches: (call, exception type, message fragment)
LOSSES_REFUSALS = {
    "tv-power-0": (
        lambda: tv_correct_loss(MarkovKernel(X2, Y2, np.eye(2)), product(dirac(X2, "x1"), dirac(Y2, "y1")), k=0),
        ValueError, "k must be a positive integer",
    ),
    "kl-two-spaces": (
        lambda: kl_and_bh_check(dirac(X2, "x1"), dirac(Y2, "y1")),
        SpaceMismatchError, "measures live on different spaces",
    ),
}


@pytest.mark.parametrize("case", LOSSES_REFUSALS.values(), ids=list(LOSSES_REFUSALS))
def test_losses_refusals(case):
    call, exc, fragment = case
    with pytest.raises(exc) as info:
        call()
    assert info.type is exc and fragment in str(info.value)
