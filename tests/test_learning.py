import math
import pickle
import re
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

import probmorph.kernels as kernels_mod
import probmorph.learning as learning_mod
from hypothesis import given, settings
from hypothesis import strategies as st

from constructor_inputs import assert_public_bits
from probmorph.kernels import GramMatrix, KernelSpec, KroneckerGram, NotPSDError, gram, mmd
from probmorph.learning import (
    FiniteClass,
    LearnerConfig,
    NewtonInterpolant,
    ParametricClass,
    WFunctionalSpec,
    _lipschitz_pairs,
    _mirror_descent,
    _probe_rows,
    cerm,
    empirical_section,
    gamma_schedule,
    newton_interpolant,
    regularized_estimate,
    w_functional,
)
from probmorph.losses import empirical_risk, sup_row_mmd
from probmorph.morphisms import (
    MarkovKernel,
    SingularGramError,
    _conditional_rows,
    _sum_zero_pencil,
    disintegrate,
    embedded_operator_norm,
    graph_pushforward,
)
from probmorph.spaces import (
    Dataset,
    FiniteSpace,
    ProbMeasure,
    ProductSpace,
    dirac,
    empirical,
)

X3 = FiniteSpace(["x1", "x2", "x3"], coords=[[0.0], [1.0], [2.0]])
Y2 = FiniteSpace(["y1", "y2"], coords=[[0.0], [1.0]])
PROD = ProductSpace(X3, Y2)
G_Y = gram(KernelSpec("delta"), Y2)


def make_dataset(pairs):
    return Dataset(PROD, pairs)


# ---------------------------------------------------------------------------
# config and schedules
# ---------------------------------------------------------------------------
def test_gamma_schedule():
    assert gamma_schedule(1) == 1.0
    assert gamma_schedule(4) == 0.5
    assert gamma_schedule(100) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        gamma_schedule(0)


# ---------------------------------------------------------------------------
# hypothesis classes
# ---------------------------------------------------------------------------
def test_finite_class_requires_members():
    with pytest.raises(ValueError):
        FiniteClass([])


# ---------------------------------------------------------------------------
# cerm
# ---------------------------------------------------------------------------
def test_cerm_finite_enumerates():
    S = make_dataset([("x1", "y1"), ("x1", "y1"), ("x2", "y2")])
    mu = empirical(S)
    _, cond = disintegrate(mu)
    uniform = MarkovKernel(X3, Y2, np.full((3, 2), 0.5))
    res = cerm(FiniteClass([uniform, cond]), S, G_Y)
    assert res.certified_gap == 0.0
    assert res.risk == empirical_risk(res.h, S, G_Y).value
    assert np.allclose(res.h.matrix, cond.matrix)
    assert res.risk == pytest.approx(empirical_risk(cond, S, G_Y).value, abs=1e-12)
    assert res.risk <= empirical_risk(uniform, S, G_Y).value


def test_cerm_singleton_class():
    S = make_dataset([("x1", "y1")])
    only = MarkovKernel(X3, Y2, np.full((3, 2), 0.5))
    res = cerm(FiniteClass([only]), S, G_Y)
    assert res.h is only and res.certified_gap == 0.0


def test_cerm_parametric_recovers_empirical_conditional():
    # x1 has conditional [0.75, 0.25], x3 a point mass, x2 is unobserved
    S = make_dataset([("x1", "y1")] * 3 + [("x1", "y2"), ("x3", "y2")])
    sec = empirical_section(S)
    rng = np.random.default_rng(0)
    others = [MarkovKernel(X3, Y2, rng.dirichlet(np.ones(2), size=3)) for _ in range(50)]
    for kernel in (
        KernelSpec("delta"),
        KernelSpec("gaussian", sigma=1.0),
        KernelSpec("laplacian", sigma=0.5),
        KernelSpec("linear"),
    ):
        g = gram(kernel, Y2)
        res = cerm(ParametricClass(X3, Y2), S, g, LearnerConfig(seed=0))
        assert res.certified_gap == 0.0
        assert res.risk == empirical_risk(res.h, S, g).value
        assert res.risk == pytest.approx(empirical_risk(sec, S, g).value, abs=1e-12)
        assert all(res.risk <= empirical_risk(h, S, g).value + 1e-12 for h in others)
        if kernel.variant != "linear":
            # characteristic kernels: the minimizer at observed inputs is unique
            assert np.array_equal(res.h.matrix, sec.matrix)
            assert np.array_equal(res.h.matrix[1], [0.5, 0.5])


def test_cerm_deterministic_given_seed():
    S = make_dataset([("x1", "y1"), ("x2", "y2"), ("x3", "y1"), ("x1", "y2")])
    r1 = cerm(ParametricClass(X3, Y2), S, G_Y, LearnerConfig(seed=3))
    r2 = cerm(ParametricClass(X3, Y2), S, G_Y, LearnerConfig(seed=3))
    assert np.array_equal(r1.h.matrix, r2.h.matrix)
    assert r1.risk == r2.risk


def test_cerm_rejects_empty_dataset():
    with pytest.raises(ValueError):
        cerm(ParametricClass(X3, Y2), make_dataset([]), G_Y)


def test_cerm_parametric_class_must_share_the_dataset_grids():
    S = make_dataset([("x1", "y1"), ("x2", "y2")])
    relabelled = FiniteSpace(["z1", "z2"], coords=Y2.coords)
    with pytest.raises(ValueError, match="grids"):
        cerm(ParametricClass(X3, relabelled), S, G_Y)


# ---------------------------------------------------------------------------
# empirical section
# ---------------------------------------------------------------------------
def test_empirical_section_counts():
    S = make_dataset([("x1", "y1"), ("x1", "y1"), ("x1", "y2")])
    sec = empirical_section(S)
    assert np.allclose(sec.matrix[0], [2 / 3, 1 / 3])
    assert np.allclose(sec.matrix[1], [0.5, 0.5])  # unobserved -> uniform


def test_empirical_section_deterministic_rows():
    S = make_dataset([("x1", "y2"), ("x2", "y1"), ("x3", "y2")])
    sec = empirical_section(S)
    assert np.array_equal(sec.matrix, [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])


@settings(max_examples=40)
@given(
    st.lists(
        st.tuples(st.sampled_from(X3.labels), st.sampled_from(Y2.labels)),
        min_size=1,
        max_size=12,
    )
)
def test_empirical_section_round_trip(pairs):
    S = make_dataset(pairs)
    sec = empirical_section(S)
    mu_x = empirical([x for x, _ in pairs], X3)
    assert np.allclose(
        graph_pushforward(sec, mu_x).weights, empirical(S).weights, atol=1e-12
    )


@settings(max_examples=40)
@given(
    st.lists(
        st.tuples(st.sampled_from(X3.labels), st.sampled_from(Y2.labels)),
        min_size=1,
        max_size=12,
    )
)
def test_empirical_section_is_the_constructor_kernel_of_its_rows(pairs):
    S = make_dataset(pairs)
    rows, _ = _conditional_rows(S.counts())
    assert_public_bits(empirical_section(S), MarkovKernel(X3, Y2, rows), "matrix", S.cells)


# ---------------------------------------------------------------------------
# W functional
# ---------------------------------------------------------------------------
def _delta_wspec(include_operator_norm=True):
    return WFunctionalSpec.from_kernel(
        KernelSpec("delta"), X3, Y2, include_operator_norm=include_operator_norm
    )


def test_w_constant_rows_sup_only():
    spec = WFunctionalSpec.from_kernel(
        KernelSpec("delta"),
        X3,
        Y2,
        include_lipschitz=False,
        include_operator_norm=False,
    )
    nu = np.array([0.3, 0.7])
    h = MarkovKernel(X3, Y2, np.tile(nu, (3, 1)))
    # sup term: row norm plus graph-row norm, both Euclidean under delta
    expect = (float(np.linalg.norm(nu)) * 2.0) ** 2
    assert w_functional(h, spec) == pytest.approx(expect, abs=1e-12)


def test_w_lipschitz_term():
    spec = WFunctionalSpec.from_kernel(
        KernelSpec("delta"), X3, Y2, include_sup=False, include_operator_norm=False
    )
    nu = np.array([0.3, 0.7])
    const = MarkovKernel(X3, Y2, np.tile(nu, (3, 1)))
    assert w_functional(const, spec) == pytest.approx(0.0, abs=1e-12)

    vary = MarkovKernel(X3, Y2, [[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
    base = w_functional(vary, spec)
    X_wide = FiniteSpace(X3.labels, coords=2.0 * np.asarray(X3.coords))
    spec_wide = WFunctionalSpec.from_kernel(
        KernelSpec("delta"), X_wide, Y2, include_sup=False, include_operator_norm=False
    )
    vary_wide = MarkovKernel(X_wide, Y2, vary.matrix)
    assert w_functional(vary_wide, spec_wide) == pytest.approx(base / 4.0, rel=1e-10)


def test_w_terms_reject_what_sup_row_mmd_rejects():
    # eigenvalue -5e-10 along (1, -1): within the Gram tolerance, but the
    # squared row distance -1e-9 between these rows is not roundoff
    x2 = FiniteSpace(["x1", "x2"], coords=[[0.0], [1.0]])
    g_y = GramMatrix(Y2, [[1.0, 1.0 + 5e-10], [1.0 + 5e-10, 1.0]])
    g_xy = GramMatrix(ProductSpace(x2, Y2), np.kron(np.eye(2), g_y.values))
    f = MarkovKernel(x2, Y2, [[1.0, 0.0], [0.0, 1.0]])
    h = MarkovKernel(x2, Y2, [[0.0, 1.0], [0.0, 1.0]])
    with pytest.raises(NotPSDError):
        sup_row_mmd(f, h, g_y)
    lip = WFunctionalSpec(g_xy, g_y, gram(KernelSpec("delta"), x2), include_sup=False)
    with pytest.raises(NotPSDError):
        w_functional(f, lip)
    # the sup term reads norms of single rows, which are positive here
    sup = WFunctionalSpec(g_xy, g_y, gram(KernelSpec("delta"), x2), include_lipschitz=False)
    assert w_functional(f, sup) == pytest.approx(4.0)


def test_lipschitz_distances_neither_vanish_nor_warn():
    # distinct subnormal coordinates are not a repeated point: differing rows
    # there have an infinite Lipschitz ratio, where they raised as duplicates
    tiny = FiniteSpace(["a", "b", "c"], coords=[[1e-320], [0.0], [2e-320]])
    spec = WFunctionalSpec.from_kernel(KernelSpec("delta"), tiny, Y2, include_sup=False)
    h = MarkovKernel(tiny, Y2, [[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
    assert w_functional(h, spec) == math.inf
    same = MarkovKernel(tiny, Y2, [[0.5, 0.5]] * 3)
    assert w_functional(same, spec) == 0.0
    # a difference that overflows is an infinite distance, read without a warning
    for coords in ([[1e308], [-1e308]], [[1e308, 1e308], [-1e308, 0.0]]):
        far = FiniteSpace(["a", "b"], coords=coords)
        spec = WFunctionalSpec.from_kernel(KernelSpec("delta"), far, Y2, include_sup=False)
        assert w_functional(MarkovKernel(far, Y2, [[1.0, 0.0], [0.0, 1.0]]), spec) == 0.0


def _count_norm_products(monkeypatch) -> Counter:
    calls = Counter()

    def counted(name, method):
        def wrapper(self, *args):
            calls[name] += 1
            return method(self, *args)

        return wrapper

    for cls in (GramMatrix, KroneckerGram):
        monkeypatch.setattr(cls, "sq_norms", counted("sq_norms", vars(cls)["sq_norms"]))
    return calls


@pytest.mark.parametrize(
    "kernel",
    [KernelSpec("gaussian", sigma=1.0), KernelSpec("laplacian", sigma=0.5, scale=1.7), KernelSpec("delta", scale=2.0)],
    ids=repr,
)
def test_w_on_a_from_kernel_spec_is_one_label_product(monkeypatch, kernel):
    xs = FiniteSpace(["a", "b", "c", "d"], coords=[[0.0, 0.0], [1.0, 0.5], [0.3, 2.0], [1.5, 1.5]])
    spec = WFunctionalSpec.from_kernel(kernel, xs, Y2)
    rows = np.random.default_rng(5).dirichlet(np.ones(2), size=4)
    h = MarkovKernel(xs, Y2, rows)
    # the same W on a hand-built spec whose product Gram carries the scale on its left
    # factor: unless the scale is 1 its right factor is not gram_y, so the spec copies
    # the graph blocks
    left = gram(kernel, xs)
    other = WFunctionalSpec(
        KroneckerGram(spec.gram_xy.points, left, gram(replace(kernel, scale=1.0), Y2)),
        spec.gram_y,
        left,
    )
    assert spec._blocks is None and (other._blocks is not None) == (kernel.scale != 1.0)
    calls = _count_norm_products(monkeypatch)
    value = w_functional(h, spec)
    spec._value_grad(rows)
    assert calls == {"sq_norms": 2}  # one per evaluation, and no graph product
    calls.clear()
    assert w_functional(h, other) == pytest.approx(value, rel=1e-12, abs=0)
    # then one label product: the graph blocks were copied when the spec was built
    assert calls == {"sq_norms": 1}


@pytest.mark.parametrize("scale, checks", [(1.0, 2), (1.7, 3)])
def test_from_kernel_eigen_checks_each_factor_once(monkeypatch, scale, checks):
    k = KernelSpec("gaussian", sigma=1.0, scale=scale)
    count = Counter()
    real = kernels_mod.eigvalsh

    def counted(a):
        count["eigvalsh"] += 1
        return real(a)

    monkeypatch.setattr(kernels_mod, "eigvalsh", counted)
    spec = WFunctionalSpec.from_kernel(k, X3, Y2)
    assert count["eigvalsh"] == checks
    assert spec.gram_y is spec.gram_xy.right
    assert (spec.gram_x is spec.gram_xy.left) == (scale == 1.0)
    # the scale sits on the right factor, so each Gram equals the one built on its own
    monkeypatch.undo()
    assert spec.gram_y.values.tobytes() == gram(k, Y2).values.tobytes()
    assert spec.gram_x.values.tobytes() == gram(k, X3).values.tobytes()
    assert spec.gram_xy.left.values.tobytes() == gram(replace(k, scale=1.0), X3).values.tobytes()


def test_lipschitz_distances_on_a_line_are_exact():
    # on 1-D sources each neighbour distance is |dx| to the bit
    rng = np.random.default_rng(0)
    c = rng.standard_normal(40) * 10.0 ** rng.integers(-150, 150, 40)
    line = FiniteSpace([f"p{i}" for i in range(40)], coords=c[:, None])
    spec = WFunctionalSpec.from_kernel(KernelSpec("delta"), line, Y2)
    a, b = np.array(spec._pair_list).T
    dists = spec._divisors[line.size :]  # after the sup divisors
    assert np.array_equal(dists, np.abs(c[a] - c[b]))
    assert np.array_equal(dists, np.sqrt((c[a] - c[b]) ** 2))


def test_w_duplicate_coords_error():
    dup = FiniteSpace(["a", "b"], coords=[[1.0], [1.0]])
    with pytest.raises(ValueError, match="'a' and 'b' share a coordinate"):
        WFunctionalSpec.from_kernel(KernelSpec("delta"), dup, Y2, include_operator_norm=False)
    # a and c share a coordinate but are not neighbours in label order
    split = FiniteSpace(["a", "b", "c"], coords=[[0.0], [1.0], [0.0]])
    with pytest.raises(ValueError, match="'a' and 'c' share a coordinate"):
        WFunctionalSpec.from_kernel(KernelSpec("delta"), split, Y2, include_operator_norm=False)


TWIN_SOURCES = [
    (["a", "b", "c"], [[0.0], [0.0], [1.0]], ("a", "b")),  # neighbours in label order
    (["a", "b", "c"], [[2.0], [1.0], [2.0]], ("a", "c")),  # not neighbours in label order
    (["p", "q"], [[-0.0], [0.0]], ("p", "q")),  # -0 and 0 are one point
    (["a", "b", "c"], [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]], ("a", "c")),  # all pairs in 2-D
]


@pytest.mark.parametrize("labels, coords, twins", TWIN_SOURCES)
@pytest.mark.parametrize("kernel", [KernelSpec("gaussian", sigma=1.0), KernelSpec("delta")])
def test_twin_source_coordinates_are_refused_when_the_spec_is_built(labels, coords, twins, kernel):
    xs = FiniteSpace(labels, coords=coords)
    pairs = [(x, "y1") for x in labels]  # identical data at the twins, then data at one point
    fits = []
    for S in (Dataset(ProductSpace(xs, Y2), pairs), Dataset(ProductSpace(xs, Y2), pairs[:1])):
        with pytest.raises(ValueError, match=f"'{twins[0]}' and '{twins[1]}' share a coordinate"):
            spec = WFunctionalSpec.from_kernel(kernel, xs, Y2)
            fits.append(regularized_estimate(S, 0.1, spec.gram_xy, spec))
    assert fits == []
    # without the Lipschitz term the source geometry is not read
    spec = WFunctionalSpec.from_kernel(kernel, xs, Y2, include_lipschitz=False)
    assert w_functional(MarkovKernel(xs, Y2, np.full((xs.size, 2), 0.5)), spec) > 0.0


def _lipschitz_only(kernel, xs, ys, rows):
    spec = WFunctionalSpec.from_kernel(
        kernel, xs, ys, include_sup=False, include_operator_norm=False
    )
    return w_functional(MarkovKernel(xs, ys, rows), spec), spec.gram_y.values


def _all_pairs_lipschitz_sq(rows, coords, g_y):
    """The squared Lipschitz term by brute force over every pair of points."""
    best = 0.0
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            d = rows[i] - rows[j]
            dist = float(np.linalg.norm(coords[i] - coords[j]))
            best = max(best, math.sqrt(max(float(d @ g_y @ d), 0.0)) / dist)
    return best * best


W_KERNELS = [
    KernelSpec("gaussian", sigma=0.7),
    KernelSpec("laplacian", sigma=0.5),
    KernelSpec("delta"),
    KernelSpec("linear"),
]


@pytest.mark.parametrize("dim", [1, 2])
def test_w_lipschitz_term_is_the_all_pairs_maximum(dim):
    ys = FiniteSpace(["u", "v", "w"], coords=[[0.0], [1.0], [2.5]])
    for trial in range(120):
        rng = np.random.default_rng((dim, trial))
        n = int(rng.integers(2, 41))
        # n distinct sites of a coarse n^dim grid, so tied distances are common
        cells = rng.choice(n**dim, size=n, replace=False)
        sites = np.column_stack(np.unravel_index(cells, (n,) * dim)) * rng.uniform(0.1, 2.0)
        if dim == 1 and trial % 2 == 0:
            sites = np.sort(sites, axis=0)
        rows = rng.dirichlet(np.ones(3), size=n)
        xs = FiniteSpace([f"x{i}" for i in range(n)], coords=sites)
        kernel = W_KERNELS[trial % 4]
        value, g_y = _lipschitz_only(kernel, xs, ys, rows)
        assert value == pytest.approx(_all_pairs_lipschitz_sq(rows, sites, g_y), rel=1e-12)


def test_w_lipschitz_term_exact_beyond_256_points():
    # 150 clusters {k, k + 0.01}; rows constant in a cluster, alternating across clusters
    k = np.repeat(np.arange(150), 2)
    coords = k + np.tile([0.0, 0.01], 150)
    rows = np.column_stack([k % 2, 1 - k % 2]).astype(float)
    xs = FiniteSpace([f"x{i}" for i in range(300)], coords=coords[:, None])
    value, _ = _lipschitz_only(KernelSpec("delta"), xs, Y2, rows)
    # the steepest pair is 0.99 apart with rows sqrt(2) apart under the delta kernel
    assert value == pytest.approx(2.0 / 0.99**2, rel=1e-12)


@pytest.mark.parametrize("nx", [3, 80])
def test_w_opnorm_term_is_embedded_operator_norm(nx):
    xs = FiniteSpace([f"x{i}" for i in range(nx)])
    spec = WFunctionalSpec.from_kernel(
        KernelSpec("delta"), xs, Y2,
        include_sup=False, include_lipschitz=False, include_operator_norm=True,
    )
    h = MarkovKernel(xs, Y2, np.random.default_rng(nx).dirichlet(np.ones(2), size=nx))
    expect = embedded_operator_norm(h, spec.gram_x, spec.gram_xy) ** 2
    assert w_functional(h, spec) == pytest.approx(expect, abs=1e-12)


def test_w_spec_reads_the_product_grid_by_its_factors():
    g_x, g_y = gram(KernelSpec("delta"), X3), gram(KernelSpec("delta"), Y2)
    g_xy = gram(KernelSpec("delta"), PROD)
    WFunctionalSpec(g_xy, g_y, g_x)
    Y2_moved = FiniteSpace(Y2.labels, coords=[[0.0], [2.0]])
    flat = FiniteSpace(PROD.labels, coords=PROD.coords)  # the product's points, no factors
    for points in (ProductSpace(X3, Y2_moved), ProductSpace(Y2, X3), flat):
        with pytest.raises(ValueError, match="product of gram_x and gram_y"):
            WFunctionalSpec(GramMatrix(points, g_xy.values), g_y, g_x)


def test_w_lipschitz_without_coords_rejected_at_construction():
    bare = FiniteSpace(["a", "b"])
    with pytest.raises(ValueError, match="coordinates"):
        WFunctionalSpec.from_kernel(KernelSpec("delta"), bare, Y2, include_operator_norm=False)
    # without the Lipschitz term, or on a single point, no coordinates are needed
    WFunctionalSpec.from_kernel(KernelSpec("delta"), bare, Y2, include_lipschitz=False)
    WFunctionalSpec.from_kernel(KernelSpec("delta"), FiniteSpace(["a"]), Y2)


def _grid(nx):
    """nx evenly spaced source points on [0, 5]."""
    return FiniteSpace([f"x{i}" for i in range(nx)], coords=np.linspace(0.0, 5.0, nx)[:, None])


@pytest.mark.parametrize("nx", [3, 6, 33, 64])
def test_from_kernel_leaves_the_operator_norm_off_at_every_size(nx):
    spec = WFunctionalSpec.from_kernel(KernelSpec("gaussian", sigma=1.0), _grid(nx), Y2)
    assert spec.include_operator_norm is False
    assert spec.include_sup and spec.include_lipschitz


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
def test_operator_norm_refuses_an_ill_conditioned_source_gram(monkeypatch, scale):
    # gaussian (sigma = 1) Grams on [0, 5]: kappa on sum-zero weights is 4.3e5 at
    # 14 points and 2.3e7 at 16, at every scale; a repeated point makes it infinite
    k = KernelSpec("gaussian", sigma=1.0, scale=scale)
    twin = FiniteSpace(["a", "b"], coords=[[1.0], [1.0]])
    for xs, refused in ((_grid(14), None), (_grid(16), r"kappa = 2\.26e\+07"), (twin, "kappa")):
        g_x, g_xy = gram(k, xs), gram(k, ProductSpace(xs, Y2))
        h = MarkovKernel(xs, Y2, np.full((xs.size, 2), 0.5))
        # the spec reads the source Gram only when W is evaluated
        spec = WFunctionalSpec.from_kernel(k, xs, Y2, include_lipschitz=False, include_operator_norm=True)
        calls = [_count_calls(monkeypatch, g, ("apply",)) for g in (spec.gram_xy, g_xy)]
        if refused is None:
            assert w_functional(h, spec) >= 0.0
            assert embedded_operator_norm(h, g_x, g_xy) >= 0.0
            assert calls == [{"apply": 1}, {"apply": 1}]
            monkeypatch.undo()
            continue
        with pytest.raises(SingularGramError, match=refused):
            w_functional(h, spec)
        with pytest.raises(SingularGramError, match=refused):
            embedded_operator_norm(h, g_x, g_xy)
        # refused before any product with the joint Gram
        assert calls == [{"apply": 0}, {"apply": 0}]
        monkeypatch.undo()
    # with the Lipschitz term on, the repeated point is refused when the spec is built
    with pytest.raises(ValueError, match="share a coordinate"):
        WFunctionalSpec.from_kernel(k, twin, Y2, include_operator_norm=True)


def test_building_an_operator_norm_spec_runs_no_eigen_solve(monkeypatch):
    k, xs = KernelSpec("gaussian", sigma=1.0), _grid(6)
    g_xy, g_y, g_x = gram(k, ProductSpace(xs, Y2)), gram(k, Y2), gram(k, xs)

    def refused(*args, **kwargs):
        raise AssertionError("a spec build ran a dense factorization")

    for name in ("eigh", "qr"):
        monkeypatch.setattr(np.linalg, name, refused)
    for terms in (W_TERMS["opnorm"], W_TERMS["all"]):
        WFunctionalSpec(g_xy, g_y, g_x, **terms)


def _graph_gram(g_xy, rows):
    """m[i, j]: the inner product of graph rows i and j under the dense product Gram."""
    nx, ny = rows.shape
    graph_rows = np.zeros((nx, nx * ny))
    for i in range(nx):
        graph_rows[i, i * ny : (i + 1) * ny] = rows[i]
    return graph_rows @ g_xy.values @ graph_rows.T


@pytest.mark.parametrize("nx", [3, 12])
@pytest.mark.parametrize(
    "kernel",
    [
        KernelSpec("gaussian", sigma=1.0),
        KernelSpec("laplacian", sigma=0.5, scale=2.0),
        KernelSpec("delta"),
    ],
    ids=["gaussian", "laplacian", "delta"],
)
def test_operator_norm_matches_generalized_eigh_oracle(kernel, nx):
    rng = np.random.default_rng(nx)
    xs = FiniteSpace(
        [f"x{i}" for i in range(nx)], coords=(np.arange(nx) + rng.uniform(0.0, 0.3, nx))[:, None]
    )
    ys = FiniteSpace(["u", "v", "w"], coords=[[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
    spec = WFunctionalSpec.from_kernel(
        kernel, xs, ys, include_sup=False, include_lipschitz=False, include_operator_norm=True
    )
    g_x = spec.gram_x.values
    w = _sum_zero_pencil(spec.gram_x)
    assert np.max(np.abs(w.T @ g_x @ w - np.eye(nx - 1))) <= 1e-12
    assert np.max(np.abs(np.ones(nx) @ w)) <= 1e-12
    b = scipy.linalg.null_space(np.ones((1, nx)))  # an orthonormal sum-zero basis
    for _ in range(5):
        h = MarkovKernel(xs, ys, rng.dirichlet(np.ones(3), size=nx))
        m = _graph_gram(spec.gram_xy, h.matrix)
        top = scipy.linalg.eigh(b.T @ m @ b, b.T @ g_x @ b, eigvals_only=True)[-1]
        expect = pytest.approx(math.sqrt(top), rel=1e-12)
        assert embedded_operator_norm(h, spec.gram_x, spec.gram_xy) == expect
        assert math.sqrt(w_functional(h, spec)) == expect


W_TERMS = {
    "sup": dict(include_sup=True, include_lipschitz=False, include_operator_norm=False),
    "lipschitz": dict(include_sup=False, include_lipschitz=True, include_operator_norm=False),
    "sup+lipschitz": dict(include_sup=True, include_lipschitz=True, include_operator_norm=False),
    "opnorm": dict(include_sup=False, include_lipschitz=False, include_operator_norm=True),
    "all": dict(include_sup=True, include_lipschitz=True, include_operator_norm=True),
}


def test_w_gradient_at_constant_rows_is_a_subgradient():
    # at a tie the returned gradient must still satisfy W(x + t d) >= W(x) + t <g, d>;
    # at constant rows every sup piece ties, and every Lipschitz piece is 0
    _, spec = _criterion10_instance()
    rows = np.full((6, 4), 0.25)
    value, grad = spec._value_grad(rows)
    rng = np.random.default_rng(4)
    t = 1e-7
    for _ in range(20):
        d = rng.standard_normal(rows.shape)
        d -= d.mean(axis=1, keepdims=True)
        ahead, _ = spec._value_grad(rows + t * d)
        assert (ahead - value) / t >= float(np.vdot(grad, d)) - 1e-6 * np.abs(grad).sum()


def test_w_opnorm_term_is_added_by_w_functional_only():
    _, full = _criterion10_instance()
    rows = np.random.default_rng(8).dirichlet(np.ones(4), size=6)
    h = MarkovKernel(full.gram_x.points, full.gram_y.points, rows)
    for terms in ("sup", "lipschitz", "sup+lipschitz"):
        without = WFunctionalSpec(full.gram_xy, full.gram_y, full.gram_x, **W_TERMS[terms])
        spec = WFunctionalSpec(
            full.gram_xy, full.gram_y, full.gram_x, **{**W_TERMS[terms], "include_operator_norm": True}
        )
        value, grad = spec._value_grad(h.matrix)
        expect, expect_grad = without._value_grad(h.matrix)
        assert value == expect and grad.tobytes() == expect_grad.tobytes()
    only = WFunctionalSpec(full.gram_xy, full.gram_y, full.gram_x, **W_TERMS["opnorm"])
    assert w_functional(h, only) == embedded_operator_norm(h, full.gram_x, full.gram_xy) ** 2


def test_w_monotone_in_terms():
    h = MarkovKernel(X3, Y2, [[1.0, 0.0], [0.5, 0.5], [0.2, 0.8]])
    full = w_functional(h, _delta_wspec())
    no_op = w_functional(h, _delta_wspec(include_operator_norm=False))
    assert full >= no_op - 1e-12


def _gradient_instance(dim, k=KernelSpec("gaussian", sigma=0.7)):
    """A 5-point source in `dim` dimensions, 3 targets, and rows where each max is unique.

    The gaussian source Gram is well conditioned on sum-zero weights (kappa 5.4e5
    in 1-D), so the operator-norm term accepts it; a linear one is singular
    there, so the instance has no operator norm to check.
    """
    rng = np.random.default_rng((11, dim))
    xs = FiniteSpace([f"x{i}" for i in range(5)], coords=rng.uniform(0.0, 5.0, (5, dim)))
    ys = FiniteSpace(["u", "v", "w"], coords=[[0.0], [0.8], [2.0]])
    rows = rng.dirichlet(np.ones(3), size=5)
    # the premise of a finite-difference check: every max is attained by one candidate
    g_xy, g_y, g_x = gram(k, ProductSpace(xs, ys)), gram(k, ys), gram(k, xs)
    m = _graph_gram(g_xy, rows)
    row_norms = np.sqrt(np.einsum("iy,yz,iz->i", rows, g_y.values, rows)) + np.sqrt(np.diag(m))
    slopes = [
        math.sqrt((rows[i] - rows[j]) @ g_y.values @ (rows[i] - rows[j]))
        / float(np.linalg.norm(xs.coords[i] - xs.coords[j]))
        for i in range(5)
        for j in range(i + 1, 5)
    ]
    maxima = [row_norms, np.array(slopes)]
    if k.variant != "linear":
        b = scipy.linalg.null_space(np.ones((1, 5)))
        maxima.append(scipy.linalg.eigh(b.T @ m @ b, b.T @ g_x.values @ b, eigvals_only=True))
    for values in maxima:
        top, second = np.sort(values)[::-1][:2]
        assert top - second > 1e-3 * top
    return g_xy, g_y, g_x, rows


def _assert_gradient_matches_central_differences(specs, grad, rows, seed):
    rng = np.random.default_rng(seed)
    t = 1e-6
    for _ in range(4):
        d = rng.standard_normal(rows.shape)
        d -= d.mean(axis=1, keepdims=True)  # each row stays on its simplex's affine hull
        for spec in specs:
            plus, _ = spec._value_grad(rows + t * d)
            minus, _ = spec._value_grad(rows - t * d)
            slope = float(np.vdot(grad, d))
            assert (plus - minus) / (2 * t) == pytest.approx(slope, rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("terms", list(W_TERMS))
def test_w_gradient_matches_central_differences(terms, dim):
    g_xy, g_y, g_x, rows = _gradient_instance(dim)
    assert isinstance(g_xy, KroneckerGram)
    kron = WFunctionalSpec(g_xy, g_y, g_x, **W_TERMS[terms])
    dense = WFunctionalSpec(GramMatrix(g_xy.points, g_xy.values), g_y, g_x, **W_TERMS[terms])
    if kron.include_operator_norm:  # a value only, added by w_functional: the term is never fitted
        h = MarkovKernel(g_x.points, g_y.points, rows)
        assert w_functional(h, dense) == pytest.approx(w_functional(h, kron), rel=1e-12)
        return
    value, grad = kron._value_grad(rows)
    dense_value, dense_grad = dense._value_grad(rows)
    # the two representations of one Gram agree to roundoff
    assert dense_value == pytest.approx(value, rel=1e-12)
    assert np.max(np.abs(dense_grad - grad)) <= 1e-12 * np.max(np.abs(grad))
    _assert_gradient_matches_central_differences((kron, dense), grad, rows, (12, dim))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("terms", ["sup", "lipschitz", "sup+lipschitz"])
def test_w_gradient_on_a_dense_linear_product_gram(terms, dim):
    # the linear product Gram stays dense, and its diagonal blocks
    # G_X[i, i] 11' + G_Y are not multiples of one matrix
    g_xy, g_y, g_x, rows = _gradient_instance(dim, KernelSpec("linear", scale=0.5))
    assert type(g_xy) is GramMatrix
    blocks = [g_xy.values[3 * i : 3 * i + 3, 3 * i : 3 * i + 3] for i in range(2)]
    assert np.linalg.matrix_rank(np.stack([blocks[0].ravel(), blocks[1].ravel()])) == 2
    kw = dict(include_sup="sup" in terms, include_lipschitz="lipschitz" in terms)
    spec = WFunctionalSpec(g_xy, g_y, g_x, **kw)
    value, grad = spec._value_grad(rows)
    if terms == "sup":  # against the dense graph Gram of the rows
        q_y = np.einsum("iy,yz,iz->i", rows, g_y.values, rows)
        sup = np.max(np.sqrt(q_y) + np.sqrt(np.diag(_graph_gram(g_xy, rows))))
        assert value == pytest.approx(sup**2, rel=1e-12)
    _assert_gradient_matches_central_differences((spec,), grad, rows, (13, dim))


def _count_calls(monkeypatch, gram_matrix, names):
    """Wrap methods of one Gram instance so that each call is counted."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        method = getattr(gram_matrix, name)

        def counted(*args, _name=name, _method=method):
            calls[_name] += 1
            return _method(*args)

        monkeypatch.setattr(gram_matrix, name, counted)
    return calls


@pytest.mark.parametrize("dense", [False, True], ids=["kronecker", "dense"])
def test_w_applies_the_joint_gram_only_for_the_operator_norm(monkeypatch, dense):
    S, full = _criterion10_instance()
    g_xy = GramMatrix(full.gram_xy.points, full.gram_xy.values) if dense else full.gram_xy
    rows = np.random.default_rng(6).dirichlet(np.ones(4), size=6)
    fidelity_gram = gram(KernelSpec("gaussian", sigma=1.0), S.space)
    for opnorm in (False, True):
        spec = WFunctionalSpec(g_xy, full.gram_y, full.gram_x, include_operator_norm=opnorm)
        calls = _count_calls(monkeypatch, spec.gram_xy, ("apply", "sq_norms"))
        w_functional(MarkovKernel(spec.gram_x.points, spec.gram_y.points, rows), spec)
        if opnorm:
            assert calls == {"apply": 1, "sq_norms": 0}
            with pytest.raises(ValueError, match="operator-norm term"):
                regularized_estimate(S, 0.1, fidelity_gram, spec, LearnerConfig(max_iters=5))
            assert calls == {"apply": 1, "sq_norms": 0}
        else:
            spec._value_grad(rows)
            regularized_estimate(S, 0.1, fidelity_gram, spec, LearnerConfig(max_iters=5))
            assert calls == {"apply": 0, "sq_norms": 0}
        monkeypatch.undo()


def test_fit_on_a_kronecker_spec_never_builds_the_dense_gram():
    xs = FiniteSpace([f"x{i}" for i in range(5)], coords=np.linspace(0.0, 4.0, 5)[:, None])
    ys = FiniteSpace(["u", "v", "w"], coords=[[0.0], [1.0], [2.0]])
    k = KernelSpec("gaussian", sigma=1.0)
    spec = WFunctionalSpec.from_kernel(k, xs, ys)
    assert isinstance(spec.gram_xy, KroneckerGram)
    prod = ProductSpace(xs, ys)
    S = Dataset(prod, [prod.labels[i] for i in np.random.default_rng(5).integers(0, 15, 40)])
    fit = regularized_estimate(S, 0.2, spec.gram_xy, spec, LearnerConfig(max_iters=20))
    assert "values" not in spec.gram_xy.__dict__
    # nor does the operator-norm term's value
    opnorm = WFunctionalSpec.from_kernel(k, xs, ys, include_operator_norm=True)
    assert w_functional(fit.h, opnorm) > 0.0
    assert "values" not in opnorm.gram_xy.__dict__


def test_fit_path_builds_no_product_table():
    # the product's labels, index and coordinates are built only when read, and a fit
    # and its check read only the factors
    xs = FiniteSpace([f"x{i}" for i in range(64)], coords=np.linspace(0.0, 5.0, 64)[:, None])
    ys = FiniteSpace([f"y{i}" for i in range(16)], coords=np.linspace(0.0, 3.0, 16)[:, None])
    P = ProductSpace(xs, ys)
    rng = np.random.default_rng(3)
    pairs = [(xs.labels[i], ys.labels[j]) for i, j in rng.integers(0, (64, 16), size=(300, 2))]
    S = Dataset(P, pairs)
    spec = WFunctionalSpec.from_kernel(KernelSpec("gaussian", sigma=1.0), xs, ys)
    fit = regularized_estimate(S, 300**-0.5, spec.gram_xy, spec, LearnerConfig(max_iters=2))
    mu_x = ProbMeasure(xs, np.full(64, 1.0 / 64))
    pushed = graph_pushforward(fit.h, mu_x)
    assert mmd(spec.gram_xy, pushed, empirical(S)) >= 0.0
    for space in (P, spec.gram_xy.points, pushed.space):
        assert isinstance(space, ProductSpace)
        assert not {"labels", "_index", "coords"} & set(vars(space))
    assert P.coords.shape == (1024, 2) and "coords" in vars(P)  # a read builds the table once


# ---------------------------------------------------------------------------
# regularized estimate
# ---------------------------------------------------------------------------
def reg_setup():
    k = KernelSpec("gaussian", sigma=1.0)
    spec = WFunctionalSpec.from_kernel(k, X3, Y2)
    return gram(k, PROD), spec


@pytest.mark.parametrize("tol", [math.nan, -1.0, -1e-300], ids=["nan", "neg", "tiny-neg"])
def test_learner_config_refuses_a_tol_no_gap_meets(tol):
    with pytest.raises(ValueError, match="tol"):
        LearnerConfig(tol=tol)


def test_learner_config_accepts_every_nonnegative_tol():
    for tol in (0.0, 1e-300, 1.0, math.inf):
        assert LearnerConfig(tol=tol).tol == tol


def test_learner_config_has_no_step_size():
    # the step scale is the fixed _STEP, not a knob
    with pytest.raises(TypeError, match="step_size"):
        LearnerConfig(step_size=0.3)


def test_regularized_estimate_validates_gamma():
    g_xy, spec = reg_setup()
    S = make_dataset([("x1", "y1")])
    with pytest.raises(ValueError):
        regularized_estimate(S, 0.0, g_xy, spec, LearnerConfig())


def test_regularized_estimate_refuses_the_operator_norm_term(monkeypatch):
    S, full = _criterion10_instance()
    spec = WFunctionalSpec(full.gram_xy, full.gram_y, full.gram_x, include_operator_norm=True)
    fidelity_gram = gram(KernelSpec("gaussian", sigma=1.0), S.space)
    calls = [
        _count_calls(monkeypatch, fidelity_gram, ("apply",)),
        _count_calls(monkeypatch, spec.gram_y, ("sq_norms",)),
        _count_calls(monkeypatch, spec.gram_xy, ("apply",)),
    ]
    with pytest.raises(ValueError, match="without the operator-norm term"):
        regularized_estimate(S, 0.1, fidelity_gram, spec, LearnerConfig(max_iters=5))
    # refused before any evaluation
    assert calls == [{"apply": 0}, {"sq_norms": 0}, {"apply": 0}]


@pytest.mark.parametrize("dense", [False, True], ids=["kronecker", "dense"])
def test_fidelity_is_one_sq_norms_call_per_evaluation(monkeypatch, dense):
    # the fidelity follows the roundoff rule of GramMatrix.sq_norms, as mmd and W do
    S, spec = _criterion10_instance()
    g_xy = gram(KernelSpec("gaussian", sigma=1.0), S.space)
    if dense:
        g_xy = GramMatrix(S.space, g_xy.values)
    calls = _count_calls(monkeypatch, g_xy, ("sq_norms", "apply"))
    fit = regularized_estimate(S, 200 ** -0.5, g_xy, spec, LearnerConfig(max_iters=5))
    evaluations = 1 + len(fit.trace)  # the incumbent, one per step
    # KroneckerGram.sq_norms takes its product from its own apply
    assert calls == {"sq_norms": evaluations, "apply": 0 if dense else evaluations}
    fit.eps_certificate  # the 16 probes, on first read
    evaluations += 16
    assert calls == {"sq_norms": evaluations, "apply": 0 if dense else evaluations}


_C = np.eye(2)


def _linear_objective(special):
    """<_C, rows> on 2x2 rows; its gradient is _C, except `special` at step 1.

    Call 0 scores the incumbent, and call t + 1 takes step t.
    """
    grads = []

    def objective_rows(rows):
        value = float(np.vdot(_C, rows))
        grads.append(special if len(grads) == 2 else _C)
        return value, grads[-1].copy()

    return objective_rows


def _at_first(v, base):
    g = base.copy()
    g[0, 0] = v
    return g


# gradient at step 1, tol, and the steps taken (an int) or the ArithmeticError message
MIRROR_DESCENT_OVERFLOWS = {
    "huge-one-entry": (_at_first(1.5e308, _C), 1e-9, 4),
    "huge-every-entry": (np.full((2, 2), 1.5e308), 1e-9, 4),
    "inf": (_at_first(math.inf, _C), 1e-9, "non-finite logits after 2 steps"),
    "-inf": (_at_first(-math.inf, _C), 1e-9, "non-finite logits after 2 steps"),
    "nan": (_at_first(math.nan, _C), 1e-9, "non-finite logits after 2 steps"),
    "only-1e-320": (_at_first(1e-320, np.zeros((2, 2))), 0.0, "non-finite logits after 2 steps"),
    "only-1e-300": (_at_first(1e-300, np.zeros((2, 2))), 0.0, 4),
    "only-5e-324": (_at_first(5e-324, np.zeros((2, 2))), 0.0, 1),
}


@pytest.mark.parametrize(
    "special, tol, outcome", MIRROR_DESCENT_OVERFLOWS.values(), ids=list(MIRROR_DESCENT_OVERFLOWS)
)
def test_mirror_descent_overflow_test(special, tol, outcome):
    # a scale that overflows reads as a step of 0; a non-finite or subnormal max|g|
    # would make a logit non-finite; 5e-324 * x rounds to 0, a gap of 0 <= tol
    objective, start = _linear_objective(special), np.full((2, 2), 0.5)
    config = LearnerConfig(max_iters=4, tol=tol)
    if isinstance(outcome, str):
        with pytest.raises(ArithmeticError) as info:
            _mirror_descent(objective, start, config)
        assert str(info.value) == outcome
    else:
        rows, trace = _mirror_descent(objective, start, config)
        assert len(trace) == outcome + 1
        assert np.isfinite(rows).all() and math.isfinite(trace[-1])


@pytest.mark.parametrize("coord, steps", [(1e-155, 2), (3e-155, 3), (1e-154, None)])
def test_fit_at_a_tiny_source_distance_overflows_at_a_named_step(coord, steps):
    # the Lipschitz ratio over a distance of 1e-155 makes the gradient non-finite
    xs = FiniteSpace(["a", "b"], coords=[[0.0], [coord]])
    ys = FiniteSpace(["u", "v"], coords=[[0.0], [1.0]])
    spec = WFunctionalSpec.from_kernel(KernelSpec("delta"), xs, ys)
    S = Dataset(ProductSpace(xs, ys), [("a", "u"), ("b", "v")])
    config = LearnerConfig(max_iters=5)
    if steps is None:
        assert len(regularized_estimate(S, 1.0, spec.gram_xy, spec, config).trace) == 6
    else:
        with pytest.raises(ArithmeticError, match=f"^non-finite logits after {steps} steps$"):
            regularized_estimate(S, 1.0, spec.gram_xy, spec, config)


def test_regularized_point_mass_fit():
    g_xy, spec = reg_setup()
    S = make_dataset([("x1", "y2")] * 6)
    fit = regularized_estimate(S, 1e-4, g_xy, spec, LearnerConfig(seed=0))
    assert fit.h.matrix[0, 1] > 0.98
    assert fit.eps_certificate <= (1e-4) ** 2 + 1e-12
    assert all(b <= a + 1e-12 for a, b in zip(fit.trace, fit.trace[1:]))


def test_regularized_small_gamma_tracks_empirical_conditional():
    g_xy, spec = reg_setup()
    S = make_dataset(
        [("x1", "y1")] * 3
        + [("x1", "y2")]
        + [("x2", "y1")]
        + [("x2", "y2")] * 3
        + [("x3", "y1")] * 2
        + [("x3", "y2")] * 2
    )
    sec = empirical_section(S)
    fit = regularized_estimate(S, 1e-5, g_xy, spec, LearnerConfig(seed=1))
    assert np.max(np.abs(fit.h.matrix - sec.matrix)) < 0.02


def test_regularized_objective_beats_section_competitor():
    g_xy, spec = reg_setup()
    S = make_dataset([("x1", "y1"), ("x2", "y2"), ("x3", "y1"), ("x3", "y2")])
    gamma = 0.2
    fit = regularized_estimate(S, gamma, g_xy, spec, LearnerConfig(seed=2))
    sec = empirical_section(S)
    from probmorph.losses import mmd_correct_loss

    competitor = mmd_correct_loss(sec, empirical(S), g_xy) ** 2 + gamma * w_functional(
        sec, spec
    )
    assert fit.objective <= competitor + fit.eps_certificate + 1e-9


def test_regularized_deterministic_given_seed():
    g_xy, spec = reg_setup()
    S = make_dataset([("x1", "y1"), ("x2", "y2")])
    f1 = regularized_estimate(S, 0.5, g_xy, spec, LearnerConfig(seed=9))
    f2 = regularized_estimate(S, 0.5, g_xy, spec, LearnerConfig(seed=9))
    assert np.array_equal(f1.h.matrix, f2.h.matrix)
    assert f1.objective == f2.objective


def _criterion10_instance():
    """Criterion 10's 6x4 grid and n = 200 draws, the unscaled product Gram, sup and Lipschitz."""
    xs = FiniteSpace([f"x{i}" for i in range(6)], coords=np.linspace(0.0, 5.0, 6)[:, None])
    ys = FiniteSpace([f"y{i}" for i in range(4)], coords=np.linspace(0.0, 3.0, 4)[:, None])
    prod = ProductSpace(xs, ys)
    spec = WFunctionalSpec.from_kernel(KernelSpec("gaussian", sigma=1.0), xs, ys)
    drift = np.linspace(0.0, 3.0, 6)
    rows = np.exp(-0.5 * (np.linspace(0.0, 3.0, 4)[None, :] - drift[:, None]) ** 2)
    rows /= rows.sum(axis=1, keepdims=True)
    joint = graph_pushforward(MarkovKernel(xs, ys, rows), ProbMeasure(xs, np.full(6, 1 / 6)))
    rng = np.random.default_rng((10, 200, 0))
    idx = np.minimum(np.searchsorted(np.cumsum(joint.weights), rng.random(200), side="right"), 23)
    return Dataset(prod, [prod.labels[i] for i in idx]), spec


def test_regularized_beats_uniform_start():
    from probmorph.losses import mmd_correct_loss

    S, spec = _criterion10_instance()
    gamma = 200 ** -0.5
    fit = regularized_estimate(S, gamma, spec.gram_xy, spec, LearnerConfig(max_iters=250))
    uniform = MarkovKernel(spec.gram_x.points, spec.gram_y.points, np.full((6, 4), 0.25))
    at_uniform = mmd_correct_loss(uniform, empirical(S), spec.gram_xy) ** 2 + gamma * w_functional(
        uniform, spec
    )
    assert fit.objective < at_uniform - 1e-4
    assert 1 <= len(fit.trace) <= 251
    assert fit.trace[-1] == fit.objective
    assert all(b <= a for a, b in zip(fit.trace, fit.trace[1:]))


def test_regularized_factored_gram_matches_dense():
    S, spec = _criterion10_instance()
    assert isinstance(spec.gram_xy, KroneckerGram)
    dense_xy = GramMatrix(S.space, spec.gram_xy.values)
    dense = WFunctionalSpec(dense_xy, spec.gram_y, spec.gram_x)
    gamma = 200 ** -0.5
    config = LearnerConfig(max_iters=250)
    fit = regularized_estimate(S, gamma, spec.gram_xy, spec, config)
    ref = regularized_estimate(S, gamma, dense_xy, dense, config)
    assert fit.objective == pytest.approx(ref.objective, rel=1e-12)
    assert np.max(np.abs(fit.h.matrix - ref.h.matrix)) <= 1e-12
    for h in (fit.h, empirical_section(S)):
        assert w_functional(h, spec) == pytest.approx(w_functional(h, dense), abs=1e-12)


def test_regularized_fit_ignores_seed():
    S10, spec10 = _criterion10_instance()
    g_xy, spec = reg_setup()
    small = make_dataset([("x1", "y1"), ("x2", "y2"), ("x3", "y1"), ("x3", "y2")])
    cases = ((S10, 200 ** -0.5, spec10.gram_xy, spec10), (small, 0.2, g_xy, spec))
    for S, gamma, g, w in cases:
        f0, f1 = (
            regularized_estimate(S, gamma, g, w, LearnerConfig(seed=seed, max_iters=250))
            for seed in (0, 1)
        )
        assert np.array_equal(f0.h.matrix, f1.h.matrix)
        assert f0.objective == f1.objective
        assert f0.trace == f1.trace


def _grid_instance(nx, ny, n):
    """n uniform draws on an nx x ny grid, with a gaussian W spec and its Kronecker gram_xy."""
    xs = FiniteSpace([f"x{i}" for i in range(nx)], coords=np.linspace(0.0, 5.0, nx)[:, None])
    ys = FiniteSpace([f"y{i}" for i in range(ny)], coords=np.linspace(0.0, 3.0, ny)[:, None])
    prod = ProductSpace(xs, ys)
    spec = WFunctionalSpec.from_kernel(KernelSpec("gaussian", sigma=1.0), xs, ys)
    idx = np.random.default_rng((nx, ny, n)).integers(0, nx * ny, n)
    return Dataset(prod, [prod.labels[i] for i in idx]), spec


def _probe_values(S, gamma, g_xy, spec, seed):
    """The objective at each of the 16 probes, evaluated as a fit evaluates it."""
    counts = S.counts()
    mu_x = counts.sum(axis=1)[:, None] / len(S)
    target = counts / len(S)
    with np.errstate(all="ignore"):
        return [
            float(g_xy.sq_norms((mu_x * r - target).reshape(1, -1))[1][0])
            + gamma * spec._value_grad(r)[0]
            for r in _probe_rows(*counts.shape, seed)
        ]


@pytest.mark.parametrize("nx, ny, n", [(3, 2, 8), (6, 4, 200), (64, 16, 1000)])
@pytest.mark.parametrize("dense", [False, True], ids=["kronecker", "dense"])
def test_lazy_certificate_equals_the_eager_formula(nx, ny, n, dense):
    S, spec = _grid_instance(nx, ny, n)
    if dense:
        spec = WFunctionalSpec(GramMatrix(S.space, spec.gram_xy.values), spec.gram_y, spec.gram_x)
    gamma = n ** -0.5
    for seed in (0, 1, 7):
        fit = regularized_estimate(S, gamma, spec.gram_xy, spec, LearnerConfig(max_iters=20, seed=seed))
        values = _probe_values(S, gamma, spec.gram_xy, spec, seed)
        assert fit.eps_certificate.hex() == max(0.0, fit.objective - min(values)).hex()
        # the fit beats every probe, so a worse objective shows the margin unclamped
        worse = replace(fit, trace=[max(values)])
        assert worse.eps_certificate.hex() == (max(values) - min(values)).hex()
        assert worse.eps_certificate > 0


def test_certificate_reads_the_seed_of_the_fit():
    # LearnerConfig is mutable: the fit copies its seed, so a later change does not reach it
    S, spec = _grid_instance(6, 4, 200)
    config = LearnerConfig(max_iters=20, seed=3)
    fit = regularized_estimate(S, 0.1, spec.gram_xy, spec, config)
    config.seed = 4
    at = {seed: min(_probe_values(S, 0.1, spec.gram_xy, spec, seed)) for seed in (3, 4)}
    assert at[3] != at[4]
    worse = replace(fit, trace=[1.0])
    assert worse.eps_certificate.hex() == (1.0 - at[3]).hex()


def test_certificate_survives_a_pickle_round_trip():
    S, spec = _grid_instance(6, 4, 200)
    fit = regularized_estimate(S, 0.1, spec.gram_xy, spec, LearnerConfig(max_iters=20, seed=5))
    fit = replace(fit, trace=[1.0])  # a margin that is not clamped to 0
    before = pickle.loads(pickle.dumps(fit))
    value = fit.eps_certificate
    after = pickle.loads(pickle.dumps(fit))
    assert "eps_certificate" not in vars(before) and "eps_certificate" in vars(after)
    assert before.eps_certificate.hex() == after.eps_certificate.hex() == value.hex()
    assert np.array_equal(before.h.matrix, fit.h.matrix) and before.trace == fit.trace


def test_certificate_probes_run_once_on_first_read(monkeypatch):
    calls = []
    real = learning_mod._probe_rows

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(learning_mod, "_probe_rows", counted)
    S, spec = _grid_instance(6, 4, 200)
    fit = regularized_estimate(S, 0.1, spec.gram_xy, spec, LearnerConfig(max_iters=20, seed=2))
    assert calls == []
    first, second = fit.eps_certificate, fit.eps_certificate
    assert calls == [(6, 4, 2)] and first.hex() == second.hex()


@pytest.mark.parametrize("nx, ny, seed", [(1, 1, 0), (3, 2, 5), (6, 4, 1), (64, 16, 2)])
def test_probe_rows_are_one_draw(nx, ny, seed):
    # one generator draws all 16 probes' logits, and one softmax turns them into rows
    probes = _probe_rows(nx, ny, seed)
    z = 2.0 * np.random.default_rng((seed, 104729)).standard_normal((16 * nx, ny))
    e = np.exp(z - z.max(axis=1, keepdims=True))
    want = (e / e.sum(axis=1, keepdims=True)).reshape(16, nx, ny)
    assert probes.shape == (16, nx, ny)
    assert np.array_equal(probes, want)
    assert np.allclose(probes.sum(axis=2), 1.0, rtol=0, atol=1e-12)


def _plain_sq_norms(g, d):
    """(d G, q) for a stack d, with every product formed here: only the roundoff rule is g's.

    A dense Gram is d @ G; a Kronecker Gram is left @ grid @ right, one
    2-D grid per row of d; q[k] = d[k] . (d G)[k] by np.vecdot.
    """
    if isinstance(g, KroneckerGram):
        grids = d.reshape(len(d), g.left.size, g.right.size)
        dg = np.stack([g.left.values @ grid @ g.right.values for grid in grids]).reshape(d.shape)
    else:
        dg = d @ g.values
    return dg, g._clamp_roundoff(np.vecdot(dg, d), d)


def _plain_graph_sq_norms(g, r):
    """(b, q) from g's diagonal blocks, read from g.values on each call: b[i] = B_i r[i], q[i] = b[i]' r[i]."""
    nx, ny = r.shape
    blocks = np.einsum("iyiz->iyz", g.values.reshape(nx, ny, nx, ny))
    b = np.matmul(blocks, r[:, :, None])[:, :, 0]
    return b, g._clamp_roundoff(np.einsum("iy,iy->i", b, r), r)


def _plain_value_grad(spec, rows, want_grad=True):
    """W's value and gradient as first written: numpy-scalar indexing, no cached copies, own products."""
    total = 0.0
    sup = lip = None
    n_sup = len(rows) if spec.include_sup else 0
    pairs, _ = _lipschitz_pairs(spec.gram_x.points, spec.include_lipschitz)
    if len(spec._gather):
        stack = rows.take(spec._gather, axis=0)
        stack[n_sup:] -= rows.take(pairs[1], axis=0)
        g2, q = _plain_sq_norms(spec.gram_y, stack)
        norms = np.sqrt(q)
        pieces = norms / spec._divisors
    if n_sup:
        phi = pieces[:n_sup]
        if spec._blocks is not None:
            b, qg = _plain_graph_sq_norms(spec.gram_xy, rows)
            ng_norm = np.sqrt(qg)
            phi = phi + ng_norm
        sup = int(phi.argmax())
        total += float(phi[sup])
    if pairs.shape[1]:
        p = n_sup + int(pieces[n_sup:].argmax())
        total += float(pieces[p])
        if pieces[p] > 0:
            lip = p
    if not want_grad:
        return total * total, None
    grad = np.zeros(rows.shape)
    if sup is not None:
        if norms[sup] > 0:
            grad[sup] = g2[sup] / (norms[sup] * spec._divisors[sup])
        if spec._blocks is not None and ng_norm[sup] > 0:
            grad[sup] += b[sup] / ng_norm[sup]
    if lip is not None:
        i, j = pairs[:, lip - n_sup]
        step = g2[lip] / (norms[lip] * spec._divisors[lip])
        grad[i] += step
        grad[j] -= step
    grad *= 2.0 * total
    return total * total, grad


def _plain_softmax(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _plain_fit(S, gamma, g_xy, spec, max_iters, seed):
    """regularized_estimate as one plain loop: (rows, objective, trace, probe minimum).

    The objective broadcasts mu_x over the rows, and each step allocates
    new logits. Any change to the order of a floating-point operation in
    the library's step shows as a moved bit against it.
    """
    counts = S.counts()
    start, mass = _conditional_rows(counts)
    mu_x = mass[:, None] / len(S)
    target = counts / len(S)

    def objective(rows, want_grad=True):
        d = mu_x * rows - target
        dg, q = _plain_sq_norms(g_xy, d.reshape(1, -1))
        wval, wgrad = _plain_value_grad(spec, rows, want_grad)
        value = float(q[0]) + gamma * wval
        if not want_grad:
            return value, None
        return value, wgrad * gamma + dg.reshape(rows.shape) * (2.0 * mu_x)

    with np.errstate(all="ignore"):
        z = np.zeros_like(start)
        best_rows, (best_val, _) = start, objective(start, want_grad=False)
        trace = []
        for t in range(max_iters + 1):
            rows = _plain_softmax(z)
            value, grad = objective(rows)
            if value < best_val:
                best_rows, best_val = rows, value
            trace.append(best_val)
            gap = float(np.vdot(grad, rows) - grad.min(axis=1).sum())
            if t == max_iters or gap <= 1e-9:
                break
            z = z - learning_mod._STEP / (math.sqrt(t + 1) * np.abs(grad).max()) * grad
        nx, ny = counts.shape
        logits = 2.0 * np.random.default_rng((seed, 104729)).standard_normal((16 * nx, ny))
        probes = _plain_softmax(logits).reshape(16, nx, ny)
        probe_min = min(objective(r, want_grad=False)[0] for r in probes)
    return best_rows, best_val, trace, probe_min


def _draws(xs, ys, n, seed, sources=None):
    """n uniform pairs on xs x ys, drawn only at the source indices `sources` (all by default)."""
    prod = ProductSpace(xs, ys)
    rng = np.random.default_rng(seed)
    sources = np.arange(xs.size) if sources is None else np.asarray(sources)
    pairs = [(xs.labels[i], ys.labels[j]) for i, j in zip(rng.choice(sources, n), rng.integers(0, ys.size, n))]
    return Dataset(prod, pairs)


def _line(name, n, hi):
    return FiniteSpace([f"{name}{i}" for i in range(n)], coords=np.linspace(0.0, hi, n)[:, None])


def _pinned_criterion10():
    S, spec = _criterion10_instance()
    return S, 200 ** -0.5, GramMatrix(S.space, 50.0 * spec.gram_xy.values), spec, 250


def _pinned_from_kernel(xs, ys, n, k=KernelSpec("gaussian", sigma=1.0), sources=None, gamma=0.2, **terms):
    spec = WFunctionalSpec.from_kernel(k, xs, ys, **terms)
    return _draws(xs, ys, n, (xs.size, ys.size, n), sources), gamma, spec.gram_xy, spec, 60


def _pinned_scaled_left_factor():
    # a hand-built Kronecker gram_xy whose left diagonal is 1.7, so a_i = 1 + sqrt(1.7)
    # and the sup divisors are not powers of two
    xs, ys = _line("x", 6, 5.0), _line("y", 4, 3.0)
    k = KernelSpec("gaussian", sigma=1.0)
    g_x, g_y = gram(k, xs), gram(k, ys)
    g_xy = KroneckerGram(ProductSpace(xs, ys), GramMatrix(xs, 1.7 * g_x.values), g_y)
    spec = WFunctionalSpec(g_xy, g_y, g_x)
    assert spec._divisors[0] != 0.5
    return _draws(xs, ys, 150, 17), 0.3, g_xy, spec, 120


PINNED_FITS = {
    "criterion10-dense": _pinned_criterion10,
    "scaled-left-factor": _pinned_scaled_left_factor,
    "gaussian-16x8": lambda: _pinned_from_kernel(_line("x", 16, 5.0), _line("y", 8, 3.0), 300),
    "2d-source-5x4": lambda: _pinned_from_kernel(
        FiniteSpace([f"x{i}" for i in range(5)], coords=np.random.default_rng(5).uniform(0, 3, (5, 2))),
        _line("y", 4, 3.0),
        120,
        KernelSpec("gaussian", sigma=0.7),
    ),
    "linear": lambda: _pinned_from_kernel(
        _line("x", 5, 2.0), _line("y", 3, 1.0), 80, KernelSpec("linear", scale=0.5)
    ),
    "sup-only": lambda: _pinned_from_kernel(_line("x", 6, 5.0), _line("y", 4, 3.0), 200, include_lipschitz=False),
    "lipschitz-only": lambda: _pinned_from_kernel(_line("x", 6, 5.0), _line("y", 4, 3.0), 200, include_sup=False),
    "unobserved-input": lambda: _pinned_from_kernel(
        _line("x", 6, 5.0), _line("y", 4, 3.0), 100, sources=[0, 1, 2, 4, 5]
    ),
    # fit-large's shape: a 127-piece W stack and a 1,024-entry step; at gamma >= 1e-3
    # the trace stays flat, so only a gamma this small pins the step's bits
    "gaussian-64x16": lambda: _pinned_from_kernel(_line("x", 64, 5.0), _line("y", 16, 3.0), 1000, gamma=1e-4),
}


@pytest.mark.parametrize("make", PINNED_FITS.values(), ids=list(PINNED_FITS))
def test_fit_bits_equal_a_plain_copy_of_the_step(make):
    # the step's numpy calls may change, its floating-point operations may not
    S, gamma, g_xy, spec, max_iters = make()
    rows, objective, trace, probe_min = _plain_fit(S, gamma, g_xy, spec, max_iters, seed=7)
    fit = regularized_estimate(S, gamma, g_xy, spec, LearnerConfig(max_iters=max_iters, seed=7))
    want = MarkovKernel(S.space.left, S.space.right, rows)
    assert fit.h.matrix.tobytes() == want.matrix.tobytes()
    assert fit.objective.hex() == objective.hex()
    assert [v.hex() for v in fit.trace] == [v.hex() for v in trace]
    assert fit.eps_certificate.hex() == max(0.0, objective - probe_min).hex()
    # a margin that is not clamped to 0 pins the probes' minimum too: 2p - p is exact
    assert replace(fit, trace=[2.0 * probe_min]).eps_certificate.hex() == probe_min.hex()


@pytest.mark.parametrize("max_iters", [0, 30])
def test_fit_kernel_is_the_constructor_kernel_of_the_best_rows(monkeypatch, max_iters):
    best = []

    def spy(*args):
        rows, trace = _mirror_descent(*args)
        best.append(rows.copy())
        return rows, trace

    monkeypatch.setattr(learning_mod, "_mirror_descent", spy)
    S, gamma, g_xy, spec, _ = _pinned_criterion10()
    fit = regularized_estimate(S, gamma, g_xy, spec, LearnerConfig(max_iters=max_iters))
    public = MarkovKernel(S.space.left, S.space.right, best[0])
    assert_public_bits(fit.h, public, "matrix", fit._mu_x, fit._target)


@pytest.mark.parametrize("flag", ["include_sup", "include_lipschitz"])
@pytest.mark.parametrize("kernel", [KernelSpec("gaussian", sigma=1.0), KernelSpec("linear", scale=0.5)])
def test_a_rebuilt_spec_carries_no_stale_copies(flag, kernel):
    xs, ys = _line("x", 5, 4.0), _line("y", 3, 2.0)
    spec = WFunctionalSpec.from_kernel(kernel, xs, ys)
    rebuilt = replace(spec, **{flag: False})
    fresh = WFunctionalSpec.from_kernel(kernel, xs, ys, **{flag: False})
    rows = np.random.default_rng(3).dirichlet(np.ones(3), size=5)
    value, grad = rebuilt._value_grad(rows)
    fresh_value, fresh_grad = fresh._value_grad(rows)
    assert value.hex() == fresh_value.hex()
    assert grad.tobytes() == fresh_grad.tobytes()
    assert value != spec._value_grad(rows)[0]


class _LockableGram(GramMatrix):
    """A dense Gram that counts reads of `values`, and refuses them once locked."""

    def __init__(self, points, entries):
        self.reads, self.locked = 0, False
        super().__init__(points, entries)

    @property
    def values(self):
        if self.locked:
            raise AttributeError("values is locked")
        self.reads += 1
        return self._values

    @values.setter
    def values(self, g):
        self._values = g


@pytest.mark.parametrize("kernel", [KernelSpec("linear", scale=0.5), KernelSpec("gaussian", sigma=1.0, scale=1.7)])
def test_a_dense_spec_reads_the_product_gram_once(kernel):
    xs, ys = _line("x", 5, 4.0), _line("y", 3, 2.0)
    spec = WFunctionalSpec.from_kernel(kernel, xs, ys)
    g_xy = _LockableGram(spec.gram_xy.points, spec.gram_xy.values)
    dense = WFunctionalSpec(GramMatrix(g_xy.points, spec.gram_xy.values), spec.gram_y, spec.gram_x)
    counted = WFunctionalSpec(g_xy, spec.gram_y, spec.gram_x)
    assert g_xy.reads == 1 and counted._blocks is not None
    g_xy.locked = True
    h = MarkovKernel(xs, ys, np.random.default_rng(4).dirichlet(np.ones(3), size=5))
    for rows in (h.matrix, np.full((5, 3), 1.0 / 3.0)):
        value, grad = counted._value_grad(rows)
        want_value, want_grad = dense._value_grad(rows)
        assert value.hex() == want_value.hex() and grad.tobytes() == want_grad.tobytes()
    assert w_functional(h, counted).hex() == w_functional(h, dense).hex()


def test_a_kronecker_spec_over_another_label_gram_never_densifies():
    # the product Gram's right factor is not gram_y, so the blocks differ from
    # left[i, i] * gram_y; they come from the factors, the products np.kron forms
    xs, ys = _line("x", 5, 4.0), _line("y", 3, 2.0)
    k = KernelSpec("gaussian", sigma=1.0)
    g_y, g_x = gram(k, ys), gram(k, xs)

    def product():
        left = gram(replace(k, scale=2.0), xs)
        return KroneckerGram(ProductSpace(xs, ys), left, gram(KernelSpec("laplacian", sigma=0.5), ys))

    g = product()
    spec = WFunctionalSpec(g, g_y, g_x)
    assert "values" not in vars(g)
    dense = WFunctionalSpec(GramMatrix(g.points, product().values), g_y, g_x)
    assert spec._blocks.tobytes() == dense._blocks.tobytes()
    h = MarkovKernel(xs, ys, np.random.default_rng(5).dirichlet(np.ones(3), size=5))
    for rows in (h.matrix, np.full((5, 3), 1.0 / 3.0)):
        value, grad = spec._value_grad(rows)
        dense_value, dense_grad = dense._value_grad(rows)
        assert value.hex() == dense_value.hex() and grad.tobytes() == dense_grad.tobytes()
    assert w_functional(h, spec).hex() == w_functional(h, dense).hex()
    assert "values" not in vars(g)


# ---------------------------------------------------------------------------
# newton interpolant
# ---------------------------------------------------------------------------
def test_newton_linear_midpoint():
    f = newton_interpolant([(0.0, dirac(Y2, "y1")), (1.0, dirac(Y2, "y2"))])
    mid = f(0.5)
    assert np.allclose(mid.weights, [0.5, 0.5], atol=1e-12)
    assert np.allclose(f(0.0).weights, [1.0, 0.0], atol=1e-12)
    assert np.allclose(f(1.0).weights, [0.0, 1.0], atol=1e-12)


def test_newton_single_node_constant():
    nu = ProbMeasure(Y2, [0.2, 0.8])
    f = newton_interpolant([(3.0, nu)])
    for q in (-1.0, 0.0, 10.0):
        assert np.allclose(f(q).weights, nu.weights)


def test_newton_constant_nodes():
    nu = ProbMeasure(Y2, [0.4, 0.6])
    f = newton_interpolant([(float(i), nu) for i in range(5)])
    assert np.allclose(f(2.37).weights, nu.weights, atol=1e-12)


def test_newton_validation():
    nu = ProbMeasure(Y2, [0.5, 0.5])
    with pytest.raises(ValueError):
        newton_interpolant([(0.0, nu), (0.0, nu)])
    with pytest.raises(ValueError):
        newton_interpolant([(float(i), nu) for i in range(13)])
    with pytest.raises(ValueError):
        newton_interpolant([])
    # a node the table cannot divide by is refused when built, not at every evaluation
    other = ProbMeasure(Y2, [1.0, 0.0])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"node abscissas must be finite, got {bad}"):
            newton_interpolant([(0.0, nu), (bad, other)])
    with pytest.raises(ValueError, match="divided-difference table overflows"):
        newton_interpolant([(0.0, nu), (1e-320, other)])
    # close but representable spacings still interpolate through the nodes
    f = newton_interpolant([(0.0, nu), (1e-300, other)])
    assert np.allclose(f(1e-300).weights, other.weights, rtol=0, atol=1e-15)
    # an evaluation point the polynomial cannot be evaluated at is refused by name,
    # with or without projection, and without a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for project in (False, True):
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match=f"x must be finite, got {bad}"):
                    f(bad, project=project)
            with pytest.raises(ValueError, match="the interpolant overflows at x = 1e[+]308"):
                f(1e308, project=project)
            # far from the nodes the weights cancel to [5e15, -5e15] and [5e199, -5e199]:
            # their unit mass is lost, and the projection would have no pivot
            far = newton_interpolant([(0.0, nu), (1.0, other)])
            for x in (1e16, 1e200):
                with pytest.raises(ValueError, match=re.escape(f"weights sum to 0.0 at x = {x}, not 1")):
                    far(x, project=project)


def test_newton_projection_only_at_query():
    # steep nodes make the quadratic dip below zero between them
    f = newton_interpolant(
        [
            (0.0, ProbMeasure(Y2, [1.0, 0.0])),
            (1.0, ProbMeasure(Y2, [0.0, 1.0])),
            (2.0, ProbMeasure(Y2, [1.0, 0.0])),
        ]
    )
    raw = f(3.0)
    assert raw.weights.min() < 0.0
    assert raw.total_mass() == pytest.approx(1.0, abs=1e-10)
    proj = f(3.0, project=True)
    assert isinstance(proj, ProbMeasure)
    assert proj.weights.min() >= 0.0
    # node values are untouched by projection
    assert np.allclose(f(1.0, project=True).weights, [0.0, 1.0], atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 8), st.integers(2, 5))
def test_newton_node_exactness_and_sums(seed, n_nodes, ny):
    rng = np.random.default_rng(seed)
    Y = FiniteSpace(list(range(ny)))
    xs = rng.permutation(12)[:n_nodes].astype(float)
    nodes = []
    for x in xs:
        w = rng.random(ny) + 1e-3
        nodes.append((float(x), ProbMeasure(Y, w / w.sum())))
    f = newton_interpolant(nodes)
    for x, nu in nodes:
        assert np.max(np.abs(f(x).weights - nu.weights)) < 1e-8
    for q in rng.uniform(xs.min(), xs.max(), size=20):
        assert f(float(q)).total_mass() == pytest.approx(1.0, abs=1e-10)


# every refusal of the module that no test above reaches: (call, exception type, message fragment)
X3_RELABELLED = FiniteSpace(["z1", "z2", "z3"], coords=X3.coords)
LEARNING_REFUSALS = {
    "section-no-samples": (
        lambda: empirical_section(make_dataset([])), ValueError, "cannot build an empirical section from no samples",
    ),
    "w-other-grids": (
        lambda: w_functional(MarkovKernel(Y2, Y2, np.eye(2)), reg_setup()[1]),
        ValueError, "hypothesis grids do not match the W geometry",
    ),
    "estimate-no-samples": (
        lambda: regularized_estimate(make_dataset([]), 0.1, *reg_setup()),
        ValueError, "regularized_estimate needs a nonempty dataset",
    ),
    "estimate-gxy-off-the-product": (
        lambda: regularized_estimate(make_dataset([("x1", "y1")]), 0.1, G_Y, reg_setup()[1]),
        ValueError, "gXY must live on the dataset's product space",
    ),
    "estimate-w-other-grids": (
        lambda: regularized_estimate(
            make_dataset([("x1", "y1")]), 0.1, reg_setup()[0],
            WFunctionalSpec.from_kernel(KernelSpec("delta"), X3_RELABELLED, Y2),
        ),
        ValueError, "W geometry does not match the dataset grids",
    ),
    "config-restarts-0": (lambda: LearnerConfig(restarts=0), ValueError, "restarts must be a positive integer"),
    "config-restarts-nan": (lambda: LearnerConfig(restarts=math.nan), ValueError, "restarts must be a positive integer"),
    "config-max-iters-fraction": (
        lambda: LearnerConfig(max_iters=2.5), ValueError, "max_iters must be a nonnegative integer, got 2.5",
    ),
    "config-seed-negative": (
        lambda: LearnerConfig(seed=-1), ValueError, "seed must be a nonnegative integer, got -1",
    ),
    "config-seed-fraction": (
        lambda: LearnerConfig(seed=1.5), ValueError, "seed must be a nonnegative integer, got 1.5",
    ),
    "gamma-nan-n": (lambda: gamma_schedule(math.nan), ValueError, "sample size must be an integer at least 1, got nan"),
    "gamma-inf-n": (lambda: gamma_schedule(math.inf), ValueError, "sample size must be an integer at least 1, got inf"),
    "gamma-fraction-n": (lambda: gamma_schedule(2.5), ValueError, "sample size must be an integer at least 1, got 2.5"),
    "gamma-n-past-float-range": (
        lambda: gamma_schedule(10**400), ValueError, f"within float range, got {10**400}",
    ),
    "w-no-term": (
        lambda: WFunctionalSpec.from_kernel(KernelSpec("delta"), X3, Y2, include_sup=False, include_lipschitz=False),
        ValueError, "at least one W term must be enabled",
    ),
    "newton-two-spaces": (
        lambda: NewtonInterpolant([(0.0, dirac(X3, "x1")), (1.0, dirac(Y2, "y1"))]),
        ValueError, "all node measures must share one space",
    ),
}


@pytest.mark.parametrize("case", LEARNING_REFUSALS.values(), ids=list(LEARNING_REFUSALS))
def test_learning_refusals(case):
    call, exc, fragment = case
    with pytest.raises(exc) as info:
        call()
    assert info.type is exc and fragment in str(info.value)
