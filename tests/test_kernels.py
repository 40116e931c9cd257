import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigvalsh
from scipy.spatial.distance import cdist

from pair_form import pair_form
from probmorph.kernels import (
    GramMatrix,
    KernelSpec,
    KroneckerGram,
    NotPSDError,
    c_k,
    embed_inner,
    embedding_injective,
    gram,
    kernel_eval,
    mmd,
)
from probmorph.learning import WFunctionalSpec
from probmorph.spaces import (
    FiniteSpace,
    ProbMeasure,
    ProductSpace,
    SignedMeasure,
    SpaceMismatchError,
    dirac,
)

Y01 = FiniteSpace([0, 1], coords=[[0.0], [1.0]])


def coord_spaces(max_points=6, dim=2):
    def build(pts):
        arr = np.round(np.array(pts), 4)
        if len({tuple(r) for r in arr}) < len(arr):
            arr = arr + np.arange(len(arr))[:, None]  # force distinct rows
        return FiniteSpace(list(range(len(arr))), coords=arr)

    return st.integers(2, max_points).flatmap(
        lambda n: st.lists(
            st.lists(st.floats(-3, 3, allow_nan=False), min_size=dim, max_size=dim),
            min_size=n,
            max_size=n,
        ).map(build)
    )


def test_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("gaussian", sigma=0.0)
    with pytest.raises(ValueError):
        KernelSpec("linear", scale=-1.0)
    with pytest.raises(ValueError):
        KernelSpec("cauchy")
    # delta needs no sigma, gaussian does
    KernelSpec("delta")
    with pytest.raises(ValueError):
        KernelSpec("gaussian")


def test_eval_values():
    g = KernelSpec("gaussian", sigma=1.0)
    assert kernel_eval(g, [0.5], [0.5]) == 1.0
    assert kernel_eval(g, [0.0], [1.0]) == pytest.approx(math.exp(-1.0), abs=1e-12)
    lin = KernelSpec("linear")
    assert kernel_eval(lin, [0.0], [1.0]) == 0.0
    lap = KernelSpec("laplacian", sigma=2.0)
    assert kernel_eval(lap, [0.0, 0.0], [1.0, 1.0]) == pytest.approx(math.exp(-4.0))
    d = KernelSpec("delta")
    assert kernel_eval(d, [1.0], [1.0]) == 1.0
    assert kernel_eval(d, [1.0], [2.0]) == 0.0


def test_eval_resolves_labels_of_the_space():
    space = FiniteSpace(["a", "b"], coords=[[0.0], [2.0]])
    g = KernelSpec("gaussian", sigma=0.5)
    assert kernel_eval(g, "a", "b", space) == pytest.approx(math.exp(-2.0), abs=1e-15)
    # a label meets a raw vector through the label's coordinates
    assert kernel_eval(g, "a", (2.0,), space) == kernel_eval(g, "a", "b", space)
    d = KernelSpec("delta", scale=3.0)
    assert kernel_eval(d, "a", "a", space) == 3.0
    assert kernel_eval(d, "a", "b", space) == 0.0
    assert kernel_eval(d, "b", (2.0,), space) == 3.0
    # delta compares labels on a bare space; a label never equals a raw vector there
    bare = FiniteSpace(["a", "b"])
    assert kernel_eval(d, "b", "b", bare) == 3.0
    assert kernel_eval(d, "a", "b", bare) == 0.0
    assert kernel_eval(d, "a", (0.0,), bare) == 0.0
    with pytest.raises(ValueError, match="needs coordinates"):
        kernel_eval(g, "a", "b", bare)


@pytest.mark.parametrize(
    "vector", [[2.0], np.array([2.0]), (2.0,)], ids=["list", "ndarray", "tuple"]
)
def test_eval_reads_an_unhashable_point_as_a_raw_vector(vector):
    space = FiniteSpace(["a", "b"], coords=[[0.0], [2.0]])
    g = KernelSpec("gaussian", sigma=0.5)
    by_label = kernel_eval(g, "a", "b", space)
    assert kernel_eval(g, "a", vector, space) == by_label
    assert kernel_eval(g, vector, "a", space) == by_label
    assert kernel_eval(g, [0.0], vector, space) == by_label
    assert kernel_eval(g, [0.0], vector) == by_label
    d = KernelSpec("delta", scale=3.0)
    assert kernel_eval(d, "b", vector, space) == 3.0
    assert kernel_eval(d, "a", vector, space) == 0.0
    assert kernel_eval(d, vector, vector) == 3.0
    assert kernel_eval(d, "b", vector, FiniteSpace(["a", "b"])) == 0.0
    # labels still resolve as labels, also labels that look like vectors
    tuples = FiniteSpace([(0.0,), (2.0,)], coords=[[5.0], [7.0]])
    assert kernel_eval(g, (0.0,), (2.0,), tuples) == pytest.approx(math.exp(-2.0), abs=1e-15)
    assert kernel_eval(g, [0.0], [2.0], tuples) == by_label


def test_eval_requires_coords_for_geometric_variants():
    bare = FiniteSpace(["a", "b"])
    with pytest.raises(ValueError):
        gram(KernelSpec("gaussian", sigma=1.0), bare)
    # delta is fine without coords
    assert np.array_equal(gram(KernelSpec("delta"), bare).values, np.eye(2))


def test_gram_examples():
    assert np.array_equal(
        gram(KernelSpec("delta", scale=2.0), FiniteSpace(["a", "b", "c"])).values,
        2.0 * np.eye(3),
    )
    lin = gram(KernelSpec("linear"), Y01)
    assert np.allclose(lin.values, [[0.0, 0.0], [0.0, 1.0]])
    gau = gram(KernelSpec("gaussian", sigma=1.0), Y01)
    assert np.allclose(np.diag(gau.values), 1.0)
    assert gau.values[0, 1] == pytest.approx(math.exp(-1.0))


def test_gram_matrix_rejects_non_psd():
    with pytest.raises(NotPSDError):
        GramMatrix(Y01, [[1.0, 2.0], [2.0, 1.0]])


@pytest.mark.filterwarnings("error")
def test_gram_overflow_is_rejected_silently():
    # the diagonal 1e308 doubles to inf in the symmetrization
    with pytest.raises(ValueError, match="not finite"):
        gram(KernelSpec("delta", scale=1e308), Y01)
    with pytest.raises(ValueError, match="not finite"):
        GramMatrix(Y01, [[1.0, math.inf], [math.inf, 1.0]])
    # -sigma * d overflows to -inf, whose exp is the exact 0
    far = gram(KernelSpec("gaussian", sigma=1e308), FiniteSpace([0, 1], coords=[[0.0], [2.0]]))
    assert np.array_equal(far.values, np.eye(2))


def test_kronecker_gram_psd_threshold_matches_dense():
    # each factor passes on its own; their product sits below -PSD_ATOL
    x = FiniteSpace(["a", "b"])
    left = GramMatrix(x, np.diag([100.0, 1.0]))
    right = GramMatrix(Y01, np.diag([1.0, -1e-10]))
    prod = ProductSpace(x, Y01)
    with pytest.raises(NotPSDError):
        GramMatrix(prod, np.kron(left.values, right.values))
    with pytest.raises(NotPSDError):
        KroneckerGram(prod, left, right)
    small = GramMatrix(x, np.diag([1.0, 1.0]))
    assert KroneckerGram(prod, small, right).min_eigenvalue == pytest.approx(-1e-10)


def test_psd_floor_scales_with_the_largest_entry():
    # a rank-2 linear Gram with entries near 5e300: eigvalsh's roundoff
    # puts its zero eigenvalues near -1e285, far below an absolute -1e-9
    x = FiniteSpace([0, 1, 2], coords=[[0.0], [1.0], [2.0]])
    g = gram(KernelSpec("linear", scale=1e300), ProductSpace(x, Y01))
    assert g.min_eigenvalue < -1e-9
    with pytest.raises(NotPSDError):
        GramMatrix(Y01, np.array([[0.0, 1.0], [1.0, 0.0]]) * 1e300)
    # entries at most 1 keep the absolute floor -PSD_ATOL
    GramMatrix(Y01, np.diag([1.0, -0.9e-9]))
    with pytest.raises(NotPSDError, match="below -1e-09"):
        GramMatrix(Y01, np.diag([1.0, -1.1e-9]))
    # a Kronecker Gram's largest entry is the product of its factors', and
    # it meets the floor of its dense matrix
    prod = ProductSpace(Y01, Y01)
    big = GramMatrix(Y01, np.diag([1e300, 1e300]))
    for tiny, accepted in ((-1e-16, True), (-1e-10, False)):
        small = GramMatrix(Y01, np.diag([1.0, tiny]))
        for build in (
            lambda: KroneckerGram(prod, big, small),
            lambda: GramMatrix(prod, np.kron(big.values, small.values)),
        ):
            if accepted:
                assert build().min_eigenvalue == pytest.approx(tiny * 1e300)
            else:
                with pytest.raises(NotPSDError):
                    build()


def test_psd_floor_accepts_a_rank_one_linear_gram():
    # c c' is PSD with rank 1; eigvalsh puts its zero eigenvalues near
    # -8.4e-7, just below size * eps * max_entry = 8.2e-7
    g = gram(KernelSpec("linear", scale=1e8), FiniteSpace(["a", "b", "c"], [[1.8], [2.9], [3.5]]))
    assert g.min_eigenvalue < -1e-9


def test_sq_norms_floor_is_relative_to_the_weights():
    # eigenvalue -5e-10 along (1, -1): d' G d / ||d||_1^2 = -2.5e-10 at every
    # size of d, so even a squared norm of -1e-21 is not roundoff
    g = GramMatrix(Y01, [[1.0, 1.0 + 5e-10], [1.0 + 5e-10, 1.0]])
    for t in (1e-6, 1.0, 1e6):
        with pytest.raises(NotPSDError):
            g.sq_norms(np.array([[t, -t]]))
    # on a rank-one linear Gram, c'd = 0 leaves only roundoff (-4.7e-10 here), read as 0
    lin = gram(KernelSpec("linear", scale=1e8), FiniteSpace([0, 1, 2], [[0.1], [0.8], [1.5]]))
    dg, q = lin.sq_norms(np.array([[0.5, -1.0, 0.5], [1.0, 0.0, 0.0]]))
    assert 0.0 <= q[0] < 1e-5 and q[1] == pytest.approx(1e6)
    assert np.array_equal(dg, np.array([[0.5, -1.0, 0.5], [1.0, 0.0, 0.0]]) @ lin.values)


@pytest.mark.parametrize(
    "q, want",
    [
        ([math.nan, -1e-30, 0.25], [math.nan, 0.0, 0.25]),
        ([-0.0, -0.0, 0.0], [-0.0, -0.0, 0.0]),  # no entry below 0: returned as it is
        ([-math.inf, 1.0, 1.0], None),
        ([0.1, -1.0, math.nan], None),  # a NaN after the bad entry does not hide it
    ],
)
def test_sq_norms_roundoff_rule_with_nan_zeros_and_inf(q, want):
    g = GramMatrix(FiniteSpace(["a", "b"]), [[1.0, 0.5], [0.5, 1.0]])
    d = np.array([[1.0, 0.0], [0.5, 0.5], [1.0, -1.0]])
    q = np.array(q)
    if want is None:
        with pytest.raises(NotPSDError, match="below -1.000e-12"):
            g._clamp_roundoff(q, d)
        return
    assert g._clamp_roundoff(q, d).tobytes() == np.array(want).tobytes()


def test_embed_inner_examples():
    d = gram(KernelSpec("delta"), Y01)
    mu = SignedMeasure(Y01, [0.3, 0.7])
    assert embed_inner(d, mu, mu) == pytest.approx(0.58, abs=1e-15)
    zero = SignedMeasure(Y01, [0.0, 0.0])
    assert embed_inner(d, mu, zero) == 0.0
    lin = gram(KernelSpec("linear"), Y01)
    assert embed_inner(lin, dirac(Y01, 0), dirac(Y01, 1)) == 0.0


def test_mmd_examples():
    lin = gram(KernelSpec("linear"), Y01)
    assert mmd(lin, dirac(Y01, 0), dirac(Y01, 1)) == pytest.approx(1.0, abs=1e-12)
    d = gram(KernelSpec("delta"), Y01)
    assert mmd(d, dirac(Y01, 0), dirac(Y01, 1)) == pytest.approx(math.sqrt(2.0))
    mu = ProbMeasure(Y01, [0.4, 0.6])
    assert mmd(d, mu, mu) == 0.0


def test_c_k_examples():
    assert c_k(KernelSpec("gaussian", sigma=3.0), Y01) == 1.0
    assert c_k(KernelSpec("delta"), FiniteSpace(["a"])) == 1.0
    three = FiniteSpace([0, 3], coords=[[0.0], [3.0]])
    assert c_k(KernelSpec("linear"), three) == 3.0


@pytest.mark.parametrize("dim", range(8, 13))
def test_linear_c_k_is_the_root_of_the_gram_diagonal(dim):
    # the linear K(y, y) is the Gram diagonal's entry to the bit, at dimensions where a
    # vectorized sum of squares rounds apart from the coordinate-by-coordinate one
    rng = np.random.default_rng(dim)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        space = FiniteSpace(list(range(n)), coords=rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-3, 4))
        for scale in (1.0, 0.37, 3e5):
            k = KernelSpec("linear", scale=scale)
            assert c_k(k, space) == math.sqrt(float(np.max(np.abs(gram(k, space).diag))))


def test_linear_c_k_overflows_to_inf_without_a_warning():
    assert c_k(KernelSpec("linear", scale=1e300), FiniteSpace(["a"], [[1e10]])) == math.inf


def test_embedding_injective_examples():
    assert embedding_injective(gram(KernelSpec("delta"), Y01))
    assert not embedding_injective(gram(KernelSpec("linear"), Y01))
    assert embedding_injective(gram(KernelSpec("gaussian", sigma=1.0), Y01))
    # the tolerance is relative to the largest |entry|, so scaling the kernel keeps the answer
    x = FiniteSpace(["a", "b", "c"], coords=[[0.0], [1.0], [2.0]])
    for scale in (1e-12, 1e12):
        assert embedding_injective(gram(KernelSpec("gaussian", sigma=1.0, scale=scale), x))
        assert not embedding_injective(gram(KernelSpec("linear", scale=scale), x))


VARIANTS = [
    KernelSpec("gaussian", sigma=0.7),
    KernelSpec("laplacian", sigma=1.3),
    KernelSpec("linear", scale=0.5),
    KernelSpec("delta", scale=2.0),
]


@settings(max_examples=40, deadline=None)
@given(coord_spaces(), st.sampled_from(VARIANTS))
def test_grams_symmetric_psd(space, spec):
    g = gram(spec, space)
    assert np.array_equal(g.values, g.values.T)
    assert g.min_eigenvalue >= -1e-9


@settings(max_examples=40, deadline=None)
@given(coord_spaces(max_points=5), st.sampled_from(VARIANTS))
def test_reproducing_identity(space, spec):
    g = gram(spec, space)
    for i, yi in enumerate(space.labels):
        for yj in space.labels[i:]:
            lhs = embed_inner(g, dirac(space, yi), dirac(space, yj))
            rhs = kernel_eval(spec, space.coords[space.index(yi)], space.coords[space.index(yj)])
            assert lhs == rhs


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_linear_gram_entry_is_kernel_eval_on_every_blas_build(dim):
    # BLAS's FMA kernels (OPENBLAS_CORETYPE=Haswell) round a multi-coordinate dot
    # product apart in an n x n and a 1 x 1 product; the sum is taken without BLAS
    spec = KernelSpec("linear", scale=0.5)
    rng = np.random.default_rng(dim)
    for _ in range(40):
        space = FiniteSpace(list(range(5)), coords=np.round(rng.uniform(-3, 3, (5, dim)), 4))
        g = gram(spec, space).values
        for i in range(5):
            for j in range(5):
                assert g[i, j] == kernel_eval(spec, space.coords[i], space.coords[j])


@settings(max_examples=40, deadline=None)
@given(
    coord_spaces(max_points=5),
    st.sampled_from(VARIANTS),
    st.data(),
)
def test_mmd_permutation_invariant(space, spec, data):
    n = space.size
    w1 = data.draw(st.lists(st.floats(0.01, 1, allow_nan=False), min_size=n, max_size=n))
    w2 = data.draw(st.lists(st.floats(0.01, 1, allow_nan=False), min_size=n, max_size=n))
    mu = ProbMeasure(space, np.array(w1) / sum(w1))
    nu = ProbMeasure(space, np.array(w2) / sum(w2))
    base = mmd(gram(spec, space), mu, nu)

    perm = data.draw(st.permutations(range(n)))
    perm = list(perm)
    relabeled = FiniteSpace(
        [space.labels[i] for i in perm], coords=space.coords[perm]
    )
    mu_p = ProbMeasure(relabeled, mu.weights[perm])
    nu_p = ProbMeasure(relabeled, nu.weights[perm])
    assert mmd(gram(spec, relabeled), mu_p, nu_p) == pytest.approx(base, abs=1e-10)


@settings(max_examples=50)
@given(
    st.lists(st.floats(-2, 2, allow_nan=False), min_size=4, max_size=4),
    st.lists(st.floats(-2, 2, allow_nan=False), min_size=4, max_size=4),
)
def test_delta_mmd_is_euclidean(w1, w2):
    sp = FiniteSpace(list("wxyz"))
    g = gram(KernelSpec("delta"), sp)
    mu, nu = SignedMeasure(sp, w1), SignedMeasure(sp, w2)
    assert mmd(g, mu, nu) == pytest.approx(
        float(np.linalg.norm(mu.weights - nu.weights)), abs=1e-9
    )


@settings(max_examples=40, deadline=None)
@given(coord_spaces(max_points=5), st.sampled_from(VARIANTS), st.data())
def test_c_k_bounds_prob_embeddings(space, spec, data):
    w = data.draw(
        st.lists(st.floats(0.01, 1, allow_nan=False), min_size=space.size, max_size=space.size)
    )
    mu = ProbMeasure(space, np.array(w) / sum(w))
    norm = math.sqrt(max(embed_inner(gram(spec, space), mu, mu), 0.0))
    assert norm <= c_k(spec, space) + 1e-9


def test_mmd_raises_on_truly_negative_radicand():
    # a symmetric indefinite matrix sneaks past no check here, so build
    # GramMatrix bypass via a nearly-PSD matrix and a difference vector
    # aligned with the negative eigenvalue
    vals = np.array([[1.0, 1.0 + 5e-10], [1.0 + 5e-10, 1.0]])
    g = GramMatrix(Y01, vals)  # min eigenvalue ~ -5e-10, inside tolerance
    mu = SignedMeasure(Y01, [5e3, -5e3])
    nu = SignedMeasure(Y01, [-5e3, 5e3])
    with pytest.raises(NotPSDError):
        mmd(g, mu, nu)


X3 = FiniteSpace(["p", "q", "r"], coords=[[0.0, 0.5], [1.0, -0.3], [0.4, 1.2]])
Y4 = FiniteSpace(list("stuv"), coords=[[0.0], [0.6], [1.1], [2.0]])
PRODUCT_VARIANTS = [
    KernelSpec("gaussian", sigma=0.7),
    KernelSpec("laplacian", sigma=1.3),
    KernelSpec("delta"),
    KernelSpec("gaussian", sigma=0.7, scale=2.0),
    KernelSpec("laplacian", sigma=1.3, scale=2.0),
    KernelSpec("delta", scale=2.0),
]


def _dense_product_gram(spec: KernelSpec, prod: ProductSpace) -> GramMatrix:
    """The product Gram built from the concatenated coordinates, entry by entry."""
    c = prod.coords
    if spec.variant == "delta":
        g = spec.scale * np.eye(prod.size)
    elif spec.variant == "gaussian":
        g = spec.scale * np.exp(-spec.sigma * cdist(c, c, "sqeuclidean"))
    else:
        g = spec.scale * np.exp(-spec.sigma * cdist(c, c, "cityblock"))
    return GramMatrix(prod, g)


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
@pytest.mark.parametrize("variant, metric", [("gaussian", "sqeuclidean"), ("laplacian", "cityblock")])
def test_gram_equals_cdist_bit_for_bit(variant, metric, dim):
    # the distances are summed a coordinate at a time, in order, as cdist sums them
    rng = np.random.default_rng(dim)
    spec = KernelSpec(variant, sigma=0.9, scale=1.5)
    for n in (1, 7, 40):
        c = rng.standard_normal((n, dim)) * rng.choice([1e-3, 1.0, 30.0], size=dim)
        expected = spec.scale * np.exp(-spec.sigma * cdist(c, c, metric))
        assert np.array_equal(gram(spec, FiniteSpace(list(range(n)), coords=c)).values, expected)
        assert kernel_eval(spec, c[0], c[-1]) == expected[0, -1]


@pytest.mark.parametrize("spec", PRODUCT_VARIANTS, ids=repr)
def test_product_gram_factored_matches_dense(spec):
    prod = ProductSpace(X3, Y4)
    g = gram(spec, prod)
    dense = _dense_product_gram(spec, prod)
    # sq_norms reads the factors alone and agrees with the dense product
    d = np.random.default_rng(11).standard_normal((6, prod.size))
    (dg, q), (dense_dg, dense_q) = g.sq_norms(d), dense.sq_norms(d)
    diag = g.diag
    assert "values" not in vars(g) and not diag.flags.writeable
    assert np.max(np.abs(dg - dense_dg)) <= 1e-12 * np.max(np.abs(dense_dg))
    assert np.all(q > 0) and np.allclose(q, dense_q, rtol=1e-12, atol=0)
    assert isinstance(g, KroneckerGram)
    assert np.max(np.abs(g.values - dense.values)) <= 1e-15
    assert diag.tobytes() == np.diag(g.values).tobytes()  # kron of the factors' diagonals
    assert not g.values.flags.writeable
    assert g.min_eigenvalue == pytest.approx(float(eigvalsh(dense.values)[0]), abs=1e-12)
    rng = np.random.default_rng(3)
    for _ in range(5):
        mu = SignedMeasure(prod, rng.standard_normal(prod.size))
        p = ProbMeasure(prod, rng.dirichlet(np.ones(prod.size)))
        q = ProbMeasure(prod, rng.dirichlet(np.ones(prod.size)))
        assert embed_inner(g, mu, p) == pytest.approx(embed_inner(dense, mu, p), abs=1e-12)
        assert mmd(g, p, q) == pytest.approx(mmd(dense, p, q), abs=1e-12)
        r = rng.dirichlet(np.ones(Y4.size), size=X3.size)
        assert np.allclose(g.apply(mu.weights), dense.apply(mu.weights), rtol=0, atol=1e-12)
        assert np.allclose(g.apply(r), dense.apply(r), rtol=0, atol=1e-12)
        # a stack of graph rows, as the operator norm applies the product Gram to them
        rows = np.zeros((X3.size, prod.size))
        rows.reshape(X3.size**2, Y4.size)[:: X3.size + 1] = r
        assert np.allclose(g.apply(rows), dense.apply(rows), rtol=0, atol=1e-12)
        assert np.allclose(rows @ g.apply(rows).T, pair_form(dense, r), rtol=0, atol=1e-12)


def test_linear_product_gram_stays_dense():
    g = gram(KernelSpec("linear"), ProductSpace(X3, Y4))
    assert type(g) is GramMatrix
    # <(x, y), (x', y')> = <x, x'> + <y, y'>: a sum, not a Kronecker product
    gx, gy = gram(KernelSpec("linear"), X3).values, gram(KernelSpec("linear"), Y4).values
    expected = np.kron(gx, np.ones((4, 4))) + np.kron(np.ones((3, 3)), gy)
    assert np.allclose(g.values, expected, rtol=0, atol=1e-12)
    assert g.diag.tobytes() == np.diag(g.values).tobytes() and not g.diag.flags.writeable


def _graph_block_oracle(g, r):
    """(b, q) from the dense diagonal blocks: b[i] = B_i r[i], q[i] = r[i]' B_i r[i]."""
    nx, ny = r.shape
    blocks = [g.values[i * ny : (i + 1) * ny, i * ny : (i + 1) * ny] for i in range(nx)]
    b = np.stack([blocks[i] @ r[i] for i in range(nx)])
    return b, np.einsum("iy,iy->i", b, r)


def _spec_graph_sq_norms(g_xy, r):
    """(b, q) as a sup-only W spec on g_xy reads them: b[i] = B_i r[i], q[i] = r[i]' B_i r[i].

    The spec's label Gram is 0, so sup piece i is the norm of graph row i
    alone: W on r with every row but row i set to 0 is q[i], and where
    q[i] > 0 row i of its gradient is 2 b[i].
    """
    xs, ys = g_xy.points.left, g_xy.points.right
    zero = GramMatrix(ys, np.zeros((ys.size, ys.size)))
    w = WFunctionalSpec(g_xy, zero, GramMatrix(xs, np.eye(xs.size)), include_lipschitz=False)
    assert w._blocks is not None
    b, q = np.zeros_like(r), np.zeros(len(r))
    for i in range(len(r)):
        only = np.zeros_like(r)
        only[i] = r[i]
        q[i], grad = w._value_grad(only)
        b[i] = grad[i] / 2.0
    return b, q


@pytest.mark.parametrize("spec", PRODUCT_VARIANTS + [KernelSpec("linear", scale=0.5)], ids=repr)
@pytest.mark.parametrize("shape", [(3, 4), (64, 16)], ids=["3x4", "64x16"])
def test_graph_sq_norms_are_the_diagonal_of_the_pair_form(spec, shape):
    nx, ny = shape
    rng = np.random.default_rng(nx)
    xs = FiniteSpace(list(range(nx)), coords=rng.uniform(0.0, 3.0, (nx, 2)))
    ys = FiniteSpace(list(range(ny)), coords=np.linspace(0.0, 2.0, ny)[:, None])
    g = gram(spec, ProductSpace(xs, ys))
    r = rng.dirichlet(np.ones(ny), size=nx)
    assert isinstance(g, KroneckerGram) == (spec.variant != "linear")
    dense = GramMatrix(g.points, g.values)
    b, q = _spec_graph_sq_norms(dense, r)
    b_oracle, q_oracle = _graph_block_oracle(dense, r)
    i = nx // 2
    u = np.eye(1, nx, i).T
    assert np.allclose(q, pair_form(dense, r).diagonal(), rtol=1e-12, atol=0)
    assert np.allclose(q, q_oracle, rtol=1e-12, atol=0)
    assert np.max(np.abs(b - b_oracle)) <= 1e-12 * np.max(np.abs(b_oracle))
    # b[i] is the only nonzero row of G applied to graph row i
    step = (u * dense.apply(u * r))[i]
    assert np.max(np.abs(step - b[i])) <= 1e-12 * np.max(np.abs(step))


def test_graph_sq_norms_follow_the_roundoff_rule_of_sq_norms():
    # eigenvalue -5e-10 along (1, -1) on {a} x Y01: not roundoff
    one = FiniteSpace(["a"])
    right = GramMatrix(Y01, [[1.0, 1.0 + 5e-10], [1.0 + 5e-10, 1.0]])
    factored = KroneckerGram(ProductSpace(one, Y01), GramMatrix(one, [[1.0]]), right)
    dense = GramMatrix(factored.points, factored.values)
    for t in (1e-6, 1.0, 1e6):
        with pytest.raises(NotPSDError):
            _spec_graph_sq_norms(dense, np.array([[t, -t]]))
    # on a rank-one linear Gram, c'r = 0 leaves only roundoff, read as 0
    xs = FiniteSpace(["a", "b"], coords=[[0.0], [0.0]])
    ys = FiniteSpace([0, 1, 2], coords=[[0.1], [0.8], [1.5]])
    lin = gram(KernelSpec("linear", scale=1e8), ProductSpace(xs, ys))
    _, q = _spec_graph_sq_norms(lin, np.array([[0.5, -1.0, 0.5], [1.0, 0.0, 0.0]]))
    assert 0.0 <= q[0] < 1e-5 and q[1] == pytest.approx(1e6)


@pytest.mark.parametrize("scale", [1.0, 2.0, 1.7])
@pytest.mark.parametrize("base", PRODUCT_VARIANTS[:3], ids=repr)
@pytest.mark.parametrize("shape", [(3, 4), (64, 16)], ids=["3x4", "64x16"])
def test_factored_sup_pieces_match_the_graph_blocks(base, scale, shape):
    # sup piece i is ||r_i||_{G_Y} + ||r_i||_{B_i}; on a from_kernel spec B_i = left[i, i] G_Y,
    # and the spec reads both norms off the one gram_y product
    nx, ny = shape
    rng = np.random.default_rng(nx)
    xs = FiniteSpace(list(range(nx)), coords=rng.uniform(0.0, 3.0, (nx, 2)))
    ys = FiniteSpace(list(range(ny)), coords=np.linspace(0.0, 2.0, ny)[:, None])
    spec = WFunctionalSpec.from_kernel(replace(base, scale=scale), xs, ys, include_lipschitz=False)
    assert spec._blocks is None
    rows = rng.dirichlet(np.ones(ny), size=nx)
    b, qg = _graph_block_oracle(spec.gram_xy, rows)
    ry = rows @ spec.gram_y.values
    ny_norm, ng_norm = np.sqrt(np.einsum("iy,iy->i", ry, rows)), np.sqrt(qg)
    phi = ny_norm + ng_norm
    grads = ry / ny_norm[:, None] + b / ng_norm[:, None]
    _, q = spec.gram_y.sq_norms(rows)
    assert np.allclose(np.sqrt(q) / spec._divisors, phi, rtol=1e-12, atol=0)
    value, grad = spec._value_grad(rows)
    i = int(phi.argmax())
    assert value == pytest.approx(phi[i] ** 2, rel=1e-12, abs=0)
    expect = np.zeros_like(rows)
    expect[i] = 2.0 * phi[i] * grads[i]
    assert np.max(np.abs(grad - expect)) <= 1e-12 * np.max(np.abs(expect))


# every refusal of the module that no test above reaches: (call, exception type, message fragment)
KERNELS_REFUSALS = {
    "gram-shape": (lambda: GramMatrix(Y01, np.eye(3)), ValueError, "Gram matrix shape (3, 3) for 2 points"),
    "kronecker-factors-swapped": (
        lambda: KroneckerGram(ProductSpace(X3, Y4), gram(KernelSpec("delta"), Y4), gram(KernelSpec("delta"), X3)),
        SpaceMismatchError, "the factors do not live on the product's factors",
    ),
    "embed-inner-other-space": (
        lambda: embed_inner(gram(KernelSpec("delta"), Y01), dirac(Y4, "s"), dirac(Y4, "s")),
        SpaceMismatchError, "measures do not live on the Gram matrix's space",
    ),
    "mmd-other-space": (
        lambda: mmd(gram(KernelSpec("delta"), Y01), dirac(Y01, 0), dirac(Y4, "s")),
        SpaceMismatchError, "measures do not live on the Gram matrix's space",
    ),
    "eval-nan-point": (
        lambda: kernel_eval(KernelSpec("gaussian", sigma=1.0), [math.nan], [0.0]),
        ValueError, "a raw point must be a nonempty finite vector, got [nan]",
    ),
    "eval-inf-point-under-delta": (
        lambda: kernel_eval(KernelSpec("delta"), [0.0], [math.inf]),
        ValueError, "a raw point must be a nonempty finite vector, got [inf]",
    ),
    "eval-empty-points": (
        lambda: kernel_eval(KernelSpec("gaussian", sigma=1.0), [], []),
        ValueError, "a raw point must be a nonempty finite vector, got []",
    ),
    "eval-gaussian-dimensions": (
        lambda: kernel_eval(KernelSpec("gaussian", sigma=1.0), [0.0], [1.0, 2.0]),
        ValueError, "the points have dimensions 1 and 2",
    ),
    "eval-linear-dimensions": (
        lambda: kernel_eval(KernelSpec("linear"), [0.0, 1.0, 2.0], [1.0, 2.0]),
        ValueError, "the points have dimensions 3 and 2",
    ),
    "eval-label-dimensions": (
        lambda: kernel_eval(KernelSpec("laplacian", sigma=1.0), 0, [0.0, 0.0], Y01),
        ValueError, "the points have dimensions 1 and 2",
    ),
}


@pytest.mark.parametrize("case", KERNELS_REFUSALS.values(), ids=list(KERNELS_REFUSALS))
def test_kernels_refusals(case):
    call, exc, fragment = case
    with pytest.raises(exc) as info:
        call()
    assert info.type is exc and fragment in str(info.value)
