"""np.dot and @ give the same bits on the library's small products.

compose, pushforward, pullback, the dense GramMatrix.apply and
GramMatrix.sq_norms form their products with np.dot, which skips the
matmul gufunc's dispatch. Both reach the same BLAS gemm and gemv
routines, so each result must equal the @ product fed through the same
constructor, bit for bit, on every BLAS kernel set CI runs. A kernel set
that rounds the two routes apart fails here, not as a moved digest.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probmorph.kernels import GramMatrix, KernelSpec, gram
from probmorph.morphisms import MarkovKernel, SignedKernel, compose, pullback, pushforward
from probmorph.spaces import FiniteSpace, ProbMeasure, SignedMeasure

SEEDS = st.integers(0, 2**32 - 1)


def _space(name, n, rng):
    return FiniteSpace([f"{name}{i}" for i in range(n)], coords=rng.uniform(0.0, 3.0, (n, 1)))


def _gram(space, rng):
    """A gaussian Gram at a random sigma, or the Gram A A' of a random factor."""
    if rng.random() < 0.5:
        return gram(KernelSpec("gaussian", sigma=float(rng.uniform(0.1, 3.0))), space)
    a = rng.standard_normal((space.size, space.size))
    return GramMatrix(space, a @ a.T)


def _gram_pairs(g, w, d):
    """(library, @ reference) pairs for the dense apply on a flat w and a stack d, and sq_norms(d)."""
    dg = d @ g.values
    dg_lib, q_lib = g.sq_norms(d)
    return [
        (g.apply(w), (w.reshape(-1, g.size) @ g.values).reshape(w.shape)),
        (g.apply(d), dg),
        (dg_lib, dg),
        (q_lib, g._clamp_roundoff(np.vecdot(dg, d), d)),
    ]


def _calculus_pairs(rng, xs, ys, zs):
    """(library, @ reference) pairs for compose, pushforward and pullback on random operands."""
    n, k, m = xs.size, ys.size, zs.size
    t1 = MarkovKernel(xs, ys, rng.dirichlet(np.ones(k), n))
    t2 = MarkovKernel(ys, zs, rng.dirichlet(np.ones(m), k))
    s1 = SignedKernel(xs, ys, rng.standard_normal((n, k)))
    s2 = SignedKernel(ys, zs, rng.standard_normal((k, m)))
    mu = ProbMeasure(xs, rng.dirichlet(np.ones(n)))
    nu = SignedMeasure(xs, rng.standard_normal(n))
    f = rng.standard_normal(k)
    a, b, sa, sb = t1.matrix, t2.matrix, s1.matrix, s2.matrix
    return [
        (compose(t2, t1).matrix, MarkovKernel._derived(xs, zs, a @ b).matrix),
        (compose(s2, s1).matrix, SignedKernel(xs, zs, sa @ sb).matrix),
        (compose(t2, s1).matrix, SignedKernel(xs, zs, sa @ b).matrix),
        (pushforward(t1, mu).weights, ProbMeasure._derived(ys, mu.weights @ a).weights),
        (pushforward(s1, nu).weights, SignedMeasure(ys, nu.weights @ sa).weights),
        (pullback(t1, f), a @ f),
        (pullback(s1, f), sa @ f),
    ]


def _assert_same_bits(pairs):
    for i, (got, want) in enumerate(pairs):
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), f"pair {i}"


@settings(max_examples=300, deadline=None)
@given(SEEDS, st.integers(1, 7), st.integers(1, 7), st.integers(1, 7))
def test_small_products_equal_the_matmul_products_bit_for_bit(seed, n, k, m):
    rng = np.random.default_rng(seed)
    xs, ys, zs = (_space(t, s, rng) for t, s in zip("xyz", (n, k, m)))
    g = _gram(ys, rng)
    pairs = _calculus_pairs(rng, xs, ys, zs)
    pairs += _gram_pairs(g, rng.standard_normal(k), rng.standard_normal((n, k)))
    _assert_same_bits(pairs)


# (stack rows, side): the fidelity's flat 6 x 4 grid, fit-small's W stack of 6 sup rows
# and 5 Lipschitz pairs over a 4-point label Gram, fit-large's of 64 + 63 over 16 points
FIT_SHAPES = {"fidelity-1x24": (1, 24), "w-stack-11x4": (11, 4), "w-stack-127x16": (127, 16)}


@pytest.mark.parametrize("rows, side", FIT_SHAPES.values(), ids=list(FIT_SHAPES))
@settings(max_examples=60, deadline=None)
@given(seed=SEEDS)
def test_fit_shaped_products_equal_the_matmul_products_bit_for_bit(rows, side, seed):
    rng = np.random.default_rng(seed)
    xs, ys = _space("x", rows, rng), _space("y", side, rng)
    g = _gram(ys, rng)
    pairs = _calculus_pairs(rng, xs, ys, ys)
    pairs += _gram_pairs(g, rng.standard_normal(side), rng.standard_normal((rows, side)))
    _assert_same_bits(pairs)
