"""Markov kernels and signed kernels on finite spaces.

A MarkovKernel from X to Y assigns each point of X a probability
measure on Y; on finite spaces that is a row-stochastic matrix. The
SignedKernel relaxation allows arbitrary finite signed rows.

The calculus implemented here: pushforward of measures, pullback of
functions, composition, joints, graphs, graph pushforwards, and the
disintegration of a joint probability measure into its marginal and a
conditional kernel (the unique kernel, up to marginal-null rows, whose
graph pushforward reproduces the joint). The embedded operator norm
measures how much a kernel's graph pushforward can stretch differences
of probability measures between two embedding geometries.
"""
from __future__ import annotations

import math

import numpy as np

from ._tol import INVARIANT_ATOL
from .kernels import GramMatrix
from .spaces import (
    FiniteSpace,
    ProbMeasure,
    ProductSpace,
    SignedMeasure,
    SpaceMismatchError,
)


class SignedKernel:
    """A kernel with one finite signed measure on `target` per source point."""

    markov = False

    def __init__(self, source: FiniteSpace, target: FiniteSpace, rows):
        m = np.array(rows, dtype=float, order="C")
        if m.shape != (source.size, target.size) or not np.isfinite(m).all():
            raise ValueError(_rows_error(source, target, m, markov=False))
        m.flags.writeable = False
        self.source = source
        self.target = target
        self.matrix = m

    def row(self, x) -> SignedMeasure:
        return SignedMeasure(self.target, self.matrix[self.source.index(x)])

    def __add__(self, other: "SignedKernel") -> "SignedKernel":
        if self.source != other.source or self.target != other.target:
            raise SpaceMismatchError("kernel sum needs matching source and target")
        return SignedKernel(self.source, self.target, self.matrix + other.matrix)

    def __mul__(self, scalar: float) -> "SignedKernel":
        return SignedKernel(self.source, self.target, self.matrix * float(scalar))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        kind = "MarkovKernel" if self.markov else "SignedKernel"
        return f"{kind}({self.source.size} -> {self.target.size})"


class MarkovKernel(SignedKernel):
    """A row-stochastic kernel: nonnegative rows, each summing to 1.

    Row sums may deviate from 1 by at most 1e-12; tiny negative dust
    above -1e-12 is clamped to zero. Larger violations are rejected. A
    row off 1 by more than b = INVARIANT_ATOL / 8 is divided by its sum;
    nearer rows keep their bits. A row of compose or joint then sums
    within about 2b of 1, so any b up to about INVARIANT_ATOL / 2 keeps
    products of kernels kernels.
    """

    markov = True

    def __init__(self, source: FiniteSpace, target: FiniteSpace, rows):
        m = np.array(rows, dtype=float, order="C")
        # NaN and -inf fail the bound on the minimum, +inf the bound on its row's sum.
        # The reductions are called on the ufuncs, skipping the ndarray method wrappers.
        shape_ok = m.shape == (source.size, target.size)
        if shape_ok and (lo := np.minimum.reduce(m, axis=None)) >= -INVARIANT_ATOL:
            if lo <= 0.0:
                np.maximum(m, 0.0, out=m)  # also turns -0.0 into +0.0
            # a row with an entry above 2 fails the sum bound capped or not; capped,
            # no row sum overflows, so the check emits no warning
            sums = np.add.reduce(np.minimum(m, 2.0), axis=1)
            # the worst |sum - 1|, in Python: s - 1 rounds monotonically in s, so the
            # largest sum and the least give it exactly
            s = sums.tolist()
            if (worst := max(max(s) - 1.0, 1.0 - min(s))) <= INVARIANT_ATOL:
                if worst > INVARIANT_ATOL / 8:
                    far = np.abs(sums - 1.0) > INVARIANT_ATOL / 8
                    m[far] /= sums[far, None]
                m.flags.writeable = False
                self.source = source
                self.target = target
                self.matrix = m
                return
        raise ValueError(_rows_error(source, target, m, markov=True))

    def row(self, x) -> ProbMeasure:
        return ProbMeasure(self.target, self.matrix[self.source.index(x)])


def _rows_error(source: FiniteSpace, target: FiniteSpace, m: np.ndarray, markov: bool) -> str:
    """Why m is not the row matrix of a (Markov) kernel from source to target.

    The rules run in the order of their precedence: shape, finite,
    then for a Markov kernel negative and row sum (of the clamped rows).
    """
    if m.shape != (source.size, target.size):
        return f"row matrix shape {m.shape}, expected {(source.size, target.size)}"
    if not np.isfinite(m).all():
        return "kernel rows must be finite"
    if markov and m.min() < -INVARIANT_ATOL:
        return f"negative entry {float(m.min()):.3e} in a Markov kernel row"
    with np.errstate(over="ignore"):  # a row sum may overflow to inf
        sums = np.maximum(m, 0.0).sum(axis=1)
    i = int(np.argmax(np.abs(sums - 1.0)))
    return f"row-stochasticity: row at {source.labels[i]!r} sums to {float(sums[i])!r}, not 1"


def deterministic(source: FiniteSpace, target: FiniteSpace, mapping) -> MarkovKernel:
    """The kernel of a point map: row x is the Dirac at mapping(x)."""
    get = mapping.__getitem__ if isinstance(mapping, dict) else mapping
    m = np.zeros((source.size, target.size))
    for i, x in enumerate(source.labels):
        y = get(x)
        if y not in target:
            raise KeyError(f"map sends {x!r} to {y!r}, which is not in the target")
        m[i, target.index(y)] = 1.0
    return MarkovKernel(source, target, m)


def identity_kernel(space: FiniteSpace) -> MarkovKernel:
    return MarkovKernel(space, space, np.eye(space.size))


def projection_kernel(space: ProductSpace, axis: str) -> MarkovKernel:
    """The deterministic projection of a product space onto one factor.

    Built in closed form: row (a, b) of the row-major product is the
    Dirac at a (left) or at b (right), the matrix deterministic builds.
    """
    n, m = space.left.size, space.right.size
    if axis == "left":
        return MarkovKernel(space, space.left, np.repeat(np.eye(n), m, 0))
    if axis == "right":
        return MarkovKernel(space, space.right, np.tile(np.eye(m), (n, 1)))
    raise ValueError(f"axis must be 'left' or 'right', got {axis!r}")


def _wrap(source, target, matrix, markov: bool):
    return (MarkovKernel if markov else SignedKernel)(source, target, matrix)


def pushforward(T: SignedKernel, mu: SignedMeasure) -> SignedMeasure:
    """The image measure: nu(y) = sum_x mu(x) T(y|x).

    Linear in mu; for a Markov kernel and a probability input the
    result is again a probability measure with the same total mass.
    """
    if mu.space != T.source:
        raise SpaceMismatchError("measure does not live on the kernel's source")
    w = mu.weights @ T.matrix
    if T.markov and isinstance(mu, ProbMeasure):
        return ProbMeasure(T.target, w)
    return SignedMeasure(T.target, w)


def pullback(T: SignedKernel, f) -> np.ndarray:
    """Average a function on the target along each row: (T*f)(x) = sum_y T(y|x) f(y)."""
    v = np.asarray(f, dtype=float).reshape(-1)
    if v.shape[0] != T.target.size:
        raise ValueError(f"{v.shape[0]} function values for {T.target.size} points")
    return T.matrix @ v


def compose(T2: SignedKernel, T1: SignedKernel) -> SignedKernel:
    """(T2 after T1): row x is the pushforward of T1's row x through T2."""
    if T1.target != T2.source:
        raise SpaceMismatchError("inner target and outer source do not match")
    return _wrap(T1.source, T2.target, T1.matrix @ T2.matrix, T1.markov and T2.markov)


def joint(T1: SignedKernel, T2: SignedKernel) -> SignedKernel:
    """Rowwise product kernel into the product target.

    Row x of the result is the product measure of T1's and T2's rows
    at x, laid out row-major over (target1, target2).
    """
    if T1.source != T2.source:
        raise SpaceMismatchError("joint needs a shared source")
    target = ProductSpace(T1.target, T2.target)
    m = np.einsum("xi,xj->xij", T1.matrix, T2.matrix).reshape(
        T1.source.size, target.size
    )
    return _wrap(T1.source, target, m, T1.markov and T2.markov)


def graph(T: SignedKernel) -> SignedKernel:
    """The joint of the identity with T: row x is delta_x (x) T-row x.

    Built in closed form: T's rows, as 0 + T(y|x), on the diagonal
    blocks of a zero (|X|, |X||Y|) matrix. That is the joint with the
    identity bit for bit, since its products accumulate onto zero
    (which also reads a -0.0 of a signed row as +0.0).
    """
    n, m = T.matrix.shape
    blocks = np.zeros((n, n, m))
    diag = np.arange(n)
    blocks[diag, diag] = T.matrix + 0.0
    target = ProductSpace(T.source, T.target)
    return _wrap(T.source, target, blocks.reshape(n, n * m), T.markov)


def graph_pushforward(T: SignedKernel, mu_x: SignedMeasure) -> SignedMeasure:
    """The joint measure with weight(x, y) = mu_x(x) T(y|x).

    For a Markov kernel its left marginal is mu_x itself.
    """
    if mu_x.space != T.source:
        raise SpaceMismatchError("measure does not live on the kernel's source")
    space = ProductSpace(T.source, T.target)
    w = (mu_x.weights[:, None] * T.matrix).reshape(-1)
    if T.markov and isinstance(mu_x, ProbMeasure):
        return ProbMeasure(space, w)
    return SignedMeasure(space, w)


def disintegrate(mu: ProbMeasure, zero_row_policy: str = "uniform"):
    """Factor a joint probability measure into (marginal, conditional).

    Returns (mu_x, cond) with mu_x the left marginal and
    cond(y|x) = mu(x, y) / mu_x(x) wherever mu_x(x) > 0. Points with
    zero marginal mass get a uniform row under the default policy or
    raise under policy "error"; any choice there leaves the defining
    identity graph_pushforward(cond, mu_x) = mu intact.
    """
    if zero_row_policy not in ("uniform", "error"):
        raise ValueError(f"unknown zero_row_policy {zero_row_policy!r}")
    space = mu.space
    if not isinstance(space, ProductSpace) or not isinstance(mu, ProbMeasure):
        raise SpaceMismatchError("disintegrate needs a ProbMeasure on a ProductSpace")
    rows, mass = _conditional_rows(mu.weights.reshape(space.left.size, space.right.size))
    if zero_row_policy == "error" and (dead := np.flatnonzero(mass <= 0.0)).size:
        labels = [space.left.labels[i] for i in dead]
        raise ValueError(f"marginal mass is zero at {labels!r}")
    return ProbMeasure(space.left, mass), MarkovKernel(space.left, space.right, rows)


def _conditional_rows(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of a nonnegative (|X|, |Y|) array divided by their sums, and the sums.

    Rows that sum to zero become uniform. w may hold joint weights or
    pair counts; either way the rows are the conditional kernel and the
    sums the unnormalized left marginal.
    """
    mass = w.sum(axis=1)
    alive = mass > 0.0
    # a dead row is divided by 1, then overwritten: a live row is divided by its own sum
    rows = w / np.where(alive, mass, 1.0)[:, None]
    rows[~alive] = 1.0 / w.shape[1]
    return rows, mass


def sup_tv_norm(T: SignedKernel) -> float:
    """The largest total variation norm among the rows; 1 for Markov kernels."""
    return float(np.max(np.abs(T.matrix).sum(axis=1))) if T.source.size else 0.0


class SingularGramError(ValueError):
    """Raised when a source Gram matrix is singular or ill-conditioned on sum-zero weights."""


# the whitened eigen-solve loses about eps * kappa relatively: 2e-10 at this bound
_MAX_CONDITION = 1e6


def _sum_zero_pencil(g_x: GramMatrix) -> np.ndarray:
    """A sum-zero basis w whitened by g_x: 1' w = 0 and w' g_x w = I.

    One symmetric eigen-solve of g_x on an orthonormal sum-zero basis
    gives both the whitening and its accuracy test. Whitening loses
    about eps * kappa relatively (Golub & Van Loan, Matrix Computations,
    section 8.7), with kappa the largest eigenvalue of g_x over its least
    eigenvalue on sum-zero weights; a g_x with kappa above _MAX_CONDITION
    is refused, and so is one whose least sum-zero eigenvalue is not
    positive. kappa does not change when g_x is scaled. Whitened, the
    operator-norm pencil is a standard symmetric eigenproblem.
    """
    n = g_x.size
    q, _ = np.linalg.qr(np.column_stack([np.ones(n), np.eye(n)[:, : n - 1]]))
    b = q[:, 1:]  # orthonormal, orthogonal to the ones vector
    c = b.T @ g_x.values @ b
    lam, v = np.linalg.eigh((c + c.T) / 2.0)
    least = float(lam[0])
    if least * _MAX_CONDITION <= g_x.max_eigenvalue:  # also rejects least <= 0
        kappa = g_x.max_eigenvalue / least if least > 0.0 else math.inf
        raise SingularGramError(
            f"source Gram matrix has condition number kappa = {kappa:.3g} on sum-zero "
            f"weights, above {_MAX_CONDITION:.0e}"
        )
    return b @ (v / np.sqrt(lam))


def _top_eigenvalue(m: np.ndarray, w: np.ndarray) -> float:
    """The top eigenvalue of w' m w.

    With w from _sum_zero_pencil(g_x) this is the top generalized
    eigenvalue of m against g_x on sum-zero weights. A failed eigh
    raises LinAlgError.
    """
    a = w.T @ m @ w
    # eigh, not eigvalsh: LAPACK's path without eigenvectors may round the top differently
    vals, _ = np.linalg.eigh((a + a.T) / 2.0)
    return float(vals[-1])


def embedded_operator_norm(T: MarkovKernel, gX: GramMatrix, gXY: GramMatrix) -> float:
    """How much the graph pushforward stretches differences of probabilities.

    sup over distinct probability measures A, B on the source of
    ||graph_pushforward(T, A - B)||_gXY / ||A - B||_gX. Differences of
    probability measures are exactly the sum-zero weight vectors and
    the quotient is scale invariant, so the value is the square root of
    the top generalized eigenvalue of the two induced quadratic forms
    on that subspace. gX must be well-conditioned there (see
    _sum_zero_pencil), or SingularGramError is raised.
    """
    if gX.points != T.source:
        raise SpaceMismatchError("gX must live on the kernel's source")
    if gXY.points != ProductSpace(T.source, T.target):
        raise SpaceMismatchError("gXY must live on the source x target product")
    if T.source.size == 1:
        return 0.0
    top = _top_eigenvalue(gXY.pair_form(T.matrix), _sum_zero_pencil(gX))
    return math.sqrt(max(top, 0.0))
