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
        m = np.asarray(rows, dtype=float)
        if m.shape != (source.size, target.size):
            raise ValueError(
                f"row matrix shape {m.shape}, expected {(source.size, target.size)}"
            )
        if not np.all(np.isfinite(m)):
            raise ValueError("kernel rows must be finite")
        m = m.copy()
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
    above -1e-12 is clamped to zero. Larger violations are rejected.
    """

    markov = True

    def __init__(self, source: FiniteSpace, target: FiniteSpace, rows):
        m = np.asarray(rows, dtype=float)
        if m.shape == (source.size, target.size) and np.all(np.isfinite(m)):
            if np.any(m < -INVARIANT_ATOL):
                bad = float(m.min())
                raise ValueError(f"negative entry {bad:.3e} in a Markov kernel row")
            m = np.clip(m, 0.0, None)
            sums = m.sum(axis=1)
            off = np.abs(sums - 1.0)
            if np.any(off > INVARIANT_ATOL):
                i = int(np.argmax(off))
                raise ValueError(
                    f"row-stochasticity: row at {source.labels[i]!r} "
                    f"sums to {sums[i]!r}, not 1"
                )
        super().__init__(source, target, m)

    def row(self, x) -> ProbMeasure:
        return ProbMeasure(self.target, self.matrix[self.source.index(x)])


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
    """The deterministic projection of a product space onto one factor."""
    if axis == "left":
        return deterministic(space, space.left, lambda p: p[0])
    if axis == "right":
        return deterministic(space, space.right, lambda p: p[1])
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
    """The joint of the identity with T: row x is delta_x (x) T-row x."""
    return joint(identity_kernel(T.source), T)


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
    w = mu.weights.reshape(space.left.size, space.right.size)
    mass = w.sum(axis=1)
    dead = np.flatnonzero(mass <= 0.0)
    if zero_row_policy == "error" and dead.size:
        labels = [space.left.labels[i] for i in dead]
        raise ValueError(f"marginal mass is zero at {labels!r}")
    return ProbMeasure(space.left, mass), MarkovKernel(space.left, space.right, _conditional_rows(w))


def _conditional_rows(w: np.ndarray) -> np.ndarray:
    """The rows of a nonnegative (|X|, |Y|) array divided by their sums.

    Rows that sum to zero become uniform. w may hold joint weights or
    pair counts; either way the result is the conditional kernel.
    """
    mass = w.sum(axis=1)
    rows = np.full(w.shape, 1.0 / w.shape[1])
    alive = mass > 0.0
    rows[alive] = w[alive] / mass[alive, None]
    return rows


def sup_tv_norm(T: SignedKernel) -> float:
    """The largest total variation norm among the rows; 1 for Markov kernels."""
    return float(np.max(np.abs(T.matrix).sum(axis=1))) if T.source.size else 0.0


class SingularGramError(ValueError):
    """Raised when a source Gram matrix is singular on the sum-zero subspace."""


def _sum_zero_pencil(g_x: np.ndarray) -> np.ndarray:
    """A sum-zero basis w whitened by g_x: 1' w = 0 and w' g_x w = I.

    One symmetric eigen-solve of g_x on an orthonormal sum-zero basis
    gives both the whitening and the singularity test: a least
    eigenvalue there of at most 1e-9 times the largest |entry| of g_x
    is rejected. Whitened, the operator-norm pencil is a standard
    symmetric eigenproblem.
    """
    n = g_x.shape[0]
    q, _ = np.linalg.qr(np.column_stack([np.ones(n), np.eye(n)[:, : n - 1]]))
    b = q[:, 1:]  # orthonormal, orthogonal to the ones vector
    c = b.T @ g_x @ b
    lam, v = np.linalg.eigh((c + c.T) / 2.0)
    if float(lam[0]) <= 1e-9 * float(np.max(np.abs(g_x))):
        raise SingularGramError("source Gram matrix is singular on the sum-zero subspace")
    return b @ (v / np.sqrt(lam))


def _top_eigspace(m: np.ndarray, w: np.ndarray) -> tuple[float, np.ndarray]:
    """The top eigenvalue of w' m w and the eigenvectors u = w v that tie with it.

    With w from _sum_zero_pencil(g_x) this is the top generalized
    eigenpair of m against g_x on sum-zero weights, and u' g_x u = 1.
    Eigenvalues within 1e-9 of the top, relatively, tie with it: at
    constant rows all of them do, and roundoff alone would pick one
    eigenvector among them. w' m w is symmetrized against roundoff.
    """
    a = w.T @ m @ w
    vals, vecs = np.linalg.eigh((a + a.T) / 2.0)
    top = float(vals[-1])
    return top, w @ vecs[:, vals >= top - 1e-9 * abs(top)]


def embedded_operator_norm(T: MarkovKernel, gX: GramMatrix, gXY: GramMatrix) -> float:
    """How much the graph pushforward stretches differences of probabilities.

    sup over distinct probability measures A, B on the source of
    ||graph_pushforward(T, A - B)||_gXY / ||A - B||_gX. Differences of
    probability measures are exactly the sum-zero weight vectors and
    the quotient is scale invariant, so the value is the square root of
    the top generalized eigenvalue of the two induced quadratic forms
    on that subspace. gX must be nondegenerate there.
    """
    if gX.points != T.source:
        raise SpaceMismatchError("gX must live on the kernel's source")
    if gXY.points != ProductSpace(T.source, T.target):
        raise SpaceMismatchError("gXY must live on the source x target product")
    if T.source.size == 1:
        return 0.0
    top, _ = _top_eigspace(gXY.pair_form(T.matrix), _sum_zero_pencil(gX.values))
    return math.sqrt(max(top, 0.0))
