"""Positive-definite symmetric kernels and kernel mean embeddings.

Supported kernel families on a finite point set:

  gaussian(sigma):  scale * exp(-sigma * ||y - y'||_2^2)
  laplacian(sigma): scale * exp(-sigma * ||y - y'||_1)
  linear:           scale * <y, y'>
  delta:            scale * 1[y = y']

The mean embedding of a measure mu is M(mu) = sum_i mu_i K_{y_i}; all
embedding inner products reduce to weight-vector quadratic forms with
the Gram matrix, which is what GramMatrix caches. The constant
C_K = max_y sqrt(|K(y, y)|) bounds every embedded probability measure.

On a product space X x Y the gaussian, laplacian and delta kernels
factor: exp(-sigma (a + b)) = exp(-sigma a) exp(-sigma b) for the
squared-euclidean and l1 distances of concatenated coordinates, and
1[(x, y) = (x', y')] = 1[x = x'] 1[y = y']. Their Gram matrix is
therefore kron(G_X, G_Y), and gram() returns a KroneckerGram that
stores the two factors: |X|^2 + |Y|^2 numbers instead of (|X||Y|)^2,
a PSD check on the factors' eigenvalues, and products in
O(|X||Y|(|X| + |Y|)). The linear kernel on a product is
G_X (x) 1 + 1 (x) G_Y, a sum rather than a product, and stays dense.
Consumers of a product Gram go through apply, sq_norms, graph_sq_norms
and pair_form, which both representations implement, and never need the
dense matrix.
Every squared embedded norm d' G d is GramMatrix.sq_norms, under one
rule for roundoff below zero. The module needs numpy alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from numpy.linalg import eigvalsh

from ._tol import INVARIANT_ATOL, PSD_ATOL
from .spaces import FiniteSpace, ProductSpace, SignedMeasure, SpaceMismatchError

_VARIANTS = ("gaussian", "laplacian", "linear", "delta")
_EPS = float(np.finfo(float).eps)
# roundoff of an eigen-solve or a quadratic form on a Gram: _ROUNDOFF * size * eps * max_entry
_ROUNDOFF = 4.0


class NotPSDError(ValueError):
    """Raised when a Gram matrix fails the positive-semidefiniteness check."""


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family plus its parameters.

    sigma is required (finite, strictly positive) for gaussian and
    laplacian, ignored otherwise. scale (finite, strictly positive)
    multiplies all kernel values.
    """

    variant: str
    sigma: float | None = None
    scale: float = 1.0

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown kernel variant {self.variant!r}")
        if self.variant in ("gaussian", "laplacian"):
            if self.sigma is None or not 0 < self.sigma < math.inf:
                raise ValueError(f"{self.variant} kernel needs a finite sigma > 0")
        if not 0 < self.scale < math.inf:
            raise ValueError("scale must be finite and strictly positive")

    @property
    def needs_coords(self) -> bool:
        return self.variant in ("gaussian", "laplacian", "linear")


def _check_psd(min_eigenvalue: float, size: int, max_entry: float) -> None:
    """Reject a minimum eigenvalue below -max(PSD_ATOL, _ROUNDOFF * size * eps * max_entry).

    size * max_entry bounds the spectral norm, so the second term is the
    roundoff of an eigen-solve on a matrix with large entries; for
    entries at most 1 in absolute value the floor is PSD_ATOL.
    """
    floor = max(PSD_ATOL, _ROUNDOFF * size * _EPS * max_entry)
    if min_eigenvalue < -floor:
        raise NotPSDError(f"minimum eigenvalue {min_eigenvalue:.3e} below -{floor}")


class GramMatrix:
    """Pairwise kernel values on a point set, symmetrized and PSD-checked.

    The matrix is symmetrized as (G + G') / 2 before validation; its
    entries must then be finite, and the minimum eigenvalue must not fall
    below -PSD_ATOL, or below the eigen-solve's roundoff when entries are
    large (see _check_psd).
    """

    def __init__(self, points: FiniteSpace, entries):
        g = np.asarray(entries, dtype=float)
        if g.shape != (points.size, points.size):
            raise ValueError(f"Gram matrix shape {g.shape} for {points.size} points")
        with np.errstate(over="ignore"):
            g = (g + g.T) / 2.0
        if not np.all(np.isfinite(g)):
            raise ValueError("Gram matrix entries overflow or are not finite")
        eigenvalues = eigvalsh(g)
        self.min_eigenvalue = float(eigenvalues[0])
        self.max_eigenvalue = float(eigenvalues[-1])
        self.max_entry = float(np.max(np.abs(g)))
        _check_psd(self.min_eigenvalue, points.size, self.max_entry)
        g.flags.writeable = False
        self.points = points
        self.values = g

    @property
    def size(self) -> int:
        return self.points.size

    @cached_property
    def diag(self) -> np.ndarray:
        """The diagonal K(y, y) of the Gram matrix, read-only."""
        return self.values.diagonal()

    def apply(self, w) -> np.ndarray:
        """G times each weight vector in w, returned in w's shape.

        w is one vector, flat or (on a product space) laid out as
        (|X|, |Y|), or a stack of flat vectors, one per row.
        """
        w = np.asarray(w)
        # G is symmetric, so w' G is G w
        return (w.reshape(-1, self.size) @ self.values).reshape(w.shape)

    def sq_norms(self, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(d G, q) for a stack d of flat weight vectors: q[k] = ||M(d[k])||^2, clamped."""
        dg = d @ self.values  # G is symmetric, so row k of d G is G d[k]
        return dg, self._clamp_roundoff(np.vecdot(dg, d), d)

    def _clamp_roundoff(self, q: np.ndarray, d: np.ndarray) -> np.ndarray:
        """q[k] = d[k]' G d[k] with roundoff below zero read as 0.

        The floor max(1e-12, _ROUNDOFF * size * eps * max_entry) * ||d[k]||_1^2
        bounds the roundoff of the product; q[k] below -floor raises
        NotPSDError, even on a Gram accepted with an eigenvalue near
        -PSD_ATOL. The floor is computed only when some q is negative.
        """
        if np.minimum.reduce(q) >= 0.0:
            return q
        l1 = np.abs(d).sum(axis=1)
        floor = max(INVARIANT_ATOL, _ROUNDOFF * self.size * _EPS * self.max_entry) * l1 * l1
        k = int(np.argmin(q + floor))
        if q[k] < -floor[k]:
            raise NotPSDError(f"squared norm {q[k]:.3e} below -{floor[k]:.3e}: Gram is not PSD")
        return np.maximum(q, 0.0)

    def graph_sq_norms(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(b, q) for rows r on X x Y: b[i] = B_i r[i] and q[i] = r[i]' B_i r[i], clamped.

        Row i of r is read as the graph row on {x_i} x Y, and B_i is the
        i-th |Y| x |Y| diagonal block of G. So q is the diagonal of
        pair_form(r), under the roundoff rule of sq_norms, and
        b[i] / sqrt(q[i]) is the gradient of graph row i's norm in r[i].
        """
        nx, ny = r.shape
        blocks = np.einsum("iyiz->iyz", self.values.reshape(nx, ny, nx, ny))
        b = np.matmul(blocks, r[:, :, None])[:, :, 0]
        return b, self._clamp_roundoff(np.einsum("iy,iy->i", b, r), r)

    def pair_form(self, r) -> np.ndarray:
        """m[i, j] = sum_{y, z} r[i, y] G[(i, y), (j, z)] r[j, z] on X x Y.

        Row i of r is read as a weight vector on {x_i} x Y, so m is the
        Gram matrix of the graph rows of r.
        """
        nx, ny = r.shape
        blocks = self.values.reshape(nx, ny, nx, ny)
        return np.einsum("iy,iyjz,jz->ij", r, blocks, r)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.size} points, min eig {self.min_eigenvalue:.3e})"


class KroneckerGram(GramMatrix):
    """The Gram matrix kron(left, right) of a product kernel on X x Y, kept factored.

    left and right are the Gram matrices on the two factors. The
    eigenvalues of a Kronecker product are the products of the
    factors' eigenvalues, so the minimum is the least product of their
    extremes, and the largest entry is the product of the factors'
    largest entries; both are held to the same floor as a dense matrix.
    `values` builds the dense matrix on first access; `diag` does not
    need it.
    """

    def __init__(self, points: ProductSpace, left: GramMatrix, right: GramMatrix):
        if left.points != points.left or right.points != points.right:
            raise SpaceMismatchError("the factors do not live on the product's factors")
        ends = [
            a * b
            for a in (left.min_eigenvalue, left.max_eigenvalue)
            for b in (right.min_eigenvalue, right.max_eigenvalue)
        ]
        self.min_eigenvalue = min(ends)
        self.max_eigenvalue = max(ends)
        self.max_entry = left.max_entry * right.max_entry
        _check_psd(self.min_eigenvalue, points.size, self.max_entry)
        self.points = points
        self.left = left
        self.right = right

    @cached_property
    def values(self) -> np.ndarray:
        g = np.kron(self.left.values, self.right.values)
        g.flags.writeable = False
        return g

    @cached_property
    def diag(self) -> np.ndarray:
        d = np.kron(self.left.diag, self.right.diag)
        d.flags.writeable = False
        return d

    def apply(self, w) -> np.ndarray:
        w = np.asarray(w)
        grids = w.reshape(-1, self.left.size, self.right.size)
        return (self.left.values @ grids @ self.right.values).reshape(w.shape)

    def sq_norms(self, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        dg = self.apply(d)
        return dg, self._clamp_roundoff(np.vecdot(dg, d), d)

    def graph_sq_norms(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # B_i = left[i, i] * right, so one right.sq_norms product of the rows gives both
        rr, q = self.right.sq_norms(r)
        return self.left.diag[:, None] * rr, self._clamp_roundoff(self.left.diag * q, r)

    def pair_form(self, r) -> np.ndarray:
        return self.left.values * (r @ self.right.values @ r.T)


def _coord_rows(spec: KernelSpec, space: FiniteSpace) -> np.ndarray:
    if space.coords is None:
        raise ValueError(f"{spec.variant} kernel needs coordinates on the space")
    return space.coords


def _kernel_values(spec: KernelSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """K(a_i, b_j) for the rows of a and b under a gaussian, laplacian or linear kernel."""
    # -sigma * d may overflow to -inf, whose exp is the exact 0; an entry
    # that overflows to inf (or a linear sum of +inf and -inf, NaN) is
    # rejected by GramMatrix
    with np.errstate(over="ignore", invalid="ignore"):
        # the inner product or the distance, one coordinate at a time, in order: no
        # BLAS product, so every build rounds a Gram entry and a 1 x 1 evaluation alike
        s = np.zeros((len(a), len(b)))
        for a_k, b_k in zip(a.T, b.T):
            if spec.variant == "linear":
                s += np.multiply.outer(a_k, b_k)
            else:
                diff = np.subtract.outer(a_k, b_k)
                s += np.square(diff, out=diff) if spec.variant == "gaussian" else np.abs(diff, out=diff)
        if spec.variant == "linear":
            return spec.scale * s
        return spec.scale * np.exp(-spec.sigma * s)


def kernel_eval(spec: KernelSpec, y, y_prime, space: FiniteSpace | None = None) -> float:
    """Evaluate K(y, y') on two points.

    Points may be given as labels of `space` or as raw coordinate
    vectors (the delta variant then compares the vectors themselves). A
    point that is not a label, or cannot be one because it is unhashable
    (a list or an array), is read as a raw vector, which must be nonempty
    and finite. The other variants need both points' coordinates, of one
    dimension, and evaluate them as gram does.
    """

    def resolve(p):
        try:
            labelled = space is not None and p in space
        except TypeError:  # unhashable, so no label
            labelled = False
        if labelled:
            idx = space.index(p)
            vec = None if space.coords is None else space.coords[idx]
            return p, vec
        vec = np.asarray(p, dtype=float).reshape(-1)
        if vec.size == 0 or not np.all(np.isfinite(vec)):
            raise ValueError(f"a raw point must be a nonempty finite vector, got {p!r}")
        return None, vec

    label_a, vec_a = resolve(y)
    label_b, vec_b = resolve(y_prime)
    if spec.variant == "delta":
        if label_a is not None and label_b is not None:
            same = label_a == label_b
        elif vec_a is not None and vec_b is not None:
            same = vec_a.shape == vec_b.shape and bool(np.all(vec_a == vec_b))
        else:
            same = False
        return spec.scale * (1.0 if same else 0.0)
    if vec_a is None or vec_b is None:
        raise ValueError(f"{spec.variant} kernel needs coordinates")
    if vec_a.size != vec_b.size:
        raise ValueError(f"the points have dimensions {vec_a.size} and {vec_b.size}")
    return float(_kernel_values(spec, vec_a[None], vec_b[None])[0, 0])


def gram(spec: KernelSpec, space: FiniteSpace) -> GramMatrix:
    """The Gram matrix G[i][j] = K(y_i, y_j) over a whole space.

    On a product space the gaussian, laplacian and delta kernels give a
    KroneckerGram; the scale goes into the right factor, so the right
    factor is gram(spec, space.right) and the left one is the Gram of
    the same kernel at scale 1.
    """
    if isinstance(space, ProductSpace) and spec.variant != "linear":
        return KroneckerGram(
            space, gram(replace(spec, scale=1.0), space.left), gram(spec, space.right)
        )
    if spec.variant == "delta":
        # labels are distinct by the space invariant
        g = spec.scale * np.eye(space.size)
    else:
        c = _coord_rows(spec, space)
        g = _kernel_values(spec, c, c)
    return GramMatrix(space, g)


def embed_inner(g: GramMatrix, mu: SignedMeasure, nu: SignedMeasure) -> float:
    """<M(mu), M(nu)> in the kernel's Hilbert space: mu' G nu."""
    if mu.space != g.points or nu.space != g.points:
        raise SpaceMismatchError("measures do not live on the Gram matrix's space")
    return float(g.apply(mu.weights) @ nu.weights)


def mmd(g: GramMatrix, mu: SignedMeasure, nu: SignedMeasure) -> float:
    """Maximum mean discrepancy: the embedding norm of mu - nu.

    The squared norm comes from GramMatrix.sq_norms, which reads roundoff
    below zero as 0 and raises NotPSDError below it.
    """
    if mu.space != g.points or nu.space != g.points:
        raise SpaceMismatchError("measures do not live on the Gram matrix's space")
    return math.sqrt(float(g.sq_norms((mu.weights - nu.weights)[None])[1][0]))


def c_k(spec: KernelSpec, space: FiniteSpace) -> float:
    """C_K = max over points of sqrt(|K(y, y)|)."""
    if spec.variant in ("gaussian", "laplacian", "delta"):
        diag = np.full(space.size, spec.scale)
    else:
        c = _coord_rows(spec, space)
        diag = spec.scale * np.sum(c * c, axis=1)
    return math.sqrt(float(np.max(np.abs(diag))))


def embedding_injective(g: GramMatrix) -> bool:
    """Whether the mean embedding is injective on signed measures.

    On a finite space this is exactly nonsingularity of the Gram
    matrix: true iff its minimum eigenvalue exceeds PSD_ATOL times its
    largest |entry|, so the answer does not change with the kernel's
    scale.
    """
    return g.min_eigenvalue > PSD_ATOL * g.max_entry
