"""Finite measurable spaces and exact signed-measure arithmetic.

A FiniteSpace is an ordered finite set of labelled points, optionally
carrying real coordinate vectors (needed by coordinate-based kernels and
Lipschitz constants). Measures over a space are dense weight vectors:

  * SignedMeasure: any finite real weights,
  * ProbMeasure:   nonnegative weights summing to 1.

Product spaces are ordered row-major over (left, right) and pair labels
are tuples; a pair's coordinates are the concatenation of the factors'.

Everything here is an immutable value and every operation is a pure
function, so unrestricted concurrent use is safe.
"""
from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from ._tol import INVARIANT_ATOL, PROB_SUM_ATOL

Label = object


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class SpaceMismatchError(ValueError):
    """Raised when an operation mixes measures over different spaces."""


class FiniteSpace:
    """An ordered finite set of points, each optionally with coordinates.

    Parameters
    ----------
    labels : sequence of hashable point identifiers, all distinct.
    coords : optional sequence of real vectors, one per label, equal length.
    """

    def __init__(self, labels: Sequence[Label], coords=None):
        labels = tuple(labels)
        if not labels:
            raise ValueError("a FiniteSpace needs at least one point")
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be distinct")
        self.labels = labels
        if coords is None:
            self.coords = None
        else:
            c = np.atleast_2d(np.asarray(coords, dtype=float))
            if c.shape[0] != len(labels):
                raise ValueError(
                    f"{c.shape[0]} coordinate vectors for {len(labels)} labels"
                )
            if not np.all(np.isfinite(c)):
                raise ValueError("coordinates must be finite")
            self.coords = _freeze(c)
        self._index = {lab: i for i, lab in enumerate(labels)}

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: Label) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"label {label!r} is not a point of this space") from None

    def __contains__(self, label: Label) -> bool:
        return label in self._index

    def __len__(self) -> int:
        return len(self.labels)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, FiniteSpace):
            return NotImplemented
        if self.labels != other.labels:
            return False
        if (self.coords is None) != (other.coords is None):
            return False
        return self.coords is None or np.array_equal(self.coords, other.coords)

    def __hash__(self) -> int:
        key = self.coords.tobytes() if self.coords is not None else None
        return hash((self.labels, key))

    def __repr__(self) -> str:
        dim = "no coords" if self.coords is None else f"dim {self.coords.shape[1]}"
        return f"FiniteSpace({self.size} points, {dim})"


class ProductSpace(FiniteSpace):
    """The product of two finite spaces, row-major over (left, right)."""

    def __init__(self, left: FiniteSpace, right: FiniteSpace):
        labels = [(a, b) for a in left.labels for b in right.labels]
        if left.coords is not None and right.coords is not None:
            n, m = left.size, right.size
            coords = np.hstack([np.repeat(left.coords, m, 0), np.tile(right.coords, (n, 1))])
        else:
            coords = None
        super().__init__(labels, coords)
        self.left = left
        self.right = right

    def __repr__(self) -> str:
        return f"ProductSpace({self.left.size} x {self.right.size})"


class SignedMeasure:
    """A finite signed measure: one real weight per point of a space."""

    def __init__(self, space: FiniteSpace, weights):
        w = np.array(weights, dtype=float, order="C").reshape(-1)
        if w.shape[0] != space.size or not np.isfinite(w).all():
            raise ValueError(_measure_error(space, w, prob=False))
        self.space = space
        self.weights = _freeze(w)

    def weight(self, label: Label) -> float:
        return float(self.weights[self.space.index(label)])

    def total_mass(self) -> float:
        return math.fsum(self.weights)

    # linear-space structure, used by kernel arithmetic and tests
    def __add__(self, other: "SignedMeasure") -> "SignedMeasure":
        _check_same_space(self, other)
        return SignedMeasure(self.space, self.weights + other.weights)

    def __sub__(self, other: "SignedMeasure") -> "SignedMeasure":
        _check_same_space(self, other)
        return SignedMeasure(self.space, self.weights - other.weights)

    def __mul__(self, scalar: float) -> "SignedMeasure":
        return SignedMeasure(self.space, self.weights * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "SignedMeasure":
        return SignedMeasure(self.space, -self.weights)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({np.array2string(self.weights, precision=6)})"


class ProbMeasure(SignedMeasure):
    """A probability measure: nonnegative weights summing to 1.

    Construction clamps negative dust above -1e-12 to zero and
    renormalizes sums within PROB_SUM_ATOL of 1; anything worse is
    rejected rather than silently repaired.
    """

    def __init__(self, space: FiniteSpace, weights):
        w = np.array(weights, dtype=float, order="C").reshape(-1)
        # NaN and +-inf fail these comparisons, so they decide finiteness too
        if w.shape[0] == space.size and (lo := w.min()) >= -INVARIANT_ATOL and w.max() < math.inf:
            if lo <= 0.0:
                np.maximum(w, 0.0, out=w)  # also turns -0.0 into +0.0
            s = math.fsum(w)
            if abs(s - 1.0) <= PROB_SUM_ATOL:
                if s != 1.0:
                    w /= s
                self.space = space
                self.weights = _freeze(w)
                return
        raise ValueError(_measure_error(space, w, prob=True))


def _measure_error(space: FiniteSpace, w: np.ndarray, prob: bool) -> str:
    """Why w is not a weight vector of a (probability) measure on space.

    The rules run in the order of their precedence: shape, finite,
    then for a probability measure negative and sum (of the clamped
    weights).
    """
    if w.shape[0] != space.size:
        return f"{w.shape[0]} weights for {space.size} points"
    if not np.isfinite(w).all():
        return "weights must be finite"
    if prob and w.min() < -INVARIANT_ATOL:
        return f"negative weight {w.min():.3e} in a probability measure"
    return f"weights sum to {math.fsum(np.maximum(w, 0.0))!r}, not 1"


class Dataset:
    """An ordered list of (x, y) sample pairs over a product space."""

    def __init__(self, space: ProductSpace, pairs: Iterable[tuple]):
        if not isinstance(space, ProductSpace):
            raise TypeError("Dataset requires a ProductSpace")
        pairs = tuple((x, y) for x, y in pairs)
        left, right, ny = space.left._index, space.right._index, space.right.size
        cells = []
        for x, y in pairs:
            i = left.get(x)
            if i is None:
                raise KeyError(f"x label {x!r} is not in the left factor")
            j = right.get(y)
            if j is None:
                raise KeyError(f"y label {y!r} is not in the right factor")
            cells.append(i * ny + j)
        self.space = space
        self.pairs = pairs
        # the flat product-space index of each pair, in sample order
        self.cells = _freeze(np.array(cells, dtype=np.intp))

    def __len__(self) -> int:
        return len(self.pairs)

    def counts(self) -> np.ndarray:
        """How often each (x, y) occurs, as an (|X|, |Y|) integer array."""
        c = np.bincount(self.cells, minlength=self.space.size)
        return c.reshape(self.space.left.size, self.space.right.size)

    def xs(self) -> tuple:
        return tuple(x for x, _ in self.pairs)

    def ys(self) -> tuple:
        return tuple(y for _, y in self.pairs)

    def __repr__(self) -> str:
        return f"Dataset({len(self.pairs)} samples over {self.space!r})"


def _check_same_space(a: SignedMeasure, b: SignedMeasure) -> None:
    if a.space != b.space:
        raise SpaceMismatchError("measures live on different spaces")


def dirac(space: FiniteSpace, x: Label) -> ProbMeasure:
    """The point mass at x."""
    w = np.zeros(space.size)
    w[space.index(x)] = 1.0
    return ProbMeasure(space, w)


def empirical(data, space: FiniteSpace | None = None) -> ProbMeasure:
    """The empirical measure of a Dataset or a list of labels.

    Each point's weight is its frequency divided by the sample count,
    so weights are exact ratios of integers.
    """
    if isinstance(data, Dataset):
        space, counts = data.space, data.counts().reshape(-1)
    elif space is None:
        raise ValueError("a space is required when data is a list of labels")
    else:
        counts = np.bincount(np.fromiter(map(space.index, data), np.intp), minlength=space.size)
    n = int(counts.sum())
    if n == 0:
        raise ValueError("cannot build an empirical measure from no samples")
    return ProbMeasure(space, counts / n)


def tv_norm(mu: SignedMeasure) -> float:
    """Total variation norm: the sum of absolute weights."""
    return math.fsum(abs(w) for w in mu.weights)


def jordan_hahn(mu: SignedMeasure) -> tuple[SignedMeasure, SignedMeasure]:
    """Split mu into mutually singular nonnegative parts (pos, neg).

    mu = pos - neg pointwise, pos*neg = 0, and tv_norm(mu) equals the
    sum of both parts' masses.
    """
    w = mu.weights
    pos = SignedMeasure(mu.space, np.maximum(w, 0.0))
    neg = SignedMeasure(mu.space, np.maximum(-w, 0.0))
    return pos, neg


def product(
    mu: SignedMeasure, nu: SignedMeasure, space: ProductSpace | None = None
) -> SignedMeasure:
    """The product measure on the product of the factors' spaces.

    weight(x, y) = mu(x) * nu(y). Pass `space` to reuse an existing
    ProductSpace; its factors must equal the measures' spaces.
    """
    if space is None:
        space = ProductSpace(mu.space, nu.space)
    elif space.left != mu.space or space.right != nu.space:
        raise SpaceMismatchError("product space factors do not match the measures")
    w = np.outer(mu.weights, nu.weights).reshape(-1)
    if isinstance(mu, ProbMeasure) and isinstance(nu, ProbMeasure):
        return ProbMeasure(space, w)
    return SignedMeasure(space, w)


def marginal(mu: SignedMeasure, axis: str) -> SignedMeasure:
    """Project a measure on a product space onto one factor.

    axis "left" keeps the left factor (summing over the right), axis
    "right" the converse. Total mass is preserved.
    """
    space = mu.space
    if not isinstance(space, ProductSpace):
        raise SpaceMismatchError("marginal requires a measure on a ProductSpace")
    grid = mu.weights.reshape(space.left.size, space.right.size)
    if axis == "left":
        w, factor = grid.sum(axis=1), space.left
    elif axis == "right":
        w, factor = grid.sum(axis=0), space.right
    else:
        raise ValueError(f"axis must be 'left' or 'right', got {axis!r}")
    if isinstance(mu, ProbMeasure):
        return ProbMeasure(factor, w)
    return SignedMeasure(factor, w)
