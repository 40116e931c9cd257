"""Finite measurable spaces and exact signed-measure arithmetic.

A FiniteSpace is an ordered finite set of labelled points, optionally
carrying real coordinate vectors (needed by coordinate-based kernels and
Lipschitz constants). Measures over a space are dense weight vectors:

  * SignedMeasure: any finite real weights,
  * ProbMeasure:   nonnegative weights summing to 1.

Product spaces are ordered row-major over (left, right) and pair labels
are tuples; a pair's coordinates are the concatenation of the factors'.
A product holds only its factors and builds its label, index and
coordinate tables on first read.

Everything here is an immutable value and every operation is a pure
function, so unrestricted concurrent use is safe. A product's cached
tables are pure values of its factors: two threads that read one first
can at worst each build an equal copy.
"""
from __future__ import annotations

import itertools
import math
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from ._tol import INVARIANT_ATOL, PROB_SUM_ATOL

Label = object


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class SpaceMismatchError(ValueError):
    """Raised when an operation mixes measures over different spaces."""


class FiniteSpace:
    """An ordered finite set of points, each optionally with coordinates.

    Parameters
    ----------
    labels : sequence of hashable point identifiers, all distinct.
    coords : optional sequence of finite real vectors, one per label, of
        one length d >= 1.
    """

    def __init__(self, labels: Sequence[Label], coords=None):
        labels = tuple(labels)
        if not labels:
            raise ValueError("a FiniteSpace needs at least one point")
        index = {lab: i for i, lab in enumerate(labels)}
        if len(index) != len(labels):
            raise ValueError("labels must be distinct")
        self.labels = labels
        self.size = len(labels)
        if coords is None:
            self.coords = None
        else:
            c = np.atleast_2d(np.asarray(coords, dtype=float))
            if c.ndim != 2 or c.shape[1] == 0:
                raise ValueError(f"coordinates must have shape (n, d) with d >= 1, got {c.shape}")
            if c.shape[0] != len(labels):
                raise ValueError(
                    f"{c.shape[0]} coordinate vectors for {len(labels)} labels"
                )
            if not np.all(np.isfinite(c)):
                raise ValueError("coordinates must be finite")
            self.coords = _freeze(c)
        self._index = index

    def index(self, label: Label) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"label {label!r} is not a point of this space") from None

    def __contains__(self, label: Label) -> bool:
        return label in self._index

    def __len__(self) -> int:
        return self.size

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
        # + 0.0 reads -0.0 as 0.0, which __eq__ counts equal
        key = (self.coords + 0.0).tobytes() if self.coords is not None else None
        return hash((self.labels, key))

    def __repr__(self) -> str:
        dim = "no coords" if self.coords is None else f"dim {self.coords.shape[1]}"
        return f"FiniteSpace({self.size} points, {dim})"


class ProductSpace(FiniteSpace):
    """The product of two finite spaces, row-major over (left, right).

    It holds only its factors. The label tuples, the label index and the
    concatenated coordinates are built on first read, with the values an
    eager FiniteSpace of those labels and coordinates would hold. Equality
    is decided by the factors when they are equal, and otherwise by labels
    and coordinates, as for any FiniteSpace.
    """

    def __init__(self, left: FiniteSpace, right: FiniteSpace):
        self.left = left
        self.right = right
        self.size = left.size * right.size

    @cached_property
    def labels(self) -> tuple:
        return tuple(itertools.product(self.left.labels, self.right.labels))

    @cached_property
    def _index(self) -> dict:
        return {lab: i for i, lab in enumerate(self.labels)}

    @cached_property
    def coords(self) -> np.ndarray | None:
        left, right = self.left.coords, self.right.coords
        if left is None or right is None:
            return None
        n, m = self.left.size, self.right.size
        return _freeze(np.hstack([np.repeat(left, m, 0), np.tile(right, (n, 1))]))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        # equal factors make equal products; unequal ones may still make equal tables
        if isinstance(other, ProductSpace) and self.left == other.left and self.right == other.right:
            return True
        return super().__eq__(other)

    __hash__ = FiniteSpace.__hash__

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

    The constructor checks caller-supplied weights in one pass over a
    private copy: the entry checks (shape, NaN and -inf, negative dust
    and -0.0), then the sum rule. The measures of the calculus
    (pushforward, marginal, product, ...) are built by _derived, which
    runs the sum rule alone on a weight array its producer guarantees
    would pass the entry checks unchanged; the stored bits are the
    constructor's.
    """

    def __init__(self, space: FiniteSpace, weights):
        w = np.array(weights, dtype=float, order="C").reshape(-1)
        # NaN and -inf fail the bound on the minimum, +inf the sum rule.
        # argmin finds the minimum exactly, and the first NaN as the reduction would,
        # in one C call; .item reads it as a Python float.
        if w.shape[0] == space.size and (lo := w.item(w.argmin())) >= -INVARIANT_ATOL:
            if lo <= 0.0:
                np.maximum(w, 0.0, out=w)  # also turns -0.0 into +0.0
            if _sum_rule(w):
                self.space = space
                self.weights = _freeze(w)
                return
        raise ValueError(_measure_error(space, w, prob=True))

    @classmethod
    def _derived(cls, space: FiniteSpace, w: np.ndarray) -> "ProbMeasure":
        """The measure of weights a calculus function has just built.

        The caller guarantees that w is a new 1-D float array of
        space.size weights that nothing else holds, finite, nonnegative
        and free of -0.0, so the constructor's copy and entry checks
        would leave its bits as they are. Only the sum rule runs, in
        place; a sum it rejects raises the constructor's ValueError.
        """
        if not _sum_rule(w):
            raise ValueError(_measure_error(space, w, prob=True))
        mu = object.__new__(cls)
        mu.space = space
        mu.weights = _freeze(w)
        return mu


def _sum_rule(w: np.ndarray) -> bool:
    """The sum rule of a probability measure, on weights that passed the entry checks.

    False if the weights do not sum to within PROB_SUM_ATOL of 1;
    otherwise a sum other than 1 divides w in place. fsum is exact, so
    summing the list gives the sum of the array. A weight of +inf makes
    that sum inf or raises OverflowError, as two huge finite weights do,
    so a sum near 1 implies finite weights.
    """
    try:
        s = math.fsum(w.tolist())
    except OverflowError:  # _measure_error names the rule that fails
        return False
    if not abs(s - 1.0) <= PROB_SUM_ATOL:
        return False
    if s != 1.0:
        w /= s
    return True


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
        left, right, ny = space.left._index, space.right._index, space.right.size
        stored, cells = [], []
        for x, y in pairs:  # one pass: a pair that is not two items raises ValueError
            try:  # x is looked up first, so an unknown x is named before y
                cells.append(left[x] * ny + right[y])
            except KeyError:
                if x not in left:
                    raise KeyError(f"x label {x!r} is not in the left factor") from None
                raise KeyError(f"y label {y!r} is not in the right factor") from None
            stored.append((x, y))
        self.space = space
        self.pairs = tuple(stored)
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
    return ProbMeasure._derived(space, w)  # a new array of zeros and one 1.0


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
    # a new array of ratios of counts: finite, nonnegative, no -0.0
    return ProbMeasure._derived(space, counts / n)


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


def product(mu: SignedMeasure, nu: SignedMeasure) -> SignedMeasure:
    """The product measure on ProductSpace(mu.space, nu.space).

    weight(x, y) = mu(x) * nu(y). The space is built from the factors,
    and ProductSpace equality asks the factors first, so the result
    equals any other product space of the same two spaces.
    """
    space = ProductSpace(mu.space, nu.space)
    w = np.outer(mu.weights, nu.weights).reshape(-1)
    if isinstance(mu, ProbMeasure) and isinstance(nu, ProbMeasure):
        # a new array of products of accepted weights: finite, nonnegative, no -0.0
        return ProbMeasure._derived(space, w)
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
        # a new array of sums of accepted weights: finite, nonnegative, no -0.0
        return ProbMeasure._derived(factor, w)
    return SignedMeasure(factor, w)
