"""Hypothesis classes and estimators for conditional probability kernels.

Hypotheses are Markov kernels on fixed finite grids. Two class shapes
are supported: an explicit finite list, and the parametric family of
all Markov kernels on the grids.

Estimators:

  * cerm: empirical risk minimization of losses.empirical_risk under a
    label Gram matrix, with a certified optimality gap of 0. Finite
    classes are enumerated; over the parametric class the risk is
    minimized in closed form by the conditional rows of the dataset's
    pair counts (Dataset.counts).
  * regularized_estimate: minimizes  fidelity^2 + gamma * W  where the
    fidelity is the embedded distance between the hypothesis' graph
    pushforward and the empirical joint measure, and W is the squared
    sum of a sup term and a Lipschitz term. The objective is convex
    over the product of row simplices; one deterministic run of
    entropic mirror descent minimizes it. W's third term, an embedded
    operator norm, is evaluated by w_functional but never fitted.

The Newton interpolant turns finitely many (abscissa, measure) nodes
into a polynomial curve of signed measures that passes through the
nodes exactly and whose components always sum to one.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import ClassVar, Sequence

import numpy as np

from ._tol import PROB_SUM_ATOL
from .kernels import GramMatrix, KernelSpec, KroneckerGram, gram
from .losses import empirical_risk
from .morphisms import MarkovKernel, _conditional_rows, embedded_operator_norm
from .spaces import Dataset, FiniteSpace, ProbMeasure, ProductSpace, SignedMeasure

_MAX_NEWTON_NODES = 12
_STEP = 0.3  # mirror descent's step scale (see _mirror_descent)
_ROW_START = np.zeros(1, dtype=np.intp)  # reduceat along a row: one segment, from 0


# ---------------------------------------------------------------------------
# hypothesis classes
# ---------------------------------------------------------------------------
class FiniteClass:
    """An explicit nonempty list of Markov kernels on shared grids."""

    def __init__(self, kernels: Sequence[MarkovKernel]):
        kernels = list(kernels)
        if not kernels:
            raise ValueError("a finite hypothesis class needs at least one kernel")
        first = kernels[0]
        for k in kernels[1:]:
            if k.source != first.source or k.target != first.target:
                raise ValueError("all kernels in a class must share source and target")
        self.kernels = kernels
        self.source = first.source
        self.target = first.target

    def __len__(self) -> int:
        return len(self.kernels)

    def __iter__(self):
        return iter(self.kernels)


class ParametricClass:
    """All Markov kernels on fixed grids: one point of the simplex per row."""

    def __init__(self, source: FiniteSpace, target: FiniteSpace):
        self.source = source
        self.target = target


def gamma_schedule(n: int) -> float:
    """Default regularization weight: n^(-1/2), for a sample size n, an integer >= 1.

    A count that is not an integer, or one past float range, raises
    ValueError: its weight would be no sample size's, or 0.0, which no
    fit accepts.
    """
    if not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"sample size must be an integer at least 1, got {n!r}")
    try:
        return float(n) ** -0.5
    except OverflowError:
        raise ValueError(f"sample size must be an integer at least 1 within float range, got {n!r}") from None


@dataclass
class LearnerConfig:
    """Optimizer knobs of regularized_estimate, which fits W's sup and Lipschitz terms.

    The fit is deterministic: max_iters and tol steer the one
    mirror-descent run (its step scale is the module's fixed _STEP), which
    stops early once its Frank-Wolfe gap is at most tol, so tol must be
    >= 0. `seed`, a nonnegative integer, drives only the random probes
    behind eps_certificate; the fit copies it, and the probes run when the
    certificate is first read (see RegularizedFit).
    `restarts` is validated but not read; perfbench's workloads still pass it.
    """

    restarts: int = 8
    max_iters: int = 500
    tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if not self.restarts >= 1:  # also refuses NaN
            raise ValueError("restarts must be a positive integer")
        if not isinstance(self.max_iters, numbers.Integral) or self.max_iters < 0:
            raise ValueError(f"max_iters must be a nonnegative integer, got {self.max_iters!r}")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if not self.tol >= 0:  # also refuses NaN, which no gap is ever <= to
            raise ValueError("tol must be a nonnegative number")


# ---------------------------------------------------------------------------
# mirror descent over row simplices
# ---------------------------------------------------------------------------
def _softmax_rows(z: np.ndarray, col: np.ndarray) -> np.ndarray:
    """The rowwise softmax of the 2-D array z; col is a (rows, 1) float array it overwrites.

    The row maxima are written into col by maximum.reduceat along the
    rows, one segment per row, which gives the bits of
    maximum.reduce(axis=1) already in the column's shape: a maximum is
    exact. A caller that runs many softmaxes of one shape allocates col
    once. The row sums stay on add.reduce(axis=1), since add.reduceat
    may round them differently.
    """
    e = z - np.maximum.reduceat(z, _ROW_START, axis=1, out=col)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=1, keepdims=True)
    return e


def _mirror_descent(objective_rows, incumbent: np.ndarray, config: LearnerConfig):
    """Entropic mirror descent from uniform rows; returns (rows, trace).

    Each step is x <- softmax(log x - eta_t g) rowwise, a subgradient
    step normalized by eta_t = _STEP / (sqrt(t + 1) max|g|). It
    needs no descent direction, so the kinks of the max terms in W do
    not stall it. The run stops after max_iters steps, or earlier once
    the Frank-Wolfe gap sum_x (<g_x, x_x> - min_j g_xj) is at most tol.
    The best rows seen, `incumbent` included, are returned; the trace
    holds their value after each step, so it never increases and its
    last entry is the value of the returned rows. A
    non-finite objective raises ArithmeticError, and so does a step whose
    max|g| or eta_t is not finite. That test of two scalars is exact. The
    logits start at 0, and while both are finite no logit moves by more
    than _STEP / sqrt(t + 1) in a step. An inf or NaN in g, or a subnormal
    max|g| whose eta_t overflows, would make a logit non-finite. A finite
    g whose scale overflows gives eta_t = 0, a step that moves nothing.
    objective_rows returns a new gradient array on each call, and the step
    scales it in place. max|g| is read as a Python float by argmax, which
    is exact and returns the first NaN as the reduction would; the
    Python-float eta_t rounds like numpy's and overflows to inf without
    raising. A max|g| of 0 never reaches the division: the gradient is then
    all zero, its gap 0 is at most tol, and the run has stopped.
    """
    z = np.zeros_like(incumbent)  # logits: softmax(log x) == softmax(z) rowwise
    starts = np.arange(0, z.size, z.shape[1])  # each row's first flat index
    col = np.empty((z.shape[0], 1))  # the row maxima of each step's softmax
    best_rows = incumbent
    trace = []
    # an overflow surfaces as one of the two ArithmeticErrors, not as a warning
    with np.errstate(all="ignore"):
        best_val = objective_rows(incumbent)[0]
        for t in range(config.max_iters + 1):
            rows = _softmax_rows(z, col)
            value, grad = objective_rows(rows)
            if not math.isfinite(value):
                raise ArithmeticError(f"non-finite objective {value!r} after {t} steps")
            if value < best_val:
                best_rows, best_val = rows, value
            trace.append(best_val)
            row_min = np.minimum.reduceat(grad.reshape(-1), starts)
            gap = float(np.vdot(grad, rows) - np.add.reduce(row_min))
            if t == config.max_iters or gap <= config.tol:
                break
            g_abs = abs(grad)
            g_max = g_abs.item(g_abs.argmax())
            eta = _STEP / (math.sqrt(t + 1) * g_max)
            if not (math.isfinite(g_max) and math.isfinite(eta)):
                raise ArithmeticError(f"non-finite logits after {t + 1} steps")
            grad *= eta
            z -= grad
    return best_rows, trace


# ---------------------------------------------------------------------------
# cerm
# ---------------------------------------------------------------------------
@dataclass
class CermResult:
    """cerm's minimizer and its empirical risk; the minimization is exact, so the gap is 0."""

    h: MarkovKernel
    risk: float
    certified_gap: ClassVar[float] = 0.0


def cerm(cls, S: Dataset, gY: GramMatrix, config: LearnerConfig | None = None) -> CermResult:
    """Empirical risk minimization with a certified optimality gap of 0.

    The risk is empirical_risk under the label Gram matrix gY. Finite
    classes are enumerated exactly. Over a ParametricClass, which must
    live on the dataset's grids, the risk at input x is n_x times the
    squared embedded distance from the row to the empirical conditional
    row at x, plus a constant, so the empirical section minimizes it in
    closed form: conditional rows at observed inputs, uniform rows
    elsewhere. The minimizer is unique at observed inputs when the label
    kernel is characteristic.
    `config` is accepted for call compatibility; no field of it is read.
    """
    if isinstance(cls, FiniteClass):
        values = [empirical_risk(h, S, gY).value for h in cls]
        best = int(np.argmin(values))
        return CermResult(h=cls.kernels[best], risk=values[best])

    if (cls.source, cls.target) != (S.space.left, S.space.right):
        raise ValueError("the class's grids do not match the dataset's")
    h = empirical_section(S)
    return CermResult(h=h, risk=empirical_risk(h, S, gY).value)


def _probe_rows(nx: int, ny: int, seed: int) -> np.ndarray:
    """16 random coarse candidates, shape (16, nx, ny), evaluated without descent."""
    # one draw of all the logits; 104729 is an arbitrary fixed tag, and changing it
    # changes every eps_certificate
    z = 2.0 * np.random.default_rng((seed, 104729)).standard_normal((16 * nx, ny))
    return _softmax_rows(z, np.empty((16 * nx, 1))).reshape(16, nx, ny)


def empirical_section(S: Dataset) -> MarkovKernel:
    """The empirical conditional kernel of a dataset.

    Rows at observed inputs are the conditional frequencies, rows at
    unobserved inputs are uniform; pushing the empirical input
    marginal through the graph reproduces the empirical joint measure.
    """
    if len(S) == 0:
        raise ValueError("cannot build an empirical section from no samples")
    # a new array of ratios of counts and uniform rows: finite, nonnegative, no -0.0
    return MarkovKernel._derived(S.space.left, S.space.right, _conditional_rows(S.counts())[0])


# ---------------------------------------------------------------------------
# W functional
# ---------------------------------------------------------------------------
@dataclass
class WFunctionalSpec:
    """Which terms of the regularizer to enable, and their geometries.

    gram_xy embeds joint measures, gram_y embeds rows, gram_x embeds
    input measures (used by the operator-norm term). At least one term
    must be enabled. The operator-norm term is evaluated, never fitted:
    w_functional adds embedded_operator_norm(h, gram_x, gram_xy), which
    refuses a singular gram_x on each call, and regularized_estimate
    refuses a spec that includes it.

    Construction checks the source geometry and precomputes the pieces
    every evaluation of the sup and Lipschitz terms reads: the Lipschitz
    pairs and their coordinate distances, which are all positive (a
    repeated source coordinate is refused here), the gather indices that
    stack the sup term's rows and the pairs' first rows for one gram_y
    product, and one divisor per stacked piece. Piece k of the stack is
    ||stack[k]||_{G_Y} / divisors[k]: the divisor is 1 / a_i for sup row i
    and d_k for Lipschitz pair k (a quotient, since 1 / d overflows at
    subnormal distances). Construction is also the one place where W's
    terms read gram_xy. When it is a KroneckerGram whose right factor
    equals gram_y, the i-th diagonal block of gram_xy is left[i, i] * G_Y,
    so graph row i has the norm sqrt(left[i, i]) ||r_i||_{G_Y} and
    a_i = 1 + sqrt(left[i, i]); a_i = 2 for the gaussian, laplacian and
    delta kernels. On any other gram_xy (the linear kernel, or a
    hand-built Gram) the blocks differ, a_i = 1, and the |X| diagonal
    blocks B_i are stored once in _blocks (None on the factored path, or
    with no sup term). A KroneckerGram over another right factor gives
    them as left[i, i] * right, the products np.kron forms, so its dense
    values are never built; a dense Gram's blocks are copied from its
    values. Each evaluation reads single
    entries, so the spec also keeps copies that index cheaply: the
    divisors as a list of Python floats, the pairs as a list of [i, j]
    Python ints, and the pairs' second rows as one contiguous index array.
    Change a field by building a new spec (dataclasses.replace does), not
    by assigning to it: the copies are derived once, here.
    """

    gram_xy: GramMatrix
    gram_y: GramMatrix
    gram_x: GramMatrix
    include_sup: bool = True
    include_lipschitz: bool = True
    include_operator_norm: bool = False
    _gather: np.ndarray = field(init=False, repr=False, compare=False)
    _divisors: np.ndarray = field(init=False, repr=False, compare=False)
    _blocks: np.ndarray | None = field(init=False, repr=False, compare=False)
    _second: np.ndarray = field(init=False, repr=False, compare=False)
    _divisor_list: list = field(init=False, repr=False, compare=False)
    _pair_list: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.include_sup or self.include_lipschitz or self.include_operator_norm):
            raise ValueError("at least one W term must be enabled")
        x_space, y_space, xy = self.gram_x.points, self.gram_y.points, self.gram_xy.points
        if not (isinstance(xy, ProductSpace) and xy.left == x_space and xy.right == y_space):
            raise ValueError("gram_xy must live on the product of gram_x and gram_y points")
        pairs, dists = _lipschitz_pairs(x_space, self.include_lipschitz)
        n_sup = x_space.size if self.include_sup else 0
        self._gather = np.concatenate((np.arange(n_sup), pairs[0]))
        factored = isinstance(self.gram_xy, KroneckerGram) and (
            self.gram_xy.right is self.gram_y
            or np.array_equal(self.gram_xy.right.values, self.gram_y.values)
        )
        a = np.ones(n_sup)
        self._blocks = None
        if n_sup and factored:
            a += np.sqrt(np.maximum(self.gram_xy.left.diag, 0.0))
        elif n_sup and isinstance(self.gram_xy, KroneckerGram):
            # the products np.kron forms, without building the dense matrix
            self._blocks = self.gram_xy.left.diag[:, None, None] * self.gram_xy.right.values
        elif n_sup:
            nx, ny = x_space.size, y_space.size
            self._blocks = np.einsum("iyiz->iyz", self.gram_xy.values.reshape(nx, ny, nx, ny)).copy()
        self._divisors = np.concatenate((1.0 / a, dists))
        self._second = np.ascontiguousarray(pairs[1])
        self._divisor_list = self._divisors.tolist()
        self._pair_list = pairs.T.tolist()

    @classmethod
    def from_kernel(
        cls,
        k: KernelSpec,
        x_space: FiniteSpace,
        y_space: FiniteSpace,
        include_sup: bool = True,
        include_lipschitz: bool = True,
        include_operator_norm: bool = False,
    ) -> "WFunctionalSpec":
        """k's three Gram matrices; the terms default as the fields do, at every |X|.

        A factored product Gram already holds gram(k, y_space) as its right
        factor, and gram(k, x_space) as its left one when k's scale is 1
        (see gram), so each factor is built and eigen-checked once.
        """
        gram_xy = gram(k, ProductSpace(x_space, y_space))
        if isinstance(gram_xy, KroneckerGram):
            gram_y = gram_xy.right
            gram_x = gram_xy.left if k.scale == 1.0 else gram(k, x_space)
        else:
            gram_y, gram_x = gram(k, y_space), gram(k, x_space)
        return cls(
            gram_xy=gram_xy,
            gram_y=gram_y,
            gram_x=gram_x,
            include_sup=include_sup,
            include_lipschitz=include_lipschitz,
            include_operator_norm=include_operator_norm,
        )

    def _value_grad(self, rows: np.ndarray):
        """Value and row-gradient of (sup + lipschitz)^2, in one pass, whatever the flags.

        Every piece is a norm of a constant linear map of the rows. The rows
        and the Lipschitz pair differences are stacked (by the gather indices
        of the spec) into one gram_y.sq_norms call, and each piece is the
        norm of its stack row over the spec's divisor (see WFunctionalSpec):
        a_i ||r_i||_{G_Y} for sup row i, ||r_i - r_j||_{G_Y} / d_ij for a
        Lipschitz pair. Each max is an argmax on its slice, and the gradient
        of the active piece is G_Y times its stack row over (norm * divisor).
        The active piece, its norm and divisor are read as Python floats and
        the active pair as Python ints, from the spec's copies: the same
        IEEE operations as on numpy scalars, without their dispatch.
        On a spec with _blocks, sup piece i adds graph row i's norm
        sqrt(q_i): b_i = B_i r_i comes from one batched matmul, and
        q_i = b_i . r_i takes gram_xy's roundoff rule (_clamp_roundoff). Its
        gradient on row i is b_i / sqrt(q_i). No product here reads a Gram
        but gram_y: the blocks were stored when the spec was built. The
        operator-norm term is never read here: w_functional adds it. One
        buffer sums the sup and Lipschitz gradients; every call computes them,
        after the value, which never reads them. The stack's Lipschitz tail and
        each gradient row are updated in place through views, so no row is
        copied back onto itself. Tiny or huge source
        distances can overflow the Lipschitz ratio or step to inf, so callers
        evaluate it under np.errstate.
        """
        total = 0.0
        sup = lip = None
        n_sup = len(rows) if self.include_sup else 0
        if len(self._gather):
            stack = rows.take(self._gather, axis=0)
            tail = stack[n_sup:]  # the Lipschitz pairs' first rows, a view
            tail -= rows.take(self._second, axis=0)
            g2, q = self.gram_y.sq_norms(stack)
            norms = np.sqrt(q)
            pieces = norms / self._divisors
        if n_sup:
            phi = pieces[:n_sup]
            if self._blocks is not None:
                b = np.matmul(self._blocks, rows[:, :, None])[:, :, 0]
                ng_norm = np.sqrt(self.gram_xy._clamp_roundoff(np.einsum("iy,iy->i", b, rows), rows))
                phi = phi + ng_norm
            sup = int(phi.argmax())
            total += phi.item(sup)
        if len(self._pair_list):
            p = n_sup + int(pieces[n_sup:].argmax())
            piece = pieces.item(p)
            total += piece
            if piece > 0:
                lip = p
        grad = np.zeros(rows.shape)
        if sup is not None:
            norm = norms.item(sup)
            if norm > 0:
                np.divide(g2[sup], norm * self._divisor_list[sup], out=grad[sup])
            if self._blocks is not None and ng_norm[sup] > 0:
                row = grad[sup]
                row += b[sup] / ng_norm[sup]
        if lip is not None:
            i, j = self._pair_list[lip - n_sup]
            step = g2[lip] / (norms.item(lip) * self._divisor_list[lip])
            row = grad[i]
            row += step
            row = grad[j]
            row -= step
        grad *= 2.0 * total
        return total * total, grad


def _lipschitz_pairs(x_space: FiniteSpace, include: bool):
    """The source pairs the Lipschitz term scans: (pairs, dists).

    Pair k is (pairs[0, k], pairs[1, k]) at coordinate distance dists[k].
    The term is the exact all-pairs maximum at every |X|: neighbours in
    coordinate order on 1-D sources, all pairs otherwise. A distance of 0
    among them, a repeated source coordinate, raises ValueError naming
    both labels: no finite Lipschitz constant spans it.
    """
    if not include or x_space.size < 2:
        return np.zeros((2, 0), dtype=int), np.zeros(0)
    if x_space.coords is None:
        raise ValueError("the Lipschitz term needs coordinates on the source")
    c = x_space.coords
    if c.shape[1] == 1:
        # the row distance is a seminorm: for i < j < k in coordinate order, ||r_i - r_k||
        # <= ||r_i - r_j|| + ||r_j - r_k|| <= L |x_i - x_k|, so neighbours attain the max
        order = np.argsort(c[:, 0], kind="stable")
        pairs = np.stack((order[:-1], order[1:]))
    else:
        pairs = np.array(np.triu_indices(x_space.size, 1))
    # hypot keeps tiny distances nonzero and lets huge ones read inf; on 1-D it is |dx|
    with np.errstate(over="ignore"):
        dists = np.hypot.reduce(np.abs(c[pairs[0]] - c[pairs[1]]), axis=1)
    if not dists.all():
        i, j = pairs[:, dists.argmin()]
        raise ValueError(
            f"source points {x_space.labels[i]!r} and {x_space.labels[j]!r} share a "
            "coordinate: the Lipschitz term needs distinct ones"
        )
    return pairs, dists


def w_functional(h: MarkovKernel, spec: WFunctionalSpec) -> float:
    """The regularizer (sup + lipschitz + opnorm)^2 of a hypothesis."""
    if h.source != spec.gram_x.points or h.target != spec.gram_y.points:
        raise ValueError("hypothesis grids do not match the W geometry")
    with np.errstate(all="ignore"):  # see _value_grad: a ratio may overflow to inf
        value = spec._value_grad(h.matrix)[0]
    if spec.include_operator_norm:  # sqrt undoes a binary square exactly, barring underflow
        root = math.sqrt(value) + embedded_operator_norm(h, spec.gram_x, spec.gram_xy)
        value = root * root
    return value


# ---------------------------------------------------------------------------
# regularized estimation
# ---------------------------------------------------------------------------
def _objective_rows(mu_x, target, gamma: float, gXY: GramMatrix, spec: WFunctionalSpec):
    """The fit's objective fidelity^2 + gamma * W as a function of the rows.

    Every call returns (value, gradient); a caller that needs only the
    value takes element 0. The value is computed first and never reads
    the gradient. The fidelity's square and gradient come from one
    GramMatrix.sq_norms product, under the roundoff rule of mmd and the
    W terms. mu_x, of shape (|X|, 1), and 2 mu_x are repeated once into
    full (|X|, |Y|) grids held flat, so each evaluation multiplies arrays
    of one shape: an (|X|, 1) broadcast costs about twice as much on
    these tiny grids, and every product keeps its bits.
    """
    mu = np.repeat(mu_x, target.shape[1], axis=1).reshape(1, -1)
    two_mu = 2.0 * mu
    flat_target = target.reshape(1, -1)

    def objective_rows(rows):
        d = mu * rows.reshape(1, -1)
        d -= flat_target
        dg, q = gXY.sq_norms(d)
        wval, grad = spec._value_grad(rows)
        value = q.item() + gamma * wval
        grad *= gamma
        dg *= two_mu
        grad += dg.reshape(rows.shape)
        return value, grad

    return objective_rows


@dataclass
class RegularizedFit:
    """The result of regularized_estimate.

    `objective` is trace[-1], the best value after the last step: the value at h.
    eps_certificate is computed on first read and cached: the margin
    (clamped at 0) by which 16 random probe kernels drawn from the fit's
    seed failed to beat `objective` (see _probe_rows). It is a sanity
    check, not a bound on suboptimality. The keyword-only fields are
    what it reads: the objective's terms and the seed, copied at fit
    time. Two threads that read it first compute the same bits.
    """

    h: MarkovKernel
    trace: list[float]
    _mu_x: np.ndarray = field(kw_only=True, repr=False, compare=False)
    _target: np.ndarray = field(kw_only=True, repr=False, compare=False)
    _gamma: float = field(kw_only=True, repr=False, compare=False)
    _gXY: GramMatrix = field(kw_only=True, repr=False, compare=False)
    _spec: WFunctionalSpec = field(kw_only=True, repr=False, compare=False)
    _seed: int = field(kw_only=True, repr=False, compare=False)

    @property
    def objective(self) -> float:
        return self.trace[-1]

    @functools.cached_property
    def eps_certificate(self) -> float:
        objective_rows = _objective_rows(self._mu_x, self._target, self._gamma, self._gXY, self._spec)
        with np.errstate(all="ignore"):  # see _value_grad: a probe's value may overflow to inf
            probe_best = min(
                objective_rows(r)[0]
                for r in _probe_rows(*self.h.matrix.shape, self._seed)
            )
        return max(0.0, self.objective - probe_best)


def regularized_estimate(
    S: Dataset,
    gamma: float,
    gXY: GramMatrix,
    spec: WFunctionalSpec,
    config: LearnerConfig | None = None,
) -> RegularizedFit:
    """Minimize embedded-fidelity^2 + gamma * W over all kernels on the grids.

    The fidelity compares the hypothesis' graph pushforward of the
    empirical input marginal against the empirical joint, in the
    geometry of gXY. Its square and gradient come from one
    GramMatrix.sq_norms product, under the roundoff rule of mmd and the
    W terms. W is the sup and Lipschitz terms of `spec`; a spec
    with the operator-norm term raises ValueError before any
    evaluation. The objective is convex over the product of row
    simplices, and one entropic mirror-descent run (see LearnerConfig)
    minimizes it. The result is never worse than the empirical section
    or the uniform kernel. Its rows, objective and trace ignore
    config.seed; eps_certificate does not. The fit evaluates no probe:
    it keeps the objective's terms and config.seed (as an int, so a
    later change to config does not reach it), and eps_certificate is
    computed from them on first read and cached (see RegularizedFit).
    It is a sanity check, not a bound on suboptimality. Callers
    expecting a gamma^2-minimizer should check eps_certificate <= gamma^2.
    """
    if len(S) == 0:
        raise ValueError("regularized_estimate needs a nonempty dataset")
    if not 0 < gamma < math.inf:
        raise ValueError("gamma must be finite and strictly positive")
    config = config or LearnerConfig()
    left, right = S.space.left, S.space.right
    if gXY.points != S.space:
        raise ValueError("gXY must live on the dataset's product space")
    if spec.gram_x.points != left or spec.gram_y.points != right:
        raise ValueError("W geometry does not match the dataset grids")
    if spec.include_operator_norm:
        raise ValueError(
            "regularized_estimate fits the sup and Lipschitz terms only; "
            "build the spec without the operator-norm term"
        )
    counts = S.counts()
    n = len(S)
    start, mass = _conditional_rows(counts)
    mu_x = mass[:, None] / n
    target = counts / n
    objective_rows = _objective_rows(mu_x, target, gamma, gXY, spec)
    best_rows, trace = _mirror_descent(objective_rows, start, config)
    return RegularizedFit(
        # start or a softmax of finite logits, new and kept by nothing else: ratios
        # of counts, or exp values in [0, 1] over sums >= 1, never -0.0
        h=MarkovKernel._derived(left, right, best_rows),
        trace=trace,
        _mu_x=mu_x,
        _target=target,
        _gamma=gamma,
        _gXY=gXY,
        _spec=spec,
        _seed=int(config.seed),
    )


# ---------------------------------------------------------------------------
# Newton interpolation of measure-valued nodes
# ---------------------------------------------------------------------------
class NewtonInterpolant:
    """Componentwise divided-difference polynomial through measure nodes.

    Evaluation returns a SignedMeasure whose weights sum to 1 within
    PROB_SUM_ATOL (the interpolant of constant data is that constant) or
    raises ValueError; between nodes the weights may leave the simplex,
    and `project=True` maps the queried value, not the nodes, onto it.
    """

    def __init__(self, nodes: Sequence[tuple[float, ProbMeasure]]):
        nodes = list(nodes)
        if not nodes:
            raise ValueError("at least one node is required")
        if len(nodes) > _MAX_NEWTON_NODES:
            raise ValueError(
                f"{len(nodes)} nodes exceed the conditioning guard of "
                f"{_MAX_NEWTON_NODES}; split the node set"
            )
        xs = np.array([float(x) for x, _ in nodes])
        if not np.isfinite(xs).all():
            bad = xs[~np.isfinite(xs)][0].item()
            raise ValueError(f"node abscissas must be finite, got {bad}")
        if len(set(xs.tolist())) != len(xs):
            raise ValueError("node abscissas must be distinct")
        space = nodes[0][1].space
        for _, m in nodes[1:]:
            if m.space != space:
                raise ValueError("all node measures must share one space")
        table = np.stack([m.weights for _, m in nodes]).astype(float)
        k = len(nodes)
        coeffs = [table[0].copy()]
        # a difference quotient over a tiny spacing can overflow; the table is checked below
        with np.errstate(over="ignore", invalid="ignore"):
            for order in range(1, k):
                table = (table[1:] - table[:-1]) / (xs[order:] - xs[:-order])[:, None]
                coeffs.append(table[0].copy())
        coeffs = np.stack(coeffs)
        if not np.isfinite(coeffs).all():
            raise ValueError(
                "the divided-difference table overflows: node abscissas are too close together"
            )
        self.space = space
        self.xs = xs
        self.coeffs = coeffs

    def __call__(self, x: float, project: bool = False) -> SignedMeasure:
        if not math.isfinite(x):
            raise ValueError(f"x must be finite, got {x}")
        acc = self.coeffs[-1].copy()
        # the products grow like x^(k-1): far from the nodes they overflow, or cancel the unit mass
        with np.errstate(over="ignore", invalid="ignore"):
            for order in range(len(self.xs) - 2, -1, -1):
                acc = acc * (x - self.xs[order]) + self.coeffs[order]
        try:  # fsum is exact; it raises on inf - inf and on partial sums that overflow
            mass = math.fsum(acc)
        except (ValueError, OverflowError):
            mass = math.nan
        if not math.isfinite(mass):  # a finite fsum has finite terms
            raise ValueError(f"the interpolant overflows at x = {x}")
        if not abs(mass - 1.0) <= PROB_SUM_ATOL:
            raise ValueError(f"the interpolant's weights sum to {mass!r} at x = {x}, not 1")
        if project:
            return ProbMeasure(self.space, _project_simplex(acc))
        return SignedMeasure(self.space, acc)


def newton_interpolant(nodes: Sequence[tuple[float, ProbMeasure]]) -> NewtonInterpolant:
    """Build the divided-difference interpolant through the given nodes."""
    return NewtonInterpolant(nodes)


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort method)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u * np.arange(1, len(v) + 1) > css)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)
