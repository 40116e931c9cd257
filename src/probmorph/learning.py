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
    pushforward and the empirical joint measure, and W is a squared
    sum of a sup term, a Lipschitz term, and an embedded operator
    norm. The objective is convex over the product of row simplices;
    one deterministic run of entropic mirror descent minimizes it.

The Newton interpolant turns finitely many (abscissa, measure) nodes
into a polynomial curve of signed measures that passes through the
nodes exactly and whose components always sum to one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .kernels import GramMatrix, KernelSpec, gram
from .losses import empirical_risk
from .morphisms import MarkovKernel, _conditional_rows, _sum_zero_pencil, _top_eigspace
from .spaces import Dataset, FiniteSpace, ProbMeasure, ProductSpace, SignedMeasure

_MAX_NEWTON_NODES = 12


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
    """Default regularization weight: n^(-1/2)."""
    if n < 1:
        raise ValueError("sample size must be at least 1")
    return float(n) ** -0.5


@dataclass
class LearnerConfig:
    """Optimizer knobs of regularized_estimate.

    The fit is deterministic: max_iters, step_size and tol steer the one
    mirror-descent run, which stops early once its Frank-Wolfe gap is at
    most tol, so tol must be >= 0. `seed` drives only the random probes behind
    eps_certificate. `restarts` is validated but not read; perfbench's
    workloads still pass it.
    """

    restarts: int = 8
    max_iters: int = 500
    step_size: float = 0.3
    tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be a positive integer")
        if self.max_iters < 0:
            raise ValueError("max_iters must be a nonnegative integer")
        if not 0 < self.step_size < math.inf:
            raise ValueError("step_size must be finite and strictly positive")
        if not self.tol >= 0:  # also refuses NaN, which no gap is ever <= to
            raise ValueError("tol must be a nonnegative number")


# ---------------------------------------------------------------------------
# mirror descent over row simplices
# ---------------------------------------------------------------------------
def _softmax_rows(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - np.maximum.reduce(z, axis=1, keepdims=True))
    return e / np.add.reduce(e, axis=1, keepdims=True)


def _mirror_descent(objective_rows, incumbent: np.ndarray, config: LearnerConfig):
    """Entropic mirror descent from uniform rows; returns (rows, value, trace).

    Each step is x <- softmax(log x - eta_t g) rowwise, a subgradient
    step normalized by eta_t = step_size / (sqrt(t + 1) max|g|). It
    needs no descent direction, so the kinks of the max terms in W do
    not stall it. The run stops after max_iters steps, or earlier once
    the Frank-Wolfe gap sum_x (<g_x, x_x> - min_j g_xj) is at most tol.
    The best rows seen, `incumbent` included, are returned; the trace
    holds their value after each step, so it never increases. A
    non-finite objective or step raises ArithmeticError.
    """
    z = np.zeros_like(incumbent)  # logits: softmax(log x) == softmax(z) rowwise
    best_rows = incumbent
    trace = []
    # an overflow surfaces as one of the two ArithmeticErrors, not as a warning
    with np.errstate(all="ignore"):
        best_val, _ = objective_rows(incumbent, want_grad=False)
        for t in range(config.max_iters + 1):
            rows = _softmax_rows(z)
            value, grad = objective_rows(rows)
            if not math.isfinite(value):
                raise ArithmeticError(f"non-finite objective {value!r} after {t} steps")
            if value < best_val:
                best_rows, best_val = rows, value
            trace.append(best_val)
            gap = float(np.vdot(grad, rows) - np.add.reduce(np.minimum.reduce(grad, axis=1)))
            if t == config.max_iters or gap <= config.tol:
                break
            scale = math.sqrt(t + 1) * np.maximum.reduce(abs(grad), axis=None)
            z = z - config.step_size / scale * grad
            if not np.isfinite(z).all():
                raise ArithmeticError(f"non-finite logits after {t + 1} steps")
    return best_rows, best_val, trace


# ---------------------------------------------------------------------------
# cerm
# ---------------------------------------------------------------------------
@dataclass
class CermResult:
    h: MarkovKernel
    certified_gap: float
    risk: float


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
    if len(S) == 0:
        raise ValueError("cerm needs a nonempty dataset")
    if isinstance(cls, FiniteClass):
        values = [empirical_risk(h, S, gY).value for h in cls]
        best = int(np.argmin(values))
        return CermResult(h=cls.kernels[best], certified_gap=0.0, risk=values[best])

    if (cls.source, cls.target) != (S.space.left, S.space.right):
        raise ValueError("the class's grids do not match the dataset's")
    h = empirical_section(S)
    return CermResult(h=h, certified_gap=0.0, risk=empirical_risk(h, S, gY).value)


def _probe_rows(nx: int, ny: int, seed: int) -> np.ndarray:
    """16 random coarse candidates, shape (16, nx, ny), evaluated without descent."""
    # one draw of all the logits; 104729 is an arbitrary fixed tag, and changing it
    # changes every eps_certificate
    z = 2.0 * np.random.default_rng((seed, 104729)).standard_normal((16 * nx, ny))
    return _softmax_rows(z).reshape(16, nx, ny)


def empirical_section(S: Dataset) -> MarkovKernel:
    """The empirical conditional kernel of a dataset.

    Rows at observed inputs are the conditional frequencies, rows at
    unobserved inputs are uniform; pushing the empirical input
    marginal through the graph reproduces the empirical joint measure.
    """
    if len(S) == 0:
        raise ValueError("cannot build an empirical section from no samples")
    return MarkovKernel(S.space.left, S.space.right, _conditional_rows(S.counts()))


# ---------------------------------------------------------------------------
# W functional
# ---------------------------------------------------------------------------
@dataclass
class WFunctionalSpec:
    """Which terms of the regularizer to enable, and their geometries.

    gram_xy embeds joint measures, gram_y embeds rows, gram_x embeds
    input measures (used by the operator-norm term). At least one term
    must be enabled.

    Construction checks the source geometry and precomputes the pieces
    every evaluation reads: the sum-zero basis whitened by gram_x for the
    operator norm, the Lipschitz pairs and their coordinate distances,
    which are all positive (a repeated source coordinate is refused
    here), and the gather indices that stack the sup term's rows and the
    pairs' first rows for one gram_y product. Change a field by building
    a new spec, not by assigning to it.
    """

    gram_xy: GramMatrix
    gram_y: GramMatrix
    gram_x: GramMatrix
    include_sup: bool = True
    include_lipschitz: bool = True
    include_operator_norm: bool = False
    _pairs: np.ndarray = field(init=False, repr=False, compare=False)
    _dists: np.ndarray = field(init=False, repr=False, compare=False)
    _gather: np.ndarray = field(init=False, repr=False, compare=False)
    _basis: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.include_sup or self.include_lipschitz or self.include_operator_norm):
            raise ValueError("at least one W term must be enabled")
        x_space, y_space, xy = self.gram_x.points, self.gram_y.points, self.gram_xy.points
        if not (isinstance(xy, ProductSpace) and xy.left == x_space and xy.right == y_space):
            raise ValueError("gram_xy must live on the product of gram_x and gram_y points")
        # refused here: a degenerate source Gram, then missing or repeated coordinates
        self._basis = None
        if self.include_operator_norm and x_space.size > 1:
            self._basis = _sum_zero_pencil(self.gram_x)
        self._pairs, self._dists = _lipschitz_pairs(x_space, self.include_lipschitz)
        sup_rows = np.arange(x_space.size if self.include_sup else 0)
        self._gather = np.concatenate((sup_rows, self._pairs[0]))

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
        """k's three Gram matrices; the terms default as the fields do, at every |X|."""
        return cls(
            gram_xy=gram(k, ProductSpace(x_space, y_space)),
            gram_y=gram(k, y_space),
            gram_x=gram(k, x_space),
            include_sup=include_sup,
            include_lipschitz=include_lipschitz,
            include_operator_norm=include_operator_norm,
        )

    def _value_grad(self, rows: np.ndarray, want_grad: bool = True):
        """Value and row-gradient of W(h) = (sup + lipschitz + opnorm)^2, in one pass.

        Every piece is a norm of a constant linear map of the rows. The rows
        and the Lipschitz pair differences are stacked (by the gather indices
        of the spec) into one gram_y.sq_norms call. Graph row i is rows[i] on
        {x_i} x Y, so its norm and gradient come from the i-th diagonal block
        of gram_xy (graph_sq_norms), and the sup gradient sits on row i only.
        Only the operator norm needs m, the Gram matrix of the graph rows:
        a graph norm ||sum_i u_i (graph row i)|| has the gradient
        u * G_XY(u * rows) / norm, and those of the tied top eigenvectors come
        from one batched gram_xy.apply. One buffer sums the terms' gradients
        in the fixed order sup, Lipschitz, operator norm. Tiny or huge source
        distances can overflow the Lipschitz ratio or step to inf, so callers
        evaluate it under np.errstate.
        """
        total = 0.0
        sup = lip = opnorm = None
        n_sup = len(rows) if self.include_sup else 0
        if len(self._gather):
            stack = rows.take(self._gather, axis=0)
            stack[n_sup:] -= rows.take(self._pairs[1], axis=0)
            g2, q = self.gram_y.sq_norms(stack)
        if n_sup:
            b, qg = self.gram_xy.graph_sq_norms(rows)
            ny_norm, ng_norm = np.sqrt(q[:n_sup]), np.sqrt(qg)
            phi = ny_norm + ng_norm
            sup = int(phi.argmax())
            total += float(phi[sup])
        if len(self._dists):
            g2d, qd = g2[n_sup:], q[n_sup:]
            ratios = np.sqrt(qd) / self._dists
            p = int(ratios.argmax())
            total += float(ratios[p])
            if ratios[p] > 0:
                lip = p
        if self._basis is not None:
            lam, tied = _top_eigspace(self.gram_xy.pair_form(rows), self._basis)
            if lam > 0.0:
                o = math.sqrt(lam)
                total += o
                opnorm = o, tied.T[:, :, None]
        if not want_grad:
            return total * total, None
        grad = np.zeros(rows.shape)
        if sup is not None:
            if ng_norm[sup] > 0:
                grad[sup] = b[sup] / ng_norm[sup]
            if ny_norm[sup] > 0:
                grad[sup] += g2[sup] / ny_norm[sup]
        if lip is not None:
            i, j = self._pairs[:, lip]
            step = g2d[lip] / (math.sqrt(qd[lip]) * self._dists[lip])
            grad[i] += step
            grad[j] -= step
        if opnorm is not None:
            # the mean over a tied top eigenspace does not depend on the basis eigh picks in it
            o, u = opnorm
            graph_grads = u * self.gram_xy.apply(u * rows)
            grad += (graph_grads / o).sum(axis=0) / len(u)
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
        value, _ = spec._value_grad(h.matrix, want_grad=False)
    return value


# ---------------------------------------------------------------------------
# regularized estimation
# ---------------------------------------------------------------------------
@dataclass
class RegularizedFit:
    h: MarkovKernel
    objective: float
    eps_certificate: float
    trace: list[float] = field(default_factory=list)


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
    geometry of gXY. The objective is convex over the product of row
    simplices, and one entropic mirror-descent run (see LearnerConfig)
    minimizes it. The result is never worse than the empirical section
    or the uniform kernel. Its rows, objective and trace ignore
    config.seed; eps_certificate does not. It is the margin (clamped at
    0) by which 16 random probe kernels drawn from the seed failed to
    beat the returned optimum (see _probe_rows): a sanity check, not a
    bound on suboptimality. Callers expecting a gamma^2-minimizer should
    check eps_certificate <= gamma^2.
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
    counts = S.counts()
    n = len(S)
    mu_x = counts.sum(axis=1)[:, None] / n
    two_mu_x = 2.0 * mu_x
    target = counts / n

    def objective_rows(rows, want_grad=True):
        d = mu_x * rows - target
        g1d = gXY.apply(d)
        fid = float(np.vdot(d, g1d))
        wval, grad = spec._value_grad(rows, want_grad)
        value = fid + gamma * wval
        if not want_grad:
            return value, None
        grad *= gamma
        g1d *= two_mu_x
        grad += g1d
        return value, grad

    best_rows, best_val, trace = _mirror_descent(objective_rows, _conditional_rows(counts), config)
    with np.errstate(all="ignore"):  # see _value_grad: a probe's value may overflow to inf
        probe_best = min(
            objective_rows(r, want_grad=False)[0]
            for r in _probe_rows(left.size, right.size, config.seed)
        )
    return RegularizedFit(
        h=MarkovKernel(left, right, best_rows),
        objective=best_val,
        eps_certificate=max(0.0, best_val - probe_best),
        trace=trace,
    )


# ---------------------------------------------------------------------------
# Newton interpolation of measure-valued nodes
# ---------------------------------------------------------------------------
class NewtonInterpolant:
    """Componentwise divided-difference polynomial through measure nodes.

    Evaluation returns a SignedMeasure whose weights sum to 1 (the
    interpolant of constant data is that constant); between nodes the
    weights may leave the simplex, and `project=True` maps the queried
    value onto the simplex without touching node values.
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
        if len(set(xs.tolist())) != len(xs):
            raise ValueError("node abscissas must be distinct")
        space = nodes[0][1].space
        for _, m in nodes[1:]:
            if m.space != space:
                raise ValueError("all node measures must share one space")
        table = np.stack([m.weights for _, m in nodes]).astype(float)
        k = len(nodes)
        coeffs = [table[0].copy()]
        for order in range(1, k):
            table = (table[1:] - table[:-1]) / (xs[order:] - xs[:-order])[:, None]
            coeffs.append(table[0].copy())
        self.space = space
        self.xs = xs
        self.coeffs = np.stack(coeffs)

    def __call__(self, x: float, project: bool = False) -> SignedMeasure:
        acc = self.coeffs[-1].copy()
        for order in range(len(self.xs) - 2, -1, -1):
            acc = acc * (x - self.xs[order]) + self.coeffs[order]
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
