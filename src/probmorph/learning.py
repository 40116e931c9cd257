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
    mirror-descent run. `seed` drives only the random probes behind
    eps_certificate. `restarts` is validated but not read; it is kept so
    existing configs stay valid.
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


# ---------------------------------------------------------------------------
# mirror descent over row simplices
# ---------------------------------------------------------------------------
def _softmax_rows(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


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
            gap = float(np.vdot(grad, rows) - grad.min(axis=1).sum())
            if t == config.max_iters or gap <= config.tol:
                break
            z = z - config.step_size / (math.sqrt(t + 1) * abs(grad).max()) * grad
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
    trace: list[float] = field(default_factory=list)


def cerm(cls, S: Dataset, gY: GramMatrix, config: LearnerConfig | None = None) -> CermResult:
    """Empirical risk minimization with a certified optimality gap of 0.

    The risk is empirical_risk under the label Gram matrix gY. Finite
    classes are enumerated exactly. Over a ParametricClass the
    risk at input x is n_x times the squared embedded distance from the
    row to the empirical conditional row at x, plus a constant, so the
    empirical section minimizes it in closed form: conditional rows at
    observed inputs, uniform rows elsewhere. The minimizer is unique at
    observed inputs when the label kernel is characteristic.
    `config` is accepted for call compatibility; no field of it is read.
    """
    if len(S) == 0:
        raise ValueError("cerm needs a nonempty dataset")
    if isinstance(cls, FiniteClass):
        values = [empirical_risk(h, S, gY).value for h in cls]
        best = int(np.argmin(values))
        return CermResult(h=cls.kernels[best], certified_gap=0.0, risk=values[best])

    h = MarkovKernel(cls.source, cls.target, _conditional_rows(S.counts()))
    value = empirical_risk(h, S, gY).value
    return CermResult(h=h, certified_gap=0.0, risk=value, trace=[value])


def _probe_rows(nx: int, ny: int, seed: int) -> list[np.ndarray]:
    """Random coarse candidates, evaluated without descent."""
    rows = []
    for r in range(16):
        # 104729 is an arbitrary fixed tag; changing it changes every eps_certificate
        rng = np.random.default_rng((seed, 104729, r))
        rows.append(_softmax_rows(2.0 * rng.standard_normal((nx, ny))))
    return rows


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

    Construction precomputes the pieces every evaluation reads: the
    Lipschitz pairs, their coordinate distances (1 at a zero distance)
    and the indices of the pairs at zero distance, and the sum-zero
    basis whitened by gram_x for the operator norm. Change a field by
    building a new spec, not by assigning to it.
    """

    gram_xy: GramMatrix
    gram_y: GramMatrix
    gram_x: GramMatrix
    include_sup: bool = True
    include_lipschitz: bool = True
    include_operator_norm: bool = False
    _pairs: np.ndarray = field(init=False, repr=False, compare=False)
    _dists: np.ndarray = field(init=False, repr=False, compare=False)
    _zero: np.ndarray = field(init=False, repr=False, compare=False)
    _basis: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.include_sup or self.include_lipschitz or self.include_operator_norm):
            raise ValueError("at least one W term must be enabled")
        x_space = self.gram_x.points
        if self.gram_xy.points != ProductSpace(x_space, self.gram_y.points):
            raise ValueError("gram_xy must live on the product of gram_x and gram_y points")
        # a source without coordinates or a degenerate source Gram is rejected here
        self._pairs, self._dists, self._zero = _lipschitz_pairs(x_space, self.include_lipschitz)
        self._basis = None
        if self.include_operator_norm and x_space.size > 1:
            self._basis = _sum_zero_pencil(self.gram_x)

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

        The gradient of a graph norm ||sum_i u_i (graph row i)|| under gram_xy
        is u * G_XY(u * rows) / norm. Those of the sup row and of every tied top
        eigenvector come from one batched gram_xy.apply. One buffer sums the
        terms' gradients in the fixed order sup, Lipschitz, operator norm.
        """
        # m[i, j]: the embedded inner product of graph rows i and j
        m = self.gram_xy.pair_form(rows) if self.include_sup or self._basis is not None else None
        total = 0.0
        us = []  # graph-norm weights: the sup row's, then the tied top eigenvectors
        sup = lip = opnorm = None
        if self.include_sup:
            g2r, qy = self.gram_y.sq_norms(rows)
            ny_norm = np.sqrt(qy)
            # graph row i is rows[i] on {x_i} x Y, so it has the l1 norm of rows[i]
            ng_norm = np.sqrt(self.gram_xy._clamp_roundoff(m.diagonal(), rows))
            phi = ny_norm + ng_norm
            i = int(phi.argmax())
            total += float(phi[i])
            sup = i, ng_norm[i], g2r[i] / ny_norm[i] if ny_norm[i] > 0 else None
            if ng_norm[i] > 0:
                us.append(np.eye(1, len(rows), i))
        if len(self._dists):
            a, b = rows[self._pairs]
            g2d, q = self.gram_y.sq_norms(a - b)
            ratios = np.sqrt(q) / self._dists
            if len(self._zero):
                if (q[self._zero] > 1e-20).any():
                    raise ValueError("duplicate source coordinates with differing rows")
                ratios[self._zero] = 0.0
            p = int(ratios.argmax())
            total += float(ratios[p])
            if ratios[p] > 0:
                lip = self._pairs[:, p], g2d[p] / (math.sqrt(q[p]) * self._dists[p])
        if self._basis is not None:
            lam, tied = _top_eigspace(m, self._basis)
            if lam > 0.0:
                o = math.sqrt(lam)
                total += o
                us.append(tied.T)
                opnorm = o, tied.shape[1]
        if not want_grad:
            return total * total, None
        if us:
            u = np.concatenate(us)[:, :, None]
            graph_grads = u * self.gram_xy.apply(u * rows)  # each still over its norm
        grad = np.zeros(rows.shape)
        if sup is not None:
            i, ng, row_step = sup
            if ng > 0:
                grad = graph_grads[0] / ng
            if row_step is not None:
                grad[i] += row_step
        if lip is not None:
            (i, j), step = lip
            grad[i] += step
            grad[j] -= step
        if opnorm is not None:
            # the mean over a tied top eigenspace does not depend on the basis eigh picks in it
            o, k = opnorm
            grad += (graph_grads[-k:] / o).sum(axis=0) / k
        grad *= 2.0 * total
        return total * total, grad


def _lipschitz_pairs(x_space: FiniteSpace, include: bool):
    """The source pairs the Lipschitz term scans: (pairs, dists, zero).

    Pair k is (pairs[0, k], pairs[1, k]) at coordinate distance dists[k];
    `zero` indexes the pairs at distance 0, whose dists entry reads 1.
    The term is the exact all-pairs maximum at every |X|: neighbours in
    coordinate order on 1-D sources, all pairs otherwise.
    """
    if not include or x_space.size < 2:
        return np.zeros((2, 0), dtype=int), np.zeros(0), np.zeros(0, dtype=int)
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
    dists = np.linalg.norm(c[pairs[0]] - c[pairs[1]], axis=1)
    zero = np.flatnonzero(dists == 0.0)
    return pairs, np.where(dists == 0.0, 1.0, dists), zero


def w_functional(h: MarkovKernel, spec: WFunctionalSpec) -> float:
    """The regularizer (sup + lipschitz + opnorm)^2 of a hypothesis."""
    if h.source != spec.gram_x.points or h.target != spec.gram_y.points:
        raise ValueError("hypothesis grids do not match the W geometry")
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
    beat the returned optimum: a sanity check, not a bound on
    suboptimality. Callers expecting a
    gamma^2-minimizer should check eps_certificate <= gamma^2.
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
    mu_x = counts.sum(axis=1) / n
    target = counts / n

    def objective_rows(rows, want_grad=True):
        d = mu_x[:, None] * rows - target
        g1d = gXY.apply(d)
        fid = float(np.vdot(d, g1d))
        wval, wgrad = spec._value_grad(rows, want_grad)
        value = fid + gamma * wval
        if not want_grad:
            return value, None
        grad = 2.0 * mu_x[:, None] * g1d + gamma * wgrad
        return value, grad

    best_rows, best_val, trace = _mirror_descent(objective_rows, _conditional_rows(counts), config)
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
