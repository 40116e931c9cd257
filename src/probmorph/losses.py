"""Loss functions for conditional-probability estimation.

The central loss compares a hypothesis kernel's row at x with the
observed label y inside a kernel's Hilbert space:

    loss(h, x, y) = ||M(h(x)) - K_y||^2
                  = <M(h(x)), M(h(x))> + K(y, y) - 2 <M(h(x)), K_y>.

Its expected risk over a joint measure splits into an excess term (the
embedded squared distance between h and the true conditional, averaged
over the input marginal) plus an irreducible term that does not depend
on h, so the true conditional is the minimizer.

Two "correct" losses on the joint level vanish exactly at conditionals
of the joint measure: the total variation distance between the graph
pushforward and the joint, and its embedded (MMD) counterpart.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._tol import INVARIANT_ATOL
from .kernels import GramMatrix, mmd
from .morphisms import MarkovKernel, SignedKernel, disintegrate, graph_pushforward
from .spaces import (
    Dataset,
    ProbMeasure,
    ProductSpace,
    SignedMeasure,
    SpaceMismatchError,
    marginal,
    tv_norm,
)


@dataclass
class RiskReport:
    """A risk value, optionally with the per-sample losses behind it."""

    value: float
    per_sample: list[float] | None = field(default=None)

    def to_json(self) -> dict:
        return {"value": self.value, "per_sample": self.per_sample}


def _check_joint(h: MarkovKernel, mu: SignedMeasure) -> ProductSpace:
    space = mu.space
    if (
        not isinstance(space, ProductSpace)
        or space.left != h.source
        or space.right != h.target
    ):
        raise SpaceMismatchError("joint measure does not match the hypothesis spaces")
    return space


def _loss_grid(h: MarkovKernel, g: GramMatrix) -> np.ndarray:
    """Matrix of instantaneous losses, indexed by (x, y)."""
    if g.points != h.target:
        raise SpaceMismatchError("Gram matrix does not live on the hypothesis target")
    hg, quad = g.sq_norms(h.matrix)
    return quad[:, None] + g.diag[None, :] - 2.0 * hg


def instantaneous_loss(h: MarkovKernel, x, y, gY: GramMatrix) -> float:
    """The embedded squared distance between h's row at x and the Dirac at y."""
    return float(_loss_grid(h, gY)[h.source.index(x), h.target.index(y)])


def _check_sample(h: MarkovKernel, S: Dataset) -> None:
    if len(S) == 0:
        raise ValueError("cannot evaluate a risk on an empty dataset")
    if S.space.left != h.source or S.space.right != h.target:
        raise SpaceMismatchError("dataset does not match the hypothesis spaces")


def _grid_expected_risk(grid: np.ndarray, mu: ProbMeasure) -> float:
    """The integral of a loss grid against a joint measure on its (x, y) cells."""
    return float(np.sum(mu.weights.reshape(grid.shape) * grid))


def _grid_empirical_risk(grid: np.ndarray, S: Dataset) -> RiskReport:
    """The mean of a loss grid over a dataset's cells, with the per-sample trail."""
    losses = grid.reshape(-1)[S.cells].tolist()
    return RiskReport(value=math.fsum(losses) / len(losses), per_sample=losses)


def expected_risk(h: MarkovKernel, mu: ProbMeasure, gY: GramMatrix) -> RiskReport:
    """Integral of the instantaneous loss against a joint measure."""
    _check_joint(h, mu)
    return RiskReport(value=_grid_expected_risk(_loss_grid(h, gY), mu))


def empirical_risk(h: MarkovKernel, S: Dataset, gY: GramMatrix) -> RiskReport:
    """Mean instantaneous loss over a dataset, with the per-sample trail."""
    _check_sample(h, S)
    return _grid_empirical_risk(_loss_grid(h, gY), S)


def _risk_gap(h: MarkovKernel, mu: ProbMeasure, S: Dataset, gY: GramMatrix) -> float:
    """expected_risk(h, mu, gY) - empirical_risk(h, S, gY), from one loss grid."""
    _check_joint(h, mu)
    _check_sample(h, S)
    grid = _loss_grid(h, gY)
    return _grid_expected_risk(grid, mu) - _grid_empirical_risk(grid, S).value


def excess_risk(h: MarkovKernel, mu: ProbMeasure, gY: GramMatrix) -> float:
    """Risk above the minimum: the input-averaged squared row MMD to the conditional.

    Equals expected_risk(h) - expected_risk(conditional of mu); zero
    exactly when h agrees with the conditional wherever the input
    marginal has mass (for an injective embedding).
    """
    _check_joint(h, mu)
    mu_x, cond = disintegrate(mu)
    return float(mu_x.weights @ _row_sq_mmd(h, cond, gY))


def _row_sq_mmd(f: SignedKernel, h: SignedKernel, gY: GramMatrix) -> np.ndarray:
    """The squared embedded distance between the rows of f and h, one per input.

    Roundoff below zero is read as 0 by GramMatrix.sq_norms.
    """
    if f.source != h.source or f.target != h.target or gY.points != f.target:
        raise SpaceMismatchError("the kernels and the Gram matrix do not share grids")
    return gY.sq_norms(f.matrix - h.matrix)[1]


def sup_row_mmd(f: SignedKernel, h: SignedKernel, gY: GramMatrix) -> float:
    """d_inf(f, h): the largest embedded distance between two kernels' rows."""
    return math.sqrt(float(_row_sq_mmd(f, h, gY).max()))


def tv_correct_loss(h: MarkovKernel, mu: ProbMeasure, k: int = 1) -> float:
    """Total variation distance between the graph pushforward and mu, to the k-th power."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    _check_joint(h, mu)
    mu_x = marginal(mu, "left")
    gap = graph_pushforward(h, mu_x) - mu
    return tv_norm(gap) ** k


def mmd_correct_loss(h: MarkovKernel, mu: ProbMeasure, gXY: GramMatrix) -> float:
    """Embedded distance between the graph pushforward and mu on the product space."""
    _check_joint(h, mu)
    mu_x = marginal(mu, "left")
    return mmd(gXY, graph_pushforward(h, mu_x), mu)


class BHCheck(NamedTuple):
    l1: float
    kl: float
    bound: float
    holds: bool


def kl_and_bh_check(p: ProbMeasure, f: ProbMeasure) -> BHCheck:
    """L1 distance, KL divergence, and the 2 sqrt(1 - exp(-KL)) bound.

    KL uses natural logarithm with the 0 log 0 = 0 convention; when p
    puts mass where f has none the divergence is infinite and the
    bound saturates at 2, which always dominates the L1 distance.
    """
    if p.space != f.space:
        raise SpaceMismatchError("measures live on different spaces")
    l1 = tv_norm(p - f)
    pw, fw = p.weights, f.weights
    support = pw > 0.0
    if np.any(fw[support] == 0.0):
        kl = math.inf
        bound = 2.0
    else:
        kl = float(np.sum(pw[support] * np.log(pw[support] / fw[support])))
        # kl >= 0 up to roundoff; guard the radicand against tiny negatives
        bound = 2.0 * math.sqrt(max(0.0, 1.0 - math.exp(-kl)))
    holds = l1 <= bound + INVARIANT_ATOL
    return BHCheck(l1=l1, kl=kl, bound=bound, holds=holds)
