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


def _check_joint(h: MarkovKernel, mu: SignedMeasure) -> ProductSpace:
    space = mu.space
    if (
        not isinstance(space, ProductSpace)
        or space.left != h.source
        or space.right != h.target
    ):
        raise SpaceMismatchError("joint measure does not match the hypothesis spaces")
    return space


def _loss_grids(rows: np.ndarray, g: GramMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Instantaneous losses of a stack of rows on g's points, and the rows' squared norms.

    grid[r, y] = ||M(rows[r])||^2 + K(y, y) - 2 <M(rows[r]), K_y>, with
    q[r] = ||M(rows[r])||^2, from one GramMatrix.sq_norms product.
    """
    hg, quad = g.sq_norms(rows)
    return quad[:, None] + g.diag[None, :] - 2.0 * hg, quad


def _check_gram(h: SignedKernel, g: GramMatrix) -> None:
    if g.points != h.target:
        raise SpaceMismatchError("Gram matrix does not live on the hypothesis target")


def _loss_grid(h: MarkovKernel, g: GramMatrix) -> np.ndarray:
    """Matrix of instantaneous losses, indexed by (x, y)."""
    _check_gram(h, g)
    return _loss_grids(h.matrix, g)[0]


def instantaneous_loss(h: MarkovKernel, x, y, gY: GramMatrix) -> float:
    """The embedded squared distance between h's row at x and the Dirac at y."""
    return float(_loss_grid(h, gY)[h.source.index(x), h.target.index(y)])


def _check_sample(h: MarkovKernel, S: Dataset) -> None:
    if len(S) == 0:
        raise ValueError("cannot evaluate a risk on an empty dataset")
    if S.space.left != h.source or S.space.right != h.target:
        raise SpaceMismatchError("dataset does not match the hypothesis spaces")


def _expected_risks(grids: np.ndarray, mu: ProbMeasure) -> np.ndarray:
    """The integrals of a stack of loss grids against a joint measure on their (x, y) cells.

    One reduction per grid, over its cells in row-major order: the
    pairwise sum np.sum takes over the grid alone, so the stack does
    not change the bits.
    """
    return np.add.reduce(mu.weights * grids.reshape(len(grids), -1), axis=1)


def _empirical_losses(grids: np.ndarray, S: Dataset) -> list[list[float]]:
    """Each loss grid of a stack read at a dataset's cells, in sample order."""
    return grids.reshape(len(grids), -1)[:, S.cells].tolist()


def expected_risk(h: MarkovKernel, mu: ProbMeasure, gY: GramMatrix) -> RiskReport:
    """Integral of the instantaneous loss against a joint measure."""
    _check_joint(h, mu)
    return RiskReport(value=float(_expected_risks(_loss_grid(h, gY)[None], mu)[0]))


def empirical_risk(h: MarkovKernel, S: Dataset, gY: GramMatrix) -> RiskReport:
    """Mean instantaneous loss over a dataset, with the per-sample trail."""
    _check_sample(h, S)
    (losses,) = _empirical_losses(_loss_grid(h, gY)[None], S)
    return RiskReport(value=math.fsum(losses) / len(losses), per_sample=losses)


def _deviation_terms(
    f: MarkovKernel, g: MarkovKernel, mu: ProbMeasure, S: Dataset, gY: GramMatrix
) -> tuple[float, float, float]:
    """(R_mu(f) - Rhat_S(f), R_mu(g) - Rhat_S(g), d_inf(f, g)) from one Gram product.

    The rows of f, g and f - g go through one GramMatrix.sq_norms
    product, which gives both loss grids and the squared row distances.
    The expected parts come from one reduction and the empirical parts
    through math.fsum, as the public risks compute them. So the terms are
    the public risks' and sup_row_mmd's bit for bit where BLAS rounds a
    row alike at every stack height, as on a diagonal (delta) Gram, and
    within roundoff elsewhere.
    """
    for h in (f, g):  # mu on f's grids and on g's puts f and g on the same grids
        _check_joint(h, mu)
        _check_sample(h, S)
    _check_gram(f, gY)
    n = f.source.size
    grids, sq = _loss_grids(np.concatenate([f.matrix, g.matrix, f.matrix - g.matrix]), gY)
    grids = grids[: 2 * n].reshape(2, n, -1)
    empirical = [math.fsum(losses) / len(S) for losses in _empirical_losses(grids, S)]
    gap_f, gap_g = [e - m for e, m in zip(_expected_risks(grids, mu).tolist(), empirical)]
    return gap_f, gap_g, math.sqrt(float(np.maximum.reduce(sq[2 * n :])))


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
