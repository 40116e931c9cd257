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
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from ._tol import INVARIANT_ATOL
from .kernels import GramMatrix, mmd
from .morphisms import MarkovKernel, SignedKernel, disintegrate, graph_pushforward
from .spaces import (
    Dataset,
    ProbMeasure,
    ProductSpace,
    SpaceMismatchError,
    marginal,
    tv_norm,
)


@dataclass
class RiskReport:
    """A risk value, optionally with the per-sample losses behind it."""

    value: float
    per_sample: list[float] | None = field(default=None)


def _check_joint(h: MarkovKernel, mu: ProbMeasure) -> ProductSpace:
    if not isinstance(mu, ProbMeasure):
        raise TypeError(f"mu must be a ProbMeasure, got {type(mu).__name__}")
    space = mu.space
    if (
        not isinstance(space, ProductSpace)
        or space.left != h.source
        or space.right != h.target
    ):
        raise SpaceMismatchError("joint measure does not match the hypothesis spaces")
    return space


def _check_gram(h: SignedKernel, g: GramMatrix) -> None:
    if g.points != h.target:
        raise SpaceMismatchError("Gram matrix does not live on the hypothesis target")


def _loss_grid(h: MarkovKernel, g: GramMatrix) -> np.ndarray:
    """Matrix of instantaneous losses, indexed by (x, y).

    grid[x, y] = ||M(h(x))||^2 + K(y, y) - 2 <M(h(x)), K_y>, from one
    g.sq_norms(h.matrix) product.
    """
    _check_gram(h, g)
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


def _expected_risks(grids: np.ndarray, mu: ProbMeasure) -> np.ndarray:
    """The integrals of a stack of loss grids against a joint measure on their (x, y) cells.

    One reduction per grid, over its cells in row-major order: the
    pairwise sum np.sum takes over the grid alone, so the stack does
    not change the bits.
    """
    return np.add.reduce(mu.weights * grids.reshape(len(grids), -1), axis=1)


def expected_risk(h: MarkovKernel, mu: ProbMeasure, gY: GramMatrix) -> RiskReport:
    """Integral of the instantaneous loss against a joint measure."""
    _check_joint(h, mu)
    return RiskReport(value=float(_expected_risks(_loss_grid(h, gY)[None], mu)[0]))


def empirical_risk(h: MarkovKernel, S: Dataset, gY: GramMatrix) -> RiskReport:
    """Mean instantaneous loss over a dataset, with the per-sample trail.

    The trail reads the loss grid at the dataset's cells in sample order;
    the mean is their math.fsum over the sample size.
    """
    _check_sample(h, S)
    losses = _loss_grid(h, gY).reshape(-1)[S.cells].tolist()
    return RiskReport(value=math.fsum(losses) / len(losses), per_sample=losses)


def _deviation_terms(
    f: MarkovKernel, g: MarkovKernel, mu: ProbMeasure, S: Dataset, gY: GramMatrix
) -> tuple[float, float]:
    """(|<mu - mu_S, l_f - l_g>|, d_inf(f, g)) from one Gram product of f - g.

    The first term is |(R_mu(f) - Rhat_S(f)) - (R_mu(g) - Rhat_S(g))|:
    both risks are linear in the measure, so the two risk gaps differ by
    the integral of l_f - l_g against mu minus the empirical measure
    mu_S. Per cell,

        l_f(x, y) - l_g(x, y) = <M(f_x - g_x), M(f_x + g_x) - 2 K_y>
                              = <G(f_x - g_x), f_x + g_x> - 2 (G(f_x - g_x))_y,

    since K(y, y) cancels; this is the identity behind the 8 C_K d_inf
    bound. So one gY.sq_norms(f - g) product gives both the rows
    G(f_x - g_x) and the squared row distances, whose largest root is
    d_inf: the product sup_row_mmd(f, g, gY) forms. mu_S is S.counts()
    over len(S), as empirical builds it, and the integral is one np.dot
    over the cells. The first term is thus not the difference of the
    public risks: it skips their cancellation of four O(1) terms and
    stays within a priori roundoff bounds of the exact value of the
    floats it is given.
    """
    _check_joint(f, mu)
    _check_sample(f, S)
    if g.source != f.source or g.target != f.target:  # mu fits f, so it does not fit g
        raise SpaceMismatchError("joint measure does not match the hypothesis spaces")
    _check_gram(f, gY)
    hg, sq = gY.sq_norms(f.matrix - g.matrix)
    loss_gap = np.vecdot(hg, f.matrix + g.matrix)[:, None] - 2.0 * hg
    mu_s = S.counts().reshape(-1) / len(S)
    lhs = abs(float(np.dot(mu.weights - mu_s, loss_gap.reshape(-1))))
    return lhs, float(_d_inf(sq))


def excess_risk(h: MarkovKernel, mu: ProbMeasure, gY: GramMatrix) -> float:
    """Risk above the minimum: the input-averaged squared row MMD to the conditional.

    Equals expected_risk(h) - expected_risk(conditional of mu); zero
    exactly when h agrees with the conditional wherever the input
    marginal has mass (for an injective embedding).
    """
    _check_joint(h, mu)
    _check_gram(h, gY)
    mu_x, cond = disintegrate(mu)
    return float(mu_x.weights @ gY.sq_norms(h.matrix - cond.matrix)[1])


def _d_inf(sq: np.ndarray) -> np.ndarray:
    """d_inf from squared row distances: the square root of the largest along the last axis."""
    return np.sqrt(np.maximum.reduce(sq, axis=-1))


def _sup_row_mmd_matrix(kernels: Sequence[SignedKernel], gY: GramMatrix) -> np.ndarray:
    """d[i, j] = d_inf(kernels[i], kernels[j]), from one GramMatrix.sq_norms product per member.

    Member i's rows minus the rows of every later member form one stack,
    so n members take n - 1 products; sup_row_mmd is the two-member case.
    d[i, j] has the bits of sup_row_mmd(kernels[i], kernels[j]) where BLAS
    rounds a row's products alike wherever the row sits in memory. That
    was measured, on the delta and a gaussian label Gram, for OpenBLAS's
    SandyBridge, Haswell and SkylakeX kernels. The dot product of its
    older Katmai kernels (OPENBLAS_CORETYPE=Prescott) rounds a row by its
    place in memory, so there the squared norms, and d, differ even for
    the delta Gram. The two then agree within roundoff.
    """
    f = kernels[0]
    if gY.points != f.target or any(h.source != f.source or h.target != f.target for h in kernels):
        raise SpaceMismatchError("the kernels and the Gram matrix do not share grids")
    m = np.stack([h.matrix for h in kernels])
    k, nx, ny = m.shape
    d = np.zeros((k, k))
    for i in range(k - 1):
        sq = gY.sq_norms((m[i] - m[i + 1 :]).reshape(-1, ny))[1]
        d[i, i + 1 :] = d[i + 1 :, i] = _d_inf(sq.reshape(-1, nx))
    return d


def sup_row_mmd(f: SignedKernel, h: SignedKernel, gY: GramMatrix) -> float:
    """d_inf(f, h): the largest embedded distance between two kernels' rows."""
    return float(_sup_row_mmd_matrix([f, h], gY)[0, 1])


def tv_correct_loss(h: MarkovKernel, mu: ProbMeasure, k: int = 1) -> float:
    """Total variation distance between the graph pushforward and mu, to the k-th power."""
    if not isinstance(k, numbers.Integral) or k < 1:
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
