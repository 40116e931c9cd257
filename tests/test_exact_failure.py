"""An exact oracle for the failure probabilities that monte_carlo_verify estimates.

On a finite joint every count vector of n draws over k cells can be
listed by stars and bars: there are C(n + k - 1, k - 1) of them. Each is
weighted by its multinomial pmf, computed from lgamma, and the failure
mass is summed with math.fsum, so the probability of a bound's failure
event is exact up to the pmf's roundoff. The tests check that each
bound is at least its exact failure probability, and that the Monte
Carlo Wilson interval covers the exact value about as often as a 95%
interval should. Every count vector is also fed through the verifier
itself, which must flag exactly the vectors the oracle counts as
failures, so the oracle weighs the harness's own event.
"""
import functools
import math

import numpy as np
import pytest

from probmorph import bounds
from probmorph.bounds import mmd_concentration_bound, monte_carlo_verify
from probmorph.kernels import KernelSpec, gram, mmd
from probmorph.learning import FiniteClass
from probmorph.losses import expected_risk, instantaneous_loss
from probmorph.morphisms import MarkovKernel
from probmorph.spaces import FiniteSpace, ProbMeasure, ProductSpace

X = FiniteSpace(["a", "b", "c"])
# labels 3 apart under a unit gaussian: losses reach almost 2, so deviations of 0.35-0.9 occur
Y = FiniteSpace(["u", "v"], coords=[[0.0], [3.0]])
G_Y = gram(KernelSpec("gaussian", sigma=1.0), Y)
JOINT = ProbMeasure(ProductSpace(X, Y), [0.2, 0.15, 0.1, 0.2, 0.15, 0.2])
MEMBERS = [
    MarkovKernel(X, Y, rows)
    for rows in ([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]], [[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]], [[0.5, 0.5]] * 3)
]
Y3 = FiniteSpace(["u", "v", "w"])
G_Y3 = gram(KernelSpec("delta"), Y3)
MU3 = ProbMeasure(Y3, [0.2, 0.3, 0.5])


@functools.cache
def _count_vectors(n: int, k: int) -> np.ndarray:
    """Every count vector of n draws over k cells, one per row (stars and bars)."""
    if k == 1:
        return np.array([[n]])
    return np.concatenate(
        [np.hstack([np.full((len(rest), 1), c), rest]) for c in range(n + 1) for rest in [_count_vectors(n - c, k - 1)]]
    )


def _pmf(counts: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """The multinomial probability of each count vector, from lgamma; every weight is positive."""
    log_factorial = np.array([math.lgamma(i + 1) for i in range(n + 1)])
    return np.exp(log_factorial[n] - log_factorial[counts].sum(axis=1) + counts @ np.log(weights))


def _risk_deviations(members, n: int) -> np.ndarray:
    """The sup over members of |empirical - expected risk| at every count vector of n draws."""
    losses = np.array([[instantaneous_loss(h, x, y, G_Y) for x in X.labels for y in Y.labels] for h in members])
    risks = np.array([expected_risk(h, JOINT, G_Y).value for h in members])
    return np.max(np.abs(_count_vectors(n, JOINT.space.size) @ losses.T / n - risks), axis=1)


def _exact_report(monkeypatch, name: str, n: int, level: float):
    """(the verifier's report over every count vector, the exact failure probability).

    The verifier scores each count vector once as a trial, so its failure
    rate must equal the oracle's share of failing vectors.
    """
    if name == "mmd_concentration":
        truth, subject, params = MU3, G_Y3, dict(delta=level)
        counts = _count_vectors(n, Y3.size)
        dev = mmd_concentration_bound(n, level, float(MU3.weights @ G_Y3.diag))
        failed = np.array([mmd(G_Y3, ProbMeasure(Y3, c / n), MU3) > dev for c in counts])
    else:
        members = MEMBERS[:1] if name == "hoeffding" else MEMBERS
        truth, params = JOINT, dict(gY=G_Y, eps=level)
        subject = members[0] if name == "hoeffding" else FiniteClass(members)
        counts = _count_vectors(n, JOINT.space.size)
        failed = _risk_deviations(members, n) > level
    monkeypatch.setattr(bounds, "_trial_counts", lambda mu, n, trials, seed: iter([counts]))
    report = monte_carlo_verify(name, truth, subject, n, len(counts), 0, **params)
    assert report.empirical_failure_rate == np.count_nonzero(failed) / len(counts)
    return report, math.fsum(_pmf(counts, truth.weights, n)[failed])


@pytest.mark.parametrize("n, k", [(10, 6), (20, 6), (30, 3)])
def test_count_vectors_are_every_composition_and_their_pmf_sums_to_1(n, k):
    counts = _count_vectors(n, k)
    assert len(counts) == math.comb(n + k - 1, k - 1) == len(np.unique(counts, axis=0))
    assert (counts >= 0).all() and (counts.sum(axis=1) == n).all()
    weights = JOINT.weights if k == 6 else MU3.weights
    assert abs(math.fsum(_pmf(counts, weights, n)) - 1.0) <= 1e-13


# (bound, n, eps or delta): each bound is below 1 and each exact probability above 0
EXACT_CASES = [
    ("hoeffding", 10, 0.7),
    ("hoeffding", 20, 0.5),
    ("hoeffding", 20, 0.7),
    ("hoeffding", 30, 0.35),
    ("hoeffding", 30, 0.5),
    ("hoeffding", 30, 0.7),
    ("covering", 20, 0.9),
    ("covering", 30, 0.7),
    ("covering", 30, 0.9),
    ("mmd_concentration", 10, 0.9),
    ("mmd_concentration", 20, 0.2),
    ("mmd_concentration", 20, 0.5),
    ("mmd_concentration", 30, 0.05),
    ("mmd_concentration", 30, 0.2),
    ("mmd_concentration", 30, 0.5),
]


@pytest.mark.parametrize("name, n, level", EXACT_CASES)
def test_exact_failure_probability_is_at_most_the_bound(monkeypatch, name, n, level):
    report, exact = _exact_report(monkeypatch, name, n, level)
    assert 0.0 < exact and report.theoretical_bound < 1.0  # the comparison is not vacuous
    assert exact <= report.theoretical_bound


def test_wilson_interval_covers_the_exact_failure_probability():
    checks = [(n, eps, seed) for n in (10, 20, 30) for eps in (0.05, 0.1, 0.2) for seed in range(10)]
    exact = {}
    for n in (10, 20, 30):
        weights = _pmf(_count_vectors(n, JOINT.space.size), JOINT.weights, n)
        deviations = _risk_deviations(MEMBERS[:1], n)
        for eps in (0.05, 0.1, 0.2):
            exact[n, eps] = math.fsum(weights[deviations > eps])
    misses = 0
    for n, eps, seed in checks:
        report = monte_carlo_verify("hoeffding", JOINT, MEMBERS[0], n, 2000, seed, gY=G_Y, eps=eps)
        misses += not report.wilson_low <= exact[n, eps] <= report.wilson_high
    # a 95% interval misses 1 in 20; allow the least count that Binomial(90, 0.05) exceeds
    # with probability below 1% (10). Seeds 0-9 miss 7 times; 100 seeds missed 5.7%.
    allowed = next(
        k for k in range(91) if sum(math.comb(90, j) * 0.05**j * 0.95 ** (90 - j) for j in range(k + 1, 91)) < 0.01
    )
    assert len(checks) == 90 and allowed == 10
    assert 0 < min(exact.values()) and max(exact.values()) < 1
    assert misses <= allowed
