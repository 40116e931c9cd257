"""Closed-form generalization bounds and a Monte Carlo verification harness.

The closed forms: a Hoeffding tail for the deviation of an empirical
risk from its expectation, its uniform version over a hypothesis class
paid for by a covering number, and a concentration bound for the
embedded distance between an empirical measure and its source.

The harness draws i.i.d. datasets from an explicit finite ground
truth, evaluates each bound's failure event exactly, and reports the
empirical failure rate with a 95% Wilson interval. On finite sample
spaces every event is measurable, so the probability of the event is
the exact object the bounds control. All trials come from one seeded
stream: trial t's cell counts, the histogram of its n i.i.d. draws, are
row t of default_rng(seed).multinomial(n, weights, size=trials). The
rows are drawn and scored as arrays in blocks of 4096 from that one
generator, which yields exactly the rows of a single call: trial t
depends only on (seed, t), not on how many trials follow, and memory
stays bounded for any number of trials.
"""
from __future__ import annotations

import math
import numbers
import operator
from dataclasses import InitVar, asdict, dataclass, field

import numpy as np

from .kernels import GramMatrix
from .learning import FiniteClass
from .losses import _check_joint, _deviation_terms, _expected_risks, _loss_grid, _sup_row_mmd_matrix
from .morphisms import MarkovKernel
from .spaces import Dataset, ProbMeasure

_WILSON_Z = 1.959963984540054  # 97.5% normal quantile
_BLOCK = 4096  # trials drawn and scored per block


@dataclass
class BoundReport:
    """Outcome of a Monte Carlo check of one bound, built from its failure count.

    The rate failures / trials and its Wilson interval are derived from the
    count, which wilson_interval checks against trials; it is not stored.
    """

    bound_name: str
    parameters: dict
    theoretical_bound: float
    failures: InitVar[int]
    trials: int
    seed: int
    empirical_failure_rate: float = field(init=False)
    wilson_low: float = field(init=False)
    wilson_high: float = field(init=False)

    def __post_init__(self, failures: int):
        self.wilson_low, self.wilson_high = wilson_interval(failures, self.trials)
        self.empirical_failure_rate = failures / self.trials

    def to_json(self) -> dict:
        return asdict(self)


def hoeffding_bound(m: int, eps: float, c_k: float) -> float:
    """Failure probability bound 2 exp(-m eps^2 / (4 c_k^2)), clamped to [0, 1]."""
    if not m >= 1:  # also refuses NaN
        raise ValueError("m must be at least 1")
    if not eps > 0 or not c_k > 0:
        raise ValueError("eps and c_k must be strictly positive")
    return min(1.0, 2.0 * math.exp(-m * eps * eps / (4.0 * c_k * c_k)))


def hoeffding_general(m: int, eps: float, value_range: float) -> float:
    """Two-sided Hoeffding failure bound 2 exp(-2 m eps^2 / range^2)."""
    if not m >= 1:  # also refuses NaN
        raise ValueError("m must be at least 1")
    if not eps > 0 or not value_range > 0:
        raise ValueError("eps and the value range must be strictly positive")
    return min(1.0, 2.0 * math.exp(-2.0 * m * eps * eps / (value_range * value_range)))


def covering_bound(n_cover: int, m: int, eps: float, c_k: float) -> float:
    """Uniform failure bound 4 N exp(-m eps^2 / (4 c_k^2)), clamped to [0, 1].

    The caller supplies n_cover = covering_number(class, eps / (8 c_k)).
    """
    if not n_cover >= 1:  # also refuses NaN
        raise ValueError("the covering number must be at least 1")
    return min(1.0, 2.0 * n_cover * hoeffding_bound(m, eps, c_k))


def covering_number(cls: FiniteClass, s: float, gY: GramMatrix) -> int:
    """Size of a greedy radius-s cover of the class, centers drawn from the class.

    The metric d_inf is the sup over inputs of the row MMD. Each next
    center is the member whose radius-s ball holds the most members not
    yet covered, the lowest index winning ties (Chvatal's set-cover
    greedy). Greedy covers are valid but possibly larger than the
    minimal covering number, so bounds computed from them stay valid.
    """
    if not s > 0:
        raise ValueError("the covering radius must be strictly positive")
    covers = _sup_row_mmd_matrix(cls.kernels, gY) <= s
    uncovered = np.ones(len(cls), dtype=bool)
    centers = 0
    while uncovered.any():
        c = int(np.argmax(np.count_nonzero(covers[:, uncovered], axis=1)))
        centers += 1
        uncovered &= ~covers[c]
    return centers


def mmd_concentration_bound(n: int, delta: float, k_diag_mean: float) -> float:
    """Deviation bound 2 sqrt(k_diag_mean / n) + sqrt(2 ln(1/delta) / n).

    ln(1/delta) is taken as -ln(delta), which stays finite at a subnormal
    delta, where 1/delta overflows.

    Valid for kernels scaled so the unit ball of the embedding space
    is sup-bounded by 1 (sup K(y, y) <= 1); the caller rescales.
    """
    if not n >= 1:  # also refuses NaN
        raise ValueError("n must be at least 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie strictly between 0 and 1")
    if k_diag_mean < 0:
        raise ValueError("the mean kernel diagonal cannot be negative")
    if not math.isfinite(k_diag_mean):
        raise ValueError(f"the mean kernel diagonal must be finite, got {k_diag_mean}")
    return 2.0 * math.sqrt(k_diag_mean / n) + math.sqrt(-2.0 * math.log(delta) / n)


def lipschitz_deviation_check(
    f: MarkovKernel,
    g: MarkovKernel,
    mu: ProbMeasure,
    S: Dataset,
    c_k: float,
    gY: GramMatrix,
) -> bool:
    """Whether two hypotheses' risk deviations differ by at most 8 c_k d_inf(f, g).

    The left side is |(R_mu(f) - Rhat_S(f)) - (R_mu(g) - Rhat_S(g))|;
    d_inf is the sup over inputs of the row MMD between f and g. A
    1e-10 additive slack absorbs roundoff. The left side is the integral
    of l_f - l_g against mu minus S's empirical measure, and it and d_inf
    come from one GramMatrix.sq_norms product of f - g (see
    losses._deviation_terms). The bound holds for a probability measure
    mu only, so a mu that is not a ProbMeasure, or an S that is not a
    Dataset, raises TypeError before any product. c_k must be finite and
    strictly positive: a NaN, zero, negative or infinite c_k raises
    ValueError rather than read as a violation of the inequality.
    """
    if not isinstance(S, Dataset):
        raise TypeError(f"S must be a Dataset, got {type(S).__name__}")
    if not 0.0 < c_k < math.inf:  # also refuses NaN
        raise ValueError(f"c_k must be finite and strictly positive, got {c_k!r}")
    lhs, d_inf = _deviation_terms(f, g, mu, S, gY)
    return lhs <= 8.0 * c_k * d_inf + 1e-10


def wilson_interval(failures: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion, exactly 0 or 1 at the ends."""
    if not trials >= 1:  # also refuses NaN
        raise ValueError("trials must be at least 1")
    if not 0 <= failures <= trials:
        raise ValueError(f"failures must lie in [0, trials], got {failures} of {trials}")
    z2 = _WILSON_Z * _WILSON_Z
    p = failures / trials
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = (
        _WILSON_Z
        * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials))
        / denom
    )
    low = 0.0 if failures == 0 else max(0.0, center - half)
    high = 1.0 if failures == trials else min(1.0, center + half)
    return low, high


def _trial_counts(mu: ProbMeasure, n: int, trials: int, seed: int):
    """Yield the trials' cell counts of n i.i.d. draws from mu, in row blocks.

    Stacked, the blocks are default_rng(seed).multinomial(n, mu.weights,
    size=trials): one generator, so trial t is the same row for any
    number of trials of at least t + 1.
    """
    rng = np.random.default_rng(seed)
    for start in range(0, trials, _BLOCK):
        yield rng.multinomial(n, mu.weights, size=min(_BLOCK, trials - start))


def monte_carlo_verify(
    bound_name: str,
    ground_truth,
    subject,
    n: int,
    trials: int,
    seed: int,
    **params,
) -> BoundReport:
    """Empirically test a bound's failure event on seeded i.i.d. draws.

    n (the draws per trial) and trials must be integers of at least 1,
    and seed a nonnegative integer; the report stores each as a Python int.
    bound_name selects the experiment:

      "hoeffding":          ground_truth is a joint ProbMeasure, subject a
                            MarkovKernel; params gY and eps. The event is
                            |empirical risk - expected risk| > eps.
      "covering":           subject is a FiniteClass; params gY, eps and
                            c_m (the learner's optimization gap: finite,
                            nonnegative, default 0). The event is the sup
                            over the class of the risk deviation exceeding
                            eps; the excess-risk implication (sup deviation
                            <= eps and gap <= c_m force excess risk
                            <= 2 eps + c_m) is also checked every trial
                            and counted in the report parameters.
      "mmd_concentration":  ground_truth is a ProbMeasure, subject its
                            GramMatrix (diagonal at most 1); param
                            delta. The event is the embedded distance
                            between the empirical measure of n draws
                            and the truth exceeding the deviation bound.
    """
    for name, value in (("trials", trials), ("n", n)):
        if not value >= 1:  # also refuses NaN
            raise ValueError(f"{name} must be at least 1")
        if not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    n, trials, seed = map(operator.index, (n, trials, seed))
    if bound_name not in VERIFIERS:
        raise ValueError(f"unknown bound name {bound_name!r}")
    if not isinstance(ground_truth, ProbMeasure):
        raise TypeError(f"mu must be a ProbMeasure, got {type(ground_truth).__name__}")
    return VERIFIERS[bound_name](ground_truth, subject, n, trials, seed, **params)


def _c_k(gY: GramMatrix) -> float:
    """C_K = sqrt(max |K(y, y)|), refused at 0: the tail exponents divide by it."""
    ck = math.sqrt(float(np.max(np.abs(gY.diag))))
    if ck == 0.0:
        raise ValueError("the kernel vanishes on the target grid (C_K = 0)")
    return ck


def _sup_deviation_counts(mu: ProbMeasure, grids: np.ndarray, n, trials, seed, eps, c_m):
    """(failures, implication violations) of the sup deviation over a stack of flat loss grids."""
    true_risks = _expected_risks(grids, mu)  # expected_risk's bits, member by member
    # exact ERM on a finite class has gap 0 <= c_m, so its excess risk
    # must stay within 2 eps + c_m whenever the sup deviation does not fail
    excess = true_risks - float(np.min(true_risks))
    failures = violations = 0
    for counts in _trial_counts(mu, n, trials, seed):
        emp_risks = counts @ grids.T / n
        failed = np.max(np.abs(emp_risks - true_risks), axis=1) > eps
        chosen = np.argmin(emp_risks, axis=1)
        failures += int(np.count_nonzero(failed))
        violations += int(np.count_nonzero(~failed & (excess[chosen] > 2.0 * eps + c_m + 1e-12)))
    return failures, violations


def _verify_hoeffding(mu: ProbMeasure, h: MarkovKernel, n, trials, seed, *, gY, eps):
    grid = _loss_grid(h, gY).reshape(1, -1)
    _check_joint(h, mu)
    ck = _c_k(gY)
    theoretical = hoeffding_bound(n, eps, ck)
    failures, _ = _sup_deviation_counts(mu, grid, n, trials, seed, eps, 0.0)
    params = {"m": n, "eps": eps, "c_k": ck}
    return BoundReport("hoeffding", params, theoretical, failures, trials, seed)


def _verify_covering(mu: ProbMeasure, cls: FiniteClass, n, trials, seed, *, gY, eps, c_m=0.0):
    if not 0.0 <= c_m < math.inf:
        raise ValueError(f"c_m = {c_m!r} must be finite and nonnegative")
    grids = np.stack([_loss_grid(h, gY).reshape(-1) for h in cls])
    _check_joint(cls.kernels[0], mu)  # the members share their grids
    ck = _c_k(gY)
    hoeffding_bound(n, eps, ck)  # refuses a bad eps before the cover is built
    n_cover = covering_number(cls, eps / (8.0 * ck), gY)
    theoretical = covering_bound(n_cover, n, eps, ck)
    failures, violations = _sup_deviation_counts(mu, grids, n, trials, seed, eps, c_m)
    params = {
        "m": n,
        "eps": eps,
        "c_k": ck,
        "N": n_cover,
        "c_m": c_m,
        "implication_violations": violations,
    }
    return BoundReport("covering", params, theoretical, failures, trials, seed)


def _verify_mmd(mu: ProbMeasure, g: GramMatrix, n, trials, seed, *, delta):
    diag = g.diag
    if float(np.max(diag)) > 1.0 + 1e-12:
        raise ValueError("rescale the kernel so its diagonal is at most 1")
    if mu.space != g.points:
        raise ValueError("ground truth does not live on the Gram matrix's space")
    k_diag_mean = float(mu.weights @ diag)
    dev_bound = mmd_concentration_bound(n, delta, k_diag_mean)
    failures = 0
    for counts in _trial_counts(mu, n, trials, seed):
        dist = np.sqrt(g.sq_norms(counts / n - mu.weights)[1])
        failures += int(np.count_nonzero(dist > dev_bound))
    params = {"n": n, "delta": delta, "k_diag_mean": k_diag_mean, "deviation_bound": dev_bound}
    return BoundReport("mmd_concentration", params, delta, failures, trials, seed)


# bound name -> verifier: the one list of the bounds monte_carlo_verify checks
VERIFIERS = dict(
    hoeffding=_verify_hoeffding, covering=_verify_covering, mmd_concentration=_verify_mmd
)
