import itertools
import math

import numpy as np
import pytest

from probmorph import bounds
from probmorph.bounds import (
    covering_bound,
    covering_number,
    hoeffding_bound,
    hoeffding_general,
    lipschitz_deviation_check,
    mmd_concentration_bound,
    monte_carlo_verify,
    wilson_interval,
)
from probmorph.kernels import GramMatrix, KernelSpec, gram, mmd
from probmorph.learning import FiniteClass
from probmorph.losses import _deviation_terms, _sup_row_mmd_matrix, empirical_risk, expected_risk, sup_row_mmd
from probmorph.morphisms import MarkovKernel, graph_pushforward
from probmorph.spaces import (
    Dataset,
    FiniteSpace,
    ProbMeasure,
    ProductSpace,
    SignedMeasure,
    SpaceMismatchError,
)

X3 = FiniteSpace(["x1", "x2", "x3"])
Y3 = FiniteSpace(["y1", "y2", "y3"])
G_Y3 = gram(KernelSpec("delta"), Y3)
# the same labels on a line, for a gaussian label kernel
Y3_LINE = FiniteSpace(["y1", "y2", "y3"], coords=[[0.0], [0.7], [2.0]])
G_Y3_GAUSS = gram(KernelSpec("gaussian", sigma=1.0), Y3_LINE)


def test_hoeffding_values():
    assert hoeffding_bound(100, 0.5, 1.0) == pytest.approx(
        2.0 * math.exp(-6.25), rel=1e-12
    )
    assert hoeffding_bound(100, 0.5, 1.0) == pytest.approx(3.861e-3, rel=1e-3)
    assert hoeffding_bound(100, 50.0, 1.0) == pytest.approx(0.0, abs=1e-300)
    assert hoeffding_bound(1, 1e-9, 1.0) == 1.0  # clamp
    with pytest.raises(ValueError):
        hoeffding_bound(0, 0.5, 1.0)


def test_hoeffding_general_formula():
    assert hoeffding_general(50, 0.3, 2.0) == pytest.approx(
        2.0 * math.exp(-2 * 50 * 0.09 / 4.0), rel=1e-12
    )


def test_covering_bound_values():
    assert covering_bound(10, 1000, 0.4, 1.0) == pytest.approx(
        40.0 * math.exp(-40.0), rel=1e-12
    )
    assert covering_bound(10, 1000, 0.4, 1.0) == pytest.approx(1.70e-16, rel=1e-2)
    # N = 1 doubles the per-hypothesis Hoeffding bound (two-sided class factor)
    assert covering_bound(1, 100, 0.5, 1.0) == pytest.approx(
        2.0 * hoeffding_bound(100, 0.5, 1.0), rel=1e-12
    )


def test_bound_monotonicities():
    assert hoeffding_bound(200, 0.2, 1.0) < hoeffding_bound(100, 0.2, 1.0)
    assert hoeffding_bound(100, 0.4, 1.0) < hoeffding_bound(100, 0.2, 1.0)
    assert hoeffding_bound(100, 0.2, 2.0) > hoeffding_bound(100, 0.2, 1.0)
    assert covering_bound(5, 100, 0.4, 1.0) > covering_bound(2, 100, 0.4, 1.0)


def test_mmd_concentration_values():
    v = mmd_concentration_bound(100, 0.01, 1.0)
    assert v == pytest.approx(0.2 + math.sqrt(2.0 * math.log(100.0) / 100.0), rel=1e-12)
    assert v == pytest.approx(0.5035, abs=2e-4)
    assert mmd_concentration_bound(10**8, 0.5, 1.0) < 1e-3
    assert mmd_concentration_bound(100, 0.01, 0.0) == pytest.approx(
        math.sqrt(2.0 * math.log(100.0) / 100.0)
    )
    with pytest.raises(ValueError):
        mmd_concentration_bound(100, 1.5, 1.0)


def test_mmd_concentration_bound_is_finite_at_a_subnormal_delta():
    # 1 / delta overflows at the least subnormal; ln(delta) does not
    delta = 5e-324
    v = mmd_concentration_bound(200, delta, 1.0)
    assert math.isfinite(v)
    assert v == 2.0 * math.sqrt(1.0 / 200) + math.sqrt(-2.0 * math.log(delta) / 200)


def test_wilson_interval():
    low, high = wilson_interval(0, 100)
    assert low == pytest.approx(0.0, abs=1e-12) and 0.0 < high < 0.05
    low, high = wilson_interval(50, 100)
    assert low < 0.5 < high
    assert wilson_interval(100, 100)[1] == 1.0


# ---------------------------------------------------------------------------
# covering numbers
# ---------------------------------------------------------------------------
def _constant_kernel(p):
    return MarkovKernel(X3, Y3, np.tile(np.asarray(p, dtype=float), (3, 1)))


def _min_cover(cls, s, gY):
    """The minimal radius-s cover with centers in the class, by search over center sets."""
    d = np.array([[sup_row_mmd(f, h, gY) for h in cls] for f in cls])
    n = len(cls)
    for k in range(1, n + 1):
        if any(np.all(d[list(c)].min(axis=0) <= s) for c in itertools.combinations(range(n), k)):
            return k


def _random_class(rng, size, target):
    rows = rng.random((size, 3, target.size)) + 1e-3
    return FiniteClass([MarkovKernel(X3, target, r / r.sum(axis=1, keepdims=True)) for r in rows])


LABEL_GRAMS = {"delta": G_Y3, "gaussian": G_Y3_GAUSS}


def test_covering_number_extremes():
    cls = FiniteClass(
        [
            _constant_kernel([1.0, 0.0, 0.0]),
            _constant_kernel([0.0, 1.0, 0.0]),
            _constant_kernel([0.0, 0.0, 1.0]),
        ]
    )
    assert covering_number(cls, 10.0, G_Y3) == 1
    assert covering_number(cls, 1e-9, G_Y3) == 3
    assert _min_cover(cls, 1e-9, G_Y3) == 3
    # a radius that joins two members leaves a cover of all but one
    twin = FiniteClass([*cls, _constant_kernel([0.9, 0.1, 0.0])])
    assert _min_cover(twin, 0.2, G_Y3) == covering_number(twin, 0.2, G_Y3) == 3
    assert _min_cover(twin, 1e-9, G_Y3) == covering_number(twin, 1e-9, G_Y3) == 4


def test_covering_number_collinear_greedy_orders():
    # three collinear points spaced d apart; the middle one's ball of
    # radius d holds all three, so the greedy takes it first in every order
    a = _constant_kernel([1.0, 0.0, 0.0])
    b = _constant_kernel([0.5, 0.5, 0.0])
    c = _constant_kernel([0.0, 1.0, 0.0])
    d = math.sqrt(0.5)  # delta-kernel row distance between neighbors
    seen = set()
    for perm in itertools.permutations([a, b, c]):
        seen.add(covering_number(FiniteClass(list(perm)), d, G_Y3))
    assert seen == {1}
    assert _min_cover(FiniteClass([a, b, c]), d, G_Y3) == 1


def test_covering_number_refuses_a_gram_on_other_grids():
    for size in (1, 3):
        cls = FiniteClass([_constant_kernel([1.0, 0.0, 0.0])] * size)
        with pytest.raises(SpaceMismatchError):
            covering_number(cls, 0.5, G_Y3_GAUSS)


def test_covering_number_nonincreasing_in_s():
    rng = np.random.default_rng(0)
    members = []
    for _ in range(6):
        rows = rng.random((3, 3)) + 1e-3
        members.append(MarkovKernel(X3, Y3, rows / rows.sum(axis=1, keepdims=True)))
    cls = FiniteClass(members)
    values = [covering_number(cls, s, G_Y3) for s in (0.01, 0.1, 0.3, 0.8, 2.0)]
    assert all(b <= a for a, b in zip(values, values[1:]))
    assert all(1 <= v <= 6 for v in values)


def test_covering_bound_uses_greedy_upper_bound():
    rng = np.random.default_rng(1)
    members = []
    for _ in range(4):
        rows = rng.random((3, 3)) + 1e-3
        members.append(MarkovKernel(X3, Y3, rows / rows.sum(axis=1, keepdims=True)))
    cls = FiniteClass(members)
    greedy = covering_number(cls, 0.2, G_Y3)
    exact = _min_cover(cls, 0.2, G_Y3)
    assert greedy >= exact


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("label_gram", LABEL_GRAMS)
def test_covering_number_between_minimal_cover_and_class_size(label_gram, seed):
    gY = LABEL_GRAMS[label_gram]
    rng = np.random.default_rng(seed)
    for size in (2, 5, 8, 10):
        cls = _random_class(rng, size, gY.points)
        d = _sup_row_mmd_matrix(cls.kernels, gY)
        for s in np.quantile(d[np.triu_indices(size, 1)], [0.1, 0.3, 0.5, 0.9]):
            assert _min_cover(cls, s, gY) <= covering_number(cls, s, gY) <= size


@pytest.mark.parametrize("label_gram", LABEL_GRAMS)
def test_distance_matrix_equals_per_pair_sup_row_mmd(label_gram):
    # one stacked product per member gives each pair the bits of its own sup_row_mmd call
    gY = LABEL_GRAMS[label_gram]
    for size in (1, 2, 7, 30):
        cls = _random_class(np.random.default_rng(size), size, gY.points)
        per_pair = np.array([[sup_row_mmd(f, h, gY) for h in cls] for f in cls])
        assert np.array_equal(_sup_row_mmd_matrix(cls.kernels, gY), per_pair)


# ---------------------------------------------------------------------------
# deviation inequality
# ---------------------------------------------------------------------------
def test_lipschitz_deviation_equal_kernels():
    t = MarkovKernel(X3, Y3, np.full((3, 3), 1 / 3))
    mu = graph_pushforward(t, ProbMeasure(X3, [0.2, 0.3, 0.5]))
    S = Dataset(ProductSpace(X3, Y3), [("x1", "y1"), ("x2", "y3")])
    assert lipschitz_deviation_check(t, t, mu, S, 1.0, G_Y3)


def test_lipschitz_deviation_random_draws():
    rng = np.random.default_rng(42)
    prod = ProductSpace(X3, Y3)
    for _ in range(1000):
        rows_f = rng.random((3, 3)) + 1e-3
        rows_g = rng.random((3, 3)) + 1e-3
        f = MarkovKernel(X3, Y3, rows_f / rows_f.sum(axis=1, keepdims=True))
        g = MarkovKernel(X3, Y3, rows_g / rows_g.sum(axis=1, keepdims=True))
        w = rng.random(9) + 1e-3
        mu = ProbMeasure(prod, w / w.sum())
        pairs = [prod.labels[i] for i in rng.integers(0, 9, size=8)]
        S = Dataset(prod, pairs)
        assert lipschitz_deviation_check(f, g, mu, S, 1.0, G_Y3)


@pytest.mark.parametrize(
    "gY, c_k",
    [(G_Y3, 1.0), (G_Y3_GAUSS, 1.0), (G_Y3_GAUSS, 0.01)],
    ids=["delta", "gaussian", "gaussian-tight"],
)
def test_lipschitz_deviation_lhs_matches_public_risks(gY, c_k):
    # criterion-09 draws: the check's risk gaps and d_inf equal the public
    # risks' and sup_row_mmd's to the bit, and the check decides as they do;
    # at c_k = 0.01 the inequality fails on some draws, so both sides are seen
    rng = np.random.default_rng(9)
    ys = gY.points
    prod = ProductSpace(X3, ys)
    decisions = []
    for _ in range(1000):
        rows_f = rng.random((3, 3)) + 1e-3
        rows_g = rng.random((3, 3)) + 1e-3
        f = MarkovKernel(X3, ys, rows_f / rows_f.sum(axis=1, keepdims=True))
        g = MarkovKernel(X3, ys, rows_g / rows_g.sum(axis=1, keepdims=True))
        w = rng.random(9) + 1e-3
        mu = ProbMeasure(prod, w / w.sum())
        S = Dataset(prod, [prod.labels[i] for i in rng.integers(0, 9, size=6)])
        gap_f, gap_g = [
            expected_risk(h, mu, gY).value - empirical_risk(h, S, gY).value for h in (f, g)
        ]
        d_inf = sup_row_mmd(f, g, gY)
        assert _deviation_terms(f, g, mu, S, gY) == (gap_f, gap_g, d_inf)
        decisions.append(lipschitz_deviation_check(f, g, mu, S, c_k, gY))
        assert decisions[-1] == (abs(gap_f - gap_g) <= 8.0 * c_k * d_inf + 1e-10)
    assert all(decisions) == (c_k == 1.0)


def test_lipschitz_deviation_refuses_other_grids():
    t = MarkovKernel(X3, Y3, np.full((3, 3), 1 / 3))
    mu = graph_pushforward(t, ProbMeasure(X3, [0.2, 0.3, 0.5]))
    S = Dataset(ProductSpace(X3, Y3), [("x1", "y1"), ("x2", "y3")])
    x_other = FiniteSpace(["x1", "x2", "x4"])
    on_other_source = MarkovKernel(x_other, Y3, np.full((3, 3), 1 / 3))
    on_other_target = MarkovKernel(X3, Y3_LINE, np.full((3, 3), 1 / 3))
    S_other = Dataset(ProductSpace(x_other, Y3), [("x1", "y1")])
    for g, sample, gY in [
        (on_other_source, S, G_Y3),
        (on_other_target, S, G_Y3),
        (t, S_other, G_Y3),
        (t, S, G_Y3_GAUSS),
    ]:
        with pytest.raises(SpaceMismatchError):
            lipschitz_deviation_check(t, g, mu, sample, 1.0, gY)


def test_lipschitz_deviation_hand_case():
    # deterministic predictors differing at one input, delta kernel
    f = MarkovKernel(X3, Y3, np.eye(3))
    g_rows = np.eye(3)
    g_rows[0] = [0.0, 1.0, 0.0]
    g = MarkovKernel(X3, Y3, g_rows)
    mu = graph_pushforward(f, ProbMeasure(X3, [1 / 3] * 3))
    S = Dataset(ProductSpace(X3, Y3), [("x1", "y1")])
    # d_inf = sqrt(2), both risk gaps computable by hand; bound 8*sqrt(2)
    assert lipschitz_deviation_check(f, g, mu, S, 1.0, G_Y3)


# ---------------------------------------------------------------------------
# Monte Carlo harness
# ---------------------------------------------------------------------------
def _fixed_instance():
    rows = np.array(
        [[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.2, 0.7]]
    )
    t = MarkovKernel(X3, Y3, rows)
    mu = graph_pushforward(t, ProbMeasure(X3, [0.3, 0.4, 0.3]))
    return t, mu


def test_monte_carlo_unknown_name():
    t, mu = _fixed_instance()
    with pytest.raises(ValueError):
        monte_carlo_verify("chernoff", mu, t, 50, 10, 0, gY=G_Y3, eps=0.5)


@pytest.mark.parametrize("eps", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("name", ["hoeffding", "covering"])
def test_monte_carlo_refuses_eps_before_any_trial(monkeypatch, name, eps):
    t, mu = _fixed_instance()
    subject = t if name == "hoeffding" else FiniteClass([t, MarkovKernel(X3, Y3, np.full((3, 3), 1 / 3))])

    def no_draws(*args):
        raise AssertionError("a trial was drawn")

    monkeypatch.setattr(bounds, "_trial_counts", no_draws)
    # the covering check refuses eps itself, not the radius eps / (8 C_K) it would cover at
    with pytest.raises(ValueError, match="eps and c_k must be strictly positive"):
        monte_carlo_verify(name, mu, subject, 50, 5000, 0, gY=G_Y3, eps=eps)


@pytest.mark.parametrize("gY", [G_Y3, G_Y3_GAUSS], ids=["delta", "gaussian"])
def test_hoeffding_is_the_uniform_check_over_a_class_of_one(gY):
    t, _ = _fixed_instance()
    t = MarkovKernel(X3, gY.points, t.matrix)
    mu = graph_pushforward(t, ProbMeasure(X3, [0.3, 0.4, 0.3]))
    for eps in (0.02, 0.05, 0.1):
        one = monte_carlo_verify("hoeffding", mu, t, 40, 3000, 5, gY=gY, eps=eps)
        cls = monte_carlo_verify("covering", mu, FiniteClass([t]), 40, 3000, 5, gY=gY, eps=eps)
        assert 0 < one.empirical_failure_rate < 1
        assert one.empirical_failure_rate == cls.empirical_failure_rate
        assert cls.parameters["N"] == 1 and cls.parameters["implication_violations"] == 0
        assert cls.theoretical_bound == min(1.0, 2.0 * one.theoretical_bound)


def test_monte_carlo_hoeffding_huge_eps():
    t, mu = _fixed_instance()
    rep = monte_carlo_verify("hoeffding", mu, t, 50, 50, 0, gY=G_Y3, eps=100.0)
    assert rep.empirical_failure_rate == 0.0
    assert rep.theoretical_bound == pytest.approx(hoeffding_bound(50, 100.0, 1.0))


def test_monte_carlo_hoeffding_coverage_and_determinism():
    t, mu = _fixed_instance()
    rep1 = monte_carlo_verify("hoeffding", mu, t, 100, 300, 7, gY=G_Y3, eps=0.2)
    rep2 = monte_carlo_verify("hoeffding", mu, t, 100, 300, 7, gY=G_Y3, eps=0.2)
    assert rep1.to_json() == rep2.to_json()
    assert rep1.empirical_failure_rate <= rep1.theoretical_bound + (
        rep1.wilson_high - rep1.empirical_failure_rate
    )
    assert rep1.parameters["m"] == 100


def test_monte_carlo_covering_single_member_matches_hoeffding_event():
    t, mu = _fixed_instance()
    single = monte_carlo_verify(
        "covering", mu, FiniteClass([t]), 80, 200, 3, gY=G_Y3, eps=0.3
    )
    base = monte_carlo_verify("hoeffding", mu, t, 80, 200, 3, gY=G_Y3, eps=0.3)
    # same seeded draws, same event for a one-element class
    assert single.empirical_failure_rate == base.empirical_failure_rate
    assert single.parameters["implication_violations"] == 0


def test_monte_carlo_mmd_concentration():
    mu = ProbMeasure(Y3, [0.2, 0.3, 0.5])
    rep = monte_carlo_verify(
        "mmd_concentration", mu, G_Y3, 200, 400, 5, delta=0.05
    )
    assert rep.empirical_failure_rate <= 0.05
    assert rep.theoretical_bound == 0.05
    assert rep.parameters["deviation_bound"] == pytest.approx(
        mmd_concentration_bound(200, 0.05, 1.0)
    )


def test_monte_carlo_mmd_rejects_big_diagonal():
    mu = ProbMeasure(Y3, [0.2, 0.3, 0.5])
    big = gram(KernelSpec("delta", scale=4.0), Y3)
    with pytest.raises(ValueError):
        monte_carlo_verify("mmd_concentration", mu, big, 100, 10, 0, delta=0.05)


def test_monte_carlo_covering_rejects_bad_c_m():
    t, mu = _fixed_instance()
    for c_m in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="c_m"):
            monte_carlo_verify(
                "covering", mu, FiniteClass([t]), 10, 5, 0, gY=G_Y3, eps=0.3, c_m=c_m
            )


# ---------------------------------------------------------------------------
# the trials' counts and their vectorized events
# ---------------------------------------------------------------------------
def _stacked_counts(mu, n, trials, seed):
    return np.concatenate(list(bounds._trial_counts(mu, n, trials, seed)))


def test_trial_counts_are_one_prefix_stable_multinomial_stream():
    _, mu = _fixed_instance()
    short = _stacked_counts(mu, 40, 100, 11)
    assert np.array_equal(_stacked_counts(mu, 40, 300, 11)[:100], short)
    # blocks of 4096 rows give exactly the rows of one call, across the boundary
    whole = np.random.default_rng(11).multinomial(40, mu.weights, size=5000)
    blocks = list(bounds._trial_counts(mu, 40, 5000, 11))
    assert [len(b) for b in blocks] == [4096, 904]
    assert np.array_equal(np.concatenate(blocks), whole)
    assert np.array_equal(_stacked_counts(mu, 40, 4100, 11), whole[:4100])
    assert np.all(whole.sum(axis=1) == 40)


def test_trial_counts_column_means_match_n_weights():
    _, mu = _fixed_instance()
    n, trials = 30, 5000
    counts = _stacked_counts(mu, n, trials, 4)
    w = mu.weights
    stderr = np.sqrt(n * w * (1.0 - w) / trials)
    assert np.all(np.abs(counts.mean(axis=0) - n * w) <= 4.0 * stderr)


def _fixed_counts(monkeypatch, counts):
    # two blocks, so the events are summed across blocks as well
    monkeypatch.setattr(bounds, "_trial_counts", lambda *args: iter(np.array_split(counts, 2)))


def _dataset(prod, counts):
    return Dataset(prod, [label for label, c in zip(prod.labels, counts) for _ in range(c)])


def test_vectorized_hoeffding_and_covering_match_per_trial_loop(monkeypatch):
    t, mu = _fixed_instance()
    prod = mu.space
    rng = np.random.default_rng(3)
    members = [t]
    for _ in range(4):
        rows = rng.random((3, 3)) + 1e-3
        members.append(MarkovKernel(X3, Y3, rows / rows.sum(axis=1, keepdims=True)))
    cls = FiniteClass(members)
    n, trials, eps = 20, 400, 0.1
    counts = _stacked_counts(mu, n, trials, 8)
    _fixed_counts(monkeypatch, counts)
    true = np.array([expected_risk(h, mu, G_Y3).value for h in cls])
    hoeffding_failures = covering_failures = violations = 0
    for row in counts:
        S = _dataset(prod, row)
        emp = np.array([empirical_risk(h, S, G_Y3).value for h in cls])
        hoeffding_failures += abs(emp[0] - true[0]) > eps
        if np.max(np.abs(emp - true)) > eps:
            covering_failures += 1
        elif true[np.argmin(emp)] - true.min() > 2.0 * eps + 1e-12:
            violations += 1
    assert 0 < hoeffding_failures < trials and 0 < covering_failures < trials
    rep = monte_carlo_verify("hoeffding", mu, t, n, trials, 8, gY=G_Y3, eps=eps)
    assert rep.empirical_failure_rate == hoeffding_failures / trials
    rep = monte_carlo_verify("covering", mu, cls, n, trials, 8, gY=G_Y3, eps=eps)
    assert rep.empirical_failure_rate == covering_failures / trials
    assert rep.parameters["implication_violations"] == violations


def test_vectorized_mmd_matches_per_trial_loop(monkeypatch):
    ys = FiniteSpace([f"y{i}" for i in range(5)], coords=[[float(i)] for i in range(5)])
    mu = ProbMeasure(ys, [0.1, 0.3, 0.2, 0.25, 0.15])
    g = gram(KernelSpec("gaussian", sigma=0.5), ys)
    n, trials, delta = 100, 400, 0.9
    # the bound holds on draws from mu, so the rows draw from mixtures of mu
    # and a point mass whose distance to mu sweeps across the bound
    rng = np.random.default_rng(2)
    point = np.eye(5)[1]
    mixtures = [(1.0 - a) * mu.weights + a * point for a in np.linspace(0.0, 1.0, trials)]
    counts = np.stack([rng.multinomial(n, w) for w in mixtures])
    _fixed_counts(monkeypatch, counts)
    rep = monte_carlo_verify("mmd_concentration", mu, g, n, trials, 2, delta=delta)
    bound = rep.parameters["deviation_bound"]
    failures = sum(mmd(g, SignedMeasure(ys, row / n), mu) > bound for row in counts)
    assert 0 < failures < trials
    assert rep.empirical_failure_rate == failures / trials


@pytest.mark.parametrize("k", [1, 2, 5])
def test_bound_checks_build_each_loss_grid_once(monkeypatch, k):
    # one GramMatrix.sq_norms product per member's loss grid, and one per member
    # but the last for the covering distances
    t, mu = _fixed_instance()
    rng = np.random.default_rng(k)
    members = [t] + [
        MarkovKernel(X3, Y3, rows / rows.sum(axis=1, keepdims=True))
        for rows in rng.random((k - 1, 3, 3)) + 1e-3
    ]
    calls = []
    sq_norms = GramMatrix.sq_norms

    def counted(self, d):
        calls.append(len(d))
        return sq_norms(self, d)

    monkeypatch.setattr(GramMatrix, "sq_norms", counted)
    monte_carlo_verify("covering", mu, FiniteClass(members), 20, 50, 0, gY=G_Y3, eps=0.01)
    assert len(calls) == k + (k - 1)
    calls.clear()
    monte_carlo_verify("hoeffding", mu, t, 20, 50, 0, gY=G_Y3, eps=0.01)
    assert len(calls) == 1


# every refusal of the module that no test above reaches: (call, exception type, message fragment)
def _report(**fields):
    base = dict(bound_name="b", parameters={}, theoretical_bound=0.5,
                empirical_failure_rate=0.0, trials=1, seed=0)
    return bounds.BoundReport(**{**base, **fields})


BOUNDS_REFUSALS = {
    "hoeffding-eps-0": (lambda: hoeffding_bound(10, 0.0, 1.0), ValueError, "eps and c_k must be strictly positive"),
    "hoeffding-c_k-0": (lambda: hoeffding_bound(10, 0.5, 0.0), ValueError, "eps and c_k must be strictly positive"),
    "general-m-0": (lambda: hoeffding_general(0, 0.5, 1.0), ValueError, "m must be at least 1"),
    "general-range-0": (lambda: hoeffding_general(10, 0.5, 0.0), ValueError, "eps and the value range must be strictly positive"),
    "covering-bound-N-0": (lambda: covering_bound(0, 10, 0.5, 1.0), ValueError, "the covering number must be at least 1"),
    "greedy-radius-0": (
        lambda: covering_number(FiniteClass([_fixed_instance()[0]]), 0.0, G_Y3),
        ValueError, "the covering radius must be strictly positive",
    ),
    "mmd-bound-n-0": (lambda: mmd_concentration_bound(0, 0.05, 1.0), ValueError, "n must be at least 1"),
    "mmd-bound-negative-diag": (
        lambda: mmd_concentration_bound(10, 0.05, -1.0), ValueError, "the mean kernel diagonal cannot be negative",
    ),
    "mmd-bound-nan-diag": (
        lambda: mmd_concentration_bound(10, 0.05, math.nan), ValueError, "the mean kernel diagonal must be finite, got nan",
    ),
    "mmd-bound-inf-diag": (
        lambda: mmd_concentration_bound(10, 0.05, math.inf), ValueError, "the mean kernel diagonal must be finite, got inf",
    ),
    "wilson-trials-0": (lambda: wilson_interval(0, 0), ValueError, "trials must be at least 1"),
    "wilson-failures-above-trials": (
        lambda: wilson_interval(3, 2), ValueError, "failures must lie in [0, trials], got 3 of 2",
    ),
    "wilson-failures-negative": (
        lambda: wilson_interval(-1, 5), ValueError, "failures must lie in [0, trials], got -1 of 5",
    ),
    "verify-trials-0": (
        lambda: monte_carlo_verify("hoeffding", _fixed_instance()[1], _fixed_instance()[0], 10, 0, 0, gY=G_Y3, eps=0.5),
        ValueError, "trials must be at least 1",
    ),
    "verify-n-0": (
        lambda: monte_carlo_verify("hoeffding", _fixed_instance()[1], _fixed_instance()[0], 0, 5, 0, gY=G_Y3, eps=0.5),
        ValueError, "n must be at least 1",
    ),
    # a fractional n would draw floor(n) samples but divide the counts, and take the bound, at n
    "verify-n-fraction": (
        lambda: monte_carlo_verify("hoeffding", _fixed_instance()[1], _fixed_instance()[0], 5.5, 5, 0, gY=G_Y3, eps=0.5),
        ValueError, "n must be an integer, got 5.5",
    ),
    "verify-trials-fraction": (
        lambda: monte_carlo_verify("hoeffding", _fixed_instance()[1], _fixed_instance()[0], 10, 2.5, 0, gY=G_Y3, eps=0.5),
        ValueError, "trials must be an integer, got 2.5",
    ),
    # numpy would draw from OS entropy on None, and raise its own errors on the others
    "verify-seed-fraction": (
        lambda: monte_carlo_verify("hoeffding", _fixed_instance()[1], _fixed_instance()[0], 10, 5, 1.5, gY=G_Y3, eps=0.5),
        ValueError, "seed must be a nonnegative integer, got 1.5",
    ),
    "verify-seed-none": (
        lambda: monte_carlo_verify("hoeffding", _fixed_instance()[1], _fixed_instance()[0], 10, 5, None, gY=G_Y3, eps=0.5),
        ValueError, "seed must be a nonnegative integer, got None",
    ),
    "verify-seed-negative": (
        lambda: monte_carlo_verify("hoeffding", _fixed_instance()[1], _fixed_instance()[0], 10, 5, -1, gY=G_Y3, eps=0.5),
        ValueError, "seed must be a nonnegative integer, got -1",
    ),
    "mmd-truth-on-other-space": (
        lambda: monte_carlo_verify("mmd_concentration", ProbMeasure(X3, [0.2, 0.3, 0.5]), G_Y3, 10, 5, 0, delta=0.05),
        ValueError, "ground truth does not live on the Gram matrix's space",
    ),
    "report-trials-0": (lambda: _report(trials=0), ValueError, "trials must be at least 1"),
    # NaN fails every comparison, so a check written x < 1 passes it
    "report-trials-nan": (lambda: _report(trials=math.nan), ValueError, "trials must be at least 1"),
    "hoeffding-m-nan": (lambda: hoeffding_bound(math.nan, 0.5, 1.0), ValueError, "m must be at least 1"),
    "general-m-nan": (lambda: hoeffding_general(math.nan, 0.5, 1.0), ValueError, "m must be at least 1"),
    "covering-bound-N-nan": (
        lambda: covering_bound(math.nan, 10, 0.5, 1.0), ValueError, "the covering number must be at least 1",
    ),
    "covering-bound-m-nan": (lambda: covering_bound(3, math.nan, 0.5, 1.0), ValueError, "m must be at least 1"),
    "mmd-bound-n-nan": (lambda: mmd_concentration_bound(math.nan, 0.05, 0.5), ValueError, "n must be at least 1"),
    "wilson-trials-nan": (lambda: wilson_interval(0, math.nan), ValueError, "trials must be at least 1"),
    "verify-trials-nan": (
        lambda: monte_carlo_verify("hoeffding", _fixed_instance()[1], _fixed_instance()[0], 10, math.nan, 0, gY=G_Y3, eps=0.5),
        ValueError, "trials must be at least 1",
    ),
    "verify-n-nan": (
        lambda: monte_carlo_verify("hoeffding", _fixed_instance()[1], _fixed_instance()[0], math.nan, 5, 0, gY=G_Y3, eps=0.5),
        ValueError, "n must be at least 1",
    ),
    "report-rate-above-1": (lambda: _report(empirical_failure_rate=1.5), ValueError, "empirical failure rate must lie in [0, 1]"),
}


@pytest.mark.parametrize("case", BOUNDS_REFUSALS.values(), ids=list(BOUNDS_REFUSALS))
def test_bounds_refusals(case):
    call, exc, fragment = case
    with pytest.raises(exc) as info:
        call()
    assert info.type is exc and fragment in str(info.value)
