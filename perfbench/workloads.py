"""The three benchmark workloads and the probe calls of the traced run.

Every input is generated from the workload seed; probmorph receives only
the generated objects. Each workload is a fixed cycle of op slots that
the closed loop in harness.py repeats. Each op calls public probmorph
functions, each wrapped in a span when the run is traced, and each op
has a check that runs after its timer stops.
"""
from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from probmorph import cli
from probmorph.bounds import covering_number, lipschitz_deviation_check, monte_carlo_verify
from probmorph.kernels import GramMatrix, KernelSpec, gram, mmd
from probmorph.learning import (
    FiniteClass,
    LearnerConfig,
    ParametricClass,
    WFunctionalSpec,
    cerm,
    empirical_section,
    regularized_estimate,
    w_functional,
)
from probmorph.losses import empirical_risk, expected_risk
from probmorph.morphisms import (
    MarkovKernel,
    compose,
    disintegrate,
    embedded_operator_norm,
    graph_pushforward,
)
from probmorph.serialize import (
    dataset_from_csv,
    dataset_to_csv,
    kernel_from_json,
    kernel_to_json,
    parse_config,
)
from probmorph.spaces import Dataset, FiniteSpace, ProbMeasure, ProductSpace, empirical

from harness import PROBE, CheckFailed, NullTracer, Op, execute

GAUSS = KernelSpec("gaussian", sigma=1.0)
DELTA = KernelSpec("delta")
FIT_SMALL_GRID = (6, 4)
FIT_LARGE_GRID = (64, 16)
GRAM_SIZES = ((48, 12), (64, 16), (100, 20))
LAW_TOL = 1e-10
OBJECTIVE_RTOL = 1e-9
CERM_TOL = 1e-3


def _rng(seed: int, tag: int, i: int = 0) -> np.random.Generator:
    return np.random.default_rng((seed, tag, i))


def grid(nx: int, ny: int) -> tuple[FiniteSpace, FiniteSpace]:
    """The criterion-10 geometry at any size: x on [0, 5], y on [0, 3]."""
    xs = FiniteSpace([f"x{i}" for i in range(nx)], coords=np.linspace(0.0, 5.0, nx)[:, None])
    ys = FiniteSpace([f"y{i}" for i in range(ny)], coords=np.linspace(0.0, 3.0, ny)[:, None])
    return xs, ys


def drifting_peak(xs: FiniteSpace, ys: FiniteSpace) -> MarkovKernel:
    """The criterion-10 ground truth: rows track a peak drifting with x."""
    xc = xs.coords[:, 0]
    yc = ys.coords[:, 0]
    drift = xc / xc.max() * 3.0
    rows = np.exp(-0.5 * (yc[None, :] - drift[:, None]) ** 2)
    return MarkovKernel(xs, ys, rows / rows.sum(axis=1, keepdims=True))


def sample_pairs(rng, prod: ProductSpace, joint: ProbMeasure, n: int) -> list[tuple]:
    """n i.i.d. draws from a joint measure, by inverse CDF as in criterion 10."""
    cum = np.cumsum(joint.weights)
    idx = np.minimum(np.searchsorted(cum, rng.random(n), side="right"), prod.size - 1)
    return [prod.labels[i] for i in idx]


class SmallArrayCalibration:
    """Host-speed calibration for ops that spend their time in many small calls.

    The benchmark's host is shared with other tenants, and the same op's
    wall time drifts by tens of percent over minutes. Work of one kind
    slows alike, so each op's time is scaled by reference_s over the time
    of a calibration of the same kind of work, run between the ops.
    reference_s is the calibration's typical time between ops on the
    baseline host, so the scaled figures read as that host's
    milliseconds. A calibration
    uses numpy alone on fixed arrays, never probmorph, so any change to
    probmorph moves the scaled figures in full.
    """

    reference_s = 3.3e-3

    def __init__(self):
        self.a = np.linspace(0.1, 1.0, 24).reshape(6, 4)
        self.g = np.eye(4) + 0.5

    def work(self) -> None:
        for _ in range(700):
            np.einsum("xi,ij,xj->x", self.a, self.g, self.a).max()

    def __call__(self) -> float:
        start = perf_counter()
        self.work()
        return perf_counter() - start


class DenseCalibration(SmallArrayCalibration):
    """Host-speed calibration for ops dominated by dense arrays of about 1024 points.

    A Gram-like build and mat-vecs with it, a pairwise quadratic form over
    2016 pairs and a 200-point eigen-solve, the kinds of work the fit-large
    ops do.
    """

    reference_s = 8.7e-3

    def __init__(self):
        self.i = np.arange(512.0)
        self.v = np.linspace(0.0, 1.0, 512)
        self.d = np.linspace(-1.0, 1.0, 2016 * 16).reshape(2016, 16)
        self.g = np.eye(16) + 0.1
        j = np.arange(200.0)
        self.m = np.exp(-((j[:, None] - j[None, :]) ** 2) / 50.0) + np.eye(200)

    def work(self) -> None:
        # the 2 MB matrix is built and freed on every call, so it stays out of peak_rss_mb
        x = np.subtract.outer(self.i, self.i)
        np.square(x, out=x)
        x /= -5000.0
        np.exp(x, out=x)
        for _ in range(32):
            x @ self.v
        del x
        for _ in range(4):
            np.einsum("pi,ij,pj->p", self.d, self.g, self.d)
        np.linalg.eigvalsh(self.m)


def _fit_digest(fit) -> bytes:
    return fit.h.matrix.tobytes() + repr((fit.objective, fit.trace)).encode()


# ---------------------------------------------------------------------------
# fits
# ---------------------------------------------------------------------------
class FitCheck:
    """The per-fit checks, shared by both fit workloads.

    The objective is recomputed from public calls only, against the
    check's own spec; a fit must also do no worse than the empirical
    section. Traced runs add the single-term W probes at the fit.
    """

    def __init__(self, xs, ys, g_xy: GramMatrix, spec: WFunctionalSpec, truth, max_iters, terms):
        self.xs, self.ys = xs, ys
        self.g_xy, self.spec, self.truth = g_xy, spec, truth
        self.max_iters = max_iters
        self.term_specs = {
            name: WFunctionalSpec(
                spec.gram_xy, spec.gram_y, spec.gram_x,
                include_sup=name == "learning.w_sup",
                include_lipschitz=name == "learning.w_lipschitz",
                include_operator_norm=name == "learning.w_opnorm",
            )
            for name in terms
        }

    def objective(self, tr, h, gamma, emp, mu_x) -> float:
        fid = tr.call(
            "learning.fidelity", lambda: mmd(self.g_xy, graph_pushforward(h, mu_x), emp)
        )
        return fid * fid + gamma * tr.call("learning.w_eval", w_functional, h, self.spec)

    def __call__(self, fit, tr, S: Dataset, gamma: float) -> dict:
        h = fit.h
        if not isinstance(h, MarkovKernel) or h.source != self.xs or h.target != self.ys:
            raise CheckFailed("the fit is not a Markov kernel on the grids")
        emp = empirical(S)
        mu_x = empirical(S.xs(), self.xs)
        again = self.objective(tr, h, gamma, emp, mu_x)
        if not abs(fit.objective - again) <= OBJECTIVE_RTOL * abs(again):
            raise CheckFailed(f"objective {fit.objective!r} but recomputed {again!r}")
        section = empirical_section(S)
        at_section = self.objective(NullTracer(), section, gamma, emp, mu_x)
        if not fit.objective <= at_section:
            raise CheckFailed(f"objective {fit.objective!r} above the section's {at_section!r}")
        err = max(mmd(self.spec.gram_y, h.row(x), self.truth.row(x)) for x in self.xs.labels)
        iters = len(fit.trace) - 1
        tr.count("learning.iters", iters)
        tr.count("learning.cap_hit_ratio", float(iters >= self.max_iters))
        if tr.enabled:
            for name, spec in self.term_specs.items():
                tr.call(name, w_functional, h, spec)
        return {"sup_mmd_err": err}


class FitSmall:
    """Criterion-10 fits: 6x4 grid, g_xy = 50 x the product Gram, n in 50/200/800."""

    name = "fit-small"
    why = (
        "optimizer and the three W terms on tiny arrays, where numpy dispatch "
        "dominates; Gram work should not show here"
    )
    grid = FIT_SMALL_GRID
    datasets = 48
    min_cycles = 1
    config = dict(restarts=2, max_iters=250)

    def __init__(self, seed: int):
        self.calibrate = SmallArrayCalibration()
        xs, ys = grid(*self.grid)
        prod = ProductSpace(xs, ys)
        self.spec = WFunctionalSpec.from_kernel(GAUSS, xs, ys)
        self.g_xy = GramMatrix(prod, 50.0 * self.spec.gram_xy.values)
        self.truth = drifting_peak(xs, ys)
        joint = graph_pushforward(self.truth, ProbMeasure(xs, np.full(xs.size, 1.0 / xs.size)))
        self.checker = FitCheck(
            xs, ys, self.g_xy, self.spec, self.truth, self.config["max_iters"],
            ("learning.w_sup", "learning.w_lipschitz", "learning.w_opnorm"),
        )
        self.cycle = []
        for i in range(self.datasets):
            n = (50, 200, 800)[i % 3]
            S = Dataset(prod, sample_pairs(_rng(seed, 10, i), prod, joint, n))
            cfg = LearnerConfig(seed=i, **self.config)
            self.cycle.append(self._op(S, n ** -0.5, cfg))

    def _op(self, S, gamma, cfg) -> Op:
        def run(tr):
            return tr.call("learning.fit", regularized_estimate, S, gamma, self.g_xy, self.spec, cfg)

        return Op("fit", run, lambda fit, tr: self.checker(fit, tr, S, gamma), _fit_digest)


class FitLarge:
    """CLI-shaped fits on a 64x16 grid: build the spec, then a short fit, n = 1000."""

    name = "fit-large"
    why = (
        "Gram build, 1024-point PSD eigen-check, dense fidelity mat-vec and the "
        "2016-pair Lipschitz einsum; dispatch savings should barely register"
    )
    grid = FIT_LARGE_GRID
    datasets = 8
    min_cycles = 4
    n = 1000
    config = dict(restarts=1, max_iters=30)

    def __init__(self, seed: int):
        self.calibrate = DenseCalibration()
        self.xs, self.ys = xs, ys = grid(*self.grid)
        prod = ProductSpace(xs, ys)
        self.truth = drifting_peak(xs, ys)
        joint = graph_pushforward(self.truth, ProbMeasure(xs, np.full(xs.size, 1.0 / xs.size)))
        ref = WFunctionalSpec.from_kernel(GAUSS, xs, ys)
        # at |X| = 64 the operator-norm term is off by default, and its
        # input Gram is singular there, so it has no single-term probe
        self.checker = FitCheck(
            xs, ys, ref.gram_xy, ref, self.truth, self.config["max_iters"],
            ("learning.w_sup", "learning.w_lipschitz"),
        )
        self.cycle = []
        for i in range(self.datasets):
            pairs = sample_pairs(_rng(seed, 20, i), prod, joint, self.n)
            cfg = LearnerConfig(seed=i, **self.config)
            self.cycle.append(self._op(pairs, cfg))

    def _op(self, pairs, cfg) -> Op:
        gamma = self.n ** -0.5

        def run(tr):
            prod = tr.call("spaces.product_space", ProductSpace, self.xs, self.ys)
            S = tr.call("spaces.dataset", Dataset, prod, pairs)
            spec = tr.call("learning.spec_build", WFunctionalSpec.from_kernel, GAUSS, self.xs, self.ys)
            fit = tr.call("learning.fit", regularized_estimate, S, gamma, spec.gram_xy, spec, cfg)
            return fit, S

        return Op(
            "fit",
            run,
            lambda out, tr: self.checker(out[0], tr, out[1], gamma),
            lambda out: _fit_digest(out[0]),
        )


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------
def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def _cfg_text(**items) -> str:
    return "".join(f"{k} = {v}\n" for k, v in items.items())


def _labels(space: FiniteSpace) -> str:
    return ", ".join(space.labels)


def _coords(space: FiniteSpace) -> str:
    return "; ".join(repr(float(c)) for c in space.coords[:, 0])


def _stochastic(rng, ns: int, nt: int) -> np.ndarray:
    m = rng.random((ns, nt)) + 1e-3
    return m / m.sum(axis=1, keepdims=True)


def _prob(rng, n: int) -> np.ndarray:
    w = rng.random(n) + 1e-3
    return w / w.sum()


def criterion_04():
    """The fixed 5x4 cerm instance, reproduced exactly by 100 samples."""
    xs = FiniteSpace([f"x{i}" for i in range(5)])
    ys = FiniteSpace([f"y{i}" for i in range(4)])
    rows = np.array(
        [
            [0.30, 0.25, 0.25, 0.20],
            [0.05, 0.50, 0.25, 0.20],
            [0.40, 0.10, 0.35, 0.15],
            [0.25, 0.25, 0.25, 0.25],
            [0.10, 0.15, 0.20, 0.55],
        ]
    )
    pairs = []
    for i, x in enumerate(xs.labels):
        for j, y in enumerate(ys.labels):
            pairs.extend([(x, y)] * int(round(rows[i, j] * 20)))
    return MarkovKernel(xs, ys, rows), Dataset(ProductSpace(xs, ys), pairs)


class Verify:
    """A fixed cycle of the paper's claim checks, through the CLI and the library.

    Fixtures and CLI outputs go under `scratch`, a directory the caller owns.
    """

    name = "verify"
    why = (
        "object construction and validation, kernel calculus, the Monte Carlo "
        "loop, config, CSV and JSON I/O, and cerm; almost no dense linear algebra"
    )
    grid = FIT_SMALL_GRID
    draws = 1000
    min_cycles = 20

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.calibrate = SmallArrayCalibration()
        self.dir = Path(scratch)
        self.dir.mkdir(parents=True, exist_ok=True)
        self._fixtures()
        self._draws()
        self.truth04, self.S04 = criterion_04()
        self.g04 = gram(DELTA, self.truth04.target)
        # a fixed restart stream: with a seeded one, the op took 66 or 92 ms
        # by seed, and the cycle's median latency flipped between the two
        self.cerm_config = LearnerConfig(seed=0, restarts=1)
        self.cycle = [
            self._cli_op("laws", ["laws", "--seed", str(seed), "--trials", "200"], "laws.json", self._check_laws),
            *[
                self._cli_op(
                    "bounds",
                    ["bounds", "--config", cfg, "--seed", str(seed), "--trials", "2000", "--n", str(n)],
                    f"bounds-{name}",
                    self._check_bounds,
                )
                for name, cfg, n in self.bound_configs
            ],
            self._cli_op(
                "embed", ["embed", "--config", self.embed_cfg, self.sample_a, self.sample_b],
                "embed.json", self._check_embed,
            ),
            self._cli_op(
                "estimate",
                ["estimate", "--config", self.estimate_cfg, "--seed", str(seed), self.estimate_csv],
                "estimate", self._check_estimate,
            ),
            Op("deviation", self._deviation, self._check_deviation, lambda oks: bytes(oks)),
            Op("cerm", self._cerm, self._check_cerm, lambda r: r.h.matrix.tobytes() + repr(r.risk).encode()),
        ]

    # -- fixtures ----------------------------------------------------------
    def _fixtures(self) -> None:
        d = self.dir
        rng = _rng(self.seed, 30)
        # criterion 06: uniform truth on 10 labels, delta kernel
        self.ys10 = ys10 = FiniteSpace([f"y{i}" for i in range(10)])
        mmd_cfg = _write(d / "mmd.cfg", _cfg_text(bound="mmd_concentration", y_labels=_labels(ys10), kernel="delta", delta=0.05))
        # criterion 07: a fixed hypothesis against a fixed joint truth
        xs4 = FiniteSpace([f"x{i}" for i in range(4)])
        ys3 = FiniteSpace([f"y{i}" for i in range(3)])
        h07 = MarkovKernel(xs4, ys3, [[0.6, 0.3, 0.1], [0.1, 0.1, 0.8], [1 / 3, 1 / 3, 1 / 3], [0.25, 0.5, 0.25]])
        truth07 = MarkovKernel(xs4, ys3, [[0.2, 0.5, 0.3], [0.4, 0.4, 0.2], [0.1, 0.8, 0.1], [0.3, 0.3, 0.4]])
        mu07 = graph_pushforward(truth07, ProbMeasure(xs4, [0.3, 0.3, 0.2, 0.2]))
        common = dict(x_labels=_labels(xs4), y_labels=_labels(ys3), kernel="delta")
        hoeff_cfg = _write(
            d / "hoeffding.cfg",
            _cfg_text(
                bound="hoeffding", eps=0.2, **common,
                hypothesis=_write(d / "h07.json", json.dumps(kernel_to_json(h07))),
                truth_measure=_write(d / "mu07.json", json.dumps({"weights": mu07.weights.tolist()})),
            ),
        )
        # criterion 08: six random members, truth from the first
        rng08 = np.random.default_rng(8)
        members = [MarkovKernel(xs4, ys3, _stochastic(rng08, 4, 3)) for _ in range(6)]
        self.class08 = FiniteClass(members)
        mu08 = graph_pushforward(members[0], ProbMeasure(xs4, [0.25] * 4))
        paths = [_write(d / f"m08_{i}.json", json.dumps(kernel_to_json(m))) for i, m in enumerate(members)]
        cover_cfg = _write(
            d / "covering.cfg",
            _cfg_text(
                bound="covering", eps=0.4, c_m=0.0, **common, **{"class": "; ".join(paths)},
                truth_measure=_write(d / "mu08.json", json.dumps({"weights": mu08.weights.tolist()})),
            ),
        )
        self.bound_configs = [("hoeffding", hoeff_cfg, 200), ("covering", cover_cfg, 500), ("mmd_concentration", mmd_cfg, 200)]
        self.bound_instances = {
            "hoeffding": (mu07, h07, 200, dict(gY=gram(DELTA, ys3), eps=0.2)),
            "covering": (mu08, self.class08, 500, dict(gY=gram(DELTA, ys3), eps=0.4, c_m=0.0)),
            "mmd_concentration": (ProbMeasure(ys10, np.full(10, 0.1)), gram(DELTA, ys10), 200, dict(delta=0.05)),
        }
        # embed: two 500-label samples from a fixed skewed measure
        p = np.arange(1.0, 11.0)
        p /= p.sum()
        self.embed_samples = []
        for tag in "ab":
            labels = [ys10.labels[i] for i in rng.choice(10, size=500, p=p)]
            self.embed_samples.append(labels)
            setattr(self, f"sample_{tag}", _write(d / f"sample_{tag}.csv", "y\n" + "\n".join(labels) + "\n"))
        self.embed_cfg = _write(d / "embed.cfg", _cfg_text(y_labels=_labels(ys10), kernel="delta", delta=0.05))
        # estimate: 200 rows from the drifting peak on the fit-small grid
        xs, ys = grid(*self.grid)
        prod = ProductSpace(xs, ys)
        self.est_truth = drifting_peak(xs, ys)
        joint = graph_pushforward(self.est_truth, ProbMeasure(xs, np.full(xs.size, 1.0 / xs.size)))
        self.est_S = Dataset(prod, sample_pairs(rng, prod, joint, 200))
        spec = WFunctionalSpec.from_kernel(GAUSS, xs, ys)
        self.est_check = FitCheck(xs, ys, spec.gram_xy, spec, self.est_truth, FitSmall.config["max_iters"], ())
        self.estimate_csv = _write(d / "estimate.csv", dataset_to_csv(self.est_S))
        self.estimate_cfg_text = _cfg_text(
            x_labels=_labels(xs), x_coords=_coords(xs), y_labels=_labels(ys), y_coords=_coords(ys),
            kernel="gaussian", sigma=1.0, **FitSmall.config,
            truth_kernel=_write(d / "truth.json", json.dumps(kernel_to_json(self.est_truth))),
        )
        self.estimate_cfg = _write(d / "estimate.cfg", self.estimate_cfg_text)

    def _draws(self) -> None:
        """Criterion-09 inputs: two random kernels, a joint truth and six samples per draw."""
        rng = _rng(self.seed, 40)
        self.xs3 = FiniteSpace(["x1", "x2", "x3"])
        self.ys3 = FiniteSpace(["y1", "y2", "y3"])
        self.prod3 = ProductSpace(self.xs3, self.ys3)
        self.g3 = gram(DELTA, self.ys3)
        self.draw_inputs = [
            (
                _stochastic(rng, 3, 3),
                _stochastic(rng, 3, 3),
                _prob(rng, 9),
                [self.prod3.labels[i] for i in rng.integers(0, 9, size=6)],
            )
            for _ in range(self.draws)
        ]

    # -- CLI ops -----------------------------------------------------------
    def _cli_op(self, command: str, argv: list[str], out_name: str, check) -> Op:
        out = self.dir / "out" / out_name
        argv = [*argv, "--out", str(out)]
        span = f"cli.{command}"

        def run(tr):
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = tr.call(span, cli.main, argv)
            return {"code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}

        def checked(result, tr):
            if result["code"] != 0 or "Traceback" in result["stderr"]:
                raise CheckFailed(f"{command} exited {result['code']}: {result['stderr'][-500:]}")
            printed = json.loads(result["stdout"])
            # read and remove the outputs, so a stale file never passes a later check
            files = sorted(out.iterdir()) if out.is_dir() else [out]
            result["docs"] = {f.name: f.read_text() for f in files}
            for f in files:
                f.unlink()
            docs = result["docs"]
            parsed = {name: json.loads(text) for name, text in docs.items() if name.endswith(".json")}
            return check(printed, parsed) or {}

        def digest(result):
            docs = result.get("docs", {})
            return json.dumps([result["code"], result["stdout"], docs], sort_keys=True).encode()

        return Op(command, run, checked, digest)

    @staticmethod
    def _check_laws(printed, parsed):
        if printed != parsed["laws.json"]:
            raise CheckFailed("laws printed a different report than it wrote")
        for name, violation in parsed["laws.json"]["laws"].items():
            if not violation < LAW_TOL:
                raise CheckFailed(f"law {name} violated by {violation!r}")

    @staticmethod
    def _check_bounds(printed, parsed):
        rep = parsed["report.json"]
        if not rep["empirical_failure_rate"] <= rep["theoretical_bound"]:
            raise CheckFailed(f"{rep['bound_name']}: failure rate above the bound")
        if rep["parameters"].get("implication_violations", 0) != 0:
            raise CheckFailed("covering: excess-risk implication violated")

    def _check_embed(self, printed, parsed):
        doc = parsed["embed.json"]
        a, b = self.embed_samples
        want = mmd(gram(DELTA, self.ys10), empirical(a, self.ys10), empirical(b, self.ys10))
        if doc["n_a"] != 500 or doc["n_b"] != 500 or not abs(doc["mmd"] - want) <= 1e-12:
            raise CheckFailed(f"embed reported {doc}, expected mmd {want!r}")

    def _check_estimate(self, printed, parsed):
        report = parsed["report.json"]
        trace = parsed["trace.json"]["objective"]
        S = self.est_S
        if report["n"] != len(S):
            raise CheckFailed(f"estimate reported n = {report['n']}, the CSV has {len(S)} rows")
        fit = SimpleNamespace(h=kernel_from_json(parsed["estimate.json"]), objective=report["objective"], trace=trace)
        info = self.est_check(fit, NullTracer(), S, len(S) ** -0.5)
        if any(b > a for a, b in zip(trace, trace[1:])) or trace[-1] != report["objective"]:
            raise CheckFailed("estimate trace is not monotone or does not end at the objective")
        return info

    # -- library ops -------------------------------------------------------
    def _deviation(self, tr) -> list[bool]:
        xs, ys, prod, g = self.xs3, self.ys3, self.prod3, self.g3
        oks = []
        for f_rows, h_rows, weights, pairs in self.draw_inputs:
            f = tr.call("morphisms.markov_kernel", MarkovKernel, xs, ys, f_rows)
            h = tr.call("morphisms.markov_kernel", MarkovKernel, xs, ys, h_rows)
            mu = tr.call("spaces.prob_measure", ProbMeasure, prod, weights)
            S = tr.call("spaces.dataset", Dataset, prod, pairs)
            oks.append(tr.call("bounds.deviation_check", lipschitz_deviation_check, f, h, mu, S, 1.0, g))
        return oks

    @staticmethod
    def _check_deviation(oks, tr):
        if not all(oks):
            raise CheckFailed(f"{oks.count(False)} deviation-inequality violations")
        return {}

    def _cerm(self, tr):
        cls = ParametricClass(self.truth04.source, self.truth04.target)
        return tr.call("learning.cerm", cerm, cls, self.S04, self.g04, self.cerm_config)

    def _check_cerm(self, res, tr):
        err = max(mmd(self.g04, res.h.row(x), self.truth04.row(x)) for x in self.truth04.source.labels)
        if not err <= CERM_TOL:
            raise CheckFailed(f"cerm sup-MMD to the truth {err!r} > {CERM_TOL}")
        return {}


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------
BOUND_TRIALS = 2000
BOUND_SPANS = {"hoeffding": "bounds.hoeffding_trial", "covering": "bounds.covering_trial", "mmd_concentration": "bounds.mmd_trial"}


class Probes:
    """Probe calls for the layers a workload's ops reach only indirectly.

    Each probe times one public call at the size where the benchmark's
    layer table puts it, or reruns an op of another workload, outside the
    workload's op spans. A probe runs only when some span it makes is
    missing from the workload's own ops. Inputs come from the seed, and
    the verify fixtures go under `scratch`.
    """

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self._small = None
        self._verify = None

    @property
    def small(self) -> FitSmall:
        if self._small is None:
            self._small = FitSmall(self.seed)
        return self._small

    @property
    def verify(self) -> Verify:
        if self._verify is None:
            self._verify = Verify(self.seed, self.scratch)
        return self._verify

    def _micro(self):
        """(span name, repetitions, build) where build() returns the call to time."""
        seed = self.seed

        def product_space():
            xs, ys = grid(*FIT_SMALL_GRID)
            return lambda: ProductSpace(xs, ys)

        def draw(kind):
            v = self.verify
            f_rows, h_rows, weights, pairs = v.draw_inputs[0]
            f = MarkovKernel(v.xs3, v.ys3, f_rows)
            mu = ProbMeasure(v.prod3, weights)
            S = Dataset(v.prod3, pairs)
            return {
                "markov_kernel": lambda: MarkovKernel(v.xs3, v.ys3, h_rows),
                "prob_measure": lambda: ProbMeasure(v.prod3, weights),
                "dataset": lambda: Dataset(v.prod3, pairs),
                "expected_risk": lambda: expected_risk(f, mu, v.g3),
                "empirical_risk": lambda: empirical_risk(f, S, v.g3),
            }[kind]

        def gram_call(size, psd):
            P = ProductSpace(*grid(*size))
            if not psd:
                return lambda: gram(GAUSS, P)
            values = gram(GAUSS, P).values.copy()
            return lambda: GramMatrix(P, values)

        def mmd_call():
            v = self.verify
            g = gram(DELTA, v.ys10)
            a = empirical(v.embed_samples[0], v.ys10)
            uniform = ProbMeasure(v.ys10, np.full(10, 0.1))
            return lambda: mmd(g, a, uniform)

        def laws_sized():
            rng = _rng(seed, 50)
            spaces = [FiniteSpace([f"{t}{i}" for i in range(n)]) for t, n in (("a", 4), ("b", 5), ("c", 3))]
            t1 = MarkovKernel(spaces[0], spaces[1], _stochastic(rng, 4, 5))
            t2 = MarkovKernel(spaces[1], spaces[2], _stochastic(rng, 5, 3))
            joint = ProbMeasure(ProductSpace(spaces[0], spaces[1]), _prob(rng, 20))
            return t1, t2, joint

        def compose_call():
            t1, t2, _ = laws_sized()
            return lambda: compose(t2, t1)

        def disintegrate_call():
            _, _, joint = laws_sized()
            return lambda: disintegrate(joint)

        def opnorm_call():
            s = self.small
            return lambda: embedded_operator_norm(s.truth, s.spec.gram_x, s.spec.gram_xy)

        def spec_build():
            xs, ys = grid(*FIT_SMALL_GRID)
            return lambda: WFunctionalSpec.from_kernel(GAUSS, xs, ys)

        def bound_call(name):
            truth, subject, n, params = self.verify.bound_instances[name]
            return lambda: monte_carlo_verify(name, truth, subject, n, BOUND_TRIALS, seed, **params)

        def covering_call():
            v = self.verify
            return lambda: covering_number(v.class08, 0.4 / 8.0, v.bound_instances["covering"][3]["gY"])

        def config_call():
            text = self.verify.estimate_cfg_text
            return lambda: parse_config(text)

        def csv_call():
            v = self.verify
            text = Path(v.estimate_csv).read_text()
            return lambda: dataset_from_csv(text, v.est_S.space)

        def json_call():
            truth = self.verify.est_truth
            return lambda: kernel_from_json(kernel_to_json(truth))

        micro = [
            ("spaces.product_space", 20, product_space),
            ("spaces.prob_measure", 200, lambda: draw("prob_measure")),
            ("spaces.dataset", 200, lambda: draw("dataset")),
            ("kernels.mmd", 200, mmd_call),
            ("morphisms.markov_kernel", 200, lambda: draw("markov_kernel")),
            ("morphisms.compose", 200, compose_call),
            ("morphisms.disintegrate", 200, disintegrate_call),
            ("morphisms.opnorm", 20, opnorm_call),
            ("losses.expected_risk", 200, lambda: draw("expected_risk")),
            ("losses.empirical_risk", 200, lambda: draw("empirical_risk")),
            ("learning.spec_build", 20, spec_build),
            ("bounds.covering_number", 20, covering_call),
            ("serialize.config_parse", 200, config_call),
            ("serialize.dataset_csv", 20, csv_call),
            ("serialize.kernel_json", 50, json_call),
        ]
        for name, span in BOUND_SPANS.items():
            micro.append((span, 3, lambda name=name: bound_call(name)))
        for size in GRAM_SIZES:
            label = f"{size[0]}x{size[1]}"
            reps = 2 if size == GRAM_SIZES[-1] else 3
            micro.append((f"kernels.gram.{label}", reps, lambda size=size: gram_call(size, False)))
            micro.append((f"kernels.psd_check.{label}", reps, lambda size=size: gram_call(size, True)))
        return micro

    def _op_probes(self):
        """(names the op makes, op factory): ops of other workloads rerun as probes."""
        fit_names = {
            "learning.fit", "learning.fidelity", "learning.w_eval", "learning.w_sup",
            "learning.w_lipschitz", "learning.w_opnorm", "learning.iters", "learning.cap_hit_ratio",
        }
        return [
            (fit_names, lambda: self.small.cycle[:3]),
            ({"learning.cerm"}, lambda: [self.verify.cycle[-1]] * 3),
            ({"cli.laws", "cli.bounds", "cli.embed", "cli.estimate"}, lambda: self.verify.cycle[:6]),
        ]

    def run(self, tracer, seen: set[str]) -> list:
        """Run every probe that makes a name not in `seen`; return the probe ops' results."""
        results = []
        tracer.op_id = PROBE
        try:
            for name, reps, build in self._micro():
                if name not in seen:
                    call = build()
                    for _ in range(reps):
                        tracer.call(name, call)
        finally:
            tracer.op_id = None
        for names, ops in self._op_probes():
            if names - seen:
                ops = ops()
                digests = [None] * len(ops)
                for slot, op in enumerate(ops):
                    results.append(execute(op, slot, tracer, PROBE, digests))
        return results
