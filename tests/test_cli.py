import json
import math
import shutil
import warnings

import numpy as np
import pytest

from probmorph.bounds import VERIFIERS
from probmorph.cli import main
from probmorph.kernels import KernelSpec, NotPSDError
from probmorph.learning import LearnerConfig, WFunctionalSpec, regularized_estimate, w_functional
from probmorph.morphisms import MarkovKernel
from probmorph.serialize import dataset_from_csv, kernel_from_json, kernel_to_json, measure_to_json
from probmorph.spaces import FiniteSpace, ProbMeasure, ProductSpace, empirical, marginal
from probmorph.morphisms import graph_pushforward

X = FiniteSpace(["a", "b", "c"], coords=[[0.0], [1.0], [2.0]])
Y = FiniteSpace(["u", "v"], coords=[[0.0], [1.0]])

EST_CFG = """\
x_labels = a, b, c
x_coords = 0; 1; 2
y_labels = u, v
y_coords = 0; 1
kernel = gaussian
sigma = 1.0
restarts = 2
max_iters = 150
"""


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "est.cfg").write_text(EST_CFG)
    (tmp_path / "data.csv").write_text(
        "x,y\na,u\na,u\na,v\nb,v\nb,v\nc,u\nc,v\na,u\n"
    )
    return tmp_path


def run(*argv):
    return main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# laws
# ---------------------------------------------------------------------------
def test_laws_pass(tmp_path, capsys):
    out = tmp_path / "laws.json"
    code = run("laws", "--seed", 0, "--trials", 40, "--out", out)
    assert code == 0
    report = json.loads(out.read_text())
    assert report["failed"] == []
    assert all(v < 1e-10 for v in report["laws"].values())


def test_laws_trials_zero_is_usage_error(capsys):
    assert run("laws", "--seed", 0, "--trials", 0) == 64


def test_laws_corrupt_fixture(tmp_path, capsys):
    doc = kernel_to_json(MarkovKernel(Y, Y, [[0.5, 0.5], [0.0, 1.0]]))
    doc["rows"] = [[0.6, 0.5], [0.0, 1.0]]  # row sums to 1.1
    (tmp_path / "bad_kernel.json").write_text(json.dumps(doc))
    (tmp_path / "laws.cfg").write_text(f"kernel_file = {tmp_path}/bad_kernel.json\n")
    code = run("laws", "--seed", 0, "--trials", 5, "--config", tmp_path / "laws.cfg")
    assert code == 2
    assert "stochastic" in capsys.readouterr().out


@pytest.mark.parametrize(
    "rows",
    [
        [0.5, 0.5, 0.0, 1.0],  # flat
        [[0.5, 0.5], [1.0]],  # ragged
        "abc",
        [[0.5, 0.5], [0.0, 1.0], [1.0, 0.0]],  # three rows on a two-point source
        {"a": 1},
    ],
    ids=["flat", "ragged", "string", "extra-row", "object"],
)
def test_laws_malformed_fixture_rows(tmp_path, capsys, rows):
    doc = kernel_to_json(MarkovKernel(Y, Y, [[0.5, 0.5], [0.0, 1.0]]))
    doc["rows"] = rows
    (tmp_path / "bad_kernel.json").write_text(json.dumps(doc))
    (tmp_path / "laws.cfg").write_text(f"kernel_file = {tmp_path}/bad_kernel.json\n")
    code = run("laws", "--seed", 0, "--trials", 2, "--config", tmp_path / "laws.cfg")
    assert code in (2, 65)
    assert "Traceback" not in capsys.readouterr().err


def test_laws_overflowing_fixture_row_prints_no_warning(tmp_path, capsys):
    doc = kernel_to_json(MarkovKernel(Y, Y, [[0.5, 0.5], [0.0, 1.0]]))
    doc["rows"] = [[1e308, 1e308], [0.0, 1.0]]  # the first row's sum overflows
    (tmp_path / "bad_kernel.json").write_text(json.dumps(doc))
    (tmp_path / "laws.cfg").write_text(f"kernel_file = {tmp_path}/bad_kernel.json\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run("laws", "--seed", 0, "--trials", 2, "--config", tmp_path / "laws.cfg")
    captured = capsys.readouterr()
    assert code == 2 and caught == []
    # stderr holds the one invariant-failure line and no RuntimeWarning
    assert captured.err.splitlines() == [
        'invariant failure: ["kernel fixture: bad kernel document: '
        "row-stochasticity: row at 'u' sums to inf, not 1\"]"
    ]


def test_unknown_subcommand():
    assert run("definitely-not-a-subcommand") == 64


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------
def test_estimate_writes_reports(workdir, capsys):
    out = workdir / "fit"
    code = run(
        "estimate", "--config", workdir / "est.cfg", "--seed", 1,
        "--out", out, "--gamma", 0.3, workdir / "data.csv",
    )
    assert code == 0
    est = kernel_from_json(json.loads((out / "estimate.json").read_text()))
    assert est.source == X and est.target == Y
    trace = json.loads((out / "trace.json").read_text())["objective"]
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
    report = json.loads((out / "report.json").read_text())
    assert report["gamma"] == 0.3 and report["n"] == 8


def test_estimate_deterministic(workdir):
    a, b = workdir / "fit_a", workdir / "fit_b"
    for out in (a, b):
        assert run(
            "estimate", "--config", workdir / "est.cfg", "--seed", 5,
            "--out", out, workdir / "data.csv",
        ) == 0
    assert (a / "estimate.json").read_text() == (b / "estimate.json").read_text()
    assert (a / "report.json").read_text() == (b / "report.json").read_text()


def test_estimate_repeated_row_gives_point_mass(workdir):
    (workdir / "rep.csv").write_text("x,y\n" + "a,v\n" * 10)
    out = workdir / "fit_rep"
    code = run(
        "estimate", "--config", workdir / "est.cfg", "--seed", 0,
        "--out", out, "--gamma", 1e-4, workdir / "rep.csv",
    )
    assert code == 0
    est = kernel_from_json(json.loads((out / "estimate.json").read_text()))
    assert est.row("a").weight("v") > 0.97


def test_estimate_bad_labels_exit_65(workdir, capsys):
    (workdir / "bad.csv").write_text("x,y\na,u\nq,u\n")
    code = run(
        "estimate", "--config", workdir / "est.cfg", "--seed", 0,
        "--out", workdir / "nope", workdir / "bad.csv",
    )
    assert code == 65
    assert "3" in capsys.readouterr().err  # offending line number


def test_estimate_malformed_csv_exit_65(workdir, capsys):
    (workdir / "broken.csv").write_text("x,y\na\n")
    code = run(
        "estimate", "--config", workdir / "est.cfg", "--seed", 0,
        "--out", workdir / "nope", workdir / "broken.csv",
    )
    assert code == 65


def test_estimate_missing_config_exit_64(workdir):
    code = run(
        "estimate", "--config", workdir / "missing.cfg", "--seed", 0,
        "--out", workdir / "nope", workdir / "data.csv",
    )
    assert code == 64


def test_estimate_reports_truth_error(workdir):
    t = MarkovKernel(X, Y, [[0.8, 0.2], [0.4, 0.6], [0.3, 0.7]])
    (workdir / "truth.json").write_text(json.dumps(kernel_to_json(t)))
    (workdir / "est2.cfg").write_text(
        EST_CFG + f"truth_kernel = {workdir}/truth.json\n"
    )
    out = workdir / "fit_t"
    code = run(
        "estimate", "--config", workdir / "est2.cfg", "--seed", 0,
        "--out", out, workdir / "data.csv",
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert 0.0 <= report["sup_mmd_error_to_truth"] < 2.0


def test_estimate_ignores_a_step_size_key(workdir):
    # mirror descent's step scale is fixed, so the key is ignored like restarts; at this
    # gamma the descent leaves the uniform start, so a step scale would show in the trace
    outs = []
    for name, extra in (("plain", ""), ("stepped", "step_size = 0.01\n")):
        (workdir / f"{name}.cfg").write_text(EST_CFG + "gamma = 0.01\n" + extra)
        out = workdir / name
        assert run(
            "estimate", "--config", workdir / f"{name}.cfg", "--seed", 0,
            "--out", out, workdir / "data.csv",
        ) == 0
        outs.append([(out / f).read_bytes() for f in ("estimate.json", "trace.json", "report.json")])
    assert outs[0] == outs[1]


@pytest.mark.parametrize("truth", ["missing", "other-grids"])
def test_estimate_bad_truth_kernel_exit_65_before_the_fit(workdir, capsys, monkeypatch, truth):
    fits = []
    monkeypatch.setattr("probmorph.cli.regularized_estimate", lambda *a: fits.append(a))
    if truth == "other-grids":
        t = MarkovKernel(X, FiniteSpace(["u", "w"], coords=[[0.0], [1.0]]), [[0.5, 0.5]] * 3)
        (workdir / "truth.json").write_text(json.dumps(kernel_to_json(t)))
    (workdir / "t.cfg").write_text(EST_CFG + f"truth_kernel = {workdir}/truth.json\n")
    out = workdir / "fit"
    code = run(
        "estimate", "--config", workdir / "t.cfg", "--seed", 0, "--out", out, workdir / "data.csv"
    )
    err = capsys.readouterr().err
    assert code == 65 and "truth" in err and "Traceback" not in err
    assert fits == [] and not out.exists()


def _gaussian_source(tmp_path, nx):
    """A gaussian (sigma = 1) estimate config on nx points of [0, 5], and its data file."""
    labels = ", ".join(f"x{i}" for i in range(nx))
    coords = "; ".join(repr(float(c)) for c in np.linspace(0.0, 5.0, nx))
    (tmp_path / "data.csv").write_text(
        "x,y\n" + "".join(f"x{i},{'uv'[i % 2]}\n" for i in range(nx))
    )
    return (
        f"x_labels = {labels}\nx_coords = {coords}\n"
        "y_labels = u, v\ny_coords = 0; 1\nkernel = gaussian\nsigma = 1.0\nmax_iters = 20\n"
    )


def _estimate(tmp_path, config):
    return run(
        "estimate", "--config", tmp_path / config, "--seed", 0,
        "--out", tmp_path / "fit", tmp_path / "data.csv",
    )


@pytest.mark.parametrize("value", ["on", "off", "1", "0", "maybe"])
@pytest.mark.parametrize("nx", [3, 32])
def test_estimate_refuses_the_removed_operator_norm_key(tmp_path, capsys, nx, value):
    # the key asks for another objective, so no value of it is ignored; at 32 close
    # points the gaussian source Gram is also numerically singular on sum-zero weights
    (tmp_path / "est.cfg").write_text(_gaussian_source(tmp_path, nx) + f"operator_norm = {value}\n")
    assert _estimate(tmp_path, "est.cfg") == 64
    err = capsys.readouterr().err
    assert "operator-norm term was removed" in err and "Traceback" not in err
    assert not (tmp_path / "fit").exists()


def test_estimate_fits_an_ill_conditioned_gaussian_source(tmp_path, capsys):
    # 24 points: kappa of the source Gram on sum-zero weights is about 2.6e15, and the
    # fit, which reads no inverse of it, succeeds
    (tmp_path / "est.cfg").write_text(_gaussian_source(tmp_path, 24))
    assert _estimate(tmp_path, "est.cfg") == 0, capsys.readouterr().err


def test_estimate_tiny_kernel_scale_exit_0(workdir, capsys):
    # a kernel scaled by 1e-12 still gives a finite fit
    (workdir / "tiny.cfg").write_text(EST_CFG + "scale = 1e-12\n")
    code = run(
        "estimate", "--config", workdir / "tiny.cfg", "--seed", 0,
        "--out", workdir / "tiny", workdir / "data.csv",
    )
    assert code == 0, capsys.readouterr().err
    report = json.loads((workdir / "tiny" / "report.json").read_text())
    assert math.isfinite(report["objective"])


def test_estimate_at_a_small_gamma_descends_to_the_reported_objective(workdir, capsys):
    # at the default gamma the fit keeps its start; at 0.01 mirror descent moves it
    out = workdir / "fit"
    code = run(
        "estimate", "--config", workdir / "est.cfg", "--seed", 0,
        "--out", out, "--gamma", 0.01, workdir / "data.csv",
    )
    assert code == 0, capsys.readouterr().err
    trace = json.loads((out / "trace.json").read_text())["objective"]
    report = json.loads((out / "report.json").read_text())
    assert any(b < a for a, b in zip(trace, trace[1:]))
    assert trace[-1] == report["objective"]
    # recomputed from the written kernel; the marginal's sums may round apart by an ulp
    h = kernel_from_json(json.loads((out / "estimate.json").read_text()))
    joint = empirical(dataset_from_csv((workdir / "data.csv").read_text(), ProductSpace(X, Y)))
    spec = WFunctionalSpec.from_kernel(KernelSpec("gaussian", sigma=1.0), X, Y)
    d = graph_pushforward(h, marginal(joint, "left")) - joint
    objective = float(spec.gram_xy.sq_norms(d.weights[None])[1][0]) + 0.01 * w_functional(h, spec)
    assert abs(objective - report["objective"]) <= 4 * math.ulp(report["objective"])


def test_estimate_overflowing_fit_exit_64(tmp_path, capsys):
    # the Lipschitz ratio over a source distance of 1e-155 overflows the second step
    (tmp_path / "est.cfg").write_text(
        "x_labels = a, b\nx_coords = 0; 1e-155\ny_labels = u, v\ny_coords = 0; 1\n"
        "kernel = delta\ngamma = 1\nmax_iters = 5\n"
    )
    (tmp_path / "data.csv").write_text("x,y\na,u\nb,v\n")
    assert _estimate(tmp_path, "est.cfg") == 64
    err = capsys.readouterr().err
    assert "the fit overflowed (non-finite logits after 2 steps); lower gamma" in err
    assert "Traceback" not in err and not (tmp_path / "fit").exists()


def test_estimate_reads_the_certificate_before_writing(workdir, capsys, monkeypatch):
    # the certificate's probes run on first read; a failure there writes nothing
    def refuse(*args):
        raise NotPSDError("squared norm -1.000e-03 below -1.000e-12: Gram is not PSD")

    monkeypatch.setattr("probmorph.learning._probe_rows", refuse)
    out = workdir / "fit"
    code = run(
        "estimate", "--config", workdir / "est.cfg", "--seed", 0, "--out", out, workdir / "data.csv"
    )
    err = capsys.readouterr().err
    assert code == 2 and "invariant failure: squared norm" in err and "Traceback" not in err
    assert not out.exists()


def test_estimate_reports_the_library_certificate(workdir):
    out = workdir / "fit"
    assert run(
        "estimate", "--config", workdir / "est.cfg", "--seed", 3,
        "--out", out, "--gamma", 0.01, workdir / "data.csv",
    ) == 0
    data = dataset_from_csv((workdir / "data.csv").read_text(), ProductSpace(X, Y))
    spec = WFunctionalSpec.from_kernel(KernelSpec("gaussian", sigma=1.0), X, Y)
    fit = regularized_estimate(data, 0.01, spec.gram_xy, spec, LearnerConfig(max_iters=150, seed=3))
    report = json.loads((out / "report.json").read_text())
    assert report["objective"] == fit.objective
    assert report["eps_certificate"] == fit.eps_certificate


def test_embed_rank_one_linear_kernel_exit_0(workdir, capsys):
    # both samples have mean coordinate 0.8, so the exact squared MMD is 0;
    # its roundoff on the rank-one Gram (-4.7e-10 at scale 1e8) reads as 0
    (workdir / "lin.cfg").write_text(
        "y_labels = a, b, c\ny_coords = 0.1; 0.8; 1.5\nkernel = linear\nscale = 1e8\n"
    )
    (workdir / "ac.csv").write_text("y\na\nc\n")
    (workdir / "bb.csv").write_text("y\nb\nb\n")
    code = run("embed", "--config", workdir / "lin.cfg", workdir / "ac.csv", workdir / "bb.csv")
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert 0.0 <= json.loads(captured.out)["mmd"] < 1e-6 * math.sqrt(1e8 * 1.5**2)


@pytest.mark.parametrize("kernel", ["gaussian", "delta"])
def test_estimate_without_x_coords_exit_64(workdir, capsys, kernel):
    # gaussian needs source coordinates for the kernel, delta for the Lipschitz term
    cfg = EST_CFG.replace("x_coords = 0; 1; 2\n", "").replace("gaussian", kernel)
    (workdir / "nocoords.cfg").write_text(cfg)
    code = run(
        "estimate", "--config", workdir / "nocoords.cfg", "--seed", 0,
        "--out", workdir / "nope", workdir / "data.csv",
    )
    assert code == 64
    err = capsys.readouterr().err
    assert "x_coords" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------
@pytest.fixture
def bounds_dir(tmp_path):
    t = MarkovKernel(X, Y, [[0.7, 0.3], [0.4, 0.6], [0.2, 0.8]])
    mu = graph_pushforward(t, ProbMeasure(X, [0.5, 0.3, 0.2]))
    (tmp_path / "hyp.json").write_text(json.dumps(kernel_to_json(t)))
    (tmp_path / "truth.json").write_text(json.dumps(measure_to_json(mu)))
    (tmp_path / "bounds.cfg").write_text(
        "bound = hoeffding\n"
        "x_labels = a, b, c\nx_coords = 0; 1; 2\n"
        "y_labels = u, v\ny_coords = 0; 1\n"
        "kernel = delta\n"
        f"truth_measure = {tmp_path}/truth.json\n"
        f"hypothesis = {tmp_path}/hyp.json\n"
        "eps = 0.25\n"
    )
    return tmp_path


def test_bounds_hoeffding_report(bounds_dir):
    out = bounds_dir / "rep"
    code = run(
        "bounds", "--config", bounds_dir / "bounds.cfg", "--seed", 2,
        "--trials", 200, "--n", 100, "--out", out,
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["empirical_failure_rate"] <= report["theoretical_bound"]
    table = (out / "table.csv").read_text().splitlines()
    assert table[0] == "n,theoretical_bound,empirical_failure_rate,wilson_low,wilson_high"
    assert table[1].startswith("100,")


def test_bounds_deterministic(bounds_dir):
    outs = []
    for name in ("r1", "r2"):
        out = bounds_dir / name
        assert run(
            "bounds", "--config", bounds_dir / "bounds.cfg", "--seed", 9,
            "--trials", 50, "--n", 60, "--out", out,
        ) == 0
        outs.append((out / "report.json").read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("n, code", [(2**63, 64), (2**63 - 1, 0)])
def test_bounds_n_beyond_int64_is_a_usage_error(bounds_dir, capsys, n, code):
    # the sampler takes n as a 64-bit integer: the largest one runs, one more is refused
    out = bounds_dir / "rep"
    assert run(
        "bounds", "--config", bounds_dir / "bounds.cfg", "--seed", 0,
        "--trials", 10, "--n", n, "--out", out,
    ) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err and out.exists() == (code == 0)
    if code:
        assert f"argument --n: expected an integer in [1, 2**63 - 1], got {n}" in err


def test_successive_main_calls_match_separate_ones(bounds_dir, capsys):
    # main builds its parser once per process; every call must still read only its own
    # arguments. Each call is rerun with the parser rebuilt, as a separate process would.
    from probmorph.cli import _build_parser

    out_dir = bounds_dir / "o"

    def call(argv, rebuild):
        if rebuild:
            _build_parser.cache_clear()
        out_dir.mkdir()
        code = run(*argv)
        out, err = capsys.readouterr()
        files = sorted((p.name, p.read_bytes()) for p in out_dir.iterdir())
        shutil.rmtree(out_dir)
        return code, out, err, files

    calls = (
        ("laws", "--seed", 3, "--trials", 5, "--out", out_dir / "laws.json"),
        ("bounds", "--config", bounds_dir / "bounds.cfg", "--trials", 0),
        ("bounds", "--config", bounds_dir / "bounds.cfg", "--seed", 2,
         "--trials", 40, "--n", 30, "--out", out_dir),
    )
    _build_parser.cache_clear()
    together = [call(argv, rebuild=False) for argv in calls]
    assert _build_parser.cache_info().misses == 1
    separate = [call(argv, rebuild=True) for argv in calls]
    assert [c[0] for c in together] == [0, 64, 0]
    assert together[0][3] and together[2][3]  # both wrote their reports
    assert together == separate


# the config lines each bound adds to bounds.cfg; one entry per name in bounds.VERIFIERS
BOUND_CONFIGS = {
    "hoeffding": "",
    "covering": "class = {dir}/hyp.json; {dir}/hyp.json\n",
    "mmd_concentration": "truth_measure = {dir}/truth_y.json\n",
}


def test_every_bound_name_runs_through_the_cli(bounds_dir):
    assert sorted(BOUND_CONFIGS) == sorted(VERIFIERS)
    (bounds_dir / "truth_y.json").write_text(json.dumps(measure_to_json(ProbMeasure(Y, [0.4, 0.6]))))
    for name, lines in BOUND_CONFIGS.items():
        cfg = (bounds_dir / "bounds.cfg").read_text() + f"bound = {name}\n" + lines.format(dir=bounds_dir)
        (bounds_dir / f"{name}.cfg").write_text(cfg)
        out = bounds_dir / name
        assert run(
            "bounds", "--config", bounds_dir / f"{name}.cfg", "--seed", 1,
            "--trials", 30, "--n", 20, "--out", out,
        ) == 0
        assert json.loads((out / "report.json").read_text())["bound_name"] == name


def test_bounds_unknown_name_exit_64(bounds_dir, capsys):
    (bounds_dir / "bad.cfg").write_text("bound = chernoff\n")
    assert run(
        "bounds", "--config", bounds_dir / "bad.cfg", "--seed", 0,
        "--out", bounds_dir / "x",
    ) == 64
    assert "unknown bound name 'chernoff'" in capsys.readouterr().err


def test_bounds_mmd_truth_weight_count_exit_65(bounds_dir, capsys):
    (bounds_dir / "w3.json").write_text(json.dumps({"weights": [0.2, 0.3, 0.5]}))
    cfg = (bounds_dir / "bounds.cfg").read_text()
    (bounds_dir / "mmd.cfg").write_text(
        cfg + f"bound = mmd_concentration\ntruth_measure = {bounds_dir}/w3.json\n"
    )
    code = run(
        "bounds", "--config", bounds_dir / "mmd.cfg", "--seed", 0,
        "--trials", 5, "--n", 10, "--out", bounds_dir / "nope",
    )
    assert code == 65
    err = capsys.readouterr().err
    assert "3 weights for 2 points" in err and "Traceback" not in err


def test_bounds_truth_measure_labels_must_match_the_config(tmp_path, capsys):
    # a document without labels is read on the config's space; one with labels
    # must describe that space, so permuted labels are a data error, not a reordering
    cfg = "bound = mmd_concentration\ny_labels = a, b\nkernel = delta\n"
    docs = {
        "labelled": {"labels": ["a", "b"], "coords": None, "weights": [0.9, 0.1]},
        "bare": {"weights": [0.9, 0.1]},
        "permuted": {"labels": ["b", "a"], "coords": None, "weights": [0.1, 0.9]},
    }
    codes = {}
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        (tmp_path / f"{name}.cfg").write_text(cfg + f"truth_measure = {tmp_path}/{name}.json\n")
        codes[name] = run(
            "bounds", "--config", tmp_path / f"{name}.cfg", "--seed", 0,
            "--trials", 50, "--n", 10, "--out", tmp_path / name,
        )
    assert codes == {"labelled": 0, "bare": 0, "permuted": 65}
    err = capsys.readouterr().err
    assert "does not match" in err and "Traceback" not in err
    report = {name: (tmp_path / name / "report.json").read_text() for name in ("labelled", "bare")}
    assert report["labelled"] == report["bare"]


# the fixture's grids without a truth measure, and a hypothesis on y coordinates {0, 0},
# where the linear kernel vanishes
BOUNDS_GRIDS = "x_labels = a, b, c\nx_coords = 0; 1; 2\ny_labels = u, v\neps = 0.25\n"
Y_AT_ZERO = FiniteSpace(["u", "v"], coords=[[0.0], [0.0]])


@pytest.mark.parametrize(
    "lines, code",
    [
        ("bound = mmd_concentration\nkernel = gaussian\ny_coords = 0; 1\nscale = 2", 64),
        ("bound = mmd_concentration\nkernel = delta\nscale = 2", 64),
        ("bound = mmd_concentration\nkernel = linear\ny_coords = 0; 3", 64),
        ("bound = hoeffding\nkernel = linear\ny_coords = 0; 0\nhypothesis = {dir}/h0.json", 64),
        ("bound = covering\nkernel = linear\ny_coords = 0; 0\nclass = {dir}/h0.json; {dir}/h0.json",
         64),
        # a hypothesis on other grids is still a data error, also where C_K = 0
        ("bound = hoeffding\nkernel = linear\ny_coords = 0; 0\nhypothesis = {dir}/hyp.json", 65),
    ],
    ids=["mmd-gaussian-scale-2", "mmd-delta-scale-2", "mmd-linear-diag-9", "hoeffding-c_k-0",
         "covering-c_k-0", "hoeffding-c_k-0-other-grids"],
)
def test_bounds_kernel_the_bound_cannot_use(bounds_dir, capsys, lines, code):
    # a kernel diagonal above 1 (mmd_concentration) or C_K = 0 (hoeffding, covering)
    h0 = MarkovKernel(X, Y_AT_ZERO, [[0.7, 0.3], [0.4, 0.6], [0.2, 0.8]])
    (bounds_dir / "h0.json").write_text(json.dumps(kernel_to_json(h0)))
    (bounds_dir / "k.cfg").write_text(BOUNDS_GRIDS + lines.format(dir=bounds_dir) + "\n")
    out = bounds_dir / "rep"
    assert run(
        "bounds", "--config", bounds_dir / "k.cfg", "--seed", 0,
        "--trials", 5, "--n", 10, "--out", out,
    ) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err and not out.exists()
    if code == 64:
        assert "scale or y_coords" in err


@pytest.mark.parametrize(
    "lines, code, message",
    [
        ("bound = hoeffding\nhypothesis = {dir}/broken.json", 65, "broken.json"),
        ("", 64, "config must set 'bound'"),
        ("bound = hoeffding", 64, "needs a 'hypothesis'"),
    ],
    ids=["json-does-not-parse", "bound-unset", "hoeffding-without-hypothesis"],
)
def test_bounds_config_without_its_inputs(bounds_dir, capsys, lines, code, message):
    (bounds_dir / "broken.json").write_text('{"rows": [[0.5, 0.5]')
    cfg = BOUNDS_GRIDS + "kernel = delta\n" + lines.format(dir=bounds_dir) + "\n"
    (bounds_dir / "k.cfg").write_text(cfg)
    assert run(
        "bounds", "--config", bounds_dir / "k.cfg", "--seed", 0,
        "--trials", 5, "--n", 10, "--out", bounds_dir / "rep",
    ) == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


# a covering config whose one-member class is the bounds fixture's hypothesis
COVERING = "bound = covering\nclass = {dir}/hyp.json\n"


@pytest.mark.parametrize(
    "command, line",
    [
        ("estimate", "max_iters = 1.5"),
        ("estimate", "sigma = x"),
        ("bounds", "eps = nope"),
        ("embed", "delta = 2"),
        ("bounds", "bound = mmd_concentration\ndelta = 2"),
        ("estimate", "tol = nan"),
        ("estimate", "tol = -1"),
        ("estimate", "gamma = inf"),
        ("estimate", "sigma = inf"),
        ("embed", "kernel = gaussian\nsigma = inf"),
        ("embed", "scale = inf"),
        ("bounds", "eps = 0"),
        ("bounds", "eps = -1"),
        ("bounds", "eps = nan"),
        ("bounds", COVERING + "c_m = nan"),
        ("bounds", COVERING + "c_m = inf"),
        ("bounds", COVERING + "c_m = -1"),
    ],
    ids=[
        "max_iters-1.5", "sigma-x", "eps-nope",
        "embed-delta-2", "mmd-delta-2", "tol-nan", "tol-neg", "gamma-inf", "sigma-inf",
        "embed-sigma-inf", "embed-scale-inf", "eps-0", "eps-neg", "eps-nan",
        "c_m-nan", "c_m-inf", "c_m-neg",
    ],
)
def test_bad_numeric_config_exit_64(workdir, bounds_dir, embed_dir, capsys, command, line):
    # a later line overrides an earlier one with the same key
    if command == "estimate":
        (workdir / "bad.cfg").write_text(EST_CFG + line + "\n")
        argv = ["estimate", "--config", workdir / "bad.cfg", "--seed", 0,
                "--out", workdir / "nope", workdir / "data.csv"]
    elif command == "embed":
        cfg = (embed_dir / "embed.cfg").read_text()
        (embed_dir / "bad.cfg").write_text(cfg + line + "\n")
        argv = ["embed", "--config", embed_dir / "bad.cfg",
                embed_dir / "a.csv", embed_dir / "b.csv"]
    else:
        cfg = (bounds_dir / "bounds.cfg").read_text()
        (bounds_dir / "bad.cfg").write_text(cfg + line.format(dir=bounds_dir) + "\n")
        argv = ["bounds", "--config", bounds_dir / "bad.cfg", "--seed", 0,
                "--trials", 5, "--n", 10, "--out", bounds_dir / "nope"]
    assert run(*argv) == 64
    assert "Traceback" not in capsys.readouterr().err


FUZZ_VALUES = [
    "0", "-1", "nan", "inf", "-inf", "1e308", "1e-308", "1e-320", "5e-324", "1e400", "maybe", "",
]
FUZZ_KERNELS = ["gaussian", "laplacian", "linear", "delta"]
# hostile label and coordinate lists for the configs' three-point x and two-point y spaces
FUZZ_LISTS = {
    "x_labels": ["a, a, b", "", "a, b", "a, b, c, d", "a, , c", "c, b, a", "1, 2, 3", "a b c"],
    "y_labels": ["u, u", "", "u", "u, v, w", "u, ", "v, u", "a, b"],
    "x_coords": [
        "0; 0; 0", "0; 1; 0", "0; -0; 2", "1e-320; 0; 2e-320", "1e308; -1e308; 0",
        "1.7e308; -1.7e308; 1e308", "", ";", "0; 1", "0; 1; 2; 3", "0; 1, 2; 3",
        "0, 0; 1, 1; 2, 2", "a; b; c", "nan; 1; 2", "inf; 1; 2", "1e400; 1; 2",
    ],
    "y_coords": [
        "0; 0", "1e-320; 2e-320", "1e308; -1e308", "", "0", "0; 1; 2", "0; 1, 2",
        "0, 0; 1, 1", "u; v", "nan; 1", "inf; 1", "1e400; 1",
    ],
}


@pytest.mark.filterwarnings("error")  # the library prints nothing, warnings included
@pytest.mark.parametrize(
    "command, key",
    [
        *(("estimate", key) for key in (
            "gamma", "sigma", "scale", "restarts", "max_iters", "step_size", "tol",
            "operator_norm", *FUZZ_LISTS,
        )),
        *(("embed", key) for key in ("sigma", "scale", "delta", "y_labels", "y_coords")),
        *(("bounds", key) for key in ("sigma", "scale", "eps", "c_m", "delta", *FUZZ_LISTS)),
        # the kernel keys also under the bounds that read the kernel diagonal
        *((bound, key) for bound in ("mmd_concentration", "covering")
          for key in ("sigma", "scale", "y_coords")),
    ],
)
def test_config_fuzz_keeps_exit_contract(workdir, bounds_dir, embed_dir, capsys, command, key):
    # every value crossed with every kernel; a later line overrides an earlier one
    if command == "estimate":
        base = EST_CFG + "max_iters = 40\n"
        cfg_path = workdir / "fuzz.cfg"
        out = workdir / "fit"
        argv = ["estimate", "--config", cfg_path, "--seed", 0,
                "--out", out, workdir / "data.csv"]
    elif command == "embed":
        base = (embed_dir / "embed.cfg").read_text()
        cfg_path = embed_dir / "fuzz.cfg"
        out = embed_dir / "embed.json"
        argv = ["embed", "--config", cfg_path, embed_dir / "a.csv", embed_dir / "b.csv",
                "--out", out]
    else:
        bound = {"delta": "mmd_concentration", "c_m": "covering"}.get(key, "hoeffding")
        bound = bound if command == "bounds" else command
        hyp = bounds_dir / "hyp.json"
        base = (bounds_dir / "bounds.cfg").read_text() + f"bound = {bound}\nclass = {hyp}; {hyp}\n"
        if bound == "mmd_concentration":  # a truth measure on y, read on the config's points
            (bounds_dir / "truth_y.json").write_text(json.dumps({"weights": [0.6, 0.4]}))
            base += f"truth_measure = {bounds_dir}/truth_y.json\n"
        cfg_path = bounds_dir / "fuzz.cfg"
        out = bounds_dir / "rep"
        argv = ["bounds", "--config", cfg_path, "--seed", 0,
                "--trials", 5, "--n", 10, "--out", out]
    broken = []
    for kernel in FUZZ_KERNELS:
        for value in FUZZ_LISTS.get(key, FUZZ_VALUES):
            cfg_path.write_text(base + f"kernel = {kernel}\n{key} = {value}\n")
            shutil.rmtree(out, ignore_errors=True)
            out.unlink(missing_ok=True)
            try:
                code = run(*argv)
            except Exception as exc:  # what the console entry point would print as a traceback
                code = repr(exc)
            err = capsys.readouterr().err
            if key == "operator_norm":
                expected = {64}
            elif key == "c_m":
                expected = {0, 2, 64, 65} if _finite_nonnegative(value) else {64}
            else:
                expected = {0, 2, 64, 65}
            if code not in expected or "Traceback" in err:
                broken.append((kernel, value, code, err.strip()[-200:]))
            elif code == 0:
                # every JSON file written must be strict JSON: no NaN or Infinity
                written = [out] if out.is_file() else sorted(out.glob("*.json"))
                for path in written:
                    try:
                        json.loads(path.read_text(), parse_constant=_reject_constant)
                    except ValueError as exc:
                        broken.append((kernel, value, path.name, str(exc)))
                if not written:
                    broken.append((kernel, value, code, "no JSON written"))
    assert broken == []


# hostile JSON documents: whole truth-measure files, and the rows of a kernel file
BAD_TRUTH_DOCS = [
    3, "weights", None, [], {}, {"weights": {"a": 1}}, {"weights": "abc"},
    {"weights": None}, {"weights": [[0.5], [0.5, 0.0]]}, {"weights": [math.nan] * 6},
    {"weights": [1e308] * 6},
]
BAD_KERNEL_ROWS = [
    {"a": 1}, None, 3, "abc", [[math.nan, 1.0]] * 3, [[{"a": 1}, 0.0]] * 3, [[0.5, 0.5]] * 2,
]


@pytest.mark.filterwarnings("error")  # the library prints nothing, warnings included
@pytest.mark.parametrize(
    "command, key",
    [
        ("hoeffding", "truth_measure"),
        ("mmd_concentration", "truth_measure"),
        ("hoeffding", "hypothesis"),
        ("covering", "class"),
        ("estimate", "truth_kernel"),
        ("laws", "kernel_file"),
    ],
)
def test_json_fuzz_keeps_exit_contract(workdir, bounds_dir, capsys, command, key):
    # a bad JSON input is a data error (65); laws reports a bad fixture as a failed invariant (2)
    bad = bounds_dir / "bad.json"
    if key == "truth_measure":
        docs = BAD_TRUTH_DOCS
    else:
        good = json.loads((bounds_dir / "hyp.json").read_text())
        docs = [3, "rows", [], *({**good, "rows": rows} for rows in BAD_KERNEL_ROWS)]
    out = workdir / "fit"  # laws writes no --out here
    if command == "estimate":
        cfg = EST_CFG + f"max_iters = 20\n{key} = {bad}\n"
        argv = ["estimate", "--seed", 0, "--out", out, workdir / "data.csv"]
    elif command == "laws":
        cfg = f"{key} = {bad}\n"
        argv = ["laws", "--seed", 0, "--trials", 2]
    else:
        value = f"{bounds_dir}/hyp.json; {bad}" if key == "class" else bad
        cfg = (bounds_dir / "bounds.cfg").read_text() + f"bound = {command}\n{key} = {value}\n"
        out = bounds_dir / "rep"
        argv = ["bounds", "--seed", 0, "--trials", 5, "--n", 10, "--out", out]
    (bounds_dir / "fuzz.cfg").write_text(cfg)
    expected = 2 if command == "laws" else 65
    broken = []
    for doc in docs:
        bad.write_text(json.dumps(doc))
        try:
            code = run(*argv, "--config", bounds_dir / "fuzz.cfg")
        except Exception as exc:  # what the console entry point would print as a traceback
            code = repr(exc)
        err = capsys.readouterr().err
        if code != expected or "Traceback" in err:
            broken.append((doc, code, err.strip()[-200:]))
        elif out.exists():  # a bad input is refused before anything is written
            broken.append((doc, code, sorted(p.name for p in out.iterdir())))
    assert broken == []


@pytest.mark.parametrize(
    "source, target",
    [
        (X, FiniteSpace(["u", "w"], coords=[[0.0], [1.0]])),
        (FiniteSpace(["a", "b", "d"], coords=[[0.0], [1.0], [2.0]]), Y),
    ],
    ids=["targets-uv-uw", "sources-abc-abd"],
)
def test_bounds_class_on_different_grids_exit_65(bounds_dir, capsys, source, target):
    # two well-formed kernel files that no one class can hold
    other = MarkovKernel(source, target, [[0.5, 0.5], [0.1, 0.9], [1.0, 0.0]])
    (bounds_dir / "other.json").write_text(json.dumps(kernel_to_json(other)))
    cfg = (bounds_dir / "bounds.cfg").read_text()
    value = f"{bounds_dir}/hyp.json; {bounds_dir}/other.json"
    (bounds_dir / "cls.cfg").write_text(cfg + f"bound = covering\nclass = {value}\n")
    out = bounds_dir / "rep"
    code = run(
        "bounds", "--config", bounds_dir / "cls.cfg", "--seed", 0,
        "--trials", 5, "--n", 10, "--out", out,
    )
    assert code == 65
    err = capsys.readouterr().err
    assert "share source and target" in err and "Traceback" not in err
    assert not out.exists()


NOT_UTF8 = b"x,y\n\xff\xfe,\xc3\x28\n"


@pytest.mark.parametrize("target", ["config", "data", "truth_kernel"])
def test_non_utf8_file_keeps_exit_contract(workdir, capsys, target):
    # a config that cannot be decoded is a config error (64), a data file a data error (65)
    cfg = EST_CFG + f"truth_kernel = {workdir}/truth.json\n"
    t = MarkovKernel(X, Y, [[0.8, 0.2], [0.4, 0.6], [0.3, 0.7]])
    (workdir / "truth.json").write_text(json.dumps(kernel_to_json(t)))
    (workdir / "t.cfg").write_text(cfg)
    path = {"config": "t.cfg", "data": "data.csv", "truth_kernel": "truth.json"}[target]
    (workdir / path).write_bytes(NOT_UTF8)
    code = run(
        "estimate", "--config", workdir / "t.cfg", "--seed", 0,
        "--out", workdir / "fit", workdir / "data.csv",
    )
    assert code == (64 if target == "config" else 65)
    err = capsys.readouterr().err
    assert "UTF-8" in err and "Traceback" not in err


@pytest.mark.parametrize("target", ["config", "data", "truth_kernel", "embed_sample"])
def test_byte_order_mark_is_ignored(workdir, embed_dir, capsys, target):
    # spreadsheet exports often start their text with a UTF-8 byte-order mark
    t = MarkovKernel(X, Y, [[0.8, 0.2], [0.4, 0.6], [0.3, 0.7]])
    (workdir / "truth.json").write_text(json.dumps(kernel_to_json(t)))
    (workdir / "t.cfg").write_text(EST_CFG + f"truth_kernel = {workdir}/truth.json\n")
    out = workdir / "out"
    if target == "embed_sample":
        path = embed_dir / "a.csv"
        argv = ["embed", "--config", embed_dir / "embed.cfg", path, embed_dir / "b.csv",
                "--out", out / "embed.json"]
    else:
        path = workdir / {"config": "t.cfg", "data": "data.csv", "truth_kernel": "truth.json"}[target]
        argv = ["estimate", "--config", workdir / "t.cfg", "--seed", 0,
                "--out", out, workdir / "data.csv"]
    outputs = []
    for text in (path.read_bytes(), "\ufeff".encode() + path.read_bytes()):
        path.write_bytes(text)
        assert run(*argv) == 0
        outputs.append((capsys.readouterr().out, {f.name: f.read_text() for f in out.iterdir()}))
        shutil.rmtree(out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("coords", ["0; 0; 0", "0; 1; 0", "0; -0; 2"])
def test_estimate_repeated_x_coords_exit_64(workdir, capsys, coords):
    # refused whatever the data: two source points at one coordinate have no Lipschitz ratio
    (workdir / "rep.cfg").write_text(EST_CFG + f"x_coords = {coords}\n")
    code = run(
        "estimate", "--config", workdir / "rep.cfg", "--seed", 0,
        "--out", workdir / "nope", workdir / "data.csv",
    )
    assert code == 64
    err = capsys.readouterr().err
    assert "x_coords" in err and "Traceback" not in err


def test_unwritable_out_exit_64(workdir, embed_dir, capsys):
    # an --out that names a file where a directory goes, or a directory where a file goes
    (workdir / "taken").write_text("")
    argvs = [
        ["estimate", "--config", workdir / "est.cfg", "--seed", 0,
         "--out", workdir / "taken", workdir / "data.csv"],
        ["laws", "--seed", 0, "--trials", 2, "--out", workdir / "taken" / "laws.json"],
        ["laws", "--seed", 0, "--trials", 2, "--out", workdir],
        ["embed", "--config", embed_dir / "embed.cfg", embed_dir / "a.csv", embed_dir / "b.csv",
         "--out", embed_dir],
    ]
    for argv in argvs:
        assert run(*argv) == 64
        err = capsys.readouterr().err
        assert "cannot write" in err and "Traceback" not in err


# hostile CSV files; {h} is the header and {r} a valid sample line of the command
BAD_CSV = [
    "", "\n\n", "{h}\n", "\ufeff{h}\n{r}\n", "{h}\n{r}\x00\n", "\x00", "{h}\x00\n{r}\n",
    "{h}\n{r},{r}\n", "{h}\nq\n", "{h}\nq,u\n", "{h}\n,\n", "{h}\n\"{r}\n",
    '{h}\n"' + "u" * 200_000 + '"\n', "y\n{r}\n", "x,y\n{r}\n", "{h}\r\n{r}\r\n",
]


@pytest.mark.filterwarnings("error")  # the library prints nothing, warnings included
@pytest.mark.parametrize("command", ["estimate", "embed"])
def test_csv_fuzz_keeps_exit_contract(workdir, embed_dir, capsys, command):
    if command == "estimate":
        header, row = "x,y", "a,u"
        bad = workdir / "bad.csv"
        argv = ["estimate", "--config", workdir / "est.cfg", "--seed", 0,
                "--out", workdir / "fit", bad]
    else:
        header, row = "y", "u"
        bad = embed_dir / "bad.csv"
        argv = ["embed", "--config", embed_dir / "embed.cfg", embed_dir / "a.csv", bad]
    texts = [t.replace("{h}", header).replace("{r}", row).encode() for t in BAD_CSV]
    texts += [b"\xff" + header.encode(), (header + "\n").encode() + b"\xc3\x28\n"]
    broken = []
    for text in texts:
        bad.write_bytes(text)
        try:
            code = run(*argv)
        except Exception as exc:  # what the console entry point would print as a traceback
            code = repr(exc)
        err = capsys.readouterr().err
        if code not in (0, 64, 65) or "Traceback" in err:
            broken.append((text[:40], code, err.strip()[-200:]))
    assert broken == []


def _finite_nonnegative(text):
    try:
        return 0.0 <= float(text) < math.inf
    except ValueError:
        return False


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def test_estimate_gamma_flag_inf_exit_64(workdir, capsys):
    code = run(
        "estimate", "--config", workdir / "est.cfg", "--seed", 0, "--gamma", "inf",
        "--out", workdir / "nope", workdir / "data.csv",
    )
    assert code == 64
    assert "gamma" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag",
    [("estimate", ["--kernel", "gaussian"]), ("embed", ["--kernel", "gaussian"]),
     ("embed", ["--seed", "0"])],
    ids=["estimate-kernel", "embed-kernel", "embed-seed"],
)
def test_removed_flags_are_usage_errors(workdir, embed_dir, capsys, command, flag):
    # the kernel comes from the config only, and embed draws nothing
    if command == "estimate":
        argv = ["estimate", "--config", workdir / "est.cfg", "--seed", 0,
                "--out", workdir / "nope", workdir / "data.csv"]
    else:
        argv = ["embed", "--config", embed_dir / "embed.cfg", embed_dir / "a.csv", embed_dir / "b.csv"]
    assert run(*argv, *flag) == 64
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err and "Traceback" not in err
    assert not (workdir / "nope").exists()


@pytest.mark.parametrize("command", ["laws", "estimate", "bounds"])
def test_negative_seed_is_a_usage_error_before_any_file(workdir, bounds_dir, capsys, command):
    # one --seed type for every subcommand that draws: refused by argparse, before a read or a fit
    out = workdir / "nope"
    argv = {
        "laws": ["laws", "--out", out],
        "estimate": ["estimate", "--config", workdir / "est.cfg", "--out", out, workdir / "data.csv"],
        "bounds": ["bounds", "--config", bounds_dir / "bounds.cfg", "--trials", 5, "--out", out],
    }[command]
    assert run(*argv, "--seed", -1) == 64
    err = capsys.readouterr().err
    assert "argument --seed: expected a non-negative integer, got -1" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["laws", "--seed", "1e3"], "--seed"),
        (["laws", "--seed", 0, "--trials", "x"], "--trials"),
        (["bounds", "--seed", 0, "--n", "2.5"], "--n"),
    ],
    ids=["seed-1e3", "trials-x", "n-2.5"],
)
def test_malformed_integer_flag_is_a_usage_error_by_flag(bounds_dir, capsys, argv, flag):
    # a value int() cannot read is refused under its flag, not under the parser function's name
    if argv[0] == "bounds":
        argv = [*argv, "--config", bounds_dir / "bounds.cfg"]
    out = bounds_dir / "rep"
    assert run(*argv, "--out", out) == 64
    err = capsys.readouterr().err
    assert f"argument {flag}: expected " in err and "Traceback" not in err
    assert "_seed" not in err and "_positive_int" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, cfg",
    [
        ("embed", "y_labels = u, v\nkernel = linear\n"),
        ("bounds", "bound = mmd_concentration\ny_labels = u, v\nkernel = gaussian\n"),
        ("bounds", "bound = covering\nx_labels = a, b, c\ny_labels = u, v\nclass = ;\n"),
    ],
    ids=["embed-linear-no-y_coords", "mmd-gaussian-no-y_coords", "covering-empty-class"],
)
def test_missing_coords_or_empty_class_exit_64(embed_dir, capsys, command, cfg):
    (embed_dir / "bad.cfg").write_text(cfg)
    if command == "embed":
        argv = ["embed", "--config", embed_dir / "bad.cfg", embed_dir / "a.csv", embed_dir / "b.csv"]
    else:
        argv = ["bounds", "--config", embed_dir / "bad.cfg", "--seed", 0,
                "--trials", 5, "--n", 10, "--out", embed_dir / "nope"]
    assert run(*argv) == 64
    assert "Traceback" not in capsys.readouterr().err


# ---------------------------------------------------------------------------
# embed
# ---------------------------------------------------------------------------
@pytest.fixture
def embed_dir(tmp_path):
    (tmp_path / "embed.cfg").write_text(
        "y_labels = u, v\ny_coords = 0; 1\nkernel = delta\ndelta = 0.1\n"
    )
    (tmp_path / "a.csv").write_text("y\nu\nu\nv\n")
    (tmp_path / "b.csv").write_text("y\nv\nv\nu\n")
    return tmp_path


def test_embed_same_file_zero(embed_dir, capsys):
    code = run(
        "embed", "--config", embed_dir / "embed.cfg",
        embed_dir / "a.csv", embed_dir / "a.csv",
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mmd"] == 0.0


def test_embed_disjoint_diracs(embed_dir, capsys):
    (embed_dir / "u.csv").write_text("y\nu\n")
    (embed_dir / "v.csv").write_text("y\nv\n")
    code = run(
        "embed", "--config", embed_dir / "embed.cfg",
        embed_dir / "u.csv", embed_dir / "v.csv",
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mmd"] == pytest.approx(math.sqrt(2.0))


def test_embed_duplication_invariance(embed_dir, capsys):
    code = run(
        "embed", "--config", embed_dir / "embed.cfg",
        embed_dir / "a.csv", embed_dir / "b.csv",
    )
    assert code == 0
    base = json.loads(capsys.readouterr().out)["mmd"]
    (embed_dir / "a3.csv").write_text("y\n" + "u\nu\nv\n" * 3)
    code = run(
        "embed", "--config", embed_dir / "embed.cfg",
        embed_dir / "a3.csv", embed_dir / "b.csv",
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["mmd"] == pytest.approx(base, abs=1e-12)


def test_embed_unknown_label_exit_65(embed_dir):
    (embed_dir / "bad.csv").write_text("y\nu\nzzz\n")
    assert run(
        "embed", "--config", embed_dir / "embed.cfg",
        embed_dir / "a.csv", embed_dir / "bad.csv",
    ) == 65
