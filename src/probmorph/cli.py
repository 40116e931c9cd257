"""Command-line front end.

Subcommands:

  laws      run the structural-law suite on seeded random instances
  estimate  fit a conditional kernel to a CSV dataset
  bounds    Monte Carlo verification of a concentration bound
  embed     embedded distance between two empirical samples

Exit codes: 0 success, 2 invariant failure, 64 usage error, 65 data
error; a config key its subcommand does not read (see _CONFIG_KEYS)
is a usage error. Every subcommand is deterministic given its config
and seed; output JSON is written with sorted keys so reruns are
byte-identical.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from .kernels import KernelSpec, NotPSDError, gram, mmd
from .learning import (
    FiniteClass,
    LearnerConfig,
    WFunctionalSpec,
    gamma_schedule,
    regularized_estimate,
)
from .losses import sup_row_mmd
from .morphisms import (
    MarkovKernel,
    disintegrate,
    compose,
    graph,
    graph_pushforward,
    identity_kernel,
    projection_kernel,
    pullback,
    pushforward,
)
from .serialize import (
    ConfigError,
    DataFormatError,
    dataset_from_csv,
    kernel_from_json,
    kernel_to_json,
    labels_from_csv,
    parse_config,
    prob_measure_from_json,
    space_from_config,
)
from .spaces import (
    FiniteSpace,
    ProbMeasure,
    ProductSpace,
    SpaceMismatchError,
    empirical,
    marginal,
)

EXIT_OK = 0
EXIT_INVARIANT = 2
EXIT_USAGE = 64
EXIT_DATA = 65

_LAW_TOL = 1e-10


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _checked_int(text: str, ok, expected: str) -> int:
    """int(text) where ok accepts it, else an ArgumentTypeError.

    argparse reports that error under the flag; a ValueError it would
    report under the type function's name.
    """
    try:
        value = int(text)
    except ValueError:
        pass
    else:
        if ok(value):
            return value
    raise argparse.ArgumentTypeError(f"expected {expected}, got {text}")


def _positive_int(text: str) -> int:
    # numpy's samplers take counts as 64-bit integers
    return _checked_int(text, lambda v: 1 <= v < 2**63, "an integer in [1, 2**63 - 1]")


def _seed(text: str) -> int:
    return _checked_int(text, lambda v: v >= 0, "a non-negative integer")


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built once per process; parse_args keeps no state in it."""
    parser = _Parser(prog="probmorph", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    laws = sub.add_parser("laws", help="verify structural laws on random instances")
    laws.add_argument("--config", default=None)
    laws.add_argument("--seed", type=_seed, required=True)
    laws.add_argument("--trials", type=_positive_int, default=200)
    laws.add_argument("--out", default=None)
    laws.set_defaults(func=cmd_laws)

    est = sub.add_parser("estimate", help="fit a conditional kernel to samples")
    est.add_argument("--config", required=True)
    est.add_argument("--seed", type=_seed, required=True)
    est.add_argument("--out", required=True)
    est.add_argument("--gamma", type=float, default=None)
    est.add_argument("data", help="CSV file with header x,y")
    est.set_defaults(func=cmd_estimate)

    bnd = sub.add_parser("bounds", help="Monte Carlo check of a bound")
    bnd.add_argument("--config", required=True)
    bnd.add_argument("--seed", type=_seed, required=True)
    bnd.add_argument("--trials", type=_positive_int, default=2000)
    bnd.add_argument("--n", type=_positive_int, default=200)
    bnd.add_argument("--out", required=True)
    bnd.set_defaults(func=cmd_bounds)

    emb = sub.add_parser("embed", help="MMD between two empirical samples")
    emb.add_argument("--config", required=True)
    emb.add_argument("--out", default=None)
    emb.add_argument("sample_a", help="CSV file with header y")
    emb.add_argument("sample_b", help="CSV file with header y")
    emb.set_defaults(func=cmd_embed)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataFormatError, SpaceMismatchError, KeyError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entry() -> None:
    sys.exit(main())


# ---------------------------------------------------------------------------
# shared config plumbing
# ---------------------------------------------------------------------------
def _read_text(path: str, kind: str, error: type[ValueError]) -> str:
    """The text of a UTF-8 file, a leading byte-order mark dropped.

    A missing, unreadable or undecodable file raises `error`, naming it a
    `kind` file.
    """
    p = Path(path)
    if not p.is_file():
        raise error(f"{kind} file {path!r} does not exist")
    try:
        return p.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise error(f"{kind} file {path!r} is not UTF-8 text: {exc}") from exc
    except OSError as exc:
        raise error(f"cannot read {kind} file {path!r}: {exc}") from exc


# the config keys each command reads; estimate also accepts restarts, which the
# benchmark's verify workload writes and nothing reads
_KERNEL_KEYS = ("kernel", "sigma", "scale")
_CONFIG_KEYS = {
    "laws": frozenset({"kernel_file"}),
    "estimate": frozenset({
        "x_labels", "x_coords", "y_labels", "y_coords", *_KERNEL_KEYS,
        "gamma", "max_iters", "tol", "truth_kernel", "restarts",
    }),
    # one table for the three bounds, so that one base config serves each of them
    "bounds": frozenset({
        "bound", "x_labels", "x_coords", "y_labels", "y_coords", *_KERNEL_KEYS,
        "truth_measure", "hypothesis", "class", "eps", "c_m", "delta",
    }),
    "embed": frozenset({"y_labels", "y_coords", *_KERNEL_KEYS, "delta"}),
}
# keys no command reads any more, each with the reason it went
_REMOVED_KEYS = {
    "operator_norm": (
        "the operator-norm term was removed from the fit, "
        "which minimizes the sup and Lipschitz terms only"
    ),
    "step_size": "the step scale of the fit is fixed",
}


def _load_config(path: str | None, command: str) -> dict[str, str]:
    """The config file at path ({} without one), refused if it sets a key command does not read."""
    cfg = {} if path is None else parse_config(_read_text(path, "config", ConfigError))
    known = _CONFIG_KEYS[command]
    for key, value in cfg.items():
        if key in _REMOVED_KEYS:
            raise ConfigError(f"{key} = {value!r}: {_REMOVED_KEYS[key]}; delete the key")
        if key not in known:
            raise ConfigError(
                f"unknown key {key!r}: {command} reads {', '.join(sorted(known))}"
            )
    return cfg


def _load_json(path: str):
    """The document of a JSON data file; any text json.loads cannot build raises DataFormatError."""
    text = _read_text(path, "data", DataFormatError)
    try:
        return json.loads(text)
    # ValueError covers JSONDecodeError and an integer literal past Python's digit limit,
    # RecursionError a nesting deeper than the decoder's recursion limit
    except (ValueError, RecursionError) as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def _cfg_number(cfg: dict[str, str], key: str, default: str | None = None, kind=float):
    """cfg[key], or the default text, parsed by `kind` (float or int).

    None when the key is absent and there is no default.
    """
    text = cfg.get(key, default)
    if text is None:
        return None
    try:
        return kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key} = {text!r} is not {what}") from None


# the bounded config numbers: key -> (default, test, what a value failing it must be)
_BOUNDED = {
    "delta": ("0.05", lambda v: 0.0 < v < 1.0, "must lie strictly between 0 and 1"),
    "eps": ("0.2", lambda v: 0.0 < v < math.inf, "must be finite and strictly positive"),
    "c_m": ("0.0", lambda v: 0.0 <= v < math.inf, "must be finite and nonnegative"),
}


def _cfg_bounded(cfg: dict[str, str], key: str) -> float:
    """The config number `key` (delta, eps or c_m), checked against its bounds."""
    default, ok, rule = _BOUNDED[key]
    value = _cfg_number(cfg, key, default)
    if not ok(value):
        raise ConfigError(f"{key} = {value!r} {rule}")
    return value


def _check_y_coords(kernel: KernelSpec, y_space: FiniteSpace) -> None:
    """Reject a coordinate kernel on a target space without y_coords."""
    if y_space.coords is None and kernel.needs_coords:
        raise ConfigError(f"the {kernel.variant} kernel needs y_coords")


def _config_gram(kernel: KernelSpec, space: FiniteSpace):
    """gram(kernel, space), with a Gram the config makes invalid reported as a ConfigError."""
    try:
        return gram(kernel, space)
    except ValueError as exc:
        raise ConfigError(f"{kernel.variant} kernel: {exc}") from exc


def _kernel_spec(cfg: dict[str, str]) -> KernelSpec:
    variant = cfg.get("kernel", "delta")
    sigma = _cfg_number(cfg, "sigma")
    scale = _cfg_number(cfg, "scale", "1.0")
    if variant in ("gaussian", "laplacian") and sigma is None:
        sigma = 1.0
    try:
        return KernelSpec(variant, sigma=sigma, scale=scale)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _write_json(path: Path, doc) -> None:
    _write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_text(path: Path, text: str) -> None:
    """Write text to path, creating its directory; an unwritable path is a usage error."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {str(path)!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# laws
# ---------------------------------------------------------------------------
def _random_space(rng, tag: str, lo: int = 2, hi: int = 6) -> FiniteSpace:
    n = int(rng.integers(lo, hi + 1))
    return FiniteSpace([f"{tag}{i}" for i in range(n)])


def _random_stochastic(rng, source: FiniteSpace, target: FiniteSpace) -> MarkovKernel:
    m = rng.random((source.size, target.size)) + 1e-3
    return MarkovKernel(source, target, m / m.sum(axis=1, keepdims=True))


def _random_prob(rng, space: FiniteSpace) -> ProbMeasure:
    w = rng.random(space.size) + 1e-3
    return ProbMeasure(space, w / w.sum())


def _gap(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.maximum.reduce(np.abs(a - b), axis=None))


def _law_violations(rng) -> dict[str, float]:
    """Each structural law's violation on one random instance drawn from rng."""
    xs, ys, zs, ws = (_random_space(rng, tag) for tag in "xyzw")
    t1, t2, t3 = (_random_stochastic(rng, a, b) for a, b in ((xs, ys), (ys, zs), (zs, ws)))
    mu = _random_prob(rng, xs)
    f = rng.standard_normal(ys.size)
    joint = _random_prob(rng, ProductSpace(xs, ys))
    mu_x, cond = disintegrate(joint)
    t21, t1_mu = compose(t2, t1), pushforward(t1, mu)
    return {
        "compose_associative": _gap(compose(t3, t21).matrix, compose(compose(t3, t2), t1).matrix),
        "identity_units": max(
            _gap(compose(t1, identity_kernel(xs)).matrix, t1.matrix),
            _gap(compose(identity_kernel(ys), t1).matrix, t1.matrix),
        ),
        "pushforward_functorial": _gap(
            pushforward(t21, mu).weights, pushforward(t2, t1_mu).weights
        ),
        "graph_projection_recovers_kernel": _gap(
            compose(projection_kernel(joint.space, "right"), graph(t1)).matrix, t1.matrix
        ),
        "graph_pushforward_left_marginal": _gap(
            marginal(graph_pushforward(t1, mu), "left").weights, mu.weights
        ),
        "pullback_pushforward_adjoint": abs(
            float(t1_mu.weights @ f) - float(mu.weights @ pullback(t1, f))
        ),
        "disintegration_round_trip": _gap(graph_pushforward(cond, mu_x).weights, joint.weights),
    }


def _law_suite(seed: int, trials: int) -> dict[str, float]:
    """Max observed violation per structural law over seeded random instances."""
    worst: dict[str, float] = {}
    for t in range(trials):
        for name, violation in _law_violations(np.random.default_rng((seed, t))).items():
            worst[name] = max(worst.get(name, 0.0), violation)
    return worst


def cmd_laws(args) -> int:
    cfg = _load_config(args.config, "laws")
    report = {
        "seed": args.seed,
        "trials": args.trials,
        "tolerance": _LAW_TOL,
        "laws": _law_suite(args.seed, args.trials),
    }
    failed = [name for name, v in report["laws"].items() if not v < _LAW_TOL]
    if "kernel_file" in cfg:
        report["kernel_file"] = cfg["kernel_file"]
        doc = _load_json(cfg["kernel_file"])
        try:
            kernel_from_json(doc)
        except DataFormatError as exc:
            report["fixture_violation"] = str(exc)
            failed.append(f"kernel fixture: {exc}")
    report["failed"] = failed
    if args.out:
        _write_json(Path(args.out), report)
    print(json.dumps(report, indent=2, sort_keys=True))
    if failed:
        print(f"invariant failure: {failed}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------
def cmd_estimate(args) -> int:
    cfg = _load_config(args.config, "estimate")
    x_space = space_from_config(cfg, "x")
    y_space = space_from_config(cfg, "y")
    prod = ProductSpace(x_space, y_space)
    spec_kernel = _kernel_spec(cfg)
    # the Lipschitz term measures distances between source points
    if x_space.coords is None and (spec_kernel.needs_coords or x_space.size > 1):
        raise ConfigError(
            "estimate needs x_coords: the Lipschitz term and the gaussian, "
            "laplacian and linear kernels use source coordinates"
        )
    if x_space.coords is not None and len(np.unique(x_space.coords, axis=0)) < x_space.size:
        raise ConfigError("x_coords repeats a point: the Lipschitz term needs distinct ones")
    _check_y_coords(spec_kernel, y_space)
    data = dataset_from_csv(_read_text(args.data, "data", DataFormatError), prod)
    gamma = args.gamma
    if gamma is None:
        gamma = _cfg_number(cfg, "gamma")
    if gamma is None:
        gamma = gamma_schedule(len(data))
    if not 0 < gamma < math.inf:
        raise _UsageError("gamma must be finite and strictly positive")
    solver_keys = (("max_iters", int), ("tol", float))
    knobs = {key: _cfg_number(cfg, key, kind=kind) for key, kind in solver_keys if key in cfg}
    try:
        config = LearnerConfig(seed=args.seed, **knobs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    try:
        wspec = WFunctionalSpec.from_kernel(spec_kernel, x_space, y_space)
    except ValueError as exc:
        raise ConfigError(f"{spec_kernel.variant} kernel: {exc}") from exc
    truth = None
    if "truth_kernel" in cfg:
        truth = kernel_from_json(_load_json(cfg["truth_kernel"]))
        if truth.source != x_space or truth.target != y_space:
            raise DataFormatError("truth kernel grids do not match the config spaces")
    try:
        fit = regularized_estimate(data, gamma, wspec.gram_xy, wspec, config)
        # the certificate's probes run on first read: read it before writing anything
        summary = {
            "n": len(data),
            "gamma": gamma,
            "objective": fit.objective,
            "eps_certificate": fit.eps_certificate,
            "seed": args.seed,
        }
        if truth is not None:
            summary["sup_mmd_error_to_truth"] = sup_row_mmd(fit.h, truth, wspec.gram_y)
    except ArithmeticError as exc:
        raise ConfigError(f"the fit overflowed ({exc}); lower gamma") from exc
    except NotPSDError as exc:  # a squared norm below its roundoff floor
        print(f"invariant failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    out = Path(args.out)
    _write_json(out / "estimate.json", kernel_to_json(fit.h))
    _write_json(out / "trace.json", {"objective": fit.trace})
    _write_json(out / "report.json", summary)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------
def cmd_bounds(args) -> int:
    cfg = _load_config(args.config, "bounds")
    name = cfg.get("bound")
    if name is None:
        raise ConfigError("config must set 'bound'")
    if name not in bounds_mod.VERIFIERS:
        raise ConfigError(f"unknown bound name {name!r}")
    kernel = _kernel_spec(cfg)
    y_space = space_from_config(cfg, "y")
    _check_y_coords(kernel, y_space)
    g_y = _config_gram(kernel, y_space)
    if name == "mmd_concentration":
        params = {"delta": _cfg_bounded(cfg, "delta")}
        truth = _truth_measure(cfg, y_space)
        subject = g_y
    else:
        x_space = space_from_config(cfg, "x")
        truth = _truth_measure(cfg, ProductSpace(x_space, y_space))
        params = {"gY": g_y, "eps": _cfg_bounded(cfg, "eps")}
        if name == "hoeffding":
            if "hypothesis" not in cfg:
                raise ConfigError("hoeffding needs a 'hypothesis' kernel file")
            subject = kernel_from_json(_load_json(cfg["hypothesis"]))
        else:
            paths = [p.strip() for p in cfg.get("class", "").split(";") if p.strip()]
            if not paths:
                raise ConfigError("covering needs a 'class' list of kernel files")
            members = [kernel_from_json(_load_json(p)) for p in paths]
            try:
                subject = FiniteClass(members)
            except ValueError as exc:  # the kernel files disagree on their grids
                raise DataFormatError(f"class: {exc}") from exc
            params["c_m"] = _cfg_bounded(cfg, "c_m")
    try:
        report = bounds_mod.monte_carlo_verify(
            name, truth, subject, args.n, args.trials, args.seed, **params
        )
    except SpaceMismatchError:
        raise
    except ValueError as exc:
        # the inputs are checked above, so what is left is the kernel on the y grid
        raise ConfigError(f"{kernel.variant} kernel: {exc}; change scale or y_coords") from exc
    out = Path(args.out)
    _write_json(out / "report.json", report.to_json())
    table = (
        "n,theoretical_bound,empirical_failure_rate,wilson_low,wilson_high\n"
        f"{args.n},{report.theoretical_bound!r},{report.empirical_failure_rate!r},"
        f"{report.wilson_low!r},{report.wilson_high!r}\n"
    )
    _write_text(out / "table.csv", table)
    print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    return EXIT_OK


def _truth_measure(cfg: dict[str, str], space: FiniteSpace) -> ProbMeasure:
    """The config's truth_measure on space, or the uniform measure without one."""
    if "truth_measure" not in cfg:
        return ProbMeasure(space, np.full(space.size, 1.0 / space.size))
    return prob_measure_from_json(_load_json(cfg["truth_measure"]), space)


# ---------------------------------------------------------------------------
# embed
# ---------------------------------------------------------------------------
def cmd_embed(args) -> int:
    cfg = _load_config(args.config, "embed")
    y_space = space_from_config(cfg, "y")
    kernel = _kernel_spec(cfg)
    _check_y_coords(kernel, y_space)
    delta = _cfg_bounded(cfg, "delta")
    labels_a = labels_from_csv(_read_text(args.sample_a, "data", DataFormatError), y_space)
    labels_b = labels_from_csv(_read_text(args.sample_b, "data", DataFormatError), y_space)
    g = _config_gram(kernel, y_space)
    mu_a = empirical(labels_a, y_space)
    mu_b = empirical(labels_b, y_space)
    value = mmd(g, mu_a, mu_b)
    diag = g.diag
    scale = max(1.0, float(np.max(diag)))
    pooled = empirical(labels_a + labels_b, y_space)
    k_diag_mean = float(pooled.weights @ (diag / scale))
    # two-sample triangle bound: each empirical within its own radius of the source
    bound = math.sqrt(scale) * (
        bounds_mod.mmd_concentration_bound(len(labels_a), delta, k_diag_mean)
        + bounds_mod.mmd_concentration_bound(len(labels_b), delta, k_diag_mean)
    )
    result = {
        "mmd": value,
        "delta": delta,
        "two_sample_bound": bound,
        "n_a": len(labels_a),
        "n_b": len(labels_b),
    }
    if args.out:
        _write_json(Path(args.out), result)
    print(json.dumps(result, indent=2, sort_keys=True))
    return EXIT_OK


if __name__ == "__main__":
    entry()
