"""Command-line interface.

Subcommands: solve (exact paths), stagewise (epsilon-step and Euler
paths), check-monotone (signed-subset condition), simulate (data
generators), diagnose (profiles and comparisons), certify (stationarity
report for a stored path).

Every run prints its resolved configuration as a JSON line, and each
warning as one ``warning: <message>`` line on stderr. Exit codes:
0 success, 2 configuration error, 3 data error, 4 solver error,
5 internal consistency violation.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import io as pio
from .design import Dataset, standardize
from .errors import (
    ConfigError,
    DataError,
    InternalConsistencyError,
    L1PathError,
)
from .lars import SolverConfig, _kkt_report, solve_path
from .path import collapse

# The analysis modules (diagnostics, losses, monotone, simulate, stagewise)
# are imported by the handlers that run them, so that ``solve`` and
# ``certify`` load only the exact-path core.

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_SOLVER = 4
EXIT_INTERNAL = 5


def _parser() -> argparse.ArgumentParser:
    """The CLI's one table of options: each flag with its type, choices and default."""
    ap = argparse.ArgumentParser(prog="l1paths", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="JSON file of defaults, overridden by flags")
        return p

    s = command("solve", "exact piecewise-linear coefficient path")
    s.add_argument("--input", help="CSV dataset (last column = response)")
    s.add_argument("--method", choices=["lar", "lasso", "fs0"], default="lasso")
    s.add_argument("--out", help="output path file (.json or .csv)")
    s.add_argument("--stop-norm", type=float)
    s.add_argument("--stop-lambda", type=float)
    s.add_argument("--max-steps", type=int)
    s.add_argument("--response-col")
    s.add_argument("--original-scale", action="store_true",
                   help="export signed coefficients on the raw scale")

    s = command("stagewise", "epsilon-increment and Euler paths")
    s.add_argument("--input")
    s.add_argument("--algorithm", choices=["fs", "monotone", "integrate"], default="monotone")
    s.add_argument("--loss", choices=["squared", "logistic"], default="squared")
    s.add_argument("--epsilon", type=float, default=0.01)
    s.add_argument("--max-iter", type=int, default=1_000_000)
    s.add_argument("--stride", type=int, default=100)
    s.add_argument("--arc-budget", type=float)
    s.add_argument("--out")
    s.add_argument("--response-col")
    s.add_argument("--sweep", type=int,
                   help="run epsilon/10^k for k < SWEEP and print distances to the exact monotone path")

    s = command("check-monotone", "signed-subset monotonicity condition")
    s.add_argument("--input")
    s.add_argument("--design-only", action="store_true",
                   help="treat every CSV column as a predictor (no response)")
    s.add_argument("--response-col")
    s.add_argument("--subset", help="comma-separated 0-based column indices")
    s.add_argument("--signs", help="comma-separated +1/-1 signs for --subset")
    s.add_argument("--max-subset", type=int)
    s.add_argument("--emit-violation",
                   help="write the violating subset and vector to this JSON file")

    s = command("simulate", "generate benchmark datasets")
    s.add_argument("--kind", choices=["sine", "block"], default="sine")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out")
    s.add_argument("--n", type=int)
    s.add_argument("--basis", choices=["piecewise-linear", "piecewise-constant"],
                   default="piecewise-linear")
    s.add_argument("--knots", help="comma-separated knot positions")
    s.add_argument("--noise-scale", type=float, default=0.25)
    s.add_argument("--p", type=int, default=1000)
    s.add_argument("--block", type=int, default=20)
    s.add_argument("--rho", type=float, default=0.95)
    s.add_argument("--sigma2", type=float, default=36.0)
    s.add_argument("--nonzero-per-block", type=int, default=1)
    s.add_argument("--beta-out", help="write the true coefficients (block kind)")

    s = command("diagnose", "profiles, comparisons, holdout error")
    g = s.add_mutually_exclusive_group()  # one is required, from a flag or the config
    g.add_argument("--rss", action="store_true")
    g.add_argument("--compare", action="store_true")
    g.add_argument("--mse", action="store_true")
    s.add_argument("--input")
    s.add_argument("--path")
    s.add_argument("--path-b")
    s.add_argument("--index", choices=["norm", "arclength"], default="norm")
    s.add_argument("--grid", type=int)
    s.add_argument("--out")
    s.add_argument("--truth", help="CSV of true coefficients (for --mse)")
    s.add_argument("--holdout", help="CSV holdout dataset (for --mse)")
    s.add_argument("--response-col")
    s.add_argument("--method-label")

    s = command("certify", "stationarity certificate for a stored path")
    s.add_argument("--input")
    s.add_argument("--path")
    s.add_argument("--tolerance", type=float, default=1e-8)
    s.add_argument("--response-col")
    return ap


def _config_flags(ap, args) -> list[str]:
    """The flags that give the ``--config`` file's values.

    A key must name an option of the subcommand, and a value have its JSON
    type: true or false for a switch, a number for a float, an integer for
    an int, else a string. The parser then checks it as it checks the flag.
    """
    try:
        values = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    if not isinstance(values, dict):
        raise ConfigError("config file must hold a JSON object")
    sub = next(a for a in ap._actions if a.dest == "command").choices[args.command]
    options = {a.dest: a for a in sub._actions if a.dest not in ("help", "config")}
    unknown = values.keys() - options.keys()
    if unknown:
        raise ConfigError(f"unknown config keys for {args.command}: {sorted(unknown)}")
    flags = []
    for key, value in values.items():
        option = options[key]
        flag = option.option_strings[0]
        types = bool if option.nargs == 0 else {int: int, float: (int, float)}.get(option.type, str)
        if isinstance(value, bool) != (types is bool) or not isinstance(value, types):
            raise ConfigError(f"config value {json.dumps(value)} for {key} is not one {flag} takes")
        if types is not bool:
            flags.append(f"{flag}={value}")
        elif value:
            flags.append(flag)
    return flags


def _resolve(argv) -> dict:
    """Parse ``argv``, with a ``--config`` file's values given as flags
    before the explicit ones (which win), and print the result."""
    ap = _parser()
    args = ap.parse_args(argv)
    if args.config is not None:
        argv = sys.argv[1:] if argv is None else list(argv)
        args = ap.parse_args([argv[0], *_config_flags(ap, args), *argv[1:]])
    cfg = vars(args)
    del cfg["config"]
    print(f"config: {json.dumps(cfg, sort_keys=True)}")
    return cfg


def _require(cfg, *keys):
    for key in keys:
        if cfg.get(key) in (None, False):
            raise ConfigError(f"--{key.replace('_', '-')} is required")


def _load_design(cfg, center_response=True):
    _require(cfg, "input")
    data = pio.read_dataset_csv(cfg["input"], response=cfg.get("response_col"))
    return data, standardize(data, center_response=center_response)


def _load_design_and_path(cfg):
    """The standardized ``--input`` and the ``--path`` read against it."""
    _, design = _load_design(cfg)
    path = pio.read_path_json(cfg["path"])
    if path.p != design.p:
        raise DataError(f"path has {path.p} predictors, the data has {design.p}")
    return design, path


def _write_path(path_obj, cfg, design, metadata):
    out = cfg.get("out")
    if not out:
        return
    if out.endswith(".json"):
        pio.write_path_json(path_obj, out, metadata)
    elif cfg.get("original_scale"):
        pio.write_path_csv_original(path_obj, design, out)
    else:
        pio.write_path_csv(path_obj, out)


def _cmd_solve(cfg) -> int:
    _, design = _load_design(cfg)
    solver = SolverConfig(mode=cfg["method"], max_steps=cfg["max_steps"],
                          stop_l1_norm=cfg["stop_norm"], stop_lambda=cfg["stop_lambda"])
    path = solve_path(design.expanded(), solver)
    events = [e.kind for e in path.events]
    _write_path(path, cfg, design,
                {"method": cfg["method"], "segments": path.n_segments, "events": events})
    print(f"segments: {path.n_segments}")
    print(f"end: {pio.fmt(path.end)}")
    print("events: " + ",".join(events))
    return EXIT_OK


def _cmd_stagewise(cfg) -> int:
    loss_name = cfg["loss"]
    algo = cfg["algorithm"]
    if cfg["sweep"] is not None and cfg["sweep"] < 0:
        raise ConfigError(f"sweep must be at least 0, got {cfg['sweep']}")
    if cfg["arc_budget"] is not None and algo != "integrate":
        raise ConfigError("--arc-budget needs --algorithm integrate")
    if loss_name != "squared":
        if algo == "fs":
            raise ConfigError("the signed-coordinate algorithm supports only --loss squared")
        if cfg["sweep"]:
            raise ConfigError("--sweep needs --loss squared")
    from .losses import logistic_loss, squared_error_loss
    from .stagewise import (
        StagewiseConfig,
        StepControl,
        fs_epsilon,
        integrate_monotone_path,
        monotone_incremental,
    )

    _, design = _load_design(cfg, center_response=loss_name == "squared")
    loss = squared_error_loss() if loss_name == "squared" else logistic_loss()
    sw = StagewiseConfig(epsilon=cfg["epsilon"], max_iterations=cfg["max_iter"],
                         record_stride=cfg["stride"])
    if algo == "fs":
        path = fs_epsilon(design, sw)
    elif algo == "monotone":
        path = monotone_incremental(design.expanded(), sw,
                                    loss=None if loss_name == "squared" else loss)
    else:
        control = StepControl(step=cfg["epsilon"], arc_budget=cfg["arc_budget"],
                              max_steps=cfg["max_iter"], record_stride=cfg["stride"])
        path = integrate_monotone_path(design.expanded(), loss, control)
    _write_path(path, cfg, design, {"algorithm": algo, "loss": loss_name})
    print(f"steps: {pio.fmt(path.end / cfg['epsilon'])}")
    print(f"arc_length: {pio.fmt(path.end)}")
    if cfg["sweep"]:
        exact = solve_path(design.expanded(), SolverConfig(mode="fs0"))
        print("epsilon,sup_distance")
        for k in range(cfg["sweep"]):
            eps_k = cfg["epsilon"] / 10**k
            pk = monotone_incremental(design.expanded(), StagewiseConfig(
                epsilon=eps_k, max_iterations=cfg["max_iter"], record_stride=cfg["stride"]))
            hi = min(pk.end, exact.end)
            grid = np.linspace(0.0, hi, 256)
            d = np.max(np.abs(collapse(pk.evaluate(grid)) - collapse(exact.evaluate(grid))))
            print(f"{pio.fmt(eps_k)},{pio.fmt(d)}")
    return EXIT_OK


def _signed_subset(cfg):
    """``--subset`` with ``--signs`` (default all +1); a malformed value is a ConfigError."""
    from .monotone import SignedSubset

    try:
        idx = tuple(map(int, cfg["subset"].split(",")))
        signs = (1,) * len(idx)
        if cfg["signs"] is not None:
            signs = tuple(map(int, cfg["signs"].split(",")))
        return SignedSubset(indices=idx, signs=signs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _cmd_check_monotone(cfg) -> int:
    _require(cfg, "input")
    if cfg["signs"] is not None and cfg["subset"] is None:
        raise ConfigError("--signs needs --subset")
    if cfg["max_subset"] is not None and cfg["subset"] is not None:
        raise ConfigError("--max-subset cannot be used with --subset")
    if cfg["design_only"] and cfg["response_col"] is not None:
        raise ConfigError("--response-col cannot be used with --design-only")
    from .monotone import check_condition, exhaustive_check

    subset = None if cfg["subset"] is None else _signed_subset(cfg)
    if cfg["design_only"]:
        rows = pio.read_dataset_csv(cfg["input"])
        X = np.column_stack([rows.X, rows.y])
        design = standardize(Dataset(X=X, y=np.zeros(X.shape[0])))
    else:
        _, design = _load_design(cfg)
    if subset is not None:
        report = check_condition(design, subset)
        doc = {
            "passed": report.passed,
            "subset": list(report.subset.indices),
            "signs": list(report.subset.signs),
            "vector": [float(v) for v in report.vector],
        }
    else:
        res = exhaustive_check(design, max_subset_size=cfg["max_subset"])
        doc = {"passed": res.passed, "checked": res.checked}
        if res.violation is not None:
            doc["subset"] = list(res.violation.indices)
            doc["signs"] = list(res.violation.signs)
            doc["vector"] = [float(v) for v in res.vector]
    print(json.dumps(doc, sort_keys=True))
    if cfg["emit_violation"] and not doc["passed"]:
        Path(cfg["emit_violation"]).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    return EXIT_OK


def _cmd_simulate(cfg) -> int:
    from .simulate import DEFAULT_KNOTS, gen_block, gen_sine

    _require(cfg, "out")
    rows = {} if cfg["n"] is None else {"n": cfg["n"]}  # else the generator's default
    if cfg["kind"] == "sine":
        knots = tuple(map(float, cfg["knots"].split(","))) if cfg["knots"] else DEFAULT_KNOTS
        data, beta = gen_sine(
            **rows, basis=cfg["basis"], knots=knots,
            noise_scale=cfg["noise_scale"], seed=cfg["seed"],
        ), None
    else:
        data, beta = gen_block(
            **rows, p=cfg["p"], block=cfg["block"], rho=cfg["rho"],
            sigma2=cfg["sigma2"], nonzero_per_block=cfg["nonzero_per_block"],
            seed=cfg["seed"],
        )
    pio.write_dataset_csv(data, cfg["out"])
    if beta is not None and cfg["beta_out"]:
        pio.write_vector_csv(beta, cfg["beta_out"], names=data.feature_names)
    print(f"rows: {data.n}")
    print(f"cols: {data.p}")
    return EXIT_OK


def _cmd_diagnose(cfg) -> int:
    if not (cfg["rss"] or cfg["compare"] or cfg["mse"]):
        raise ConfigError("one of --rss, --compare or --mse is required")
    from .diagnostics import compare_paths, holdout_mse, rss_profile

    grid = {} if cfg["grid"] is None else {"grid": cfg["grid"]}  # else the routine's default
    if cfg["compare"]:
        _require(cfg, "path", "path_b")
        a = pio.read_path_json(cfg["path"])
        b = pio.read_path_json(cfg["path_b"])
        if a.p != b.p:
            raise DataError(f"path has {a.p} predictors, path-b has {b.p}")
        rep = compare_paths(a, b, index_by=cfg["index"], **grid)
        print(json.dumps({"sup_difference": rep.sup_difference, "index_by": rep.index_by,
                          "divergence_index": rep.divergence_index}, sort_keys=True))
        return EXIT_OK
    _require(cfg, "path")
    design, path = _load_design_and_path(cfg)
    if cfg["rss"]:
        curve = rss_profile(design, path, index_by=cfg["index"], **grid)
        label = cfg["method_label"] or "rss"
    else:
        beta_true = pio.read_vector_csv(cfg["truth"]) if cfg["truth"] else None
        _require(cfg, "holdout")
        hold = pio.read_dataset_csv(cfg["holdout"])
        curve = holdout_mse(design, path, hold.X, beta_true=beta_true,
                            y_holdout=hold.y if beta_true is None else None, **grid)
        label = cfg["method_label"] or "mse"
    if cfg["out"]:
        pio.write_curve_csv(curve, cfg["out"], method=label)
    print(f"points: {len(curve.index)}")
    print(f"min_value: {pio.fmt(float(np.min(curve.values)))}")
    return EXIT_OK


def _cmd_certify(cfg) -> int:
    _require(cfg, "path")
    design, path = _load_design_and_path(cfg)
    expanded = design.expanded()
    y = design.y_centered
    lam_max = float(np.max(np.abs(design.correlations(y)), initial=0.0))
    vertices = []
    overall = True
    worst = 0.0
    for k in range(len(path.breakpoints)):
        beta = path.vertices[k]
        corr = design.correlations(y - expanded.predict(beta))
        lam = float(np.max(np.abs(corr)))
        rep = _kkt_report(beta, corr, lam, lam_max, cfg["tolerance"])
        vertices.append({"ell": float(path.breakpoints[k]), "lambda": lam,
                         "passed": rep.passed, "worst_violation": rep.worst_violation})
        overall &= rep.passed
        worst = max(worst, rep.worst_violation)
    print(json.dumps({"passed": overall, "worst_violation": worst, "vertices": vertices},
                     sort_keys=True))
    return EXIT_OK


_HANDLERS = {
    "solve": _cmd_solve,
    "stagewise": _cmd_stagewise,
    "check-monotone": _cmd_check_monotone,
    "simulate": _cmd_simulate,
    "diagnose": _cmd_diagnose,
    "certify": _cmd_certify,
}


def _print_warning(message, category, filename, lineno, file=None, line=None):
    """Show a warning as its message alone, so stderr names no source file."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            cfg = _resolve(argv)
            return _HANDLERS[cfg["command"]](cfg)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except (DataError, OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_DATA
        except InternalConsistencyError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INTERNAL
        except L1PathError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
