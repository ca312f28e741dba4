"""Command-line interface.

Subcommands: solve (exact paths), stagewise (epsilon-step and Euler
paths), check-monotone (signed-subset condition), simulate (data
generators), diagnose (profiles and comparisons), certify (stationarity
report for a stored path).

Every run prints its resolved configuration as a JSON line. Exit codes:
0 success, 2 configuration error, 3 data error, 4 solver error,
5 internal consistency violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import io as pio
from .design import standardize
from .diagnostics import compare_paths, holdout_mse, rss_profile
from .errors import (
    ConfigError,
    DataError,
    InternalConsistencyError,
    L1PathError,
)
from .lars import SolverConfig, kkt_certify, solve_path
from .losses import logistic_loss, squared_error_loss
from .monotone import SignedSubset, check_condition, exhaustive_check
from .path import collapse
from .simulate import gen_block, gen_sine
from .stagewise import (
    StagewiseConfig,
    StepControl,
    fs_epsilon,
    integrate_monotone_path,
    monotone_incremental,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_SOLVER = 4
EXIT_INTERNAL = 5


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="l1paths", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON file of defaults, overridden by flags")

    s = sub.add_parser("solve", help="exact piecewise-linear coefficient path")
    common(s)
    s.add_argument("--input", help="CSV dataset (last column = response)")
    s.add_argument("--method", choices=["lar", "lasso", "fs0"])
    s.add_argument("--out", help="output path file (.json or .csv)")
    s.add_argument("--stop-norm", type=float, dest="stop_norm")
    s.add_argument("--stop-lambda", type=float, dest="stop_lambda")
    s.add_argument("--max-steps", type=int, dest="max_steps")
    s.add_argument("--response-col", dest="response_col")
    s.add_argument("--original-scale", action="store_const", const=True,
                   dest="original_scale", help="export signed coefficients on the raw scale")

    s = sub.add_parser("stagewise", help="epsilon-increment and Euler paths")
    common(s)
    s.add_argument("--input")
    s.add_argument("--algorithm", choices=["fs", "monotone", "integrate"])
    s.add_argument("--loss", choices=["squared", "logistic"])
    s.add_argument("--epsilon", type=float)
    s.add_argument("--max-iter", type=int, dest="max_iter")
    s.add_argument("--stride", type=int)
    s.add_argument("--arc-budget", type=float, dest="arc_budget")
    s.add_argument("--out")
    s.add_argument("--response-col", dest="response_col")
    s.add_argument("--sweep", type=int,
                   help="run epsilon/10^k for k < SWEEP and print distances to the exact monotone path")

    s = sub.add_parser("check-monotone", help="signed-subset monotonicity condition")
    common(s)
    s.add_argument("--input")
    s.add_argument("--design-only", action="store_const", const=True, dest="design_only",
                   help="treat every CSV column as a predictor (no response)")
    s.add_argument("--response-col", dest="response_col")
    s.add_argument("--subset", help="comma-separated 0-based column indices")
    s.add_argument("--signs", help="comma-separated +1/-1 signs for --subset")
    s.add_argument("--max-subset", type=int, dest="max_subset")
    s.add_argument("--workers", type=int,
                   help="ignored; the search runs in one process")
    s.add_argument("--emit-violation", dest="emit_violation",
                   help="write the violating subset and vector to this JSON file")

    s = sub.add_parser("simulate", help="generate benchmark datasets")
    common(s)
    s.add_argument("--kind", choices=["sine", "block"])
    s.add_argument("--seed", type=int)
    s.add_argument("--out")
    s.add_argument("--n", type=int)
    s.add_argument("--basis", choices=["piecewise-linear", "piecewise-constant"])
    s.add_argument("--knots", help="comma-separated knot positions")
    s.add_argument("--noise-scale", type=float, dest="noise_scale")
    s.add_argument("--p", type=int)
    s.add_argument("--block", type=int)
    s.add_argument("--rho", type=float)
    s.add_argument("--sigma2", type=float)
    s.add_argument("--nonzero-per-block", type=int, dest="nonzero_per_block")
    s.add_argument("--beta-out", dest="beta_out", help="write the true coefficients (block kind)")

    s = sub.add_parser("diagnose", help="profiles, comparisons, holdout error")
    common(s)
    g = s.add_mutually_exclusive_group(required=True)
    g.add_argument("--rss", action="store_const", const=True)
    g.add_argument("--compare", action="store_const", const=True)
    g.add_argument("--mse", action="store_const", const=True)
    s.add_argument("--input")
    s.add_argument("--path")
    s.add_argument("--path-b", dest="path_b")
    s.add_argument("--index", choices=["norm", "arclength"])
    s.add_argument("--grid", type=int)
    s.add_argument("--out")
    s.add_argument("--truth", help="CSV of true coefficients (for --mse)")
    s.add_argument("--holdout", help="CSV holdout dataset (for --mse)")
    s.add_argument("--response-col", dest="response_col")
    s.add_argument("--method-label", dest="method_label")

    s = sub.add_parser("certify", help="stationarity certificate for a stored path")
    common(s)
    s.add_argument("--input")
    s.add_argument("--path")
    s.add_argument("--tolerance", type=float)
    s.add_argument("--response-col", dest="response_col")
    return ap


DEFAULTS = {
    "solve": {
        "input": None, "method": "lasso", "out": None, "stop_norm": None,
        "stop_lambda": None, "max_steps": None, "response_col": None,
        "original_scale": False,
    },
    "stagewise": {
        "input": None, "algorithm": "monotone", "loss": "squared", "epsilon": 0.01,
        "max_iter": 1_000_000, "stride": 100, "arc_budget": None, "out": None,
        "response_col": None, "sweep": None,
    },
    "check-monotone": {
        "input": None, "design_only": False, "response_col": None, "subset": None,
        "signs": None, "max_subset": None, "workers": None, "emit_violation": None,
    },
    "simulate": {
        "kind": "sine", "seed": 0, "out": None, "n": None, "basis": "piecewise-linear",
        "knots": None, "noise_scale": 0.25, "p": 1000, "block": 20, "rho": 0.95,
        "sigma2": 36.0, "nonzero_per_block": 1, "beta_out": None,
    },
    "diagnose": {
        "rss": False, "compare": False, "mse": False, "input": None, "path": None,
        "path_b": None, "index": "norm", "grid": None, "out": None, "truth": None,
        "holdout": None, "response_col": None, "method_label": None,
    },
    "certify": {
        "input": None, "path": None, "tolerance": 1e-8, "response_col": None,
    },
}


def _resolve(args: argparse.Namespace) -> dict:
    cmd = args.command
    resolved = dict(DEFAULTS[cmd])
    if getattr(args, "config", None):
        try:
            overrides = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        unknown = set(overrides) - set(resolved)
        if unknown:
            raise ConfigError(f"unknown config keys for {cmd}: {sorted(unknown)}")
        resolved.update(overrides)
    for key in resolved:
        val = getattr(args, key, None)
        if val is not None:
            resolved[key] = val
    print(f"config: {json.dumps({'command': cmd, **resolved}, sort_keys=True)}")
    return resolved

def _require(cfg, *keys):
    for key in keys:
        if cfg.get(key) in (None, False):
            raise ConfigError(f"--{key.replace('_', '-')} is required")


def _load_design(cfg, center_response=True):
    _require(cfg, "input")
    data = pio.read_dataset_csv(cfg["input"], response=cfg.get("response_col"))
    return data, standardize(data, center_response=center_response)


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
    solver = SolverConfig(
        mode=cfg["method"],
        max_steps=cfg["max_steps"],
        stop_l1_norm=cfg["stop_norm"],
        stop_lambda=cfg["stop_lambda"],
    )
    path = solve_path(design.expanded(), solver)
    meta = {
        "method": cfg["method"],
        "segments": path.n_segments,
        "events": [e.kind for e in path.events],
    }
    _write_path(path, cfg, design, meta)
    print(f"segments: {path.n_segments}")
    print(f"end: {pio.fmt(path.end)}")
    print("events: " + ",".join(e.kind for e in path.events))
    return EXIT_OK


def _cmd_stagewise(cfg) -> int:
    loss_name = cfg["loss"]
    algo = cfg["algorithm"]
    if loss_name != "squared":
        if algo == "fs":
            raise ConfigError("the signed-coordinate algorithm supports only --loss squared")
        if cfg["sweep"]:
            raise ConfigError("--sweep needs --loss squared")
    _, design = _load_design(cfg, center_response=loss_name == "squared")
    loss = squared_error_loss() if loss_name == "squared" else logistic_loss()
    sw = StagewiseConfig(
        epsilon=cfg["epsilon"], max_iterations=cfg["max_iter"], record_stride=cfg["stride"]
    )
    if algo == "fs":
        path = fs_epsilon(design, sw)
    elif algo == "monotone":
        path = monotone_incremental(
            design.expanded(), sw, loss=None if loss_name == "squared" else loss
        )
    else:
        control = StepControl(
            step=cfg["epsilon"], arc_budget=cfg["arc_budget"],
            max_steps=cfg["max_iter"], record_stride=cfg["stride"],
        )
        path = integrate_monotone_path(design.expanded(), loss, control)
    _write_path(path, cfg, design, {"algorithm": algo, "loss": loss_name})
    print(f"steps: {pio.fmt(path.end / cfg['epsilon'])}")
    print(f"arc_length: {pio.fmt(path.end)}")
    if cfg["sweep"]:
        exact = solve_path(design.expanded(), SolverConfig(mode="fs0"))
        print("epsilon,sup_distance")
        for k in range(cfg["sweep"]):
            eps_k = cfg["epsilon"] / 10**k
            pk = monotone_incremental(
                design.expanded(),
                StagewiseConfig(epsilon=eps_k, max_iterations=cfg["max_iter"],
                                record_stride=cfg["stride"]),
            )
            hi = min(pk.end, exact.end)
            grid = np.linspace(0.0, hi, 256)
            d = np.max(np.abs(collapse(pk.evaluate(grid)) - collapse(exact.evaluate(grid))))
            print(f"{pio.fmt(eps_k)},{pio.fmt(d)}")
    return EXIT_OK


def _cmd_check_monotone(cfg) -> int:
    _require(cfg, "input")
    if cfg["design_only"]:
        rows = pio.read_dataset_csv(cfg["input"])
        X = np.column_stack([rows.X, rows.y])
        from .design import Dataset

        data = Dataset(X=X, y=np.zeros(X.shape[0]))
        design = standardize(data)
    else:
        _, design = _load_design(cfg)
    if cfg["subset"]:
        idx = tuple(int(v) for v in str(cfg["subset"]).split(","))
        signs = tuple(int(v) for v in str(cfg["signs"] or "").split(",")) if cfg["signs"] else (1,) * len(idx)
        report = check_condition(design, SignedSubset(indices=idx, signs=signs))
        doc = {
            "passed": report.passed,
            "subset": list(report.subset.indices),
            "signs": list(report.subset.signs),
            "vector": [float(v) for v in report.vector],
        }
    else:
        res = exhaustive_check(design, max_subset_size=cfg["max_subset"], workers=cfg["workers"])
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
    _require(cfg, "out")
    rows = {} if cfg["n"] is None else {"n": cfg["n"]}  # else the generator's default
    if cfg["kind"] == "sine":
        knots = (
            tuple(float(v) for v in str(cfg["knots"]).split(","))
            if cfg["knots"] else tuple(np.round(np.arange(10) * 0.1, 1))
        )
        data = gen_sine(
            **rows, basis=cfg["basis"], knots=knots,
            noise_scale=cfg["noise_scale"], seed=cfg["seed"],
        )
        pio.write_dataset_csv(data, cfg["out"])
        print(f"rows: {data.n}")
        print(f"cols: {data.p}")
    else:
        data, beta = gen_block(
            **rows, p=cfg["p"], block=cfg["block"], rho=cfg["rho"],
            sigma2=cfg["sigma2"], nonzero_per_block=cfg["nonzero_per_block"],
            seed=cfg["seed"],
        )
        pio.write_dataset_csv(data, cfg["out"])
        if cfg["beta_out"]:
            pio.write_vector_csv(beta, cfg["beta_out"], names=data.feature_names)
        print(f"rows: {data.n}")
        print(f"cols: {data.p}")
    return EXIT_OK


def _cmd_diagnose(cfg) -> int:
    grid = {} if cfg["grid"] is None else {"grid": cfg["grid"]}  # else the routine's default
    if cfg["compare"]:
        _require(cfg, "path", "path_b")
        a = pio.read_path_json(cfg["path"])
        b = pio.read_path_json(cfg["path_b"])
        rep = compare_paths(a, b, index_by=cfg["index"], **grid)
        print(json.dumps({
            "sup_difference": rep.sup_difference,
            "divergence_index": rep.divergence_index,
            "index_by": rep.index_by,
        }, sort_keys=True))
        return EXIT_OK
    _require(cfg, "path")
    _, design = _load_design(cfg)
    path = pio.read_path_json(cfg["path"])
    if cfg["rss"]:
        curve = rss_profile(design, path, index_by=cfg["index"], **grid)
        label = cfg["method_label"] or "rss"
    else:
        if cfg["truth"]:
            beta_true = pio.read_vector_csv(cfg["truth"])
            _require(cfg, "holdout")
            hold = pio.read_dataset_csv(cfg["holdout"])
            curve = holdout_mse(design, path, hold.X, beta_true=beta_true,
                                **grid)
        else:
            _require(cfg, "holdout")
            hold = pio.read_dataset_csv(cfg["holdout"])
            curve = holdout_mse(design, path, hold.X, y_holdout=hold.y,
                                **grid)
        label = cfg["method_label"] or "mse"
    if cfg["out"]:
        pio.write_curve_csv(curve, cfg["out"], method=label)
    print(f"points: {len(curve.index)}")
    print(f"min_value: {pio.fmt(float(np.min(curve.values)))}")
    return EXIT_OK


def _cmd_certify(cfg) -> int:
    _require(cfg, "path")
    _, design = _load_design(cfg)
    path = pio.read_path_json(cfg["path"])
    expanded = design.expanded()
    vertices = []
    overall = True
    worst = 0.0
    for k in range(len(path.breakpoints)):
        beta = path.vertices[k]
        r = expanded.base.y_centered - expanded.predict(beta)
        lam = float(np.max(np.abs(design.correlations(r))))
        rep = kkt_certify(expanded, beta, lam, tol=cfg["tolerance"])
        vertices.append({
            "ell": float(path.breakpoints[k]),
            "lambda": lam,
            "passed": rep.passed,
            "worst_violation": rep.worst_violation,
        })
        overall &= rep.passed
        worst = max(worst, rep.worst_violation)
    print(json.dumps({
        "passed": overall, "worst_violation": worst, "vertices": vertices,
    }, sort_keys=True))
    return EXIT_OK


_HANDLERS = {
    "solve": _cmd_solve,
    "stagewise": _cmd_stagewise,
    "check-monotone": _cmd_check_monotone,
    "simulate": _cmd_simulate,
    "diagnose": _cmd_diagnose,
    "certify": _cmd_certify,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        return _HANDLERS[args.command](cfg)
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
