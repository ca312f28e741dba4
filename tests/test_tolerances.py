"""README's tolerance table lists every named tolerance and budget of the
package, at its value, and no call overrides one."""

import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import l1paths as lp

README = Path(__file__).resolve().parents[1] / "README.md"
NAMED_TOLERANCE = re.compile(r"^_?[A-Z][A-Z0-9_]*(_RTOL|_TOLERANCE|_FLOOR|_BUDGET)$")


def _table():
    """{name: (module, value)} from the rows of README's Tolerances section."""
    section = README.read_text().split("\n## Tolerances\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \| ([^|]+) \|", section, re.MULTILINE)
    return {name: (module, float(value)) for name, module, value in rows}


def _modules():
    for info in pkgutil.iter_modules(lp.__path__):
        yield importlib.import_module(f"l1paths.{info.name}")


def test_every_named_tolerance_is_in_the_table():
    table = _table()
    missing = sorted(
        f"{module.__name__}.{name}"
        for module in _modules()
        for name in vars(module)
        if NAMED_TOLERANCE.match(name) and name not in table
    )
    assert missing == []


def test_table_rows_name_real_constants_at_their_values():
    table = _table()
    assert {"REFRESH_EVERY", "LOSS_INCREASE_SLACK", "_MIN_ENTRY", "STEP_FLOOR",
            "NNLS_PIVOT_BUDGET", "CHECK_BUDGET", "DIVERGENCE_TOLERANCE"} <= set(table)
    for name, (module, value) in table.items():
        assert getattr(importlib.import_module(f"l1paths.{module}"), name) == value, name


def test_no_call_overrides_a_named_tolerance():
    design = lp.standardize(lp.gen_sine(seed=0))
    ed = design.expanded()
    beta = np.zeros(ed.p2)
    path = lp.solve_path(ed)
    A, b = design.Xs[:, :3], design.y_centered
    calls = {
        "tie_tolerance": [
            lambda **kw: lp.lasso_move_direction(ed, beta, **kw),
            lambda **kw: lp.monotone_move_direction(ed, beta, **kw),
            lambda **kw: lp.glm_move_direction(ed, beta, lp.squared_error_loss(), **kw),
        ],
        "stop_correlation_tolerance": [lambda **kw: lp.StagewiseConfig(**kw)],
        "gradient_tolerance": [lambda **kw: lp.StepControl(**kw)],
        "min_step_factor": [lambda **kw: lp.StepControl(**kw)],
        "max_pivots": [
            lambda **kw: lp.linalg.nnls_continue(
                ed.gram_entries, ed.correlations(b), np.arange(2), lp.CholeskyFactor.empty(),
                (), **kw),
            lambda **kw: lp.solve_nnls_gram(A.T @ A, A.T @ b, **kw),
            lambda **kw: lp.solve_nnls(A, b, **kw),
        ],
        "check_budget": [lambda **kw: lp.exhaustive_check(design, max_subset_size=1, **kw)],
        "threshold": [lambda **kw: lp.compare_paths(path, path, **kw)],
    }
    calls["zero_tolerance"] = calls["tie_tolerance"]
    calls["tol"] = calls["max_pivots"]
    for keyword, fns in calls.items():
        for fn in fns:
            fn()  # the call is valid without the keyword
            with pytest.raises(TypeError, match=keyword):
                fn(**{keyword: 1})
