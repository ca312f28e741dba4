import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import l1paths as lp
from l1paths import SolverConfig, collapse, gen_sine, solve_path
from l1paths import io as pio
from l1paths import cli
from l1paths.cli import main
from oracles import gaussian_instance, rng_for


@pytest.fixture
def sine_csv(tmp_path):
    target = tmp_path / "sine.csv"
    pio.write_dataset_csv(gen_sine(seed=0), target)
    return target


def solved_path(seed=0):
    design = gaussian_instance(20, 5, seed=seed, correlated=True)
    return design, solve_path(design.expanded(), SolverConfig(mode="lasso"))


class TestDatasetCsv:
    def test_roundtrip_with_header(self, tmp_path):
        data = gen_sine(n=50, seed=1)
        target = tmp_path / "d.csv"
        pio.write_dataset_csv(data, target)
        back = pio.read_dataset_csv(target)
        assert np.array_equal(back.X, data.X)
        assert np.array_equal(back.y, data.y)
        assert back.feature_names == data.feature_names

    def test_headerless_numeric_file(self, tmp_path):
        target = tmp_path / "raw.csv"
        target.write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n")
        data = pio.read_dataset_csv(target)
        assert data.X.shape == (2, 2)
        np.testing.assert_array_equal(data.y, [3.0, 6.0])

    def test_response_column_by_name(self, tmp_path):
        target = tmp_path / "named.csv"
        target.write_text("a,b,c\n1,2,3\n4,5,6\n")
        data = pio.read_dataset_csv(target, response="b")
        np.testing.assert_array_equal(data.y, [2.0, 5.0])
        assert data.feature_names == ["a", "c"]

    def test_malformed_cell_reports_line(self, tmp_path):
        target = tmp_path / "bad.csv"
        target.write_text("a,b\n1,2\n3,oops\n")
        with pytest.raises(lp.DataError, match="line 3"):
            pio.read_dataset_csv(target)

    def test_ragged_row_reports_line(self, tmp_path):
        target = tmp_path / "ragged.csv"
        target.write_text("1,2\n3\n")
        with pytest.raises(lp.DataError, match="line 2"):
            pio.read_dataset_csv(target)


class TestPathSerialization:
    def test_json_roundtrip_bit_for_bit(self, tmp_path):
        _, path = solved_path()
        target = tmp_path / "p.json"
        pio.write_path_json(path, target, metadata={"method": "lasso"})
        back = pio.read_path_json(target)
        assert np.array_equal(back.vertices, path.vertices)
        assert np.array_equal(back.breakpoints, path.breakpoints)
        assert back.segment_active_sets == path.segment_active_sets
        assert [e.kind for e in back.events] == [e.kind for e in path.events]
        assert back.parametrization == path.parametrization

    def test_csv_roundtrip_within_1e15(self, tmp_path):
        _, path = solved_path()
        target = tmp_path / "p.csv"
        pio.write_path_csv(path, target)
        assert target.read_text().startswith("ell,coordinate,value\n")
        rows = np.loadtxt(target, delimiter=",", skiprows=1)
        p2 = path.vertices.shape[1]
        assert np.array_equal(rows[:, 1], np.tile(np.arange(p2), len(path.breakpoints)))
        vertices = rows[:, 2].reshape(-1, p2)
        assert np.max(np.abs(vertices - path.vertices)) <= 1e-15 * max(
            1.0, float(np.max(np.abs(path.vertices)))
        )
        np.testing.assert_allclose(rows[::p2, 0], path.breakpoints, rtol=1e-15)

    def test_original_scale_export_predicts_raw_data(self, tmp_path):
        design, path = solved_path()
        target = tmp_path / "orig.csv"
        pio.write_path_csv_original(path, design, target)
        rows = target.read_text().strip().splitlines()
        assert rows[0] == "ell,coordinate,value"
        last = path.breakpoints[-1]
        tail = [r.split(",") for r in rows if r.startswith(pio.fmt(last))]
        by_name = {r[1]: float(r[2]) for r in tail}
        b, intercept = design.to_original_scale(collapse(path.vertices[-1]))
        assert by_name["intercept"] == pytest.approx(intercept, rel=1e-12)
        for j in range(design.p):
            assert by_name[design.name_of(j)] == pytest.approx(b[j], rel=1e-12)

    def test_schema_version_checked(self, tmp_path):
        target = tmp_path / "v.json"
        target.write_text(json.dumps({"schema_version": 99}))
        with pytest.raises(lp.DataError, match="schema"):
            pio.read_path_json(target)


def stdlib_path_json(path, metadata=None):
    return json.dumps(pio.path_to_dict(path, metadata), sort_keys=True, indent=1) + "\n"


class TestPathJsonBytes:
    """write_path_json writes exactly the stdlib's indent-1, sorted-key encoding."""

    def assert_stdlib_bytes(self, path, target, metadata=None):
        pio.write_path_json(path, target, metadata)
        assert target.read_bytes() == stdlib_path_json(path, metadata).encode()

    @pytest.mark.parametrize("mode", ["lar", "lasso", "fs0"])
    @pytest.mark.parametrize("name", ["sine", "block"])
    def test_exact_paths(self, name, mode, tmp_path):
        data = gen_sine(seed=0) if name == "sine" else lp.gen_block(n=30, p=100, seed=0)[0]
        path = solve_path(lp.standardize(data).expanded(), SolverConfig(mode=mode))
        assert pio.path_to_dict(path)["vertices"] == [[float(v) for v in row]
                                                      for row in path.vertices]
        self.assert_stdlib_bytes(path, tmp_path / "p.json",
                                 {"method": mode, "segments": path.n_segments})

    def test_zero_segment_path(self, tmp_path):
        data = gen_sine(seed=0)
        design = lp.standardize(lp.Dataset(X=data.X, y=np.zeros(data.n)))
        path = solve_path(design.expanded(), SolverConfig(mode="lasso"))
        assert path.n_segments == 0
        self.assert_stdlib_bytes(path, tmp_path / "p.json")

    def test_truncated_stagewise_path(self, tmp_path):
        design = lp.standardize(gen_sine(seed=0))
        with pytest.warns(UserWarning, match="budget exhausted"):
            path = lp.monotone_incremental(
                design.expanded(),
                lp.StagewiseConfig(epsilon=0.01, max_iterations=250, record_stride=7))
        assert path.truncated
        self.assert_stdlib_bytes(path, tmp_path / "p.json", {"method": "monotone"})

    def test_escaped_feature_names(self, tmp_path):
        data = gen_sine(n=40, seed=1)
        names = ['quote "q"', "back\\slash", "new\nline", "gr\u00fc\u00dfe \u03b2", "\u6f22\u5b57",
                 *[f"x{j}" for j in range(5, data.p)]]
        design = lp.standardize(lp.Dataset(X=data.X, y=data.y, feature_names=names))
        path = solve_path(design.expanded(), SolverConfig(mode="lasso"))
        assert path.feature_names == names
        target = tmp_path / "p.json"
        self.assert_stdlib_bytes(path, target)
        assert pio.read_path_json(target).feature_names == names

    def test_metadata_values(self, tmp_path):
        _, path = solved_path()
        metadata = {"nested": {"b": {"deep": [1, 2.5, "three"]}, "a": []},
                    "empty": [], "none": None, "flags": [True, False],
                    "nan": float("nan"), "inf": [float("inf"), -float("inf")]}
        self.assert_stdlib_bytes(path, tmp_path / "p.json", metadata)

    def test_non_finite_and_signed_zero_vertices(self, tmp_path):
        path = lp.PiecewiseLinearPath(
            breakpoints=[0.0, 1.0],
            vertices=[[0.0, -0.0, 5e-324, 1e300], [float("nan"), float("inf"), -float("inf"), 0.1]],
            segment_active_sets=[(0,)], parametrization="l1_norm")
        self.assert_stdlib_bytes(path, tmp_path / "p.json")

    @pytest.mark.parametrize("shape", [(0, 4), (2, 0)], ids=["no_vertices", "no_coordinates"])
    def test_empty_vertex_matrix(self, shape, tmp_path):
        path = lp.PiecewiseLinearPath(breakpoints=np.arange(float(shape[0])),
                                      vertices=np.zeros(shape),
                                      segment_active_sets=[()] * max(shape[0] - 1, 0),
                                      parametrization="l1_norm")
        self.assert_stdlib_bytes(path, tmp_path / "p.json")


class TestCsvMatchesMemory:
    """A dataset read from CSV gives the same path as the data it was written from."""

    def test_csv_and_fortran_copies_standardize_identically(self, tmp_path):
        data, _ = lp.gen_block(n=30, p=100, seed=0)
        target = tmp_path / "block.csv"
        pio.write_dataset_csv(data, target)
        ref = lp.standardize(data)
        lasso = SolverConfig(mode="lasso")
        ref_events = [e.kind for e in solve_path(ref.expanded(), lasso).events]
        for copy in (pio.read_dataset_csv(target),
                     lp.Dataset(X=np.asfortranarray(data.X), y=data.y)):
            design = lp.standardize(copy)
            assert np.array_equal(design.Xs, ref.Xs)
            assert [e.kind for e in solve_path(design.expanded(), lasso).events] == ref_events

    @pytest.mark.parametrize("mode", ["lar", "lasso", "fs0"])
    @pytest.mark.parametrize("name", ["sine", "block"])
    def test_cli_solve_json_equals_in_process_solve(self, name, mode, tmp_path, capsys):
        data = gen_sine(seed=0) if name == "sine" else lp.gen_block(n=30, p=100, seed=0)[0]
        csv = tmp_path / "data.csv"
        pio.write_dataset_csv(data, csv)
        out, ref = tmp_path / "cli.json", tmp_path / "ref.json"
        assert main(["solve", "--input", str(csv), "--method", mode, "--out", str(out)]) == 0
        capsys.readouterr()
        path = solve_path(lp.standardize(data).expanded(), SolverConfig(mode=mode))
        meta = {"method": mode, "segments": path.n_segments,
                "events": [e.kind for e in path.events]}
        pio.write_path_json(path, ref, meta)
        assert out.read_bytes() == ref.read_bytes()


class TestCli:
    def run(self, capsys, *argv):
        code = main(list(argv))
        out = capsys.readouterr()
        return code, out.out, out.err

    def test_solve_single_predictor(self, tmp_path, capsys):
        csv = tmp_path / "one.csv"
        csv.write_text("x,y\n" + "\n".join(
            f"{v},{2 * v + 0.05 * ((i * 7) % 3 - 1)}" for i, v in enumerate(np.linspace(-1, 1, 20))
        ))
        out = tmp_path / "p.json"
        code, stdout, _ = self.run(capsys, "solve", "--input", str(csv),
                                   "--method", "lasso", "--out", str(out))
        assert code == 0
        assert "segments: 1" in stdout
        path = pio.read_path_json(out)
        assert path.n_segments == 1

    def test_solve_sine_lasso_records_drop_event(self, sine_csv, tmp_path, capsys):
        out = tmp_path / "lasso.json"
        code, stdout, _ = self.run(capsys, "solve", "--input", str(sine_csv),
                                   "--method", "lasso", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert "drop" in [e["kind"] for e in doc["events"]]
        assert doc["metadata"]["method"] == "lasso"

    def test_diagnose_compare_detects_mode_difference(self, sine_csv, tmp_path, capsys):
        a, b = tmp_path / "lar.json", tmp_path / "fs0.json"
        assert self.run(capsys, "solve", "--input", str(sine_csv), "--method", "lar",
                        "--out", str(a))[0] == 0
        assert self.run(capsys, "solve", "--input", str(sine_csv), "--method", "fs0",
                        "--out", str(b))[0] == 0
        code, stdout, _ = self.run(capsys, "diagnose", "--compare", "--path", str(a),
                                   "--path-b", str(b), "--index", "norm")
        assert code == 0
        doc = json.loads(stdout.strip().splitlines()[-1])
        assert doc["sup_difference"] > 1e-3
        assert doc["divergence_index"] is not None

    def test_stagewise_step_count_single_predictor(self, tmp_path, capsys):
        # least-squares coefficient 0.37 = 37 steps of 0.01, after which the
        # correlation is driven to rounding level and the run stops
        raw = np.linspace(-1, 1, 24)
        x = (raw - raw.mean()) / np.sqrt(((raw - raw.mean()) ** 2).mean())
        csv = tmp_path / "one.csv"
        csv.write_text("x,y\n" + "\n".join(f"{pio.fmt(v)},{pio.fmt(0.37 * v)}" for v in x))
        out = tmp_path / "st.json"
        code, stdout, _ = self.run(capsys, "stagewise", "--input", str(csv),
                                   "--algorithm", "fs", "--epsilon", "0.01",
                                   "--max-iter", "100000", "--out", str(out))
        assert code == 0
        steps = float(stdout.split("steps: ")[1].splitlines()[0])
        assert abs(steps - 37) <= 1

    def test_stagewise_logistic_monotone_path(self, tmp_path, capsys):
        rng = np.random.Generator(np.random.PCG64(2))
        X = rng.standard_normal((30, 3))
        y = (X @ np.array([2.0, -1.0, 0.5]) > 0).astype(float)
        csv = tmp_path / "log.csv"
        pio.write_dataset_csv(lp.Dataset(X=X, y=y), csv)
        out = tmp_path / "glm.json"
        code, _, _ = self.run(capsys, "stagewise", "--input", str(csv),
                              "--loss", "logistic", "--algorithm", "monotone",
                              "--epsilon", "0.02", "--max-iter", "200",
                              "--out", str(out))
        assert code == 0
        path = pio.read_path_json(out)
        assert np.all(np.diff(path.vertices, axis=0) >= 0.0)

    def test_stagewise_sweep_table(self, tmp_path, capsys):
        design = gaussian_instance(20, 4, seed=5)
        csv = tmp_path / "d.csv"
        pio.write_dataset_csv(lp.Dataset(X=design.Xs, y=design.y_centered), csv)
        code, stdout, _ = self.run(capsys, "stagewise", "--input", str(csv),
                                   "--algorithm", "monotone", "--epsilon", "0.01",
                                   "--max-iter", "4000", "--sweep", "2")
        assert code == 0
        lines = stdout.strip().splitlines()
        idx = lines.index("epsilon,sup_distance")
        d1 = float(lines[idx + 1].split(",")[1])
        d2 = float(lines[idx + 2].split(",")[1])
        assert d2 < d1

    def test_stagewise_sweep_rejects_logistic_before_solving(self, tmp_path, capsys):
        rng = np.random.Generator(np.random.PCG64(4))
        X = rng.standard_normal((40, 3))
        csv = tmp_path / "log.csv"
        pio.write_dataset_csv(lp.Dataset(X=X, y=(X[:, 0] > 0).astype(float)), csv)
        out = tmp_path / "g.json"
        code, stdout, err = self.run(capsys, "stagewise", "--input", str(csv),
                                     "--loss", "logistic", "--algorithm", "monotone",
                                     "--sweep", "2", "--out", str(out))
        assert code == 2
        assert "--sweep needs --loss squared" in err
        assert not out.exists()
        assert "steps:" not in stdout

    @pytest.mark.parametrize("argv,message", [
        (("--stop-norm", "nan"), "stop_l1_norm must be finite and non-negative, got nan"),
        (("--stop-norm", "-1"), "stop_l1_norm must be finite and non-negative, got -1.0"),
        (("--stop-lambda", "nan"), "stop_lambda must be finite and non-negative, got nan"),
        (("--stop-lambda", "-1"), "stop_lambda must be finite and non-negative, got -1.0"),
    ], ids=["stop_norm_nan", "stop_norm_negative", "stop_lambda_nan", "stop_lambda_negative"])
    def test_solve_rejects_bad_stop_bounds(self, sine_csv, tmp_path, capsys, argv, message):
        out = tmp_path / "bad.json"
        code, stdout, err = self.run(capsys, "solve", "--input", str(sine_csv),
                                     "--method", "lasso", *argv, "--out", str(out))
        assert code == 2
        assert err.strip().splitlines()[-1] == f"error: {message}"
        assert not out.exists()
        assert "segments:" not in stdout

    def test_solve_zero_stop_norm_writes_the_empty_path(self, sine_csv, tmp_path, capsys):
        out = tmp_path / "empty.json"
        code, stdout, _ = self.run(capsys, "solve", "--input", str(sine_csv),
                                   "--method", "lasso", "--stop-norm", "0", "--out", str(out))
        assert code == 0
        assert "segments: 0" in stdout
        assert pio.read_path_json(out).n_segments == 0

    # Budgets of zero or one step keep a run that skips validation short.
    @pytest.mark.parametrize("argv,message", [
        (("integrate", "--epsilon", "nan", "--max-iter", "0"),
         "step must be finite and positive, got nan"),
        (("integrate", "--epsilon", "inf", "--max-iter", "0"),
         "step must be finite and positive, got inf"),
        (("integrate", "--arc-budget", "nan", "--max-iter", "1"),
         "arc_budget must be finite and positive, got nan"),
        (("integrate", "--arc-budget", "-1", "--max-iter", "1"),
         "arc_budget must be finite and positive, got -1.0"),
        (("monotone", "--epsilon", "nan", "--max-iter", "1"),
         "epsilon must be finite and positive, got nan"),
        (("fs", "--epsilon", "inf", "--max-iter", "1"),
         "epsilon must be finite and positive, got inf"),
        *(((algorithm, "--arc-budget", budget, "--max-iter", "1"),
           "--arc-budget needs --algorithm integrate")
          for algorithm in ("fs", "monotone") for budget in ("1", "nan")),
    ], ids=["integrate_step_nan", "integrate_step_inf", "arc_budget_nan", "arc_budget_negative",
            "monotone_epsilon_nan", "fs_epsilon_inf", "fs_arc_budget", "fs_arc_budget_nan",
            "monotone_arc_budget", "monotone_arc_budget_nan"])
    def test_stagewise_rejects_bad_steps(self, sine_csv, tmp_path, capsys, argv, message):
        algorithm, *rest = argv
        out = tmp_path / "bad.json"
        code, stdout, err = self.run(capsys, "stagewise", "--input", str(sine_csv),
                                     "--algorithm", algorithm, *rest, "--out", str(out))
        assert code == 2
        assert err.strip().splitlines()[-1] == f"error: {message}"
        assert not out.exists()
        assert "steps:" not in stdout

    def test_check_monotone_emits_violation_json(self, sine_csv, tmp_path, capsys):
        out = tmp_path / "viol.json"
        code, stdout, _ = self.run(capsys, "check-monotone", "--input", str(sine_csv),
                                   "--subset", "3,9,8", "--signs=-1,1,1",
                                   "--emit-violation", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["passed"] is False
        assert min(doc["vector"]) < 0

    @pytest.mark.parametrize("argv,code,message", [
        (("--subset=-1,0",), 3, "column index -1 is out of range for 10 columns"),
        (("--subset", "0,99"), 3, "column index 99 is out of range for 10 columns"),
        (("--max-subset", "0"), 2, "max_subset_size must be at least 1"),
        (("--max-subset", "-2"), 2, "max_subset_size must be at least 1"),
        (("--subset", "0,1", "--signs", "1"), 2, "indices and signs disagree in length"),
        (("--subset", "0,0"), 2, "indices must be distinct"),
        (("--subset", "0,1", "--signs", "1,2"), 2, "signs must be +1 or -1"),
        (("--subset", "a,1"), 2, "invalid literal for int() with base 10: 'a'"),
        (("--subset", ","), 2, "invalid literal for int() with base 10: ''"),
        (("--subset=",), 2, "invalid literal for int() with base 10: ''"),
        (("--subset", "0,1", "--signs="), 2, "invalid literal for int() with base 10: ''"),
        (("--signs", "1,-1"), 2, "--signs needs --subset"),
        (("--design-only", "--response-col", "y"), 2,
         "--response-col cannot be used with --design-only"),
    ], ids=["negative_index", "index_past_end", "size_zero", "size_negative", "signs_length",
            "repeated_index", "sign_two", "index_not_int", "empty_index", "empty_subset",
            "empty_signs", "signs_alone",
            "response_col_design_only"])
    def test_check_monotone_rejects_bad_subsets(self, sine_csv, capsys, argv, code, message):
        got, stdout, err = self.run(capsys, "check-monotone", "--input", str(sine_csv), *argv)
        assert got == code
        assert err.strip().splitlines()[-1] == f"error: {message}"
        assert '"passed"' not in stdout

    def test_check_monotone_budget_names_the_subset_size(self, tmp_path, capsys):
        # 16 columns: 3^16 - 1 = 43,046,720 signed subsets, over the default budget.
        csv = tmp_path / "wide.csv"
        X = rng_for(16).standard_normal((40, 16))
        pio.write_dataset_csv(lp.Dataset(X=X[:, :-1], y=X[:, -1]), csv)
        code, stdout, err = self.run(capsys, "check-monotone", "--input", str(csv), "--design-only")
        assert code == 2
        assert err.strip().splitlines()[-1] == (
            "error: 43046720 signed subsets exceed the budget of 10000000; lower "
            "max_subset_size (--max-subset), or raise check_budget to force the search")
        assert '"passed"' not in stdout
        code, stdout, _ = self.run(capsys, "check-monotone", "--input", str(csv), "--design-only",
                                   "--max-subset", "3")
        assert code == 0
        assert json.loads(stdout.splitlines()[-1])["checked"] == 2 * 16 + 4 * 120 + 8 * 560

    def test_check_monotone_refuses_numerically_singular_violation(self, tmp_path, capsys):
        x = rng_for(2).standard_normal(20)
        csv = tmp_path / "pair.csv"
        pio.write_dataset_csv(lp.Dataset(X=np.column_stack([x, 2 * x + 1e-9]),
                                         y=np.zeros(20)), csv)
        code, stdout, err = self.run(capsys, "check-monotone", "--input", str(csv))
        assert code == 4
        assert err.strip().splitlines()[-1] == (
            "error: columns (0, 1) have a singular Gram matrix")
        assert [line for line in stdout.splitlines() if not line.startswith("config:")] == []

    def test_simulate_reproducible_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        code1, out1, _ = self.run(capsys, "simulate", "--kind", "block", "--seed", "4",
                                  "--p", "40", "--n", "20", "--out", str(a))
        code2, out2, _ = self.run(capsys, "simulate", "--kind", "block", "--seed", "4",
                                  "--p", "40", "--n", "20", "--out", str(b))
        assert code1 == code2 == 0
        assert out1.replace(str(a), "OUT") == out2.replace(str(b), "OUT")
        assert a.read_bytes() == b.read_bytes()

    def test_solve_rerun_byte_identical(self, sine_csv, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        _, out1, _ = self.run(capsys, "solve", "--input", str(sine_csv), "--out", str(a))
        _, out2, _ = self.run(capsys, "solve", "--input", str(sine_csv), "--out", str(b))
        assert out1.replace(str(a), "OUT") == out2.replace(str(b), "OUT")
        assert a.read_bytes() == b.read_bytes()

    def test_certify_solved_path_passes(self, sine_csv, tmp_path, capsys):
        out = tmp_path / "p.json"
        self.run(capsys, "solve", "--input", str(sine_csv), "--method", "lasso",
                 "--out", str(out))
        code, stdout, _ = self.run(capsys, "certify", "--input", str(sine_csv),
                                   "--path", str(out))
        assert code == 0
        doc = json.loads(stdout.strip().splitlines()[-1])
        assert doc["passed"] is True

    def test_diagnose_rss_writes_curve(self, sine_csv, tmp_path, capsys):
        p = tmp_path / "p.json"
        self.run(capsys, "solve", "--input", str(sine_csv), "--out", str(p))
        curve = tmp_path / "c.csv"
        code, _, _ = self.run(capsys, "diagnose", "--rss", "--input", str(sine_csv),
                              "--path", str(p), "--index", "norm", "--out", str(curve))
        assert code == 0
        lines = curve.read_text().strip().splitlines()
        assert lines[0] == "index,value,method"
        vals = [float(l.split(",")[1]) for l in lines[1:]]
        assert vals[0] > vals[-1]

    def test_config_file_merge_and_override(self, sine_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "lar", "input": str(sine_csv)}))
        code, stdout, _ = self.run(capsys, "solve", "--config", str(cfg),
                                   "--method", "fs0")
        assert code == 0
        line = stdout.splitlines()[0]
        assert json.loads(line.removeprefix("config: "))["method"] == "fs0"

    def test_unknown_config_key_rejected(self, sine_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nonsense": 1}))
        code, _, err = self.run(capsys, "solve", "--config", str(cfg),
                                "--input", str(sine_csv))
        assert code == 2
        assert "nonsense" in err

    @pytest.mark.parametrize("command, values, message", [
        ("solve", {"max_steps": "5"}, 'config value "5" for max_steps is not one --max-steps takes'),
        ("solve", {"max_steps": 5.5}, "config value 5.5 for max_steps is not one --max-steps takes"),
        ("solve", {"stop_norm": "1"}, 'config value "1" for stop_norm is not one --stop-norm takes'),
        ("solve", {"original_scale": "no"},
         'config value "no" for original_scale is not one --original-scale takes'),
        ("solve", {"input": None}, "config value null for input is not one --input takes"),
        ("solve", {"stop_norm": True}, "config value true for stop_norm is not one --stop-norm takes"),
        ("solve", {"stop_norm": -1}, "stop_l1_norm must be finite and non-negative, got -1.0"),
        ("stagewise", {"epsilon": "0.1"}, 'config value "0.1" for epsilon is not one --epsilon takes'),
        ("simulate", {"seed": "1"}, 'config value "1" for seed is not one --seed takes'),
        ("simulate", {"seed": -1}, "seed must be non-negative, got -1"),
    ], ids=["int_as_string", "int_as_fraction", "float_as_string", "switch_as_string",
            "string_as_null", "float_as_bool", "float_out_of_range", "epsilon_as_string",
            "seed_as_string", "seed_negative"])
    def test_config_value_is_checked_like_its_flag(self, sine_csv, tmp_path, capsys,
                                                   command, values, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        out = tmp_path / "out.csv"
        data = [] if command == "simulate" else ["--input", str(sine_csv)]
        code, stdout, err = self.run(capsys, command, "--config", str(cfg), *data,
                                     "--out", str(out))
        assert code == 2
        assert err.strip().splitlines()[-1] == f"error: {message}"
        assert not out.exists()
        assert len(stdout.splitlines()) <= 1  # at most the config line

    def test_config_value_outside_its_choices_is_a_usage_error(self, sine_csv, tmp_path,
                                                                  capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "lars"}))
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--config", str(cfg), "--input", str(sine_csv)])
        assert exc.value.code == 2
        assert "argument --method: invalid choice: 'lars'" in capsys.readouterr().err

    def test_config_file_and_flags_resolve_alike(self, sine_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"input": str(sine_csv), "method": "lar", "stop_norm": 2,
                                   "max_steps": 50, "original_scale": True}))
        _, from_file, _ = self.run(capsys, "solve", "--config", str(cfg))
        _, from_flags, _ = self.run(capsys, "solve", "--input", str(sine_csv), "--method", "lar",
                                    "--stop-norm", "2", "--max-steps", "50", "--original-scale")
        assert from_file == from_flags
        assert '"stop_norm": 2.0' in from_file.splitlines()[0]

    # Each subcommand's resolved configuration when no flag is given (diagnose
    # needs one of its modes).
    @pytest.mark.parametrize("argv, line", [
        (["solve"], '{"command": "solve", "input": null, "max_steps": null, "method": "lasso", '
         '"original_scale": false, "out": null, "response_col": null, "stop_lambda": null, '
         '"stop_norm": null}'),
        (["stagewise"], '{"algorithm": "monotone", "arc_budget": null, "command": "stagewise", '
         '"epsilon": 0.01, "input": null, "loss": "squared", "max_iter": 1000000, "out": null, '
         '"response_col": null, "stride": 100, "sweep": null}'),
        (["check-monotone"], '{"command": "check-monotone", "design_only": false, '
         '"emit_violation": null, "input": null, "max_subset": null, "response_col": null, '
         '"signs": null, "subset": null}'),
        (["simulate"], '{"basis": "piecewise-linear", "beta_out": null, "block": 20, '
         '"command": "simulate", "kind": "sine", "knots": null, "n": null, "noise_scale": 0.25, '
         '"nonzero_per_block": 1, "out": null, "p": 1000, "rho": 0.95, "seed": 0, '
         '"sigma2": 36.0}'),
        (["diagnose", "--rss"], '{"command": "diagnose", "compare": false, "grid": null, '
         '"holdout": null, "index": "norm", "input": null, "method_label": null, "mse": false, '
         '"out": null, "path": null, "path_b": null, "response_col": null, "rss": true, '
         '"truth": null}'),
        (["certify"], '{"command": "certify", "input": null, "path": null, "response_col": null, '
         '"tolerance": 1e-08}'),
    ], ids=lambda v: v[0] if isinstance(v, list) else "")
    def test_default_config_line(self, capsys, argv, line):
        code, stdout, _ = self.run(capsys, *argv)
        assert code == 2  # a required file is missing
        assert stdout.splitlines()[0] == f"config: {line}"

    def test_diagnose_mode_from_config(self, sine_csv, tmp_path, capsys):
        path = tmp_path / "p.json"
        self.run(capsys, "solve", "--input", str(sine_csv), "--out", str(path))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rss": True}))
        code, stdout, _ = self.run(capsys, "diagnose", "--config", str(cfg),
                                   "--input", str(sine_csv), "--path", str(path))
        assert code == 0
        assert '"rss": true' in stdout.splitlines()[0]
        assert stdout.splitlines()[1].startswith("points: ")
        code, _, err = self.run(capsys, "diagnose", "--input", str(sine_csv), "--path", str(path))
        assert code == 2
        assert err.strip() == "error: one of --rss, --compare or --mse is required"

    def test_workers_flag_is_gone(self, sine_csv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check-monotone", "--input", str(sine_csv), "--workers", "2"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_exit_codes(self, tmp_path, capsys):
        # data error: missing file
        assert self.run(capsys, "solve", "--input", str(tmp_path / "nope.csv"))[0] == 3
        # data error: malformed csv
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,x\n")
        assert self.run(capsys, "solve", "--input", str(bad))[0] == 3
        # solver error: starved step budget
        design = gaussian_instance(20, 5, seed=6)
        good = tmp_path / "good.csv"
        pio.write_dataset_csv(lp.Dataset(X=design.Xs, y=design.y_centered), good)
        assert self.run(capsys, "solve", "--input", str(good), "--max-steps", "1")[0] == 4
        # config error: unknown flag (argparse exits 2)
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--nonsense"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_original_scale_flag(self, sine_csv, tmp_path, capsys):
        out = tmp_path / "orig.csv"
        code, _, _ = self.run(capsys, "solve", "--input", str(sine_csv),
                              "--out", str(out), "--original-scale")
        assert code == 0
        assert "intercept" in out.read_text().splitlines()[1]

    def test_check_monotone_design_only_uses_every_column(self, tmp_path, capsys):
        rng = np.random.Generator(np.random.PCG64(11))
        X = rng.standard_normal((30, 3))
        csv = tmp_path / "pure.csv"
        csv.write_text("a,b,c\n" + "\n".join(
            ",".join(pio.fmt(v) for v in row) for row in X
        ))
        code, stdout, _ = self.run(capsys, "check-monotone", "--input", str(csv),
                                   "--design-only", "--subset", "0,1,2")
        assert code == 0
        doc = json.loads(stdout.strip().splitlines()[-1])
        assert len(doc["vector"]) == 3

    def test_diagnose_mse_with_truth(self, tmp_path, capsys):
        rng = np.random.Generator(np.random.PCG64(12))
        X = rng.standard_normal((40, 3))
        beta = np.array([1.0, -1.0, 0.0])
        data = lp.Dataset(X=X, y=X @ beta)
        train = tmp_path / "train.csv"
        pio.write_dataset_csv(data, train)
        p = tmp_path / "p.json"
        self.run(capsys, "solve", "--input", str(train), "--out", str(p))
        truth = tmp_path / "beta.csv"
        pio.write_vector_csv(beta, truth)
        hold = tmp_path / "hold.csv"
        pio.write_dataset_csv(lp.Dataset(X=rng.standard_normal((200, 3)),
                                         y=np.zeros(200)), hold)
        curve = tmp_path / "mse.csv"
        code, stdout, _ = self.run(capsys, "diagnose", "--mse", "--input", str(train),
                                   "--path", str(p), "--truth", str(truth),
                                   "--holdout", str(hold), "--out", str(curve))
        assert code == 0
        assert "min_value: 0" in stdout or float(
            stdout.split("min_value: ")[1].splitlines()[0]) <= 1e-10

    def test_stagewise_integrate_algorithm(self, tmp_path, capsys):
        rng = np.random.Generator(np.random.PCG64(13))
        X = rng.standard_normal((25, 3))
        y = X @ np.array([1.0, -0.5, 0.2]) + 0.3 * rng.standard_normal(25)
        csv = tmp_path / "d.csv"
        pio.write_dataset_csv(lp.Dataset(X=X, y=y), csv)
        out = tmp_path / "euler.json"
        code, _, _ = self.run(capsys, "stagewise", "--input", str(csv),
                              "--algorithm", "integrate", "--epsilon", "0.02",
                              "--arc-budget", "1.0", "--out", str(out))
        assert code == 0
        path = pio.read_path_json(out)
        assert np.all(np.diff(path.vertices, axis=0) >= 0.0)
        assert path.end >= 1.0 - 1e-9

    @pytest.mark.parametrize("argv,message", [
        (("--kind", "block", "--block", "0"), "block must be at least 1, got 0"),
        (("--kind", "sine", "--n", "0"), "n must be at least 2, got 0"),
    ], ids=["block_zero", "n_zero"])
    def test_simulate_rejects_bad_sizes(self, tmp_path, capsys, argv, message):
        out = tmp_path / "d.csv"
        code, stdout, err = self.run(capsys, "simulate", *argv, "--out", str(out))
        assert code == 2
        assert err.strip().splitlines()[-1] == f"error: {message}"
        assert not out.exists()
        assert "rows:" not in stdout

    def test_diagnose_rejects_a_grid_below_two(self, sine_csv, tmp_path, capsys):
        path = tmp_path / "p.json"
        self.run(capsys, "solve", "--input", str(sine_csv), "--out", str(path))
        curve = tmp_path / "c.csv"
        code, stdout, err = self.run(capsys, "diagnose", "--rss", "--input", str(sine_csv),
                                     "--path", str(path), "--grid", "0", "--out", str(curve))
        assert code == 2
        assert err.strip().splitlines()[-1] == "error: grid must be at least 2, got 0"
        assert not curve.exists()
        assert "points:" not in stdout

    @pytest.mark.parametrize("tolerance", ["nan", "-1", "inf"])
    def test_certify_rejects_bad_tolerance(self, sine_csv, tmp_path, capsys, tolerance):
        path = tmp_path / "p.json"
        self.run(capsys, "solve", "--input", str(sine_csv), "--method", "lasso",
                 "--out", str(path))
        code, stdout, err = self.run(capsys, "certify", "--input", str(sine_csv),
                                     "--path", str(path), "--tolerance", tolerance)
        assert code == 2
        assert err.strip().splitlines()[-1] == (
            f"error: tolerance must be finite and non-negative, got {float(tolerance)}")
        assert '"passed"' not in stdout

    def test_certify_rejects_signed_path(self, sine_csv, tmp_path, capsys):
        out = tmp_path / "lar.json"
        self.run(capsys, "solve", "--input", str(sine_csv), "--method", "lar",
                 "--out", str(out))
        code, _, err = self.run(capsys, "certify", "--input", str(sine_csv),
                                "--path", str(out))
        assert code == 3
        assert "non-negative" in err


def _typed_options():
    """(subcommand, flag) for every int or float option of the CLI parser."""
    ap = cli._parser()
    commands = next(a for a in ap._actions if a.dest == "command").choices
    return [(name, a.option_strings[0]) for name, sub in commands.items()
            for a in sub._actions if a.type in (int, float)]


# The values of an int or float option that are valid, with their meaning.
# Every other value the walk tries must be refused with exit 2.
VALID_VALUES = {
    ("solve", "--stop-norm", "0"): "the empty path",
    ("solve", "--stop-lambda", "0"): "no stop before the path ends",
    ("stagewise", "--max-iter", "0"): "no step: the path is its start",
    ("stagewise", "--sweep", "0"): "no sweep",
    ("simulate", "--seed", "0"): "the default seed",
    ("simulate", "--noise-scale", "0"): "the noiseless response",
    ("simulate", "--rho", "0"): "independent columns",
    ("simulate", "--sigma2", "0"): "the noiseless response",
    ("certify", "--tolerance", "0"): "exact stationarity",
}


@pytest.fixture(scope="module")
def walk_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("walk")
    csv, path = root / "sine.csv", root / "lasso.json"
    pio.write_dataset_csv(gen_sine(n=40, seed=0), csv)
    pio.write_path_json(solve_path(lp.standardize(gen_sine(n=40, seed=0)).expanded()), path)
    return str(csv), str(path)


def test_valid_values_name_typed_options():
    assert {key[:2] for key in VALID_VALUES} <= set(_typed_options())


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "0"])
@pytest.mark.parametrize("command, flag", _typed_options())
def test_typed_option_walk(command, flag, value, walk_files, tmp_path, capsys):
    """Each typed option, on a run that reads it, exits 0 for a listed valid
    value and 2 for any other: never 1 (a traceback), 3, 4 or 5."""
    csv, path = walk_files
    base = {
        "solve": ["--input", csv],
        "stagewise": ["--input", csv, "--algorithm", "integrate", "--max-iter", "100"],
        "check-monotone": ["--input", csv],
        "simulate": ["--kind", "block", "--n", "20", "--p", "40", "--out", str(tmp_path / "d.csv")],
        "diagnose": ["--rss", "--input", csv, "--path", path],
        "certify": ["--input", csv, "--path", path],
    }[command]
    if flag == "--noise-scale":  # read by the sine generator only
        base = ["--kind", "sine", "--n", "20", "--out", str(tmp_path / "d.csv")]
    try:
        code = main([command, *base, f"{flag}={value}"])
    except SystemExit as exc:  # the parser refuses a non-integer for an int option
        code = exc.code
    capsys.readouterr()
    assert code == (0 if (command, flag, value) in VALID_VALUES else 2)


def test_import_loads_no_scipy():
    src = str(Path(lp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, l1paths, l1paths.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"
