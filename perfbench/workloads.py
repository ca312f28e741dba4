"""The benchmark's four workloads.

A run is a stream of instances drawn from the run's seed. Each cycle
sets up one fresh instance (``setup``, untimed: generate, standardize,
write the CSV input, and the warm-up solves that later operations are
checked against) and then runs the workload's operation mix on it
(``cycle``). Solve costs differ a lot between instances of one design,
so a run covers as many instances as its time allows rather than
repeating a few. ``mix`` gives the number of operations of each kind in
one cycle; the CLI operations, which cost most, run on every few
instances only. Every operation goes through ``Session.op``, which
times it and runs its output check.

The workloads differ in where the time goes, so that an optimisation
of one layer has a workload where that layer does most of the work and
one where it is idle:

* block: p >> n, so the active set stays small and time goes to the
  event scan, failed Cholesky appends and large JSON files (CLI).
* tall: n >> p, so the active set grows to every column; fs0 time is
  NNLS and lar/lasso time is the O(n p) residual refresh. No I/O.
* sine: exact solves take milliseconds; time goes to the epsilon and
  Euler stepping loops, diagnostics, and CLI start-up.
* monotone_search: the signed-subset search, serial and on a process
  pool; the only workload that uses the monotone module.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from math import comb
from pathlib import Path

import numpy as np

import l1paths as lp
import l1paths.io

MODES = ("lar", "lasso", "fs0")


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def require(cond, message: str):
    if not cond:
        raise CheckFailed(message)


# -- output checks -----------------------------------------------------------

def events_of(path):
    return [(e.kind, e.index) for e in path.events]


def check_same_events(path, ref):
    require(path.n_segments == ref.n_segments,
            f"{path.n_segments} segments, warm-up had {ref.n_segments}")
    require(events_of(path) == events_of(ref), "event sequence differs from the warm-up")


def check_kkt(design, path):
    """kkt_certify passes at every vertex, at the vertex's own lambda."""
    ed = design.expanded()
    for k, beta in enumerate(path.vertices):
        r = design.y_centered - ed.predict(beta)
        lam = float(np.max(np.abs(design.correlations(r))))
        require(lp.kkt_certify(ed, beta, lam).passed, f"vertex {k} fails kkt_certify")


def check_monotone_unit_speed(path):
    """Mirrored fs0 coordinates never decrease; L1 arc length equals the parameter.

    The speed check is absolute at the scale of the parameter: a segment
    of length 1e-6 between vertices of norm 50 carries rounding of about
    1e-14 that is large next to the segment but not next to the path.
    """
    require(np.all(np.diff(path.vertices, axis=0) >= 0.0), "a mirrored fs0 coordinate decreases")
    gap = np.abs(path.segment_tv() - np.diff(path.breakpoints))
    require(np.all(gap <= 1e-9 * np.maximum(1.0, path.breakpoints[1:])),
            "fs0 path does not have unit L1 speed")


def check_coincide(paths):
    """lar, lasso and fs0 give the same vertices (step-function bases)."""
    base = paths["lasso"]
    scale = max(1.0, float(np.max(np.abs(base.vertices))))
    for mode in ("lar", "fs0"):
        other = paths[mode]
        require(other.vertices.shape == base.vertices.shape, f"{mode} and lasso differ in length")
        require(np.max(np.abs(other.vertices - base.vertices)) <= 1e-9 * scale,
                f"{mode} and lasso vertices differ")


def solve_checked(sess, design, refs, kind_suffix=""):
    """One in-process solve per mode, each checked; returns the paths.

    A solve's work is its number of path segments.
    """
    ed = design.expanded()
    lasso_monotone = bool(np.all(np.diff(refs["lasso"].vertices, axis=0) >= 0.0))
    paths = {}
    for mode in MODES:
        def check(path, mode=mode):
            check_same_events(path, refs[mode])
            if mode == "lasso":
                check_kkt(design, path)
            if mode == "fs0":
                check_monotone_unit_speed(path)
                # Where the lasso path is monotone it is also the fs0
                # path, so the fs0 vertices must certify too.
                if lasso_monotone:
                    check_kkt(design, path)
        paths[mode] = sess.op(mode + kind_suffix,
                              lambda mode=mode: lp.solve_path(ed, lp.SolverConfig(mode=mode)),
                              check, work=lambda path: path.n_segments)
    return paths


def solve_refs(design):
    ed = design.expanded()
    return {mode: lp.solve_path(ed, lp.SolverConfig(mode=mode)) for mode in MODES}


def cli_reference(csv, mode="lasso"):
    """The in-process solve of the dataset exactly as the CLI reads it.

    A dataset read back from CSV holds the same numbers in a different
    memory layout, and rounding may then decide the label of a tie at the
    end of the path, so the CLI is checked against a solve of that input.
    """
    design = lp.standardize(l1paths.io.read_dataset_csv(csv))
    return lp.solve_path(design.expanded(), lp.SolverConfig(mode=mode))


def cli_solve(sess, csv, mode, out, ref):
    """``l1paths solve`` of a CSV dataset to a JSON path file, checked."""
    def check(result):
        code, stdout = result
        require(code == 0, f"l1paths solve exited {code}")
        lines = dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)
        require(lines.get("segments") == str(ref.n_segments), "CLI segment count differs")
        require(lines.get("events") == ",".join(e.kind for e in ref.events), "CLI events differ")

    argv = ["solve", "--input", str(csv), "--method", mode, "--out", str(out)]
    return sess.op("cli_solve", lambda: sess.cli(argv), check)


def cli_solve_and_read(sess, inst):
    """``l1paths solve`` to JSON, then ``l1paths certify`` of that file."""
    ref = inst.extra["cli_ref"]

    def check_read(out):
        code, stdout = out
        require(code == 0, f"l1paths certify exited {code}")
        doc = json.loads(stdout.strip().splitlines()[-1])
        require(doc["passed"] is True, "certify did not pass")
        require(len(doc["vertices"]) == ref.n_segments + 1, "certify saw a different path")

    if cli_solve(sess, inst.csv, "lasso", inst.json, ref) is not None:
        sess.op("cli_read", lambda: sess.cli(["certify", "--input", str(inst.csv),
                                              "--path", str(inst.json)]), check_read)


@dataclass
class Instance:
    design: object
    refs: dict
    csv: Path | None = None
    json: Path | None = None
    extra: dict = field(default_factory=dict)


# -- workloads ---------------------------------------------------------------

class Block:
    """The paper's block design (n=60, p=1000, rho 0.95): solves and CLI."""

    cli_every = 3
    mix = {"lar": 1, "lasso": 1, "fs0": 1, "cli_solve": 1 / cli_every, "cli_read": 1 / cli_every}

    def __init__(self, tiny: bool, workdir: Path):
        self.n, self.p = (30, 100) if tiny else (60, 1000)
        self.workdir = workdir

    def setup(self, seed: int, tag: str) -> Instance:
        data, _ = lp.gen_block(n=self.n, p=self.p, seed=seed)
        design = lp.standardize(data)
        csv = self.workdir / f"block-{tag}.csv"
        l1paths.io.write_dataset_csv(data, csv)
        return Instance(design, solve_refs(design), csv, self.workdir / f"block-{tag}.json")

    def cycle(self, sess, inst, i):
        solve_checked(sess, inst.design, inst.refs)
        if i % self.cli_every == 0:
            inst.extra["cli_ref"] = cli_reference(inst.csv)
            cli_solve_and_read(sess, inst)


class Tall:
    """A Gaussian design with n >> p (600 x 120, 12 nonzero): solves only."""

    mix = {"lar": 1, "lasso": 1, "fs0": 1}

    def __init__(self, tiny: bool, workdir: Path):
        self.n, self.p, self.k = (100, 20, 5) if tiny else (600, 120, 12)

    def setup(self, seed: int, tag: str) -> Instance:
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((self.n, self.p))
        beta = np.zeros(self.p)
        beta[rng.choice(self.p, self.k, replace=False)] = rng.standard_normal(self.k)
        y = X @ beta + 2.0 * rng.standard_normal(self.n)
        design = lp.standardize(lp.Dataset(X=X, y=y))
        return Instance(design, solve_refs(design))

    def cycle(self, sess, inst, i):
        solve_checked(sess, inst.design, inst.refs)


class Sine:
    """The paper's damped sine (n=300, 10 knots): every path algorithm."""

    epsilon = 1e-3
    euler_step = 0.01
    # Exact solves take milliseconds, so each is repeated within a cycle.
    solve_repeats = 3
    cli_every = 2
    mix = {
        "lar": solve_repeats, "lasso": solve_repeats, "fs0": solve_repeats,
        "lar.step": solve_repeats, "lasso.step": solve_repeats, "fs0.step": solve_repeats,
        "eps_monotone": 1, "eps_fs": 1, "euler": 1, "compare": 1, "rss": 1,
        "cli_solve": 3 / cli_every, "cli_read": 1 / cli_every,
    }

    def __init__(self, tiny: bool, workdir: Path):
        self.n = 60 if tiny else 300
        self.arc_budget = 0.5 if tiny else 5.0
        self.workdir = workdir

    def setup(self, seed: int, tag: str) -> Instance:
        data = lp.gen_sine(n=self.n, seed=seed)
        hinge = lp.standardize(data)
        step = lp.standardize(lp.gen_sine(n=self.n, basis="piecewise-constant", seed=seed))
        binary = lp.Dataset(X=data.X, y=(data.y > np.median(data.y)).astype(float),
                            feature_names=data.feature_names)
        csv = self.workdir / f"sine-{tag}.csv"
        l1paths.io.write_dataset_csv(data, csv)
        inst = Instance(hinge, solve_refs(hinge), csv, self.workdir / f"sine-{tag}.json")
        inst.extra["cli_ref"] = cli_reference(csv)
        inst.extra["cli_ref_fs0"] = cli_reference(csv, "fs0")
        inst.extra["cli_ref_lar"] = cli_reference(csv, "lar")
        inst.extra["step"] = step
        inst.extra["step_refs"] = solve_refs(step)
        inst.extra["binary"] = lp.standardize(binary, center_response=False)
        inst.extra["eps"] = lp.StagewiseConfig(
            epsilon=self.epsilon,
            max_iterations=math.ceil(inst.refs["fs0"].end / self.epsilon),
        )
        # Warm-up: every in-process operation once, kept as the reference.
        inst.extra["ref"] = {
            "steps": self._monotone_eps(inst)[1],
            "euler": self._euler(inst),
            "compare": self._compare(inst),
            "rss": self._rss(inst),
        }
        return inst

    def _monotone_eps(self, inst):
        return lp.monotone_incremental(inst.design.expanded(), inst.extra["eps"], return_steps=True)

    def _fs_eps(self, inst):
        return lp.fs_epsilon(inst.design, inst.extra["eps"], return_steps=True)

    def _euler(self, inst):
        control = lp.StepControl(step=self.euler_step, arc_budget=self.arc_budget, record_stride=1)
        return lp.integrate_monotone_path(inst.extra["binary"].expanded(), lp.logistic_loss(),
                                          control)

    def _compare(self, inst):
        return lp.compare_paths(inst.refs["lasso"], inst.refs["fs0"])

    def _rss(self, inst):
        return (lp.rss_profile(inst.design, inst.refs["lasso"], index_by="norm"),
                lp.rss_profile(inst.design, inst.refs["fs0"], index_by="arclength"))

    def cycle(self, sess, inst, i):
        self._in_process(sess, inst)
        if i % self.cli_every == 0:
            cli_solve_and_read(sess, inst)
            # Two more CLI solves give a run enough samples for a tail.
            for mode in ("fs0", "lar"):
                cli_solve(sess, inst.csv, mode, inst.json.with_suffix(f".{mode}.json"),
                          inst.extra[f"cli_ref_{mode}"])

    def _in_process(self, sess, inst: Instance):
        ref = inst.extra["ref"]
        for _ in range(self.solve_repeats):
            solve_checked(sess, inst.design, inst.refs)
            step_paths = solve_checked(sess, inst.extra["step"], inst.extra["step_refs"], ".step")
            if all(path is not None for path in step_paths.values()):
                sess.check("coincide.step", lambda: check_coincide(step_paths))

        mono = sess.op("eps_monotone", lambda: self._monotone_eps(inst),
                       lambda out: require(np.array_equal(out[1], ref["steps"]),
                                           "monotone_incremental steps differ from the warm-up"))
        if mono is not None:
            sess.count("eps_steps", len(mono[1]))
            fs = sess.op("eps_fs", lambda: self._fs_eps(inst),
                         lambda out: require(np.array_equal(out[1], mono[1]),
                                             "fs_epsilon and monotone_incremental steps differ"))
            if fs is not None:
                sess.count("eps_steps", len(fs[1]))

        def check_euler(path):
            require(path.n_segments == ref["euler"].n_segments, "Euler step count differs")
            binary = inst.extra["binary"]
            eta = lp.collapse(path.vertices) @ binary.Xs.T
            loss = lp.logistic_loss()
            values = np.array([loss.total(binary.y_centered, e) for e in eta])
            require(np.all(np.diff(values) <= 1e-12 * (1.0 + np.abs(values[:-1]))),
                    "Euler loss increased")

        euler = sess.op("euler", lambda: self._euler(inst), check_euler)
        if euler is not None:
            sess.count("euler_steps", euler.n_segments)  # record_stride=1: one vertex per step

        sess.op("compare", lambda: self._compare(inst),
                lambda out: require(out == ref["compare"], "compare_paths result differs"))
        sess.op("rss", lambda: self._rss(inst),
                lambda out: require(all(np.array_equal(a.values, b.values)
                                        for a, b in zip(out, ref["rss"])),
                                    "rss_profile differs"))


class MonotoneSearch:
    """Exhaustive signed-subset search on a 20-knot step basis."""

    responses = 6
    mix = {"lar": responses, "lasso": responses, "fs0": responses,
           "search_serial": 1, "search_pool": 1,
           "hinge_serial": 1, "hinge_pool": 1, "hinge_confirm": 1}

    def __init__(self, tiny: bool, workdir: Path):
        # Subsets up to size 5 (583,568 signed subsets) keep a cycle near
        # two seconds, so that a run searches about ten instances.
        self.n, self.knots, self.max_size = (60, 8, 3) if tiny else (300, 20, 5)
        # Passed explicitly, so L1PATHS_THREADS is never read.
        self.workers = len(os.sched_getaffinity(0))

    def setup(self, seed: int, tag: str) -> Instance:
        rng = np.random.default_rng(seed)
        x = np.linspace(0.0, 1.0, self.n)
        # Knots halfway between distinct grid points give distinct columns.
        idx = np.sort(rng.choice(np.arange(2, self.n - 3), self.knots, replace=False))
        X, names = lp.spline_columns(x, (x[idx] + x[idx + 1]) / 2.0, "piecewise-constant")
        designs = [
            lp.standardize(lp.Dataset(X=X, y=lp.signal(x) + 0.25 * rng.standard_normal(self.n),
                                      feature_names=names))
            for _ in range(self.responses)
        ]
        hinge = lp.standardize(lp.gen_sine(n=self.n, seed=seed))
        inst = Instance(designs[0], solve_refs(designs[0]))
        inst.extra["designs"] = designs
        inst.extra["refs"] = [inst.refs] + [solve_refs(d) for d in designs[1:]]
        inst.extra["hinge"] = hinge
        inst.extra["total"] = sum(comb(self.knots, k) * 2**k for k in range(1, self.max_size + 1))
        # Warm-up: the early-exit hinge search, kept as the reference.
        inst.extra["hinge_ref"] = lp.exhaustive_check(hinge, max_subset_size=self.max_size,
                                                      workers=1)
        return inst

    def cycle(self, sess, inst, i):
        # The condition holds on every step basis, so the three paths
        # coincide for each response.
        for design, refs in zip(inst.extra["designs"], inst.extra["refs"]):
            paths = solve_checked(sess, design, refs)
            if all(path is not None for path in paths.values()):
                sess.check("coincide", lambda paths=paths: check_coincide(paths))

        total = inst.extra["total"]
        for workers, kind in ((1, "search_serial"), (self.workers, "search_pool")):
            rep = sess.op(kind,
                          lambda w=workers: lp.exhaustive_check(
                              inst.design, max_subset_size=self.max_size, workers=w),
                          lambda rep: require(rep.passed and rep.violation is None
                                              and rep.checked == total,
                                              "step-basis search did not pass cleanly"))
            if rep is not None:
                sess.count("subsets." + kind, rep.checked)

        hinge, ref = inst.extra["hinge"], inst.extra["hinge_ref"]

        def same_violation(rep):
            require(not rep.passed and rep.violation == ref.violation
                    and np.array_equal(rep.vector, ref.vector),
                    "hinge search result differs between runs or worker counts")

        for workers, kind in ((1, "hinge_serial"), (self.workers, "hinge_pool")):
            sess.op(kind, lambda w=workers: lp.exhaustive_check(
                hinge, max_subset_size=self.max_size, workers=w), same_violation)

        def confirm(rep):
            require(not rep.passed, "check_condition does not confirm the hinge violation")
            require(np.allclose(rep.vector, ref.vector, rtol=1e-8, atol=1e-12),
                    "check_condition vector differs from the search's")

        sess.op("hinge_confirm", lambda: lp.check_condition(hinge, ref.violation), confirm)


WORKLOADS = {
    "block": Block,
    "tall": Tall,
    "sine": Sine,
    "monotone_search": MonotoneSearch,
}
