import contextlib
import io
import json
import os
import re
import runpy
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixpairs import bvp, cli, operators, problems, solver
from fixpairs import space as space_mod
from fixpairs.cli import main
from fixpairs.operators import _BATCH_CELLS, PotentialOperatorSpec
from fixpairs.problems import (
    _MAX_HELD_CELLS,
    _SCHEMA,
    ConfigError,
    HypothesisParams,
    ProblemSetup,
    _budget,
    load_problem,
    parse_config,
)
from fixpairs.solver import SolverConfig
from fixpairs.space import Grid, SpaceConfig, gauss_rule, moments, profiles

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run(*args):
    return main(list(args))


def test_check_example_bvp_fails_by_design(tmp_path):
    out = tmp_path / "check.json"
    code = run("check", "--problem", str(PROBLEMS / "sublinear_affine.cfg"), "--output", str(out))
    assert code == 1
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == 1
    assert payload["all_pass"] is False
    by_name = {r["name"]: r for r in payload["reports"]}
    assert by_name["(D3)"]["verdict"] == "fail"
    assert by_name["(D1)"]["verdict"] == "sampled-pass"
    assert by_name["(D4)"]["verdict"] == "pass"
    assert by_name["(H)"]["note"].startswith("sampled growth envelope")


def test_check_cubic_passes(tmp_path):
    out = tmp_path / "check.json"
    code = run("check", "--problem", str(PROBLEMS / "cubic2d.cfg"), "--output", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["all_pass"] is True


def test_check_linear2d_margins_pass(tmp_path):
    out = tmp_path / "check.json"
    code = run("check", "--problem", str(PROBLEMS / "linear2d.cfg"), "--output", str(out))
    assert code == 0


def test_solve_power_law(tmp_path):
    out = tmp_path / "solve.json"
    code = run("solve", "--problem", str(PROBLEMS / "power_law_1d.cfg"), "--output", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["n_pairs"] == 1
    coeffs = payload["report"]["pairs"][0]["coeffs"]
    assert coeffs[0] == pytest.approx(4.0, abs=1e-8)


def test_solve_cubic_meets_two_pairs(tmp_path):
    out = tmp_path / "solve.json"
    code = run("solve", "--problem", str(PROBLEMS / "cubic2d.cfg"), "--output", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["expected_pairs"] == 2
    assert payload["report"]["n_pairs"] >= 2


def test_solve_zero_bvp_finds_nothing(tmp_path):
    out = tmp_path / "solve.json"
    code = run("solve", "--problem", str(PROBLEMS / "bvp_zero.cfg"), "--output", str(out))
    assert code == 1
    payload = json.loads(out.read_text())
    assert payload["report"]["n_pairs"] == 0
    assert payload["report"]["rejected_trivial"] > 0


def test_solve_linear2d_blowup_exit(tmp_path):
    out = tmp_path / "solve.json"
    code = run("solve", "--problem", str(PROBLEMS / "linear2d.cfg"), "--output", str(out))
    assert code == 3


def test_missing_problem_file():
    assert run("check", "--problem", "no/such/file.cfg") == 2


def test_unknown_key_rejected(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[problem]\nkind = power_law\nbogus = 1\n")
    assert run("check", "--problem", str(bad)) == 2


def test_unknown_section_rejected(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[problem]\nkind = power_law\n[extra]\nx = 1\n")
    assert run("check", "--problem", str(bad)) == 2


def test_override_expected_pairs(tmp_path):
    out = tmp_path / "solve.json"
    code = run(
        "solve",
        "--problem",
        str(PROBLEMS / "power_law_1d.cfg"),
        "--output",
        str(out),
        "--set",
        "problem.expected_pairs=2",
    )
    assert code == 1  # only one pair exists


BAD_OVERRIDES = [
    ("cubic2d", "problem.radius=nan"),
    ("cubic2d", "problem.radius=inf"),
    ("cubic2d", "hypotheses.n_s=3"),
    ("cubic2d", "hypotheses.n_angle=3"),
    ("cubic2d", "hypotheses.growth_radii=0.5,nan"),
    ("cubic2d", "solver.grad_tol=nan"),
    ("cubic2d", "problem.seed_scale=1"),
    # cubic2d and linear2d act on two modes: any other n_modes was replaced
    # by 2 without a word
    ("cubic2d", "space.n_modes=7"),
    ("linear2d", "space.n_modes=100000"),
    # the 100 oddness rows of 10^6 modes exceed the cell cap, and so do
    # those of one transform row of 3.2 and of 1.6 million cells; quad_nodes
    # above 1,024
    ("power_law_1d", "space.n_modes=1000000"),
    ("bvp_sqrt", "space.n_panels=200000"),
    ("bvp_sqrt", "space.n_panels=100000"),
    ("bvp_zero", "space.quad_nodes=20000"),
    # counts and radii that ended in a traceback or were accepted silently
    ("cubic2d", "problem.n_circle_seeds=0"),
    ("bvp_sqrt", "problem.r1=1.5"),
    # (D1)'s samples r1 * logspace(-8, 0) below the normal floats: the
    # margin printed as NaN with a RuntimeWarning
    ("sublinear_affine", "problem.r1=1e-320"),
    ("bvp_sqrt", "problem.r1=1e-320"),
    ("power_law_1d", "hypotheses.dirs_per_radius=0"),
    ("power_law_1d", "hypotheses.eigen_n=1"),
    ("power_law_1d", "problem.expected_pairs=-1"),
    # a removed key
    ("bvp_zero", "hypotheses.mode_budget=-1"),
    ("bvp_zero", "hypotheses.mode_budget=0"),
    # seeds whose descents exceed the solve's cell cap
    ("sublinear_affine", "problem.n_circle_seeds=10000000"),
    ("cubic2d", "problem.n_circle_seeds=10000000"),
    # an (H2) s-grid above 2**20 points, (H2)' angles and (H) rows above the
    # checker cell cap, and eigen_n above 10^6
    ("bvp_sqrt", "hypotheses.n_s=1048577"),
    ("cubic2d", "hypotheses.n_angle=1000000000"),
    ("cubic2d", "hypotheses.dirs_per_radius=100000000"),
    ("power_law_1d", "hypotheses.eigen_n=1000000000"),
    # 6 radii x 20,000 (H) rows of 4,096 transform cells
    ("bvp_sqrt", "hypotheses.dirs_per_radius=20000"),
    # checker work above the cell cap: 10^8 (H2)' angles fit in memory but would run for hours
    ("cubic2d", "hypotheses.n_angle=100000000"),
    # keys retired because no problem set them: any value is now an unknown key
    ("cubic2d", "solver.armijo_c=0.5"),
    ("cubic2d", "solver.armijo_shrink=0.5"),
    ("cubic2d", "solver.init_step=1"),
    ("cubic2d", "solver.trivial_threshold=0.001"),
    ("bvp_sqrt", "hypotheses.d1_nt=0"),
    ("bvp_sqrt", "hypotheses.d1_nu=0"),
    ("bvp_sqrt", "hypotheses.d1_nt=100000000"),
    ("bvp_sqrt", "hypotheses.d1_nu=100000000"),
    # found by the CLI fuzz: a negative run seed ended in a traceback in the
    # (H) sample, and a deflation radius whose square overflows gave the
    # retry infinite bumps
    ("bvp_zero", "solver.seed=-1"),
    ("cubic2d", "solver.deflation_radius=1e300"),
    # eigen_n above 10^6, where roundoff pushes the finite-difference error
    # past 1e-4 (10^8 runs for minutes)
    ("power_law_1d", "hypotheses.eigen_n=100000000"),
    ("power_law_1d", "hypotheses.eigen_n=1000001"),
    # more than 256 growth radii: the (H) fit tries every pair of them, and
    # 3,000 radii ran for 51 s
    ("power_law_1d", "hypotheses.growth_radii=" + ",".join(map(str, range(1, 258)))),
]
# shortened for the 257 radii
_BAD_IDS = [(o if p == "cubic2d" else f"{p}:{o}")[:80] for p, o in BAD_OVERRIDES]


@pytest.mark.parametrize(
    "problem,override",
    BAD_OVERRIDES,
    ids=_BAD_IDS,
)
def test_invalid_numeric_override_is_config_error(problem, override, capsys):
    code = run("check", "--problem", str(PROBLEMS / f"{problem}.cfg"), "--set", override)
    err = capsys.readouterr().err
    assert code == 2
    assert "config error" in err
    assert "Traceback" not in err


def test_schema_matches_the_config_dataclasses():
    # a config key must set a field and a field must have a key; the
    # [solver] seed is the run seed of the problem, not a solver field
    assert set(_SCHEMA["solver"]) - {"seed"} == {f.name for f in fields(SolverConfig)}
    assert set(_SCHEMA["hypotheses"]) == {f.name for f in fields(HypothesisParams)}


# overrides whose checks overflow: each ended in a traceback or printed
# -Infinity into the JSON, and must exit 3 like a blow-up in the descent;
# the overflow is expected, so it must not surface as a RuntimeWarning either
NON_FINITE_OVERRIDES = [
    ("power_law_1d", "problem.radius=1e300"),  # (H2): r1**2
    ("linear2d", "hypotheses.growth_radii=1e308"),  # (H): A(u) itself
    ("cubic2d", "problem.radius=1e300"),  # (H2)': (B u, u)
    ("cubic2d", "problem.b2_scale=1e300"),  # (H1)': the discriminant
]


@pytest.mark.parametrize(
    "problem,override", NON_FINITE_OVERRIDES, ids=[f"{p}:{o}" for p, o in NON_FINITE_OVERRIDES]
)
def test_non_finite_check_is_blowup(problem, override, capsys):
    code = run("check", "--problem", str(PROBLEMS / f"{problem}.cfg"), "--set", override)
    captured = capsys.readouterr()
    assert code == 3
    assert "operator blow-up" in captured.err
    assert "Traceback" not in captured.err
    assert "Infinity" not in captured.out and "NaN" not in captured.out


# overrides whose operator is finite but huge: (D4) squared m and M as Python
# floats and ended in an OverflowError, and the (H) norm overflowed in the
# squares of finite entries and was reported as a blow-up.  check ends in a
# verdict with finite margins; report then stops in the descent, whose
# energy is not representable, and exits 3 there
FINITE_HUGE_OVERRIDES = [
    ("bvp_sqrt", ("problem.amplitude=2e154",)),
    ("bvp_sqrt", ("problem.amplitude=5e154",)),
    ("bvp_zero", ("problem.family=power", "problem.amplitude=2e154")),
    ("sublinear_affine", ("problem.family=linear", "problem.lam=3e154")),
    ("bvp_zero", ("problem.family=power", "problem.amplitude=1e200")),
    ("power_law_1d", ("problem.amplitude=1e300",)),
    ("linear2d", ("problem.a_scale=-1e300",)),
]


@pytest.mark.parametrize(
    "problem,overrides", FINITE_HUGE_OVERRIDES, ids=[f"{p}:{','.join(o)}" for p, o in FINITE_HUGE_OVERRIDES]
)
def test_finite_huge_operator_checks_to_a_verdict(problem, overrides, capsys):
    sets = [arg for o in overrides for arg in ("--set", o)]
    code = run("check", "--problem", str(PROBLEMS / f"{problem}.cfg"), *sets)
    captured = capsys.readouterr()
    assert code in (0, 1), captured.err
    assert "Traceback" not in captured.err and "Warning" not in captured.err
    payload = json.loads(captured.out, parse_constant=lambda c: pytest.fail(f"{c} in the report"))
    assert all(np.isfinite(r["margin"]) for r in payload["reports"])

    code = run("report", "--problem", str(PROBLEMS / f"{problem}.cfg"), *sets)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("operator blow-up") and "||A(u)||" not in captured.err
    assert "Traceback" not in captured.err and "Warning" not in captured.err


@pytest.mark.parametrize(
    "problem,override", [("bvp_zero", "problem.radius=1e300"), ("power_law_1d", "problem.amplitude=1e300")]
)
def test_non_finite_solve_is_blowup(problem, override, capsys):
    # the seed norm and the first gradient norm overflow; the descent reports
    # that as a blow-up, without a numpy warning
    code = run("solve", "--problem", str(PROBLEMS / f"{problem}.cfg"), "--set", override)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("operator blow-up") and "Warning" not in captured.err


# overrides whose load-time samples overflow: the oddness rows of a
# coefficient operator, and a bvp nonlinearity's f on the degree sample.
# Each is a config error that names the non-finite value, without a numpy
# warning
NON_FINITE_LOADS = [
    ("check", "linear2d", "problem.a_scale=1e308"),
    ("solve", "power_law_1d", "problem.amplitude=1e308"),
    ("check", "bvp_sqrt", "problem.amplitude=1e308"),
]


@pytest.mark.parametrize(
    "command,problem,override", NON_FINITE_LOADS, ids=[f"{c}:{p}:{o}" for c, p, o in NON_FINITE_LOADS]
)
def test_non_finite_load_sample_is_config_error(command, problem, override, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(command, "--problem", str(PROBLEMS / f"{problem}.cfg"), "--set", override)
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("config error:") == 1 and "non-finite" in err
    assert "Warning" not in err and caught == []


def test_two_mode_kinds_default_to_two_modes(tmp_path):
    # an omitted n_modes is 2 for cubic2d and linear2d, and 2 is accepted
    # as written; any other value is a config error (BAD_OVERRIDES)
    for problem in ("cubic2d", "linear2d"):
        text = (PROBLEMS / f"{problem}.cfg").read_text()
        assert "n_modes = 2\n" in text
        path = tmp_path / f"{problem}.cfg"
        path.write_text(text.replace("n_modes = 2\n", ""))
        assert load_problem(path).space.n_modes == 2
        assert load_problem(path, overrides=["space.n_modes=2"]).space.n_modes == 2


@pytest.mark.parametrize("command", ["check", "gradcheck", "eigen"])
def test_csv_format_without_profiles_is_a_config_error(command, tmp_path, monkeypatch, capsys):
    # only solve and report write CSV; the other commands ignored the flag
    monkeypatch.chdir(tmp_path)
    assert run(command, "--problem", str(PROBLEMS / "power_law_1d.cfg"), "--format", "csv") == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"config error: --format csv is for solve and report; {command} writes no profiles\n"
    assert list(tmp_path.iterdir()) == []


def test_size_guard_applies_to_the_built_space():
    # the 1280-mode bvp_sqrt loads, its solve counted as 2 x 800 steps of
    # 16,384 cells, and so do 20,000 modes on 65,536 nodes, a transform row
    # of 160,008 cells, whose solve is the largest a shipped test admits
    highres = load_problem(PROBLEMS / "bvp_sqrt.cfg", overrides=_HIGHRES)
    assert _config_cells(highres)["solve"] == 2 * 800 * 16384
    wide = ["space.n_modes=20000", "space.n_panels=8192", "hypotheses.n_s=10"]
    setup = load_problem(PROBLEMS / "bvp_sqrt.cfg", overrides=wide)
    assert setup.operator.row_width == 160008
    assert _config_cells(setup)["solve"] == 256_012_800
    # the comparison block's moments (5 bins) peak below 80 bytes a grid
    # node, the size of 10 (H2) rows
    for cfg in (SpaceConfig(1280, 8, 1024), SpaceConfig(100, 8, 1000)):
        nodes, _ = gauss_rule(cfg.quad_nodes, cfg.n_panels)
        gauss_rule(cfg.quad_nodes)  # cached on first use
        tracemalloc.start()
        try:
            bvp.b_matrix(lambda t: 1.0 + t, cfg, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 80 * nodes.size


def _cells(kind, space, mode="one_pair", n_seeds=1, max_iter=1, forms=False, **hyp):
    return _budget(kind, mode, space, HypothesisParams(**hyp), n_seeds, max_iter, forms)


def _config_cells(setup, **hyp):
    """_budget's count for the config a setup was loaded from, with hyp's
    keys changed."""
    forms = setup.nonlinearity is not None and setup.nonlinearity.has_forms
    hyp_params = replace(setup.hyp, **hyp)
    return _budget(setup.kind, setup.mode, setup.space, hyp_params, len(setup.seeds), setup.solver.max_iter, forms)


def test_size_guard_bounds_one_row_and_the_seeds():
    # the 100 oddness rows bound one row at 167,772 cells: n_modes, or a bvp
    # row's space.row_cells, its coefficients on a table grid (here of two
    # nodes) and 8 x 2 n_panels transform cells on a table-free grid
    _cells("power_law", SpaceConfig(n_modes=167772), n_s=10)
    with pytest.raises(ConfigError, match="^problem too large: oddness would evaluate 16,777,300 cells"):
        _cells("power_law", SpaceConfig(n_modes=167773), n_s=10)
    _cells("bvp", SpaceConfig(n_modes=167772, quad_nodes=2, n_panels=1), forms=True)
    with pytest.raises(ConfigError, match="oddness would evaluate 16,777,300 cells"):
        _cells("bvp", SpaceConfig(n_modes=167773, quad_nodes=2, n_panels=1), forms=True)
    _cells("bvp", SpaceConfig(n_modes=32, quad_nodes=8, n_panels=10485), forms=True)
    with pytest.raises(ConfigError, match="oddness would evaluate 16,777,600 cells"):
        _cells("bvp", SpaceConfig(n_modes=32, quad_nodes=8, n_panels=10486), forms=True)
    _cells("bvp", SpaceConfig(n_modes=1, quad_nodes=1024, n_panels=1))
    with pytest.raises(ConfigError, match="quad_nodes = 1,025, above 1,024"):
        _cells("bvp", SpaceConfig(n_modes=1, quad_nodes=1025, n_panels=1))
    # the seeds hold at most 2**20 cells
    seeds = {"mode": "two_pair", "n_angle": 10, "n_s": 10}
    _cells("power_law", SpaceConfig(n_modes=1024), n_seeds=1024, **seeds)
    with pytest.raises(ConfigError, match="1,025 seeds of 1,024 coefficients"):
        _cells("power_law", SpaceConfig(n_modes=1024), n_seeds=1025, **seeds)
    # the solve: 2 n_seeds max_iter max(row, 1,000) cells, at most 2**28
    _cells("cubic2d", SpaceConfig(n_modes=2), n_seeds=134217, **seeds)
    with pytest.raises(ConfigError, match="solve would evaluate 268,436,000 cells"):
        _cells("cubic2d", SpaceConfig(n_modes=2), n_seeds=134218, **seeds)
    _cells("bvp", SpaceConfig(n_modes=1280, quad_nodes=8, n_panels=1024), max_iter=8192, forms=True)
    with pytest.raises(ConfigError, match="solve would evaluate 268,468,224 cells"):
        _cells("bvp", SpaceConfig(n_modes=1280, quad_nodes=8, n_panels=1024), max_iter=8193, forms=True)
    HypothesisParams(n_s=_MAX_HELD_CELLS)
    with pytest.raises(ValueError, match="n_s = 1,048,577 is above 1,048,576"):
        HypothesisParams(n_s=_MAX_HELD_CELLS + 1)
    HypothesisParams(eigen_n=10**6)
    with pytest.raises(ValueError, match="eigen_n must lie in"):
        HypothesisParams(eigen_n=10**6 + 1)
    HypothesisParams(growth_radii=tuple(range(1, 257)))
    with pytest.raises(ValueError, match="growth_radii holds 257 radii, above 256"):
        HypothesisParams(growth_radii=tuple(range(1, 258)))


# configs over the budget: a load built their operator, or their seeds,
# before it rejected or admitted them, 3.6-5.4 s as a subprocess
_OVER_BUDGET = [
    ("power_law_1d", ["space.n_modes=1000000"], "oddness"),
    (
        "power_law_1d",
        ["space.n_modes=1048576", "hypotheses.growth_radii=1", "hypotheses.dirs_per_radius=1", "hypotheses.n_s=10"],
        "oddness",
    ),
    ("cubic2d", ["problem.n_circle_seeds=524288"], "solve"),
]


@pytest.mark.parametrize(
    "problem, overrides, phase", _OVER_BUDGET, ids=[":".join([p, *o]) for p, o, _ in _OVER_BUDGET]
)
def test_an_over_budget_load_builds_nothing(monkeypatch, problem, overrides, phase):
    def refuse(*args, **kwargs):
        raise AssertionError("built before the budget was counted")

    built = (space_mod.Grid, operators._check_oddness, solver.circle_seeds)
    for module in (space_mod, operators, bvp, solver, problems):
        for name, value in vars(module).copy().items():
            if any(value is b for b in built):
                monkeypatch.setattr(module, name, refuse)
    with pytest.raises(ConfigError, match=f"^problem too large: {re.escape(phase)} would evaluate"):
        load_problem(PROBLEMS / f"{problem}.cfg", overrides=overrides)


def test_a_transform_row_holds_at_most_40_bytes_a_cell():
    # a one-row synthesis and analysis through the phases peak below 64
    # bytes a phase cell plus 64 a grid node; a batch on a table-free grid
    # below 40 bytes a row and cell of quad_nodes x max(n_modes + 1, 2
    # n_panels), so a bvp row there counts those cells in its row_width
    for cfg, rows in (
        (SpaceConfig(4000, 64, 4), 0),
        (SpaceConfig(1280, 8, 1024), 48),
        (SpaceConfig(20000, 8, 64), 10),  # the bins fold
        (SpaceConfig(3000, 5, 801), 10),  # folded bins, an odd node count
    ):
        g = Grid(cfg)
        coeffs = np.ones((1, cfg.n_modes)) / np.arange(1, cfg.n_modes + 1)
        tracemalloc.start()
        try:
            moments(profiles(coeffs, g), g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * cfg.quad_nodes * (cfg.n_modes + 1 + cfg.n_panels)
        if rows:
            assert bvp.bvp_operator(bvp.zero_nonlinearity(), cfg).row_width == space_mod.row_cells(cfg)
            batch = np.repeat(coeffs, rows, axis=0)
            values = profiles(batch, g)
            for product, x in ((profiles, batch), (moments, values)):
                tracemalloc.start()
                try:
                    product(x, g)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak <= rows * 40 * space_mod.row_cells(cfg)


_PEAK_LOADS = [
    ("bvp_sqrt", []),  # 320 modes on 2,048 nodes: table-free (a 5 MiB table)
    ("bvp_sqrt", ["space.n_modes=1280", "space.n_panels=1024"]),  # table-free
    ("bvp_sqrt", ["space.n_modes=960", "space.n_panels=768"]),  # table-free
    ("sublinear_affine", []),
    ("power_law_1d", ["space.n_modes=20000"]),
    # the batches below take several chunks.  The 100 oddness rows and the
    # 96 (H) rows of 10^5 modes, one row a chunk: the load peaked at 401
    # MB and `check` at 232 MB when each was one batch
    ("power_law_1d", ["space.n_modes=100000", "hypotheses.n_s=10"]),
    # 192 (H) rows of 16,384 transform cells, chunks of 4 rows (76 MB at once)
    ("bvp_sqrt", ["space.n_modes=1280", "space.n_panels=1024", "hypotheses.dirs_per_radius=32"]),
    # 409 (H2)' angles of 4,096 modes and 10 points, 40,960 cells an angle
    # (the cell cap admits 409): one ray a block, its s-grid in parts of 4,
    # 4 and 2 points
    ("power_law_1d", ["problem.mode=two_pair", "space.n_modes=4096", "hypotheses.n_angle=409", "hypotheses.n_s=10"]),
    # the largest s-grid, 2**20 (H2) points of a one-mode row: their forms
    # take 64 chunks, and (H2) keeps one value of each per point
    ("power_law_1d", ["hypotheses.n_s=1048576"]),
]


@pytest.mark.parametrize(
    "problem, overrides", _PEAK_LOADS, ids=[":".join([p, *o]) for p, o in _PEAK_LOADS]
)
def test_a_load_and_check_peak_within_the_batch_bound(problem, overrides):
    # every checker batch is taken in chunks of at most _BATCH_CELLS cells
    # of row_width or one row, so a cold load and `check` hold at most six
    # times 8 _BATCH_CELLS bytes, plus one row, 64 bytes a cell of its
    # space.row_cells (its coefficients, or a bvp row's grid profile or
    # panel transform), the grid, and what (H2) keeps a point of its
    # s-grid: s, the form, the bound and the gap (33 bytes a point measured
    # at 2**20 points).  The closest case is power_law's two-pair (H2)' at
    # 4,096 modes: 6.16 times 8 _BATCH_CELLS measured, 95 % of its bound
    path = PROBLEMS / f"{problem}.cfg"
    load_problem(path, overrides=overrides)  # fills gauss_rule's cache
    tracemalloc.start()
    try:
        setup = load_problem(path, overrides=overrides)
        cli.run_check(setup)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    cells, held = setup.space.n_modes, 0
    if setup.kind == "bvp":
        cells = space_mod.row_cells(setup.space)
        g = Grid(setup.space)
        held = g.nodes.nbytes + g.weights.nbytes + g.phases.nbytes
        if not space_mod._table_free(setup.space):
            held += g.table.nbytes  # built and held by the operator
    points = setup.hyp.n_s if setup.mode == "one_pair" else 0
    assert peak <= 6 * 8 * _BATCH_CELLS + 64 * cells + held + 40 * points


def test_checker_row_cap_boundary(capsys):
    # (H2)' at the cell cap on both ray routes.  A cubic2d ray applies the
    # operator to its 256 points, 512 cells; a sublinear_affine ray holds its
    # 256 grid nodes and 64 forms (forms_batch), 320 cells
    for problem, n_angle, ray in (("cubic2d", 32768, 512), ("sublinear_affine", 52428, 320)):
        path = PROBLEMS / f"{problem}.cfg"
        load_problem(path, overrides=[f"hypotheses.n_angle={n_angle}"])
        over = f"hypotheses.n_angle={n_angle + 1}"
        with pytest.raises(ConfigError, match=f"\\(H2\\)' would evaluate {(n_angle + 1) * ray:,} cells"):
            load_problem(path, overrides=[over])
        assert run("check", "--problem", str(path), "--set", over) == 2
        err = capsys.readouterr().err
        assert err.count("config error:") == 1 and "Traceback" not in err
    # an angle of 10 points counts 20 cells
    load_problem(PROBLEMS / "cubic2d.cfg", overrides=["hypotheses.n_angle=838860", "hypotheses.n_s=10"])
    with pytest.raises(ConfigError, match="cell limit"):
        load_problem(PROBLEMS / "cubic2d.cfg", overrides=["hypotheses.n_angle=838861", "hypotheses.n_s=10"])


@pytest.mark.parametrize("problem", sorted(p.stem for p in PROBLEMS.glob("*.cfg")))
def test_shipped_problems_keep_64x_checker_headroom(problem):
    setup = load_problem(PROBLEMS / f"{problem}.cfg")
    for key in ("n_angle", "n_s", "dirs_per_radius"):
        _config_cells(setup, **{key: 64 * getattr(setup.hyp, key)})  # ConfigError past a cap


_HIGHRES = ["space.n_modes=1280", "space.n_panels=1024"]  # the benchmark's bvp_sqrt grid


@pytest.mark.parametrize(
    "problem, overrides",
    [(p.stem, []) for p in sorted(PROBLEMS.glob("*.cfg"))] + [("bvp_sqrt", _HIGHRES)],
    ids=[p.stem for p in sorted(PROBLEMS.glob("*.cfg"))] + ["bvp_highres"],
)
def test_checker_cells_are_the_cells_check_evaluates(monkeypatch, problem, overrides):
    # the config's count is what the load and `check` then evaluate.  The
    # oddness check draws 100 rows of row_width cells; a bvp operator's hook
    # stands in for them and takes f at fewer values (f at m and -m), so a
    # copy without the hook draws the rows
    drawn, f_values = [], []
    samples = operators._oddness_samples

    def counted_samples(n_modes, row_width):
        for u in samples(n_modes, row_width):
            drawn.append(len(u) * row_width)
            yield u

    monkeypatch.setattr(operators, "_oddness_samples", counted_samples)
    setup = load_problem(PROBLEMS / f"{problem}.cfg", overrides=overrides)
    cells = _config_cells(setup)
    if setup.kind == "bvp":
        assert drawn == []
        nl, f = setup.nonlinearity, setup.nonlinearity.f
        object.__setattr__(nl, "f", lambda t, u: f_values.append(np.broadcast(t, u).size) or f(t, u))
        try:
            assert setup.operator.apply_batch.odd_at()
        finally:
            object.__setattr__(nl, "f", f)
        assert 0 < sum(f_values) <= 2 * cells["oddness"]
        replace(setup.operator, apply_batch=setup.operator.apply_many)
    assert sum(drawn) == cells["oddness"]
    # (H) applies the operator to rows of row_width cells, and (H2) or (H2)'
    # takes ray_forms of rays of ray_cells(n_s) cells, whose own applies
    # are its cells, not (H)'s
    ray_name = "(H2)" if setup.mode == "one_pair" else "(H2)'"
    counted = {"(H)": 0, ray_name: 0}
    in_rays = []
    apply_many, ray_forms = PotentialOperatorSpec.apply_many, PotentialOperatorSpec.ray_forms

    def counted_apply(self, stacked):
        if not in_rays:
            counted["(H)"] += len(stacked) * self.row_width
        return apply_many(self, stacked)

    def counted_forms(self, rays, s):
        counted[ray_name] += len(rays) * self.ray_cells(s.size)
        in_rays.append(True)
        try:
            return ray_forms(self, rays, s)
        finally:
            in_rays.pop()

    monkeypatch.setattr(PotentialOperatorSpec, "apply_many", counted_apply)
    monkeypatch.setattr(PotentialOperatorSpec, "ray_forms", counted_forms)
    cli.run_check(setup)
    assert counted == {name: cells[name] for name in counted}


_KEYS = [f"{section}.{key}" for section, keys in _SCHEMA.items() for key in keys]
_EDGE_VALUES = ["0", "-1", "nan", "inf", "1e300", "1000000000", "abc", "", "1e-320", "5e-324", "1e-300", "-0"]


@settings(max_examples=60)
@given(
    problem=st.sampled_from(sorted(p.stem for p in PROBLEMS.glob("*.cfg"))),
    overrides=st.lists(
        st.tuples(st.sampled_from(_KEYS), st.sampled_from(_EDGE_VALUES)), min_size=1, max_size=3
    ),
)
def test_load_problem_fuzz_is_setup_or_config_error(problem, overrides):
    try:
        setup = load_problem(PROBLEMS / f"{problem}.cfg", overrides=[f"{k}={v}" for k, v in overrides])
    except ConfigError:
        return
    assert isinstance(setup, ProblemSetup)


# the problems small enough to solve in a fuzz example; values that are
# neither edge cases nor rejected outright, and 257 growth radii, one above
# their bound
_FUZZ_PROBLEMS = ["bvp_zero", "cubic2d", "linear2d", "power_law_1d", "sublinear_affine"]
_FUZZ_VALUES = [*_EDGE_VALUES, "0.25", "0.5", "1", "2", "16", "64", ",".join(map(str, range(1, 258)))]


@settings(max_examples=80)
@given(
    command=st.sampled_from(["check", "solve", "report", "eigen", "gradcheck"]),
    problem=st.sampled_from(_FUZZ_PROBLEMS),
    overrides=st.lists(
        st.tuples(st.sampled_from(_KEYS), st.sampled_from(_FUZZ_VALUES)), max_size=3
    ),
)
def test_cli_fuzz_exits_with_a_code(command, problem, overrides):
    # an exception escaping main fails the example by itself
    argv = [command, "--problem", str(PROBLEMS / f"{problem}.cfg")]
    for key, value in overrides:
        argv += ["--set", f"{key}={value}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code in (0, 1):
        _strict_json(out.getvalue())


def _strict_json(text):
    """json.loads, failing on the NaN and Infinity constants it accepts by default."""

    def reject(constant):
        raise ValueError(f"{constant} is not strict JSON")

    return json.loads(text, parse_constant=reject)


def test_an_output_that_cannot_be_written_exits_2(tmp_path, capsys):
    # a missing directory ended in a FileNotFoundError traceback with exit 1
    missing = tmp_path / "missing" / "solve.json"
    assert run("solve", "--problem", str(PROBLEMS / "power_law_1d.cfg"), "--output", str(missing)) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot write output:") and err.count("\n") == 1


def test_an_os_error_while_computing_is_not_an_output_error(monkeypatch):
    # only the writes turn an OSError into exit 2
    def failing(setup):
        raise OSError("not a write")

    monkeypatch.setattr(cli, "run_check", failing)
    with pytest.raises(OSError, match="not a write"):
        run("check", "--problem", str(PROBLEMS / "power_law_1d.cfg"))


def test_bvp_row_cap_weights_rows_by_grid():
    # a bvp row counts the cells of its grid, and a forms ray those and its
    # n_s forms, so sublinear_affine's 65,536 angles of 64 points, 320 cells
    # each, the grid that sat at the unweighted row cap and ran for 17.7 s,
    # exit 2
    path = PROBLEMS / "sublinear_affine.cfg"
    code = run("check", "--problem", str(path), "--set", "hypotheses.n_angle=65536", "--set", "hypotheses.n_s=64")
    assert code == 2
    # the benchmark's 1280-mode bvp_sqrt grid (8,192 nodes, table-free: 16,384
    # transform cells a row) stays admitted.  So is its n_s = 4,097, which the
    # row cap rejected: (H2) is one forms ray, 16,384 cells and 4,097 forms
    bvp_sqrt = PROBLEMS / "bvp_sqrt.cfg"
    load_problem(bvp_sqrt, overrides=_HIGHRES)
    setup = load_problem(bvp_sqrt, overrides=[*_HIGHRES, "hypotheses.n_s=4097"])
    assert _config_cells(setup)["(H2)"] == 16384 + 4097
    # its (H) rows are what the cap bounds: 6 radii x 170 directions fit
    load_problem(bvp_sqrt, overrides=[*_HIGHRES, "hypotheses.dirs_per_radius=170"])
    with pytest.raises(ConfigError, match="\\(H\\) would evaluate 16,809,984 cells"):
        load_problem(bvp_sqrt, overrides=[*_HIGHRES, "hypotheses.dirs_per_radius=171"])


def test_check_one_mode_bvp_fails_without_traceback(tmp_path, capsys):
    out = tmp_path / "check.json"
    code = run(
        "check",
        "--problem",
        str(PROBLEMS / "bvp_sqrt.cfg"),
        "--set",
        "space.n_modes=1",
        "--output",
        str(out),
    )
    assert code == 1
    assert "Traceback" not in capsys.readouterr().err
    d3 = {r["name"]: r for r in json.loads(out.read_text())["reports"]}["(D3)"]
    assert d3["verdict"] == "fail"
    assert d3["margin"] == -1.0
    assert "one-mode" in d3["note"]


def test_d3_does_not_follow_the_seed(tmp_path):
    entries = []
    for seed in ("0", "5"):
        out = tmp_path / f"check{seed}.json"
        run("check", "--problem", str(PROBLEMS / "bvp_sqrt.cfg"), "--seed", seed, "--output", str(out))
        entries.append({r["name"]: r for r in json.loads(out.read_text())["reports"]}["(D3)"])
    assert entries[0] == entries[1]


def test_bad_override_rejected():
    code = run(
        "check",
        "--problem",
        str(PROBLEMS / "power_law_1d.cfg"),
        "--set",
        "nonsense",
    )
    assert code == 2


def test_gradcheck_example(tmp_path):
    out = tmp_path / "grad.json"
    code = run("gradcheck", "--problem", str(PROBLEMS / "sublinear_affine.cfg"), "--output", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["max_rel_discrepancy"] <= 1e-6


def test_eigen_default_and_coarse(tmp_path):
    out = tmp_path / "eigen.json"
    code = run("eigen", "--problem", str(PROBLEMS / "sublinear_affine.cfg"), "--output", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["spectral"] == pytest.approx(9.8696044010893586)
    code = run(
        "eigen",
        "--problem",
        str(PROBLEMS / "sublinear_affine.cfg"),
        "--output",
        str(out),
        "--set",
        "hypotheses.eigen_n=4",
    )
    assert code == 1


REPORT_EXIT_CODES = {
    "power_law_1d": 0,
    "linear2d": 3,
    "bvp_zero": 1,
    "sublinear_affine": 1,
    "cubic2d": 0,
    "bvp_sqrt": 1,
    "bvp_highres": 1,
}


@pytest.mark.parametrize("problem, code", REPORT_EXIT_CODES.items(), ids=list(REPORT_EXIT_CODES))
def test_reports_byte_stable(problem, code, tmp_path):
    # golden files hold the default-seed output; linear2d blows up in the
    # solve phase, so its report writes nothing and the check output is kept.
    # The arguments are golden_diff.py's, which runs bvp_highres as bvp_sqrt
    # at 1,280 modes on 8,192 nodes
    argv = runpy.run_path(str(SCRIPTS / "golden_diff.py"))["command_argv"]
    out = tmp_path / "out.json"
    assert run(*argv(problem, "report", PROBLEMS), "--output", str(out)) == code
    golden = GOLDEN / f"{problem}.report.json"
    if code == 3:
        assert not out.exists()
        assert run(*argv(problem, "check", PROBLEMS), "--output", str(out)) == 0
        golden = GOLDEN / f"{problem}.check.json"
    assert out.read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("problem", ["bvp_sqrt", "sublinear_affine"])
def test_a_wrapped_apply_batch_keeps_the_check_bytes(problem):
    # a traced copy wraps apply_batch through dataclasses.replace; the
    # operator's forms_batch rides along, and the check prints the same bytes
    setup = load_problem(PROBLEMS / f"{problem}.cfg")
    batch = setup.operator.apply_batch
    wrapped = replace(setup.operator, apply_batch=lambda stacked: batch(stacked))
    assert wrapped.forms_batch is setup.operator.forms_batch is not None
    plain = cli._json_text(cli.run_check(setup))
    assert cli._json_text(cli.run_check(replace(setup, operator=wrapped))) == plain


def test_solve_csv_profiles(tmp_path):
    out = tmp_path / "ex53.json"
    code = run(
        "solve",
        "--problem",
        str(PROBLEMS / "sublinear_affine.cfg"),
        "--output",
        str(out),
        "--format",
        "csv",
    )
    assert code == 0
    profile = tmp_path / "ex53_pair0.csv"
    assert profile.exists()
    lines = profile.read_text().strip().splitlines()
    assert lines[0] == "t,u"
    assert len(lines) == 1002
    # one row per point of the shooting oracle's grid
    ts = [float(line.split(",")[0]) for line in lines[1:]]
    assert ts == list(np.linspace(0.0, 1.0, bvp.ORACLE_GRID_POINTS))
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert abs(float(first[1])) <= 1e-12
    trace = tmp_path / "ex53_trace0.csv"
    assert trace.exists()
    assert trace.read_text().splitlines()[0] == "iter,J,grad_norm"


def test_report_command_bundles_both(tmp_path):
    out = tmp_path / "report.json"
    code = run("report", "--problem", str(PROBLEMS / "power_law_1d.cfg"), "--output", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["check"]["all_pass"] is True
    assert payload["solve"]["meets_expected"] is True


def test_parse_config_seed_override():
    setup = load_problem(PROBLEMS / "power_law_1d.cfg", seed=99)
    assert setup.seed == 99
    raw = parse_config(PROBLEMS / "power_law_1d.cfg", overrides=["solver.seed=7"])
    assert raw["solver"]["seed"] == 7
    with pytest.raises(ConfigError):
        parse_config(PROBLEMS / "power_law_1d.cfg", overrides=["solver.bogus=7"])


def test_console_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "fixpairs", "eigen", "--problem", str(PROBLEMS / "bvp_zero.cfg")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert '"spectral"' in proc.stdout


# run in a fresh process with two BLAS threads: warm runs of the given
# commands on a problem, then another run of each and a 1,001-point evaluate
# of a 1,280-mode vector, printing the threads and the nanoseconds that every
# thread but the main one ran in between (the first field of each thread's
# schedstat).  OpenBLAS keeps its worker spinning for a while after a
# threaded product, so the first sleep lets it settle before the count
# starts and the last one lets a late wake-up show
_WORKER_PROBE = """
import os, sys, time
import numpy as np
from fixpairs.cli import main
from fixpairs.space import H1Vector, evaluate

def others():
    total = 0
    for tid in os.listdir("/proc/self/task"):
        if int(tid) != os.getpid():
            with open(f"/proc/self/task/{tid}/schedstat") as fh:
                total += int(fh.read().split()[0])
    return total

def run():
    for command in sys.argv[3:]:
        main([command, "--problem", sys.argv[1], "--output", sys.argv[2]])

run()
time.sleep(0.5)
try:
    before = others()
except OSError:
    print(0, 0)
    raise SystemExit
run()
evaluate(H1Vector(np.random.default_rng(1).standard_normal(1280)), np.linspace(0.0, 1.0, 1001))
time.sleep(0.05)
print(len(os.listdir("/proc/self/task")), others() - before)
"""


def _assert_the_blas_worker_idles(tmp_path, problem, *commands):
    """Run _WORKER_PROBE on a problem and bound the worker's run time by 5 ms."""
    if os.environ.get("OPENBLAS_NUM_THREADS") == "1":
        pytest.skip("this run asks for one BLAS thread")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _WORKER_PROBE, str(PROBLEMS / f"{problem}.cfg"), str(tmp_path / "out.json"), *commands],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    threads, worker_ns = map(int, proc.stdout.split())
    if threads < 2:
        pytest.skip("no schedstat, or a single thread in the process")
    assert worker_ns < 5_000_000


def test_a_report_leaves_the_blas_worker_idle(tmp_path):
    # every product of a report on a 32-mode grid, and evaluate, stays below
    # OpenBLAS's threading size or off BLAS, so the worker thread sleeps
    _assert_the_blas_worker_idles(tmp_path, "sublinear_affine", "report")


def test_a_bvp_sqrt_check_and_report_leave_the_blas_worker_idle(tmp_path):
    # 320 modes on 2,048 nodes, above the 4 MiB crossover: the (H) batch and
    # the descent take the panel transform (numpy.fft and einsum), so no
    # product reaches BLAS; through a table the 48 (H) rows ran two threads
    # and kept the worker busy for about 135 ms a check
    _assert_the_blas_worker_idles(tmp_path, "bvp_sqrt", "check", "report")


def test_desk_study_script_smoke(tmp_path, monkeypatch, capsys):
    for name in ("power_law_1d", "cubic2d", "bvp_zero"):
        shutil.copy(PROBLEMS / f"{name}.cfg", tmp_path)
    script = runpy.run_path(str(SCRIPTS / "run_desk_study.py"))
    monkeypatch.setattr(sys, "argv", ["run_desk_study.py", "--problems-dir", str(tmp_path)])
    assert script["main"]() == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert [row.split()[:2] for row in rows] == [
        ["bvp_zero", "fail"],
        ["cubic2d", "all"],
        ["power_law_1d", "all"],
    ]
    assert "fail (H1),(D3) " in rows[0]
    # a verdict longer than the header's word keeps the columns in line
    end = header.index("pairs") + len("pairs")
    assert all(row[end - 1].isdigit() and row[end] == " " for row in rows)


@pytest.mark.parametrize(
    "edit, shown, status",
    [
        (None, "power_law_1d: identical", 0),
        ("coeff", "pair 0 coefficients: max |delta| 1.000e-09", 0),
        ("verdict", "VERDICT .solve.meets_expected: False -> True", 1),
    ],
    ids=["unchanged", "coefficient", "verdict"],
)
def test_golden_diff_script_smoke(edit, shown, status, tmp_path, monkeypatch, capsys):
    text = (GOLDEN / "power_law_1d.report.json").read_text()
    if edit is not None:
        doc = json.loads(text)
        if edit == "coeff":
            doc["solve"]["report"]["pairs"][0]["coeffs"][0] += 1e-9
        else:
            doc["solve"]["meets_expected"] = not doc["solve"]["meets_expected"]
        text = json.dumps(doc, indent=2)
    (tmp_path / "power_law_1d.report.json").write_text(text)
    script = runpy.run_path(str(SCRIPTS / "golden_diff.py"))
    monkeypatch.setattr(sys, "argv", ["golden_diff.py", "--golden-dir", str(tmp_path)])
    assert script["main"]() == status
    assert shown in capsys.readouterr().out
