import contextlib
import io
import json
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixpairs import bvp
from fixpairs.cli import main
from fixpairs.problems import (
    _SCHEMA,
    ConfigError,
    HypothesisParams,
    ProblemSetup,
    _check_checker_rows,
    _check_table_sizes,
    load_problem,
    parse_config,
)
from fixpairs.solver import SolverConfig
from fixpairs.space import SpaceConfig

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
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
    # dense tables above the 1 GiB guard: comparison matrix, basis, Gauss rule
    ("power_law_1d", "space.n_modes=100000"),
    ("bvp_sqrt", "space.n_panels=200000"),
    # the basis half table of 100,000 panels fits; its (H2) rows exceed the row cap
    ("bvp_sqrt", "space.n_panels=100000"),
    ("bvp_zero", "space.quad_nodes=20000"),
    # counts and radii that ended in a traceback or were accepted silently
    ("cubic2d", "problem.n_circle_seeds=0"),
    ("bvp_sqrt", "problem.r1=1.5"),
    ("power_law_1d", "hypotheses.dirs_per_radius=0"),
    ("power_law_1d", "hypotheses.eigen_n=1"),
    ("power_law_1d", "problem.expected_pairs=-1"),
    # a removed key
    ("bvp_zero", "hypotheses.mode_budget=-1"),
    ("bvp_zero", "hypotheses.mode_budget=0"),
    # seed table above the 1 GiB guard (n_circle_seeds x (n_modes + per-seed overhead))
    ("sublinear_affine", "problem.n_circle_seeds=10000000"),
    ("cubic2d", "problem.n_circle_seeds=10000000"),
    # checker tables above the 1 GiB guard ((H2) rows, (H) rows, eigen_n)
    # or (H2)' angles above the checker row cap
    ("bvp_sqrt", "hypotheses.n_s=1000000"),
    ("cubic2d", "hypotheses.n_angle=1000000000"),
    ("cubic2d", "hypotheses.dirs_per_radius=100000000"),
    ("power_law_1d", "hypotheses.eigen_n=1000000000"),
    # (H) samples every radius in one batch: 6 radii x 20,000 rows x 16 KiB profiles
    ("bvp_sqrt", "hypotheses.dirs_per_radius=20000"),
    # checker work above the row cap: 10^8 (H2)' angles fit in memory but would run for hours
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
]


@pytest.mark.parametrize(
    "problem,override",
    BAD_OVERRIDES,
    ids=[o if p == "cubic2d" else f"{p}:{o}" for p, o in BAD_OVERRIDES],
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
    ("power_law_1d", "problem.amplitude=1e300"),  # (H): ||A(u)||
    ("linear2d", "problem.a_scale=-1e300"),  # (H): ||A(u)||
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


def test_size_guard_applies_to_the_built_space():
    # cubic2d always builds two modes, and the 1280-mode bvp_sqrt (42 MB half basis) fits
    setup = load_problem(PROBLEMS / "cubic2d.cfg", overrides=["space.n_modes=100000"])
    assert setup.space.n_modes == 2
    _check_table_sizes(
        "bvp", SpaceConfig(n_modes=1280, quad_nodes=8, n_panels=1024), "one_pair", 16, HypothesisParams()
    )
    # the guard counts the basis half table: 400,000 of 800,000 nodes by 320
    # modes is 0.95 GiB, where the full table would need 1.9 GiB
    wide = SpaceConfig(n_modes=320, quad_nodes=8, n_panels=100000)
    _check_table_sizes("bvp", wide, "one_pair", 1, HypothesisParams(n_s=10))
    with pytest.raises(ConfigError, match=r"basis table needs 1\.9 GiB"):
        _check_table_sizes("bvp", replace(wide, n_panels=200000), "one_pair", 1, HypothesisParams(n_s=10))


def test_size_guard_counts_the_h2_prime_chunk_and_circle():
    # a chunk counts a bvp row as wide as its grid profile: two modes at
    # n_s = 10 on a 160,000-node grid make one-angle chunks of 12 MB (102
    # angles and 1.2 GiB when the chunk counted coefficient cells only)
    wide = SpaceConfig(n_modes=2, quad_nodes=8, n_panels=20000)
    _check_table_sizes("bvp", wide, "two_pair", 16, HypothesisParams(n_s=10))
    # a chunk holds at least one angle: 2**17 rows of 2,048-node profiles
    grid = SpaceConfig(n_modes=2, quad_nodes=8, n_panels=256)
    with pytest.raises(ConfigError, match=r"\(H2\)' chunk needs 2\.0 GiB"):
        _check_table_sizes("bvp", grid, "two_pair", 16, HypothesisParams(n_s=2**17))
    # 65,536 circle points of 4,096 modes, twice at the peak: 4 GiB
    many = SpaceConfig(n_modes=4096, quad_nodes=2, n_panels=1)
    with pytest.raises(ConfigError, match=r"\(H2\)' circle needs 4\.0 GiB"):
        _check_table_sizes("bvp", many, "two_pair", 16, HypothesisParams(n_angle=2**16))


def test_checker_row_cap_boundary():
    # cubic2d's 256 x 256 (H2)' rows scaled 64x sit exactly at the cap
    load_problem(PROBLEMS / "cubic2d.cfg", overrides=["hypotheses.n_angle=16384"])
    with pytest.raises(ConfigError, match="row limit"):
        load_problem(PROBLEMS / "cubic2d.cfg", overrides=["hypotheses.n_angle=16385"])
    # an angle counts as at least _ANGLE_PASS_ROWS rows, however small n_s is
    with pytest.raises(ConfigError, match="row limit"):
        load_problem(
            PROBLEMS / "cubic2d.cfg", overrides=["hypotheses.n_angle=65537", "hypotheses.n_s=10"]
        )


@pytest.mark.parametrize("problem", sorted(p.stem for p in PROBLEMS.glob("*.cfg")))
def test_shipped_problems_keep_64x_checker_headroom(problem):
    setup = load_problem(PROBLEMS / f"{problem}.cfg")
    for key in ("n_angle", "n_s", "dirs_per_radius"):
        _check_checker_rows(
            setup.kind,
            setup.space,
            setup.mode,
            replace(setup.hyp, **{key: 64 * getattr(setup.hyp, key)}),
        )


_KEYS = [f"{section}.{key}" for section, keys in _SCHEMA.items() for key in keys]
_EDGE_VALUES = ["0", "-1", "nan", "inf", "1e300", "1000000000", "abc", ""]


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
# neither edge cases nor rejected outright
_FUZZ_PROBLEMS = ["bvp_zero", "cubic2d", "linear2d", "power_law_1d", "sublinear_affine"]
_FUZZ_VALUES = [*_EDGE_VALUES, "0.25", "0.5", "1", "2", "16", "64"]


@settings(max_examples=80)
@given(
    command=st.sampled_from(["check", "solve", "report"]),
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
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


def test_bvp_row_cap_weights_rows_by_grid():
    # a bvp row counts one row per 8 grid nodes, so sublinear_affine's
    # 256-node rows count 32: the grid that sat at the unweighted cap and ran
    # for 17.7 s exits 2, and 2048 angles of 64 rows sit exactly at the cap
    path = PROBLEMS / "sublinear_affine.cfg"
    code = run("check", "--problem", str(path), "--set", "hypotheses.n_angle=65536", "--set", "hypotheses.n_s=64")
    assert code == 2
    load_problem(path, overrides=["hypotheses.n_angle=2048"])
    with pytest.raises(ConfigError, match="row limit"):
        load_problem(path, overrides=["hypotheses.n_angle=2049"])
    # the benchmark's 1280-mode bvp_sqrt grid (8,192 nodes) stays admitted
    setup = load_problem(PROBLEMS / "bvp_sqrt.cfg")
    highres = SpaceConfig(n_modes=1280, quad_nodes=8, n_panels=1024)
    _check_checker_rows(setup.kind, highres, setup.mode, setup.hyp)
    with pytest.raises(ConfigError, match="row limit"):
        _check_checker_rows(setup.kind, highres, setup.mode, replace(setup.hyp, n_s=4097))


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
}


@pytest.mark.parametrize("problem, code", REPORT_EXIT_CODES.items(), ids=list(REPORT_EXIT_CODES))
def test_reports_byte_stable(problem, code, tmp_path):
    # golden files hold the default-seed output; linear2d blows up in the
    # solve phase, so its report writes nothing and the check output is kept
    out = tmp_path / "out.json"
    assert run("report", "--problem", str(PROBLEMS / f"{problem}.cfg"), "--output", str(out)) == code
    golden = GOLDEN / f"{problem}.report.json"
    if code == 3:
        assert not out.exists()
        assert run("check", "--problem", str(PROBLEMS / f"{problem}.cfg"), "--output", str(out)) == 0
        golden = GOLDEN / f"{problem}.check.json"
    assert out.read_bytes() == golden.read_bytes()


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
    assert ts == list(np.linspace(0.0, 1.0, bvp._ORACLE_GRID_POINTS))
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
