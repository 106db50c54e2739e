"""Command-line interface.

Subcommands:

  check      run every applicable existence-condition checker; exit 0 iff
             all of them pass, 1 if any fails, 3 when a checker meets a
             non-finite value (operator blow-up)
  solve      search for fixed-point pairs; exit 0 iff at least the expected
             number of pairs is found, 1 otherwise, 3 on operator blow-up
  gradcheck  finite-difference validation of the energy gradient
  eigen      spectral and finite-difference first Dirichlet eigenvalue
  report     the check and solve bundles in one document; 3 on a blow-up
             in either

Every command exits 2 on a config error or an output it cannot write.

Reports are JSON with a schema_version field and are byte-stable for a
fixed seed and config; solve and report also write their profiles and
descent traces to CSV when --format csv is selected, which the other
commands reject.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__
from . import bvp as bvp_mod
from .hypotheses import (
    HypothesisReport,
    SAMPLED_PASS,
    check_h1,
    check_h2,
    check_h2_prime,
    quadratic_form_margin,
)
from .operators import fd_gradient_check, functional_J, growth_fit
from .problems import ConfigError, ProblemSetup, load_problem
from .solver import OperatorDivergenceError, find_pairs
from .space import H1Vector, basis_vector, evaluate

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_BLOWUP = 3

# gradcheck: random (u, v) pairs and the finite-difference step
_GRADCHECK_PAIRS = 20
_GRADCHECK_H = 1e-5


def _json_text(payload: dict[str, Any]) -> str:
    # strict JSON: a non-finite value raises here rather than print NaN
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


class OutputError(Exception):
    """A report or profile file that cannot be written."""


def _write_text(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as exc:
        raise OutputError(str(exc)) from exc


def _emit(payload: dict[str, Any], output: str | None) -> None:
    text = _json_text(payload)
    if output:
        _write_text(Path(output), text)
    else:
        sys.stdout.write(text)


def _base_payload(setup: ProblemSetup, command: str) -> dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "command": command,
        "problem": setup.name,
        "kind": setup.kind,
        "mode": setup.mode,
        "seed": setup.seed,
    }


def run_check(setup: ProblemSetup) -> dict[str, Any]:
    reports: list[HypothesisReport] = []
    cert = growth_fit(
        setup.operator,
        setup.hyp.growth_radii,
        dirs_per_radius=setup.hyp.dirs_per_radius,
        seed=setup.seed,
    )
    reports.append(
        HypothesisReport(
            name="(H)",
            verdict=SAMPLED_PASS,
            margin=cert.coverage_margin(),
            witnesses=[cert.to_dict()],
            grid={"dirs_per_radius": setup.hyp.dirs_per_radius},
            note="sampled growth envelope only; not a proof of the limsup condition",
        )
    )
    e1 = basis_vector(1, setup.space.n_modes)
    if setup.mode == "one_pair":
        reports.append(check_h1(setup.comparison, e1))
        reports.append(
            check_h2(setup.operator, setup.comparison, e1, setup.radius, n_s=setup.hyp.n_s)
        )
    else:
        e2, e3 = setup.e_vectors
        reports.append(quadratic_form_margin(setup.comparison, e2, e3))
        reports.append(
            check_h2_prime(
                setup.operator,
                setup.comparison,
                e2,
                e3,
                setup.radius,
                n_angle=setup.hyp.n_angle,
                n_s=setup.hyp.n_s,
            )
        )
    if setup.nonlinearity is not None:
        nl = setup.nonlinearity
        reports.append(bvp_mod.check_d1(nl, setup.d1_r1))
        reports.append(bvp_mod.check_d2(nl))
        reports.append(bvp_mod.check_d3(nl, setup.space))
        m, big_m = nl.coefficient_range(setup.space)
        reports.append(bvp_mod.check_d4(m, big_m))
    payload = _base_payload(setup, "check")
    payload["reports"] = [r.to_dict() for r in reports]
    payload["all_pass"] = all(r.passed for r in reports)
    return payload


def run_solve(setup: ProblemSetup) -> tuple[dict[str, Any], Any]:
    report = find_pairs(setup.operator, setup.seeds, setup.solver)
    payload = _base_payload(setup, "solve")
    payload["report"] = report.to_dict()
    payload["expected_pairs"] = setup.expected_pairs
    payload["meets_expected"] = report.n_pairs >= setup.expected_pairs
    return payload, report


def run_gradcheck(setup: ProblemSetup) -> dict[str, Any]:
    rng = np.random.default_rng(setup.seed)
    worst = 0.0
    for _ in range(_GRADCHECK_PAIRS):
        u = H1Vector(rng.standard_normal(setup.space.n_modes))
        v = rng.standard_normal(setup.space.n_modes)
        v /= np.linalg.norm(v)
        disc = fd_gradient_check(setup.operator, u, H1Vector(v), _GRADCHECK_H)
        rel = disc / max(1.0, abs(functional_J(setup.operator, u)))
        worst = max(worst, rel)
    payload = _base_payload(setup, "gradcheck")
    payload["n_pairs"] = _GRADCHECK_PAIRS
    payload["h"] = _GRADCHECK_H
    payload["max_rel_discrepancy"] = worst
    payload["tolerance"] = 1e-6
    payload["all_pass"] = worst <= 1e-6
    return payload


def run_eigen(setup: ProblemSetup) -> dict[str, Any]:
    n = setup.hyp.eigen_n
    spectral = bvp_mod.dirichlet_eigenvalue(1, "spectral")
    fd = bvp_mod.dirichlet_eigenvalue(1, "finite-difference", n=n)
    rel = abs(fd - spectral) / spectral
    payload = _base_payload(setup, "eigen")
    payload["spectral"] = spectral
    payload["finite_difference"] = fd
    payload["n"] = n
    payload["rel_error"] = rel
    payload["tolerance"] = 1e-4
    payload["all_pass"] = rel <= 1e-4
    return payload


def _write_profiles(setup: ProblemSetup, solve_report, output: str | None) -> None:
    stem = Path(output).with_suffix("") if output else Path("solve")
    ts = np.linspace(0.0, 1.0, bvp_mod.ORACLE_GRID_POINTS)
    for i, point in enumerate(solve_report.pairs):
        vals = evaluate(point.u, ts)
        lines = ["t,u"] + [f"{float(t)!r},{float(v)!r}" for t, v in zip(ts, vals)]
        _write_text(Path(f"{stem}_pair{i}.csv"), "\n".join(lines) + "\n")
    for i, trace in enumerate(solve_report.ps_trace):
        lines = ["iter,J,grad_norm"] + [
            f"{k},{float(jv)!r},{float(gn)!r}" for k, (jv, gn) in enumerate(trace)
        ]
        _write_text(Path(f"{stem}_trace{i}.csv"), "\n".join(lines) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fixpairs",
        description="find symmetric fixed-point pairs of odd potential operators",
    )
    parser.add_argument("command", choices=["check", "solve", "gradcheck", "eigen", "report"])
    parser.add_argument("--problem", required=True, help="path to a problem config file")
    parser.add_argument("--output", default=None, help="write the JSON report here")
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    parser.add_argument("--seed", type=int, default=None, help="override the run seed")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override a config value (repeatable)",
    )
    args = parser.parse_args(argv)
    if args.format == "csv" and args.command not in ("solve", "report"):
        sys.stderr.write(f"config error: --format csv is for solve and report; {args.command} writes no profiles\n")
        return EXIT_CONFIG

    try:
        setup = load_problem(args.problem, overrides=args.overrides, seed=args.seed)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG

    try:
        if args.command == "check":
            payload = run_check(setup)
            _emit(payload, args.output)
            return EXIT_OK if payload["all_pass"] else EXIT_FAIL
        if args.command == "solve":
            payload, report = run_solve(setup)
            _emit(payload, args.output)
            if args.format == "csv":
                _write_profiles(setup, report, args.output)
            return EXIT_OK if payload["meets_expected"] else EXIT_FAIL
        if args.command == "gradcheck":
            payload = run_gradcheck(setup)
            _emit(payload, args.output)
            return EXIT_OK if payload["all_pass"] else EXIT_FAIL
        if args.command == "eigen":
            payload = run_eigen(setup)
            _emit(payload, args.output)
            return EXIT_OK if payload["all_pass"] else EXIT_FAIL
        # report: bundle check + solve
        check_payload = run_check(setup)
        solve_payload, report = run_solve(setup)
        payload = _base_payload(setup, "report")
        payload["check"] = check_payload
        payload["solve"] = solve_payload
        _emit(payload, args.output)
        if args.format == "csv":
            _write_profiles(setup, report, args.output)
        if not check_payload["all_pass"]:
            return EXIT_FAIL
        return EXIT_OK if solve_payload["meets_expected"] else EXIT_FAIL
    except OperatorDivergenceError as exc:
        sys.stderr.write(f"operator blow-up: {exc}\n")
        return EXIT_BLOWUP
    except OutputError as exc:
        sys.stderr.write(f"cannot write output: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
