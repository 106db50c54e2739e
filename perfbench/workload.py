"""One benchmark workload in one process: set-up, timed passes, verification.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Run from the root of a fixpairs checkout; run.py starts this script with
the BLAS thread count and PYTHONPATH=src set.  The process imports the
package from ./src, loads every problem of the workload once (set-up), then
runs passes in a closed loop with a single caller: a pass starts only after
the previous one has finished and has been verified against reference.json.
With --trace 1 every other pass is traced (see tracing.py), so the traced
and untraced pass times come from the same window.  The last line of
standard output is one JSON object with the raw samples.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
OUT_DIR = Path(".perfbench_out")

PROBLEMS = ("power_law_1d", "linear2d", "bvp_zero", "sublinear_affine", "cubic2d", "bvp_sqrt")
HIGHRES = ("space.n_modes=1280", "space.n_panels=1024")
# workload -> CLI commands of one pass, as (command, problem, --set overrides)
COMMANDS = {
    "search_multistart": [("report", "cubic2d", ()), ("report", "sublinear_affine", ())],
    "bvp_highres": [("report", "bvp_sqrt", HIGHRES)],
    "check_sweep": [("check", p, ()) for p in PROBLEMS],
}
WORKLOADS = (*COMMANDS, "shooting_oracle")
# the c09 acceptance fixture: -u'' = 10 sign(u) sqrt|u|
ORACLE_NL = (10.0, 0.5)
ORACLE_ARGS = {"slope_range": (2.0, 20.0), "n_slopes": 10, "tol": 1e-10, "n_steps": 4000}
PROFILE_POINTS = 1001

C09_GAP = 1e-6  # sup-norm gap between a solver profile and an oracle profile (c09 gate)
ORACLE_SELF_GAP = 1e-8  # oracle profile against its own stored profile
SIGMA_TOL = 1e-8
COEFF_TOL = 1e-6  # relative 2-norm distance of pair coefficients, modulo sign
ENERGY_TOL = 1e-8
MARGIN_RTOL = 1e-8
SEEDED = ("(H)", "(D3)")  # conditions whose margins follow --seed; only their verdicts are compared

LAYER_UNITS = {
    "solver.find_pairs_ms": "ms",
    "solver.self_ms": "ms",
    "solver.starts": "count",
    "solver.main_iterations": "count",
    "solver.energy_evals": "count",
    "solver.gradient_evals": "count",
    "solver.evals_per_iteration": "evals/iter",
    "solver.useful_start_ratio": "ratio",
    "solver.nonconverged": "count",
    "solver.residual_max": "norm",
    "solver.pairs_found": "count",
    "operators.apply_calls": "count",
    "operators.apply_ms": "ms",
    "operators.potential_calls": "count",
    "operators.potential_ms": "ms",
    "operators.basis_mb_computed": "MB",
    "operators.batch_calls": "count",
    "operators.batch_rows": "count",
    "operators.batch_ms": "ms",
    "operators.growth_fit_ms": "ms",
    "space.basis_mb": "MB",
    "space.evaluate_ms": "ms",
    "problems.load_calls": "count",
    "problems.load_ms": "ms",
    "problems.cold_load_ms": "ms",
    "hypotheses.calls": "count",
    "hypotheses.ms": "ms",
    "bvp.f_calls": "count",
    "bvp.f_points": "count",
    "bvp.rk4_steps": "count",
    "bvp.oracle_ms": "ms",
    "bvp.oracle_gap": "sup-norm",
    "bvp.oracle_roots": "count",
    "bvp.d_checks_ms": "ms",
    "cli.self_ms": "ms",
    "cli.report_bytes": "bytes",
    "trace.pass_ms": "ms",
    "trace.untraced_pass_ms": "ms",
    "trace.overhead_ms": "ms",
}


def problem_path(problem: str) -> str:
    return f"problems/{problem}.cfg"


def command_argv(command: str, problem: str, overrides, seed: int) -> list[str]:
    argv = [command, "--problem", problem_path(problem), "--seed", str(seed)]
    for item in overrides:
        argv += ["--set", item]
    return argv


def extract(payload: dict) -> dict:
    """The values a pass is checked on: verdicts, seed-free margins and pairs."""
    check = payload["check"] if payload["command"] == "report" else payload
    record = {
        "verdicts": [[r["name"], r["verdict"]] for r in check["reports"]],
        "margins": {r["name"]: r["margin"] for r in check["reports"] if r["name"] not in SEEDED},
    }
    if payload["command"] == "report":
        record["pairs"] = [
            {"coeffs": p["coeffs"], "j_value": p["j_value"], "fp_residual": p["fp_residual"]}
            for p in payload["solve"]["report"]["pairs"]
        ]
    return record


class Context:
    """Everything a pass and its verification need, built during set-up."""

    def __init__(self, workload: str, seed: int, reference: dict) -> None:
        import numpy as np

        import fixpairs
        from fixpairs import bvp, cli, space

        origin = Path(fixpairs.__file__).resolve()
        if not origin.is_relative_to(Path("src").resolve()):
            raise SystemExit(f"fixpairs was imported from {origin}, not from ./src")
        self.np, self.fixpairs, self.bvp, self.cli, self.space = np, fixpairs, bvp, cli, space
        self.workload = workload
        self.reference = reference
        self.ts = np.linspace(0.0, 1.0, PROFILE_POINTS)
        self.oracle_profile = np.asarray(reference["oracle"]["profile"])
        self.solver_profile = np.asarray(reference["solver_profile_320"])
        self.commands = [
            (f"{command}:{problem}", command_argv(command, problem, overrides, seed))
            for command, problem, overrides in COMMANDS.get(workload, [])
        ]
        self.nl = bvp.power_nonlinearity(*ORACLE_NL)
        self.first_output: dict[str, str] = {}


def set_up(workload: str, seed: int, tracer: Tracer | None) -> Context:
    """Import the package, read the reference data and cold-load every problem."""
    ctx = Context(workload, seed, json.loads(REFERENCE.read_text()))
    if tracer is not None:
        install(tracer, ctx)
    try:
        for command, problem, overrides in COMMANDS.get(workload, []):
            ctx.cli.load_problem(problem_path(problem), overrides=list(overrides), seed=seed)
    finally:
        if tracer is not None:
            tracer.unpatch_all()
    return ctx


# -- passes ----------------------------------------------------------------


def run_pass(ctx: Context, tracer: Tracer | None):
    if ctx.workload == "shooting_oracle":
        nl, oracle = ctx.nl, ctx.bvp.shooting_oracle
        if tracer is not None:
            nl = dataclasses.replace(nl, f=tracer.leaf("bvp.f", nl.f, units=lambda a: a[1].size))
        return oracle(nl, **ORACLE_ARGS)
    main = ctx.cli.main if tracer is None else tracer.span("cli.main", ctx.cli.main)
    outputs = []
    for key, argv in ctx.commands:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        outputs.append((key, code, buf.getvalue()))
    return outputs


def verify(ctx: Context, output) -> tuple[list[str], int, float | None, int]:
    """Check one pass against the reference: (errors, pairs found, oracle gap, report bytes)."""
    if ctx.workload == "shooting_oracle":
        return verify_oracle(ctx, output)
    errors: list[str] = []
    n_pairs, worst_gap, n_bytes = 0, None, 0
    for key, code, text in output:
        errs, pairs, gap = verify_command(ctx, key, code, text)
        errors += errs
        n_pairs += pairs
        n_bytes += len(text.encode())
        if gap is not None:
            worst_gap = gap if worst_gap is None else max(worst_gap, gap)
    return errors, n_pairs, worst_gap, n_bytes


def verify_command(ctx: Context, key: str, code: int, text: str) -> tuple[list[str], int, float | None]:
    np = ctx.np
    ref = ctx.reference["commands"][ctx.workload][key]
    errors = []
    if code != ref["exit_code"]:
        errors.append(f"{key}: exit code {code}, expected {ref['exit_code']}")
    if text != ctx.first_output.setdefault(key, text):
        errors.append(f"{key}: report bytes differ from the first pass of this run")
    try:
        got = extract(json.loads(text))
    except (ValueError, KeyError, TypeError) as exc:
        return errors + [f"{key}: unreadable report ({exc!r})"], 0, None
    if got["verdicts"] != ref["verdicts"]:
        errors.append(f"{key}: verdicts {got['verdicts']} != {ref['verdicts']}")
    for name, margin in ref["margins"].items():
        value = got["margins"].get(name)
        if value is None or not abs(value - margin) <= MARGIN_RTOL * max(1.0, abs(margin)):
            errors.append(f"{key}: {name} margin {value!r}, expected {margin!r}")
    pairs = got.get("pairs", [])
    for rp in ref.get("pairs", []):
        r = np.asarray(rp["coeffs"])
        if not any(_same_pair(np, p, r, rp["j_value"]) for p in pairs):
            errors.append(f"{key}: reference pair with J = {rp['j_value']!r} not found")
    for p in pairs:
        if not p["fp_residual"] <= ref["grad_tol"]:
            errors.append(f"{key}: pair residual {p['fp_residual']!r} above {ref['grad_tol']!r}")
    gap = None
    if ref.get("oracle_gate"):
        for p in pairs:
            profile = ctx.space.evaluate(ctx.fixpairs.H1Vector(np.asarray(p["coeffs"])), ctx.ts)
            g = float(np.max(np.abs(profile - ctx.oracle_profile)))
            gap = g if gap is None else max(gap, g)
        if gap is None or not gap <= C09_GAP:
            errors.append(f"{key}: sup-norm gap to the stored oracle profile {gap!r} > {C09_GAP}")
    return errors, len(pairs), gap


def _same_pair(np, pair: dict, ref_coeffs, ref_j: float) -> bool:
    c = np.asarray(pair["coeffs"])
    if c.shape != ref_coeffs.shape:
        return False
    dist = min(np.linalg.norm(c - ref_coeffs), np.linalg.norm(c + ref_coeffs))
    return bool(
        dist <= COEFF_TOL * max(1.0, float(np.linalg.norm(ref_coeffs)))
        and abs(pair["j_value"] - ref_j) <= ENERGY_TOL * max(1.0, abs(ref_j))
    )


def verify_oracle(ctx: Context, result) -> tuple[list[str], int, float | None, int]:
    np = ctx.np
    ref = ctx.reference["oracle"]
    errors = []
    digest = hashlib.sha256(json.dumps(result.to_dict(), sort_keys=True).encode())
    for sol in result.solutions:
        digest.update(np.ascontiguousarray(sol.us).tobytes())
    text = digest.hexdigest()
    if text != ctx.first_output.setdefault("oracle", text):
        errors.append("oracle: output bytes differ from the first pass of this run")
    if result.degenerate or len(result.solutions) != len(ref["sigmas"]):
        errors.append(f"oracle: {len(result.solutions)} roots (degenerate={result.degenerate}), "
                      f"expected {len(ref['sigmas'])}")
    gap = None
    for sol, sigma in zip(result.solutions, ref["sigmas"]):
        if not abs(sol.sigma - sigma) <= SIGMA_TOL:
            errors.append(f"oracle: root {sol.sigma!r}, expected {sigma!r}")
        self_gap = float(np.max(np.abs(sol.us - ctx.oracle_profile)))
        if not self_gap <= ORACLE_SELF_GAP:
            errors.append(f"oracle: profile moved by {self_gap!r} from the stored oracle profile")
        g = float(np.max(np.abs(sol.us - ctx.solver_profile)))
        gap = g if gap is None else max(gap, g)
        if not g <= C09_GAP:
            errors.append(f"oracle: sup-norm gap {g!r} to the stored 320-mode solver profile > {C09_GAP}")
    return errors, len(result.solutions), gap, 0


# -- tracing ---------------------------------------------------------------


def install(tracer: Tracer, ctx: Context) -> None:
    """Patch the names the cli module looks up, plus the bvp checkers and evaluate."""
    cli, bvp, space = ctx.cli, ctx.bvp, ctx.space
    load = tracer.span("problems.load_problem", cli.load_problem)
    copy = tracer.span("bench.trace_copy", lambda setup: traced_setup(tracer, ctx, setup))
    tracer.patch(cli, "load_problem", lambda *a, **k: copy(load(*a, **k)))
    tracer.patch_span(cli, "run_check", "cli.run_check")
    tracer.patch_span(cli, "run_solve", "cli.run_solve")
    tracer.patch_span(cli, "find_pairs", "solver.find_pairs", on_result=lambda r: record_solve(tracer, r))
    tracer.patch_span(cli, "growth_fit", "operators.growth_fit")
    for name in ("check_h1", "check_h2", "check_h2_prime", "quadratic_form_margin"):
        tracer.patch_span(cli, name, f"hypotheses.{name}")
    for name in ("check_d1", "check_d2", "check_d3", "check_d4"):
        tracer.patch_span(bvp, name, f"bvp.{name}")
    tracer.patch_span(space, "evaluate", "space.evaluate")
    tracer.patch_span(bvp, "shooting_oracle", "bvp.oracle")


def traced_setup(tracer: Tracer, ctx: Context, setup):
    """A copy of the problem whose operator callables are counted and timed.

    The copy is built with dataclasses.replace, so it goes through the
    oddness validation again; the tracer is muted meanwhile and the time
    shows as the bench.trace_copy span, outside every layer's self time.
    """
    op = setup.operator
    basis_bytes = 0
    if setup.kind == "bvp":
        basis = ctx.space.basis_matrix(setup.space)
        basis_bytes = basis.nbytes
        tracer.values[(tracer.pass_id, f"space.basis_bytes:{id(basis)}")] = basis.nbytes
    tracer.muted = True
    try:
        # computed bytes: an apply reads the basis and the weighted basis, a potential the basis
        traced = dataclasses.replace(
            op,
            apply_coeffs=tracer.leaf("operators.apply", op.apply_coeffs, bytes_per_call=2 * basis_bytes),
            apply_batch=None if op.apply_batch is None else tracer.leaf(
                "operators.batch", op.apply_batch, units=lambda a: len(a[0]), bytes_per_call=2 * basis_bytes),
            potential_coeffs=None if op.potential_coeffs is None else tracer.leaf(
                "operators.potential", op.potential_coeffs, bytes_per_call=basis_bytes),
        )
    finally:
        tracer.muted = False
    return dataclasses.replace(setup, operator=traced)


def record_solve(tracer: Tracer, report) -> None:
    v, p = tracer.values, tracer.pass_id
    v[(p, "solver.starts")] += report.n_starts
    v[(p, "solver.main_iterations")] += sum(len(t) for t in report.ps_trace)
    v[(p, "solver.nonconverged")] += report.n_nonconverged
    v[(p, "solver.pairs_found")] += report.n_pairs
    v[(p, "solver.residual_max")] = max([v[(p, "solver.residual_max")]] + [q.fp_residual for q in report.pairs])


def layer_metrics(tracer: Tracer, p: int) -> dict[str, float]:
    def value(key: str) -> float:
        return tracer.values.get((p, key), 0.0)

    def spans(prefix: str) -> tuple[int, float, float]:
        calls, total, own = tracer.span_stats(p, prefix)
        return calls, total * 1e3, own * 1e3

    apply = tracer.leaf_stats(p, "operators.apply")
    potential = tracer.leaf_stats(p, "operators.potential")
    batch = tracer.leaf_stats(p, "operators.batch")
    f = tracer.leaf_stats(p, "bvp.f")
    energy = tracer.leaf_stats(p, "operators.potential", parent="solver.find_pairs")[0]
    iterations, starts = value("solver.main_iterations"), value("solver.starts")
    _, find_ms, find_self_ms = spans("solver.find_pairs")
    load_calls, load_ms, _ = spans("problems.load_problem")
    hyp_calls, hyp_ms, _ = spans("hypotheses.")
    return {
        "solver.find_pairs_ms": find_ms,
        "solver.self_ms": find_self_ms,
        "solver.starts": starts,
        "solver.main_iterations": iterations,
        "solver.energy_evals": energy,
        "solver.gradient_evals": tracer.leaf_stats(p, "operators.apply", parent="solver.find_pairs")[0],
        "solver.evals_per_iteration": energy / iterations if iterations else 0.0,
        "solver.useful_start_ratio": value("solver.pairs_found") / starts if starts else 0.0,
        "solver.nonconverged": value("solver.nonconverged"),
        "solver.residual_max": value("solver.residual_max"),
        "solver.pairs_found": value("solver.pairs_found"),
        "operators.apply_calls": apply[0],
        "operators.apply_ms": apply[1] * 1e3,
        "operators.potential_calls": potential[0],
        "operators.potential_ms": potential[1] * 1e3,
        "operators.basis_mb_computed": (apply[3] + potential[3] + batch[3]) / 1e6,
        "operators.batch_calls": batch[0],
        "operators.batch_rows": batch[2],
        "operators.batch_ms": batch[1] * 1e3,
        "operators.growth_fit_ms": spans("operators.growth_fit")[1],
        "space.basis_mb": sum(
            v for (pid, key), v in tracer.values.items() if pid == p and key.startswith("space.basis_bytes:")
        ) / 1e6,
        "space.evaluate_ms": spans("space.evaluate")[1],
        "problems.load_calls": load_calls,
        "problems.load_ms": load_ms,
        "hypotheses.calls": hyp_calls,
        "hypotheses.ms": hyp_ms,
        "bvp.f_calls": f[0],
        "bvp.f_points": f[2],
        "bvp.rk4_steps": f[0] / 4,
        "bvp.oracle_ms": spans("bvp.oracle")[1],
        "bvp.oracle_gap": value("bvp.oracle_gap"),
        "bvp.oracle_roots": value("bvp.oracle_roots"),
        "bvp.d_checks_ms": spans("bvp.check_d")[1],
        "cli.self_ms": spans("cli.main")[2],
        "cli.report_bytes": value("cli.report_bytes"),
    }


def summarize_trace(tracer: Tracer, passes: list[dict]) -> dict[str, float]:
    traced = [q for q in passes if q["traced"]]
    per_pass = [layer_metrics(tracer, q["pass_id"]) for q in traced]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    metrics["problems.cold_load_ms"] = tracer.span_stats(0, "problems.load_problem")[1] * 1e3
    traced_ms = statistics.median(q["wall_s"] for q in traced) * 1e3
    untraced_ms = statistics.median(q["wall_s"] for q in passes if not q["traced"]) * 1e3
    metrics["trace.pass_ms"] = traced_ms
    metrics["trace.untraced_pass_ms"] = untraced_ms
    metrics["trace.overhead_ms"] = traced_ms - untraced_ms
    return metrics


# -- main ------------------------------------------------------------------


def versions(np) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else None
    t0 = time.perf_counter()
    ctx = set_up(args.workload, args.seed, tracer)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # passes: with tracing, odd passes are traced and even ones are not; pass id 0 is the set-up
    passes: list[dict] = []
    errors: list[str] = []
    start = time.perf_counter()
    min_passes = 2 if tracer is not None else 1
    while time.perf_counter() - start < args.seconds or len(passes) < min_passes:
        pass_id = len(passes) + 1
        active = tracer if tracer is not None and pass_id % 2 == 0 else None
        if active is not None:
            active.pass_id = pass_id
            install(active, ctx)
        wall = cpu = None
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            output = run_pass(ctx, active)
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
            errs, n_pairs, gap, n_bytes = verify(ctx, output)
        except Exception:  # a pass that raises is a failed pass; the run goes on
            if wall is None:
                wall, cpu = time.perf_counter() - w0, time.process_time() - c0
            errs, n_pairs, gap, n_bytes = [traceback.format_exc()], 0, None, 0
        finally:
            if active is not None:
                active.unpatch_all()
        if active is not None:
            active.values[(pass_id, "bvp.oracle_gap")] = gap or 0.0
            active.values[(pass_id, "cli.report_bytes")] = n_bytes
            if ctx.workload == "shooting_oracle":
                active.values[(pass_id, "bvp.oracle_roots")] = n_pairs
        passes.append({"pass_id": pass_id, "wall_s": wall, "cpu_s": cpu, "ok": not errs,
                       "pairs": n_pairs, "traced": active is not None})
        errors += [f"pass {pass_id}: {e}" for e in errs]

    result = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "passes": passes,
        "errors": errors[:20],
        "versions": versions(ctx.np),
    }
    if tracer is not None:
        result["layers"] = summarize_trace(tracer, passes) if len(passes) >= 2 else {}
        OUT_DIR.mkdir(exist_ok=True)
        spans_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(tracer.dump()))
        result["spans_file"] = str(spans_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
