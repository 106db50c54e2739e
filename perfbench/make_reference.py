"""Write reference.json, the data every benchmark pass is verified against.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run from the root of a checkout.  It runs each workload's CLI commands once
with --seed 0 and records exit codes, verdicts, seed-free margins and
canonical pairs; the shooting oracle's roots and 1001-point profile on the
c09 fixture; and the 1001-point profile of the shipped 320-mode bvp_sqrt
solve.  Verdicts and pairs do not depend on --seed, and the margins of the
seeded conditions (H) and (D3) are not recorded.  The stored file was made
from the commit that introduced the benchmark, and is regenerated only when
a change is meant to alter these results.
"""

from __future__ import annotations

import contextlib
import io
import json

import numpy as np

from fixpairs import bvp, cli, evaluate, find_pairs
from fixpairs.problems import load_problem

import workload as wl


def main() -> None:
    commands: dict[str, dict] = {}
    for name, cmds in wl.COMMANDS.items():
        commands[name] = {}
        for command, problem, overrides in cmds:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(wl.command_argv(command, problem, overrides, seed=0))
            record = wl.extract(json.loads(buf.getvalue()))
            record["exit_code"] = code
            if command == "report":
                setup = load_problem(wl.problem_path(problem), overrides=list(overrides))
                record["grad_tol"] = setup.solver.grad_tol
                for pair in record["pairs"]:
                    del pair["fp_residual"]
            record["oracle_gate"] = name == "bvp_highres"
            commands[name][f"{command}:{problem}"] = record

    oracle = bvp.shooting_oracle(bvp.power_nonlinearity(*wl.ORACLE_NL), **wl.ORACLE_ARGS)
    setup = load_problem(wl.problem_path("bvp_sqrt"))
    solve = find_pairs(setup.operator, setup.seeds, setup.solver)
    ts = np.linspace(0.0, 1.0, wl.PROFILE_POINTS)
    solver_profile = evaluate(solve.pairs[0].u, ts)
    gap = float(np.max(np.abs(solver_profile - oracle.solutions[0].us)))
    if not gap <= wl.C09_GAP:
        raise SystemExit(f"320-mode solver and oracle disagree by {gap!r}; reference not written")

    reference = {
        "commands": commands,
        "oracle": {
            "sigmas": [s.sigma for s in oracle.solutions],
            "profile": [float(v) for v in oracle.solutions[0].us],
        },
        "solver_profile_320": [float(v) for v in solver_profile],
        "solver_oracle_gap_320": gap,
    }
    (wl.HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {wl.HERE / 'reference.json'}; 320-mode solver/oracle gap {gap:.3e}")


if __name__ == "__main__":
    main()
