#!/usr/bin/env python3
"""Run every shipped problem through the condition checkers and the pair
search and print a one-line summary per problem.

Usage: python scripts/run_desk_study.py [--problems-dir problems]
"""

import argparse
import sys
from pathlib import Path

from fixpairs.cli import run_check, run_solve
from fixpairs.problems import ConfigError, load_problem
from fixpairs.solver import OperatorDivergenceError


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--problems-dir", default="problems")
    args = parser.parse_args()

    paths = sorted(Path(args.problems_dir).glob("*.cfg"))
    if not paths:
        print(f"no problem files under {args.problems_dir}", file=sys.stderr)
        return 2

    rows = []
    for path in paths:
        try:
            setup = load_problem(path)
        except ConfigError as exc:
            rows.append((path.stem, f"config error: {exc}"))
            continue
        check = run_check(setup)
        failed = [r["name"] for r in check["reports"] if r["verdict"] == "fail"]
        cond = "all pass" if check["all_pass"] else "fail " + ",".join(failed)
        try:
            solve, _ = run_solve(setup)
            pairs = solve["report"]["n_pairs"]
            note = "" if solve["meets_expected"] else "below expectation"
        except OperatorDivergenceError:
            pairs, note = 0, "diverged (no nontrivial fixed point)"
        rows.append((path.stem, cond, pairs, setup.expected_pairs, note))

    cond_w = max([len("conditions")] + [len(row[1]) for row in rows if len(row) > 2])
    print(f"{'problem':<16} {'conditions':<{cond_w}} {'pairs':>5} {'expected':>8}  note")
    for row in rows:
        if len(row) == 2:
            print(f"{row[0]:<16} {row[1]}")
        else:
            name, cond, pairs, expected, note = row
            print(f"{name:<16} {cond:<{cond_w}} {pairs:>5} {expected:>8}  {note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
