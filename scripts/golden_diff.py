#!/usr/bin/env python3
"""Compare fresh reports of the shipped problems with the golden files.

For every golden file under tests/golden/ the matching command (`report`,
or `check` for a problem whose golden holds its check) is run in-process
and the two documents are walked side by side.  Per problem it prints
whether the bytes are identical and, if not:

  - the largest coefficient move of each pair, absolute and relative to the
    pair's largest coefficient;
  - the largest moves of the energies (j_value) and of the checker margins;
  - every change of an iteration or start count;
  - every verdict change (verdict, all_pass, meets_expected, n_pairs);
  - the largest move of any other number, and any change of structure.

Exit status 1 when a verdict changed or a structure differs, 0 otherwise.

Usage: PYTHONPATH=src python scripts/golden_diff.py [problem ...]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

from fixpairs.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
VERDICT_KEYS = {"verdict", "all_pass", "meets_expected", "n_pairs"}
COUNT_KEYS = {"iterations", "n_starts", "n_nonconverged", "rejected_trivial"}


def fresh_text(problem: str, command: str, problems_dir: Path) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.json"
        argv = [command, "--problem", str(problems_dir / f"{problem}.cfg"), "--output", str(out)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli_main(argv)
        return out.read_text() if out.exists() else ""


def walk(old, new, path: str, leaves: list, structure: list) -> None:
    """Collect (path, key, old, new) for every differing leaf."""
    if isinstance(old, dict) and isinstance(new, dict):
        if old.keys() != new.keys():
            structure.append(f"{path}: keys {sorted(old.keys() ^ new.keys())}")
        for key in sorted(old.keys() & new.keys()):
            walk(old[key], new[key], f"{path}.{key}", leaves, structure)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            structure.append(f"{path}: length {len(old)} -> {len(new)}")
        for i, (a, b) in enumerate(zip(old, new)):
            walk(a, b, f"{path}[{i}]", leaves, structure)
    elif old != new or type(old) is not type(new):
        key = path.rsplit(".", 1)[-1].split("[", 1)[0]
        leaves.append((path, key, old, new))


def is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def pair_moves(old: dict, new: dict) -> list[str]:
    """Largest coefficient move of each pair that both reports hold."""
    lines = []
    pairs = [doc.get("solve", {}).get("report", {}).get("pairs", []) for doc in (old, new)]
    for i, (a, b) in enumerate(zip(*pairs)):
        ca, cb = a["coeffs"], b["coeffs"]
        if len(ca) == len(cb):
            move = max(abs(x - y) for x, y in zip(ca, cb))
            scale = max(abs(x) for x in ca) or 1.0
            lines.append(f"  pair {i} coefficients: max |delta| {move:.3e}, relative {move / scale:.3e}")
    return lines


def largest(leaves: list, keys: set | None = None, exclude: set = frozenset()) -> str | None:
    best = None
    for path, key, a, b in leaves:
        if (keys is not None and key not in keys) or key in exclude or key == "coeffs":
            continue
        if not (is_number(a) and is_number(b)):
            continue
        move = abs(a - b)
        rel = move / abs(a) if a else math.inf
        if best is None or move > best[0]:
            best = (move, rel, path, a, b)
    if best is None:
        return None
    move, rel, path, a, b = best
    return f"max |delta| {move:.3e} (relative {rel:.3e}) at {path}: {a!r} -> {b!r}"


def report(problem: str, golden: Path, problems_dir: Path) -> bool:
    """Print the comparison of one problem; False when a verdict or structure moved."""
    command = "check" if golden.name.endswith(".check.json") else "report"
    new_text = fresh_text(problem, command, problems_dir)
    old_text = golden.read_text()
    if new_text == old_text:
        print(f"{problem}: identical ({len(old_text)} bytes)")
        return True
    if not new_text:
        print(f"{problem}: the fresh {command} wrote no report")
        return False
    leaves, structure = [], []
    old, new = json.loads(old_text), json.loads(new_text)
    walk(old, new, "", leaves, structure)
    print(f"{problem}: {len(leaves)} values differ")
    for line in pair_moves(old, new):
        print(line)
    for label, keys in (("j_value", {"j_value"}), ("margins", {"margin"})):
        text = largest(leaves, keys)
        print(f"  {label}: {text or 'unchanged'}")
    counts = [(p, a, b) for p, key, a, b in leaves if key in COUNT_KEYS]
    for p, a, b in counts:
        print(f"  count {p}: {a!r} -> {b!r}")
    if not counts:
        print("  iteration and start counts: unchanged")
    verdicts = [(p, a, b) for p, key, a, b in leaves if key in VERDICT_KEYS]
    for p, a, b in verdicts:
        print(f"  VERDICT {p}: {a!r} -> {b!r}")
    if not verdicts:
        print("  verdicts: unchanged")
    other = largest(leaves, exclude=VERDICT_KEYS | COUNT_KEYS | {"j_value", "margin"})
    if other:
        print(f"  other numbers: {other}")
    for line in structure:
        print(f"  STRUCTURE {line}")
    return not verdicts and not structure


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("problems", nargs="*", help="problem names (default: every golden file)")
    parser.add_argument("--golden-dir", type=Path, default=ROOT / "tests" / "golden")
    parser.add_argument("--problems-dir", type=Path, default=ROOT / "problems")
    args = parser.parse_args()
    goldens = sorted(args.golden_dir.glob("*.json"))
    ok = True
    for golden in goldens:
        problem = golden.name.split(".", 1)[0]
        if args.problems and problem not in args.problems:
            continue
        ok = report(problem, golden, args.problems_dir) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
