"""fixpairs benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a fixpairs checkout; the package is imported from
./src, so nothing needs installing.  With --trace 0 the workload process is
preceded by fresh set-up-only processes, and the result holds the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a run
that alternates traced and untraced passes.  Every child process gets the
same BLAS thread count.  Human-readable lines come first; the last line of
standard output is the JSON result.  A record with every sample, the
diagnostics and the machine facts is written to .perfbench_out/.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
from workload import LAYER_UNITS, OUT_DIR, WORKLOADS  # noqa: E402

# Fixed on both sides of every comparison: thread count moves bvp_highres by
# about 2x and the small BLAS calls of check_sweep by several times.  Two is
# the core count of the reference host and what users get there by default.
BLAS_THREADS = 2
# fresh processes timed for setup_s, the workload process included: at least
# SETUP_SAMPLES, more (up to SETUP_MAX_SAMPLES) while probes took under SETUP_PROBE_S
SETUP_SAMPLES, SETUP_MAX_SAMPLES, SETUP_PROBE_S = 5, 15, 3.0
DEADLINE_S = 170.0
E2E_UNITS = {"setup_s": "s", "pass_s": "s", "pass_cpu_s": "s", "peak_rss_mb": "MB"}


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(args, extra: list[str], env: dict[str, str], deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def probe_setup(args, env: dict[str, str], deadline: float) -> list[float]:
    samples: list[float] = []
    start = time.monotonic()
    while len(samples) < SETUP_SAMPLES - 1 or (
        len(samples) < SETUP_MAX_SAMPLES - 1 and time.monotonic() - start < SETUP_PROBE_S
    ):
        samples.append(run_child(args, ["--setup-only"], env, deadline)["setup_s"])
    return samples


def _command(cmd: list[str]) -> str | None:
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def machine_facts() -> dict:
    """Read-only facts from nproc, lscpu and /sys."""
    lscpu = {}
    for line in (_command(["lscpu"]) or "").splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("Model name", "CPU(s)", "L1d cache", "L2 cache", "L3 cache"):
            lscpu[key.strip()] = value.strip()
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            caches.append({f: (index / f).read_text().strip() for f in ("level", "type", "size")})
        except OSError:
            pass
    return {"nproc": _command(["nproc"]), "lscpu": lscpu, "cpu0_caches": caches,
            "blas_threads_env": BLAS_THREADS}


def tail(values: list[float]) -> dict:
    """The highest percentile with at least ten samples beyond it (diagnostic only)."""
    n = len(values)
    if n < 11:
        return {"percentile": None, "value": None, "samples": n, "note": "needs at least 11 passes"}
    return {"percentile": round(100.0 * (n - 10) / n, 2), "value": sorted(values)[n - 11], "samples": n}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative (it is passed to the CLI's --seed)")

    root = Path.cwd()
    if not (root / "src" / "fixpairs" / "__init__.py").is_file() or not (root / "problems").is_dir():
        sys.stderr.write("perfbench: run from the root of a fixpairs checkout (src/fixpairs and problems/)\n")
        return 2
    env = child_env(root)
    deadline = time.monotonic() + DEADLINE_S
    try:
        setup_samples = [] if args.trace else probe_setup(args, env, deadline)
        out = run_child(args, [], env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    setup_samples.append(out["setup_s"])

    passes = out["passes"]
    failed = sum(not p["ok"] for p in passes)
    timed = [p for p in passes if p["ok"] and not p["traced"]] or [p for p in passes if not p["traced"]]
    walls = [p["wall_s"] for p in timed]
    # check finds no pairs; elsewhere the count is the same on every verified pass
    pairs = None if args.workload == "check_sweep" else statistics.median_low(p["pairs"] for p in timed)
    facts = machine_facts()
    facts.update(out["versions"])

    print(f"fixpairs benchmark  workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}  closed loop, 1 caller, BLAS threads={BLAS_THREADS}")
    diagnostics = {
        "pass_s_tail": tail(walls),
        "pairs_found": pairs,
        "fail_ratio": failed / len(passes),
    }
    if args.trace:
        metrics = {name: {"value": out["layers"][name], "unit": LAYER_UNITS[name]} for name in LAYER_UNITS}
        for name, m in metrics.items():
            print(f"  {name:30s} {m['value']:16.6g} {m['unit']:10s} median of "
                  f"{sum(p['traced'] for p in passes)} traced passes")
    else:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "pass_s": statistics.median(walls),
            "pass_cpu_s": statistics.median(p["cpu_s"] for p in timed),
            "peak_rss_mb": out["peak_rss_mb"],
        }
        counts = {"setup_s": f"median of {len(setup_samples)} fresh processes",
                  "pass_s": f"median of {len(walls)} passes", "pass_cpu_s": f"median of {len(walls)} passes",
                  "peak_rss_mb": "ru_maxrss of the 1 workload process"}
        metrics = {name: {"value": v, "unit": E2E_UNITS[name]} for name, v in metrics.items()}
        for name, m in metrics.items():
            print(f"  {name:12s} {m['value']:12.6f} {m['unit']:3s} {counts[name]}")
        t = diagnostics["pass_s_tail"]
        print("  pass_s tail  " + (f"p{t['percentile']} = {t['value']:.6f} s of {t['samples']} passes"
                                  if t["value"] is not None else f"n/a: {t['note']} ({t['samples']})"))
        print(f"  pairs_found  {'n/a (check finds no pairs)' if pairs is None else pairs}"
              f" count per pass, {len(walls)} passes")
    print(f"  fail_ratio   {failed}/{len(passes)} = {diagnostics['fail_ratio']:.6g}")
    for err in out["errors"]:
        print(f"  FAILED {err.strip()}")
    print("  machine " + json.dumps(facts, sort_keys=True))

    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"args": vars(args), "metrics": metrics, "diagnostics": diagnostics,
                                  "setup_samples": setup_samples, "passes": passes, "errors": out["errors"],
                                  "machine": facts, "spans_file": out.get("spans_file")}, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": len(passes), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
