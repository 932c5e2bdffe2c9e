"""Benchmark of the mplangc routes: compile, approximate, translate and check.

    python3 bench/run.py                                  # every workload
    python3 bench/run.py --workload compile_sums --seed 3 --seconds 15 --trace 0

Run from the root of a checkout.  Each workload runs in its own fresh
interpreter (``bench/workloads.py``) against the checkout's ``src``, with
numpy's BLAS limited to one thread.  Set-up time is the median over several
fresh processes, each timed from its start to the end of building its
inputs.  Times are scaled to a reference host speed (``bench/calibrate.py``).
The last line printed is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer ones with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("compile_sums", "approx_nested", "translate_check")
# Fresh processes that only set up, besides the measuring one.
SETUP_PROBES = 4
DEADLINE_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def _environment() -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    threads = "1"
    for var in BLAS_THREAD_VARS:
        env[var] = threads
    return env


def _child(args: list[str], env: dict[str, str], deadline: float) -> tuple[list[str], dict]:
    """Run workloads.py once; return its output lines and its JSON last line."""
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise BenchError("out of time before starting a workload process")
    t0 = time.perf_counter()
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), *args, "--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process exceeded its time: {' '.join(args)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited with {proc.returncode}: {' '.join(args)}")
    return lines[:-1], json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: int, trace: int, env: dict,
                 deadline: float) -> dict:
    common = ["--workload", name, "--seed", str(seed)]
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            _, probe = _child([*common, "--setup-only"], env, deadline)
            setups.append(probe["setup_s"])
    lines, result = _child([*common, "--seconds", str(seconds), "--trace", str(trace)],
                           env, deadline)
    for line in lines:
        print(line)
    if not trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        print(f"  setup_s over {len(setups)} fresh processes: "
              + ", ".join(f"{s:.4f}" for s in setups))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run one workload (default: all of them)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30, help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "mplangc", "__init__.py")):
        print(f"no mplangc sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    env = _environment()
    names = [args.workload] if args.workload else list(WORKLOADS)
    deadline = time.perf_counter() + DEADLINE_S * len(names)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, env,
                                         deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    if args.workload:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
