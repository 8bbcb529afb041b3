"""Benchmark entry point.

    python3 bench/run.py --workload classify-sweep --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15

Runs from the root of a checkout of the repository, against the
package under ``src``.  For each workload it writes the seeded inputs
(``bench/gen.py``), then runs ``bench/workload.py`` in a fresh Python
process with ``PYTHONHASHSEED=0`` and waits for it.  The last line of
standard output is the workload's result object; with ``--workload all``
each workload's result line is printed after a ``# <name>`` line.  The
exit code is 0 only when every workload ran and passed its output
checks.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("classify-sweep", "random-fano", "box-oracle")
# workloads whose inputs bench/gen.py writes from the seed
NEEDS_INPUTS = {"random-fano", "box-oracle"}
DEADLINE_S = 175.0


def _env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_workload(name: str, seed: int, seconds: int, trace: int, deadline: float) -> int:
    env = _env()
    inputs = os.path.join(HERE, ".inputs", f"seed-{seed}")
    if name in NEEDS_INPUTS:
        subprocess.run(
            [sys.executable, os.path.join(HERE, "gen.py"), "--seed", str(seed),
             "--out", inputs, "--workload", name],
            env=env, check=True, timeout=deadline - time.monotonic(),
        )
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--inputs", inputs]
    if trace:
        out_dir = os.path.join(HERE, ".out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(out_dir, f"spans-{name}.json.gz")]
    env["GAVBENCH_T0_NS"] = str(time.clock_gettime_ns(time.CLOCK_MONOTONIC))
    proc = subprocess.run(
        cmd, env=env, stdout=subprocess.PIPE, text=True,
        timeout=deadline - time.monotonic(),
    )
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


def main(argv=None) -> int:
    start = time.monotonic()
    parser = argparse.ArgumentParser(description="gavindex benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "gavindex", "__init__.py")):
        print(f"no gavindex package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        if len(names) > 1:
            print(f"# {name}", flush=True)
            start = time.monotonic()
        try:
            code = run_workload(name, args.seed, args.seconds, args.trace, start + DEADLINE_S)
        except subprocess.CalledProcessError as exc:
            print(f"{name}: input generation failed with code {exc.returncode}", file=sys.stderr)
            code = exc.returncode or 1
        except subprocess.TimeoutExpired:
            print(f"{name}: no result within {DEADLINE_S:.0f} s", file=sys.stderr)
            code = 1
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
