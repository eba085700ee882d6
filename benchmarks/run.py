"""Layered benchmark of coupledrpp: one workload, one seed, one run.

    python3 benchmarks/run.py --workload genfun --seed 1 --seconds 20 --trace 0

Workloads (see README.md next to this file): verify, genfun, objects.
With --trace 0 the run reports the end-to-end metrics; with
--trace 1 a separate traced phase reports the per-layer metrics.  The
package is imported from ../src of this file; a checkout without it is an
error (exit 2, no result).

Output: a human-readable table on stderr; on stdout the results record
(inputs, work counts, environment, failures) as one JSON line, then, as the
last line, {"correct", "attempted", "failed", "metrics"}.  Exit 0 when every
output was correct, 1 when some were not, 2 on a usage or set-up error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("verify", "genfun", "objects")

RUN_TIMEOUT = 170  # seconds, for the worker process


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def run_worker(spec: dict) -> dict:
    argv = [sys.executable, "-I", str(BENCH / "worker.py"), json.dumps(spec)]
    try:
        done = subprocess.run(argv, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT,
                              check=False, cwd=ROOT)
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        fail(f"workload {spec['workload']} ran past {RUN_TIMEOUT} s")
    lines = done.stdout.decode().strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"workload {spec['workload']} exited with code {done.returncode}")
    return json.loads(lines[-1])


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="also write the results record here")
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs and one pass per phase, for the "
                             "harness self-test; not a measurement")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "coupledrpp" / "__init__.py").is_file():
        fail(f"no package source at {SRC.relative_to(ROOT)}/coupledrpp")
    out = run_worker({"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace,
                      "tiny": args.tiny})
    metrics = out["metrics"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "input_sha256": out["input_sha256"],
        "git_commit": git_commit(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "work": out["work"], "samples": out["samples"],
        "attempted": out["attempted"], "failed": out["failed"],
        "failures": out["failures"], "metrics": metrics,
    }
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:>16.6g} {m['unit']}", file=sys.stderr)
    for failure in out["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    correct = out["failed"] == 0
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
