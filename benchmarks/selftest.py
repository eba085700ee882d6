"""Self-test of the benchmark harness at tiny scale.

    python3 benchmarks/selftest.py

Checks that every metric BENCHMARK.json names is printed, with its unit,
by both kinds of run of every workload; that the same seed gives the same
input hash and another seed another; and that a deliberately wrong pinned
count, a criterion that raises and output the gates cannot read are each
reported as a failure rather than a crash.  Exit 0 when all hold.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import workloads  # noqa: E402

errors: list[str] = []


def check(ok: bool, message: str) -> None:
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        errors.append(message)


def bench(workload: str, seed: int, trace: int) -> tuple[dict, dict, str]:
    """One tiny run of the real command: (last line, record, stderr)."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=170, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        check(False, f"{workload} trace {trace}: exit {done.returncode}\n{done.stderr}")
        return {}, {}, done.stderr
    return json.loads(lines[-1]), json.loads(lines[-2]), done.stderr


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            last, record, stderr = bench(workload, 1, trace)
            if not last:
                continue
            got = {name: m["unit"] for name, m in last["metrics"].items()}
            check(got == wanted[trace],
                  f"{workload} trace {trace}: metrics and units as in BENCHMARK.json"
                  + ("" if got == wanted[trace] else
                     f" (missing {sorted(set(wanted[trace]) - set(got))}, "
                     f"extra {sorted(set(got) - set(wanted[trace]))})"))
            table = {tuple(line.split()[::2]) for line in stderr.splitlines()}
            check(all((name, unit) in table for name, unit in wanted[trace].items()),
                  f"{workload} trace {trace}: every metric printed with its unit")
            check(last["correct"] and last["failed"] == 0 and last["attempted"] > 0,
                  f"{workload} trace {trace}: correct, {last['attempted']} attempted")
            check(all(k in record for k in ("seed", "input_sha256", "git_commit",
                                            "python", "nproc", "cpu_model", "work")),
                  f"{workload} trace {trace}: record has seed, inputs, environment, work")

    for make in (lambda s: inputs.genfun_inputs(s), lambda s: inputs.object_inputs(s, 30)):
        a, b, c = (inputs.input_hash(make(s)) for s in (7, 7, 8))
        check(a == b != c, "same seed, same input hash; other seed, other hash")

    wrong = dict(workloads.VERIFY_PINNED)
    wrong["3"] = ("yang-baxter", {"checked": 12927, "violations": 0})
    verify = workloads.Verify(pinned=wrong)
    try:
        result = verify.run_pass()
    except Exception as exc:  # the harness itself must not crash here
        check(False, f"wrong pinned count crashed the harness: {exc!r}")
    else:
        check(len(result["failures"]) == 1 and "criterion 3" in result["failures"][0],
              f"wrong pinned count reported as a failure: {result['failures']}")

    from coupledrpp import checks
    saved = checks.ALL_CHECKS

    def broken():
        raise AssertionError("deliberately broken criterion")

    checks.ALL_CHECKS = [(n, broken if n == "3" else fn) for n, fn in saved]
    try:
        result = workloads.Verify().run_pass()
    except Exception as exc:  # the harness itself must not crash here
        check(False, f"a raising criterion crashed the harness: {exc!r}")
    else:
        check(len(result["failures"]) == 9
              and "AssertionError" in result["failures"][0],
              f"a raising criterion fails every criterion: {result['failures'][:2]}")
    finally:
        checks.ALL_CHECKS = saved

    objects = workloads.Objects(1, count=2)
    try:
        problems = objects.gate(0, objects.units[0], {"svg": None})
    except Exception as exc:  # the harness itself must not crash here
        check(False, f"malformed output crashed the gates: {exc!r}")
    else:
        check(len(problems) == 1 and "unreadable output" in problems[0],
              f"malformed output reported as a failure: {problems}")

    print(f"{len(errors)} failed" if errors else "all checks passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
