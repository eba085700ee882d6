"""Runs one workload in its own process and prints its measurements.

Usage: python3 -I benchmarks/worker.py '<json spec>'
where the spec holds workload, seed, seconds, trace and tiny.  The last line
of stdout is a JSON object with the metrics, work counts and failures of
the run.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
# fresh interpreters timed before the workload, after it, and one between
# passes, so that they sample the machine over the whole run; one more,
# which writes the bytecode cache, goes first and is not timed
SETUP_SPAWNS = 5
# a fresh interpreter that imports the CLI and builds its parser, as every
# `coupledrpp` command does before any work
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import coupledrpp.cli as cli; cli.build_parser()")
# Calibration: the machine's speed swings by up to half for tens of
# seconds at a time with other processes' load, and every call of the
# package swings with it.  A fixed loop of the same kinds of Python work
# (tuples, dict lookups and stores, integer arithmetic) is timed about once
# per CALIBRATION_INTERVAL seconds of the run, between units, and the
# workload's times are reported at the reference speed: multiplied by
# CALIBRATION_REF_S over the run's median loop time.  Over the same six
# 40 s runs of each workload, IQR over median of pass_s was 12-18%
# unscaled and 2-6% scaled.
CALIBRATION_INTERVAL = 0.2
CALIBRATION_REF_S = 0.01
CALIBRATION_LOOP = 40_000
# inputs small enough for the harness self-test
TINY = {"genfun": {"target_pairs": 40, "pool_sizes": range(3, 5)},
        "objects": {"count": 15}, "verify": {}}


def setup_seconds() -> float:
    """Wall time of one fresh interpreter running SETUP_CODE."""
    argv = [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)]
    t0 = perf_counter()
    done = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          timeout=60, check=False)
    seconds = perf_counter() - t0
    if done.returncode != 0:
        sys.exit(f"importing the package failed:\n{done.stderr.decode()}")
    return seconds


def calibration_loop(n: int = CALIBRATION_LOOP) -> int:
    table: dict[tuple[int, int], int] = {}
    for i in range(n):
        key = (i & 63, i % 7)
        table[key] = table.get(key, 0) + i
    return len(table)


class Calibration:
    """Times the calibration loop once per CALIBRATION_INTERVAL seconds
    passed since the last `tick()`, so its samples follow the run's time."""

    def __init__(self):
        self.samples: list[float] = []
        self.last = perf_counter()

    def sample(self) -> None:
        # with the cyclic collector on, the loop's allocations would trigger
        # collections whose cost grows with the package's heap
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            calibration_loop()
            self.samples.append(perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()

    def tick(self) -> None:
        due = int((perf_counter() - self.last) / CALIBRATION_INTERVAL)
        if due:
            for _ in range(due):
                self.sample()
            self.last = perf_counter()

    def scale(self) -> float:
        """Reference speed over the run's speed."""
        return CALIBRATION_REF_S / statistics.median(self.samples)


def measure(workload, seconds: float, min_passes: int, between=None) -> dict:
    """Closed loop of passes for about `seconds`: a pass starts only if the
    typical pass so far still fits, and at least `min_passes` run.
    `between`, if given, is called after each pass."""
    passes = []
    start = perf_counter()
    while len(passes) < min_passes or (
            perf_counter() - start
            + statistics.median(p["seconds"] for p in passes) <= seconds):
        passes.append(workload.run_pass())
        if between is not None:
            between()
    return summarize(passes)


def summarize(passes: list[dict]) -> dict:
    return {"pass_seconds": [p["seconds"] for p in passes],
            "unit_seconds": [p["unit_seconds"] for p in passes],
            "failures": [f for p in passes for f in p["failures"]],
            "failed": sum(min(len(p["failures"]), len(p["unit_seconds"]))
                          for p in passes),
            "attempted": sum(len(p["unit_seconds"]) for p in passes),
            "stdout_bytes": statistics.median(p["stdout_bytes"] for p in passes)}


def unit_seconds(run: dict) -> list[float]:
    """Each unit's median time over the run's passes.  On a machine shared
    with other processes the speed swings within seconds; a unit's fastest
    time depends on whether one of its few samples fell in a quiet moment,
    and moved two to three times as much between runs as its median."""
    return [statistics.median(ts) for ts in zip(*run["unit_seconds"])]


def end_to_end(workload, run: dict, scale: float) -> dict:
    """pass_s is the sum of the unit times; p50 is over the units.  Times
    are multiplied by `scale`, rates divided by it."""
    units = [scale * u for u in unit_seconds(run)]
    pass_s = sum(units)
    return {
        "pass_s": (pass_s, "s"),
        "pairs_per_s": (workload.pairs_per_pass() / pass_s, "1/s"),
        "objects_per_s": (len(units) / pass_s, "1/s"),
        "object_ms_p50": (1e3 * statistics.median(units), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def tail_ms(run: dict) -> dict:
    """Nearest-rank p90 and p99 of the unit times, for the record only: on a
    shared machine the slowest units moved too much between runs to bound."""
    units = sorted(unit_seconds(run))
    return {f"p{q}": 1e3 * units[max(0, math.ceil(q / 100 * len(units)) - 1)]
            for q in (90, 99)}


def per_layer(tr: tracing.Tracer, passes: int, traced: dict, untraced: dict) -> dict:
    """Per-layer metrics of the traced passes, each per pass."""
    calls, incl, self_time = tr.calls, tr.group_time, tr.self_time
    rpps = tr.items["rpp_core.enumerate_rpps"] / passes
    distinct = sum(workloads.inputs.count_fillings(shape, bound, 1)
                   for shape, bound in tr.enum_bounds.items())
    t0_calls = calls["sliding.check_t0_constraints"]

    def ratio(a, b):
        return a / b if b else 0.0

    seconds = {
        "rpp_core.enumerate_s": incl["rpp_core.enumerate"],
        "rpp_core.to_slices_s": incl["rpp_core.to_slices"],
        "rpp_core.from_slices_s": incl["rpp_core.from_slices"],
        "rpp_core.validate_s": incl["rpp_core.validate"],
        "coupling.g_via_lozenges_s": incl["coupling.g_via_lozenges"],
        "coupling.g_via_vertex_s": incl["coupling.g_via_vertex"],
        "coupling.pair_genfun_s": self_time["coupling.pair_genfun_bruteforce"],
        "coupling.verify_colored_ybe_s": incl["coupling.verify_colored_ybe"],
        "vertex_model.verify_ybe_s": incl["vertex_model.verify_ybe"],
        "vertex_model.rpp_to_config_s": incl["vertex_model.rpp_to_config"],
        "vertex_model.config_weight_q_s": incl["vertex_model.config_weight_q"],
        "sliding.check_t0_s": incl["sliding.check_t0_constraints"],
        "sliding.slide_s": incl["sliding.slide"],
        "sliding.unslide_s": incl["sliding.unslide"],
        "qt_series.add_term_s": incl["qt_series.add_term"],
        "qt_series.hook_product_s": incl["qt_series.hook_product"],
        "partitions.self_s": tr.layer_self("partitions"),
        "render.pair_svg_s": incl["render.pair_svg"],
        **{f"checks.criterion_{n}_s": incl[f"checks.criterion_{n}"]
           for n in range(1, 9)},
        "cli.self_s": tr.layer_self("cli"),
    }
    counts = {
        "rpp_core.rpps_built": tr.items["rpp_core.enumerate_rpps"],
        "rpp_core.to_slices_calls": calls["rpp_core.to_slices"],
        "coupling.g_via_lozenges_calls": calls["coupling.g_via_lozenges"],
        "coupling.g_via_vertex_calls": calls["coupling.g_via_vertex"],
        "coupling.colored_ybe_evaluations": tr.counts["coupling.colored_ybe_evaluations"],
        "vertex_model.ybe_evaluations": tr.counts["vertex_model.ybe_evaluations"],
        "vertex_model.rpp_to_config_calls": calls["vertex_model.rpp_to_config"],
        "sliding.check_t0_calls": t0_calls,
        "qt_series.add_term_calls": calls["qt_series.add_term"],
        "partitions.normalize_calls": calls["partitions.normalize"],
        "partitions.interlaces_calls": calls["partitions.interlaces"],
        "partitions.border_strips_calls": calls["partitions.border_strips"],
        "render.svg_bytes": tr.counts["render.svg_bytes"],
    }
    out = {name: (value / passes, "s") for name, value in seconds.items()}
    out.update({name: (value / passes, unit_of(name)) for name, value in counts.items()})
    out.update({
        "rpp_core.rpps_built_per_distinct": (ratio(rpps, distinct), "ratio"),
        "rpp_core.to_slices_per_rpp": (
            ratio(calls["rpp_core.to_slices"] / passes, rpps), "ratio"),
        "sliding.t0_accept_ratio": (
            ratio(tr.counts["sliding.t0_accepted"], t0_calls), "ratio"),
        "cli.stdout_bytes": (traced["stdout_bytes"], "bytes"),
        "trace.overhead_s": (sum(unit_seconds(traced)) - sum(unit_seconds(untraced)), "s"),
        "failed_ratio": (ratio(traced["failed"] + untraced["failed"],
                               traced["attempted"] + untraced["attempted"]), "ratio"),
    })
    return out


def unit_of(name: str) -> str:
    return "bytes" if name.endswith("_bytes") else "count"


def run(spec: dict) -> dict:
    name = spec["workload"]
    workload = workloads.WORKLOADS[name](spec["seed"], **(TINY[name] if spec["tiny"] else {}))
    min_passes = 2 if spec["tiny"] else MIN_PASSES
    seconds = spec["seconds"]
    # the first pass sets the reference hashes; it is timed like the others,
    # and a unit it runs slower (cold caches) is one sample of its median
    if not spec["trace"]:
        setup_seconds()
        cal = Calibration()
        setup = [setup_seconds() for _ in range(SETUP_SPAWNS)]
        workload.after_unit = cal.tick

        def between():
            cal.tick()
            setup.append(setup_seconds())

        main = measure(workload, seconds, min_passes, between=between)
        workload.after_unit = None
        setup += [setup_seconds() for _ in range(SETUP_SPAWNS)]
        cal.tick()
        if not cal.samples:
            cal.sample()
        scale = cal.scale()
        # start-up is mostly file reads and imports, whose time did not
        # follow the calibration loop's, so it is reported as measured
        metrics = {"setup_s": (statistics.median(setup), "s"),
                   **end_to_end(workload, main, scale)}
        raw = {name: v for name, (v, _u) in end_to_end(workload, main, 1.0).items()}
        calibration = {"samples": len(cal.samples), "scale": scale,
                       "median_s": statistics.median(cal.samples),
                       "unscaled_metrics": raw}
        runs = [main]
    else:
        untraced = measure(workload, seconds / 2, min_passes)
        tr = tracing.Tracer()
        tr.install()
        try:
            traced = measure(workload, seconds / 2, 1)
        finally:
            tr.uninstall()
        metrics = per_layer(tr, len(traced["pass_seconds"]), traced, untraced)
        runs = [untraced, traced]
        main = traced
        setup = calibration = None
    failures = [f for r in runs for f in r["failures"]]
    result = {
        "work": workload.work(),
        "input_sha256": workloads.inputs.input_hash(workload.input_data),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "failures": failures[:20],
        "samples": {"passes": len(main["pass_seconds"]),
                    "units_per_pass": len(main["unit_seconds"][0]),
                    "pass_seconds": main["pass_seconds"],
                    "unit_ms_tail": tail_ms(main), "setup_spawns": setup,
                    "calibration": calibration},
    }
    return result


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
