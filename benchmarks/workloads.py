"""The benchmark workloads: one pass over seeded inputs, with correctness gates.

A workload is a closed loop in one process: the next call starts when the
previous one returns.  Each pass is split into units, the smallest results
a user waits for (an acceptance criterion, a `genfun` call, one object),
and every unit is timed, checked, and hashed.  A unit fails when a gate
fails, when the program raises, or when its output hash differs from the
one the first pass produced.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from time import perf_counter

import inputs

# verify-all details at the published scale.  A change to any of these is a
# change to what the acceptance suite checks, and counts as a failure here.
VERIFY_PINNED = {
    "1": ("single-genfun", {"mismatched": [], "shapes": 7, "trunc": 10}),
    "2": ("pair-genfun", {"mismatched": [], "shapes": 5, "trunc": 8}),
    "3": ("yang-baxter", {"checked": 12928, "violations": 0}),
    "4": ("weight-bijections", {"failures": 0, "pairs": 2044, "singles": 1571}),
    "5": ("worked-values", {"failures": []}),
    "6": ("g-oracles", {"discrepancies": 0, "pairs": 2044}),
    "7": ("sliding", {"failures": []}),
    "8": ("internal-consistency", {"failures": []}),
}
# criterion 2 runs the paired generating function on these shapes at N=8
VERIFY_PAIR_SHAPES = ((1,), (2,), (1, 1), (2, 1), (2, 2))
VERIFY_YBE_BOUNDARIES = 64 * 2 + 4096


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(cli, argv) -> tuple[int, str]:
    """cli.main in-process with stdout captured; usage errors give their code."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, buf.getvalue()


class Workload:
    """Inputs, exact work counts and the pass runner of one workload.

    Subclasses define `units` (one entry per unit of a pass), `run_unit`
    (the timed program calls) and `check_unit` (the gates, untimed).
    """

    name = ""

    def __init__(self):
        self.reference: list[str | None] = []
        self.first_pass = True
        self.stdout_bytes = 0
        # called after each unit, outside its timing
        self.after_unit = None

    @property
    def input_data(self):
        return self.units

    def work(self) -> dict:
        return {}

    def pairs_per_pass(self) -> int:
        raise NotImplementedError

    def gate(self, i: int, unit, out) -> list[str]:
        """The unit's gates, then its output hash against the first pass's.
        `out` is the exception when the program raised; output the gates
        cannot read fails the unit instead of stopping the run."""
        if isinstance(out, Exception):
            problems, hashed = [f"{type(out).__name__}: {out}"], None
        else:
            try:
                problems, hashed = self.check_unit(unit, out)
            except Exception as exc:  # output the gates cannot read
                problems, hashed = [f"unreadable output: {type(exc).__name__}: {exc}"], None
        if self.first_pass:
            self.reference.append(hashed)
        elif hashed != self.reference[i]:
            problems.append("output differs from the first pass")
        return problems

    def run_pass(self) -> dict:
        """One pass; returns its wall time, per-unit times and failures."""
        times, failures = [], []
        self.stdout_bytes = 0
        self.first_pass = not self.reference
        start = perf_counter()
        for i, unit in enumerate(self.units):
            t0 = perf_counter()
            try:
                out = self.run_unit(unit)
            except Exception as exc:  # the program raised
                out = exc
            times.append(perf_counter() - t0)
            if self.after_unit is not None:
                self.after_unit()
            problems = self.gate(i, unit, out)
            if problems:
                failures.append(f"{self.label(unit)}: {'; '.join(problems)}")
        return {"seconds": perf_counter() - start, "unit_seconds": times,
                "failures": failures, "stdout_bytes": self.stdout_bytes}


class Verify(Workload):
    """`verify-all --format json`: the eight acceptance criteria."""

    name = "verify"

    def __init__(self, seed: int = 0, pinned=VERIFY_PINNED):
        super().__init__()
        from coupledrpp import checks, cli
        self.cli = cli
        self.pinned = pinned
        self.units = sorted(pinned)
        self._criterion_seconds: dict[str, float] = {}
        # time each criterion where run_all calls it, so a unit's latency
        # is its criterion's own wall time
        checks.ALL_CHECKS = [(number, self._timed(number, fn))
                             for number, fn in checks.ALL_CHECKS]

    def _timed(self, number, fn):
        def timed():
            t0 = perf_counter()
            try:
                return fn()
            finally:
                self._criterion_seconds[number] = perf_counter() - t0
                if self.after_unit is not None:
                    self.after_unit()
        return timed

    @property
    def input_data(self):
        return list(inputs.VERIFY_ARGV)

    def label(self, unit):
        return f"criterion {unit}"

    def pairs_per_pass(self) -> int:
        # pairs whose g the criteria compute: criterion 2's paired
        # generating functions, then criteria 4 and 6
        c2 = sum(inputs.count_fillings(lam, 8, 2) for lam in VERIFY_PAIR_SHAPES)
        return c2 + self.pinned["4"][1]["pairs"] + self.pinned["6"][1]["pairs"]

    def work(self) -> dict:
        return {"criteria": len(self.units), "pairs_with_g": self.pairs_per_pass(),
                "ybe_boundaries": VERIFY_YBE_BOUNDARIES,
                "ybe_evaluations": self.pinned["3"][1]["checked"]}

    def run_pass(self) -> dict:
        self._criterion_seconds.clear()
        failures = []
        start = perf_counter()
        try:
            code, out = run_cli(self.cli, inputs.VERIFY_ARGV)
        except Exception as exc:  # the program raised
            # no report, so every criterion below fails as missing
            code, out = None, ""
            failures.append(f"verify-all raised {type(exc).__name__}: {exc}")
        seconds = perf_counter() - start
        self.stdout_bytes = len(out.encode())
        try:
            report = json.loads(out)
            results = {r["criterion"]: r for r in report["results"]}
            if code != 0 or report["status"] != "pass" or report["skipped"]:
                failures.append(f"verify-all: exit {code}, status "
                                f"{report['status']}, skipped {report['skipped']}")
        except (ValueError, KeyError, TypeError) as exc:
            results = {}
            if code is not None:
                failures.append(f"verify-all: unreadable report ({exc}); exit {code}")
        self.first_pass = not self.reference
        for i, number in enumerate(self.units):
            problems = self.gate(i, number, results.get(number))
            if problems:
                failures.append(f"criterion {number}: {'; '.join(problems)}")
        times = [self._criterion_seconds.get(n, 0.0) for n in self.units]
        return {"seconds": seconds, "unit_seconds": times, "failures": failures,
                "stdout_bytes": self.stdout_bytes}

    def check_unit(self, number, result):
        if result is None:
            return ["missing from the report"], None
        name, details = self.pinned[number]
        problems = []
        if not result.get("passed"):
            problems.append("did not pass")
        if result.get("name") != name:
            problems.append(f"name {result.get('name')!r}, expected {name!r}")
        if result.get("details") != details:
            problems.append(f"details {json.dumps(result.get('details'), sort_keys=True)}"
                            f", expected {json.dumps(details, sort_keys=True)}")
        stable = {k: v for k, v in result.items() if k != "elapsed"}
        return problems, digest(json.dumps(stable, sort_keys=True))


class Genfun(Workload):
    """`genfun --paired --force --format json` over the seeded shapes."""

    name = "genfun"

    def __init__(self, seed: int, **scale):
        super().__init__()
        from coupledrpp import cli
        self.cli = cli
        self.units = inputs.genfun_inputs(seed, **scale)

    def label(self, unit):
        return f"genfun {unit['shape']} N={unit['max_volume']}"

    def pairs_per_pass(self) -> int:
        return sum(u["pairs"] for u in self.units)

    def work(self) -> dict:
        return {"calls": [{k: u[k] for k in ("shape", "max_volume", "pairs", "rpps")}
                          for u in self.units],
                "pairs": self.pairs_per_pass(),
                "rpps": sum(u["rpps"] for u in self.units)}

    def run_unit(self, unit):
        code, out = run_cli(self.cli, inputs.genfun_argv(unit))
        self.stdout_bytes += len(out.encode())
        return code, out

    def check_unit(self, unit, result):
        code, out = result
        problems = []
        if code != 0:
            problems.append(f"exit {code}")
        try:
            data = json.loads(out)
            if data["status"] != "pass":
                problems.append(f"status {data['status']!r}")
            if (data["shape"], data["max_volume"]) != (unit["shape"], unit["max_volume"]):
                problems.append("echoed shape or bound differs from the input")
            for key in ("bruteforce", "hook_product"):
                total = sum(c for _n, _k, c in data[key])
                if total != unit["pairs"]:
                    problems.append(f"{key} sums to {total} pairs, expected {unit['pairs']}")
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"unreadable output ({exc})")
        return problems, digest(out)


class Objects(Workload):
    """Seeded pairs and single fillings through the per-object path."""

    name = "objects"

    def __init__(self, seed: int, **scale):
        super().__init__()
        from coupledrpp import coupling, render, rpp_core, sliding, vertex_model
        self.coupling, self.render, self.rpp_core = coupling, render, rpp_core
        self.sliding, self.vertex_model = sliding, vertex_model
        self.units = inputs.object_inputs(seed, **scale)
        self.g_zero = 0

    def label(self, unit):
        return f"object {unit['index']}"

    def pairs_per_pass(self) -> int:
        return len(self.units)

    def work(self) -> dict:
        return {"objects": len(self.units),
                "cells": sum(sum(u["shape"]) for u in self.units),
                "shape_repeat_share": inputs.repeat_share([u["shape"] for u in self.units]),
                "g_zero_share": self.g_zero / len(self.units) if self.units else 0.0}

    def run_unit(self, unit):
        coupling, sliding, rpp_core = self.coupling, self.sliding, self.rpp_core
        pair = coupling.pair_from_json(unit["pair"])
        rpp = rpp_core.rpp_from_json(unit["rpp"])
        g_vertex = coupling.g_via_vertex(pair)
        g_lozenges = coupling.g_via_lozenges(pair)
        t0 = sliding.check_t0_constraints(pair)
        merged = sliding.slide(pair) if t0 else None
        return {
            "pair": pair, "rpp": rpp, "g_vertex": g_vertex,
            "g_lozenges": g_lozenges, "t0": t0,
            "merged": rpp_core.rpp_to_json(merged) if t0 else "",
            "pair_back": sliding.unslide(merged) if t0 else None,
            "rpp_back": sliding.slide(sliding.unslide(rpp)),
            "config": self.vertex_model.config_to_json(
                self.vertex_model.rpp_to_config(rpp.shape, rpp)),
            "svg": self.render.pair_svg(pair),
            "pair_json": coupling.pair_to_json(pair),
            "rpp_json": rpp_core.rpp_to_json(rpp),
        }

    def check_unit(self, unit, out):
        problems = []
        if out["g_vertex"] != out["g_lozenges"]:
            problems.append(f"g oracles disagree: vertex {out['g_vertex']}, "
                            f"lozenges {out['g_lozenges']}")
        if out["t0"] != (out["g_lozenges"] == 0):
            problems.append(f"t0 constraints {out['t0']} with g = {out['g_lozenges']}")
        if out["t0"] and out["pair_back"] != out["pair"]:
            problems.append("unslide(slide(pair)) != pair")
        if out["rpp_back"] != out["rpp"]:
            problems.append("slide(unslide(rpp)) != rpp")
        if json.loads(out["pair_json"]) != json.loads(unit["pair"]):
            problems.append("pair JSON does not round-trip")
        if json.loads(out["rpp_json"]) != json.loads(unit["rpp"]):
            problems.append("rpp JSON does not round-trip")
        if json.loads(out["config"]).get("shape") != unit["shape"]:
            problems.append("configuration JSON names another shape")
        if not (out["svg"].startswith("<svg") and out["svg"].endswith("</svg>")):
            problems.append("pair SVG is not one <svg> element")
        if self.first_pass:
            self.g_zero += out["g_lozenges"] == 0
        return problems, digest("|".join([str(out["g_lozenges"]), str(out["t0"]),
                                          out["merged"], out["config"], out["svg"]]))


WORKLOADS = {w.name: w for w in (Verify, Genfun, Objects)}
