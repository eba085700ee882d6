"""Command-line surface: hook tables, generating functions, YBE sweeps,
sliding, rendering, and the full verification suite.

Every command is deterministic (identical invocation, identical bytes) and
exits 0 on pass, 1 on a failed verification, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import checks, coupling, partitions, render, rpp_core, sliding, vertex_model
from .qt_series import QTSeries, hook_count, hook_product_pair, hook_product_single

BUDGET_STATES = 10 ** 7


def _usage_error(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _checked(what: str, fn, *args):
    """fn(*args), where fn parses or validates input: malformed input (bad
    JSON, a missing key, a value the validation rejects) is a usage error,
    not a traceback.  Failed verifications are return codes, never caught."""
    try:
        return fn(*args)
    except KeyError as exc:
        _usage_error(f"bad {what}: missing key {exc}")
    except (TypeError, ValueError) as exc:
        _usage_error(f"bad {what}: {exc}")


def _parse_shape(text: str) -> tuple[int, ...]:
    if text is None:
        _usage_error("a --shape argument is required here")
    return _checked(f"shape {text!r}", lambda: partitions.normalize(json.loads(text)))


def _read_input(path: str) -> str:
    if path is None:
        _usage_error("an --input argument is required here")
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        _usage_error(str(exc))


def _emit(data, fmt: str, text_lines) -> None:
    if fmt == "json":
        print(json.dumps(data, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _over_budget(lam, max_volume: int, paired: bool) -> str | None:
    """Why a run over every filling, or pair, with volume <= max_volume is
    refused, or None when their exact number (the hook product at t = 1)
    is within the budget.  A nonempty shape has a filling of every volume,
    so a bound over the budget is refused without counting."""
    if max_volume < 0:
        _usage_error(f"--max-volume must be >= 0, got {max_volume}")
    if lam and max_volume >= BUDGET_STATES:
        count = f"more than {max_volume}"
    else:
        count = hook_count(lam, max_volume, 2 if paired else 1)
        if count <= BUDGET_STATES:
            return None
    return (f"{count} {'pairs' if paired else 'fillings'} exceed the "
            f"{BUDGET_STATES} budget")


def cmd_hook(args) -> int:
    lam = _parse_shape(args.shape)
    table = partitions.hook_table(lam)
    _emit({"shape": list(lam), "hooks": table}, args.format,
          [render.hook_ascii(lam)])
    return 0


def cmd_genfun(args) -> int:
    lam = _parse_shape(args.shape)
    n = args.max_volume
    refusal = _over_budget(lam, n, args.paired)
    if refusal and not args.force:
        print(f"error: {refusal}; rerun with --force", file=sys.stderr)
        return 2
    if args.paired:
        direct = coupling.pair_genfun_transfer(lam, n)
        product = hook_product_pair(lam, n)
    else:
        direct = QTSeries(n)
        for rpp in rpp_core.enumerate_rpps(lam, n):
            direct.add_term(rpp.volume, 0)
        product = hook_product_single(lam, n)
    ok = direct == product
    # "bruteforce" / "brute force" name the direct sum, whichever engine made it
    data = {"shape": list(lam), "max_volume": n, "paired": args.paired,
            "bruteforce": direct.terms(), "hook_product": product.terms(),
            "status": "pass" if ok else "fail"}
    _emit(data, args.format, [
        f"brute force : {direct}",
        f"hook product: {product}",
        f"status: {data['status']}",
    ])
    return 0 if ok else 1


def _parse_samples(text: str, arity: int):
    """At least one exact point, (x, y) for one color or (x, y, t) for two;
    the sweeps divide by x resp. t, so that entry must be nonzero."""
    divisor, name = (0, "x") if arity == 2 else (2, "t")

    def parse():
        out = []
        for row in json.loads(text):
            if len(row) != arity:
                raise ValueError(f"sample {row} needs {arity} entries")
            point = tuple(Fraction(str(v)) for v in row)
            if point[divisor] == 0:
                raise ValueError(f"sample {row} has {name} = 0")
            out.append(point)
        if not out:
            raise ValueError("no sample points")
        return out

    return _checked(f"samples {text!r}", parse)


def cmd_ybe(args) -> int:
    if args.mode == "one-color":
        samples = (_parse_samples(args.samples, 2) if args.samples
                   else vertex_model.DEFAULT_SAMPLES)
        if args.smoke:
            reports = []
            for kind in (vertex_model.WHITE_WHITE, vertex_model.WHITE_GRAY):
                tables = vertex_model.ybe_tables(kind, *samples[0])
                lhs, rhs = (side.get((0,) * 6, 0)
                            for side in vertex_model.ybe_sweep(*tables))
                reports.append({"kind": kind, "checked": 1,
                                "violations": [] if lhs == rhs else
                                [{"boundary": [0] * 6, "lhs": str(lhs), "rhs": str(rhs)}],
                                "passed": lhs == rhs})
        else:
            reports = [vertex_model.verify_ybe(vertex_model.WHITE_WHITE, samples),
                       vertex_model.verify_ybe(vertex_model.WHITE_GRAY, samples)]
    else:
        samples = (_parse_samples(args.samples, 3) if args.samples
                   else coupling.COLORED_SAMPLES)
        reports = [coupling.verify_colored_ybe(samples)]
    passed = all(r["passed"] for r in reports)
    data = {"command": "ybe", "mode": args.mode,
            "status": "pass" if passed else "fail", "reports": reports}
    _emit(data, args.format, [
        *(f"{r['kind']}: {'pass' if r['passed'] else 'fail'} "
          f"({r['checked']} checks, {len(r['violations'])} violations)"
          for r in reports),
        f"status: {data['status']}",
    ])
    return 0 if passed else 1


def cmd_slide(args) -> int:
    if args.roundtrip:
        lam = _parse_shape(args.shape)
        refusal = _over_budget(lam, args.max_volume, paired=True)
        if refusal:
            print(f"error: {refusal}", file=sys.stderr)
            return 2
        count = 0
        for rpp in rpp_core.enumerate_rpps(lam, args.max_volume):
            pair = sliding.unslide(rpp)
            if sliding.slide(pair) != rpp:
                print(f"status: fail at {rpp.rows}")
                return 1
            count += 1
        for blue, red in rpp_core.enumerate_pairs(lam, args.max_volume):
            pair = coupling.make_pair(blue, red)
            if not sliding.check_t0_constraints(pair):
                continue
            if sliding.unslide(sliding.slide(pair)) != pair:
                print(f"status: fail at {blue.rows} / {red.rows}")
                return 1
            count += 1
        print(f"round trips: {count}")
        print("status: pass")
        return 0
    text = _read_input(args.input)
    if args.direction == "slide":
        pair = _checked("pair", coupling.pair_from_json, text)
        if not sliding.check_t0_constraints(pair):
            _usage_error("the pair has g > 0; only g = 0 pairs slide")
        print(rpp_core.rpp_to_json(sliding.slide(pair)))
    else:
        rpp = _checked("filling", rpp_core.rpp_from_json, text)
        print(coupling.pair_to_json(sliding.unslide(rpp)))
    return 0


def cmd_render(args) -> int:
    if args.object == "maya":
        lam = _parse_shape(args.shape)
        width = args.half_width
        if width is None:
            width = max(len(lam), lam[0] if lam else 0) + 2
        out = render.maya_ascii(_checked("--half-width", partitions.maya, lam, width))
    elif args.object == "rpp":
        if args.input:
            rpp = _checked("filling", rpp_core.rpp_from_json, _read_input(args.input))
        else:
            rpp = rpp_core.zero_rpp(_parse_shape(args.shape))
        out = render.rpp_svg(rpp) if args.format == "svg" else render.rpp_ascii(rpp)
    elif args.object == "pair":
        pair = _checked("pair", coupling.pair_from_json, _read_input(args.input))
        if args.format == "svg":
            out = render.pair_svg(pair)
        else:
            out = "blue:\n{}\nred:\n{}".format(
                render.rpp_ascii(pair.blue), render.rpp_ascii(pair.red))
    elif args.object == "config":
        if args.input:
            rpp = _checked("filling", rpp_core.rpp_from_json, _read_input(args.input))
        else:
            rpp = rpp_core.zero_rpp(_parse_shape(args.shape))
        out = vertex_model.config_to_json(vertex_model.rpp_to_config(rpp.shape, rpp))
    else:  # hook table drawing
        out = render.hook_ascii(_parse_shape(args.shape))
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(out + "\n")
        except OSError as exc:
            _usage_error(str(exc))
    else:
        print(out)
    return 0


def cmd_verify_all(args) -> int:
    report = checks.run_all(args.budget_seconds)
    if args.format == "json":
        print(json.dumps(report, sort_keys=True))
    else:
        for r in report["results"]:
            line = (f"criterion {r['criterion']} {r['name']}: "
                    f"{'pass' if r['passed'] else 'fail'} ({r['elapsed']}s)")
            if not r["passed"]:
                line += f" details={json.dumps(r['details'], sort_keys=True)}"
            print(line)
        for number in report["skipped"]:
            print(f"criterion {number}: skipped (budget exhausted)")
        print(f"status: {report['status']} ({report['elapsed']}s)")
    return 0 if report["status"] == "pass" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coupledrpp",
        description="Exact verification toolkit for interacting reverse "
                    "plane partitions and their colored vertex model.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hook", help="hook-length table of a shape")
    p.add_argument("--shape", required=True, help="JSON list, e.g. '[4,3,1]'")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(fn=cmd_hook)

    about = ("generating function summed directly vs the hook product; the "
             "'bruteforce' field holds the direct sum")
    p = sub.add_parser("genfun", help=about, description=about)
    p.add_argument("--shape", required=True)
    p.add_argument("--max-volume", type=int, required=True)
    p.add_argument("--paired", action="store_true",
                   help="pairs with their q,t statistic, summed by the "
                        "row-transfer engine; without it, single fillings "
                        "are enumerated")
    p.add_argument("--force", action="store_true",
                   help=f"run even when the exact count of fillings (pairs) "
                        f"exceeds {BUDGET_STATES}")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(fn=cmd_genfun)

    p = sub.add_parser("ybe", help="exhaustive Yang-Baxter sweeps")
    p.add_argument("--mode", choices=["one-color", "two-color"],
                   default="one-color")
    p.add_argument("--samples", help="JSON list of exact points, e.g. "
                                     "'[[\"1/2\",\"1/3\"]]'")
    p.add_argument("--smoke", action="store_true",
                   help="only the empty boundary at one sample")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(fn=cmd_ybe)

    p = sub.add_parser("slide", help="slide a g=0 pair to one filling, or back")
    p.add_argument("--direction", choices=["slide", "unslide"], default="slide")
    p.add_argument("--input", default="-", help="JSON file or - for stdin")
    p.add_argument("--roundtrip", action="store_true",
                   help="exhaustive round-trip check instead of one input")
    p.add_argument("--shape", help="shape for --roundtrip")
    p.add_argument("--max-volume", type=int, default=6)
    p.set_defaults(fn=cmd_slide)

    p = sub.add_parser("render", help="ASCII or SVG pictures")
    p.add_argument("--object", choices=["maya", "rpp", "pair", "config", "hook"],
                   required=True)
    p.add_argument("--shape", help="shape (maya, hook, or the zero rpp)")
    p.add_argument("--input", help="JSON file or - for rpp/pair objects")
    p.add_argument("--half-width", type=int)
    p.add_argument("--format", choices=["ascii", "svg"], default="ascii")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(fn=cmd_render)

    p = sub.add_parser("verify-all", help="run the full acceptance suite")
    p.add_argument("--budget-seconds", type=float, default=None)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(fn=cmd_verify_all)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
