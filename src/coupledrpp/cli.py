"""Command-line surface: hook tables, generating functions, YBE sweeps,
sliding, rendering, and the full verification suite.

Every command is deterministic (identical invocation, identical bytes) and
exits 0 on pass, 1 on a failed verification, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from . import checks, coupling, partitions, render, rpp_core, sliding, vertex_model
from .qt_series import QTSeries, hook_count, hook_product

BUDGET_STATES = 10 ** 7
# sites of one drawn tiling, configuration or Maya diagram; cells of a shape
SITE_BOUND = 2 ** 18
# characters of an argument, or of why it was refused, that a usage error echoes
ECHO_CHARS = 100


def _usage_error(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _clip(text: str) -> str:
    """The text, or its first ECHO_CHARS characters and `...` if longer."""
    return text if len(text) <= ECHO_CHARS else text[:ECHO_CHARS] + "..."


def _file_error(exc: OSError):
    """A usage error with the message of exc, its file name `_clip`ped, so
    a long path gives a short message and an ordinary one is echoed whole."""
    if isinstance(exc.filename, str):
        exc.filename = _clip(exc.filename)
    _usage_error(str(exc))


def _checked(what: str, fn, *args):
    """fn(*args), where fn parses or validates input: malformed input (bad
    JSON, JSON nested deeper than the parser recurses, a missing key, a
    value the validation rejects) is a usage error, not a traceback.  The
    message echoes what was read and why it failed, each `_clip`ped, so a
    long argument gives a short message.  Failed verifications are return
    codes, never caught."""
    try:
        return fn(*args)
    except KeyError as exc:
        _usage_error(f"bad {_clip(what)}: missing key {_clip(str(exc))}")
    except (TypeError, ValueError, RecursionError) as exc:
        _usage_error(f"bad {_clip(what)}: {_clip(str(exc))}")


def _parse_shape(text: str) -> tuple[int, ...]:
    """The shape, a JSON list, unless it has more than SITE_BOUND cells:
    its hook table and zero filling would each be that large."""
    if text is None:
        _usage_error("a --shape argument is required here")
    what = f"shape {text!r}"
    shape = _checked(what, json.loads, text)
    lam = _checked(what, partitions.normalize, shape)
    _checked(what, rpp_core.check_json_lists, {"shape": shape}, "shape")
    if sum(lam) > SITE_BOUND:
        _usage_error(f"the shape has {sum(lam)} cells, more than {SITE_BOUND}")
    return lam


def _read_input(path: str) -> str:
    if path is None:
        _usage_error("an --input argument is required here")
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        _file_error(exc)


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
    so its count grows with the bound: a bound over the budget is refused
    without counting, and otherwise the count is taken at the bounds 64,
    128, ... below max_volume, then at max_volume, and the first count over
    the budget is a lower bound on the true one.  Up to 64, the one count
    at max_volume is cheap and saves the calls at the smaller bounds."""
    if max_volume < 0:
        _usage_error(f"--max-volume must be >= 0, got {max_volume}")
    colors = 2 if paired else 1
    if lam and max_volume >= BUDGET_STATES:
        count = f"more than {max_volume}"
    else:
        bound = 64
        while bound < max_volume:
            count = hook_count(lam, bound, colors)
            if count > BUDGET_STATES:
                count = f"more than {count}"
                break
            bound *= 2
        else:
            count = hook_count(lam, max_volume, colors)
            if count <= BUDGET_STATES:
                return None
    return (f"{count} {'pairs' if paired else 'fillings'} exceed the "
            f"{BUDGET_STATES} budget")


def _drawable(rpp: rpp_core.RPP) -> rpp_core.RPP:
    """The filling, unless its tiling has more than SITE_BOUND sites: that
    is a usage error, found from the slice chain (`render.tiling_size`)
    before any mask is built.  Its configuration has fewer vertices."""
    sites = render.tiling_size(rpp)
    if sites > SITE_BOUND:
        _usage_error(f"the filling's tiling has {sites} sites, more than {SITE_BOUND}")
    return rpp


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
    else:
        direct = QTSeries(n)
        for rpp in rpp_core.enumerate_rpps(lam, n):
            direct.add_term(rpp.volume, 0)
    product = hook_product(lam, n, 2 if args.paired else 1)
    ok = direct == product
    # "bruteforce" / "brute force" name the direct sum, whichever engine made it
    data = {"shape": list(lam), "max_volume": n, "paired": args.paired,
            "bruteforce": direct.terms(), "hook_product": product.terms(),
            "status": "pass" if ok else "fail"}
    # each line sorts every term of its series: built for text output only
    _emit(data, args.format, () if args.format == "json" else [
        f"brute force : {direct}",
        f"hook product: {product}",
        f"status: {data['status']}",
    ])
    return 0 if ok else 1


def _parse_samples(text: str, colors: int):
    """At least one exact point, (x, y) for one color or (x, y, t) for two;
    the sweeps divide by x resp. t, so that entry must be nonzero."""
    from fractions import Fraction
    arity, divisor, name = (2, 0, "x") if colors == 1 else (3, 2, "t")

    def parse():
        out = []
        for row in json.loads(text):
            if len(row) != arity:
                raise ValueError(f"sample {row} needs {arity} entries")
            try:
                point = tuple(Fraction(str(v)) for v in row)
            except ZeroDivisionError:
                raise ValueError(f"sample {row} has a zero denominator") from None
            if point[divisor] == 0:
                raise ValueError(f"sample {row} has {name} = 0")
            out.append(point)
        if not out:
            raise ValueError("no sample points")
        return out

    return _checked(f"samples {text!r}", parse)


def cmd_ybe(args) -> int:
    colors = 1 if args.mode == "one-color" else 2
    samples = (_parse_samples(args.samples, colors) if args.samples
               else vertex_model.YBE_SAMPLES[colors])
    kinds = ((vertex_model.WHITE_WHITE, vertex_model.WHITE_GRAY) if colors == 1
             else (vertex_model.WHITE_GRAY,))
    boundaries = None
    if args.smoke:  # the first sample at the boundary with every edge empty
        samples, boundaries = samples[:1], vertex_model.ybe_boundaries(colors)[:1]
    reports = [vertex_model.verify_ybe(kind, colors, samples, boundaries)
               for kind in kinds]
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
        fillings = list(rpp_core.enumerate_rpps(lam, args.max_volume))
        count, failure = sliding.round_trips(
            fillings, rpp_core.pairs_within(fillings, args.max_volume))
        if failure is not None:
            at = (failure.rows if isinstance(failure, rpp_core.RPP)
                  else f"{failure.blue.rows} / {failure.red.rows}")
            print(f"status: fail at {at}")
            return 1
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
        if 2 * width > SITE_BOUND:
            _usage_error(f"a Maya diagram of half-width {width} has {2 * width} "
                         f"sites, more than {SITE_BOUND}")
        out = render.maya_ascii(_checked("--half-width", partitions.maya, lam, width),
                                width)
    elif args.object in ("rpp", "config"):
        if args.input:
            rpp = _checked("filling", rpp_core.rpp_from_json, _read_input(args.input))
        else:
            rpp = rpp_core.zero_rpp(_parse_shape(args.shape))
        if args.object == "config":
            out = vertex_model.config_to_json(
                vertex_model.rpp_to_config(rpp.shape, _drawable(rpp)))
        else:
            out = (render.rpp_svg(_drawable(rpp)) if args.format == "svg"
                   else render.rpp_ascii(rpp))
    elif args.object == "pair":
        pair = _checked("pair", coupling.pair_from_json, _read_input(args.input))
        if args.format == "svg":
            _drawable(pair.blue)
            _drawable(pair.red)
            out = render.pair_svg(pair)
        else:
            out = "blue:\n{}\nred:\n{}".format(
                render.rpp_ascii(pair.blue), render.rpp_ascii(pair.red))
    else:  # hook table drawing
        out = render.hook_ascii(_parse_shape(args.shape))
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(out + "\n")
        except OSError as exc:
            _file_error(exc)
    else:
        print(out)
    return 0


def cmd_verify_all(args) -> int:
    budget = args.budget_seconds
    if budget is not None and not budget >= 0:  # NaN compares false
        _usage_error(f"--budget-seconds must be a number >= 0, got {budget}")
    report = checks.run_all(budget)
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
    """A new parser of the whole command line on every call."""
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


@cache
def _parser() -> argparse.ArgumentParser:
    """The one parser `main` uses, built on its first call and kept for the
    process.  Parsing leaves no state on it: each call gets a fresh
    namespace, and help and errors go to the sys.stdout/sys.stderr of
    that moment, so output and exit codes are those of a fresh parser."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
