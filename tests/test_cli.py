import hashlib
import io
import json
import os
import random
import subprocess
import sys
import traceback
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from coupledrpp import cli, coupling, partitions, render, rpp_core, sliding, vertex_model

WORKED_PAIR_JSON = json.dumps({
    "shape": [4, 4, 3, 3, 1],
    "blue": {"shape": [4, 4, 3, 3, 1],
             "rows": [[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 2], [0, 1, 4], [0]]},
    "red": {"shape": [4, 4, 3, 3, 1],
            "rows": [[0, 0, 0, 3], [0, 0, 2, 4], [0, 1, 4], [2, 4, 4], [3]]},
})


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def test_hook_text(capsys):
    code, out = run(capsys, "hook", "--shape", "[4,3,1]")
    assert code == 0
    assert out.splitlines() == ["1", "4 2 1", "6 4 3 1"]


def test_hook_json(capsys):
    code, out = run(capsys, "hook", "--shape", "[2,2]", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"shape": [2, 2], "hooks": [[3, 2], [2, 1]]}


def test_hook_empty(capsys):
    code, out = run(capsys, "hook", "--shape", "[]")
    assert code == 0 and "empty" in out


def test_bad_shape_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["hook", "--shape", "not json"])
    assert err.value.code == 2


def test_missing_input_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["render", "--object", "pair", "--input", "/nonexistent.json"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        cli.main(["render", "--object", "maya"])  # no shape given
    assert err.value.code == 2


def test_bad_samples_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["ybe", "--samples", '[["1/2"]]'])
    assert err.value.code == 2


def cli_process(*argv, module="coupledrpp.cli"):
    """The CLI in a fresh interpreter, so an uncaught exception shows as
    its traceback and exit status."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, "-m", module, *argv],
                          env=env, capture_output=True, text=True, timeout=60)


def test_package_runs_as_a_module():
    run = cli_process("hook", "--shape", "[2,1]", module="coupledrpp")
    assert run.returncode == 0, run.stderr
    assert run.stdout == "1\n3 1\n"


def test_zero_x_sample_exits_2():
    run = cli_process("ybe", "--samples", '[["0","1"]]')
    assert run.returncode == 2 and "Traceback" not in run.stderr
    assert "x = 0" in run.stderr


def test_zero_x_sample_passes_with_two_colors(capsys):
    # the colored tables divide only by t
    code, out = run(capsys, "ybe", "--mode", "two-color",
                    "--samples", '[["0","1/3","2/5"]]')
    assert code == 0 and out.splitlines()[-1] == "status: pass"


def test_zero_t_sample_exits_2():
    run = cli_process("ybe", "--mode", "two-color", "--samples", '[["1","1","0"]]')
    assert run.returncode == 2 and "Traceback" not in run.stderr
    assert "t = 0" in run.stderr


@pytest.mark.parametrize("mode,samples", [("one-color", '[["1/0","1"]]'),
                                          ("two-color", '[["1","1/0","1"]]')],
                         ids=["one-color", "two-color"])
def test_zero_denominator_sample_exits_2(mode, samples):
    run = cli_process("ybe", "--mode", mode, "--smoke", "--samples", samples)
    assert run.returncode == 2 and "Traceback" not in run.stderr
    assert "zero denominator" in run.stderr


def test_empty_samples_exit_2():
    run = cli_process("ybe", "--smoke", "--samples", "[]")
    assert run.returncode == 2 and "Traceback" not in run.stderr
    assert "no sample points" in run.stderr


def test_genfun_single(capsys):
    code, out = run(capsys, "genfun", "--shape", "[2,1]", "--max-volume", "8")
    assert code == 0
    assert "status: pass" in out


def test_genfun_paired_json(capsys):
    code, out = run(capsys, "genfun", "--shape", "[2,1]", "--max-volume", "6",
                    "--paired", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "pass"
    assert data["bruteforce"] == data["hook_product"]


# stdout of this call before the row-transfer engine replaced the
# pair-by-pair sum; the engine must reproduce it byte for byte
PAIRED_21_N6_JSON = (
    '{"bruteforce": [[0, 0, 1], [1, 0, 2], [1, 1, 2], [2, 0, 3], [2, 1, 4], '
    '[2, 2, 3], [3, 0, 5], [3, 1, 7], [3, 2, 6], [3, 3, 4], [4, 0, 7], '
    '[4, 1, 12], [4, 2, 11], [4, 3, 8], [4, 4, 5], [5, 0, 9], [5, 1, 17], '
    '[5, 2, 19], [5, 3, 15], [5, 4, 10], [5, 5, 6], [6, 0, 12], [6, 1, 23], '
    '[6, 2, 28], [6, 3, 26], [6, 4, 19], [6, 5, 12], [6, 6, 7]], '
    '"hook_product": [[0, 0, 1], [1, 0, 2], [1, 1, 2], [2, 0, 3], [2, 1, 4], '
    '[2, 2, 3], [3, 0, 5], [3, 1, 7], [3, 2, 6], [3, 3, 4], [4, 0, 7], '
    '[4, 1, 12], [4, 2, 11], [4, 3, 8], [4, 4, 5], [5, 0, 9], [5, 1, 17], '
    '[5, 2, 19], [5, 3, 15], [5, 4, 10], [5, 5, 6], [6, 0, 12], [6, 1, 23], '
    '[6, 2, 28], [6, 3, 26], [6, 4, 19], [6, 5, 12], [6, 6, 7]], '
    '"max_volume": 6, "paired": true, "shape": [2, 1], "status": "pass"}\n')


def test_genfun_paired_json_bytes(capsys):
    code, out = run(capsys, "genfun", "--shape", "[2,1]", "--max-volume", "6",
                    "--paired", "--format", "json")
    assert code == 0
    assert out == PAIRED_21_N6_JSON


# stdout of these calls before the packed row-transfer engine and the
# in-place hook products; both must reproduce it byte for byte
PAIRED_21_N6_SERIES = (
    "1 + 2*q + 2*q*t + 3*q^2 + 4*q^2*t + 3*q^2*t^2 + 5*q^3 + 7*q^3*t + "
    "6*q^3*t^2 + 4*q^3*t^3 + 7*q^4 + 12*q^4*t + 11*q^4*t^2 + 8*q^4*t^3 + "
    "5*q^4*t^4 + 9*q^5 + 17*q^5*t + 19*q^5*t^2 + 15*q^5*t^3 + 10*q^5*t^4 + "
    "6*q^5*t^5 + 12*q^6 + 23*q^6*t + 28*q^6*t^2 + 26*q^6*t^3 + 19*q^6*t^4 + "
    "12*q^6*t^5 + 7*q^6*t^6")
SINGLE_21_N6_TERMS = ("[[0, 0, 1], [1, 0, 2], [2, 0, 3], [3, 0, 5], [4, 0, 7], "
                      "[5, 0, 9], [6, 0, 12]]")
SINGLE_21_N6_SERIES = "1 + 2*q + 3*q^2 + 5*q^3 + 7*q^4 + 9*q^5 + 12*q^6"
GENFUN_21_N6_STDOUT = {
    (True, "text"): (f"brute force : {PAIRED_21_N6_SERIES}\n"
                           f"hook product: {PAIRED_21_N6_SERIES}\nstatus: pass\n"),
    (False, "json"): (
        f'{{"bruteforce": {SINGLE_21_N6_TERMS}, "hook_product": {SINGLE_21_N6_TERMS}, '
        '"max_volume": 6, "paired": false, "shape": [2, 1], "status": "pass"}\n'),
    (False, "text"): (f"brute force : {SINGLE_21_N6_SERIES}\n"
                              f"hook product: {SINGLE_21_N6_SERIES}\nstatus: pass\n"),
}


@pytest.mark.parametrize("paired,fmt", sorted(GENFUN_21_N6_STDOUT))
def test_genfun_bytes(capsys, paired, fmt):
    code, out = run(capsys, "genfun", "--shape", "[2,1]", "--max-volume", "6",
                    *(["--paired"] if paired else []), "--format", fmt)
    assert code == 0
    assert out == GENFUN_21_N6_STDOUT[(paired, fmt)]


# length and sha256 of `genfun --paired --force --format json` stdout at
# bounds where the engine's cut and packed slots carry the work, taken
# before the move table was built in one pass
GENFUN_PAIRED_AT_SCALE = {
    ("[3,2,1]", "20"): (6899, "c6ee54943cb4ef331c47f0f170595d007dd4e44cd5cec98c63ec864924851999"),
    ("[4,4,3,3,1]", "10"): (1843, "fed5035a0bbf228e14f95c875551e5fc4620a8ec50690caa79396f2521ce7ec1"),
}


@pytest.mark.parametrize("shape,bound", sorted(GENFUN_PAIRED_AT_SCALE))
def test_genfun_paired_bytes_at_scale(capsys, shape, bound):
    code, out = run(capsys, "genfun", "--shape", shape, "--max-volume", bound,
                    "--paired", "--force", "--format", "json")
    assert code == 0
    data = out.encode()
    assert (len(data), hashlib.sha256(data).hexdigest()) == GENFUN_PAIRED_AT_SCALE[(shape, bound)]


# the same for single mode (`genfun --force --format json`), which
# enumerates every filling
GENFUN_SINGLE_AT_SCALE = {
    ("[3,2,1]", "20"): (664, "d40ae43ed7f48a02e78aebd164b3efed66923cc5ee58b62f9024f0c7e46aacfa"),
    ("[4,4,3,3,1]", "10"): (386, "6e1c4ed8c878d562893652e7432b371a006d78165bdeb5727b3240438253cc47"),
}


@pytest.mark.parametrize("shape,bound", sorted(GENFUN_SINGLE_AT_SCALE))
def test_genfun_single_bytes_at_scale(capsys, shape, bound):
    code, out = run(capsys, "genfun", "--shape", shape, "--max-volume", bound,
                    "--force", "--format", "json")
    assert code == 0
    data = out.encode()
    assert (len(data), hashlib.sha256(data).hexdigest()) == GENFUN_SINGLE_AT_SCALE[(shape, bound)]


def test_genfun_empty_shape(capsys):
    code, out = run(capsys, "genfun", "--shape", "[]", "--max-volume", "3",
                    "--paired", "--format", "json")
    assert code == 0
    assert json.loads(out)["bruteforce"] == [[0, 0, 1]]


def test_genfun_budget_guard(capsys):
    # (3,2,1) at N=26 has 14,494,811 pairs, over the 10^7 budget
    code = cli.main(["genfun", "--shape", "[3,2,1]", "--max-volume", "26",
                     "--paired"])
    assert code == 2  # refused without --force
    assert "14494811 pairs" in capsys.readouterr().err


def test_genfun_budget_counts_exactly(capsys):
    # 18,263 pairs: within budget, so no --force is needed
    code, out = run(capsys, "genfun", "--shape", "[3,2,1]", "--max-volume", "10",
                    "--paired")
    assert code == 0 and "status: pass" in out


def test_genfun_budget_huge_bound(capsys):
    # refused from the bound alone, without building a series that long
    code = cli.main(["genfun", "--shape", "[1]", "--max-volume", str(10 ** 12)])
    assert code == 2


def test_genfun_budget_guard_counts_at_small_bounds_first(capsys, monkeypatch):
    # (4,4,3,3,1) is over the budget long before N = 10^6: the refusal
    # reads the counts at the doubling bounds, never a series of length N
    hook_count = cli.hook_count

    def small_only(lam, trunc_q, colors=1):
        if trunc_q > 64:
            raise AssertionError(f"counted up to {trunc_q}")
        return hook_count(lam, trunc_q, colors)

    monkeypatch.setattr(cli, "hook_count", small_only)
    code = cli.main(["genfun", "--shape", "[4,4,3,3,1]", "--max-volume",
                     str(10 ** 6), "--paired"])
    assert code == 2
    err = capsys.readouterr().err
    assert "more than" in err and "pairs exceed the 10000000 budget" in err


def test_genfun_empty_shape_at_a_large_bound_stays_small(capsys):
    # no hook reaches past q^0, so no row of the series is built past it
    tracemalloc.start()
    try:
        code, out = run(capsys, "genfun", "--shape", "[]", "--max-volume",
                        "4000", "--paired", "--format", "json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and json.loads(out)["bruteforce"] == [[0, 0, 1]]
    assert peak < 10 ** 6


def test_genfun_negative_bound_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["genfun", "--shape", "[2,1]", "--max-volume", "-1"])
    assert err.value.code == 2


def test_ybe_smoke(capsys):
    code, out = run(capsys, "ybe", "--mode", "one-color", "--smoke")
    assert code == 0 and "status: pass" in out


def test_ybe_custom_samples(capsys):
    code, out = run(capsys, "ybe", "--mode", "one-color",
                    "--samples", '[["2/3","1/5"]]', "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "pass"
    assert all(r["checked"] == 64 for r in data["reports"])
    # the report is byte-deterministic
    code, again = run(capsys, "ybe", "--mode", "one-color",
                      "--samples", '[["2/3","1/5"]]', "--format", "json")
    assert again == out


def test_ybe_two_color(capsys):
    code, out = run(capsys, "ybe", "--mode", "two-color",
                    "--samples", '[["1/2","1/3","2/5"]]')
    assert code == 0 and "status: pass" in out


def test_ybe_two_color_smoke_checks_one_boundary(capsys):
    code, out = run(capsys, "ybe", "--mode", "two-color", "--smoke", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "pass"
    assert [r["checked"] for r in data["reports"]] == [1]


# sha256 of `ybe` stdout before the sweeps ran on integer-scaled tables;
# the sweeps must reproduce it byte for byte
YBE_STDOUT_SHA256 = {
    "one-color-text": (
        "--mode one-color",
        "14709e5ff87123397f201ce4c4b33ed024b1d4ead5360100a9c3105838ebe8ba"),
    "one-color-json": (
        "--mode one-color --format json",
        "cca9a0d736b3f9a4049093318d02ee3397128035cdf3694295cbb7b18d53d2a8"),
    "one-color-smoke-text": (
        "--mode one-color --smoke",
        "1ff54c9dbc7a8812edfc7aa233d1e29eb48de49b8924d0465a63288778fc18e4"),
    "one-color-smoke-json": (
        "--mode one-color --smoke --format json",
        "2b7e084e9059f65b7057f28fb9b63b165ea1dad841fd8f93f4bde7da33a9a42f"),
    "two-color-text": (
        "--mode two-color",
        "ef0019df5d1a214101b4f989e4fd16d6332a71329b0d3c45c8c818917a758f0e"),
    "two-color-json": (
        "--mode two-color --format json",
        "d473a66ed30e3ef1b7b54965a3b6f8fe05f1e9625be30157ace76ee043d9093a"),
    "two-color-smoke-text": (
        "--mode two-color --smoke",
        "04b92b8c7f3dee2514006ed6726be28eb63a10d8e2f45d5ce122e490a4a7966c"),
    "two-color-smoke-json": (
        "--mode two-color --smoke --format json",
        "1c72c71e26b8b64e167a0dea0be73c6a9480c5b7220a18905d1738b711792ddb"),
    "one-color-samples-json": (
        '--mode one-color --samples [["-3/4","5/2"],["7","-1/6"]] --format json',
        "d8a9326a29c7add7fa2ed03d702efa6370afc3c9f8be9c18dd472e9f4351aa14"),
    "two-color-samples-json": (
        '--mode two-color --samples [["-2/3","3/5","-5/4"]] --format json',
        "4ab932154c264436cd34257ad8c1a8e19525a8b9b10513385ab2a2c2d61454c7"),
}


@pytest.mark.parametrize("case", sorted(YBE_STDOUT_SHA256))
def test_ybe_stdout_bytes(capsys, case):
    argv, digest = YBE_STDOUT_SHA256[case]
    code, out = run(capsys, "ybe", *argv.split(" "))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_slide_stdin(capsys, monkeypatch, tmp_path):
    src = tmp_path / "pair.json"
    src.write_text(WORKED_PAIR_JSON)
    code, out = run(capsys, "slide", "--direction", "slide", "--input", str(src))
    assert code == 0
    assert json.loads(out)["rows"] == [[0, 0, 1, 3], [1, 2, 2, 4],
                                       [1, 4, 4], [2, 4, 4], [3]]


def test_unslide_then_slide(capsys, tmp_path):
    rpp = json.dumps({"shape": [2, 2], "rows": [[0, 1], [1, 2]]})
    src = tmp_path / "rpp.json"
    src.write_text(rpp)
    code, out = run(capsys, "slide", "--direction", "unslide", "--input", str(src))
    assert code == 0
    back = tmp_path / "pair.json"
    back.write_text(out)
    code, out = run(capsys, "slide", "--direction", "slide", "--input", str(back))
    assert code == 0
    assert json.loads(out) == json.loads(rpp)


def test_slide_roundtrip_flag(capsys, monkeypatch):
    # the pairs come from the one list of fillings
    calls = []
    enumerate_rpps = rpp_core.enumerate_rpps

    def counted(lam, max_volume):
        calls.append((lam, max_volume))
        return enumerate_rpps(lam, max_volume)

    monkeypatch.setattr(rpp_core, "enumerate_rpps", counted)
    code, out = run(capsys, "slide", "--roundtrip", "--shape", "[2,2]",
                    "--max-volume", "6")
    assert code == 0 and out == "round trips: 78\nstatus: pass\n"
    assert calls == [((2, 2), 6)]


def test_slide_roundtrip_fails_on_a_rejected_unslid_pair(capsys, monkeypatch):
    # the g = 0 test rejects the pair one filling unslides to, so that
    # filling does not slide back
    t0_chains = sliding.t0_chains
    rpp = next(r for r in rpp_core.enumerate_rpps((2, 2), 6) if r.volume)
    lost = sliding.unslide(rpp)
    lost = lost.blue.chain.slices, lost.red.chain.slices
    monkeypatch.setattr(sliding, "t0_chains",
                        lambda pattern, *chains: chains != lost and t0_chains(pattern, *chains))
    code, out = run(capsys, "slide", "--roundtrip", "--shape", "[2,2]",
                    "--max-volume", "6")
    assert code == 1 and out == f"status: fail at {rpp.rows}\n"


def test_slide_roundtrip_fails_on_an_extra_g0_pair(capsys, monkeypatch):
    # the g = 0 test accepts the first pair with g > 0, which no filling
    # unslides to
    check_t0, t0_chains = sliding.check_t0_constraints, sliding.t0_chains
    extra = next(p for p in (coupling.make_pair(b, r)
                             for b, r in rpp_core.enumerate_pairs((2, 2), 6))
                 if not check_t0(p))
    chains_of_extra = extra.blue.chain.slices, extra.red.chain.slices
    monkeypatch.setattr(sliding, "t0_chains", lambda pattern, *chains:
                        chains == chains_of_extra or t0_chains(pattern, *chains))
    code, out = run(capsys, "slide", "--roundtrip", "--shape", "[2,2]",
                    "--max-volume", "6")
    assert code == 1
    assert out == f"status: fail at {extra.blue.rows} / {extra.red.rows}\n"


def test_slide_roundtrip_budget_guard(capsys):
    # (3,2,1) at N=30 has 47,563,592 pairs, over the 10^7 budget
    code = cli.main(["slide", "--roundtrip", "--shape", "[3,2,1]",
                     "--max-volume", "30"])
    assert code == 2
    assert "47563592 pairs" in capsys.readouterr().err


def usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as err:
        cli.main(list(argv))
    assert err.value.code == 2
    return capsys.readouterr().err


def test_input_missing_key_exits_2(capsys, tmp_path):
    src = tmp_path / "pair.json"
    src.write_text(json.dumps({"shape": [1], "blue": {"shape": [1], "rows": [[0]]}}))
    assert "missing key 'red'" in usage_error(capsys, "slide", "--input", str(src))


def test_input_not_json_exits_2(capsys, tmp_path):
    src = tmp_path / "rpp.json"
    src.write_text("{shape: [1]")
    for direction, what in (("slide", "pair"), ("unslide", "filling")):
        assert f"bad {what}: Expecting" in usage_error(
            capsys, "slide", "--direction", direction, "--input", str(src))
    assert "bad filling: Expecting" in usage_error(
        capsys, "render", "--object", "rpp", "--input", str(src))


def test_input_failing_validation_exits_2(capsys, tmp_path):
    assert "half_width" in usage_error(capsys, "render", "--object", "maya",
                                       "--shape", "[3,1]", "--half-width", "1")
    src = tmp_path / "rpp.json"
    src.write_text(json.dumps({"shape": [2], "rows": [[2, 1]]}))
    assert "not weakly increasing" in usage_error(
        capsys, "render", "--object", "config", "--input", str(src))
    src.write_text(json.dumps({
        "shape": [1], "blue": {"shape": [1], "rows": [[1]]},
        "red": {"shape": [1], "rows": [[1]]}}))  # g = 2: it does not slide
    assert "g > 0" in usage_error(capsys, "slide", "--input", str(src))


@pytest.mark.parametrize("shape", ["[2.7,1]", '"21"', "[true,1]", "[2,1.0]"])
def test_non_integer_shape_exits_2(capsys, shape):
    assert "not an integer" in usage_error(capsys, "hook", "--shape", shape)


@pytest.mark.parametrize("entry", [1.5, "3", False])
def test_non_integer_entry_exits_2(capsys, tmp_path, entry):
    src = tmp_path / "in.json"
    rows = [[0, entry], [3]]
    src.write_text(json.dumps({"shape": [2, 1], "rows": rows}))
    assert "not an integer" in usage_error(capsys, "render", "--object", "rpp",
                                           "--input", str(src))
    src.write_text(json.dumps({"shape": [2, 1], "blue": {"shape": [2, 1], "rows": rows},
                               "red": {"shape": [2, 1], "rows": [[0, 0], [3]]}}))
    assert "not an integer" in usage_error(capsys, "render", "--object", "pair",
                                           "--input", str(src))


def test_maya_zero_half_width_exits_2(capsys):
    assert "half_width 0" in usage_error(capsys, "render", "--object", "maya",
                                         "--shape", "[3,1]", "--half-width", "0")


def test_long_arguments_give_short_usage_errors(capsys):
    # the argument echoed and the reason it was refused are each cut to
    # cli.ECHO_CHARS characters; a short argument's message is whole
    assert usage_error(capsys, "hook", "--shape", "[1,2]") == \
        "error: bad shape '[1,2]': parts not weakly decreasing: (1, 2)\n"
    cut = cli.ECHO_CHARS
    shape = "[" + "1,2," * 25_000 + "1]"  # 100 KB, and so is the reason
    reason = f"parts not weakly decreasing: {(1, 2) * 25_000 + (1,)}"
    assert usage_error(capsys, "hook", "--shape", shape) == \
        f"error: bad {f'shape {shape!r}'[:cut]}...: {reason[:cut]}...\n"
    samples = "[" * 5_000 + "]" * 5_000
    err = usage_error(capsys, "ybe", "--smoke", "--samples", samples)
    assert err.startswith(f"error: bad {f'samples {samples!r}'[:cut]}...: maximum recursion")
    assert len(err.encode()) < 1024


@pytest.mark.parametrize("argv", [("--input", "a" * 100_000),
                                  ("--shape", "[2,1]", "--out", "a" * 100_000)])
def test_long_paths_give_short_usage_errors(capsys, argv):
    # only the file name is cut, to cli.ECHO_CHARS characters
    err = usage_error(capsys, "render", "--object", "rpp", *argv)
    assert err.startswith("error: [Errno ") and f"'{'a' * cli.ECHO_CHARS}...'" in err
    assert len(err.encode()) < 300


def test_missing_file_is_echoed_whole(capsys):
    assert usage_error(capsys, "render", "--object", "pair", "--input",
                       "/nonexistent.json") == \
        "error: [Errno 2] No such file or directory: '/nonexistent.json'\n"


HUGE = 10 ** 20
HUGE_RPP = json.dumps({"shape": [1], "rows": [[HUGE]]})
HUGE_PAIR = json.dumps({"shape": [1], "blue": {"shape": [1], "rows": [[0]]},
                        "red": {"shape": [1], "rows": [[HUGE]]}})


def refuse_calls(monkeypatch, module, name):
    """Calling module.name fails the test: a refusal must come first."""
    def refuse(*args):
        raise AssertionError(f"{name} called on {args}")

    monkeypatch.setattr(module, name, refuse)


@pytest.mark.parametrize("argv", [("config",), ("config", "--format", "svg"),
                                  ("rpp", "--format", "svg"),
                                  ("pair", "--format", "svg")])
def test_render_huge_entry_exits_2(capsys, monkeypatch, tmp_path, argv):
    # a one-cell filling's tiling has 2 rows of entry + 3 sites and 1 path;
    # in the pair the blue filling (7 sites) passes and the red is refused
    src = tmp_path / "in.json"
    src.write_text(HUGE_PAIR if argv[0] == "pair" else HUGE_RPP)
    refuse_calls(monkeypatch, vertex_model, "interface_masks")
    err = usage_error(capsys, "render", "--object", *argv, "--input", str(src))
    assert err == (f"error: the filling's tiling has {2 * HUGE + 7} sites, "
                   f"more than {cli.SITE_BOUND}\n")


def test_render_huge_entry_in_ascii(capsys, tmp_path):
    src = tmp_path / "in.json"
    src.write_text(HUGE_RPP)
    assert run(capsys, "render", "--object", "rpp", "--input", str(src)) == (0, f"{HUGE}\n")
    src.write_text(HUGE_PAIR)
    assert run(capsys, "render", "--object", "pair", "--input", str(src)) == (
        0, f"blue:\n0\nred:\n{HUGE}\n")


@pytest.mark.parametrize("argv", [("config",), ("rpp", "--format", "svg"),
                                  ("pair", "--format", "svg")])
def test_render_site_bound_is_exact(capsys, monkeypatch, tmp_path, argv):
    rows = [[0, 1, 3, 4], [1, 1, 4], [3]]
    sites = render.tiling_size(rpp_core.validate([4, 3, 1], rows))
    src = tmp_path / "in.json"
    filling = {"shape": [4, 3, 1], "rows": rows}
    src.write_text(json.dumps({"shape": [4, 3, 1], "blue": filling, "red": filling}
                              if argv[0] == "pair" else filling))
    monkeypatch.setattr(cli, "SITE_BOUND", sites)
    assert run(capsys, "render", "--object", *argv, "--input", str(src))[0] == 0
    monkeypatch.setattr(cli, "SITE_BOUND", sites - 1)
    err = usage_error(capsys, "render", "--object", *argv, "--input", str(src))
    assert err == f"error: the filling's tiling has {sites} sites, more than {sites - 1}\n"


def test_render_maya_over_the_site_bound_exits_2(capsys, monkeypatch):
    # 2 x half-width sites; a shape's default half-width is counted too
    refuse_calls(monkeypatch, partitions, "maya_mask")
    width = cli.SITE_BOUND // 2 + 1
    for argv in (("--shape", "[3,1]", "--half-width", str(width)),
                 ("--shape", f"[{width - 2}]")):
        err = usage_error(capsys, "render", "--object", "maya", *argv)
        assert err == (f"error: a Maya diagram of half-width {width} has "
                       f"{2 * width} sites, more than {cli.SITE_BOUND}\n")


def test_render_maya_site_bound_is_exact(capsys, monkeypatch):
    monkeypatch.setattr(cli, "SITE_BOUND", 10)
    code, out = run(capsys, "render", "--object", "maya", "--shape", "[3,1]",
                    "--half-width", "5")
    assert code == 0 and out == "...●●●○●|○○●○○...\n"
    assert "has 12 sites, more than 10" in usage_error(
        capsys, "render", "--object", "maya", "--shape", "[3,1]", "--half-width", "6")


# the commands that read a --shape; a config, an SVG and a Maya diagram
# have sites of their own, bounded too, so the exact bound is checked on
# the first six
SHAPE_COMMANDS = [("hook",), ("genfun", "--max-volume", "0"),
                  ("genfun", "--max-volume", "0", "--paired"),
                  ("slide", "--roundtrip", "--max-volume", "0"),
                  ("render", "--object", "rpp"), ("render", "--object", "hook"),
                  ("render", "--object", "config"), ("render", "--object", "maya"),
                  ("render", "--object", "rpp", "--format", "svg")]


@pytest.mark.parametrize("argv", SHAPE_COMMANDS)
def test_huge_shape_exits_2(capsys, monkeypatch, argv):
    # refused before the hook table, zero filling, geometry or count is built
    for module, name in ((partitions, "hook_table"), (render, "hook_table"),
                         (rpp_core, "zero_rpp"), (rpp_core, "shape_geometry"),
                         (rpp_core, "enumerate_rpps"), (cli, "hook_count"),
                         (partitions, "maya_mask")):
        refuse_calls(monkeypatch, module, name)
    cells = cli.SITE_BOUND + 1
    for shape in (f"[{cells}]", json.dumps([1] * cells)):
        err = usage_error(capsys, *argv, "--shape", shape)
        assert err == f"error: the shape has {cells} cells, more than {cli.SITE_BOUND}\n"


@pytest.mark.parametrize("argv", SHAPE_COMMANDS)
def test_shape_that_is_no_json_list_exits_2(capsys, argv):
    # an empty object or string iterates as no parts: it would pass as the
    # empty shape; a nonempty one fails on its first key or character
    for shape in ("{}", '""'):
        err = usage_error(capsys, *argv, "--shape", shape)
        assert err == f"error: bad shape {shape!r}: shape {json.loads(shape)!r} is not a list\n"
    assert "not an integer" in usage_error(capsys, *argv, "--shape", '{"1": 1}')


@pytest.mark.parametrize("argv", [("render", "--object", "rpp"), ("render", "--object", "config"),
                                  ("slide", "--direction", "unslide")])
def test_filling_whose_shape_or_rows_are_no_json_list_exits_2(capsys, tmp_path, argv):
    src = tmp_path / "rpp.json"
    for data, what in (({"shape": {}, "rows": ""}, "shape {}"), ({"shape": [], "rows": {}}, "rows {}"),
                       ({"shape": [], "rows": ""}, "rows ''")):
        src.write_text(json.dumps(data))
        err = usage_error(capsys, *argv, "--input", str(src))
        assert err == f"error: bad filling: {what} is not a list\n"


@pytest.mark.parametrize("argv", [("slide",), ("render", "--object", "pair")])
def test_pair_whose_shape_is_no_json_list_exits_2(capsys, tmp_path, argv):
    empty = {"shape": [], "rows": []}
    src = tmp_path / "pair.json"
    for data, what in (({"shape": "", "blue": empty, "red": empty}, "shape ''"),
                       ({"shape": [], "blue": empty, "red": {"shape": {}, "rows": []}}, "shape {}"),
                       ({"shape": [], "blue": {"shape": [], "rows": ""}, "red": empty}, "rows ''")):
        src.write_text(json.dumps(data))
        err = usage_error(capsys, *argv, "--input", str(src))
        assert err == f"error: bad pair: {what} is not a list\n"
    src.write_text(json.dumps({"shape": [], "blue": empty, "red": empty}))
    assert cli.main([*argv, "--input", str(src)]) == 0


@pytest.mark.parametrize("argv", SHAPE_COMMANDS[:6])
def test_shape_bound_is_exact(capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "SITE_BOUND", 6)
    assert cli.main([*argv, "--shape", "[3,3]"]) == 0
    capsys.readouterr()
    err = usage_error(capsys, *argv, "--shape", "[3,3,1]")
    assert err == "error: the shape has 7 cells, more than 6\n"


def test_render_unwritable_out_exits_2(capsys, tmp_path):
    message = usage_error(capsys, "render", "--object", "rpp", "--shape", "[2,1]",
                          "--out", str(tmp_path / "missing" / "x.svg"))
    assert message.startswith("error: ") and "missing" in message


def test_render_maya(capsys):
    code, out = run(capsys, "render", "--object", "maya", "--shape", "[4,3,2,2,1]")
    assert code == 0
    assert out.strip() == "...●●○●○●●|" \
                          "○●○●○○○..."


def test_render_zero_rpp_ascii(capsys):
    code, out = run(capsys, "render", "--object", "rpp", "--shape", "[2,1]")
    assert code == 0
    assert out.splitlines() == ["0", "0 0"]


def test_render_svg_deterministic(capsys, tmp_path):
    src = tmp_path / "pair.json"
    src.write_text(WORKED_PAIR_JSON)
    outs = []
    for name in ("a.svg", "b.svg"):
        path = tmp_path / name
        code = cli.main(["render", "--object", "pair", "--input", str(src),
                         "--format", "svg", "--out", str(path)])
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]
    assert outs[0].startswith(b"<svg ")


def test_render_rpp_svg(capsys, tmp_path):
    src = tmp_path / "rpp.json"
    src.write_text(json.dumps({"shape": [2, 1], "rows": [[0, 2], [1]]}))
    code, out = run(capsys, "render", "--object", "rpp", "--input", str(src),
                    "--format", "svg")
    assert code == 0
    assert out.startswith("<svg ") and out.rstrip().endswith("</svg>")


def test_render_empty_shape_svg(capsys):
    code, out = run(capsys, "render", "--object", "rpp", "--shape", "[]",
                    "--format", "svg")
    assert code == 0
    assert out.startswith("<svg ") and "viewBox=\"-24 -24 48 48\"" in out


def test_render_config_json(capsys, tmp_path):
    src = tmp_path / "rpp.json"
    src.write_text(json.dumps({"shape": [4, 3, 1],
                               "rows": [[0, 1, 3, 4], [1, 1, 4], [3]]}))
    code, out = run(capsys, "render", "--object", "config", "--input", str(src))
    assert code == 0
    data = json.loads(out)
    assert data["interfaces"][4] == [4, 1]
    assert [r["kind"] for r in data["rows"]][:2] == ["white", "gray"]


def test_verify_all_budget_skip(capsys):
    code, out = run(capsys, "verify-all", "--budget-seconds", "0")
    assert code == 1
    assert "skipped" in out


def test_verify_all_nan_budget_exits_2(capsys):
    # NaN compares false with every elapsed time, so it would mean no budget
    message = usage_error(capsys, "verify-all", "--budget-seconds", "nan")
    assert message.startswith("error: ") and "--budget-seconds" in message


def test_verify_all_negative_budget_exits_2(capsys):
    # a negative budget would skip every criterion and report a failure
    message = usage_error(capsys, "verify-all", "--budget-seconds", "-1")
    assert message.startswith("error: ") and "--budget-seconds" in message


GENFUN_21_N6_PAIRED_JSON = ("genfun", "--shape", "[2,1]", "--max-volume", "6",
                            "--paired", "--format", "json")


def test_kept_parser_leaves_no_state_between_calls(capsys):
    """main reuses one parser for the process: a usage error and other
    commands in between change neither stdout nor the error text, and no
    option's value carries over to a later call."""
    code, first = run(capsys, *GENFUN_21_N6_PAIRED_JSON)
    assert code == 0
    bad = ("genfun", "--shape", "[2,1]", "--max-volume", "six")
    err = usage_error(capsys, *bad)
    assert err == cli_process(*bad).stderr  # as from a fresh parser
    code, out = run(capsys, "hook", "--shape", "[2,1]")
    assert code == 0 and out == "1\n3 1\n"
    code, out = run(capsys, *(a for a in GENFUN_21_N6_PAIRED_JSON if a != "--paired"))
    assert code == 0 and out == GENFUN_21_N6_STDOUT[(False, "json")]
    code, again = run(capsys, *GENFUN_21_N6_PAIRED_JSON)
    assert code == 0
    assert first == again == PAIRED_21_N6_JSON


def test_build_parser_returns_a_new_parser():
    assert cli.build_parser() is not cli.build_parser()


def test_genfun_bytes_in_a_new_process(capsys):
    code, out = run(capsys, *GENFUN_21_N6_PAIRED_JSON)
    process = cli_process(*GENFUN_21_N6_PAIRED_JSON, module="coupledrpp")
    assert code == process.returncode == 0, process.stderr
    assert process.stdout == out == PAIRED_21_N6_JSON


# The seeded contract test: random small argv over all six commands, with
# valid, mangled and malformed JSON (including JSON nested past the
# parser's recursion limit), each checked for an exit code of 0, 1 or 2
# and no traceback.
FUZZ_SEED, FUZZ_CASES = 20240601, 300
FUZZ_SHAPES = [[], [1], [2], [1, 1], [2, 1], [3, 1], [2, 2], [3, 2, 1], [2, 1, 1]]
FUZZ_BAD_SHAPES = ["[1,2]", "[-1]", "[1.5]", '"x"', "{}", "[[1]]", "null", "[true]",
                   "", "[", "[0]", "[2,0,1]", "1", "[" * 3000 + "]" * 3000]
FUZZ_BAD_VALUES = [-1, 1.5, "a", None, [], True, 1000, {}]


class _Fuzz:
    """Draws the pieces of one command line from a seeded generator."""

    def __init__(self, seed, tmp_path):
        self.rng = random.Random(seed)
        self.tmp_path = tmp_path
        self.files = 0

    def shape(self) -> str:
        if self.rng.random() < 0.75:
            return json.dumps(self.rng.choice(FUZZ_SHAPES))
        return self.rng.choice(FUZZ_BAD_SHAPES)

    def rows(self, lam):
        """Random entries 0..3, increasing along rows and up columns."""
        rows = []
        for p in lam:
            row = sorted(self.rng.randint(0, 3) for _ in range(p))
            rows.append([max(a, b) for a, b in zip(row, rows[-1])] if rows else row)
        return rows

    def mangled(self, data) -> str:
        """The object as JSON, or one random edit of it."""
        rng = self.rng
        edit = rng.randrange(10)
        if edit == 0:
            text = json.dumps(data)
            return text[:rng.randrange(len(text) + 1)]
        if edit == 1:
            return '{"shape": ' + "[" * 3000 + "]" * 3000 + "}"
        if edit in (2, 3):
            data = dict(data)
            key = rng.choice(sorted(data))
            if edit == 2:
                del data[key]
            else:
                data[key] = rng.choice(FUZZ_BAD_VALUES)
        elif edit == 4:
            data = rng.choice(FUZZ_BAD_VALUES)
        return json.dumps(data)

    def filling(self) -> str:
        lam = self.rng.choice(FUZZ_SHAPES)
        return self.mangled({"shape": lam, "rows": self.rows(lam)})

    def pair(self) -> str:
        lam = self.rng.choice(FUZZ_SHAPES)
        red = self.rows(lam) if self.rng.random() < 0.7 else [[0] * p for p in lam]
        return self.mangled({"shape": lam, "blue": {"shape": lam, "rows": self.rows(lam)},
                             "red": {"shape": lam, "rows": red}})

    def input(self, text: str) -> tuple[str, str]:
        """An --input value and the stdin: a file, stdin or a missing file."""
        self.files += 1
        path = self.tmp_path / f"in{self.files}.json"
        path.write_text(text)
        choice = self.rng.choice([str(path), str(path), "-", str(self.tmp_path / "missing")])
        return choice, text

    def volume(self) -> str:
        return self.rng.choice(["-1", "0", "1", "2", "3", "4", "4", "x", "1.5"])

    def samples(self, arity: int) -> str:
        rng = self.rng
        points = [[rng.choice(["1/2", "2/3", "0", "1", "-3/4", "1/0", "x", 2, 0.5])
                   for _ in range(arity + rng.choice([0, 0, 0, 1, -1]))]
                  for _ in range(rng.choice([0, 1, 1, 2]))]
        return json.dumps(points) if rng.random() < 0.9 else rng.choice(['"x"', "[", "[[]]"])

    def case(self) -> tuple[list[str], str]:
        rng = self.rng
        command = rng.choice(["hook", "genfun", "ybe", "slide", "render", "verify-all"])
        argv, stdin = [command], ""
        if command == "hook":
            argv += ["--shape", self.shape()]
        elif command == "genfun":
            argv += ["--shape", self.shape(), "--max-volume", self.volume()]
            argv += [flag for flag in ("--paired", "--force") if rng.random() < 0.5]
        elif command == "ybe":
            mode = rng.choice(["one-color", "two-color"])
            argv += ["--mode", mode]
            if rng.random() < 0.6:
                argv += ["--samples", self.samples(2 if mode == "one-color" else 3)]
            if rng.random() < 0.5:
                argv.append("--smoke")
        elif command == "slide" and rng.random() < 0.3:
            argv += ["--roundtrip", "--shape", self.shape(), "--max-volume", self.volume()]
        elif command == "slide":
            direction = rng.choice(["slide", "unslide"])
            path, stdin = self.input(self.pair() if direction == "slide" else self.filling())
            argv += ["--direction", direction, "--input", path]
        elif command == "render":
            what = rng.choice(["maya", "rpp", "pair", "config", "hook"])
            argv += ["--object", what]
            if what == "pair" or (what in ("rpp", "config") and rng.random() < 0.6):
                path, stdin = self.input(self.pair() if what == "pair" else self.filling())
                argv += ["--input", path]
            elif rng.random() < 0.9:
                argv += ["--shape", self.shape()]
            if what == "maya" and rng.random() < 0.5:
                argv += ["--half-width", rng.choice(["-1", "0", "1", "3", "x"])]
            if rng.random() < 0.5:
                argv += ["--format", rng.choice(["ascii", "svg"])]
            if rng.random() < 0.1:
                argv += ["--out", rng.choice([str(self.tmp_path / "out.txt"), str(self.tmp_path)])]
        else:  # a full run at most about once in 120 cases
            if rng.random() < 0.95:
                argv += ["--budget-seconds", rng.choice(["0", "-1", "nan", "x", "-inf", "0.0"])]
        if command != "render" and rng.random() < 0.5:
            argv += ["--format", rng.choice(["text", "json", "svg"])]
        if rng.random() < 0.05:
            argv.insert(rng.randrange(1, len(argv) + 1), rng.choice(["--bogus", "--shape"]))
        return argv, stdin


# traced bytes one seeded case may allocate at its peak: 64 per site of
# the largest drawing the guards let through (cli.SITE_BOUND sites)
FUZZ_PEAK_BYTES = 64 * cli.SITE_BOUND


def test_seeded_cli_cases_keep_the_exit_contract(capsys, monkeypatch, tmp_path):
    fuzz = _Fuzz(FUZZ_SEED, tmp_path)
    codes = Counter()
    breaches, heavy = [], []
    tracemalloc.start()
    try:
        for _ in range(FUZZ_CASES):
            argv, stdin = fuzz.case()
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code = traceback.format_exc()
            peak = tracemalloc.get_traced_memory()[1] - before
            err = capsys.readouterr().err
            codes[code if code in (0, 1, 2) else "breach"] += 1
            if code not in (0, 1, 2) or "Traceback" in err:
                breaches.append((argv, code, err[-500:]))
            if peak > FUZZ_PEAK_BYTES:
                heavy.append((argv, peak))
    finally:
        tracemalloc.stop()
    assert breaches == []
    assert heavy == []
    assert min(codes[0], codes[1], codes[2]) > 0  # every outcome is reached
