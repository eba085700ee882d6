import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coupledrpp import cli

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


def test_zero_t_sample_exits_2():
    run = cli_process("ybe", "--mode", "two-color", "--samples", '[["1","1","0"]]')
    assert run.returncode == 2 and "Traceback" not in run.stderr
    assert "t = 0" in run.stderr


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


def test_slide_roundtrip_flag(capsys):
    code, out = run(capsys, "slide", "--roundtrip", "--shape", "[2,2]",
                    "--max-volume", "6")
    assert code == 0 and "status: pass" in out


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
