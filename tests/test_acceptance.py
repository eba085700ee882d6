"""Acceptance suite: every release criterion, exact and at full stated scale.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line per
criterion; the same checks back the `coupledrpp verify-all` command.
"""

import json
from collections import Counter

import pytest

from coupledrpp import checks, cli, coupling, partitions, rpp_core, sliding, vertex_model
from coupledrpp.coupling import make_pair

CRITERIA = {
    "1": "volume generating function equals the hook product on 7 shapes at N=10",
    "2": "paired q,t generating function equals the paired hook product at N=8",
    "3": "one-color (64 boundaries x 5 points) and colored (4096 x 3) YBE sweeps",
    "4": "weight bijections: w(C) A = q^vol and the paired q,t version, exhaustively",
    "5": "worked row/config weights, g = 6, and the hook table reproduce exactly",
    "6": "vertex t-degree and lozenge count of g never disagree",
    "7": "sliding bijection: worked example, mutual inverses, per-volume counts",
    "8": "gray table, change of variable, and t = 1 factorization consistency",
}


@pytest.mark.parametrize("number,fn", checks.ALL_CHECKS, ids=[n for n, _ in checks.ALL_CHECKS])
def test_acceptance_criterion(number, fn):
    report = fn()
    status = "PASS" if report["passed"] else "FAIL"
    print(f"ACCEPTANCE {number} [{status}] {CRITERIA[number]}")
    assert report["passed"], json.dumps(report["details"], sort_keys=True, default=str)


# The details `verify-all` reports at the published scale; a criterion that
# checks fewer objects, shapes or boundaries changes them.
PINNED_DETAILS = {
    "1": {"mismatched": [], "shapes": 7, "trunc": 10},
    "2": {"mismatched": [], "shapes": 5, "trunc": 8},
    "3": {"checked": 12928, "violations": 0},
    "4": {"failures": 0, "pairs": 2044, "singles": 1571},
    "5": {"failures": []},
    "6": {"discrepancies": 0, "pairs": 2044},
    "7": {"failures": []},
    "8": {"failures": []},
}


def test_verify_all_reports_the_pinned_details():
    report = checks.run_all()
    assert report["status"] == "pass" and report["skipped"] == []
    assert {r["criterion"]: r["details"] for r in report["results"]} == PINNED_DETAILS


def _tag_criteria(monkeypatch):
    """Wrap every criterion of `run_all` so that running[0] holds the
    number of the one that runs, and None between them."""
    running = [None]

    def tagged(number, fn):
        def run():
            running[0] = number
            try:
                return fn()
            finally:
                running[0] = None
        return run

    monkeypatch.setattr(checks, "ALL_CHECKS",
                        [(number, tagged(number, fn)) for number, fn in checks.ALL_CHECKS])
    return running


def _count_enumerations(monkeypatch):
    """Record the (criterion, shape, bound) of every `enumerate_rpps` call;
    the criterion is None outside `run_all`."""
    calls = []
    running = _tag_criteria(monkeypatch)
    enumerate_rpps = rpp_core.enumerate_rpps

    def counted(lam, max_volume):
        calls.append((running[0], tuple(lam), max_volume))
        return enumerate_rpps(lam, max_volume)

    monkeypatch.setattr(rpp_core, "enumerate_rpps", counted)
    return calls


def test_run_all_enumerates_each_pair_shape_once_per_run(monkeypatch):
    calls = _count_enumerations(monkeypatch)
    checks.run_all()
    first = list(calls)
    checks.run_all()
    assert calls[len(first):] == first  # nothing kept from the first run
    # criterion 4 weighs its singles and criterion 7 counts its singles
    # without enumerating them, so criteria 4, 6 and 7 enumerate the pair
    # shapes once at 6, and criterion 7 adds its largest shape at 6
    pooled = Counter((lam, bound) for number, lam, bound in first if number in "467")
    assert pooled == Counter([*((lam, checks.PAIR_MAX_VOLUME)
                                for lam in partitions.all_partitions(4) if lam),
                              ((4, 4, 3, 3, 1), checks.PAIR_MAX_VOLUME)])

    # a criterion called on its own enumerates its own fillings each time
    pair_shapes = [lam for lam in partitions.all_partitions(4) if lam]
    del calls[:]
    checks.check_g_oracles()
    checks.check_g_oracles()
    assert [lam for _, lam, _ in calls] == 2 * pair_shapes
    del calls[:]
    checks.check_sliding()
    assert Counter((lam, bound) for _, lam, bound in calls) == Counter(
        (lam, checks.PAIR_MAX_VOLUME) for lam in checks.SLIDE_SHAPES)


def test_criterion_6_reads_the_pairs_of_criterion_4(monkeypatch):
    # within a run, criterion 6 makes no pair and computes neither g route:
    # it compares the two values criterion 4 kept on each pooled pair
    running = _tag_criteria(monkeypatch)
    built = Counter()

    def counted(module, name):
        fn = getattr(module, name)

        def count(*args):
            built[running[0], name] += 1
            return fn(*args)
        monkeypatch.setattr(module, name, count)

    counted(checks, "make_pair")
    counted(coupling, "make_pair")
    counted(coupling, "_pair_weight_of")
    counted(coupling, "_g_of")
    report = checks.run_all()
    assert report["status"] == "pass"
    assert {name for number, name in built if number == "6"} == set()
    pairs = PINNED_DETAILS["4"]["pairs"]
    assert built["4", "_pair_weight_of"] == built["4", "_g_of"] == pairs
    assert built["4", "make_pair"] == pairs

    # called on its own, it builds its pairs and both routes for each
    built.clear()
    checks.check_g_oracles()
    assert built == Counter({(None, "make_pair"): pairs, (None, "_pair_weight_of"): pairs,
                             (None, "_g_of"): pairs})


def test_run_all_weighs_only_the_fillings_a_pair_reads(monkeypatch):
    # criterion 4 reads its singles' q-exponents off the slice-chain tree,
    # so only the 331 pooled pair fillings and criterion 5's example build
    # a full weight
    running = _tag_criteria(monkeypatch)
    weighed = Counter()
    weight_of = vertex_model._weight_of

    def counted(rpp):
        weighed[running[0]] += 1
        return weight_of(rpp)

    monkeypatch.setattr(vertex_model, "_weight_of", counted)
    assert checks.run_all()["status"] == "pass"
    assert weighed == Counter({"4": 331, "5": 1})


def test_run_all_leaves_no_pool(monkeypatch, capsys):
    checks.run_all()
    assert checks._pool is None

    def boom():
        assert checks._pool.fillings, "criterion 4 filled the filling pool"
        assert sum(map(len, checks._pool.pairs.values())) == PINNED_DETAILS["4"]["pairs"]
        raise RuntimeError("boom")

    number, criterion_4 = checks.ALL_CHECKS[3]
    monkeypatch.setattr(checks, "ALL_CHECKS", [(number, criterion_4), ("x", boom)])
    with pytest.raises(RuntimeError, match="boom"):
        checks.run_all()
    assert checks._pool is None
    monkeypatch.undo()

    assert cli.main(["verify-all", "--budget-seconds", "0"]) == 1
    capsys.readouterr()
    assert checks._pool is None


def test_criterion_7_builds_fillings_only_to_enumerate_them(monkeypatch):
    # the round trips run on slice chains and the counts on volumes: only
    # the enumerations, of 39, 57 and 331 fillings at volume <= 6, and the
    # worked example (one slide, one unslide) build fillings and pairs
    built = Counter()

    def counted(fn):
        def count(*args):
            built[fn.__name__] += 1
            return fn(*args)
        return count

    monkeypatch.setattr(rpp_core, "_from_chain", counted(rpp_core._from_chain))
    make_pair = counted(coupling.make_pair)
    for module in (coupling, checks, sliding):  # each binds its own name
        monkeypatch.setattr(module, "make_pair", make_pair)
    assert checks.check_sliding()["passed"]
    assert built == Counter({"_from_chain": 39 + 57 + 331 + 1 + 2, "make_pair": 2})


def _chains(pair):
    """The (blue, red) slice chains the g = 0 test reads of a pair."""
    return pair.blue.chain, pair.red.chain


def test_sliding_check_fails_either_way(monkeypatch):
    """Criterion 7 fails when the g = 0 test rejects a pair that unslide
    makes, and when it accepts one that unslide does not make: in the test
    of each dealt pair (`t0_chains`) or in the walk that finds the g = 0
    pairs (`t0_pairs`)."""
    check_t0, t0_chains, t0_pairs = (sliding.check_t0_constraints, sliding.t0_chains,
                                     sliding.t0_pairs)
    lost = sliding.unslide(next(r for r in rpp_core.enumerate_rpps((3, 1), 6) if r.volume))
    extra = next(p for p in (make_pair(b, r) for b, r in rpp_core.enumerate_pairs((2, 2), 6))
                 if not check_t0(p))
    lost, extra = _chains(lost), _chains(extra)
    with monkeypatch.context() as patch:
        patch.setattr(sliding, "t0_chains", lambda pattern, *chains:
                      chains != lost and t0_chains(pattern, *chains))
        assert checks.check_sliding()["details"]["failures"] == ["unslide-slide (3, 1)"]

    monkeypatch.setattr(sliding, "t0_pairs", lambda lam, bound:
                        [chains for chains in t0_pairs(lam, bound) if chains != lost])
    assert checks.check_sliding()["details"]["failures"] == ["slide-unslide (3, 1)"]

    monkeypatch.setattr(sliding, "t0_pairs", lambda lam, bound: (
        [*t0_pairs(lam, bound), extra] if lam == (2, 2) else t0_pairs(lam, bound)))
    assert checks.check_sliding()["details"]["failures"] == [
        "slide-unslide (2, 2)", "counting (2,2)"]
