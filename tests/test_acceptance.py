"""The full acceptance suite, one test per criterion, and its runner.

Each criterion prints its own PASS/FAIL line (also available through
``splitqm selftest``) and fails the test run if it does not hold at the
stated tolerance.
"""

import re

import pytest

from splitqm import selftest
from splitqm.quasimorphisms import FactorQM
from splitqm.selftest import CRITERIA, DEFAULT_SEED, CriterionFailed, format_result, run_all, run_criterion

_IDS = [f"{number:02d}-{name}" for number, name, _ in CRITERIA]

# Each criterion's detail at the default seed, criterion 1's without its time.
DETAILS = {
    1: "20 configs x 10000 pairs, max defect 10",
    2: "anchor = 2 and 500 words match the oracle",
    3: "4139 words x 9 powers x 6 conjugators",
    4: "3816 window pairs doubled; 10 maximized witnesses; 10000 sampled pairs bounded",
    5: "13121 words, 342232 exhaustive occurring-subword checks",
    6: "10 configs x (1000 random + 9 boundary) words, residual 0",
    7: "n in {3,4,5}: 3 exhaustive layers invariant, 9 violation witnesses grow; |n|<=2 forces 0",
    8: "10500 conjugation pairs bounded",
    9: "ladder p=2 q=3 and staircase exact to depth 6 in dim-3 and regular (p=1,2); inner split on 500 words",
    10: "1639 vectors bounded+sandwiched; embeddings isometric on both chains",
    11: "defect equalities hold; 1018 witness searches succeeded",
    12: "junction-power values exact; triviality correct on 81 tables",
    13: "literal convention rejected: ladder evaluation at depth 2 is not 2 times the seed vector",
}


def test_the_registry_is_complete():
    assert [number for number, _, _ in CRITERIA] == list(range(1, 14))


@pytest.mark.parametrize("number", [number for number, _, _ in CRITERIA], ids=_IDS)
def test_criterion(number, capsys):
    result = run_criterion(number, DEFAULT_SEED)
    with capsys.disabled():
        print(format_result(result))
    assert result.number == number
    assert result.passed, result.detail
    detail = re.sub(r", [0-9.]+s$", "", result.detail) if number == 1 else result.detail
    assert detail == DETAILS[number]


def _fails(rng):
    raise CriterionFailed("value 3 is not 2")


def _breaks(rng):
    raise KeyError("missing")


def test_runner_turns_outcomes_into_results(monkeypatch):
    monkeypatch.setattr(
        selftest,
        "CRITERIA",
        ((1, "passes", lambda rng: "holds"), (2, "fails", _fails), (3, "breaks", _breaks)),
    )
    assert [format_result(r) for r in run_all()] == [
        "[ 1] PASS passes: holds",
        "[ 2] FAIL fails: value 3 is not 2",
        "[ 3] FAIL breaks: raised KeyError('missing')",
    ]


def test_runner_derives_the_rng_from_the_name(monkeypatch):
    monkeypatch.setattr(selftest, "CRITERIA", ((1, "draw", lambda rng: str(rng.random())),))
    expected = str(selftest.child_rng(5, "draw").random())
    assert run_criterion(1, 5).detail == expected


def test_run_all_is_lazy(monkeypatch):
    ran = []

    def record(rng):
        ran.append(len(ran) + 1)
        return "ran"

    monkeypatch.setattr(selftest, "CRITERIA", ((1, "first", record), (2, "second", record)))
    results = run_all(only={1, 2})
    assert ran == []
    assert next(results).name == "first"
    assert ran == [1]


def test_doubling_witness_criterion_compares_the_norm_with_a_wider_scan(monkeypatch):
    # A window too narrow at scale 1 only, though it still holds the finite
    # support: the norm and split_defect read the same narrow scans, and
    # only the scans at scale 2 see past them.
    window = FactorQM.defect_window

    def narrow(q, scale=1):
        return 2 * q.support_radius if scale == 1 else window(q, scale)

    monkeypatch.setattr(FactorQM, "defect_window", narrow)
    result = run_criterion(4, DEFAULT_SEED)
    assert not result.passed
    assert result.detail.endswith("on windows twice as wide")
