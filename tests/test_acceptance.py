"""The full acceptance suite, one test per criterion, and its runner.

Each criterion prints its own PASS/FAIL line (also available through
``splitqm selftest``) and fails the test run if it does not hold at the
stated tolerance.
"""

import pytest

from splitqm import selftest
from splitqm.selftest import CRITERIA, DEFAULT_SEED, CriterionFailed, format_result, run_all, run_criterion

_IDS = [f"{number:02d}-{name}" for number, name, _ in CRITERIA]


def test_the_registry_is_complete():
    assert [number for number, _, _ in CRITERIA] == list(range(1, 14))


@pytest.mark.parametrize("number", [number for number, _, _ in CRITERIA], ids=_IDS)
def test_criterion(number, capsys):
    result = run_criterion(number, DEFAULT_SEED)
    with capsys.disabled():
        print(format_result(result))
    assert result.number == number
    assert result.passed, result.detail


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
