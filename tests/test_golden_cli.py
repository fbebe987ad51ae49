"""Golden outputs of the command-line interface.

Each case runs ``python -m splitqm.cli`` in a subprocess from the repository
root and compares its exit code and stdout with ``tests/golden/<case>.txt``,
whose first line is ``exit <code>`` and whose remaining lines are stdout
byte for byte.  Regenerate the files with

    PYTHONPATH=src python tests/test_golden_cli.py --regen

and review the diff: a changed golden file is a changed CLI output.  With
``--entry-point`` instead, every case runs through the installed ``splitqm``
script on PATH, and any mismatch prints a diff and exits 1.
"""

import difflib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
SHOWCASE = "configs/showcase.json"


def _cases() -> dict[str, list[str]]:
    cases = {}
    for name in ("sign", "weights", "mixed"):
        for fmt in ("table", "json"):
            common = ["--config", SHOWCASE, "--format", fmt]
            cases[f"defect-{name}-{fmt}"] = ["defect", *common, name]
            cases[f"decompose-{name}-{fmt}"] = ["decompose", *common, name]
            cases[f"tau-check-{name}-3-{fmt}"] = ["tau-check", *common, name, "3"]
    cases["qrep-default"] = ["qrep"]
    cases["qrep-finite_qrep"] = ["qrep", "--config", "configs/finite_qrep.json"]
    cases["qc-growth-default"] = ["qc-growth"]
    for config in sorted((ROOT / "configs").glob("*.json")):
        cases[f"qc-growth-{config.stem}"] = ["qc-growth", "--config", f"configs/{config.name}"]
    cases["defect-space"] = ["defect-space"]
    cases["rademacher"] = ["rademacher"]
    cases["selftest-sign-2-12-13"] = ["selftest", "--config", "configs/sign.json", "--only", "2,12,13"]
    # A 9-letter conjugate h g h^-1 with h = a^2 b, and a raw spelling of it.
    homogenize = ["homogenize", "--config", SHOWCASE, "weights"]
    cases["homogenize-weights-conjugate"] = [*homogenize, "a^2 b a b^2 a^3 b^2 a^-3 b^-1 a^-2"]
    cases["homogenize-weights-raw"] = [*homogenize, "a a b a b b a^3 b^2 a^-3 a^0 b^-1 b b^-1 a^-2"]
    return cases


CASES = _cases()


def _run(argv: list[str], entry_point: bool = False) -> str:
    """The golden text of one run: of ``splitqm`` on PATH in its own
    environment, or of ``python -m splitqm.cli`` with ``src`` on PYTHONPATH."""
    if entry_point:
        command, env = ["splitqm"], None
    else:
        command, env = [sys.executable, "-m", "splitqm.cli"], dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([*command, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    return f"exit {proc.returncode}\n{proc.stdout}"


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case):
    expected = (GOLDEN / f"{case}.txt").read_text(encoding="utf-8")
    assert _run(CASES[case]) == expected


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(CASES)


if __name__ == "__main__":
    if sys.argv[1:] == ["--entry-point"]:
        failed = 0
        for case, argv in sorted(CASES.items()):
            expected, got = (GOLDEN / f"{case}.txt").read_text(encoding="utf-8"), _run(argv, entry_point=True)
            if got != expected:
                failed += 1
                diff = difflib.unified_diff(expected.splitlines(True), got.splitlines(True), case, "splitqm")
                sys.stdout.writelines(diff)
        print(f"{len(CASES) - failed} of {len(CASES)} golden cases match through the splitqm entry point")
        sys.exit(1 if failed else 0)
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: test_golden_cli.py --regen | --entry-point")
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.glob("*.txt"):
        stale.unlink()
    for case, argv in sorted(CASES.items()):
        (GOLDEN / f"{case}.txt").write_text(_run(argv), encoding="utf-8")
        print(case)
