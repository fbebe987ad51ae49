"""The package's public names: each library module's ``__all__``, once."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

MODULES = ("groups", "words", "quasimorphisms", "counting", "automorphisms", "quasicocycles", "defect_space", "qrep")


def _declared() -> dict[str, list[str]]:
    return {m: importlib.import_module(f"splitqm.{m}").__all__ for m in MODULES}


def test_the_package_offers_exactly_the_modules_public_names():
    # A fresh interpreter, so submodules other tests import (cli, selftest)
    # are not attributes of the package yet.
    code = "import json, splitqm; print(json.dumps(sorted(n for n in vars(splitqm) if not n.startswith('_'))))"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    declared = {name for names in _declared().values() for name in names}
    assert set(json.loads(proc.stdout)) == declared | set(MODULES)
    assert importlib.import_module("splitqm").__version__ == "0.1.0"


def test_every_declared_name_exists_and_is_declared_once():
    owners = {}
    for module, names in _declared().items():
        mod = importlib.import_module(f"splitqm.{module}")
        assert len(names) == len(set(names)), module
        for name in names:
            assert hasattr(mod, name), f"{module}.{name}"
            assert owners.setdefault(name, module) == module, f"{name} in {owners[name]} and {module}"
