"""The package runs on numpy alone: importing it pulls in no test-only library."""

import os
import subprocess
import sys

import mxmnet

_PROBE = """
import importlib, pkgutil, sys
import mxmnet
names = [m.name for m in pkgutil.iter_modules(mxmnet.__path__)]
for name in names:
    importlib.import_module("mxmnet." + name)
print(" ".join(sorted(names)))
print(" ".join(sorted({k.split(".")[0] for k in sys.modules})))
"""


def test_package_imports_without_test_only_libraries():
    src = os.path.dirname(os.path.dirname(os.path.abspath(mxmnet.__file__)))
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE], capture_output=True, text=True, env=env, check=True
    )
    names, loaded = (line.split() for line in proc.stdout.splitlines())
    assert {"basis", "cli", "data", "graph", "model", "training"} <= set(names)
    assert "numpy" in loaded
    assert not {"scipy", "mpmath", "pytest"} & set(loaded)
