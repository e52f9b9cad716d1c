import os
import subprocess
import sys
from pathlib import Path

import spintensor


def test_every_public_name_resolves():
    # each exported name is an attribute of the package, and a star
    # import binds exactly the export list in a fresh namespace
    missing = [name for name in spintensor.__all__ if not hasattr(spintensor, name)]
    assert not missing
    namespace = {}
    exec("from spintensor import *", namespace)
    namespace.pop("__builtins__")
    assert namespace.keys() == set(spintensor.__all__)


def test_runs_without_scipy():
    # scipy is a test dependency only: in a fresh interpreter where any
    # import of scipy fails, a seeded-deformation `all` (every expm
    # path) and a flat `covariance` (seeded frame changes) exit 0
    src = Path(spintensor.__file__).resolve().parents[1]
    code = ("import sys; sys.modules['scipy'] = None\n"
            "from spintensor.cli import main\n"
            "sys.exit(main(sys.argv[1:]))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    for args in (["all", "--spec", "seeded-deformation"], ["covariance", "--spec", "flat"]):
        run = subprocess.run([sys.executable, "-c", code, *args], env=env,
                             capture_output=True, text=True)
        assert (run.returncode, run.stderr) == (0, ""), args
