import os
import re
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


def test_python_m_spintensor_runs_the_cli():
    src = Path(spintensor.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-m", "spintensor", "verify-identities",
                          "--format", "text"], env=env, capture_output=True, text=True)
    assert run.returncode == 0
    assert run.stdout.endswith("overall: PASS\n")


def test_readme_library_example_runs(capsys):
    # the one python block under README "Library example" runs as
    # written, so renaming or deleting a public name it uses fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library example\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert abs(float(lines[0]) - 2 / 3) < 1e-12
    assert lines[1] == "(5, 4, 2, 2)"
