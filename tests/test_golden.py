"""Golden bytes: the C8 command list must reproduce the committed outputs.

`tests/golden/` holds every file the commands write and, under `stdout/`,
what each command prints. C8 only compares one run with another; this pins
both to fixed bytes, so a change that alters any output shows here. After an
intended output change, rewrite the directory with
`PYTHONPATH=src python tests/test_golden.py` and review the diff.

The bytes do not depend on the Python version: every other `python3.10`
to `python3.13` found on PATH or among the pyenv builds runs the commands
too, in a child process.
"""

import json
import os
import shutil
import subprocess
from pathlib import Path

import pytest

from conftest import other_pythons, run_c8

GOLDEN = Path(__file__).parent / "golden"


def _files(root: Path) -> list[str]:
    """Every file under root, as sorted POSIX paths relative to it."""
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())


def assert_golden(out: Path, stdouts: dict[str, str]) -> None:
    """The files under `out` and the printed texts equal the golden ones."""
    written = _files(out)
    golden = [name for name in _files(GOLDEN) if not name.startswith("stdout/")]
    assert written == golden
    for name in written:
        assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), name
    assert sorted(stdouts) == sorted(p.name for p in (GOLDEN / "stdout").iterdir())
    for name, text in stdouts.items():
        assert text == (GOLDEN / "stdout" / name).read_text(encoding="utf-8"), name


def test_c8_outputs_match_golden_bytes(tmp_path):
    assert_golden(tmp_path / "out", run_c8(tmp_path))


# Run by another interpreter: the C8 commands in the directory argv[1], and
# then what each command printed, as JSON on stdout.
CHILD = """
import json, sys
from pathlib import Path
from conftest import run_c8
print(json.dumps(run_c8(Path(sys.argv[1]))))
"""


def test_c8_outputs_match_golden_bytes_on_other_pythons(tmp_path):
    pythons = other_pythons()
    if not pythons:
        pytest.skip("no other python3.10 to python3.13 on PATH or under pyenv")
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "tests")])}
    for n, python in enumerate(pythons):
        workdir = tmp_path / str(n)
        workdir.mkdir()
        child = subprocess.run(
            [python, "-c", CHILD, str(workdir)], env=env, capture_output=True, text=True
        )
        assert child.returncode == 0, (python, child.stderr)
        assert_golden(workdir / "out", json.loads(child.stdout))


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        stdouts = run_c8(Path(tmp))
        shutil.rmtree(GOLDEN, ignore_errors=True)
        shutil.copytree(Path(tmp) / "out", GOLDEN)
    (GOLDEN / "stdout").mkdir()
    for name, text in stdouts.items():
        (GOLDEN / "stdout" / name).write_text(text, encoding="utf-8")
