"""The study scripts in scripts/ run end to end at their default seeds.

Each script's output files and stdout are pinned to the bytes in
`tests/golden_scripts/<script>/`, with the `--out` directory written as
`<out>` in `stdout.txt`. After an intended output change, rewrite them with
`PYTHONPATH=src python tests/test_scripts.py` and review the diff. Every
other `python3.10` to `python3.13` found on PATH or among the pyenv builds
runs the scripts too, and must write the same bytes.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import other_pythons

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden_scripts"
SCRIPTS = sorted(p.name for p in (ROOT / "scripts").glob("*.py"))


def run_script(name, out, python=sys.executable):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [python, str(ROOT / "scripts" / name), "--out", str(out)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def assert_script_golden(script, out, stdout):
    """The files in `out` and the printed text equal the script's golden ones."""
    golden = GOLDEN / Path(script).stem
    files = sorted(p.name for p in out.iterdir())
    assert sorted(p.name for p in golden.iterdir()) == sorted(files + ["stdout.txt"])
    for name in files:
        assert (out / name).read_bytes() == (golden / name).read_bytes(), name
    expected = (golden / "stdout.txt").read_text(encoding="utf-8")
    assert stdout.replace(str(out), "<out>") == expected


@pytest.mark.parametrize(
    "script,files,lines",
    [
        (
            "market_band_study.py",
            ["by_dollar_age.csv", "by_duration.csv", "comparison.csv"],
            ["quotes: 30 usable, 0 filtered out", "comparison: 30 rows, 0 row errors"],
        ),
        (
            "share_curve_study.py",
            ["seasoned_age7_surface.csv", "young_age1_surface.csv"],
            ["young: 24 assets, base age 1", "seasoned: 21 assets, base age 7"],
        ),
    ],
)
def test_script_writes_its_tables(tmp_path, script, files, lines):
    result = run_script(script, tmp_path)
    assert result.returncode == 0, result.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == files
    for name in files:
        assert len((tmp_path / name).read_text().splitlines()) > 1
    stdout = result.stdout.splitlines()
    for line in lines:
        assert line in stdout
    assert_script_golden(script, tmp_path, result.stdout)


def test_scripts_match_golden_bytes_on_other_pythons(tmp_path):
    pythons = other_pythons()
    if not pythons:
        pytest.skip("no other python3.10 to python3.13 on PATH or under pyenv")
    for n, python in enumerate(pythons):
        for script in SCRIPTS:
            out = tmp_path / f"{n}-{Path(script).stem}"
            out.mkdir()
            result = run_script(script, out, python)
            assert result.returncode == 0, (python, result.stderr)
            assert_script_golden(script, out, result.stdout)


if __name__ == "__main__":
    import shutil
    import tempfile

    shutil.rmtree(GOLDEN, ignore_errors=True)
    for script in SCRIPTS:
        with tempfile.TemporaryDirectory() as tmp:
            result = run_script(script, tmp)
            assert result.returncode == 0, result.stderr
            shutil.copytree(tmp, GOLDEN / Path(script).stem)
            stdout = result.stdout.replace(tmp, "<out>")
        (GOLDEN / Path(script).stem / "stdout.txt").write_text(stdout, encoding="utf-8")
