"""Golden bytes: the C8 command list must reproduce the committed outputs.

`tests/golden/` holds every file the commands write and, under `stdout/`,
what each command prints. C8 only compares one run with another; this pins
both to fixed bytes, so a change that alters any output shows here. After an
intended output change, rewrite the directory with
`PYTHONPATH=src python tests/test_golden.py` and review the diff.
"""

import contextlib
import io
import json
from pathlib import Path

from conftest import C8_SPEC, c8_commands
from royaltyval.cli import main

GOLDEN = Path(__file__).parent / "golden"
COMMANDS = {"synth", "validate", "curves", "multipliers", "value", "compare"}


def run_c8(workdir: Path) -> dict[str, str]:
    """Run the C8 commands with outputs in workdir/out; stdout per command."""
    spec_path = workdir / "population.json"
    spec_path.write_text(json.dumps(C8_SPEC))
    stdouts = {}
    for n, argv in enumerate(c8_commands(spec_path, workdir / "out"), start=1):
        command = next(a for a in argv if a in COMMANDS)
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            assert main(argv) == 0, argv
        stdouts[f"{n}-{command}.txt"] = buffer.getvalue()
    return stdouts


def _files(root: Path) -> list[str]:
    """Every file under root, as sorted POSIX paths relative to it."""
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())


def test_c8_outputs_match_golden_bytes(tmp_path):
    stdouts = run_c8(tmp_path)
    out = tmp_path / "out"
    written = _files(out)
    golden = [name for name in _files(GOLDEN) if not name.startswith("stdout/")]
    assert written == golden
    for name in written:
        assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), name
    assert sorted(stdouts) == sorted(p.name for p in (GOLDEN / "stdout").iterdir())
    for name, text in stdouts.items():
        assert text == (GOLDEN / "stdout" / name).read_text(encoding="utf-8"), name


if __name__ == "__main__":
    import shutil
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        stdouts = run_c8(Path(tmp))
        shutil.rmtree(GOLDEN, ignore_errors=True)
        shutil.copytree(Path(tmp) / "out", GOLDEN)
    (GOLDEN / "stdout").mkdir()
    for name, text in stdouts.items():
        (GOLDEN / "stdout" / name).write_text(text, encoding="utf-8")
