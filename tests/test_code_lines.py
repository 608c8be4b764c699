"""scripts/code_lines.py: a directory counts as every Python file under it."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _rows(*paths):
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "code_lines.py"), *map(str, paths)],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return [line.split() for line in done.stdout.splitlines()[1:]]


def test_a_directory_counts_every_python_file_under_it(tmp_path):
    (tmp_path / "pkg").mkdir()
    a = tmp_path / "a.py"
    b = tmp_path / "pkg" / "b.py"
    a.write_text('"""Doc."""\n\nx = 1  # one\n')
    b.write_text("def f():\n    '''Doc.'''\n    return 2\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    rows = _rows(tmp_path)
    assert rows == _rows(a, b)
    assert rows == [[str(a), "3", "1"], [str(b), "3", "2"], ["total", "6", "3"]]
