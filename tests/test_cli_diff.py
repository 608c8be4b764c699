"""scripts/cli_diff.py: the same CLI bytes pass; a moved default is named."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMAND = "poa --family power --beta 0.5 --gamma 0.05 --n-values 1:3"


def test_cli_diff_names_each_command_whose_output_moved(tmp_path):
    commands = tmp_path / "commands.txt"
    commands.write_text(f"# one command\n\n{COMMAND}\n")
    base = shutil.copytree(ROOT / "src", tmp_path / "src",
                           ignore=shutil.ignore_patterns("__pycache__"))

    def diff(src):
        return subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "cli_diff.py"),
             "--base-src", str(src), str(commands)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)

    assert diff("src").returncode == 0
    cli = base / "prorata" / "cli.py"
    text = cli.read_text()
    cli.write_text(text.replace('"n0": (int, 10,', '"n0": (int, 2,'))
    assert cli.read_text() != text
    moved = diff(base)
    assert moved.returncode == 1 and f"differs: {COMMAND}" in moved.stdout
