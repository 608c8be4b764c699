"""Golden outputs: the exact bytes of every `reproduce` figure.

The files under ``tests/golden/`` were written by ``prorata reproduce
<figure> --trials 5 --seed 0``. A refactor or a faster solver must leave
every byte in place; a changed byte needs an explanation, never a
regenerated fixture.
"""

from pathlib import Path

import pytest

from prorata.cli import FIGURES, main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("figure", FIGURES)
def test_reproduce_matches_golden_bytes(figure, capsys):
    code = main(["reproduce", figure, "--trials", "5", "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{figure}.csv").read_text()
