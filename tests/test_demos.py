"""The narrative scripts in demos/ run to completion and print their tables."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

EXPECTED = {
    "visibility_curves.py": ("signal loss", "remaining signal/idler gap"),
    "sensitivity_curves.py": ("signal loss", "lossy-idler example"),
    "unbalanced_visibility.py": ("seeded n_i=1e4", "seeded curve peaks near"),
}


@pytest.mark.parametrize("script", sorted(EXPECTED))
def test_demo_runs_and_prints_tables(script, capsys):
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    out = capsys.readouterr().out
    for text in EXPECTED[script]:
        assert text in out
    # each table has at least a header and several numeric rows
    assert sum(line.lstrip()[:1].isdigit() for line in out.splitlines()) >= 8
