"""The demos run to the end in-process and print their walk-through.

Each demo's stdout must equal its golden, ``tests/golden/demo_NN.txt``,
byte for byte. Demo 04 writes its CSV and model files only to a
temporary directory.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"
GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", ["01_canonical_analysis.py", "02_confidence_regions.py",
                                  "03_iso_response_trades.py", "04_fit_from_emissions.py"])
def test_demo_runs_and_prints(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"demo_{name[:2]}.txt").read_text()
