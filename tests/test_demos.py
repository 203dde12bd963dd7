"""The closed-form demos run end to end on the public API.

Demo 02 is left out: it spends about 10 s in Monte Carlo estimates whose
estimator tests/test_simulate.py covers.
"""

import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"
CLOSED_FORM_DEMOS = sorted(p.name for p in DEMOS.glob("0*.py") if not p.name.startswith("02_"))


def test_every_closed_form_demo_is_collected():
    assert [name[:2] for name in CLOSED_FORM_DEMOS] == ["01", "03", "04", "05", "06", "07"]


@pytest.mark.parametrize("name", CLOSED_FORM_DEMOS)
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
