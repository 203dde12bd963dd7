"""Each correctness check accepts the program's real output and rejects a
perturbed copy of it.

Run: python3 -m pytest bench/test_checks.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402

SEED = 3


def set_cell(text: str, row: int, col: int, value) -> str:
    """Replace one CSV cell (row 0 is the first data row)."""
    lines = text.splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = value if isinstance(value, str) else f"{value:.17g}"
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def scale_cell(text: str, row: int, col: int, factor: float) -> str:
    return set_cell(text, row, col, float(checks.parse_csv(text)[1][row][col]) * factor)


def cell(text: str, row: int, col: int) -> float:
    return float(checks.parse_csv(text)[1][row][col])


def outputs(wl) -> dict:
    out = {}
    for op in wl.ops:
        rc, text, err = op.run()
        assert rc == 0, (op.name, err)
        out[op.name] = (op, text)
    return out


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    return outputs(workloads.build("closed-form-sweep", SEED, str(tmp_path_factory.mktemp("sweep"))))


@pytest.fixture(scope="module")
def scalar(tmp_path_factory):
    mp = pytest.MonkeyPatch()
    mp.setattr(workloads, "SCALAR_PATHS", 512)
    try:
        return outputs(workloads.build("verify-scalar", SEED, str(tmp_path_factory.mktemp("scalar"))))
    finally:
        mp.undo()


@pytest.fixture(scope="module")
def heisenberg(tmp_path_factory):
    mp = pytest.MonkeyPatch()
    mp.setattr(workloads, "HEISENBERG_PATHS", 512)
    try:
        return outputs(workloads.build("verify-heisenberg", SEED, str(tmp_path_factory.mktemp("heis"))))
    finally:
        mp.undo()


def rejects(op, text) -> bool:
    return bool(op.check((0, text, "")))


def test_real_outputs_pass_except_the_known_fault(sweep, scalar, heisenberg):
    for outs in (sweep, scalar, heisenberg):
        for name, (op, text) in outs.items():
            assert rejects(op, text) == bool(op.known_fault), (name, op.check((0, text, "")))


def test_nonzero_exit_fails(scalar):
    op, _ = scalar["verify"]
    assert op.check((1, "", "config_mc_seed\n")) == ["exit code 1: config_mc_seed"]


def test_verify_scalar_rejects(scalar):
    op, text = scalar["verify"]
    assert rejects(op, scale_cell(text, 3, 1, 1 + 1e-6))  # reference off the closed form
    assert rejects(op, set_cell(text, 3, 2, 1e-3))  # reference_se must be 0
    shifted = set_cell(text, 3, 3, cell(text, 3, 3) + 6 * cell(text, 3, 4))
    assert rejects(op, shifted)  # mc_value 6 SE away
    flipped = set_cell(text, 3, 5, "fail" if checks.parse_csv(text)[1][3][5] == "pass" else "pass")
    assert rejects(op, flipped)
    assert rejects(op, "\n".join(text.splitlines()[:-1]) + "\n")  # a row missing


def test_mean_square_rejects(scalar, sweep):
    op, text = scalar["mean-square"]
    assert rejects(op, scale_cell(text, 5, 1, 1 + 1e-6))
    assert rejects(op, set_cell(text, 5, 2, cell(text, 5, 2) + 6 * cell(text, 5, 3)))
    op, text = next(v for k, v in sweep.items() if k.startswith("mean-square:synthetic"))
    assert rejects(op, scale_cell(text, 4, 1, 1 + 1e-6))
    assert rejects(op, set_cell(text, 4, 2, 0.5))  # synthetic mode has no MC cells


def test_verify_heisenberg_accepts_exact_reference_and_rejects(heisenberg):
    op, text = heisenberg["verify"]
    exact = text
    for row, t in enumerate(workloads.DEFAULT_T_GRID):
        exact = set_cell(exact, row, 1, 1 + t * t + t**3 / 3)
        exact = set_cell(exact, row, 2, 0.0)
        mc, se = cell(exact, row, 3), cell(exact, row, 4)
        ok = abs(mc - cell(exact, row, 1)) <= 3 * se or t == 0.0
        exact = set_cell(exact, row, 5, "pass" if ok else "fail")
    assert not rejects(op, exact)
    assert rejects(op, set_cell(text, 4, 1, cell(text, 4, 1) + 6 * cell(text, 4, 2)))
    assert rejects(op, set_cell(text, 4, 3, cell(text, 4, 3) - 6 * cell(text, 4, 4)))
    assert rejects(op, set_cell(exact, 4, 1, cell(exact, 4, 1) * (1 + 1e-6)))


def test_magnus_estimate_rejects(heisenberg):
    op, text = heisenberg["magnus-t2"]
    est = json.loads(text)
    est["value"] += 6 * est["std_error"]
    assert rejects(op, json.dumps(est))


def test_hypotheses_rejects(sweep):
    for name, (op, text) in sweep.items():
        if name.startswith("hypotheses:"):
            rep = json.loads(text)
            rep["commutative"] = not rep["commutative"]
            assert rejects(op, json.dumps(rep)), name


def _edit_json(text: str, edit) -> str:
    out = json.loads(text)
    edit(out)
    return json.dumps(out)


def test_analyze_rejects(sweep):
    analyses = {k: v for k, v in sweep.items() if k.startswith("analyze:")}
    assert len(analyses) == 14
    for name, (op, text) in analyses.items():
        if name.startswith("analyze:commutative"):
            assert rejects(op, _edit_json(text, lambda o: o["schedules"][1].update(t_eps=o["schedules"][1]["t_eps"] * (1 + 1e-6))))
            assert rejects(op, _edit_json(text, lambda o: o.update(ell=o["ell"] + 1)))
            assert rejects(op, _edit_json(text, lambda o: o.update(q=o["q"] * (1 + 1e-6))))
        if name.startswith("analyze:synthetic"):
            # a wrong root leaves a cubic residual
            assert rejects(op, _edit_json(text, lambda o: o["schedules"][0].update(t_eps=o["schedules"][0]["t_eps"] * (1 + 1e-6))))
            assert rejects(op, _edit_json(text, lambda o: o["schedules"][2].update(gamma=o["schedules"][2]["gamma"] * 1.01)))
            assert rejects(op, _edit_json(text, lambda o: o["schedules"][1].update(regime="first_order")))
        if name.startswith("analyze:first"):
            assert rejects(op, _edit_json(text, lambda o: o["schedules"][1].update(regime="first_order")))
            assert rejects(op, _edit_json(text, lambda o: o["hypotheses"].update(commutative=False)))


def test_mixing_rejects_a_late_or_early_tau(sweep):
    mixings = {k: v for k, v in sweep.items() if k.startswith("mixing:") and not v[0].known_fault}
    assert len(mixings) == 11
    for name, (op, text) in mixings.items():
        tau, ratio = cell(text, 1, 2), cell(text, 1, 4)
        # past the first passage: below the level at tau, but an earlier crossing exists
        later = set_cell(set_cell(text, 1, 2, tau * 1.2), 1, 4, ratio * 1.2)
        assert rejects(op, later), name
        assert rejects(op, set_cell(set_cell(text, 1, 2, tau * 0.98), 1, 4, ratio * 0.98)), name
        # a bisection stopped 1e-6 late: no scan point falls in between
        late = set_cell(set_cell(text, 1, 2, tau * (1 + 1e-6)), 1, 4, ratio * (1 + 1e-6))
        assert rejects(op, scale_cell(late, 1, 3, 1 + 1e-6)), name
        assert rejects(op, scale_cell(text, 1, 3, 1 + 1e-6)), name


def _first_passage(model, level: float) -> float:
    ts = np.linspace(0.0, 40.0, 400_001)
    k = int(np.flatnonzero(model.msq(ts) <= level)[0])
    lo, hi = ts[k - 1], ts[k]
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if model.msq(mid) <= level else (mid, hi)
    return hi


def test_known_fault_fails_and_its_fix_would_pass(sweep):
    op, text = sweep["mixing:non-monotone"]
    m = workloads.NON_MONOTONE
    assert any("first passage" in p for p in op.check((0, text, "")))
    eps = m.eps_list[0]
    tau = _first_passage(m, m.delta * eps**2)
    assert 9.3 < tau < 9.5 and cell(text, 0, 2) > 13.0
    fixed = set_cell(set_cell(set_cell(text, 0, 2, tau), 0, 3, tau / m.t_eps(eps)), 0, 4, 1.0)
    assert not rejects(op, fixed)


def test_profile_rejects(sweep):
    for name, (op, text) in sweep.items():
        if name.startswith("profile:"):
            factor = 1 + 1e-6 if "commutative" in name else 1 + 1e-5
            assert rejects(op, scale_cell(text, 2, 1, factor)), name


def test_example35_rejects(sweep):
    op, text = sweep["example35:example35"]
    assert rejects(op, set_cell(text, 10, 4, 2e-8))
    assert rejects(op, set_cell(text, 10, 5, 2e-6))
    assert rejects(op, scale_cell(text, 10, 1, 1 + 1e-9))


def test_checks_are_deterministic_for_a_seed(tmp_path):
    a = workloads.build("closed-form-sweep", SEED, str(tmp_path / "a"))
    b = workloads.build("closed-form-sweep", SEED, str(tmp_path / "b"))
    for pa, pb in zip(a.configs, b.configs):
        assert Path(pa).read_text() == Path(pb).read_text()
    assert [op.name for op in a.ops] == [op.name for op in b.ops]
    assert len(a.ops) == 52
