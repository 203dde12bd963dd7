"""Correctness checks for the benchmark's reports.

Every check takes a report's text plus what the benchmark computed on its
own (a model from `reference`, a grid, an exact function) and returns a
list of problems; an empty list means the report passed.
"""

from __future__ import annotations

import json
import math

import numpy as np

import reference as ref

# A Monte Carlo value passes when it lies within this many of its standard
# errors of the exact mean square.
MC_SIGMAS = 5.0
# Closed-form mean squares against the benchmark's own closed forms.
CLOSED_RTOL = 1e-9
# The cubic solver certifies |cubic(t_eps)| <= 1e-9 (1 + |ln eps|), so a
# synthetic t_eps, and a mean square taken at a time derived from it, is
# only that accurate.
SYNTHETIC_T_RTOL = 1e-8
SYNTHETIC_PROFILE_RTOL = 1e-7
# reference and closed_form cells of the scalar verify workload.
MACHINE_RTOL = 1e-13
CUBIC_RESIDUAL = 1e-9
EXAMPLE35_G_TOL = 1e-8
EXAMPLE35_F_TOL = 1e-6
# Points of the dense scan for an earlier first passage.
SCAN_POINTS = 4000
# tau must sit within this relative distance after the crossing: ten times
# the width of the program's final bisection bracket.
PASSAGE_RTOL = 1e-7


def close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.splitlines()
    if not lines:
        return [], []
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _csv_table(text: str, header: list[str], n_rows: int, problems: list[str]):
    got, rows = parse_csv(text)
    if got != header:
        problems.append(f"header {got} != {header}")
        return None
    if len(rows) != n_rows or any(len(r) != len(header) for r in rows):
        problems.append(f"expected {n_rows} rows of {len(header)} cells")
        return None
    return rows


def _within_se(name: str, t: float, value: float, se: float, exact: float, problems: list[str]):
    if not (math.isfinite(value) and math.isfinite(se) and se >= 0.0):
        problems.append(f"t={t}: {name} {value} +- {se} is not a finite estimate")
    elif abs(value - exact) > MC_SIGMAS * se + 1e-12 * abs(exact):
        problems.append(f"t={t}: {name} {value} +- {se} is {abs(value - exact) / max(se, 1e-300):.1f} SE from {exact}")


def check_verify(text: str, t_grid: list[float], exact, joint: bool) -> list[str]:
    """verify CSV against the exact mean square.

    joint=False (commutative): reference is the closed form to machine
    precision with reference_se = 0.  joint=True (first order): reference
    is an estimate, or the exact value with reference_se = 0, and status
    uses the joint standard error.  mc_value lies within MC_SIGMAS mc_se.
    """
    problems: list[str] = []
    rows = _csv_table(text, ["t", "reference", "reference_se", "mc_value", "mc_se", "status"], len(t_grid), problems)
    if rows is None:
        return problems
    for t, row in zip(t_grid, rows):
        tt, r, r_se, mc, mc_se = (float(c) for c in row[:5])
        if tt != t:
            problems.append(f"t cell {tt} != {t}")
            continue
        exact_v = exact(t)
        if joint:
            _within_se("reference", t, r, r_se, exact_v, problems)
        elif not (close(r, exact_v, MACHINE_RTOL) and r_se == 0.0):
            problems.append(f"t={t}: reference {r} (se {r_se}) != closed form {exact_v}")
        _within_se("mc_value", t, mc, mc_se, exact_v, problems)
        band = 3.0 * (math.hypot(r_se, mc_se) if joint else mc_se)
        expect = "pass" if abs(mc - r) <= band or (joint and t == 0.0) else "fail"
        if row[5] != expect:
            problems.append(f"t={t}: status {row[5]} but the 3-SE rule gives {expect}")
    return problems


def check_mean_square(text: str, t_grid: list[float], exact, with_mc: bool, rtol: float) -> list[str]:
    """mean-square CSV: closed_form against the benchmark's closed form;
    the MC columns within MC_SIGMAS SE when present, empty otherwise."""
    problems: list[str] = []
    rows = _csv_table(text, ["t", "closed_form", "mc_value", "mc_se"], len(t_grid), problems)
    if rows is None:
        return problems
    for t, row in zip(t_grid, rows):
        if float(row[0]) != t:
            problems.append(f"t cell {row[0]} != {t}")
            continue
        exact_v = float(exact(t))
        if not close(float(row[1]), exact_v, rtol, 1e-300):
            problems.append(f"t={t}: closed_form {row[1]} != {exact_v}")
        if with_mc:
            _within_se("mc_value", t, float(row[2]), float(row[3]), exact_v, problems)
        elif row[2:] != ["", ""]:
            problems.append(f"t={t}: MC cells {row[2:]} should be empty")
    return problems


def check_estimate(text: str, t: float, n_paths: int, exact: float) -> list[str]:
    """A library MCEstimate (as JSON) within MC_SIGMAS SE of the exact value."""
    problems: list[str] = []
    est = json.loads(text)
    if est["n_paths"] != n_paths:
        problems.append(f"n_paths {est['n_paths']} != {n_paths}")
    _within_se("estimate", t, est["value"], est["std_error"], exact, problems)
    return problems


def _hypotheses_problems(rep: dict, A, B) -> list[str]:
    problems = []
    commutes = ref.own_commutes(A, B)
    if rep["commutative"] != commutes:
        problems.append(f"commutative={rep['commutative']} but the commutator test gives {commutes}")
    if rep["normal_B"] != ref.own_normal(A, B):
        problems.append(f"normal_B={rep['normal_B']} disagrees with the normality test")
    if commutes and rep["first_order"]:
        problems.append("a commuting pair is reported first_order")
    if not close(rep["threshold"], ref.own_threshold(A, B), 1e-12):
        problems.append(f"threshold {rep['threshold']} != {ref.own_threshold(A, B)}")
    return problems


def check_hypotheses(text: str, A, B) -> list[str]:
    return _hypotheses_problems(json.loads(text), A, B)


def _cubic_schedule(sched: dict, model, eps: float, problems: list[str]):
    """A synthetic schedule: own dominant cubic, vanishing residual, own root."""
    for k in ("gamma", "b", "a"):
        if not close(sched.get(k, math.nan), getattr(model, k), CLOSED_RTOL, 1e-12):
            problems.append(f"eps={eps}: {k}={sched.get(k)} != dominant mode's {getattr(model, k)}")
    t = sched.get("t_eps", math.nan)
    g, b, a = sched.get("gamma", math.nan), sched.get("b", math.nan), sched.get("a", math.nan)
    residual = ((g * t + b) * t + a) * t + math.log(eps)
    if not abs(residual) <= CUBIC_RESIDUAL * (1.0 + abs(math.log(eps))):
        problems.append(f"eps={eps}: cubic residual {residual} at t_eps={t}")
    if not close(t, model.t_eps(eps), SYNTHETIC_T_RTOL):
        problems.append(f"eps={eps}: t_eps {t} != own root {model.t_eps(eps)}")
    if sched.get("ell_star") != 0 or sched.get("T_eps") != t or sched.get("tau_eps") != t:
        problems.append(f"eps={eps}: ell_star/T_eps/tau_eps {sched.get('ell_star')}, {sched.get('T_eps')}, {sched.get('tau_eps')} for a diagonalizable mode")


def check_analyze(text: str, model) -> list[str]:
    problems: list[str] = []
    out = json.loads(text)
    scheds = out.get("schedules", [])
    if [s.get("eps") for s in scheds] != list(model.eps_list):
        return [f"schedules for eps {[s.get('eps') for s in scheds]} != {model.eps_list}"]
    if isinstance(model, ref.CommutativeModel):
        if not np.allclose(np.array(out["Q"]), model.Q, rtol=0.0, atol=1e-13 * (1.0 + ref.fro(model.Q))):
            problems.append("Q differs from A + ((B + B*)/2)^2")
        if not close(out["q"], model.q, CLOSED_RTOL) or out["ell"] != model.ell:
            problems.append(f"(q, ell) = ({out['q']}, {out['ell']}) != own ({model.q}, {model.ell})")
        for s, eps in zip(scheds, model.eps_list):
            if not close(s.get("t_eps", math.nan), model.t_eps(eps), CLOSED_RTOL) or s.get("w_eps") != model.w:
                problems.append(f"eps={eps}: t_eps {s.get('t_eps')} != |ln eps|/q + (ell-1) ln|ln eps|/q = {model.t_eps(eps)}")
    elif isinstance(model, ref.SyntheticModel):
        for s, eps in zip(scheds, model.eps_list):
            if s.get("regime") != "synthetic":
                problems.append(f"eps={eps}: regime {s.get('regime')}")
            _cubic_schedule(s, model, eps, problems)
    else:
        problems += _hypotheses_problems(out["hypotheses"], model.A, model.B)
        modes = out["decomposition"]["modes"]
        if any(abs(m["gamma"]) > 1e-12 or abs(m["b"]) > 1e-12 for m in modes):
            problems.append("a commuting pair has nonzero cubic or quadratic mode coefficients")
        if not np.allclose(np.sort([m["a"] for m in modes]), model.mode_a(), rtol=CLOSED_RTOL, atol=1e-12):
            problems.append("mode coefficients a differ from -eig((B + B*)^2 / 2)")
        if any(s.get("regime") != "no_decay" for s in scheds):
            problems.append("a commuting first_order pair must give no_decay schedules")
    return problems


def _first_passage(model, tau: float, level: float, what: str, problems: list[str]):
    if not (math.isfinite(tau) and tau > 0.0):
        problems.append(f"{what}: tau {tau} is not a positive time")
        return
    at = float(model.msq(tau))
    if not at <= level * (1.0 + 1e-9):
        problems.append(f"{what}: mean square {at} at tau={tau} is above {level}")
    before = tau - PASSAGE_RTOL * (1.0 + tau)
    if before > 0.0 and not float(model.msq(before)) > level:
        problems.append(f"{what}: mean square is already below {level} at t={before}, just before tau={tau}")
    scan = np.linspace(0.0, tau, SCAN_POINTS + 1)[:-1]
    below = np.flatnonzero(model.msq(scan) <= level * (1.0 - 1e-9))
    if below.size:
        problems.append(f"{what}: first passage at t <= {scan[below[0]]:.6g}, before tau={tau}")


def check_mixing(text: str, model) -> list[str]:
    """Each tau is a first passage of the benchmark's mean square below
    delta eps^2, and tau / tau_ratio one below (1 - delta) eps^2."""
    problems: list[str] = []
    rows = _csv_table(text, ["eps", "delta", "tau", "tau_over_t_eps", "tau_ratio"], len(model.eps_list), problems)
    if rows is None:
        return problems
    rtol = SYNTHETIC_T_RTOL if isinstance(model, ref.SyntheticModel) else CLOSED_RTOL
    for eps, row in zip(model.eps_list, rows):
        e, delta, tau, over, ratio = (float(c) for c in row)
        if e != eps or delta != model.delta:
            problems.append(f"row ({e}, {delta}) != ({eps}, {model.delta})")
            continue
        _first_passage(model, tau, delta * eps**2, f"eps={eps} delta={delta}", problems)
        _first_passage(model, tau / ratio, (1.0 - delta) * eps**2, f"eps={eps} delta={1.0 - delta}", problems)
        if not close(over, tau / model.t_eps(eps), rtol):
            problems.append(f"eps={eps}: tau_over_t_eps {over} != {tau / model.t_eps(eps)}")
    return problems


def check_profile(text: str, model) -> list[str]:
    problems: list[str] = []
    header = ["rho"] + [f"eps={eps:.17g}" for eps in model.eps_list]
    rows = _csv_table(text, header, len(model.rho_grid), problems)
    if rows is None:
        return problems
    rtol = SYNTHETIC_PROFILE_RTOL if isinstance(model, ref.SyntheticModel) else CLOSED_RTOL
    for rho, row in zip(model.rho_grid, rows):
        if float(row[0]) != rho:
            problems.append(f"rho cell {row[0]} != {rho}")
            continue
        for eps, cell in zip(model.eps_list, row[1:]):
            t = max(model.t_eps(eps) + rho * model.w_eps(eps), 0.0)
            want = float(model.msq(t)) / eps**2
            if not close(float(cell), want, rtol):
                problems.append(f"rho={rho} eps={eps}: {cell} != {want}")
    return problems


def check_example35(text: str, t_grid: list[float]) -> list[str]:
    problems: list[str] = []
    ts = [t for t in t_grid if t >= 0.2]
    rows = _csv_table(text, ["t", "x", "g", "f", "g_residual", "f_residual"], len(ts), problems)
    if rows is None:
        return problems
    for t, row in zip(ts, rows):
        tt, x, g, _f, g_res, f_res = (float(c) for c in row)
        if tt != t or not close(x, ref.example35_x(t), 1e-12):
            problems.append(f"t={t}: (t, x) = ({tt}, {x}), want x = {ref.example35_x(t)}")
        if not (g_res <= EXAMPLE35_G_TOL and f_res <= EXAMPLE35_F_TOL):
            problems.append(f"t={t}: residuals {g_res}, {f_res} exceed {EXAMPLE35_G_TOL}, {EXAMPLE35_F_TOL}")
        if not close(g_res, abs(g - t), 1e-9, 1e-15):
            problems.append(f"t={t}: g_residual {g_res} != |g - t| = {abs(g - t)}")
    return problems
