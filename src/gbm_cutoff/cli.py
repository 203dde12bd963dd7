"""Command line front end: config ingestion, dispatch, machine-readable reports.

Usage:
    gbm-cutoff <command> --config cfg.json [--eps ...] [--seed N]
               [--paths N] [--dt X] [--out PATH]

Commands: hypotheses, analyze, mean-square, mixing, profile, verify,
example35.  Output formats are documented in docs/formats.md.  Any failure
exits nonzero after printing a single-line error code to stderr; a report
value that is not finite is a failure.  Output files are written in one
shot only after the computation succeeded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .commutative_cutoff import cutoff_time_from_rate, drift_mean_square, effective_drift
from .errors import ToolkitError
from .hypothesis_checks import check_pair
from .linalg_core import as_vector, matrix_from_rows, matrix_to_rows
from .mixing import mixing_time
from .noncommutative_cutoff import (
    cutoff_schedule_first_order,
    example35_check,
    mean_square_first_order,
    mode_decomposition,
    synthetic_mode_decomposition,
)
from .simulate import SEED_END, estimate_mean_square
from .spectral_asymptotics import extract_asymptotics
from .system import GBMSystem

COMMANDS = ("hypotheses", "analyze", "mean-square", "mixing", "profile", "verify", "example35")
MODES = ("commutative", "first_order", "synthetic")
FORMATS = ("csv", "json")

_EPS_MAX = math.exp(-1.0)


def _fmt(v: float) -> str:
    """17 significant digits: round-trip exact for doubles."""
    return f"{float(v):.17g}"


@dataclass
class RunConfig:
    mode: str
    A: Optional[np.ndarray] = None
    B: Optional[np.ndarray] = None
    alpha: Optional[np.ndarray] = None
    beta: Optional[np.ndarray] = None
    Gamma: Optional[np.ndarray] = None
    x: np.ndarray = None
    eps_list: list[float] = field(default_factory=lambda: [math.exp(-4), math.exp(-6), math.exp(-8)])
    delta: float = 0.5
    rho_grid: list[float] = field(default_factory=lambda: [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0])
    w: float = 1.0
    t_grid: list[float] = field(default_factory=lambda: [0.25 * k for k in range(9)])
    t_grid_set: bool = False
    n_paths: int = 100_000
    dt: float = 1e-3
    seed: int = 1
    tol: float = 1e-10
    out_path: Optional[str] = None
    out_format: Optional[str] = None


def _load_matrix(raw, name: str) -> np.ndarray:
    try:
        return matrix_from_rows(raw, name)
    except ToolkitError as exc:
        mapping = {"not_square": "config_matrix_not_square", "not_finite": "config_entries_not_finite"}
        raise ToolkitError(mapping.get(exc.code, "config_matrix_not_square"), str(exc)) from exc


# One validator per range-checked field, shared by load_config and the
# command line overrides: field -> (error code, requirement, test).  A list
# field is a nonempty list whose every entry passes the test; an integer
# field takes JSON integers, the others any JSON number, tested as float.
_LIST_FIELDS = ("eps_list", "rho_grid", "t_grid")
_INT_FIELDS = ("n_paths", "seed")
_FIELDS = {
    "eps_list": ("config_eps_range", "a nonempty list of reals in (0, e^-1)", lambda v: 0.0 < v < _EPS_MAX),
    "delta": ("config_delta_range", "a real in (0, 1)", lambda v: 0.0 < v < 1.0),
    "rho_grid": ("config_bad_rho_grid", "a nonempty list of finite reals", math.isfinite),
    "w": ("config_w_range", "a positive real", lambda v: v > 0.0),
    "t_grid": ("config_bad_t_grid", "a nonempty list of nonnegative finite reals",
               lambda v: math.isfinite(v) and v >= 0.0),
    "n_paths": ("config_mc_paths", "an integer >= 100", lambda v: v >= 100),
    "dt": ("config_mc_dt", "a positive real", lambda v: v > 0.0),
    "seed": ("config_mc_seed", "an integer in [0, 2^64)", lambda v: 0 <= v < SEED_END),
    "tol": ("config_tol_range", "a real in (0, 1)", lambda v: 0.0 < v < 1.0),
}


def _validated(key: str, value):
    """The value of field `key` as the run uses it, or the field's error code."""
    code, rule, ok = _FIELDS[key]
    kind = int if key in _INT_FIELDS else (int, float)
    entries = value if key in _LIST_FIELDS else [value]
    typed = isinstance(entries, list) and all(isinstance(v, kind) for v in entries)
    try:
        out = [v if kind is int else float(v) for v in entries] if typed else []
    except OverflowError:  # a JSON integer beyond the double range
        out = []
    if not out or not all(map(ok, out)):
        raise ToolkitError(code, f"{key} must be {rule}, got {value!r}")
    return out if key in _LIST_FIELDS else out[0]


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ToolkitError("config_unreadable", str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise ToolkitError("config_invalid_json", str(exc)) from exc
    if not isinstance(raw, dict):
        raise ToolkitError("config_invalid_json", "top level must be an object")

    mode = raw.get("mode")
    if mode not in MODES:
        raise ToolkitError("config_bad_mode", f"mode must be one of {MODES}, got {mode!r}")

    cfg = RunConfig(mode=mode)

    if mode == "synthetic":
        needed = ("alpha", "beta", "Gamma", "A", "x")
    else:
        needed = ("A", "B", "x")
    for key in needed:
        if key not in raw:
            raise ToolkitError("config_missing_field", f"mode {mode} requires {key!r}")

    cfg.A = _load_matrix(raw["A"], "A")
    if mode == "synthetic":
        cfg.alpha = _load_matrix(raw["alpha"], "alpha")
        cfg.beta = _load_matrix(raw["beta"], "beta")
        cfg.Gamma = _load_matrix(raw["Gamma"], "Gamma")
        mats = {"alpha": cfg.alpha, "beta": cfg.beta, "Gamma": cfg.Gamma}
    else:
        cfg.B = _load_matrix(raw["B"], "B")
        mats = {"B": cfg.B}
    for name, M in mats.items():
        if M.shape != cfg.A.shape:
            raise ToolkitError("config_dim_mismatch", f"{name} shape {M.shape} != A shape {cfg.A.shape}")

    try:
        cfg.x = as_vector(raw["x"], "x")
    except ToolkitError as exc:
        raise ToolkitError("config_entries_not_finite", str(exc)) from exc
    if cfg.x.size != cfg.A.shape[0]:
        raise ToolkitError("config_dim_mismatch", f"x length {cfg.x.size} != A dim {cfg.A.shape[0]}")
    if not np.any(cfg.x != 0.0):
        raise ToolkitError("config_x_zero", "x must be nonzero")

    for key in ("eps_list", "delta", "rho_grid", "w", "t_grid"):
        if key in raw:
            setattr(cfg, key, _validated(key, raw[key]))
    cfg.t_grid_set = "t_grid" in raw
    mc = raw.get("mc", {})
    if not isinstance(mc, dict):
        raise ToolkitError("config_mc_invalid", "mc must be an object")
    for key in ("n_paths", "dt", "seed"):
        if key in mc:
            setattr(cfg, key, _validated(key, mc[key]))
    if "tol" in raw:
        cfg.tol = _validated("tol", raw["tol"])

    out = raw.get("output", {})
    if not isinstance(out, dict):
        raise ToolkitError("config_bad_format", "output must be an object")
    if "format" in out:
        if out["format"] not in FORMATS:
            raise ToolkitError("config_bad_format", f"format must be one of {FORMATS}")
        cfg.out_format = out["format"]
    if "path" in out:
        if not isinstance(out["path"], str) or not out["path"]:
            raise ToolkitError("config_bad_format", "output.path must be a nonempty string")
        cfg.out_path = out["path"]

    return cfg


def _system(cfg: RunConfig) -> Optional[GBMSystem]:
    """The simulable triple; a synthetic config has no diffusion matrix."""
    if cfg.mode == "synthetic":
        return None
    return GBMSystem(A=cfg.A, B=cfg.B, x=cfg.x, tol=cfg.tol)


def _closed_form(cfg: RunConfig, sys_: Optional[GBMSystem]):
    """The report's closed form, built once: the checked effective drift Q
    (commutative) or the mode decomposition, and t -> E|X_t|^2 from it."""
    if cfg.mode == "commutative":
        Q = effective_drift(sys_)
        return Q, lambda t: drift_mean_square(Q, cfg.x, t)
    if cfg.mode == "synthetic":
        dec = synthetic_mode_decomposition(cfg.alpha, cfg.beta, cfg.Gamma, cfg.A, cfg.x, cfg.tol)
    else:
        dec = mode_decomposition(sys_)
    return dec, lambda t: mean_square_first_order(dec, cfg.x, t)


def _scheduler(cfg: RunConfig, form):
    """eps -> cutoff schedule of a built closed form.  The commutative
    asymptotics of exp(tQ)x do not depend on eps; they are extracted here,
    once, and returned for the report (None in the first-order regimes)."""
    if cfg.mode == "commutative":
        asym = extract_asymptotics(form, cfg.x)
        return asym, lambda eps: cutoff_time_from_rate(asym.q, asym.ell, eps, cfg.w)
    return None, lambda eps: cutoff_schedule_first_order(form, cfg.x, eps)


def _csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        if not all(isinstance(cell, str) or math.isfinite(cell) for cell in row):
            raise ToolkitError("report_not_finite", f"row {row} holds a non-finite value")
        lines.append(",".join(cell if isinstance(cell, str) else _fmt(cell) for cell in row))
    return "\n".join(lines) + "\n"


def _json(report: dict) -> str:
    try:
        return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ToolkitError("report_not_finite", str(exc)) from exc


def cmd_hypotheses(cfg: RunConfig) -> tuple[str, str]:
    if cfg.mode == "synthetic":
        raise ToolkitError("config_bad_mode", "hypotheses requires matrices A and B")
    rep = check_pair(cfg.A, cfg.B, cfg.tol)
    return _json(rep.to_dict()), "json"


def cmd_analyze(cfg: RunConfig) -> tuple[str, str]:
    out: dict = {"mode": cfg.mode}
    form, _ = _closed_form(cfg, _system(cfg))
    asym, schedule = _scheduler(cfg, form)
    if cfg.mode == "commutative":
        out["Q"] = matrix_to_rows(form)
        out["q"] = asym.q
        out["ell"] = asym.ell
    else:
        out["decomposition"] = form.to_dict()
        if cfg.mode == "first_order":
            out["hypotheses"] = check_pair(cfg.A, cfg.B, cfg.tol).to_dict()
    out["schedules"] = [schedule(eps).to_dict() for eps in cfg.eps_list]
    return _json(out), "json"


def cmd_mean_square(cfg: RunConfig) -> tuple[str, str]:
    sys_ = _system(cfg)
    _, msq = _closed_form(cfg, sys_)
    rows = []
    for t in cfg.t_grid:
        closed = msq(t)
        if sys_ is None:
            rows.append([t, closed, "", ""])
        else:
            est = estimate_mean_square(sys_, t, "euler_maruyama", cfg.n_paths, dt=cfg.dt, seed=cfg.seed)
            rows.append([t, closed, est.value, est.std_error])
    return _csv(["t", "closed_form", "mc_value", "mc_se"], rows), "csv"


def _decaying(schedule, eps):
    sched = schedule(eps)
    if sched.t_eps is None:
        raise ToolkitError("no_decay", "schedule has no decaying time scale")
    return sched


def cmd_mixing(cfg: RunConfig) -> tuple[str, str]:
    form, msq = _closed_form(cfg, _system(cfg))
    _, schedule = _scheduler(cfg, form)
    rows = []
    for eps in cfg.eps_list:
        sched = _decaying(schedule, eps)
        res = mixing_time(msq, eps, cfg.delta, t_ref=sched.t_eps)
        rows.append([eps, cfg.delta, res.tau, res.tau_over_t_ref, res.tau_ratio])
    return _csv(["eps", "delta", "tau", "tau_over_t_eps", "tau_ratio"], rows), "csv"


def cmd_profile(cfg: RunConfig) -> tuple[str, str]:
    form, msq = _closed_form(cfg, _system(cfg))
    _, schedule = _scheduler(cfg, form)
    schedules = [(eps, _decaying(schedule, eps)) for eps in cfg.eps_list]
    header = ["rho"] + [f"eps={_fmt(eps)}" for eps, _ in schedules]
    rows = []
    for rho in cfg.rho_grid:
        row = [rho]
        for eps, sched in schedules:
            t = sched.t_eps + rho * sched.w_eps
            row.append(msq(max(t, 0.0)) / eps**2)
        rows.append(row)
    return _csv(header, rows), "csv"


def cmd_verify(cfg: RunConfig) -> tuple[str, str]:
    if cfg.mode == "synthetic":
        raise ToolkitError("config_bad_mode", "verify needs a simulable pair (A, B)")
    sys_ = _system(cfg)
    rows = []
    if cfg.mode == "commutative":
        _, msq = _closed_form(cfg, sys_)
        for t in cfg.t_grid:
            est = estimate_mean_square(sys_, t, "euler_maruyama", cfg.n_paths, dt=cfg.dt, seed=cfg.seed)
            ref, ref_se = msq(t), 0.0
            ok = abs(est.value - ref) <= 3.0 * est.std_error
            rows.append([t, ref, ref_se, est.value, est.std_error, "pass" if ok else "fail"])
    else:
        for t in cfg.t_grid:
            ref_est = estimate_mean_square(sys_, t, "exact_first_order", cfg.n_paths, seed=cfg.seed)
            est = estimate_mean_square(sys_, t, "euler_maruyama", cfg.n_paths, dt=cfg.dt, seed=cfg.seed)
            band = 3.0 * math.hypot(ref_est.std_error, est.std_error)
            ok = abs(est.value - ref_est.value) <= band or t == 0.0
            rows.append(
                [t, ref_est.value, ref_est.std_error, est.value, est.std_error, "pass" if ok else "fail"]
            )
    return _csv(["t", "reference", "reference_se", "mc_value", "mc_se", "status"], rows), "csv"


def cmd_example35(cfg: RunConfig) -> tuple[str, str]:
    if cfg.t_grid_set:
        ts = [t for t in cfg.t_grid if t >= 0.2]
    else:
        ts = [0.2 + 1.8 * k / 99.0 for k in range(100)]
    rows = []
    for t in ts:
        pt = example35_check(t)
        dxdt = -(3.0 * t**2 + 2.0 * t) * pt.x
        rows.append([t, pt.x, pt.g, pt.f, abs(pt.g - t), abs(pt.f - dxdt)])
    return _csv(["t", "x", "g", "f", "g_residual", "f_residual"], rows), "csv"


_HANDLERS = {
    "hypotheses": cmd_hypotheses,
    "analyze": cmd_analyze,
    "mean-square": cmd_mean_square,
    "mixing": cmd_mixing,
    "profile": cmd_profile,
    "verify": cmd_verify,
    "example35": cmd_example35,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a usage error is one stderr line with a code, like every failure
        raise ToolkitError("usage_error", message)


def _parser() -> argparse.ArgumentParser:
    p = _Parser(prog="gbm-cutoff", description=__doc__)
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("--config", required=True, help="JSON config file")
    p.add_argument("--eps", help="comma-separated eps overrides")
    p.add_argument("--seed", type=int, help="override mc.seed")
    p.add_argument("--paths", type=int, help="override mc.n_paths")
    p.add_argument("--dt", type=float, help="override mc.dt")
    p.add_argument("--out", help="override output path ('-' for stdout)")
    return p


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    if args.eps is not None:
        try:
            eps_list = [float(tok) for tok in args.eps.split(",") if tok]
        except ValueError as exc:
            raise ToolkitError("config_eps_range", str(exc)) from exc
        cfg.eps_list = _validated("eps_list", eps_list)
    for key, value in (("seed", args.seed), ("n_paths", args.paths), ("dt", args.dt)):
        if value is not None:
            setattr(cfg, key, _validated(key, value))
    if args.out is not None:
        cfg.out_path = args.out
    return cfg


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        # overflow surfaces as a non-finite report value, which _csv and
        # _json reject; numpy's warnings would only add stderr lines
        with np.errstate(all="ignore"):
            cfg = _apply_overrides(load_config(args.config), args)
            text, ext = _HANDLERS[args.command](cfg)
    except ToolkitError as exc:
        print(exc.code, file=sys.stderr)
        return 1
    except Exception:  # numpy, scipy or memory failures: still one line, one code
        print("internal_error", file=sys.stderr)
        return 1
    dest = cfg.out_path or f"gbm_cutoff_{args.command.replace('-', '_')}.{ext}"
    if dest == "-":
        sys.stdout.write(text)
        return 0
    try:
        with open(dest, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError:
        print("output_unwritable", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
