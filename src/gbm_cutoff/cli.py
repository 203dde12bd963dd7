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

from .commutative_cutoff import (
    cutoff_time_commutative,
    effective_drift,
    mean_square_commutative,
)
from .errors import ToolkitError
from .hypothesis_checks import check_pair
from .linalg_core import as_vector, matrix_from_rows, matrix_to_rows
from .mixing import mixing_time
from .noncommutative_cutoff import (
    ModeDecomposition,
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

    if "eps_list" in raw:
        eps_list = raw["eps_list"]
        if not isinstance(eps_list, list) or not eps_list:
            raise ToolkitError("config_eps_range", "eps_list must be a nonempty list")
        for e in eps_list:
            if not isinstance(e, (int, float)) or not 0.0 < float(e) < _EPS_MAX:
                raise ToolkitError("config_eps_range", f"eps {e!r} outside (0, e^-1)")
        cfg.eps_list = [float(e) for e in eps_list]

    if "delta" in raw:
        d = raw["delta"]
        if not isinstance(d, (int, float)) or not 0.0 < float(d) < 1.0:
            raise ToolkitError("config_delta_range", f"delta {d!r} outside (0, 1)")
        cfg.delta = float(d)

    if "rho_grid" in raw:
        grid = raw["rho_grid"]
        if not isinstance(grid, list) or not grid or not all(
            isinstance(r, (int, float)) and math.isfinite(r) for r in grid
        ):
            raise ToolkitError("config_bad_rho_grid", "rho_grid must be a list of finite reals")
        cfg.rho_grid = [float(r) for r in grid]

    if "w" in raw:
        w = raw["w"]
        if not isinstance(w, (int, float)) or not float(w) > 0.0:
            raise ToolkitError("config_w_range", f"w {w!r} must be positive")
        cfg.w = float(w)

    if "t_grid" in raw:
        grid = raw["t_grid"]
        if not isinstance(grid, list) or not grid or not all(
            isinstance(r, (int, float)) and math.isfinite(r) and r >= 0.0 for r in grid
        ):
            raise ToolkitError("config_bad_t_grid", "t_grid must be nonnegative finite reals")
        cfg.t_grid = [float(r) for r in grid]
        cfg.t_grid_set = True

    mc = raw.get("mc", {})
    if not isinstance(mc, dict):
        raise ToolkitError("config_mc_invalid", "mc must be an object")
    if "n_paths" in mc:
        n = mc["n_paths"]
        if not isinstance(n, int) or n < 100:
            raise ToolkitError("config_mc_paths", "mc.n_paths must be an integer >= 100")
        cfg.n_paths = n
    if "dt" in mc:
        dt = mc["dt"]
        if not isinstance(dt, (int, float)) or not 0.0 < float(dt):
            raise ToolkitError("config_mc_dt", "mc.dt must be positive")
        cfg.dt = float(dt)
    if "seed" in mc:
        s = mc["seed"]
        if not isinstance(s, int) or not 0 <= s < SEED_END:
            raise ToolkitError("config_mc_seed", "mc.seed must be an integer in [0, 2^64)")
        cfg.seed = s

    if "tol" in raw:
        tol = raw["tol"]
        if not isinstance(tol, (int, float)) or not 0.0 < float(tol) < 1.0:
            raise ToolkitError("config_tol_range", "tol must lie in (0, 1)")
        cfg.tol = float(tol)

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


def _system(cfg: RunConfig) -> GBMSystem:
    return GBMSystem(A=cfg.A, B=cfg.B, x=cfg.x, tol=cfg.tol)


def _decomposition(cfg: RunConfig) -> ModeDecomposition:
    if cfg.mode == "synthetic":
        return synthetic_mode_decomposition(cfg.alpha, cfg.beta, cfg.Gamma, cfg.A, cfg.x, cfg.tol)
    return mode_decomposition(_system(cfg))


def _closed_form_msq(cfg: RunConfig):
    """Closed-form mean-square evaluator for the configured mode."""
    if cfg.mode == "commutative":
        sys_ = _system(cfg)
        return lambda t: mean_square_commutative(sys_, t)
    dec = _decomposition(cfg)
    x = cfg.x
    return lambda t: mean_square_first_order(dec, x, t)


def _schedule_for(cfg: RunConfig, eps: float):
    if cfg.mode == "commutative":
        return cutoff_time_commutative(_system(cfg), eps, cfg.w)
    return cutoff_schedule_first_order(_decomposition(cfg), cfg.x, eps)


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
    if cfg.mode == "commutative":
        sys_ = _system(cfg)
        Q = effective_drift(sys_)
        asym = extract_asymptotics(Q, sys_.x)
        out["Q"] = matrix_to_rows(Q)
        out["q"] = asym.q
        out["ell"] = asym.ell
    else:
        dec = _decomposition(cfg)
        out["decomposition"] = dec.to_dict()
        if cfg.mode == "first_order":
            out["hypotheses"] = check_pair(cfg.A, cfg.B, cfg.tol).to_dict()
    out["schedules"] = [_schedule_for(cfg, eps).to_dict() for eps in cfg.eps_list]
    return _json(out), "json"


def cmd_mean_square(cfg: RunConfig) -> tuple[str, str]:
    msq = _closed_form_msq(cfg)
    rows = []
    for t in cfg.t_grid:
        closed = msq(t)
        if cfg.mode == "synthetic":
            rows.append([t, closed, "", ""])
        else:
            est = estimate_mean_square(
                _system(cfg), t, "euler_maruyama", cfg.n_paths, dt=cfg.dt, seed=cfg.seed
            )
            rows.append([t, closed, est.value, est.std_error])
    return _csv(["t", "closed_form", "mc_value", "mc_se"], rows), "csv"


def cmd_mixing(cfg: RunConfig) -> tuple[str, str]:
    msq = _closed_form_msq(cfg)
    rows = []
    for eps in cfg.eps_list:
        sched = _schedule_for(cfg, eps)
        if sched.t_eps is None:
            raise ToolkitError("no_decay", "schedule has no decaying time scale")
        res = mixing_time(msq, eps, cfg.delta, t_ref=sched.t_eps)
        rows.append([eps, cfg.delta, res.tau, res.tau_over_t_ref, res.tau_ratio])
    return _csv(["eps", "delta", "tau", "tau_over_t_eps", "tau_ratio"], rows), "csv"


def cmd_profile(cfg: RunConfig) -> tuple[str, str]:
    msq = _closed_form_msq(cfg)
    schedules = []
    for eps in cfg.eps_list:
        sched = _schedule_for(cfg, eps)
        if sched.t_eps is None:
            raise ToolkitError("no_decay", "schedule has no decaying time scale")
        schedules.append((eps, sched))
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
        msq = _closed_form_msq(cfg)
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


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gbm-cutoff", description=__doc__)
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
        if not eps_list or any(not 0.0 < e < _EPS_MAX for e in eps_list):
            raise ToolkitError("config_eps_range", "eps overrides outside (0, e^-1)")
        cfg.eps_list = eps_list
    if args.seed is not None:
        if not 0 <= args.seed < SEED_END:
            raise ToolkitError("config_mc_seed", "seed must lie in [0, 2^64)")
        cfg.seed = args.seed
    if args.paths is not None:
        if args.paths < 100:
            raise ToolkitError("config_mc_paths", "paths must be >= 100")
        cfg.n_paths = args.paths
    if args.dt is not None:
        if not args.dt > 0.0:
            raise ToolkitError("config_mc_dt", "dt must be positive")
        cfg.dt = args.dt
    if args.out is not None:
        cfg.out_path = args.out
    return cfg


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
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
