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
from functools import cache
from typing import Callable, NamedTuple, Optional

import numpy as np

from .commutative_cutoff import _drift_msq, cutoff_time_from_rate, effective_drift
from .cubic_solver import CutoffSchedule, _is_cutoff_eps
from .errors import ToolkitError
from .hypothesis_checks import check_hypotheses
from .linalg_core import DEFAULT_TOL, _is_time, matrix_to_rows
from .mixing import _is_delta, mixing_time
from .noncommutative_cutoff import (
    EXAMPLE35_RANGE,
    cutoff_schedule_first_order,
    example35_check,
    mean_square_first_order,
    mode_decomposition,
    synthetic_mode_decomposition,
)
from .simulate import PATH_FLOOR, SEED_END, _estimation, _is_path_count, estimate_mean_squares
from .spectral_asymptotics import _read_decay, _Spectrum
from .system import GBMSystem

COMMANDS = ("hypotheses", "analyze", "mean-square", "mixing", "profile", "verify", "example35")
MODES = ("commutative", "first_order", "synthetic")
FORMATS = ("csv", "json")


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
    tol: float = DEFAULT_TOL
    out_path: Optional[str] = None


def _numbers(raw, name: str, code: str):
    """raw with every entry read as a float; `code` for an entry that is not
    a JSON number (numpy would read true, false and "1" as numbers).  null
    reads as NaN and an integer beyond the double range as an infinity."""
    if isinstance(raw, list):
        if all(type(v) is float for v in raw):  # a row of floats reads as itself
            return raw
        return [_numbers(v, name, code) for v in raw]
    if raw is None:
        return math.nan
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ToolkitError(code, f"{name} holds {raw!r}, not a number")
    try:
        return float(raw)
    except OverflowError:
        return math.inf if raw > 0 else -math.inf


def _array(raw, name: str, ndim: int, code: str) -> np.ndarray:
    """raw as a nonempty ndim-d float array, square when ndim = 2: `code` for
    an entry that is not a JSON number or for any other shape, and
    config_entries_not_finite for a NaN or infinite entry."""
    try:
        a = np.array(_numbers(raw, name, code), dtype=float)
    except ValueError as exc:  # ragged rows
        raise ToolkitError(code, f"{name}: {exc}") from exc
    if a.ndim != ndim or a.size < 1 or len(set(a.shape)) != 1:
        raise ToolkitError(code, f"{name} must be a nonempty {ndim}-d array, square if 2-d, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ToolkitError("config_entries_not_finite", f"{name} contains NaN/Inf entries")
    return a


# One validator per range-checked field, shared by load_config and the
# command line overrides: field -> (error code, requirement, test).  A list
# field is a nonempty list whose every entry passes the test; an integer
# field takes JSON integers, the others any JSON number, tested as float;
# true and false are not numbers here.  eps, t, delta, n_paths and seed are
# tested by the library's own rules, under the config's codes.
_LIST_FIELDS = ("eps_list", "rho_grid", "t_grid")
_INT_FIELDS = ("n_paths", "seed")
_FIELDS = {
    "eps_list": ("config_eps_range", "a nonempty list of reals in (0, e^-1)", _is_cutoff_eps),
    "delta": ("config_delta_range", "a real in (0, 1)", _is_delta),
    "rho_grid": ("config_bad_rho_grid", "a nonempty list of finite reals", math.isfinite),
    "w": ("config_w_range", "a positive finite real", lambda v: 0.0 < v < math.inf),
    "t_grid": ("config_bad_t_grid", "a nonempty list of nonnegative finite reals", _is_time),
    "n_paths": ("config_mc_paths", f"an integer >= {PATH_FLOOR}", _is_path_count),
    "dt": ("config_mc_dt", "a positive finite real", lambda v: 0.0 < v < math.inf),
    "seed": ("config_mc_seed", "an integer in [0, 2^64)", lambda v: 0 <= v < SEED_END),
    "tol": ("config_tol_range", "a real in (0, 1)", lambda v: 0.0 < v < 1.0),
}


def _validated(key: str, value):
    """The value of field `key` as the run uses it, or the field's error code."""
    code, rule, ok = _FIELDS[key]
    kind = int if key in _INT_FIELDS else (int, float)
    entries = value if key in _LIST_FIELDS else [value]
    typed = isinstance(entries, list) and all(isinstance(v, kind) and not isinstance(v, bool) for v in entries)
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

    names = ("A", "alpha", "beta", "Gamma") if mode == "synthetic" else ("A", "B")
    for key in (*names, "x"):
        if key not in raw:
            raise ToolkitError("config_missing_field", f"mode {mode} requires {key!r}")

    for name in names:
        setattr(cfg, name, _array(raw[name], name, 2, "config_matrix_not_square"))
    for name in names[1:]:
        M = getattr(cfg, name)
        if M.shape != cfg.A.shape:
            raise ToolkitError("config_dim_mismatch", f"{name} shape {M.shape} != A shape {cfg.A.shape}")

    cfg.x = _array(raw["x"], "x", 1, "config_entries_not_finite")
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
    # the command alone fixes the report format; output.format is only checked
    if "format" in out and out["format"] not in FORMATS:
        raise ToolkitError("config_bad_format", f"format must be one of {FORMATS}")
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


class ClosedForm(NamedTuple):
    """A report's closed form: t -> E|X_t|^2, eps -> schedule, () -> analyze
    fields."""

    msq: Callable[[float], float]
    schedule: Callable[[float], CutoffSchedule]
    fields: Callable[[], dict]


def _closed_form(cfg: RunConfig, sys_: Optional[GBMSystem]) -> ClosedForm:
    """The report's closed form, built once from the checked drift Q (commutative)
    or the mode decomposition.  msq is memoized by t.  Q (or A_tilde) is
    factored once per report; (q, ell) of exp(tQ)x are read off that record
    when a schedule or the fields first need them, its exp action when msq
    is first called."""
    if cfg.mode == "commutative":
        Q = effective_drift(sys_)
        spectrum = _Spectrum(Q)
        rate = cache(lambda: _read_decay(spectrum, cfg.x)[:2])
        evaluator = cache(lambda: _drift_msq(spectrum, cfg.x))
        return ClosedForm(
            cache(lambda t: evaluator()(t)),
            lambda eps: cutoff_time_from_rate(*rate(), eps, cfg.w),
            lambda: {"Q": matrix_to_rows(Q), "q": rate()[0], "ell": rate()[1]},
        )
    if cfg.mode == "synthetic":
        dec, extra = synthetic_mode_decomposition(cfg.alpha, cfg.beta, cfg.Gamma, cfg.A, cfg.x, cfg.tol), {}
    else:  # first_order prints the report its gate read
        dec, extra = mode_decomposition(sys_), {"hypotheses": sys_.hypotheses.to_dict()}
    return ClosedForm(
        cache(lambda t: mean_square_first_order(dec, t)),
        lambda eps: cutoff_schedule_first_order(dec, eps),
        lambda: {"decomposition": dec.to_dict(), **extra},
    )


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
    return _json(check_hypotheses(_system(cfg)).to_dict()), "json"


def cmd_analyze(cfg: RunConfig) -> tuple[str, str]:
    form = _closed_form(cfg, _system(cfg))
    schedules = [form.schedule(eps).to_dict() for eps in cfg.eps_list]
    return _json({"mode": cfg.mode, **form.fields(), "schedules": schedules}), "json"


def cmd_mean_square(cfg: RunConfig) -> tuple[str, str]:
    sys_ = _system(cfg)
    closed = list(map(_closed_form(cfg, sys_).msq, cfg.t_grid))
    if sys_ is None:
        rows = [[t, c, "", ""] for t, c in zip(cfg.t_grid, closed)]
    else:
        ests = estimate_mean_squares(sys_, cfg.t_grid, "euler_maruyama", cfg.n_paths, dt=cfg.dt, seed=cfg.seed)
        rows = [[t, c, est.value, est.std_error] for t, c, est in zip(cfg.t_grid, closed, ests)]
    return _csv(["t", "closed_form", "mc_value", "mc_se"], rows), "csv"


def _decaying(schedule, eps):
    sched = schedule(eps)
    if sched.t_eps is None:
        raise ToolkitError("no_decay", "schedule has no decaying time scale")
    return sched


def cmd_mixing(cfg: RunConfig) -> tuple[str, str]:
    form = _closed_form(cfg, _system(cfg))
    rows = []
    for eps in cfg.eps_list:
        sched = _decaying(form.schedule, eps)
        res = mixing_time(form.msq, eps, cfg.delta, t_ref=sched.t_eps)
        rows.append([eps, cfg.delta, res.tau, res.tau_over_t_ref, res.tau_ratio])
    return _csv(["eps", "delta", "tau", "tau_over_t_eps", "tau_ratio"], rows), "csv"


def cmd_profile(cfg: RunConfig) -> tuple[str, str]:
    form = _closed_form(cfg, _system(cfg))
    schedules = [(eps, _decaying(form.schedule, eps)) for eps in cfg.eps_list]
    if min(cfg.eps_list) ** 2 == 0.0:  # every row divides by eps^2
        raise ToolkitError("bad_epsilon", "eps^2 underflows to 0")
    header = ["rho"] + [f"eps={_fmt(eps)}" for eps, _ in schedules]
    rows = []
    for rho in cfg.rho_grid:
        row = [rho]
        for eps, sched in schedules:
            t = sched.t_eps + rho * sched.w_eps
            row.append(form.msq(max(t, 0.0)) / eps**2)
        rows.append(row)
    return _csv(header, rows), "csv"


def cmd_verify(cfg: RunConfig) -> tuple[str, str]:
    if cfg.mode == "synthetic":
        raise ToolkitError("config_bad_mode", "verify needs a simulable pair (A, B)")
    sys_ = _system(cfg)
    if cfg.mode == "commutative":
        msq = _closed_form(cfg, sys_).msq
        ests = estimate_mean_squares(sys_, cfg.t_grid, "euler_maruyama", cfg.n_paths, dt=cfg.dt, seed=cfg.seed)
        refs = [(msq(t), 0.0) for t in cfg.t_grid]
    else:
        # the reference's grid is checked before the estimates run, so
        # representation_invalid wins over any code of the grid; the
        # reference runs after them, so an error of theirs wins over its own
        reference = _estimation(sys_, cfg.t_grid, "exact_first_order", cfg.n_paths, cfg.dt, cfg.seed)
        ests = estimate_mean_squares(sys_, cfg.t_grid, "euler_maruyama", cfg.n_paths, dt=cfg.dt, seed=cfg.seed)
        refs = [(est.value, est.std_error) for est in reference()]
    rows = []
    for t, (ref, ref_se), est in zip(cfg.t_grid, refs, ests):
        ok = abs(est.value - ref) <= 3.0 * math.hypot(ref_se, est.std_error)
        rows.append([t, ref, ref_se, est.value, est.std_error, "pass" if ok else "fail"])
    return _csv(["t", "reference", "reference_se", "mc_value", "mc_se", "status"], rows), "csv"


def cmd_example35(cfg: RunConfig) -> tuple[str, str]:
    lo, hi = EXAMPLE35_RANGE
    if cfg.t_grid_set:
        ts = [t for t in cfg.t_grid if lo <= t <= hi]
    else:
        ts = [lo + 1.8 * k / 99.0 for k in range(100)]
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


# built once per process; each parse_args call fills a fresh namespace
_PARSER = _Parser(prog="gbm-cutoff", description=__doc__)
_PARSER.add_argument("command", choices=COMMANDS)
_PARSER.add_argument("--config", required=True, help="JSON config file")
_PARSER.add_argument("--eps", help="comma-separated eps overrides")
_PARSER.add_argument("--seed", type=int, help="override mc.seed")
_PARSER.add_argument("--paths", type=int, help="override mc.n_paths")
_PARSER.add_argument("--dt", type=float, help="override mc.dt")
_PARSER.add_argument("--out", help="override output path ('-' for stdout)")


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
    if args.out == "":
        raise ToolkitError("config_bad_format", "--out must be a nonempty path")
    if args.out is not None:
        cfg.out_path = args.out
    return cfg


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
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
