"""In-memory span tracer for the benchmark's traced runs.

`Tracer.install` wraps every public function of the traced modules at each
module attribute of the `gbm_cutoff` package that refers to it, so calls
made through `cli`, through a sibling module or through the package
namespace all pass through one wrapper.  A wrapper records a span (name,
start, end, parent, attrs) in a list; nothing is written until `dump`.
The program itself is not modified: `uninstall` puts the originals back.

Calls that reach a function through something other than a module
attribute (the `cli._HANDLERS` table, a lambda's closure cell) are not
seen; their time counts as self time of the nearest traced caller.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from typing import Callable, NamedTuple, Optional

TRACED_MODULES = (
    "cli",
    "simulate",
    "commutative_cutoff",
    "noncommutative_cutoff",
    "hypothesis_checks",
    "spectral_asymptotics",
    "cubic_solver",
    "mixing",
)
PACKAGE = "gbm_cutoff"


class Span(NamedTuple):
    """A tuple, so that the cyclic collector stops tracking finished spans."""

    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    attrs: Optional[dict] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _cli_main_name(args, kwargs) -> str:
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.{argv[0]}" if argv else "cli.main"


def _estimate_attrs(fn: Callable) -> Callable:
    sig = inspect.signature(fn)

    def attrs(args, kwargs) -> dict:
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        return {"t": float(a["t"]), "scheme": a["scheme"], "n_paths": int(a["n_paths"]), "dt": float(a["dt"])}

    return attrs


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, Callable]] = []

    def _wrap(self, name: str, fn: Callable, namer=None, attrs=None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = Span(
                    namer(args, kwargs) if namer else name,
                    start,
                    end,
                    parent,
                    attrs(args, kwargs) if attrs else None,
                )

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of TRACED_MODULES wherever they are referenced."""
        package = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for short in TRACED_MODULES:
            mod = sys.modules[f"{PACKAGE}.{short}"]
            for fname, fn in list(vars(mod).items()):
                if fname.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                namer = _cli_main_name if (short, fname) == ("cli", "main") else None
                attrs = _estimate_attrs(fn) if (short, fname) == ("simulate", "estimate_mean_square") else None
                wrapper = self._wrap(f"{short}.{fname}", fn, namer, attrs)
                for m in package:
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, fn))

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._patched):
            setattr(m, attr, fn)
        self._patched.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                [
                    {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "attrs": s.attrs}
                    for s in self.spans
                ],
                fh,
            )


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def _module(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans: list[Span], rounds: int) -> dict[str, float]:
    """Per-round counts and times of the traced rounds, keyed by metric name.

    `.calls`, `.ms`, `.self_ms` and the simulate totals are per round;
    `.us_per_call` and the unit costs are per call, path or path-step.
    `.ms` and `.us_per_call` are inclusive of child spans.
    """
    selfs = self_times(spans)
    m: dict[str, float] = {}

    def by(name):
        return [i for i, s in enumerate(spans) if s.name == name]

    def incl(idx):
        return sum(spans[i].duration for i in idx)

    load = by("cli.load_config")
    m["cli.load_config_ms"] = incl(load) * 1e3 / rounds
    for cmd in ("hypotheses", "analyze", "mean-square", "mixing", "profile", "verify", "example35"):
        m[f"cli.{cmd}.self_ms"] = sum(selfs[i] for i in by(f"cli.{cmd}")) * 1e3 / rounds

    est = [spans[i] for i in by("simulate.estimate_mean_square")]
    simulated = [s for s in est if s.attrs["t"] > 0.0]
    m["simulate.estimate_calls"] = len(est) / rounds
    m["simulate.paths"] = sum(s.attrs["n_paths"] for s in simulated) / rounds

    def steps(s):
        return s.attrs["n_paths"] * round(s.attrs["t"] / s.attrs["dt"])

    stepped = [s for s in simulated if s.attrs["scheme"] in ("euler_maruyama", "magnus_truncated")]
    m["simulate.path_steps"] = sum(steps(s) for s in stepped) / rounds
    for scheme in ("euler_maruyama", "exact_first_order", "magnus_truncated"):
        m[f"simulate.{scheme}_s"] = sum(s.duration for s in est if s.attrs["scheme"] == scheme) / rounds

    def unit_cost(scheme, per, scale):
        work = [s for s in simulated if s.attrs["scheme"] == scheme]
        total = sum(per(s) for s in work)
        return sum(s.duration for s in work) / total * scale if total else 0.0

    m["simulate.em_ns_per_path_step"] = unit_cost("euler_maruyama", steps, 1e9)
    m["simulate.magnus_ns_per_path_step"] = unit_cost("magnus_truncated", steps, 1e9)
    m["simulate.exact_us_per_path"] = unit_cost("exact_first_order", lambda s: s.attrs["n_paths"], 1e6)
    # one batch's increment array: min(batch, paths) rows x steps doubles
    m["simulate.batch_mb_computed"] = max(
        (min(8192, s.attrs["n_paths"]) * round(s.attrs["t"] / s.attrs["dt"]) * 8 / 1e6 for s in stepped),
        default=0.0,
    )

    for name in ("commutative_cutoff.mean_square_commutative", "noncommutative_cutoff.mean_square_first_order"):
        idx = by(name)
        m[f"{name}.calls"] = len(idx) / rounds
        m[f"{name}.us_per_call"] = incl(idx) * 1e6 / len(idx) if idx else 0.0
    for name in ("hypothesis_checks.check_hypotheses", "spectral_asymptotics.extract_asymptotics"):
        idx = by(name)
        m[f"{name}.calls"] = len(idx) / rounds
        m[f"{name}.ms"] = incl(idx) * 1e3 / rounds

    decomp = {"noncommutative_cutoff.mode_decomposition", "noncommutative_cutoff.synthetic_mode_decomposition"}
    per_report: dict[int, int] = {}
    for i, s in enumerate(spans):
        if s.name in decomp:
            root = i
            while spans[root].parent >= 0:
                root = spans[root].parent
            if spans[root].name in ("cli.analyze", "cli.mixing", "cli.profile"):
                per_report[root] = per_report.get(root, 0) + 1
    m["noncommutative_cutoff.decompositions_per_report"] = (
        sum(per_report.values()) / len(per_report) if per_report else 0.0
    )

    cubic = [
        i for i, s in enumerate(spans)
        if _module(s.name) == "cubic_solver" and (s.parent < 0 or _module(spans[s.parent].name) != "cubic_solver")
    ]
    m["cubic_solver.calls"] = len(cubic) / rounds
    m["cubic_solver.ms"] = incl(cubic) * 1e3 / rounds

    mix = by("mixing.mixing_time")
    mix_set = set(mix)
    evals = sum(1 for s in spans if s.parent in mix_set)
    m["mixing.mixing_time.calls"] = len(mix) / rounds
    m["mixing.evals_per_mixing_time"] = evals / len(mix) if mix else 0.0
    m["mixing.mixing_time.self_ms"] = sum(selfs[i] for i in mix) * 1e3 / rounds
    return m
