"""Benchmark for gbm-cutoff: Monte Carlo verify reports and closed-form reports.

One workload:
    python3 bench/run.py --workload verify-scalar --seed 1 --seconds 25 --trace 0

prints, as its last line, one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics of BENCHMARK.json with
--trace 0, the per-layer metrics with --trace 1.

Every workload, untraced and traced, each in its own process, with a table:
    python3 bench/run.py --seed 1

Set-up is timed in fresh interpreters; reports are timed warm, in this
process, through `gbm_cutoff.cli.main` and `estimate_mean_square`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy.linalg

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
NAMES = ("verify-scalar", "verify-heisenberg", "closed-form-sweep")
# Fresh interpreters per run for setup_s; the median is reported.
SETUP_PROBES = 5
# sample_gaussian_pairs calls timed for simulate.substream_us_per_path.
SUBSTREAM_REPEATS = 3
# The host's speed drifts by up to half within a minute, on pure Python as
# much as on numpy, so the end-to-end times are normalized: each report's
# (and each set-up's) time is scaled by CALIBRATION_REF_S over the time of
# a fixed calibration kernel measured just before and just after it.  The
# times read as seconds on a host that runs the kernel in CALIBRATION_REF_S,
# as this one does at its median speed (2 cores, Python 3.11.7, numpy
# 2.4.6, scipy 1.17.1).  The per-layer times are not normalized.
CALIBRATION_REF_S = 3.4e-3
# Calibration after a report lasts about this share of the report's time.
CAL_WINDOW_SHARE = 0.05
PROBE_CAL_WINDOW_S = 0.05
_CAL_MATRIX = [[-1.0, 0.3, 0.1], [0.2, -2.0, 0.0], [0.0, 0.1, -0.5]]


def _calibration_kernel() -> None:
    s = 0
    for i in range(20000):
        s += i * i
    M = np.array(_CAL_MATRIX)
    for _ in range(25):
        scipy.linalg.expm(M)
    v = np.random.Generator(np.random.Philox(key=[1, 2])).standard_normal(60000)
    (1.0 + 1e-3 * v).prod()


def _calibrate(window: float) -> float:
    """Median time of the calibration kernel over about `window` seconds
    (at least two runs).  The kernel mixes interpreter work, small scipy
    calls and a vectorised Philox draw, as the reports do."""
    times: list[float] = []
    end = time.perf_counter() + window
    while len(times) < 2 or time.perf_counter() < end:
        t0 = time.perf_counter()
        _calibration_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _probe(configs: list[str]) -> dict:
    """One fresh interpreter; setup_s is normalized, the import splits are not."""
    before = _calibrate(PROBE_CAL_WINDOW_S)
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "probe.py"), str(SRC), *configs],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    out = json.loads(proc.stdout.splitlines()[-1])
    cal = 0.5 * (before + _calibrate(PROBE_CAL_WINDOW_S))
    out["setup_s"] = (out.pop("ready") - start) * CALIBRATION_REF_S / cal
    return out


def _run_rounds(ops, seconds: float, state: dict) -> list[float]:
    """Whole rounds of every op until `seconds` have passed; normalized round times."""
    rounds: list[float] = []
    start = time.perf_counter()
    cal = _calibrate(0.0)
    while not rounds or time.perf_counter() - start < seconds:
        total = 0.0
        for op in ops:
            t0 = time.perf_counter()
            outcome = op.run()
            dt = time.perf_counter() - t0
            cal_after = _calibrate(CAL_WINDOW_SHARE * dt)
            state["calibrations"].append(cal_after)
            dt *= CALIBRATION_REF_S / (0.5 * (cal + cal_after))
            cal = cal_after
            total += dt
            state["durations"].append(dt)
            state["attempts"][op.name] = state["attempts"].get(op.name, 0) + 1
            first = state["first"].setdefault(op.name, outcome)
            if outcome != first:
                state["changed"].add(op.name)
        rounds.append(total)
    return rounds


def _verdict(wl, state: dict) -> tuple[bool, int, int]:
    correct, failed = True, 0
    for op in wl.ops:
        problems = op.check(state["first"][op.name])
        if op.name in state["changed"]:
            problems.append("output differs between repeats of the same report")
        if not problems:
            continue
        failed += state["attempts"][op.name]
        expected = op.known_fault and op.name not in state["changed"]
        tag = "known fault" if expected else "FAILED"
        print(f"{wl.name} {op.name}: {tag}: {op.known_fault or ''}", file=sys.stderr)
        for p in problems[:5]:
            print(f"    {p}", file=sys.stderr)
        correct = correct and bool(expected)
    return correct, sum(state["attempts"].values()), failed


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(SRC))
    import workloads
    from gbm_cutoff import simulate
    from spans import Tracer, layer_metrics

    spec = _spec()
    workdir = WORK / f"{name}-{os.getpid()}"
    try:
        wl = workloads.build(name, seed, str(workdir))
        probes = [_probe(wl.configs) for _ in range(SETUP_PROBES)]

        state = {"first": {}, "attempts": {}, "changed": set(), "durations": [], "calibrations": []}
        # untimed warm-up report; its output is the reference for repeats
        state["first"][wl.ops[0].name] = wl.ops[0].run()
        metrics: dict[str, float] = {}
        if not trace:
            rounds = _run_rounds(wl.ops, seconds, state)
            metrics["setup_s"] = statistics.median(p["setup_s"] for p in probes)
            metrics["wall_s"] = statistics.median(rounds)
            metrics["report_p50_ms"] = statistics.median(state["durations"]) * 1e3
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            wanted = spec["end_to_end"]
        else:
            plain = _run_rounds(wl.ops, seconds / 2.0, state)
            tracer = Tracer()
            tracer.install()
            try:
                traced = _run_rounds(wl.ops, seconds / 2.0, state)
            finally:
                tracer.uninstall()
            OUT.mkdir(exist_ok=True)
            tracer.dump(str(OUT / f"spans-{name}-seed{seed}.json"))
            metrics.update(layer_metrics(tracer.spans, len(traced)))
            for part in ("numpy", "scipy", "gbm_cutoff"):
                metrics[f"import.{part}_ms"] = statistics.median(p[f"{part}_ms"] for p in probes)
            metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
            metrics["bench.calibration_ms"] = statistics.median(state["calibrations"]) * 1e3
            substream = 0.0
            if wl.n_paths:
                times = []
                for _ in range(SUBSTREAM_REPEATS):
                    t0 = time.perf_counter()
                    simulate.sample_gaussian_pairs(1.0, wl.mc_seed, wl.n_paths)
                    times.append(time.perf_counter() - t0)
                substream = statistics.median(times) / wl.n_paths * 1e6
            metrics["simulate.substream_us_per_path"] = substream
            wanted = spec["per_layer"]
        correct, attempted, failed = _verdict(wl, state)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"bench: metrics not measured: {missing}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def run_all(seed: int, seconds: float) -> int:
    """Each workload untraced and traced, each in a process of its own."""
    summary = {}
    for name in NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
            )
            if proc.returncode != 0:
                print(f"bench: {name} --trace {trace} exited {proc.returncode}", file=sys.stderr)
                return proc.returncode or 1
            summary[f"{name} trace={trace}"] = json.loads(proc.stdout.splitlines()[-1])
    for key, res in summary.items():
        print(f"== {key}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for metric, v in res["metrics"].items():
            print(f"   {metric:52s} {v['value']:14.6g} {v['unit']}")
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"summary-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    return 0 if all(r["correct"] for r in summary.values()) else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=NAMES, help="one workload; all of them when omitted")
    p.add_argument("--seed", type=int, default=1, help="seed for every generated config and MC seed")
    p.add_argument("--seconds", type=float, help="timed seconds per run (default: run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: report the per-layer metrics")
    args = p.parse_args(argv)

    if not (SRC / "gbm_cutoff" / "__init__.py").is_file():
        print(f"bench: program source {SRC / 'gbm_cutoff'} not found", file=sys.stderr)
        return 2
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    seconds = args.seconds if args.seconds is not None else float(_spec()["run_seconds"])
    # estimates are identical under any thread count; measure the default
    os.environ.pop("GBM_CUTOFF_THREADS", None)
    if args.workload is None:
        return run_all(args.seed, seconds)
    result = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
