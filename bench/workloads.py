"""The three workloads: generated configs, the reports run on them, and the
check each report must pass.

Everything a workload feeds the program is drawn from the `--seed`
argument; the program sees only the config files written here.  The
shape of every workload (dimensions, counts, grids, path counts) is fixed,
so the cost of a round barely depends on the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
import reference as ref
from gbm_cutoff import cli, simulate
from gbm_cutoff.errors import ToolkitError
from gbm_cutoff.system import GBMSystem

# (exit code, stdout text, stderr text) of one report
Outcome = tuple[int, str, str]

DEFAULT_T_GRID = [0.25 * k for k in range(9)]
RHO_GRID = [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0]
DT = 1e-3
# One full simulate batch of 8192 paths: EM on the scalar config fills an
# 8192 x 2000 increment array at t = 2.
SCALAR_PATHS = 8192
HEISENBERG_PATHS = 4096
MAGNUS_TIMES = (1.0, 2.0)
# Closed-form sweep shape.
COMMUTATIVE_DIMS = (1, 2, 3, 4, 6, 8)
SYNTHETIC_DIMS = (2, 3, 4, 5)
FIRST_ORDER_DIMS = (2, 3, 4)


@dataclass
class Op:
    """One report: `run` produces it, `check` lists what is wrong with it."""

    name: str
    run: Callable[[], Outcome]
    check_text: Callable[[str], list[str]]
    known_fault: str = ""

    def check(self, outcome: Outcome) -> list[str]:
        rc, out, err = outcome
        if rc != 0:
            return [f"exit code {rc}: {err.strip()}"]
        return self.check_text(out)


@dataclass
class Workload:
    name: str
    ops: list[Op]
    configs: list[str]
    n_paths: int = 0
    mc_seed: int = 0


def cli_op(name: str, command: str, config: str, check_text, known_fault: str = "") -> Op:
    argv = [command, "--config", config, "--out", "-"]

    def run() -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return rc, out.getvalue(), err.getvalue()

    return Op(name, run, check_text, known_fault)


def estimate_op(name: str, system: GBMSystem, t: float, scheme: str, n_paths: int, seed: int, check_text) -> Op:
    def run() -> Outcome:
        try:
            est = simulate.estimate_mean_square(system, t, scheme, n_paths, dt=DT, seed=seed)
        except ToolkitError as exc:
            return 1, "", exc.code
        return 0, json.dumps(est.to_dict(), sort_keys=True), ""

    return Op(name, run, check_text)


def _rows(M) -> list:
    return np.asarray(M, dtype=float).tolist()


def _write(workdir: str, name: str, cfg: dict) -> str:
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    return path


def _mc_seed(rng: np.random.Generator) -> int:
    # below 2^63: larger seeds alias through the substream key mask
    return int(rng.integers(1, 2**63 - 1))


def verify_scalar(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng([seed, 0])
    mc_seed = _mc_seed(rng)
    cfg = {
        "mode": "commutative", "A": [[-1.0]], "B": [[0.5]], "x": [1.0],
        "t_grid": DEFAULT_T_GRID, "mc": {"n_paths": SCALAR_PATHS, "dt": DT, "seed": mc_seed},
    }
    path = _write(workdir, "scalar", cfg)
    ops = [
        cli_op("verify", "verify", path, lambda s: checks.check_verify(s, DEFAULT_T_GRID, ref.scalar_msq, joint=False)),
        cli_op(
            "mean-square", "mean-square", path,
            lambda s: checks.check_mean_square(s, DEFAULT_T_GRID, ref.scalar_msq, True, checks.MACHINE_RTOL),
        ),
    ]
    return Workload("verify-scalar", ops, [path], SCALAR_PATHS, mc_seed)


HEISENBERG = {
    "A": [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]],  # E23
    "B": [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],  # E12
    "x": [0.0, 0.0, 1.0],
}


def verify_heisenberg(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng([seed, 1])
    mc_seed, n = _mc_seed(rng), HEISENBERG_PATHS
    cfg = dict(mode="first_order", t_grid=DEFAULT_T_GRID, mc={"n_paths": n, "dt": DT, "seed": mc_seed}, **HEISENBERG)
    path = _write(workdir, "heisenberg", cfg)
    system = GBMSystem(A=np.array(HEISENBERG["A"]), B=np.array(HEISENBERG["B"]), x=np.array(HEISENBERG["x"]))
    ops = [cli_op("verify", "verify", path, lambda s: checks.check_verify(s, DEFAULT_T_GRID, ref.heisenberg_msq, joint=True))]
    for t in MAGNUS_TIMES:
        ops.append(estimate_op(
            f"magnus-t{t:g}", system, t, "magnus_truncated", n, mc_seed,
            lambda s, t=t: checks.check_estimate(s, t, n, ref.heisenberg_msq(t)),
        ))
    return Workload("verify-heisenberg", ops, [path], n, mc_seed)


def _orthogonal(rng: np.random.Generator, d: int) -> np.ndarray:
    Q, R = np.linalg.qr(rng.standard_normal((d, d)))
    return Q * np.sign(np.diag(R))


def _spread(rng: np.random.Generator, d: int, lo: float, hi: float) -> np.ndarray:
    """d values in [lo, hi], one per stratum in random order, so no two are
    closer than a tenth of a stratum."""
    strata = (rng.permutation(d) + rng.uniform(0.05, 0.95, d)) / d
    return lo + (hi - lo) * strata


def _unit(rng: np.random.Generator, d: int) -> np.ndarray:
    x = rng.standard_normal(d)
    return x / np.linalg.norm(x)


def _eps_list(rng: np.random.Generator) -> list[float]:
    return [math.exp(-rng.uniform(lo, lo + 1.0)) for lo in (3.0, 5.0, 7.0)]


def _commuting_pair(rng: np.random.Generator, d: int) -> tuple[np.ndarray, np.ndarray]:
    """A symmetric negative definite, B = p(A) a quadratic in A scaled so that
    Q = A + B^2 keeps every eigenvalue below half of A's."""
    lam = -_spread(rng, d, 0.5, 3.0)
    U = _orthogonal(rng, d)
    A = U @ np.diag(lam) @ U.T
    A = 0.5 * (A + A.T)
    c = rng.standard_normal(3)
    mu = c[0] + c[1] * lam + c[2] * lam**2
    scale = math.sqrt(rng.uniform(0.1, 0.5) / float(np.max(mu**2 / -lam)))
    B = scale * (c[0] * np.eye(d) + c[1] * A + c[2] * (A @ A))
    return A, 0.5 * (B + B.T)


def _commutative_config(model: ref.CommutativeModel) -> dict:
    return {
        "mode": "commutative", "A": _rows(model.A), "B": _rows(model.B), "x": _rows(model.x),
        "eps_list": model.eps_list, "delta": model.delta, "w": model.w, "rho_grid": model.rho_grid,
    }


def _jordan_model(rng: np.random.Generator) -> ref.CommutativeModel:
    """2x2 Jordan drift (ell = 2) with B = c I.  The off-diagonal kappa stays
    below 2|mu| of Q, which keeps the mean square decreasing."""
    mu_a = -rng.uniform(0.8, 2.0)
    c = rng.uniform(0.1, 0.6) * math.sqrt(-mu_a)
    mu_q = mu_a + c * c
    kappa = rng.uniform(0.5, 1.5) * -mu_q
    U = _orthogonal(rng, 2)
    A = U @ np.array([[mu_a, kappa], [0.0, mu_a]]) @ U.T
    return ref.CommutativeModel(
        A, c * np.eye(2), _unit(rng, 2), "jordan", _eps_list(rng),
        rng.uniform(0.2, 0.5), rng.uniform(0.5, 2.0), RHO_GRID,
    )


def _synthetic_model(rng: np.random.Generator, d: int) -> ref.SyntheticModel:
    """Every mode decays: Gamma_j < 0, beta_j >= 0, a_j > 0, and b_j^2 below
    3 gamma_j a_j, so each mode's cutoff cubic has one real root."""
    a_diag = -_spread(rng, d, 0.2, 1.5)
    alpha = -_spread(rng, d, 0.0, 1.0)
    g = _spread(rng, d, 0.1, 1.0)
    a_cubic = -0.5 * alpha - a_diag
    b_cubic = rng.uniform(0.0, 1.0, d) * np.sqrt(0.8 * 3.0 * (0.5 * g) * a_cubic)
    return ref.SyntheticModel(
        _orthogonal(rng, d), a_diag, alpha, 2.0 * b_cubic, -g, _unit(rng, d),
        _eps_list(rng), rng.uniform(0.2, 0.5), RHO_GRID,
    )


# ROADMAP item 3: A = -0.5 I + S R S^-1, S = diag(1, 10), R = [[0, 3], [-3, 0]].
# The mean square oscillates; mixing bisects as if it were monotone.
NON_MONOTONE = ref.CommutativeModel(
    np.array([[-0.5, 0.3], [-30.0, -0.5]]), np.zeros((2, 2)), np.array([1.0, 0.0]), "rotation",
    [math.exp(-4.0)], 0.5, 1.0, RHO_GRID,
)
NON_MONOTONE_FAULT = "mixing assumes a non-increasing mean square and skips the first passage near t = 9.39"


def closed_form_sweep(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng([seed, 2])
    ops: list[Op] = []
    configs: list[str] = []

    def add(name: str, cfg: dict, commands: dict):
        path = _write(workdir, name, cfg)
        configs.append(path)
        for command, check_text in commands.items():
            ops.append(cli_op(f"{command}:{name}", command, path, check_text))

    commutative = []
    for d in COMMUTATIVE_DIMS:
        A, B = _commuting_pair(rng, d)
        commutative.append(ref.CommutativeModel(
            A, B, _unit(rng, d), "symmetric", _eps_list(rng),
            rng.uniform(0.2, 0.5), rng.uniform(0.5, 2.0), RHO_GRID,
        ))
    commutative.append(_jordan_model(rng))
    for k, m in enumerate(commutative):
        add(f"commutative{k}-d{m.A.shape[0]}", _commutative_config(m), {
            "hypotheses": lambda s, m=m: checks.check_hypotheses(s, m.A, m.B),
            "analyze": lambda s, m=m: checks.check_analyze(s, m),
            "mixing": lambda s, m=m: checks.check_mixing(s, m),
            "profile": lambda s, m=m: checks.check_profile(s, m),
        })

    for k, d in enumerate(SYNTHETIC_DIMS):
        m = _synthetic_model(rng, d)
        mats = m.matrices()
        cfg = {
            "mode": "synthetic", "A": _rows(mats["A"]), "alpha": _rows(mats["alpha"]),
            "beta": _rows(mats["beta"]), "Gamma": _rows(mats["Gamma"]), "x": _rows(m.x),
            "eps_list": m.eps_list, "delta": m.delta, "rho_grid": m.rho_grid, "t_grid": DEFAULT_T_GRID,
        }
        add(f"synthetic{k}-d{d}", cfg, {
            "analyze": lambda s, m=m: checks.check_analyze(s, m),
            "mixing": lambda s, m=m: checks.check_mixing(s, m),
            "profile": lambda s, m=m: checks.check_profile(s, m),
            "mean-square": lambda s, m=m: checks.check_mean_square(s, DEFAULT_T_GRID, m.msq, False, checks.CLOSED_RTOL),
        })

    for k, d in enumerate(FIRST_ORDER_DIMS):
        A, B = _commuting_pair(rng, d)
        m = ref.CommutingFirstOrderModel(A, B, _unit(rng, d), _eps_list(rng))
        cfg = {"mode": "first_order", "A": _rows(A), "B": _rows(B), "x": _rows(m.x), "eps_list": m.eps_list}
        add(f"first-order{k}-d{d}", cfg, {
            "hypotheses": lambda s, m=m: checks.check_hypotheses(s, m.A, m.B),
            "analyze": lambda s, m=m: checks.check_analyze(s, m),
        })

    t_grid = sorted(rng.uniform(0.2, 2.0, 100).tolist())
    add("example35", {"mode": "commutative", "A": [[-1.0]], "B": [[0.0]], "x": [1.0], "t_grid": t_grid},
        {"example35": lambda s: checks.check_example35(s, t_grid)})

    path = _write(workdir, "non-monotone", _commutative_config(NON_MONOTONE))
    configs.append(path)
    ops.append(cli_op(
        "mixing:non-monotone", "mixing", path, lambda s: checks.check_mixing(s, NON_MONOTONE),
        known_fault=NON_MONOTONE_FAULT,
    ))
    return Workload("closed-form-sweep", ops, configs)


GENERATORS = {
    "verify-scalar": verify_scalar,
    "verify-heisenberg": verify_heisenberg,
    "closed-form-sweep": closed_form_sweep,
}


def build(name: str, seed: int, workdir: str) -> Workload:
    os.makedirs(workdir, exist_ok=True)
    return GENERATORS[name](seed, workdir)
