from typing import NamedTuple

import json
import math

import numpy as np
import pytest
import scipy.linalg

from gbm_cutoff import spectral_asymptotics
from gbm_cutoff.cli import main
from gbm_cutoff.commutative_cutoff import profile_limit
from gbm_cutoff.errors import ToolkitError
from gbm_cutoff.linalg_core import CLUSTER_GAP, cluster_values
from gbm_cutoff.spectral_asymptotics import (
    COMPONENT_TOL,
    extract_asymptotics,
    is_diagonalizable,
    normalized_state,
)
from gbm_cutoff.system import GBMSystem

DIAG = (np.diag([-1.0, -2.0]), np.array([1.0, 1.0]))
JORDAN = (np.array([[-1.0, 1.0], [0.0, -1.0]]), np.array([0.0, 1.0]))
ROTATION = (np.array([[-1.0, 2.0], [-2.0, -1.0]]), np.array([1.0, 0.0]))


def residual(Q, y, asym, t):
    return np.linalg.norm(normalized_state(Q, y, asym, t) - asym.carrier(t))


def schur_split(Q):
    """The split of Q off its Schur form, whatever W's condition number."""
    return spectral_asymptotics._schur_split(Q, np.linalg.eigvals(Q))


def block_projectors(split):
    """basis coords of every block of a split, in block order."""
    return [split.basis[:, b.cols] @ split.inverse[b.cols] for b in split.blocks]


class TestSpectralProjector:
    def test_partition_of_identity_and_idempotence(self):
        rng = np.random.default_rng(31)
        Q = rng.standard_normal((5, 5))
        split = schur_split(Q)
        assert len(split.blocks) == 5
        total = np.zeros((5, 5), dtype=complex)
        for P in block_projectors(split):
            assert np.linalg.norm(P @ P - P) < 1e-9 * (1 + np.linalg.norm(P) ** 2)
            total += P
        assert np.linalg.norm(total - np.eye(5)) < 1e-9

    def test_commutes_with_matrix(self):
        rng = np.random.default_rng(32)
        Q = rng.standard_normal((4, 4))
        for P in block_projectors(schur_split(Q)):
            assert np.linalg.norm(P @ Q - Q @ P) < 1e-9 * (1 + np.linalg.norm(Q))

    def test_block_acts_as_its_centre_plus_N(self):
        # coords Q basis = c I + N on every block
        Q = np.random.default_rng(33).standard_normal((5, 5))
        split = schur_split(Q)
        for b in split.blocks:
            k = b.N.shape[0]
            restricted = split.inverse[b.cols] @ Q @ split.basis[:, b.cols]
            ref = split.rates[b.cols][0] * np.eye(k) + b.N
            assert np.linalg.norm(restricted - ref) < 1e-12 * (1 + np.linalg.norm(Q))


class TestExtractAsymptotics:
    def test_slowest_mode_dominates(self):
        Q, y = DIAG
        asym = extract_asymptotics(Q, y)
        assert asym.q == pytest.approx(1.0, abs=1e-12)
        assert asym.ell == 1 and asym.m == 1
        assert np.allclose(asym.vs[0], [1.0, 0.0], atol=1e-12)
        assert asym.K0 == pytest.approx(1.0, abs=1e-12)
        assert asym.K1 == pytest.approx(1.0, abs=1e-12)

    def test_jordan_block(self):
        Q, y = JORDAN
        asym = extract_asymptotics(Q, y)
        assert asym.q == pytest.approx(1.0, abs=1e-10)
        assert asym.ell == 2 and asym.m == 1
        assert np.allclose(asym.vs[0], [1.0, 0.0], atol=1e-10)

    def test_rotation_pair(self):
        Q, y = ROTATION
        asym = extract_asymptotics(Q, y)
        assert asym.q == pytest.approx(1.0, abs=1e-12)
        assert asym.ell == 1 and asym.m == 2
        assert sorted(asym.thetas) == pytest.approx([-2.0, 2.0], abs=1e-12)
        assert asym.K0 == pytest.approx(1.0, abs=1e-9)
        assert asym.K1 == pytest.approx(1.0, abs=1e-9)

    def test_zero_vector_rejected(self):
        with pytest.raises(ToolkitError) as err:
            extract_asymptotics(np.diag([-1.0, -2.0]), np.zeros(2))
        assert err.value.code == "zero_vector"

    def test_unstable_rejected(self):
        with pytest.raises(ToolkitError) as err:
            extract_asymptotics(np.diag([1.0, -2.0]), np.ones(2))
        assert err.value.code == "not_stable"

    def test_component_thresholding(self):
        # y orthogonal to the slow mode: the fast mode sets the rate
        Q = np.diag([-1.0, -2.0])
        asym = extract_asymptotics(Q, np.array([0.0, 1.0]))
        assert asym.q == pytest.approx(2.0, abs=1e-12)

    def test_convergence_decreasing(self):
        for Q, y in (DIAG, JORDAN, ROTATION):
            asym = extract_asymptotics(Q, y)
            res = [residual(Q, y, asym, t / asym.q) for t in (10.0, 20.0, 50.0)]
            assert res[0] >= res[1] - 1e-6 and res[1] >= res[2] - 1e-6

    def test_large_t_residual_for_simple_chains(self):
        # exponentially fast convergence whenever ell = 1
        for Q, y in (DIAG, ROTATION):
            asym = extract_asymptotics(Q, y)
            assert residual(Q, y, asym, 50.0 / asym.q) <= 1e-6 * np.linalg.norm(y)

    def test_homogeneity(self):
        Q, y = ROTATION
        base = extract_asymptotics(Q, y)
        for c in (-3.0, 0.25, 10.0):
            scaled = extract_asymptotics(Q, c * y)
            assert scaled.q == base.q and scaled.ell == base.ell
            assert scaled.thetas == pytest.approx(base.thetas)
            for v_s, v_b in zip(scaled.vs, base.vs):
                assert np.allclose(v_s, c * v_b, atol=1e-12)

    def test_grid_bound_on_example_suite(self):
        rng = np.random.default_rng(33)
        for Q, y in (DIAG, JORDAN, ROTATION):
            asym = extract_asymptotics(Q, y)
            if asym.m == 1:
                span = 50.0
            else:
                th = np.asarray(asym.thetas)
                g = np.min(np.abs(th[:, None] - th[None, :])[~np.eye(len(th), dtype=bool)])
                span = 200.0 * np.pi / g
            for t in rng.uniform(0.0, span, size=1000):
                val = np.linalg.norm(asym.carrier(t))
                assert asym.K0 - 1e-9 <= val <= asym.K1 + 1e-9

    def test_invariant_k0_le_k1_and_bounds(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            M = rng.standard_normal((4, 4))
            Q = M - (np.max(np.linalg.eigvals(M).real) + 0.5) * np.eye(4)
            y = rng.standard_normal(4)
            asym = extract_asymptotics(Q, y)
            assert 0 < asym.K0 <= asym.K1
            assert 1 <= asym.ell <= 4 and 1 <= asym.m <= 4

    def test_reconstruction_against_expm_random_stable(self):
        # e^{qt} t^{1-ell} exp(tQ) y tracks the carrier for random stable Q
        rng = np.random.default_rng(35)
        for _ in range(10):
            M = rng.standard_normal((4, 4))
            Q = M - (np.max(np.linalg.eigvals(M).real) + 0.7) * np.eye(4)
            y = rng.standard_normal(4)
            asym = extract_asymptotics(Q, y)
            t = 60.0 / asym.q
            rel = residual(Q, y, asym, t) / max(np.linalg.norm(asym.carrier(t)), 1e-12)
            assert rel < 1e-2

    def test_serialization(self):
        Q, y = ROTATION
        d = extract_asymptotics(Q, y).to_dict()
        assert d["m"] == 2 and len(d["vs"]) == 2

    def test_triple_jordan_chain(self):
        # single 3-chain: exp(tQ)y = e^{-t}(t^2/2, t, 1), ell = 3, v = (1/2, 0, 0)
        Q = np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, -1.0]])
        y = np.array([0.0, 0.0, 1.0])
        asym = extract_asymptotics(Q, y)
        assert asym.q == pytest.approx(1.0, abs=1e-9)
        assert asym.ell == 3 and asym.m == 1
        assert np.allclose(asym.vs[0], [0.5, 0.0, 0.0], atol=1e-9)

    def test_mixed_chain_heights_keep_maximal(self):
        # block-diagonal: a 2-chain at rate 1 and a simple mode at rate 1;
        # only the maximal-height chain survives the t^{ell-1} normalization
        Q = np.zeros((3, 3))
        Q[:2, :2] = np.array([[-1.0, 1.0], [0.0, -1.0]])
        Q[2, 2] = -1.0
        y = np.array([0.0, 1.0, 1.0])
        asym = extract_asymptotics(Q, y)
        assert asym.q == pytest.approx(1.0, abs=1e-9)
        assert asym.ell == 2 and asym.m == 1
        assert np.allclose(asym.vs[0], [1.0, 0.0, 0.0], atol=1e-9)

    def test_fast_jordan_block_ignored(self):
        # Jordan block decaying faster than a simple slow mode: ell = 1
        Q = np.zeros((3, 3))
        Q[0, 0] = -1.0
        Q[1:, 1:] = np.array([[-3.0, 1.0], [0.0, -3.0]])
        asym = extract_asymptotics(Q, np.array([1.0, 1.0, 1.0]))
        assert asym.q == pytest.approx(1.0, abs=1e-9)
        assert asym.ell == 1 and asym.m == 1

    def test_close_but_distinct_rates(self):
        # rates separated well beyond the clustering gap stay distinct
        Q = np.diag([-1.0, -1.001])
        asym = extract_asymptotics(Q, np.array([1.0, 1.0]))
        assert asym.q == pytest.approx(1.0, abs=1e-9)
        assert asym.m == 1
        assert np.allclose(asym.vs[0], [1.0, 0.0], atol=1e-9)


class TestNormalizedState:
    @pytest.mark.parametrize("Q,y,t", [(*JORDAN, 0.0), (*JORDAN, -1.0), (*DIAG, -1.0)])
    def test_no_state_before_zero_or_at_zero_on_a_chain(self, Q, y, t):
        asym = extract_asymptotics(Q, y)
        with pytest.raises(ToolkitError) as err:
            normalized_state(Q, y, asym, t)
        assert err.value.code == "bad_time"

    def test_simple_chain_starts_at_y(self):
        Q, y = DIAG
        np.testing.assert_allclose(normalized_state(Q, y, extract_asymptotics(Q, y), 0.0), y, rtol=1e-15)

    @pytest.mark.parametrize("Q,y", [DIAG, ROTATION])
    def test_reads_the_exp_action_of_one_eig(self, monkeypatch, Q, y):
        asym = extract_asymptotics(Q, y)
        expm, calls = scipy.linalg.expm, []

        def counted(M):
            calls.append(None)
            return expm(M)

        monkeypatch.setattr(scipy.linalg, "expm", counted)
        state = normalized_state(Q, y, asym, 3.0)
        np.testing.assert_allclose(state, np.exp(3.0 * asym.q) * (expm(3.0 * Q) @ y), rtol=1e-12)
        assert calls == []


def cluster_args(Q):
    """(members, radius) of every eigenvalue cluster of Q, in cluster order."""
    lam = np.linalg.eigvals(Q)
    out = []
    for idx in cluster_values(lam):
        members, others = lam[idx], np.delete(lam, idx)
        out.append((members, 0.5 * float(min(abs(m - o) for m in members for o in others)) if others.size else np.inf))
    return out


class EagerCluster(NamedTuple):
    rep: complex
    size: int
    projector: np.ndarray
    N: np.ndarray


def eager_split(Q):
    """Every cluster's (rep, size, projector, Q - rep I), in cluster order:
    the d x d construction that the split's blocks replace."""
    parts = []
    for members, radius in cluster_args(Q):
        rep = complex(np.mean(members))
        N = Q.astype(complex) - rep * np.eye(Q.shape[0])
        parts.append(EagerCluster(rep, len(members), reference_projector(Q, members, radius), N))
    return parts


def eager_read(parts, y):
    """(q, ell, kept) of y off every cluster of the eager split."""
    ynorm = float(np.linalg.norm(y))
    carriers = []
    for rep, size, P, N in parts:
        comp = P @ y.astype(complex)
        if np.linalg.norm(comp) <= COMPONENT_TOL * ynorm:
            continue
        height, top, z = 1, comp, comp
        for j in range(1, size):
            z = N @ z
            if np.linalg.norm(z) > COMPONENT_TOL * ynorm:
                height, top = j + 1, z
        carriers.append((rep, height, top))
    q = -max(rep.real for rep, _, _ in carriers)
    leading = [c for c in carriers if c[0].real >= -q - CLUSTER_GAP * (1.0 + abs(q))]
    ell = max(height for _, height, _ in leading)
    kept = sorted(((rep, top) for rep, height, top in leading if height == ell), key=lambda c: -c[0].imag)
    return q, ell, kept


def _stable(M, margin):
    return M - (np.max(np.linalg.eigvals(M).real) + margin) * np.eye(M.shape[0])


_RNG = np.random.default_rng(36)
_O = np.linalg.qr(_RNG.standard_normal((8, 8)))[0]
SYMMETRIC8 = (_O @ np.diag(-np.linspace(0.5, 4.0, 8)) @ _O.T, _RNG.standard_normal(8))
LAZY_CASES = {
    "symmetric": SYMMETRIC8,
    "jordan": JORDAN,
    "triple-jordan": (np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, -1.0]]), np.array([0.0, 0.0, 1.0])),
    "complex-pair": ROTATION,
    "two-complex-pairs": (np.block([[ROTATION[0], np.eye(2)], [np.zeros((2, 2)), ROTATION[0] - np.eye(2)]]),
                          np.array([1.0, 0.5, -0.2, 1.0])),
    "random": (_stable(_RNG.standard_normal((5, 5)), 0.3), _RNG.standard_normal(5)),
    "no-slowest-component": (np.diag([-1.0, -2.0, -2.0, -3.0]), np.array([0.0, 1.0, -1.0, 1.0])),
    "no-slowest-symmetric": (SYMMETRIC8[0], np.linalg.eigh(SYMMETRIC8[0])[1][:, 1]),
}


class TestBlockRead:
    @pytest.mark.parametrize("name", sorted(LAZY_CASES))
    def test_same_asymptotics_as_the_projector_read(self, monkeypatch, name):
        Q, y = LAZY_CASES[name]
        blocks = extract_asymptotics(Q, y)
        monkeypatch.setattr(spectral_asymptotics, "_read_vector", lambda split, y: eager_read(eager_split(Q), y))
        ref = extract_asymptotics(Q, y)
        assert (blocks.ell, blocks.m) == (ref.ell, ref.m)
        np.testing.assert_allclose([blocks.q, *blocks.thetas, blocks.K0, blocks.K1],
                                   [ref.q, *ref.thetas, ref.K0, ref.K1], rtol=1e-12)
        for a, b in zip(blocks.vs, ref.vs, strict=True):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.linalg.norm(b))

    @pytest.mark.parametrize("Q,y,code", [(*DIAG, None), (*ROTATION, None), (-DIAG[0], DIAG[1], "not_stable")])
    def test_one_eigenvalue_computation_per_extraction(self, monkeypatch, Q, y, code):
        # the Hurwitz test and the split read the one eig of the record
        calls = []
        for name in ("eig", "eigvals"):
            def counted(M, solve=getattr(np.linalg, name), name=name):
                calls.append(name)
                return solve(M)

            monkeypatch.setattr(np.linalg, name, counted)
        try:
            extract_asymptotics(Q, y)
        except ToolkitError as exc:
            assert exc.code == code
        else:
            assert code is None
        assert calls == ["eig"]

    def test_simple_well_conditioned_spectrum_factors_no_schur_form(self, monkeypatch):
        factored = []

        def counted(*args):
            factored.append(None)
            return schur_form(*args)

        schur_form = spectral_asymptotics._schur_form
        monkeypatch.setattr(spectral_asymptotics, "_schur_form", counted)
        Q, y = SYMMETRIC8
        assert extract_asymptotics(Q, y).q == pytest.approx(0.5, rel=1e-12)
        assert spectral_asymptotics._Spectrum(Q).split.inverse is None  # W's columns, W^-1 by a solve
        assert factored == []


def reference_projector(Q, members, radius):
    """The projector as a sorted Schur form and a general Sylvester solve
    build it: three Schur factorizations per cluster."""
    Qc = np.asarray(Q, dtype=complex)
    n = Qc.shape[0]
    members = np.asarray(members, dtype=complex)
    T, Z, k = scipy.linalg.schur(Qc, output="complex", sort=lambda lam: bool(np.min(np.abs(lam - members)) <= radius))
    if k == n:
        return np.eye(n, dtype=complex)
    X = scipy.linalg.solve_sylvester(T[:k, :k], -T[k:, k:], -T[:k, k:])
    M = np.vstack([np.hstack([np.eye(k, dtype=complex), -X]), np.zeros((n - k, n), dtype=complex)])
    return Z @ M @ Z.conj().T


def jordan(lam, size):
    return lam * np.eye(size) + np.eye(size, k=1)


_RNG_P = np.random.default_rng(37)
PROJECTOR_CASES = {
    **{f"lazy-{name}": Q for name, (Q, _) in LAZY_CASES.items()},
    "jordan-3-beside-simple": scipy.linalg.block_diag(jordan(-1.0, 3), [[-2.0]]),
    "two-jordan-chains": scipy.linalg.block_diag(jordan(-1.0, 2), jordan(-1.5, 3)),
    "rotation-plus-jordan": np.block([[ROTATION[0], np.ones((2, 2))], [np.zeros((2, 2)), jordan(-0.5, 2)]]),
    "rotation-plus-jordan-same-rate": np.block([[ROTATION[0], np.eye(2)], [np.zeros((2, 2)), jordan(-1.0, 2)]]),
    **{f"random-d{d}-{k}": _RNG_P.standard_normal((d, d)) for d in range(2, 9) for k in range(3)},
}


# two eigenvalues at -0.5: one cluster of two, so the split reads the Schur form
REPEATED8 = _O @ np.diag([-0.5, -0.5, -1.0, -1.5, -2.0, -2.5, -3.0, -4.0]) @ _O.T


class TestSharedSchurForm:
    @pytest.mark.parametrize("name", sorted(PROJECTOR_CASES))
    def test_matches_the_sorted_schur_and_sylvester_construction(self, name):
        Q = PROJECTOR_CASES[name]
        lam = np.linalg.eigvals(Q)
        split = spectral_asymptotics._schur_split(Q, lam)
        # no cluster of these merges, so the blocks stack in cluster order
        blocks = sorted(zip(split.blocks, block_projectors(split)), key=lambda e: e[0].cols.start)
        for g, (_, P) in zip(cluster_values(lam), blocks, strict=True):
            members, others = lam[g], np.delete(lam, g)
            radius = 0.5 * float(np.min(np.abs(members[:, None] - others))) if others.size else np.inf
            ref = reference_projector(Q, members, radius)
            assert np.linalg.norm(P - ref) <= 1e-15 * (1.0 + np.linalg.norm(ref))

    def test_one_schur_factorization_per_split(self, monkeypatch):
        factored, built = [], []
        schur_form, cluster_block = spectral_asymptotics._schur_form, spectral_asymptotics._cluster_block

        def counted_schur(*args):
            factored.append(None)
            return schur_form(*args)

        def counted_build(*args):
            built.append(None)
            return cluster_block(*args)

        monkeypatch.setattr(spectral_asymptotics, "_schur_form", counted_schur)
        monkeypatch.setattr(spectral_asymptotics, "_cluster_block", counted_build)
        spectrum = spectral_asymptotics._Spectrum(REPEATED8)
        assert not factored  # the form waits for the split
        vectors = np.linalg.eigh(REPEATED8)[1]
        rates = sorted(spectral_asymptotics._read_vector(spectrum.split, v)[0] for v in vectors.T)
        assert rates == pytest.approx([0.5, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0], rel=1e-12)
        assert (len(factored), len(built)) == (1, 7)

    @pytest.mark.parametrize("reorder", ["failing", "unmoved"])
    def test_cluster_whose_reordering_fails_merges_with_its_nearest(self, monkeypatch, reorder):
        ztrsen = scipy.linalg.lapack.ztrsen

        def failing(*args, **kwargs):
            return ztrsen(*args, **kwargs)[:-1] + (1,)

        def unmoved(select, T, Z, job):
            # keeps the unselected eigenvalues in front, with info 0
            return T, Z, np.diag(T), int(np.count_nonzero(select)), 0.0, 0.0, 0

        monkeypatch.setattr(scipy.linalg.lapack, "ztrsen", failing if reorder == "failing" else unmoved)
        split = spectral_asymptotics._Spectrum(np.diag([-1.0, -1.0, -2.0])).split
        # the cluster at -1 merges with -2: one block, the whole space
        assert [b.cols for b in split.blocks] == [slice(0, 3)]
        np.testing.assert_array_equal(split.inverse, np.eye(3))

    @pytest.mark.parametrize("Q", [
        [[-1.0, 10.0], [0.0, -1.0 - 3e-7]],
        [[-1.0, 10.0], [0.0, -1.0 - 1e-6]],
        [[-1.0, 1e5], [0.0, -1.01]],
        [[-1.0, 1e8], [0.0, -2.0]],
    ])
    def test_resolvable_pair_stays_split_whatever_its_projector(self, Q):
        # triangular, so each eigenvalue is exact and rounding cannot move it:
        # two blocks, (q, ell) = (1, 1), though the projectors' norms are 1e7
        # to 1e8
        Q = np.array(Q)
        assert len(spectral_asymptotics._Spectrum(Q).split.blocks) == 2
        asym = extract_asymptotics(Q, np.array([0.6, 0.8]))
        assert (asym.q, asym.ell) == (1.0, 1)

    @pytest.mark.parametrize("name", ["rotated-j2-k100", "rotated-j2-k1e4", "rotated-j3"])
    def test_rounded_chain_merges_into_one_block(self, name):
        A = MIS_SPLIT[name][0]
        assert [b.N.shape[0] for b in spectral_asymptotics._Spectrum(A).split.blocks] == [A.shape[0]]


class TestIsDiagonalizable:
    def test_diagonal(self):
        assert is_diagonalizable(np.diag([-1.0, -2.0]))

    def test_jordan_block(self):
        assert not is_diagonalizable(np.array([[-1.0, 1.0], [0.0, -1.0]]))

    def test_rotation(self):
        assert is_diagonalizable(np.array([[-1.0, 2.0], [-2.0, -1.0]]))

    def test_repeated_but_diagonalizable(self):
        assert is_diagonalizable(np.diag([-1.0, -1.0, -2.0]))

    @pytest.mark.parametrize("name", ["rotated-j2-k100", "rotated-j2-k1e4", "rotated-j3"])
    def test_rounded_jordan_chains_are_not(self, name):
        assert not is_diagonalizable(MIS_SPLIT[name][0])

    def test_scaled_jordan_block_is_not(self):
        # the tolerance scales with |M|, as |N| does: 1e-7 (1 + 1e4) < |N| = 1
        A = np.array([[-1e4, 1.0], [0.0, -1e4]])
        assert not is_diagonalizable(A)
        with pytest.raises(ToolkitError) as err:
            profile_limit(GBMSystem(A=A, B=np.zeros_like(A), x=np.array([1.0, 0.0])), 0.0)
        assert err.value.code == "not_diagonalizable"

    def test_resolvable_pair_with_a_large_projector_is(self):
        assert is_diagonalizable(np.array([[-1.0, 1e8], [0.0, -2.0]]))


U2 = np.array([[0.6, -0.8], [0.8, 0.6]])
_RZ = np.array([[math.cos(0.7), -math.sin(0.7), 0.0], [math.sin(0.7), math.cos(0.7), 0.0], [0.0, 0.0, 1.0]])
R3 = _RZ @ np.array([[1.0, 0.0, 0.0], [0.0, 0.6, -0.8], [0.0, 0.8, 0.6]])
# (A, x, ell): rounded Jordan chains that eig splits into eigenvalues more
# than the clustering gap apart; with B = 0, Q = A and eps = e^-4,
# t_eps = 4 + (ell - 1) ln 4
MIS_SPLIT = {
    "rotated-j2-k100": (U2 @ np.array([[-1.0, 100.0], [0.0, -1.0]]) @ U2.T, [1.0, 0.0], 2),
    "rotated-j2-k1e4": (U2 @ np.array([[-1.0, 1e4], [0.0, -1.0]]) @ U2.T, [1.0, 0.0], 2),
    "rotated-j3": (R3 @ (-np.eye(3) + np.eye(3, k=1)) @ R3.T, [0.3, 0.5, 0.8], 3),
}


def mis_split_config(tmp_path, name) -> str:
    A, x, _ = MIS_SPLIT[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"mode": "commutative", "A": A.tolist(), "B": np.zeros_like(A).tolist(), "x": x,
                                "eps_list": [math.exp(-4.0)]}))
    return str(path)


class TestMisSplitChains:
    """A rounded Jordan chain is one block: its chain height is read, where a
    split into singletons read ell = 1 or found no Schur eigenvalue to reorder."""

    @pytest.mark.parametrize("name", sorted(MIS_SPLIT))
    def test_analyze_reads_the_chain_height(self, tmp_path, capsys, name):
        assert main(["analyze", "--config", mis_split_config(tmp_path, name), "--out", "-"]) == 0
        report = json.loads(capsys.readouterr().out)
        ell = MIS_SPLIT[name][2]
        assert report["ell"] == ell
        # q is the merged block's centre, exactly 1 here, so t_eps prints
        # 4 + ln 4 = 5.386294361119891 for ell = 2
        assert report["schedules"][0]["t_eps"] == 4.0 + (ell - 1) * math.log(4.0)

    @pytest.mark.parametrize("name", sorted(MIS_SPLIT))
    def test_mixing_scales_tau_by_the_chain_cutoff_time(self, tmp_path, capsys, name):
        assert main(["mixing", "--config", mis_split_config(tmp_path, name), "--out", "-"]) == 0
        _, tau, tau_over_t_eps, _ = map(float, capsys.readouterr().out.splitlines()[1].split(",")[1:])
        t_eps = 4.0 + (MIS_SPLIT[name][2] - 1) * math.log(4.0)
        assert tau_over_t_eps == pytest.approx(tau / t_eps, rel=1e-12)

    @pytest.mark.parametrize("name", sorted(MIS_SPLIT))
    def test_profile_limit_is_refused(self, name):
        A, x, _ = MIS_SPLIT[name]
        with pytest.raises(ToolkitError) as err:
            profile_limit(GBMSystem(A=A, B=np.zeros_like(A), x=np.array(x)), 0.0)
        assert err.value.code == "not_diagonalizable"
