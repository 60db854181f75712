import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse.linalg as spla

from dqdnoise import noise, superop
from dqdnoise.errors import ConvergenceFailure, MethodUnavailable, NumericalError
from dqdnoise.model import ModelParams
from dqdnoise.noise import (
    ResolventSolver,
    TransportPoint,
    compute_spectrum,
    counting_fd_check,
    find_peaks_xy,
    macdonald_correlation_trace,
    macdonald_evaluate,
    noise_eigen_expansion,
)
from dqdnoise.steady import currents, factor_kept_block, refined_solve, solve_steady_state
from dqdnoise.superop import (assemble_liouvillian, charge_sector, slowest_decay_rate,
                              spectrum, trace_replaced_system, trace_vector, vectorize)
from dqdnoise.sweep import SweepAxis, SweepSpec, preset, run_sweep


def single_level(gamma_L, gamma_R):
    """Two-state rate model: empty <-> occupied, emission counted."""
    h = np.zeros((2, 2), dtype=complex)
    c_in = np.array([[0, 0], [1, 0]], dtype=complex)
    c_out = np.array([[0, 1], [0, 0]], dtype=complex)
    liouv = assemble_liouvillian(
        h, [("in", gamma_L, c_in, False), ("e", gamma_R, c_out, True)]
    )
    return liouv, solve_steady_state(liouv)


def analytic_fano(gamma_L, gamma_R):
    return (gamma_L**2 + gamma_R**2) / (gamma_L + gamma_R) ** 2


class TestResolvent:
    @pytest.mark.parametrize("gl,gr", [(0.1, 0.1), (0.1, 0.025)])
    def test_single_level_zero_frequency(self, gl, gr):
        liouv, ss = single_level(gl, gr)
        flux = currents(ss, liouv).e
        s0 = ResolventSolver(liouv, ss).noises([("e", "e")], 0.0)[0]
        assert s0 / (2 * flux) == pytest.approx(analytic_fano(gl, gr), abs=1e-10)

    def test_cross_correlation_vanishes_decoupled(self):
        p = ModelParams(delta=0.5, g=0.0, temperature=0.5, n_fock=10)
        assert abs(TransportPoint(p).noise("e", "b", 0.0)) <= 1e-10

    def test_high_frequency_poissonian_floor(self, fig2_bundle):
        assert abs(fig2_bundle.noise("e", "e", 1000.0, "fano") - 1.0) <= 1e-3

    def test_symmetry_in_frequency(self, fig2_bundle):
        for w in (0.31, 0.7, 1.2):
            sp = fig2_bundle.noise("e", "e", w)
            sm = fig2_bundle.noise("e", "e", -w)
            assert abs(sp - sm) <= 1e-8

    def test_projector_identities(self, fig2_bundle):
        for liouv, ss in (single_level(0.1, 0.05), (fig2_bundle.liouv, fig2_bundle.ss)):
            solver = ResolventSolver(liouv, ss)
            p_mat = np.outer(solver.rho, solver.tr)  # on the block
            q_mat = np.eye(liouv.blocks[0].size) - p_mat
            assert np.max(np.abs(p_mat @ p_mat - p_mat)) < 1e-10
            assert np.max(np.abs(q_mat @ q_mat - q_mat)) < 1e-10
            assert np.max(np.abs(p_mat @ q_mat)) < 1e-10

    def test_autocorrelation_positive(self, fig2_bundle):
        for w in (0.0, 0.5, 1.0):
            assert fig2_bundle.noise("e", "e", w) > -1e-8


class TestTransportPoint:
    def test_rejects_unknown_hamiltonian(self):
        with pytest.raises(ValueError, match="hamiltonian"):
            TransportPoint(ModelParams(n_fock=2), "rwa")

    def test_rejects_plan_of_another_hamiltonian(self):
        with pytest.raises(ValueError, match="plan is for hamiltonian 'full'"):
            TransportPoint(ModelParams(n_fock=2), "jc", superop.GeneratorPlan(2, "full"))

    def test_builds_and_solves_once_and_caches(self, fig2_params, operator_builds,
                                               monkeypatch):
        solves = []
        solve = noise.solve_steady_state

        def counting(liouv):
            solves.append(liouv)
            return solve(liouv)

        monkeypatch.setattr(noise, "solve_steady_state", counting)
        point = TransportPoint(fig2_params)
        assert point.report is point.report
        point.noise("e", "e", 0.5, "fano")
        point.noise("e", "b", 0.0)
        assert len(operator_builds) == 1 and len(solves) == 1

    def test_fano_normalization_rejects_zero_flux(self):
        blocked = TransportPoint(ModelParams(delta=0.0, g=0.0, n_fock=2))
        assert blocked.report.current_e == 0.0
        with pytest.raises(NumericalError, match="Fano-normalize"):
            blocked.noise("e", "e", 0.0, "fano")


@pytest.fixture()
def splu_calls(monkeypatch):
    """List that gains one entry per sparse LU factorization."""
    calls = []
    original = spla.splu

    def counting_splu(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting_splu)
    return calls


class TestResolventFactorCache:
    def test_cross_pair_spectrum_factors_once_per_frequency(self, fig2_bundle, splu_calls):
        liouv, ss = fig2_bundle.liouv, fig2_bundle.ss
        grid = np.array([0.4, 1.0, 1.3])
        compute_spectrum(liouv, ss, [(("e", "b"), "raw")], grid)
        assert len(splu_calls) == grid.size


def dense_noise(liouv, ss, i, j, omegas):
    """Reference S(w)_{i,j} from dense solves of (i w + L - |rho><1|) on the
    whole space: regular at w = 0, and equal to (i w + L) on range Q."""
    rho = vectorize(ss.rho_ss)
    tr = trace_vector(liouv.dim_rho)
    dense = liouv.matrix.toarray() - np.outer(rho, tr)
    ci, cj = liouv.channel(i).part, liouv.channel(j).part

    def q(x):
        return x - rho * (tr @ x)

    def t(a, b, w):
        y = np.linalg.solve(1j * w * np.eye(dense.shape[0]) + dense, q(b @ rho))
        return tr @ (a @ q(y))

    flux = np.real(tr @ (ci @ rho)) if i == j else 0.0
    return np.array([2.0 * ((-t(ci, cj, w) - t(cj, ci, w)).real + flux) for w in omegas])


def leaking_dot():
    """A 3-level dot whose Hamiltonian couples the empty state to L, so L
    feeds the empty-occupied coherences from the charge-sector block."""
    h = np.zeros((3, 3), dtype=complex)
    h[0, 1] = h[1, 0] = 0.3
    h[1, 2] = h[2, 1] = 0.5
    ket = np.eye(3, dtype=complex)
    liouv = assemble_liouvillian(h, [
        ("in", 0.1, np.outer(ket[1], ket[0]), False),
        ("e", 0.05, np.outer(ket[0], ket[2]), True),
    ])
    return liouv, solve_steady_state(liouv)


FIG2_GRID = np.linspace(0.2, 1.8, 161)


class TestFrequencyGrid:
    @pytest.mark.parametrize("pair", [("e", "e"), ("b", "b"), ("e", "b")])
    @pytest.mark.parametrize("grid", [np.array([-1.0, 0.37, 1.0, 1000.0]), FIG2_GRID],
                             ids=["spot", "fig2-grid"])
    def test_dense_and_lu_paths_agree(self, fig2_bundle, dense_cut, pair, grid):
        # S_eb changes sign, so errors are measured against the largest |S| on the grid
        liouv, ss = fig2_bundle.liouv, fig2_bundle.ss
        dense_cut("dense")
        dense = ResolventSolver(liouv, ss).noises([pair], grid)[0]
        dense_cut("lu")
        lu = ResolventSolver(liouv, ss).noises([pair], grid)[0]
        assert np.max(np.abs(dense - lu)) <= 1e-12 * np.max(np.abs(lu))

    @pytest.mark.parametrize("name,axis,value", [
        ("fig2", "g", 0.0), ("fig2", "g", 0.02), ("fig2", "g", 0.12),
        ("fig4a", "delta", 0.625), ("fig4a", "delta", 0.7)])
    def test_dense_and_lu_paths_agree_at_preset_points(self, dense_cut, splu_calls,
                                                       name, axis, value):
        # S_eb is left out: at these points the dense path reads up to 1e-12 of a
        # refined dense solve, and the LU path 4e-14 (CHANGES.md)
        spec = preset(name)
        point = TransportPoint(replace(spec.base, **{axis: value}), spec.hamiltonian)
        pairs = [("e", "e"), ("b", "b")]
        splu_calls.clear()
        dense = ResolventSolver(point.liouv, point.ss).noises(pairs, FIG2_GRID)
        assert not splu_calls  # the preset's own path, not the fallback
        dense_cut("lu")
        lu = ResolventSolver(point.liouv, point.ss).noises(pairs, FIG2_GRID)
        for got, ref in zip(dense, lu):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_ill_conditioned_eigenvectors_fall_back_to_lu(self, dense_cut, splu_calls,
                                                          monkeypatch):
        spec = preset("fig2")
        point = TransportPoint(replace(spec.base, g=0.02), spec.hamiltonian)
        pairs = [("e", "e"), ("e", "b")]
        solver = ResolventSolver(point.liouv, point.ss)
        assert solver._use_dense(FIG2_GRID.size)
        monkeypatch.setattr(noise, "DENSE_COND_MAX", 0.0)
        splu_calls.clear()
        fallback = solver.noises(pairs, FIG2_GRID)
        assert len(splu_calls) == FIG2_GRID.size
        dense_cut("lu")
        lu = ResolventSolver(point.liouv, point.ss).noises(pairs, FIG2_GRID)
        for got, ref in zip(fallback, lu):
            assert np.array_equal(got, ref)

    def test_resolvent_and_eigen_share_one_kept_block_eig(self, monkeypatch):
        spec = preset("fig2")
        params = replace(spec.base, g=0.12)
        point = TransportPoint(params, spec.hamiltonian)
        sizes = []
        eig = la.eig

        def counting(a, *args, **kwargs):
            sizes.append(a.shape[0])
            return eig(a, *args, **kwargs)

        monkeypatch.setattr(la, "eig", counting)
        requests = [(("e", "e"), "fano")]
        compute_spectrum(point.liouv, point.ss, requests, FIG2_GRID)
        shared, = compute_spectrum(point.liouv, point.ss, requests, FIG2_GRID, method="eigen")
        assert sizes.count(point.liouv.blocks[0].size) == 1
        fresh = TransportPoint(params, spec.hamiltonian)
        alone, = compute_spectrum(fresh.liouv, fresh.ss, requests, FIG2_GRID, method="eigen")
        assert np.array_equal(shared, alone)
        got, ref = spectrum(point.liouv), spectrum(fresh.liouv)
        assert np.array_equal(got.alphas, ref.alphas)
        for block, ref_block in zip(got.blocks, ref.blocks):
            assert all(np.array_equal(x, y) for x, y in zip(block, ref_block))

    def test_threads_share_one_solver(self, fig2_params):
        point = TransportPoint(fig2_params)
        solver = ResolventSolver(point.liouv, point.ss)
        grid = np.concatenate([[0.0], FIG2_GRID])
        assert solver._use_dense(FIG2_GRID.size)
        pairs = [("e", "e"), ("b", "b"), ("e", "b")]
        barrier = threading.Barrier(2, timeout=60)
        results = [None, None]

        def run(k):
            barrier.wait()
            results[k] = solver.noises(pairs, grid)

        threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for got, ref in zip(*results):
            assert np.array_equal(got, ref)

    def test_array_matches_scalar_calls(self, fig2_bundle):
        solver = ResolventSolver(fig2_bundle.liouv, fig2_bundle.ss)
        assert solver._use_dense(FIG2_GRID.size)
        batched = fig2_bundle.noise("e", "e", FIG2_GRID, "fano")
        single = np.array([fig2_bundle.noise("e", "e", w, "fano") for w in FIG2_GRID])
        assert np.max(np.abs(batched - single)) <= 1e-12 * np.max(np.abs(single))
        assert isinstance(fig2_bundle.noise("e", "e", 0.5), float)

    def test_zero_frequency_in_grid_uses_shared_factor(self, fig2_bundle):
        grid = np.array([0.0, 0.5, 0.0])
        vals = ResolventSolver(fig2_bundle.liouv, fig2_bundle.ss).noises([("e", "b")], grid)[0]
        assert vals[0] == vals[2] == fig2_bundle.noise("e", "b", 0.0)

    @pytest.mark.parametrize("make", ["fig2", "single_level", "leaking_dot"])
    @pytest.mark.parametrize("path", ["dense", "lu"])
    def test_matches_dense_whole_space_solve(self, fig2_bundle, dense_cut, make, path):
        if make == "fig2":
            liouv, ss = fig2_bundle.liouv, fig2_bundle.ss
        else:
            liouv, ss = single_level(0.1, 0.025) if make == "single_level" else leaking_dot()
        solver = ResolventSolver(liouv, ss)
        # only the dot (x) Fock generator that keeps its sectors closed is reduced
        assert (liouv.blocks[0].size < liouv.dim_rho**2) == (make == "fig2")
        dense_cut(path)
        grid = np.array([-0.8, 0.0, 0.3, 1.0, 2.5])
        for pair in (("e", "e"), ("e", "b")) if make == "fig2" else (("e", "e"),):
            got = solver.noises([pair], grid)[0]
            ref = dense_noise(liouv, ss, *pair, grid)
            assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_dense_path_on_a_generic_lindbladian(self, random_lindbladian, dense_cut):
        # complex H and jumps: Tr[L_e .] and L_e rho_ss have entries off the vec
        # diagonal, so the Hermitian basis of the dense path acts on both
        liouv = random_lindbladian
        ss = solve_steady_state(liouv)
        dense_cut("dense")
        grid = np.array([-0.8, 0.0, 0.3, 1.0, 2.5])
        got = ResolventSolver(liouv, ss).noises([("e", "e")], grid)[0]
        ref = dense_noise(liouv, ss, "e", "e", grid)
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_grid_below_cut_makes_no_frequency_lu(self, fig2_bundle, splu_calls):
        ResolventSolver(fig2_bundle.liouv, fig2_bundle.ss).noises([("e", "b")], FIG2_GRID)
        assert len(splu_calls) == 0

    def test_grid_above_cut_makes_one_lu_per_frequency(self, splu_calls):
        point = TransportPoint(ModelParams(delta=0.5, g=0.2, n_fock=10), "jc")
        splu_calls.clear()  # the steady-state factorization
        solver = ResolventSolver(point.liouv, point.ss)
        grid = FIG2_GRID[::2]
        assert not solver._use_dense(grid.size)
        solver.noises([("e", "b")], grid)
        assert len(splu_calls) == grid.size

    @pytest.mark.parametrize("n_fock,kept,dense", [(15, 1280, True), (16, 1445, False)])
    def test_dense_bound_edge(self, n_fock, kept, dense):
        # the one dense-size bound, at the kept block of n_fock 15; no eig is taken
        point = TransportPoint(ModelParams(delta=0.5, g=0.2, n_fock=n_fock))
        assert point.liouv.blocks[0].size == kept
        assert ResolventSolver(point.liouv, point.ss)._use_dense(10_000) is dense
        assert point.liouv._kept_eig is None


    def test_sweep_quantities_share_one_lu_per_frequency(self, dense_cut, splu_calls):
        # S_ee, S_bb and S_eb of a point on the sparse-LU path: one factor per omega
        dense_cut("lu")
        spec = SweepSpec(
            base=ModelParams(delta=0.5, n_fock=4),
            axes=(SweepAxis(name="g", values=(0.1, 0.3)),
                  SweepAxis(name="omega", start=0.4, stop=1.6, count=7)),
            quantities=("S_ee", "S_bb", "S_eb"),
        )
        result = run_sweep(spec)
        assert not result.gaps
        # one steady-state factorization per point plus one per frequency
        assert len(splu_calls) == 2 * (1 + 7)
        point = TransportPoint(ModelParams(delta=0.5, g=0.3, n_fock=4))
        for q, (pair, norm) in (("S_bb", (("b", "b"), "fano")), ("S_eb", (("e", "b"), "raw"))):
            single = point.noise(*pair, result.axis_values[1], norm)
            assert np.max(np.abs(result.data[q][1] - single)) <= 1e-12 * np.max(np.abs(single))

    def test_pairs_share_channel_columns(self, fig2_bundle):
        grid = np.concatenate([[0.0], FIG2_GRID])
        solver = ResolventSolver(fig2_bundle.liouv, fig2_bundle.ss)
        together = solver.noises([("e", "e"), ("b", "b"), ("e", "b")], grid)
        for pair, got in zip((("e", "e"), ("b", "b"), ("e", "b")), together):
            alone = ResolventSolver(fig2_bundle.liouv, fig2_bundle.ss).noises([pair], grid)[0]
            assert got[0] == alone[0]  # omega = 0 through the same R(0) applications
            assert np.max(np.abs(got - alone)) <= 1e-12 * np.max(np.abs(alone))


class TestChargeSectorBlock:
    @pytest.mark.parametrize("make", ["fig2", "single_level", "leaking_dot"])
    def test_steady_state_lives_on_block(self, fig2_bundle, make):
        if make == "fig2":
            liouv, ss = fig2_bundle.liouv, fig2_bundle.ss
        else:
            liouv, ss = single_level(0.1, 0.025) if make == "single_level" else leaking_dot()
        d2 = liouv.dim_rho**2
        n = int(charge_sector(liouv.dim_rho).sum()) if make == "fig2" else d2
        outside = np.ones(d2, dtype=bool)
        outside[liouv.blocks[0]] = False
        assert np.all(vectorize(ss.rho_ss)[outside] == 0.0)
        assert liouv.blocks[0].size == n and ss.factor.shape == (n, n)

    def test_one_sector_split_per_point(self, fig2_params, monkeypatch):
        """A plan-built point takes its blocks from the plan's one split."""
        plan = superop.GeneratorPlan(fig2_params.n_fock, "jc")
        calls = []
        split = superop._sector_split

        def counting(*args):
            calls.append(args)
            return split(*args)

        monkeypatch.setattr(superop, "_sector_split", counting)
        point = TransportPoint(fig2_params, "jc", plan)
        compute_spectrum(point.liouv, point.ss, [(("e", "e"), "fano"), (("e", "b"), "raw")],
                         np.linspace(0.0, 1.8, 10))
        assert calls == []
        assert point.liouv.blocks is plan.blocks


class TestSharedZeroFrequencyFactor:
    def test_zero_frequency_point_factors_once(self, splu_calls):
        spec = SweepSpec(
            base=ModelParams(delta=0.5, g=0.2, n_fock=4),
            axes=(SweepAxis(name="epsilon", values=(-0.5, 0.5)),),
            quantities=("S_ee", "S_eb"),
        )
        result = run_sweep(spec)
        assert not result.gaps
        assert len(splu_calls) == result.data["S_ee"].size

    def test_zero_frequency_apply_matches_fresh_factorization(self, fig2_bundle, rng):
        liouv, ss = fig2_bundle.liouv, fig2_bundle.ss
        solver = ResolventSolver(liouv, ss)
        n = liouv.blocks[0].size
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)

        def q(v):
            return v - solver.rho * (solver.tr @ v)

        rhs = q(x)
        rhs[-1] = 0.0  # the trace row, vec index 0's
        system = trace_replaced_system(liouv.matrix, liouv.blocks[0])
        expected = q(refined_solve(factor_kept_block(system), system, rhs))
        assert np.array_equal(solver.apply(x), expected)


class TestMacdonald:
    def test_single_level_matches_analytic(self):
        liouv, ss = single_level(0.1, 0.1)
        flux = currents(ss, liouv).e
        val, = compute_spectrum(liouv, ss, [(("e", "e"), "raw")], 0.0, method="macdonald",
                                t_max=1500.0, dt=0.05)
        assert val / (2 * flux) == pytest.approx(0.5, abs=1e-7)

    def test_cross_pair_decoupled(self):
        p = ModelParams(delta=0.5, g=0.0, temperature=0.0, n_fock=3)
        point = TransportPoint(p)
        liouv, ss = point.liouv, point.ss
        rate = spectrum(liouv).slowest_decay_rate()
        val, = compute_spectrum(liouv, ss, [(("e", "b"), "raw")], 0.7, method="macdonald",
                                t_max=12 / rate, dt=0.02)
        assert abs(val) <= 1e-6

    def test_matches_resolvent_fig2(self):
        point = TransportPoint(ModelParams(delta=0.5, g=0.2, n_fock=6))
        rate = spectrum(point.liouv).slowest_decay_rate()
        mac, = compute_spectrum(point.liouv, point.ss, [(("e", "e"), "raw")], 1.0,
                                method="macdonald", t_max=12 / rate, dt=0.02)
        res = point.noise("e", "e", 1.0)
        assert abs(mac - res) / abs(res) <= 1e-5

    def test_frequency_array_shares_trace(self, fig2_bundle):
        liouv, ss = fig2_bundle.liouv, fig2_bundle.ss
        rate = spectrum(liouv).slowest_decay_rate()
        trace = macdonald_correlation_trace(liouv, ss, "e", "e",
                                            t_max=12 / rate, dt=0.02)
        grid = np.array([0.4, 1.0, 1.3])
        vals = macdonald_evaluate(trace, grid)
        for w, v in zip(grid, vals):
            assert v == pytest.approx(macdonald_evaluate(trace, float(w)), abs=1e-15)

    @pytest.mark.parametrize("pair", [("e", "e"), ("e", "b")])
    def test_evaluate_matches_per_frequency_quadrature(self, fig2_bundle, pair):
        liouv, ss = fig2_bundle.liouv, fig2_bundle.ss
        trace = macdonald_correlation_trace(liouv, ss, *pair, t_max=800.0, dt=0.02,
                                            tail_rtol=1.0)
        grid = np.concatenate([[0.0, -0.7], np.linspace(0.2, 1.8, 161), [40.0]])
        g = trace.f - trace.f_inf
        n = trace.f.size
        weights = np.zeros(n)  # composite Boole rule, one sine product per frequency
        weights[0::4], weights[1::4], weights[2::4], weights[3::4] = 14.0, 32.0, 12.0, 32.0
        weights[0] = weights[-1] = 7.0
        weights *= 2 * 0.02 / 45
        ref = np.array([2 * trace.f_inf + 2 * w * (weights @ (np.sin(w * trace.taus) * g))
                        for w in grid])
        got = macdonald_evaluate(trace, grid)
        assert got[0] == 2 * trace.f_inf
        # sums over 40,001 samples in another order: roundoff only
        assert np.max(np.abs(got - ref)) <= 1e-11 * np.max(np.abs(ref))

    @pytest.mark.parametrize("pair", [("e", "e"), ("e", "b")])
    @pytest.mark.parametrize("n_steps", [4, 40, 1000])  # b = ceil(sqrt N) divides 4 only
    def test_blocked_sum_matches_plain_stepping(self, pair, n_steps):
        i, j = pair
        dt = 0.25
        point = TransportPoint(ModelParams(delta=0.5, g=0.2, n_fock=2))
        liouv, ss = point.liouv, point.ss
        trace = macdonald_correlation_trace(liouv, ss, i, j, t_max=n_steps * dt, dt=dt,
                                            tail_rtol=1.0)
        assert trace.f.size == n_steps + 1

        d2 = liouv.dim_rho**2
        rho_vec = vectorize(ss.rho_ss)
        tr = trace_vector(liouv.dim_rho)
        ci, cj = liouv.channel(i).part, liouv.channel(j).part
        aug = np.zeros((d2 + 2, d2 + 2), dtype=complex)
        aug[:d2, :d2] = liouv.matrix.toarray()
        aug[:d2, d2] = ci @ rho_vec
        aug[:d2, d2 + 1] = cj @ rho_vec
        eaug = la.expm(aug * dt)
        e_step, w_step = eaug[:d2, :d2], eaug[:d2, d2:]
        flux_i, flux_j = (tr @ aug[:d2, d2:]).real
        floor = flux_i if i == j else 0.0
        u = np.zeros((d2, 2), dtype=complex)
        expected = [floor]
        for k in range(1, n_steps + 1):
            u = e_step @ u + w_step
            expected.append((tr @ (ci @ u[:, 1]) + tr @ (cj @ u[:, 0])).real + floor
                            - 2.0 * k * dt * flux_i * flux_j)
        expected = np.array(expected)
        assert np.max(np.abs(trace.f - expected)) <= 1e-9 * np.max(np.abs(expected))

    def test_expm_runs_on_the_charge_sector_block(self, fig2_bundle, monkeypatch):
        shapes = []
        expm = la.expm
        monkeypatch.setattr(la, "expm", lambda a: shapes.append(a.shape) or expm(a))
        liouv, ss = fig2_bundle.liouv, fig2_bundle.ss
        macdonald_correlation_trace(liouv, ss, "e", "b", t_max=4.0, dt=0.25, tail_rtol=1.0)
        n_kept = int(charge_sector(liouv.dim_rho).sum())
        assert shapes == [(n_kept + 2, n_kept + 2)]

    def test_insufficient_t_max_raises(self, fig2_bundle):
        liouv, ss = fig2_bundle.liouv, fig2_bundle.ss
        with pytest.raises(ConvergenceFailure, match="increase t_max"):
            macdonald_correlation_trace(liouv, ss, "e", "e", t_max=20.0, dt=0.02)

    def test_omitted_linear_term_does_not_contribute(self):
        # the 2 tau <I>^2 piece integrates to zero under damped regularization:
        # 2 w int sin(w t) 2 t I^2 e^{-eta t} dt = 8 w^2 eta I^2/(w^2+eta^2)^2
        flux = 0.0033
        omega = 0.9
        vals = []
        for eta in (1e-2, 1e-3):
            taus = np.linspace(0, 25 / eta, 2_000_001)
            integrand = np.sin(omega * taus) * 2 * taus * flux**2 * np.exp(-eta * taus)
            val = 2 * omega * np.trapezoid(integrand, taus)
            expected = 8 * omega**2 * eta * flux**2 / (omega**2 + eta**2) ** 2
            assert val == pytest.approx(expected, rel=1e-3)
            vals.append(abs(val))
        assert vals[1] < 0.15 * vals[0]  # vanishes linearly with the regulator
        assert vals[1] < 1e-6

    def test_input_validation(self, fig2_bundle):
        liouv, ss = fig2_bundle.liouv, fig2_bundle.ss
        with pytest.raises(ValueError):
            macdonald_correlation_trace(liouv, ss, "e", "e", t_max=-1.0, dt=0.1)


class TestEigenExpansion:
    def test_single_level_exact(self):
        # fixes the coefficient normalization of the expansion
        liouv, ss = single_level(0.1, 0.025)
        spec = spectrum(liouv)
        val = noise_eigen_expansion(spec, liouv.channel("e"), 0.0)
        assert val == pytest.approx(analytic_fano(0.1, 0.025), abs=1e-10)

    def test_high_frequency_limit(self, fig2_bundle):
        liouv, ss = fig2_bundle.liouv, fig2_bundle.ss
        spec = spectrum(liouv)
        val = noise_eigen_expansion(spec, liouv.channel("e"), 1e4)
        assert abs(val - 1.0) <= 1e-3

    def test_reality_of_conjugate_pair_sum(self, fig2_bundle):
        liouv, ss = fig2_bundle.liouv, fig2_bundle.ss
        spec = spectrum(liouv)
        grid = np.linspace(0.2, 1.8, 50)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # imaginary residue must stay quiet
            vals = noise_eigen_expansion(spec, liouv.channel("e"), grid)
        assert vals.shape == (50,)

    @pytest.mark.parametrize("cid", ["e", "b"])
    def test_blocks_match_whole_space_expansion(self, cid):
        # the b channel's coefficients are nonzero in the coherence blocks too
        p = ModelParams(delta=0.5, g=0.2, epsilon=0.1, temperature=1.0, n_fock=3)
        liouv = TransportPoint(p).liouv
        alphas, v = la.eig(liouv.matrix.toarray())
        coeff = np.diag(np.linalg.inv(v) @ liouv.channel(cid).part @ v)
        keep = np.arange(alphas.size) != np.argmin(np.abs(alphas))
        grid = np.array([0.0, 0.3, 1.0, 1.7])
        terms = coeff[keep] * alphas[keep] / (grid[:, None] ** 2 + alphas[keep] ** 2)
        whole = 1.0 - 2.0 * np.sum(terms, axis=1).real
        got = noise_eigen_expansion(spectrum(liouv), liouv.channel(cid), grid)
        assert np.max(np.abs(got - whole)) <= 1e-8

    def test_locates_rabi_branch(self):
        # diagnostic role: a strong mode at the upper branch is resolved
        p = ModelParams(delta=0.5, g=0.4, n_fock=6)
        liouv = TransportPoint(p, hamiltonian="jc").liouv
        spec = spectrum(liouv)
        grid = np.linspace(1.2, 1.6, 801)
        vals = np.atleast_1d(noise_eigen_expansion(spec, liouv.channel("e"), grid))
        peaks = find_peaks_xy(grid, vals)
        assert peaks and min(abs(w - 1.4) for w, _ in peaks) < 0.05


class TestCountingFiniteDifference:
    def test_single_level(self):
        liouv, ss = single_level(0.1, 0.025)
        flux = currents(ss, liouv).e
        val = counting_fd_check(liouv, ss, "e", "e")
        assert val / (2 * flux) == pytest.approx(analytic_fano(0.1, 0.025), rel=1e-6)

    def test_cross_pair_decoupled(self):
        p = ModelParams(delta=0.5, g=0.0, temperature=0.5, n_fock=8)
        point = TransportPoint(p)
        liouv, ss = point.liouv, point.ss
        assert abs(counting_fd_check(liouv, ss, "e", "b")) <= 1e-6

    def test_matches_resolvent_fig5_point(self):
        p = ModelParams(epsilon=0.0, delta=0.1, g=0.0008, gamma_L=0.1,
                        gamma_R=0.001, gamma_b=0.01, n_fock=4)
        point = TransportPoint(p)
        fd = counting_fd_check(point.liouv, point.ss, "e", "e")
        res = point.noise("e", "e", 0.0)
        assert abs(fd - res) / abs(res) <= 1e-4

    def test_first_derivative_reproduces_current(self, fig2_bundle):
        # the delta_ij part of the stencil is the shot-noise floor 2 I_e;
        # equivalently I_e in S / 2e^2 units
        liouv, ss = fig2_bundle.liouv, fig2_bundle.ss
        flux = currents(ss, liouv).e
        with_delta = counting_fd_check(liouv, ss, "e", "e")
        without = counting_fd_check(liouv, ss, "e", "e", include_delta=False)
        assert (with_delta - without) / 2.0 == pytest.approx(flux, rel=1e-6)


class TestComputeSpectrum:
    def test_methods_agree_on_grid(self, fig2_bundle):
        liouv, ss = fig2_bundle.liouv, fig2_bundle.ss
        grid = np.linspace(0.8, 1.2, 9)
        rate = spectrum(liouv).slowest_decay_rate()
        res, = compute_spectrum(liouv, ss, [(("e", "e"), "fano")], grid, method="resolvent")
        mac, = compute_spectrum(liouv, ss, [(("e", "e"), "fano")], grid, method="macdonald",
                                t_max=12 / rate, dt=0.02)
        assert np.max(np.abs(res - mac) / np.abs(res)) <= 1e-5

    def test_fano_normalization(self, fig2_bundle):
        liouv, ss = fig2_bundle.liouv, fig2_bundle.ss
        grid = np.array([0.9, 1.1])
        raw, = compute_spectrum(liouv, ss, [(("e", "e"), "raw")], grid)
        fano, = compute_spectrum(liouv, ss, [(("e", "e"), "fano")], grid)
        flux = currents(ss, liouv).e
        assert np.allclose(raw / (2 * flux), fano, atol=1e-14)

    def test_cross_pair_rejects_fano(self, fig2_bundle):
        liouv, ss = fig2_bundle.liouv, fig2_bundle.ss
        with pytest.raises(ValueError):
            compute_spectrum(liouv, ss, [(("e", "b"), "fano")], np.array([0.5]))

    @pytest.mark.parametrize("bad, method", [((("e", "e"), "shot"), "resolvent"),
                                             ((("e", "e"), "raw"), "laplace")],
                             ids=["normalization", "method"])
    def test_unknown_normalization_or_method(self, fig2_bundle, bad, method):
        with pytest.raises(ValueError, match="unknown"):
            compute_spectrum(fig2_bundle.liouv, fig2_bundle.ss, [bad], 0.5, method)

    def test_eigen_cross_pair_unavailable(self, fig2_bundle):
        liouv, ss = fig2_bundle.liouv, fig2_bundle.ss
        with pytest.raises(MethodUnavailable):
            compute_spectrum(liouv, ss, [(("e", "b"), "raw")], np.array([0.5]), method="eigen")

    def test_eigen_stays_in_fano_units(self, fig2_bundle):
        # "fano" is the expansion itself and "raw" scales it by 2 I_e, never dividing back
        liouv, ss = fig2_bundle.liouv, fig2_bundle.ss
        grid = np.array([0.0, 0.6, 1.0, 1.4])
        fano, raw = compute_spectrum(liouv, ss, [(("e", "e"), "fano"), (("e", "e"), "raw")],
                                     grid, method="eigen")
        expansion = noise_eigen_expansion(spectrum(liouv), liouv.channel("e"), grid)
        assert np.array_equal(fano, expansion)
        assert np.array_equal(raw, expansion * 2.0 * currents(ss, liouv).e)

    def test_macdonald_default_t_max(self, fig2_bundle):
        liouv, ss = fig2_bundle.liouv, fig2_bundle.ss
        grid = np.array([0.0, 0.6, 1.0])
        requests = [(("e", "e"), "fano"), (("e", "b"), "raw")]
        auto = compute_spectrum(liouv, ss, requests, grid, method="macdonald", dt=0.04)
        given = compute_spectrum(liouv, ss, requests, grid, method="macdonald",
                                 t_max=12.0 / slowest_decay_rate(liouv), dt=0.04)
        for a, b in zip(auto, given):
            assert np.array_equal(a, b)

    def test_mixed_requests_match_single_calls(self, fig2_bundle):
        liouv, ss = fig2_bundle.liouv, fig2_bundle.ss
        grid = np.concatenate([[0.0], FIG2_GRID])
        requests = [(("e", "e"), "fano"), (("b", "b"), "raw"), (("e", "b"), "raw"),
                    (("b", "b"), "fano")]
        together = compute_spectrum(liouv, ss, requests, grid)
        for request, got in zip(requests, together):
            alone, = compute_spectrum(liouv, ss, [request], grid)
            assert np.max(np.abs(got - alone)) <= 1e-12 * np.max(np.abs(alone))


class TestFindPeaks:
    def test_monotone_spectrum_empty(self):
        assert find_peaks_xy(np.linspace(0, 1, 50), np.linspace(1, 2, 50)) == []

    def test_synthetic_lorentzian_refinement(self):
        w = np.linspace(0.5, 1.5, 301)
        center, width = 1.0173, 0.02
        vals = 1.0 / (1.0 + ((w - center) / width) ** 2)
        peaks = find_peaks_xy(w, vals)
        assert len(peaks) == 1
        pos, height = peaks[0]
        assert pos == pytest.approx(center, abs=2e-4)
        assert height == pytest.approx(1.0, abs=1e-2)

    def test_bare_dot_single_peak_near_splitting(self):
        # with no coupling the only above-floor feature sits at 2 Delta
        p = ModelParams(delta=0.5, g=0.0, n_fock=2)
        point = TransportPoint(p)
        liouv, ss = point.liouv, point.ss
        grid = np.linspace(0.2, 1.8, 600)
        fano, = compute_spectrum(liouv, ss, [(("e", "e"), "fano")], grid)
        above_floor = [(w, h) for w, h in find_peaks_xy(grid, fano) if h > 1.0]
        assert len(above_floor) == 1
        assert above_floor[0][0] == pytest.approx(1.0, abs=0.01)


class TestBlockadeTrend:
    def test_current_decreases_with_coupling(self):
        vals = []
        for g in (0.2, 0.4, 0.8):
            p = ModelParams(epsilon=0.0, delta=0.02, g=g, n_fock=12)
            vals.append(TransportPoint(p).report.current_e)
        assert vals[0] > vals[1] > vals[2]
