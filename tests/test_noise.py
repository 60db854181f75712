import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse.linalg as spla

from conftest import transport_bundle
from dqdnoise.errors import ConvergenceFailure, MethodUnavailable
from dqdnoise.model import ModelParams
from dqdnoise.noise import (
    NoiseSpectrum,
    ResolventSolver,
    compute_spectrum,
    counting_fd_check,
    find_peaks,
    find_peaks_xy,
    macdonald_correlation_trace,
    macdonald_evaluate,
    noise_eigen_expansion,
    noise_macdonald_oracle,
    noise_resolvent,
)
from dqdnoise.steady import currents, solve_steady_state, trace_replaced_system
from dqdnoise.superop import assemble_liouvillian, spectrum, trace_vector, vectorize
from dqdnoise.sweep import SweepAxis, SweepSpec, run_sweep


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
        s0 = noise_resolvent(liouv, ss, "e", "e", 0.0)
        assert s0 / (2 * flux) == pytest.approx(analytic_fano(gl, gr), abs=1e-10)

    def test_cross_correlation_vanishes_decoupled(self):
        p = ModelParams(delta=0.5, g=0.0, temperature=0.5, n_fock=10)
        _, liouv, ss = transport_bundle(p)
        assert abs(noise_resolvent(liouv, ss, "e", "b", 0.0)) <= 1e-10

    def test_high_frequency_poissonian_floor(self, fig2_bundle):
        _, liouv, ss = fig2_bundle
        flux = currents(ss, liouv).e
        val = noise_resolvent(liouv, ss, "e", "e", 1000.0)
        assert abs(val / (2 * flux) - 1.0) <= 1e-3

    def test_symmetry_in_frequency(self, fig2_bundle):
        _, liouv, ss = fig2_bundle
        for w in (0.31, 0.7, 1.2):
            sp = noise_resolvent(liouv, ss, "e", "e", w)
            sm = noise_resolvent(liouv, ss, "e", "e", -w)
            assert abs(sp - sm) <= 1e-8

    def test_projector_identities(self):
        liouv, ss = single_level(0.1, 0.05)
        solver = ResolventSolver(liouv, ss)
        d2 = 4
        p_mat = np.outer(solver.rho_vec, solver.tr)
        q_mat = np.eye(d2) - p_mat
        assert np.max(np.abs(p_mat @ p_mat - p_mat)) < 1e-10
        assert np.max(np.abs(q_mat @ q_mat - q_mat)) < 1e-10
        assert np.max(np.abs(p_mat @ q_mat)) < 1e-10

    def test_autocorrelation_positive(self, fig2_bundle):
        _, liouv, ss = fig2_bundle
        for w in (0.0, 0.5, 1.0):
            assert noise_resolvent(liouv, ss, "e", "e", w) > -1e-8


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
        _, liouv, ss = fig2_bundle
        grid = np.array([0.4, 1.0, 1.3])
        compute_spectrum(liouv, ss, ("e", "b"), grid, normalization="raw")
        assert len(splu_calls) == grid.size


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
        _, liouv, ss = fig2_bundle
        solver = ResolventSolver(liouv, ss)
        d2 = liouv.dim_rho**2
        x = rng.standard_normal(d2) + 1j * rng.standard_normal(d2)
        rhs = solver.q_apply(x)
        rhs[0] = 0.0
        fresh = spla.splu(trace_replaced_system(liouv)[0])
        expected = solver.q_apply(fresh.solve(rhs))
        assert np.array_equal(solver.apply(0.0, x), expected)


class TestMacdonald:
    def test_single_level_matches_analytic(self):
        liouv, ss = single_level(0.1, 0.1)
        flux = currents(ss, liouv).e
        val = noise_macdonald_oracle(liouv, ss, "e", "e", 0.0, t_max=1500.0, dt=0.05)
        assert val / (2 * flux) == pytest.approx(0.5, abs=1e-7)

    def test_cross_pair_decoupled(self):
        p = ModelParams(delta=0.5, g=0.0, temperature=0.0, n_fock=3)
        _, liouv, ss = transport_bundle(p)
        rate = spectrum(liouv).slowest_decay_rate()
        val = noise_macdonald_oracle(liouv, ss, "e", "b", 0.7,
                                     t_max=12 / rate, dt=0.02)
        assert abs(val) <= 1e-6

    def test_matches_resolvent_fig2(self):
        p = ModelParams(delta=0.5, g=0.2, n_fock=6)
        _, liouv, ss = transport_bundle(p)
        rate = spectrum(liouv).slowest_decay_rate()
        mac = noise_macdonald_oracle(liouv, ss, "e", "e", 1.0,
                                     t_max=12 / rate, dt=0.02)
        res = noise_resolvent(liouv, ss, "e", "e", 1.0)
        assert abs(mac - res) / abs(res) <= 1e-5

    def test_frequency_array_shares_trace(self, fig2_bundle):
        _, liouv, ss = fig2_bundle
        rate = spectrum(liouv).slowest_decay_rate()
        trace = macdonald_correlation_trace(liouv, ss, "e", "e",
                                            t_max=12 / rate, dt=0.02)
        grid = np.array([0.4, 1.0, 1.3])
        vals = macdonald_evaluate(trace, grid)
        for w, v in zip(grid, vals):
            assert v == pytest.approx(macdonald_evaluate(trace, float(w)), abs=1e-15)

    @pytest.mark.parametrize("pair", [("e", "e"), ("e", "b")])
    @pytest.mark.parametrize("n_steps", [4, 40, 1000])  # b = ceil(sqrt N) divides 4 only
    def test_blocked_sum_matches_plain_stepping(self, pair, n_steps):
        i, j = pair
        dt = 0.25
        _, liouv, ss = transport_bundle(ModelParams(delta=0.5, g=0.2, n_fock=2))
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

    def test_insufficient_t_max_raises(self, fig2_bundle):
        _, liouv, ss = fig2_bundle
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
        _, liouv, ss = fig2_bundle
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
        _, liouv, ss = fig2_bundle
        spec = spectrum(liouv)
        val = noise_eigen_expansion(spec, liouv.channel("e"), 1e4)
        assert abs(val - 1.0) <= 1e-3

    def test_reality_of_conjugate_pair_sum(self, fig2_bundle):
        _, liouv, ss = fig2_bundle
        spec = spectrum(liouv)
        grid = np.linspace(0.2, 1.8, 50)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # imaginary residue must stay quiet
            vals = noise_eigen_expansion(spec, liouv.channel("e"), grid)
        assert vals.shape == (50,)

    def test_locates_rabi_branch(self):
        # diagnostic role: a strong mode at the upper branch is resolved
        p = ModelParams(delta=0.5, g=0.4, n_fock=6)
        _, liouv, ss = transport_bundle(p, hamiltonian="jc")
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
        _, liouv, ss = transport_bundle(p)
        assert abs(counting_fd_check(liouv, ss, "e", "b")) <= 1e-6

    def test_matches_resolvent_fig5_point(self):
        p = ModelParams(epsilon=0.0, delta=0.1, g=0.0008, gamma_L=0.1,
                        gamma_R=0.001, gamma_b=0.01, n_fock=4)
        _, liouv, ss = transport_bundle(p)
        fd = counting_fd_check(liouv, ss, "e", "e")
        res = noise_resolvent(liouv, ss, "e", "e", 0.0)
        assert abs(fd - res) / abs(res) <= 1e-4

    def test_first_derivative_reproduces_current(self, fig2_bundle):
        # the delta_ij part of the stencil is the shot-noise floor 2 I_e;
        # equivalently I_e in S / 2e^2 units
        _, liouv, ss = fig2_bundle
        flux = currents(ss, liouv).e
        with_delta = counting_fd_check(liouv, ss, "e", "e")
        without = counting_fd_check(liouv, ss, "e", "e", include_delta=False)
        assert (with_delta - without) / 2.0 == pytest.approx(flux, rel=1e-6)


class TestComputeSpectrum:
    def test_methods_agree_on_grid(self, fig2_bundle):
        _, liouv, ss = fig2_bundle
        grid = np.linspace(0.8, 1.2, 9)
        rate = spectrum(liouv).slowest_decay_rate()
        res = compute_spectrum(liouv, ss, ("e", "e"), grid, method="resolvent")
        mac = compute_spectrum(liouv, ss, ("e", "e"), grid, method="macdonald",
                               t_max=12 / rate, dt=0.02)
        assert np.max(np.abs(res.values - mac.values) / np.abs(res.values)) <= 1e-5

    def test_fano_normalization(self, fig2_bundle):
        _, liouv, ss = fig2_bundle
        grid = np.array([0.9, 1.1])
        raw = compute_spectrum(liouv, ss, ("e", "e"), grid, normalization="raw")
        fano = compute_spectrum(liouv, ss, ("e", "e"), grid, normalization="fano")
        flux = currents(ss, liouv).e
        assert np.allclose(raw.values / (2 * flux), fano.values, atol=1e-14)

    def test_cross_pair_rejects_fano(self, fig2_bundle):
        _, liouv, ss = fig2_bundle
        with pytest.raises(ValueError):
            compute_spectrum(liouv, ss, ("e", "b"), np.array([0.5]),
                             normalization="fano")

    def test_eigen_cross_pair_unavailable(self, fig2_bundle):
        _, liouv, ss = fig2_bundle
        with pytest.raises(MethodUnavailable):
            compute_spectrum(liouv, ss, ("e", "b"), np.array([0.5]),
                             method="eigen", normalization="raw")


class TestFindPeaks:
    def test_monotone_spectrum_empty(self):
        ns = NoiseSpectrum(pair=("e", "e"), omegas=np.linspace(0, 1, 50),
                           values=np.linspace(1, 2, 50), normalization="raw",
                           method="resolvent")
        assert find_peaks(ns) == []

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
        _, liouv, ss = transport_bundle(p)
        grid = np.linspace(0.2, 1.8, 600)
        ns = compute_spectrum(liouv, ss, ("e", "e"), grid, normalization="fano")
        above_floor = [(w, h) for w, h in find_peaks(ns) if h > 1.0]
        assert len(above_floor) == 1
        assert above_floor[0][0] == pytest.approx(1.0, abs=0.01)


class TestBlockadeTrend:
    def test_current_decreases_with_coupling(self):
        vals = []
        for g in (0.2, 0.4, 0.8):
            p = ModelParams(epsilon=0.0, delta=0.02, g=g, n_fock=12)
            _, liouv, ss = transport_bundle(p)
            vals.append(currents(ss, liouv).e)
        assert vals[0] > vals[1] > vals[2]
