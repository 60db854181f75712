import itertools
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from dqdnoise import cli, steady
from dqdnoise.errors import DegenerateSteadyState, NumericalError
from dqdnoise.model import ModelParams, build_hamiltonian, build_operators, thermal_state
from dqdnoise.noise import TransportPoint, compute_spectrum, counting_fd_check
from dqdnoise.steady import (
    KRYLOV_MAX_ITER,
    POSITIVITY_TOL,
    RESIDUAL_TOL,
    currents,
    fano_number,
    min_quadrature_variance,
    mode_moments,
    moment_report,
    quadrature_variance,
    solve_steady_state,
)
from dqdnoise.superop import (DENSE_MAX_DIM, build_liouvillian, charge_sector,
                              generator_plan, thermal_occupation, vectorize)
from dqdnoise.sweep import PRESET_NAMES, _axis_params, preset


def nullspace_steady_state(liouv):
    """Independent brute-force oracle: dense eigendecomposition null vector."""
    alphas, vecs = np.linalg.eig(liouv.matrix.toarray())
    k = int(np.argmin(np.abs(alphas)))
    rho = np.reshape(vecs[:, k], (liouv.dim_rho, liouv.dim_rho), order="F")
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


class TestSolve:
    def test_blocked_transport_limit(self):
        # g = 0, Delta = 0: electron trapped in L, resonator thermal
        p = ModelParams(delta=0.0, g=0.0, temperature=1.0, n_fock=20)
        point = TransportPoint(p)
        liouv, ss = point.liouv, point.ss
        n_bar = thermal_occupation(1.0, 1.0)
        expected = np.zeros((3, 3), dtype=complex)
        expected[1, 1] = 1.0
        target = np.kron(expected, thermal_state(20, n_bar))
        assert np.max(np.abs(ss.rho_ss - target)) < 1e-8
        assert currents(ss, liouv).e == pytest.approx(0.0, abs=1e-12)

    def test_decoupled_resonator_thermal_occupation(self):
        p = ModelParams(delta=0.5, g=0.0, temperature=1.0, n_fock=26)
        ss = TransportPoint(p).ss
        n_bar = thermal_occupation(1.0, 1.0)
        mean_n = np.real(np.trace(build_operators(p.space()).number @ ss.rho_ss))
        assert mean_n == pytest.approx(n_bar, abs=1e-8)

    def test_matches_nullspace_oracle_fig2(self, fig2_bundle):
        liouv, ss = fig2_bundle.liouv, fig2_bundle.ss
        oracle = nullspace_steady_state(liouv)
        assert np.max(np.abs(ss.rho_ss - oracle)) < 1e-8

    def test_state_properties(self, fig2_bundle):
        ss = fig2_bundle.ss
        rho = ss.rho_ss
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-14
        assert np.linalg.eigvalsh(rho).min() > -1e-9
        assert ss.residual <= 1e-10

    def test_g0_factorization(self):
        p = ModelParams(delta=0.5, g=0.0, temperature=1.0, n_fock=26)
        ss = TransportPoint(p).ss
        # independent dot-only route
        dot = ModelParams(delta=0.5, g=0.0, temperature=1.0, n_fock=1)
        # build 3x3 dot steady state from the full solution's dot marginal
        nf = 27
        rho_dot = np.zeros((3, 3), dtype=complex)
        for i in range(3):
            for j in range(3):
                rho_dot[i, j] = np.trace(
                    ss.rho_ss[i * nf:(i + 1) * nf, j * nf:(j + 1) * nf])
        rho_th = thermal_state(26, thermal_occupation(1.0, 1.0))
        assert np.max(np.abs(ss.rho_ss - np.kron(rho_dot, rho_th))) < 1e-8

    def test_degenerate_stationary_subspace_detected(self):
        # leads off: dot populations decouple, multiple stationary states; the
        # (0, X) and (X, 0) coherences of equal energy are zero modes too
        p = ModelParams(delta=0.0, g=0.0, gamma_L=0.0, gamma_R=0.0,
                        gamma_b=0.05, n_fock=2)
        liouv = build_liouvillian(build_hamiltonian(p), p)
        n_zero = int(np.sum(np.abs(np.linalg.eigvals(liouv.matrix.toarray())) <= 1e-8))
        mask = charge_sector(liouv.dim_rho)
        kept = np.linalg.eigvals(liouv.matrix[mask][:, mask].toarray())
        assert n_zero > int(np.sum(np.abs(kept) <= 1e-8))
        with pytest.raises(DegenerateSteadyState, match=f"\\({n_zero} eigenvalues"):
            solve_steady_state(liouv)

    def test_overflowing_generator_is_named(self):
        # finite input, but the generator overflows to inf/NaN entries
        p = ModelParams(epsilon=1e308, n_fock=2)
        liouv = build_liouvillian(build_hamiltonian(p), p)
        with pytest.raises(NumericalError, match="non-finite"):
            solve_steady_state(liouv)

    def test_failure_above_diagnosis_cap_skips_eigvals(self, monkeypatch):
        # all rates zero, too large for the dense diagnosis: reported without eigvals
        calls = []
        eigvals = scipy.linalg.eigvals
        monkeypatch.setattr(scipy.linalg, "eigvals", lambda a: calls.append(a.shape) or eigvals(a))
        p = ModelParams(delta=0.5, gamma_L=0.0, gamma_R=0.0, gamma_b=0.0, n_fock=16)
        liouv = build_liouvillian(build_hamiltonian(p), p)
        assert liouv.blocks[0].size == 1445 > DENSE_MAX_DIM
        with pytest.raises(NumericalError):
            solve_steady_state(liouv)
        assert calls == []


def fig5a_point(n_fock=25, **change):
    return replace(preset("fig5a").base, n_fock=n_fock, **change)


def fano_zero(liouv, ss):
    return compute_spectrum(liouv, ss, [(("e", "e"), "fano")], 0.0)[0]


class TestKrylovPath:
    """Kept blocks above DENSE_MAX_DIM solved by GMRES, preconditioned by the
    point's own g = 0 generator."""

    @pytest.mark.parametrize("params, hamiltonian", [
        (fig5a_point(temperature=2.0, epsilon=0.5), "full"),
        (ModelParams(delta=0.5, g=0.3, temperature=1.0, n_fock=16), "jc")])
    def test_kronecker_sum_is_the_g0_block(self, params, hamiltonian):
        plan = generator_plan(params.n_fock, hamiltonian)
        ks = plan.generator(params).uncoupled
        sub, diag, sup = ks.bands
        b = scipy.sparse.diags([sub[:-1], diag, sup[:-1]], [-1, 0, 1])
        total = scipy.sparse.kron(ks.dot, scipy.sparse.identity(diag.size)) \
            + scipy.sparse.kron(scipy.sparse.identity(5), b)
        l0 = plan.generator(replace(params, g=0.0)).kept[ks.order][:, ks.order]
        assert abs(total - l0).max() <= 1e-15 * abs(l0).max()

    def test_only_blocks_above_the_dense_cap_carry_it(self):
        assert generator_plan(15, "full").generator(fig5a_point(15)).uncoupled is None
        liouv = build_liouvillian(build_hamiltonian(fig5a_point()), fig5a_point())
        assert liouv.uncoupled is None and solve_steady_state(liouv).path == "lu"

    def test_dot_cut_off_from_the_leads_takes_the_lu_path(self):
        """Both leads off: the dot generator's three zero modes, two of them returned
        by eig as 1e-17, leave a 2-dimensional stationary family, so the point is
        solved by the LU and raises its error."""
        p = ModelParams(delta=0.5, epsilon=0.5, gamma_L=0.0, gamma_R=0.0, gamma_b=0.05,
                        n_fock=16)
        liouv = generator_plan(16, "full").generator(p)
        assert liouv.uncoupled is not None and liouv.blocks[0].size > DENSE_MAX_DIM
        assert steady.SystemInverse(liouv).path == "lu"
        errors = []
        for case in (liouv, replace(liouv, uncoupled=None)):
            with pytest.raises(NumericalError) as info:
                solve_steady_state(case)
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("n_fock", [25, 40])
    def test_matches_the_lu_at_fig5a_points(self, n_fock):
        """rho and S_ee(0) within 1e-12 of their maxima of the LU's, T 0 and 2, eps -1
        and 0.5."""
        for temperature, epsilon in itertools.product((0.0, 2.0), (-1.0, 0.5)):
            point = TransportPoint(fig5a_point(n_fock, temperature=temperature,
                                               epsilon=epsilon))
            liouv, ss = point.liouv, point.ss
            lu = solve_steady_state(replace(liouv, uncoupled=None))
            assert (ss.path, lu.path) == ("krylov", "lu")
            scale = np.max(np.abs(lu.rho_kept))
            assert np.max(np.abs(ss.rho_kept - lu.rho_kept)) <= 1e-12 * scale
            assert ss.residual <= RESIDUAL_TOL
            s_lu = fano_zero(liouv, lu)
            assert abs(fano_zero(liouv, ss) - s_lu) <= 1e-12 * abs(s_lu)
            assert len(ss.iterations) == 2 and max(ss.iterations) <= 8

    def test_cap_zero_takes_the_lu_bits_with_one_factorization(self, monkeypatch):
        calls = []
        splu = scipy.sparse.linalg.splu
        monkeypatch.setattr(scipy.sparse.linalg, "splu",
                            lambda *a, **k: calls.append(1) or splu(*a, **k))
        monkeypatch.setattr(steady, "KRYLOV_MAX_ITER", 0)
        for epsilon in (-1.0, 0.5):
            liouv = generator_plan(25, "full").generator(fig5a_point(temperature=2.0,
                                                                     epsilon=epsilon))
            ss = solve_steady_state(liouv)
            value = fano_zero(liouv, ss)
            assert len(calls) == 1 and ss.path == "krylov-lu"
            calls.clear()
            lu_only = replace(liouv, uncoupled=None)
            lu = solve_steady_state(lu_only)
            assert np.array_equal(ss.rho_kept, lu.rho_kept)
            assert fano_zero(lu_only, lu) == value
            calls.clear()

    def test_fig5a_sized_sweep_is_identical_at_two_workers(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"model.{k} = {v!r}\n" for k, v in vars(fig5a_point()).items())
                       + "sweep.axis1.name = epsilon\nsweep.axis1.values = -1,0.5\n"
                       "sweep.axis2.name = T\nsweep.axis2.values = 0,2\n"
                       "sweep.quantities = S_ee\n")
        outs = [tmp_path / f"w{w}.csv" for w in (1, 2)]
        for w, out in zip((1, 2), outs):
            assert cli.main(["sweep", "--config", str(cfg), "--out", str(out),
                             "--workers", str(w)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_counting_field_check_agrees(self):
        point = TransportPoint(fig5a_point(temperature=0.5, epsilon=0.5))
        assert point.ss.path == "krylov"
        value = point.noise("e", "e", 0.0)
        assert abs(counting_fd_check(point.liouv, point.ss, "e", "e") - value) <= 1e-4 * abs(value)


class TestSolveRecord:
    def test_lu_point(self, fig2_bundle):
        ss = fig2_bundle.ss
        fig2_bundle.noise("e", "e", 0.0)
        assert ss.path == "lu" and ss.iterations == []
        assert ss.min_eig == np.linalg.eigvalsh(ss.rho_ss).min() >= POSITIVITY_TOL

    def test_krylov_point(self):
        point = TransportPoint(fig5a_point(temperature=1.0, epsilon=-0.5))
        assert point.ss.path == "krylov" and len(point.ss.iterations) == 1
        point.noise("e", "e", 0.0)
        point.noise("b", "b", 0.0)
        assert len(point.ss.iterations) == 3
        assert all(1 <= k <= KRYLOV_MAX_ITER for k in point.ss.iterations)
        assert point.ss.min_eig == np.linalg.eigvalsh(point.ss.rho_ss).min()


class TestFactorOrder:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_preset_corners_match_a_colamd_solve(self, name):
        """At each corner of a preset's grid, g 0 and T 0 among them, the solve in
        the plan's order meets the residual bound, agrees with SuperLU's default
        (COLAMD order, partial pivoting) and keeps every exact zero of it."""
        spec = preset(name)
        plan = generator_plan(spec.base.n_fock, spec.hamiltonian)
        axes = [a for a in spec.axes if a.name != "omega"]
        for vals in itertools.product(*[(a.grid().min(), a.grid().max()) for a in axes]):
            liouv = plan.generator(_axis_params(spec.base, [a.name for a in axes], list(vals),
                                                spec.base.n_fock))
            ss = solve_steady_state(liouv)
            assert ss.residual <= RESIDUAL_TOL
            b = np.zeros(liouv.blocks[0].size, dtype=complex)
            b[-1] = 1.0  # the trace row
            colamd = scipy.sparse.linalg.splu(liouv.system).solve(b)
            x = vectorize(ss.rho_ss)[liouv.blocks[0]]
            assert np.max(np.abs(x - colamd)) <= 1e-12 * np.max(np.abs(colamd))
            assert np.all(x[colamd == 0.0] == 0.0)


class TestCurrents:
    def test_charge_conservation(self, fig2_bundle):
        liouv, ss = fig2_bundle.liouv, fig2_bundle.ss
        cur = currents(ss, liouv)
        assert abs(cur.inflow - cur.e) <= 1e-10

    def test_phonon_current_thermal(self):
        p = ModelParams(delta=0.5, g=0.0, temperature=1.0, n_fock=26)
        point = TransportPoint(p)
        liouv, ss = point.liouv, point.ss
        n_bar = thermal_occupation(1.0, 1.0)
        cur = currents(ss, liouv)
        # counted emission weight gamma_b (1 + n_bar) acting on <n> = n_bar
        assert cur.b == pytest.approx(p.gamma_b * (1 + n_bar) * n_bar, rel=1e-7)

    def test_phonon_current_vanishes_at_zero_temperature(self):
        p = ModelParams(delta=0.5, g=0.0, temperature=0.0, n_fock=4)
        point = TransportPoint(p)
        liouv, ss = point.liouv, point.ss
        assert currents(ss, liouv).b == pytest.approx(0.0, abs=1e-12)

    def test_blocked_current_zero(self):
        p = ModelParams(delta=0.0, g=0.0, n_fock=2)
        point = TransportPoint(p)
        liouv, ss = point.liouv, point.ss
        assert currents(ss, liouv).e == pytest.approx(0.0, abs=1e-12)

    def test_fig5_point_against_oracle(self):
        p = ModelParams(epsilon=0.0, delta=0.1, g=0.0008, omega_b=1.0,
                        gamma_L=0.1, gamma_R=0.001, gamma_b=0.01,
                        temperature=0.0, n_fock=4)
        point = TransportPoint(p)
        liouv, ss = point.liouv, point.ss
        cur = currents(ss, liouv)
        assert cur.e > 0
        oracle = nullspace_steady_state(liouv)
        tr = vectorize(np.eye(liouv.dim_rho))
        flux = float(np.real(tr @ (liouv.channels["e"].part @ vectorize(oracle))))
        assert cur.e == pytest.approx(flux, rel=1e-8)

    def test_all_non_negative(self, fig2_bundle):
        liouv, ss = fig2_bundle.liouv, fig2_bundle.ss
        cur = currents(ss, liouv)
        assert cur.e >= 0 and cur.b >= 0 and cur.inflow >= 0


class TestMoments:
    def test_thermal_fano(self):
        ss = TransportPoint(ModelParams(delta=0.5, g=0.0, temperature=1.0, n_fock=30)).ss
        n_bar = thermal_occupation(1.0, 1.0)
        assert fano_number(ss) == pytest.approx(1 + n_bar, abs=1e-8)

    def test_vacuum_fano_flag(self):
        rep = TransportPoint(ModelParams(delta=0.5, g=0.0, temperature=0.0, n_fock=4)).report
        assert rep.fano_vacuum and rep.fano_q == 0.0

    def test_variance_inequality(self, fig2_bundle):
        rep = fig2_bundle.report
        assert rep.mean_n2 >= rep.mean_n**2 - 1e-14

    def test_sub_poissonian_window_exists(self):
        assert fano_number(TransportPoint(ModelParams(delta=0.5, g=0.1, n_fock=8)).ss) < 1.0

    def test_report_builds_no_operators(self, fig2_bundle, operator_builds):
        liouv, ss = fig2_bundle.liouv, fig2_bundle.ss
        moment_report(ss, liouv)
        assert operator_builds == []

    def test_match_composite_operators(self):
        p = ModelParams(delta=0.5, g=0.2, temperature=0.5, n_fock=15)
        point = TransportPoint(p)
        ops, liouv, ss = build_operators(p.space()), point.liouv, point.ss

        def ev(op):
            return complex(np.trace(op @ ss.rho_ss))

        mean_a, mean_a2 = ev(ops.a), ev(ops.a @ ops.a)
        mean_n, mean_n2 = ev(ops.number).real, ev(ops.number @ ops.number).real
        z = mean_a2 - mean_a**2
        spread = 2 * (mean_n - abs(mean_a) ** 2)
        fano = (mean_n2 - mean_n**2) / mean_n
        qmin = (float((np.angle(z) + np.pi) / 2 % np.pi), spread - 2 * abs(z))
        tol = 1e-12
        assert fano_number(ss) == pytest.approx(fano, abs=tol)
        for phi in (0.0, 0.7, 2.1):
            expected = 2 * np.real(z * np.exp(-2j * phi)) + spread
            assert quadrature_variance(ss, phi) == pytest.approx(expected, abs=tol)
        assert min_quadrature_variance(ss) == pytest.approx(qmin, abs=tol)
        rep = moment_report(ss, liouv)
        assert (rep.mean_a, rep.mean_a2) == pytest.approx((mean_a, mean_a2), abs=tol)
        assert (rep.mean_n, rep.mean_n2) == pytest.approx((mean_n, mean_n2), abs=tol)
        assert rep.fano_q == pytest.approx(fano, abs=tol) and not rep.fano_vacuum
        assert (rep.quad_phi_star, rep.quad_min) == pytest.approx(qmin, abs=tol)

    def test_rejects_non_dot_dimension(self, fig2_bundle):
        ss = fig2_bundle.ss
        two_level = replace(ss, rho_ss=np.eye(2, dtype=complex) / 2)
        with pytest.raises(ValueError, match="3-level"):
            mode_moments(two_level)


class TestQuadrature:
    def test_vacuum_variance_zero(self):
        p = ModelParams(delta=0.5, g=0.0, temperature=0.0, n_fock=4)
        ss = TransportPoint(p).ss
        for phi in np.linspace(0, np.pi, 7):
            assert quadrature_variance(ss, phi) == pytest.approx(0.0, abs=1e-12)

    def test_thermal_variance(self):
        p = ModelParams(delta=0.5, g=0.0, temperature=1.0, n_fock=30)
        ss = TransportPoint(p).ss
        n_bar = thermal_occupation(1.0, 1.0)
        for phi in (0.0, 0.4, 1.1):
            assert quadrature_variance(ss, phi) == pytest.approx(2 * n_bar, abs=1e-8)

    def test_closed_form_matches_grid_minimum(self, fig2_bundle):
        ss = fig2_bundle.ss
        phi_star, vmin = min_quadrature_variance(ss)
        phis = np.linspace(0, np.pi, 10_000, endpoint=False)
        vals = np.array([quadrature_variance(ss, p) for p in phis])
        assert vmin <= vals.min() + 1e-12
        # remove the grid discretization bias (~4|z| dphi^2) with a
        # three-point parabolic refinement around the sampled minimum
        k = int(np.argmin(vals))
        vm, v0, vp = vals[k - 1], vals[k], vals[(k + 1) % vals.size]
        denom = vm - 2 * v0 + vp
        refined = v0 - (vm - vp) ** 2 / (8 * denom) if denom > 0 else v0
        assert abs(vmin - refined) < 1e-10
        assert 0 <= phi_star < np.pi
        assert quadrature_variance(ss, phi_star) == pytest.approx(vmin, abs=1e-12)

    def test_pi_periodicity(self, fig2_bundle):
        ss = fig2_bundle.ss
        assert quadrature_variance(ss, 0.3) == pytest.approx(
            quadrature_variance(ss, 0.3 + np.pi), abs=1e-12)


class TestMomentReport:
    def test_serializable(self, fig2_bundle):
        liouv, ss = fig2_bundle.liouv, fig2_bundle.ss
        d = moment_report(ss, liouv).to_dict()
        assert set(d) >= {"current_e", "current_b", "current_in", "mean_n",
                          "mean_n2", "fano_q", "quad_min", "quad_phi_star"}
        assert d["current_e"] == pytest.approx(d["current_in"], abs=1e-10)
