import math

import numpy as np
import pytest

from dqdnoise.model import (
    DOT_L,
    DOT_R,
    HAMILTONIANS,
    HERMITICITY_TOL,
    HilbertSpace,
    ModelParams,
    build_hamiltonian,
    build_jc_hamiltonian,
    build_operators,
    build_spin_hamiltonian,
    coherent_amplitudes,
    energy_spectrum,
    equal_weight_amplitudes,
    hamiltonian_terms,
    jc_multiplet_energies,
    p_left_analytic,
    resonance_branches,
    spin_estimates,
    thermal_state,
)


def charge_sector_eigenvalues(h, space):
    """Eigenvalues of a Hamiltonian restricted to the L/R charge sector."""
    nf = space.fock_dim
    idx = np.arange(nf, 3 * nf)
    return np.linalg.eigvalsh(h[np.ix_(idx, idx)])


class TestParams:
    def test_defaults_valid(self):
        p = ModelParams()
        assert p.omega_b == 1.0 and p.n_fock >= 1

    @pytest.mark.parametrize("kw", [
        {"gamma_L": -0.1}, {"gamma_R": -1e-9}, {"gamma_b": -2.0},
        {"omega_b": 0.0}, {"temperature": -0.5}, {"n_fock": 0}, {"n_fock": 2.5},
    ])
    def test_invalid_rejected(self, kw):
        with pytest.raises(ValueError):
            ModelParams(**kw)

    def test_integral_float_n_fock_stored_as_int(self):
        p = ModelParams(n_fock=2.0)
        assert p.n_fock == 2 and type(p.n_fock) is int
        assert build_operators(p.space()).a.shape == (9, 9)


class TestHilbertSpace:
    def test_dimensions(self):
        space = HilbertSpace(n_fock=2)
        assert space.dim == 9
        assert space.fock_dim == 3

    def test_index_bijection(self):
        space = HilbertSpace(n_fock=3)
        seen = {space.index(d, n) for d in range(3) for n in range(4)}
        assert seen == set(range(space.dim))

    def test_index_bounds(self):
        space = HilbertSpace(n_fock=2)
        with pytest.raises(ValueError):
            space.index(3, 0)
        with pytest.raises(ValueError):
            space.index(0, 3)


class TestOperators:
    def test_ladder_entries(self):
        space = HilbertSpace(n_fock=2)
        ops = build_operators(space)
        assert ops.a.shape == (9, 9)
        for dot in range(3):
            for n in range(1, 3):
                i = space.index(dot, n - 1)
                j = space.index(dot, n)
                assert ops.a[i, j] == pytest.approx(math.sqrt(n))
        # exactly two distinct nonzero singular values per dot sector
        sv = np.unique(np.round(np.linalg.svd(ops.a, compute_uv=False), 12))
        assert np.allclose(np.sort(sv), [0.0, 1.0, math.sqrt(2)], atol=1e-12)

    def test_sz_squared_is_charge_projector(self):
        ops = build_operators(HilbertSpace(n_fock=2))
        assert np.allclose(ops.sz @ ops.sz, ops.pL + ops.pR)

    def test_truncated_commutator(self):
        space = HilbertSpace(n_fock=4)
        ops = build_operators(space)
        comm = ops.a @ ops.adag - ops.adag @ ops.a
        dev = comm - ops.identity
        # deviation confined to the top Fock block
        for dot in range(3):
            for n in range(space.n_fock):
                i = space.index(dot, n)
                assert abs(dev[i, i]) < 1e-14
            top = space.index(dot, space.n_fock)
            assert dev[top, top] == pytest.approx(-(space.n_fock + 1))

    def test_outputs_read_only(self):
        ops = build_operators(HilbertSpace(n_fock=1))
        with pytest.raises(ValueError):
            ops.a[0, 0] = 1.0


class TestHamiltonian:
    def test_decoupled_oscillator_diagonal(self):
        p = ModelParams(epsilon=0.0, delta=0.0, g=0.0, omega_b=1.0, n_fock=3)
        space = p.space()
        h = build_hamiltonian(p, space)
        expected = np.diag([n * 1.0 for _ in range(3) for n in range(4)])
        assert np.allclose(h, expected)

    def test_tunneling_matrix_elements(self):
        p = ModelParams(delta=0.5, n_fock=3)
        space = p.space()
        h = build_hamiltonian(p, space)
        for n in range(4):
            assert h[space.index(DOT_L, n), space.index(DOT_R, n)] == pytest.approx(0.5)

    def test_coupling_sign_structure(self):
        p = ModelParams(g=0.4, delta=0.0, n_fock=2)
        space = p.space()
        h = build_hamiltonian(p, space)
        assert h[space.index(DOT_L, 0), space.index(DOT_L, 1)] == pytest.approx(0.4)
        assert h[space.index(DOT_R, 0), space.index(DOT_R, 1)] == pytest.approx(-0.4)

    def test_empty_sector_free_oscillator(self):
        p = ModelParams(epsilon=0.3, delta=0.5, g=0.4, n_fock=3)
        space = p.space()
        h = build_hamiltonian(p, space)
        nf = space.fock_dim
        empty_block = h[:nf, :nf]
        assert np.allclose(empty_block, np.diag(np.arange(nf) * p.omega_b))
        assert np.allclose(h[:nf, nf:], 0.0)

    @pytest.mark.parametrize("builder", [build_hamiltonian, build_jc_hamiltonian])
    def test_hermiticity(self, builder, rng):
        for _ in range(5):
            eps, d, g = rng.uniform(-1, 1, 3)
            p = ModelParams(epsilon=eps, delta=d, g=g, n_fock=5)
            h = builder(p)
            assert np.max(np.abs(h - h.conj().T)) <= 1e-12


class TestHamiltonianTerms:
    BUILDERS = {"full": build_hamiltonian, "jc": build_jc_hamiltonian}

    @pytest.mark.parametrize("name", list(HAMILTONIANS))
    def test_terms_sum_to_builder(self, name, rng):
        eps, d, g = rng.uniform(-1, 1, 3)
        p = ModelParams(epsilon=eps, delta=d, g=g, omega_b=rng.uniform(0.5, 1.5), n_fock=4)
        ops = build_operators(p.space())
        terms = hamiltonian_terms(name, ops)
        for _, op in terms:
            assert np.max(np.abs(op - op.conj().T)) <= HERMITICITY_TOL
        h = sum(getattr(p, field) * op for field, op in terms)
        assert np.array_equal(h, self.BUILDERS[name](p, ops=ops))  # bit for bit

    def test_unknown_name_lists_known_ones(self):
        ops = build_operators(HilbertSpace(n_fock=2))
        with pytest.raises(ValueError, match=r"unknown hamiltonian 'rwa'; "
                                              r"expected one of \('full', 'jc'\)"):
            hamiltonian_terms("rwa", ops)


class TestJaynesCummings:
    def test_ground_state_energy(self):
        p = ModelParams(delta=0.5, g=0.2, n_fock=6)
        space = p.space()
        ops = build_operators(space)
        h = build_jc_hamiltonian(p, space, ops)
        # |0, 0_x> with 0_x the lower sigma_x eigenstate
        ket = np.zeros(space.dim, dtype=complex)
        ket[space.index(DOT_L, 0)] = 1 / math.sqrt(2)
        ket[space.index(DOT_R, 0)] = -1 / math.sqrt(2)
        assert np.allclose(h @ ket, -p.delta * ket, atol=1e-12)

    def test_lowest_doublet_on_resonance(self):
        p = ModelParams(delta=0.5, g=0.2, n_fock=6)
        vals = charge_sector_eigenvalues(build_jc_hamiltonian(p), p.space())
        # ground at -Delta, then the doublet 0.5 +- g
        assert vals[0] == pytest.approx(-0.5, abs=1e-12)
        assert vals[1] == pytest.approx(0.3, abs=1e-12)
        assert vals[2] == pytest.approx(0.7, abs=1e-12)

    def test_decoupled_limit_spectrum(self):
        p = ModelParams(delta=0.3, g=0.0, n_fock=4)
        vals = charge_sector_eigenvalues(build_jc_hamiltonian(p), p.space())
        expected = sorted(n * 1.0 + s * 0.3 for n in range(5) for s in (-1, 1))
        assert np.allclose(vals, expected, atol=1e-12)

    def test_multiplet_block_structure(self):
        # couplings only between |n,1_x> and |n+1,0_x|
        p = ModelParams(delta=0.5, g=0.3, n_fock=5)
        space = p.space()
        h = build_jc_hamiltonian(p)
        nf = space.fock_dim
        # transform charge sector to the sigma_x eigenbasis
        u_dot = np.array([[1, 0, 0],
                          [0, 1 / math.sqrt(2), 1 / math.sqrt(2)],
                          [0, -1 / math.sqrt(2), 1 / math.sqrt(2)]])
        u = np.kron(u_dot, np.eye(nf))
        hx = u.T @ h @ u  # basis order: empty, 0_x, 1_x
        for n in range(nf):
            for m in range(nf):
                lo = nf + n       # |n, 0_x>
                hi = 2 * nf + m   # |m, 1_x>
                val = abs(hx[lo, hi])
                if n == m + 1:
                    assert val == pytest.approx(p.g * math.sqrt(n), abs=1e-12)
                else:
                    assert val < 1e-12

    def test_matches_full_hamiltonian_at_zero_coupling(self):
        p = ModelParams(epsilon=0.0, delta=0.35, g=0.0, n_fock=5)
        v1 = np.linalg.eigvalsh(build_hamiltonian(p))
        v2 = np.linalg.eigvalsh(build_jc_hamiltonian(p))
        assert np.max(np.abs(v1 - v2)) <= 1e-10


class TestMultipletEnergies:
    def test_resonant_closed_form(self):
        p = ModelParams(delta=0.5, g=0.2)
        assert jc_multiplet_energies(p, 0) == pytest.approx((0.7, 0.3))

    def test_off_resonant_block(self):
        # 2x2 block with Omega = 0.4: 0.5 +- sqrt(0.20)/2
        p = ModelParams(delta=0.3, g=0.1)
        e_plus, e_minus = jc_multiplet_energies(p, 0)
        assert e_plus == pytest.approx(0.7236067977499790, abs=1e-12)
        assert e_minus == pytest.approx(0.2763932022500210, abs=1e-12)

    def test_zero_coupling(self):
        p = ModelParams(delta=0.3, g=0.0)
        assert jc_multiplet_energies(p, 0) == pytest.approx((0.7, 0.3))

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_matches_jc_spectrum(self, n):
        p = ModelParams(delta=0.5, g=0.2, n_fock=max(6, n + 3))
        vals = charge_sector_eigenvalues(build_jc_hamiltonian(p), p.space())
        e_plus, e_minus = jc_multiplet_energies(p, n)
        assert min(abs(vals - e_plus)) < 1e-10
        assert min(abs(vals - e_minus)) < 1e-10

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            jc_multiplet_energies(ModelParams(), -1)


class TestResonanceBranches:
    def test_resonant_values(self):
        assert resonance_branches(ModelParams(delta=0.5, g=0.4)) == \
            pytest.approx((1.4, 0.6, 1.0))

    def test_zero_coupling_degenerate(self):
        de = resonance_branches(ModelParams(delta=0.5, g=0.0))
        assert de == pytest.approx((1.0, 1.0, 1.0))

    def test_off_resonant_formula(self):
        de = resonance_branches(ModelParams(delta=0.3, g=0.1))
        assert de[0] == pytest.approx(1.0236067977499790, abs=1e-12)
        assert de[1] == pytest.approx(0.5763932022500210, abs=1e-12)
        assert de[2] == pytest.approx(0.6)

    def test_consistent_with_jc_gaps(self):
        p = ModelParams(delta=0.3, g=0.1, n_fock=6)
        vals = charge_sector_eigenvalues(build_jc_hamiltonian(p), p.space())
        de1, de2, _ = resonance_branches(p)
        gaps = np.abs(vals[1:3] - vals[0])
        assert sorted(gaps) == pytest.approx(sorted((de1, de2)), abs=1e-10)

    def test_exact_on_resonance_identity(self):
        for g in (0.1, 0.25, 0.4):
            de1, de2, de3 = resonance_branches(ModelParams(delta=0.5, g=g))
            assert (de1, de2, de3) == (1.0 + g, 1.0 - g, 1.0)


class TestSpinHamiltonian:
    def test_decoupled_spectrum(self):
        h = build_spin_hamiltonian(0.8, 1.0, 0.0, 4)
        expected = sorted(s * 0.4 + n for n in range(5) for s in (-1, 1))
        assert np.allclose(np.linalg.eigvalsh(h), expected, atol=1e-12)

    def test_avoided_crossing_gap(self):
        # degenerate perturbation theory at Sigma = omega_b: gap = 2 lambda
        lam = 0.01
        h = build_spin_hamiltonian(1.0, 1.0, lam, 8)
        vals = np.linalg.eigvalsh(h)
        crossing = vals[(vals > 0.3) & (vals < 0.7)]
        assert crossing.size == 2
        gap = crossing[1] - crossing[0]
        assert gap == pytest.approx(2 * lam, abs=lam**2 / 1.0 * 5)

    def test_coupling_sign_invariance(self):
        v1 = np.linalg.eigvalsh(build_spin_hamiltonian(0.7, 1.0, 0.2, 5))
        v2 = np.linalg.eigvalsh(build_spin_hamiltonian(0.7, 1.0, -0.2, 5))
        assert np.allclose(v1, v2, atol=1e-12)

    def test_rejects_empty_fock_space(self):
        with pytest.raises(ValueError):
            build_spin_hamiltonian(1.0, 1.0, 0.1, 0)


class TestEnergySpectrum:
    def test_sorted_with_gaps(self):
        h = np.diag([3.0, 1.0, 2.0])
        spec = energy_spectrum(h, pairs=((1, 0), (2, 0)))
        assert np.all(np.diff(spec.eigenvalues) >= 0)
        assert spec.gaps == pytest.approx((1.0, 2.0))


class TestCollapseTrace:
    def test_initial_value_is_one(self):
        p = ModelParams(delta=0.5, g=0.4)
        for c in (equal_weight_amplitudes(7), coherent_amplitudes(2.0, 30)):
            trace = p_left_analytic(c, p, np.array([0.0]))
            assert trace.p_left[0] == pytest.approx(1.0)

    def test_single_term_limit(self):
        p = ModelParams(delta=0.3, g=0.0)
        t = np.linspace(0, 20, 101)
        trace = p_left_analytic(np.array([1.0]), p, t)
        assert np.allclose(trace.p_left, np.cos(0.3 * t) ** 2, atol=1e-12)

    def test_bounded(self):
        p = ModelParams(delta=0.5, g=0.4)
        t = np.linspace(0, 300, 2000)
        trace = p_left_analytic(equal_weight_amplitudes(20), p, t)
        assert np.all(trace.p_left >= 0.0) and np.all(trace.p_left <= 1.0 + 1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            p_left_analytic(np.array([1.0, 0.5]), ModelParams(), np.array([0.0]))

    def test_presets_normalized(self):
        assert np.sum(equal_weight_amplitudes(13) ** 2) == pytest.approx(1.0)
        assert np.sum(np.abs(coherent_amplitudes(3.0, 40)) ** 2) == pytest.approx(1.0)

    def test_collapse_of_oscillations(self):
        # running maxima of |P_L - 1/2| decay before the partial revival
        p = ModelParams(delta=0.5, g=0.4)
        t = np.linspace(0, 200, 4000)
        trace = p_left_analytic(equal_weight_amplitudes(20), p, t)
        dev = np.abs(trace.p_left - 0.5)
        windows = dev.reshape(20, -1).max(axis=1)
        assert windows[0] > 0.45
        assert windows[10:].min() < 0.15
        assert windows[-5:].mean() < 0.4 * windows[:5].mean()

    def test_agrees_with_unitary_evolution(self):
        # broad equal-weight distribution: formula error bounded by 1/(2N)
        n_states = 600
        p = ModelParams(delta=0.5, g=0.4, n_fock=n_states + 5)
        space = p.space()
        h = build_jc_hamiltonian(p, space)
        c = equal_weight_amplitudes(n_states)
        # |L> = (|0_x> + |1_x>)/sqrt(2), so the stated superposition state
        # (sum_n C_n |n>) (x) (|0_x>+|1_x>)/sqrt(2) is the bare left-dot state
        psi0 = np.zeros(space.dim, dtype=complex)
        for n, cn in enumerate(c):
            psi0[space.index(DOT_L, n)] = cn
        vals, vecs = np.linalg.eigh(h)
        coef = vecs.conj().T @ psi0
        times = np.linspace(0.0, 50.0, 26)
        trace = p_left_analytic(c, p, times)
        nf = space.fock_dim
        left = slice(nf, 2 * nf)
        for k, t in enumerate(times):
            psi_t = vecs @ (np.exp(-1j * vals * t) * coef)
            p_left = float(np.sum(np.abs(psi_t[left]) ** 2))
            assert abs(p_left - trace.p_left[k]) < 1e-3

    def test_formula_deviation_scale_at_small_n(self):
        # at N = 20 the envelope approximation deviates at the 1/(2N) scale
        n_states = 20
        p = ModelParams(delta=0.5, g=0.4, n_fock=n_states + 5)
        space = p.space()
        h = build_jc_hamiltonian(p, space)
        c = equal_weight_amplitudes(n_states)
        psi0 = np.zeros(space.dim, dtype=complex)
        for n, cn in enumerate(c):
            psi0[space.index(DOT_L, n)] = cn
        vals, vecs = np.linalg.eigh(h)
        coef = vecs.conj().T @ psi0
        times = np.linspace(0.0, 50.0, 26)
        trace = p_left_analytic(c, p, times)
        nf = space.fock_dim
        left = slice(nf, 2 * nf)
        worst = 0.0
        for k, t in enumerate(times):
            psi_t = vecs @ (np.exp(-1j * vals * t) * coef)
            p_left = float(np.sum(np.abs(psi_t[left]) ** 2))
            worst = max(worst, abs(p_left - trace.p_left[k]))
        assert worst < 1.0 / (2 * n_states) + 1e-3
        assert worst > 1e-4  # genuinely an envelope approximation


class TestSpinEstimates:
    def test_reference_field(self):
        field, rabi = spin_estimates(0.16, 2e-5)
        assert field == pytest.approx(3.2e-6, rel=1e-12)
        assert abs(rabi - 100.0) / 100.0 < 0.3

    def test_linearity(self):
        f1, r1 = spin_estimates(0.16, 2e-5)
        f2, r2 = spin_estimates(0.16, 4e-5)
        assert f2 == pytest.approx(2 * f1)
        assert r2 == pytest.approx(2 * r1)

    def test_positive_inputs_required(self):
        with pytest.raises(ValueError):
            spin_estimates(-0.1, 1e-5)


class TestThermalState:
    def test_vacuum(self):
        rho = thermal_state(5, 0.0)
        assert rho[0, 0] == 1.0 and np.trace(rho) == pytest.approx(1.0)

    def test_boltzmann_ratios(self):
        n_bar = 0.5819767068693265  # T = omega_b
        rho = thermal_state(20, n_bar)
        p = np.diag(rho).real
        ratios = p[1:] / p[:-1]
        assert np.allclose(ratios, math.exp(-1.0), atol=1e-12)
        assert np.trace(rho) == pytest.approx(1.0)
