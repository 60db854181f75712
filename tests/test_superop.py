from dataclasses import MISSING, fields

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from scipy.optimize import linear_sum_assignment

from dqdnoise.checks import _preset_point
from dqdnoise.errors import MethodUnavailable
from dqdnoise.noise import noise_eigen_expansion
from dqdnoise.model import ModelParams, build_hamiltonian, build_jc_hamiltonian, build_operators
from dqdnoise.steady import solve_steady_state
from dqdnoise.superop import (
    GeneratorPlan,
    Superoperator,
    assemble_liouvillian,
    build_liouvillian,
    charge_sector,
    counting_liouvillian,
    devectorize,
    generator_plan,
    hermitian_basis,
    kept_eig,
    real_kept_block,
    sandwich,
    sector_leak,
    spectrum,
    spre,
    spost,
    thermal_dissipator,
    thermal_occupation,
    trace_defect,
    trace_replaced_system,
    trace_vector,
    vectorize,
)
from dqdnoise.sweep import PRESET_NAMES


def random_hermitian(rng, d):
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (x + x.conj().T)


def leak(liouv, labels):
    """sector_leak over the total and every channel part of ``liouv``."""
    return sector_leak([liouv.matrix, *(ch.part for ch in liouv.channels.values())], labels)


def assert_same_blocks(liouv, ref):
    """The two generators' blocks hold the same vec indices, each kept block
    with vec index 0 last."""
    assert all(np.array_equal(np.sort(a), np.sort(b)) for a, b in zip(liouv.blocks, ref.blocks))
    assert liouv.blocks[0][-1] == ref.blocks[0][-1] == 0


def in_order_of(ref, block):
    """``ref``'s steady system with its rows and columns in the order of the
    vec indices ``block``, which hold those of ``ref.blocks[0]``."""
    pos = np.full(ref.dim_rho**2, -1)
    pos[ref.blocks[0]] = np.arange(ref.blocks[0].size)
    return ref.system[pos[block]][:, pos[block]]


def random_density(rng, d):
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = x @ x.conj().T
    return rho / np.trace(rho)


class TestVectorization:
    def test_identity_column_stacking(self):
        v = vectorize(np.eye(3))
        assert np.array_equal(np.nonzero(v)[0], [0, 4, 8])

    def test_round_trip_exact(self, rng):
        rho = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        assert np.array_equal(devectorize(vectorize(rho)), rho)

    def test_sandwich_identity(self, rng):
        for _ in range(5):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            rho = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            lhs = vectorize(a @ rho @ b)
            rhs = sandwich(a, b) @ vectorize(rho)
            assert np.allclose(lhs, rhs, atol=1e-14)

    def test_spre_spost(self, rng):
        a = rng.standard_normal((4, 4))
        rho = rng.standard_normal((4, 4))
        assert np.allclose(spre(a) @ vectorize(rho), vectorize(a @ rho))
        assert np.allclose(spost(a) @ vectorize(rho), vectorize(rho @ a))

    def test_dimension_errors(self):
        with pytest.raises(ValueError):
            vectorize(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            devectorize(np.zeros(5))


class TestThermalOccupation:
    @pytest.mark.parametrize("t,expected", [
        (0.0, 0.0),
        (1.0, 0.5819767068693265),
        (2.0, 1.5414940825367982),
    ])
    def test_reference_values(self, t, expected):
        assert thermal_occupation(1.0, t) == pytest.approx(expected, abs=1e-12)

    def test_zero_temperature_exact(self):
        assert thermal_occupation(1.0, 0.0) == 0.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            thermal_occupation(0.0, 1.0)
        with pytest.raises(ValueError):
            thermal_occupation(1.0, -1.0)


class TestBuildLiouvillian:
    def test_dimension(self):
        p = ModelParams(n_fock=2)
        liouv = build_liouvillian(build_hamiltonian(p), p)
        assert liouv.matrix.shape == (81, 81)

    def test_trace_preservation(self, rng):
        for _ in range(4):
            eps, d, g = rng.uniform(-1, 1, 3)
            t = float(rng.uniform(0, 2))
            p = ModelParams(epsilon=eps, delta=d, g=g, temperature=t, n_fock=4)
            liouv = build_liouvillian(build_hamiltonian(p), p)
            assert trace_defect(liouv) <= 1e-10

    def test_channel_tags_and_counting_flags(self, fig2_bundle):
        liouv = fig2_bundle.liouv
        assert set(liouv.channels) == {"in", "e", "b", "b_abs"}
        assert liouv.channels["e"].counted and liouv.channels["b"].counted
        assert not liouv.channels["in"].counted and not liouv.channels["b_abs"].counted

    def test_absorption_channel_vanishes_at_zero_temperature(self, fig2_bundle):
        liouv = fig2_bundle.liouv
        assert abs(liouv.channels["b_abs"].part).max() == 0.0

    def test_rejects_non_hermitian(self):
        p = ModelParams(n_fock=2)
        h = np.zeros((9, 9), dtype=complex)
        h[0, 1] = 1.0
        with pytest.raises(ValueError):
            build_liouvillian(h, p)

    def test_rejects_dimension_mismatch(self):
        p = ModelParams(n_fock=3)
        h = np.zeros((9, 9), dtype=complex)
        with pytest.raises(ValueError):
            build_liouvillian(h, p)

    def test_channels_completely_positive(self, rng):
        # each sandwich maps positive matrices to positive-semidefinite ones
        p = ModelParams(delta=0.5, g=0.3, temperature=1.0, n_fock=3)
        liouv = build_liouvillian(build_hamiltonian(p), p)
        rho = random_density(rng, liouv.dim_rho)
        for ch in liouv.channels.values():
            out = devectorize(ch.part @ vectorize(rho))
            assert np.max(np.abs(out - out.conj().T)) < 1e-12
            assert np.linalg.eigvalsh(out).min() > -1e-12

    def test_hermiticity_and_trace_preserved_by_action(self, rng, fig2_bundle):
        liouv = fig2_bundle.liouv
        for _ in range(5):
            rho = random_hermitian(rng, liouv.dim_rho)
            lrho = devectorize(liouv.matrix @ vectorize(rho))
            assert np.max(np.abs(lrho - lrho.conj().T)) <= 1e-10
            assert abs(np.trace(lrho)) <= 1e-10

    def test_channel_completeness_bitwise(self, fig2_bundle):
        liouv = fig2_bundle.liouv
        total = liouv.base
        for ch in liouv.channels.values():
            total = total + ch.part
        assert abs(liouv.matrix - total.tocsr()).max() == 0.0


class TestNoJumpAssembly:
    """The no-jump form base = -i(H_eff . - . H_eff^dag) against the
    commutator plus anticommutator-halves form of the same generator."""

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_matches_commutator_reference(self, name):
        params, ham = _preset_point(name)
        h = (build_hamiltonian if ham == "full" else build_jc_hamiltonian)(params)
        liouv = build_liouvillian(h, params)
        ops = build_operators(params.space())
        n_bar = thermal_occupation(params.omega_b, params.temperature)
        jumps = {"in": (params.gamma_L, ops.s_L.conj().T), "e": (params.gamma_R, ops.s_R),
                 "b": (params.gamma_b * (1.0 + n_bar), ops.a),
                 "b_abs": (params.gamma_b * n_bar, ops.adag)}
        ref = -1j * (spre(h) - spost(h))
        for cid, (rate, c) in jumps.items():
            cdc = c.conj().T @ c
            ref = ref + (-0.5 * rate) * (spre(cdc) + spost(cdc))
            part = (rate * sandwich(c, c.conj().T)).tocsr()
            got = liouv.channels[cid].part
            assert np.array_equal(got.indptr, part.indptr)
            assert np.array_equal(got.indices, part.indices)
            assert np.array_equal(got.data, part.data)  # bit-identical
            ref = ref + part
        ref = ref.tocsr()
        assert (abs(liouv.channels["b_abs"].part).max() > 0) == (params.temperature > 0)
        m = liouv.matrix
        assert abs(m - ref).max() <= 1e-15 * abs(m).max()
        ref.sort_indices()
        assert np.array_equal(m.indptr, ref.indptr) and np.array_equal(m.indices, ref.indices)

    def test_one_kron_per_channel_plus_two(self, fig2_params, monkeypatch):
        calls = []
        kron = scipy.sparse.kron
        monkeypatch.setattr(scipy.sparse, "kron", lambda *a, **k: calls.append(1) or kron(*a, **k))
        build_liouvillian(build_jc_hamiltonian(fig2_params), fig2_params)
        assert len(calls) == 2 + 4


class TestGeneratorPlan:
    """The plan's generators against kron assembly (``build_liouvillian``)."""

    POINTS = [_preset_point(name) for name in PRESET_NAMES] + [
        (ModelParams(epsilon=0.5, delta=0.1, g=0.0, gamma_L=0.1, gamma_R=0.001,
                     gamma_b=0.01, temperature=0.0, n_fock=8), "full")]

    @pytest.mark.parametrize("params, ham", POINTS, ids=[*PRESET_NAMES, "g0-T0"])
    def test_matches_kron_assembly(self, params, ham):
        build = build_jc_hamiltonian if ham == "jc" else build_hamiltonian
        ref = build_liouvillian(build(params), params)
        plan = generator_plan(params.n_fock, ham)
        liouv = plan.generator(params)
        assert liouv.blocks is plan.blocks
        # the same H_eff and additions as kron assembly: equal values, not only close ones
        assert abs(liouv.matrix - ref.matrix).max() == 0.0
        assert abs(liouv.base - ref.base).max() == 0.0
        assert list(liouv.channels) == list(ref.channels)
        for cid, ch in liouv.channels.items():
            part = ref.channels[cid].part
            assert ch.counted == ref.channels[cid].counted
            assert np.array_equal(ch.part.indptr, part.indptr)
            assert np.array_equal(ch.part.indices, part.indices)
            assert np.array_equal(ch.part.data, part.data)  # bit-identical
        total = liouv.base
        for ch in liouv.channels.values():
            total = total + ch.part
        assert abs(liouv.matrix - total).max() == 0.0
        assert len(ref.blocks) == 3
        assert_same_blocks(liouv, ref)
        # the gathered steady system: L on the kept block in its order, the row of
        # vec index 0, the last, the trace row
        block, system = liouv.blocks[0], liouv.system
        on_block = liouv.matrix[block][:, block].tocsr()
        trace_row = scipy.sparse.csr_matrix(trace_vector(params.space().dim)[block])
        assert abs(system - scipy.sparse.vstack([on_block[:-1], trace_row])).max() == 0.0
        assert abs(system - in_order_of(ref, block)).max() == 0.0
        assert abs(ref.system - trace_replaced_system(ref.matrix, ref.blocks[0])).max() == 0.0

    def test_both_builders_fill_every_field(self, fig2_params):
        """The total's entries, blocks, L on the kept block, steady system and
        the kept block's trace row and transpose partners are set by the
        builder, not on first use: only the kept block's eigendecomposition memo
        has a default. The D^2 x D^2 total is formed from its entries on use."""
        assert [f.name for f in fields(Superoperator)
                if f.default is not MISSING] == ["_kept_eig"]
        ref = build_liouvillian(build_jc_hamiltonian(fig2_params), fig2_params)
        liouv = GeneratorPlan(fig2_params.n_fock, "jc").generator(fig2_params)
        for g in (ref, liouv):
            assert isinstance(g.matrix, scipy.sparse.csr_matrix)
            assert isinstance(g.kept, scipy.sparse.csc_matrix)
            assert isinstance(g.system, scipy.sparse.csc_matrix)
            assert len(g.blocks) == 3
            kept, d = g.blocks[0], g.dim_rho
            assert abs(g.kept - g.matrix[kept][:, kept]).max() == 0.0
            assert np.array_equal(g.trace, trace_vector(d)[kept])
            assert np.array_equal(kept[g.partner], kept % d * d + kept // d)
            for ch in g.channels.values():
                assert abs(ch.kept - ch.unit[kept][:, kept]).max() == 0.0
                assert np.array_equal(ch.row, g.trace @ ch.kept)
        assert abs(liouv.matrix - ref.matrix).max() == 0.0
        assert_same_blocks(liouv, ref)
        assert abs(liouv.system - in_order_of(ref, liouv.blocks[0])).max() == 0.0

    @pytest.mark.parametrize("g", [0.0, 0.4])
    def test_both_builders_order_the_kept_block(self, g):
        """Each builder orders the charge sector from its own pattern, vec index 0
        last. Kron assembly's pattern loses the g entries at g = 0, so only
        there may its order differ from the plan's."""
        params = ModelParams(epsilon=2.0, delta=0.1, g=g, gamma_L=0.1, gamma_R=0.001,
                             gamma_b=0.01, temperature=0.0, n_fock=8)
        plan = GeneratorPlan(params.n_fock).generator(params)
        ref = build_liouvillian(build_hamiltonian(params), params)
        for liouv in (plan, ref):
            kept = liouv.blocks[0]
            assert np.array_equal(np.sort(kept), np.flatnonzero(charge_sector(liouv.dim_rho)))
            assert kept[-1] == 0
        if g:
            assert np.array_equal(plan.blocks[0], ref.blocks[0])

    def test_rejects_other_cutoff_and_unknown_hamiltonian(self):
        with pytest.raises(ValueError, match="n_fock"):
            GeneratorPlan(3).generator(ModelParams(n_fock=4))
        with pytest.raises(ValueError, match="hamiltonian"):
            GeneratorPlan(3, "rwa")


class TestThermalGrouping:
    def test_printed_equals_lindblad_plus_identity_piece(self):
        """The literal thermal lines exceed the Lindblad grouping by
        gamma_b*n_bar/2 {a a^dag - a^dag a, rho}; in the truncated space
        that commutator is 1 - (N+1)|N><N|."""
        nf = 5
        a_f = np.diag(np.sqrt(np.arange(1, nf + 1)), k=1).astype(complex)
        gamma_b, n_bar = 0.05, 0.7
        printed = thermal_dissipator(a_f, gamma_b, n_bar, grouping="printed")
        lindblad = thermal_dissipator(a_f, gamma_b, n_bar, grouping="lindblad")
        k = a_f @ a_f.conj().T - a_f.conj().T @ a_f
        expected = 0.5 * gamma_b * n_bar * (spre(k) + spost(k))
        diff = (printed - lindblad) - expected
        assert abs(diff).max() < 1e-14

    def test_printed_grouping_leaks_trace(self):
        nf = 5
        a_f = np.diag(np.sqrt(np.arange(1, nf + 1)), k=1).astype(complex)
        printed = thermal_dissipator(a_f, 0.05, 0.7, grouping="printed")
        tr = trace_vector(nf + 1)
        # trace derivative of the ground state: gamma_b*n_bar*(1 - 0)
        rho0 = np.zeros((nf + 1, nf + 1), dtype=complex)
        rho0[0, 0] = 1.0
        leak = (tr @ (printed @ vectorize(rho0))).real
        assert leak == pytest.approx(0.05 * 0.7, abs=1e-14)

    def test_groupings_agree_at_zero_occupation(self):
        a_f = np.diag(np.sqrt(np.arange(1, 5)), k=1).astype(complex)
        printed = thermal_dissipator(a_f, 0.03, 0.0, grouping="printed")
        lindblad = thermal_dissipator(a_f, 0.03, 0.0, grouping="lindblad")
        assert abs(printed - lindblad).max() < 1e-16

    def test_unknown_grouping(self):
        with pytest.raises(ValueError):
            thermal_dissipator(np.zeros((2, 2)), 0.1, 0.0, grouping="other")


@pytest.fixture()
def counted(fig2_bundle, random_lindbladian):
    """(generator, steady state) of fig2, whose kept block is the charge sector,
    and of the generic generator, whose kept block is the whole space."""
    return [(fig2_bundle.liouv, fig2_bundle.ss),
            (random_lindbladian, solve_steady_state(random_lindbladian))]


class TestCounting:
    def test_unit_multipliers_reproduce_generator(self, counted):
        # M(1, ..., 1) is L on the kept block, in block order
        for liouv, _ in counted:
            m = counting_liouvillian(liouv, dict.fromkeys(
                [cid for cid, ch in liouv.channels.items() if ch.counted], 1.0))
            assert isinstance(m, scipy.sparse.csc_matrix)
            assert m.shape == (liouv.blocks[0].size,) * 2
            assert abs(m - liouv.kept).max() == 0.0

    def test_unknown_channel_rejected(self, fig2_bundle):
        liouv = fig2_bundle.liouv
        with pytest.raises(KeyError):
            counting_liouvillian(liouv, {"nope": 0.5})
        with pytest.raises(KeyError):
            counting_liouvillian(liouv, {"in": 0.5})  # not a counted channel

    def test_blocked_channel_leaks_counted_flux(self, counted):
        # with s_e = 0 the trace decays at the counted emission rate
        for liouv, ss in counted:
            m = counting_liouvillian(liouv, {"e": 0.0})
            leak = (liouv.trace @ (m @ ss.rho_kept)).real
            assert ss.fluxes["e"] > 0.0
            assert leak == pytest.approx(-ss.fluxes["e"], abs=1e-14)

    def test_linearity_in_multiplier(self, counted):
        h = 0.3
        for liouv, _ in counted:
            second = (counting_liouvillian(liouv, {"e": 1 + h})
                      + counting_liouvillian(liouv, {"e": 1 - h})
                      - 2 * liouv.kept)
            scale = abs(liouv.kept).max()
            assert abs(second).max() <= 1e-14 * scale


class TestSpectrum:
    def test_unique_stationary_and_half_plane(self, fig2_bundle):
        liouv = fig2_bundle.liouv
        spec = spectrum(liouv)
        assert spec.n_stationary == 1
        assert spec.alphas.real.max() <= 1e-10

    def test_biorthogonality(self, fig2_bundle, monkeypatch):
        """The eigen method inverts one basis per sector block, each within the gate."""
        pairs = []
        inv = scipy.linalg.inv

        def recording(a, *args, **kwargs):
            pairs.append((a, inv(a, *args, **kwargs)))
            return pairs[-1][1]

        monkeypatch.setattr(scipy.linalg, "inv", recording)
        liouv = fig2_bundle.liouv
        noise_eigen_expansion(liouv, liouv.channel("e"), 0.5)
        assert [v.shape[0] for v, _ in pairs] == [b.size for b in liouv.blocks]
        for v, vinv in pairs:
            assert np.max(np.abs(vinv @ v - np.eye(v.shape[0]))) <= 1e-8

    def test_conjugate_pair_symmetry(self, fig2_bundle):
        liouv = fig2_bundle.liouv
        alphas = spectrum(liouv).alphas
        for a in alphas:
            if abs(a.imag) > 1e-12:
                assert np.min(np.abs(alphas - np.conj(a))) < 1e-10

    def test_closed_qubit_rotation_frequencies(self):
        # leads off, only resonator damping: +-2 Delta survive as pure rotation
        p = ModelParams(delta=0.5, g=0.0, gamma_L=0.0, gamma_R=0.0,
                        gamma_b=0.05, n_fock=2)
        liouv = build_liouvillian(build_hamiltonian(p), p)
        alphas = spectrum(liouv).alphas
        for target in (1j, -1j):
            assert np.min(np.abs(alphas - target)) < 1e-8

    def test_slowest_decay_rate(self, fig2_bundle):
        liouv = fig2_bundle.liouv
        rate = spectrum(liouv).slowest_decay_rate()
        assert 0 < rate < 0.05

    def test_slowest_decay_rate_takes_eigenvalues_only(self, fig2_params, monkeypatch):
        """``spectrum`` computes no eigenvector and inverts nothing, and its rate
        matches the eigenvalues of the whole generator."""
        liouv = build_liouvillian(build_hamiltonian(fig2_params), fig2_params)
        lam = np.linalg.eigvals(liouv.matrix.toarray())
        expected = float((-lam.real[np.abs(lam) > 1e-8]).min())

        def no_eigenvectors(*args, **kwargs):
            raise AssertionError("eigenvectors computed")

        monkeypatch.setattr(scipy.linalg, "eig", no_eigenvectors)
        monkeypatch.setattr(scipy.linalg, "inv", no_eigenvectors)
        spec = spectrum(liouv)
        assert spec.n_stationary == 1
        assert spec.slowest_decay_rate() == pytest.approx(expected, rel=1e-10)
        assert liouv._kept_eig is None

    @staticmethod
    def _patch_eig_basis(monkeypatch, basis):
        """``scipy.linalg.eig`` with ``basis`` applied to the eigenvectors it returns."""
        eig = scipy.linalg.eig

        def patched(a, *args, **kwargs):
            lam, v = eig(a, *args, **kwargs)
            return lam, basis(v)

        monkeypatch.setattr(scipy.linalg, "eig", patched)

    def test_singular_basis_is_unavailable(self, fig2_params, monkeypatch):
        liouv = build_liouvillian(build_hamiltonian(fig2_params), fig2_params)
        self._patch_eig_basis(monkeypatch, lambda v: np.column_stack([v[:, :-1], 0 * v[:, 0]]))
        with pytest.raises(MethodUnavailable, match="eigenvector basis is singular"):
            noise_eigen_expansion(liouv, liouv.channel("e"), 0.5)

    @pytest.mark.filterwarnings("ignore:An ill-conditioned matrix")
    def test_nearly_parallel_basis_fails_biorthogonality(self, fig2_params, monkeypatch):
        liouv = build_liouvillian(build_hamiltonian(fig2_params), fig2_params)
        self._patch_eig_basis(monkeypatch, lambda v: np.column_stack(
            [v[:, :-1], v[:, 0] + 1e-14 * v[:, -1]]))
        with pytest.raises(MethodUnavailable, match="failed biorthogonality check"):
            noise_eigen_expansion(liouv, liouv.channel("e"), 0.5)


class TestChargeSector:
    @pytest.mark.parametrize("build,temperature", [
        (build_hamiltonian, 0.0), (build_hamiltonian, 1.0), (build_jc_hamiltonian, 0.0)])
    def test_transport_generator_is_closed(self, build, temperature):
        p = ModelParams(delta=0.5, g=0.3, epsilon=0.2, temperature=temperature, n_fock=5)
        liouv = build_liouvillian(build(p), p)
        mask = charge_sector(liouv.dim_rho)
        assert mask.sum() == 5 * (p.n_fock + 1) ** 2  # 5/9 of D^2
        assert leak(liouv, mask) == 0

    def test_steady_state_lives_in_kept_block(self, fig2_bundle):
        kept = devectorize(charge_sector(fig2_bundle.liouv.dim_rho))
        assert not np.any(fig2_bundle.ss.rho_ss[~kept])

    def test_coupling_empty_and_occupied_leaks(self):
        h = np.zeros((3, 3), dtype=complex)
        h[0, 1] = h[1, 0] = 0.3
        liouv = assemble_liouvillian(h, [])
        assert leak(liouv, charge_sector(3)) > 0
        [block] = liouv.blocks
        assert block.size == 9

    def test_not_a_dot_generator(self):
        assert charge_sector(2) is None

    def test_three_blocks_partition_the_vec_indices(self, fig2_bundle):
        blocks = fig2_bundle.liouv.blocks
        d2 = fig2_bundle.liouv.dim_rho**2
        assert [b.size * 9 for b in blocks] == [5 * d2, 2 * d2, 2 * d2]
        assert np.array_equal(np.sort(blocks[0]),
                              np.flatnonzero(charge_sector(fig2_bundle.liouv.dim_rho)))
        assert np.array_equal(np.sort(np.concatenate(blocks)), np.arange(d2))

    @pytest.mark.parametrize("temperature", [0.0, 1.0])
    @pytest.mark.parametrize("ham", ["jc", "full"])
    @pytest.mark.parametrize("builder", ["plan", "kron"])
    def test_coherence_halves_are_mirrored(self, builder, ham, temperature):
        """The (0, X) half lists the transposes of the sorted (X, 0) half's vec
        indices, element for element, so L(rho^dag) = L(rho)^dag makes the dense
        halves exact conjugates. Both list the empty-dot Fock index outermost; at
        T = 0 only a rho a^dag acts across it, lowering it, so each half is block
        upper-triangular in it, and at T > 0 a^dag rho a fills the blocks below."""
        p = ModelParams(delta=0.5, g=0.3, epsilon=0.2, temperature=temperature, n_fock=4)
        build = build_jc_hamiltonian if ham == "jc" else build_hamiltonian
        liouv = (generator_plan(p.n_fock, ham).generator(p) if builder == "plan"
                 else build_liouvillian(build(p), p))
        d = liouv.dim_rho
        zero_x, x_zero = liouv.blocks[1:]
        assert np.array_equal(x_zero, np.sort(x_zero))
        assert np.array_equal(zero_x, x_zero % d * d + x_zero // d)
        halves = [liouv.matrix[idx][:, idx].toarray() for idx in (zero_x, x_zero)]
        assert np.array_equal(halves[0], halves[1].conj())
        fock = x_zero // d  # rho[i, j] of the (X, 0) half: j is the empty dot's Fock state
        assert fock.max() == p.n_fock
        below = fock[:, None] > fock[None, :]
        for half in halves:
            assert (np.count_nonzero(half[below]) == 0) == (temperature == 0.0)

    def test_not_dot_times_fock_is_one_block(self):
        liouv = assemble_liouvillian(np.diag([0.0, 1.0]).astype(complex),
                                     [("e", 0.1, np.array([[0, 1], [0, 0]], complex), True)])
        assert liouv.dim_rho % 3 != 0
        [block] = liouv.blocks
        assert np.array_equal(np.sort(block), np.arange(4)) and block[-1] == 0
        assert spectrum(liouv).alphas.size == 4

    @pytest.mark.parametrize("build,temperature,n_fock", [
        (build_jc_hamiltonian, 0.0, 6), (build_hamiltonian, 1.0, 4)],
        ids=["fig2-jc", "full-T1"])
    def test_block_spectrum_is_the_whole_spectrum(self, build, temperature, n_fock):
        p = ModelParams(delta=0.5, g=0.2, epsilon=0.1, temperature=temperature, n_fock=n_fock)
        liouv = build_liouvillian(build(p), p)
        blocks = spectrum(liouv).alphas
        whole = scipy.linalg.eigvals(liouv.matrix.toarray())
        dist = np.abs(blocks[:, None] - whole[None, :])
        rows, cols = linear_sum_assignment(dist)  # multiset match
        assert blocks.size == whole.size == liouv.dim_rho**2
        assert np.max(dist[rows, cols]) <= 1e-10


def leaking_dot():
    """A 3-level dot whose Hamiltonian couples empty and occupied: one whole-space block."""
    h = np.zeros((3, 3), dtype=complex)
    h[0, 1] = h[1, 0] = 0.3
    h[1, 2] = h[2, 1] = 0.5
    ket = np.eye(3, dtype=complex)
    return assemble_liouvillian(h, [("in", 0.1, np.outer(ket[1], ket[0]), False),
                                    ("e", 0.05, np.outer(ket[0], ket[2]), True)])


KEPT_MAKES = ["fig2", "full-T1", "leaking_dot", "random"]


@pytest.fixture()
def kept(fig2_bundle, random_lindbladian):
    """The generator named by one of KEPT_MAKES: two dot (x) Fock generators with
    a reduced kept block, two solved whole."""
    def make(name):
        if name == "fig2":
            return fig2_bundle.liouv
        if name == "full-T1":
            p = ModelParams(delta=0.5, g=0.3, epsilon=0.2, temperature=1.0, n_fock=4)
            return build_liouvillian(build_hamiltonian(p), p)
        return leaking_dot() if name == "leaking_dot" else random_lindbladian
    return make


class TestHermitianBasis:
    @pytest.mark.parametrize("make", KEPT_MAKES)
    def test_unitary_with_two_entries_per_column(self, kept, make):
        liouv = kept(make)
        block = liouv.blocks[0]
        assert (block.size < liouv.dim_rho**2) == (make in ("fig2", "full-T1"))
        u = hermitian_basis(liouv.dim_rho, block)
        assert u.shape == (block.size,) * 2 and np.all(np.diff(u.indptr) <= 2)
        assert np.max(np.abs((u.conj().T @ u).toarray() - np.eye(block.size))) <= 1e-15

    @pytest.mark.parametrize("make", KEPT_MAKES)
    def test_kept_block_is_real_in_the_basis(self, kept, make):
        liouv = kept(make)
        block = liouv.blocks[0]
        l_blk = liouv.matrix[block][:, block]
        u = hermitian_basis(liouv.dim_rho, block)
        assert abs((u.conj().T @ l_blk @ u).imag).max() <= 1e-14 * abs(l_blk).max()

    @pytest.mark.parametrize("make", KEPT_MAKES)
    def test_real_kept_block_reconstructs_the_block(self, kept, make):
        liouv = kept(make)
        block = liouv.blocks[0]
        l_blk = liouv.matrix[block][:, block].toarray()
        u, a = real_kept_block(liouv)
        assert a.dtype == np.float64 and a.flags.f_contiguous
        assert np.max(np.abs(u @ (u.conj() @ a.T).T - l_blk)) <= 1e-14 * np.max(np.abs(l_blk))

    def test_columns_are_hermitian_matrices(self, fig2_bundle):
        liouv = fig2_bundle.liouv
        u = hermitian_basis(liouv.dim_rho, liouv.blocks[0]).toarray()
        full = np.zeros((liouv.dim_rho**2, u.shape[1]), dtype=complex)
        full[liouv.blocks[0]] = u
        for col in full.T:
            m = devectorize(col)
            assert np.array_equal(m, m.conj().T)

    def test_block_not_closed_under_transposition(self, fig2_bundle):
        with pytest.raises(ValueError, match="transposition"):
            hermitian_basis(fig2_bundle.liouv.dim_rho, fig2_bundle.liouv.blocks[1])

    @pytest.mark.parametrize("make", KEPT_MAKES)
    def test_kept_eigenvalues_match_complex_eigvals(self, kept, make):
        liouv = kept(make)
        block = liouv.blocks[0]
        got = spectrum(liouv).alphas[block]
        ref = scipy.linalg.eigvals(liouv.matrix[block][:, block].toarray())
        dist = np.abs(got[:, None] - ref[None, :])
        assert max(dist.min(axis=0).max(), dist.min(axis=1).max()) <= 1e-12

    @pytest.mark.parametrize("make", KEPT_MAKES)
    def test_kept_eigenvectors_reconstruct_the_block(self, kept, make):
        liouv = kept(make)
        u, lam, v = kept_eig(liouv)
        idx = liouv.blocks[0]
        l_blk = liouv.matrix[idx][:, idx].toarray()
        got = ((u @ v) * lam) @ (scipy.linalg.inv(v) @ u.conj().T)
        assert np.max(np.abs(got - l_blk)) <= 1e-10 * np.max(np.abs(l_blk))


class TestAssembleValidation:
    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            assemble_liouvillian(np.zeros((2, 2)), [("x", -1.0, np.eye(2), False)])

    def test_duplicate_channel_rejected(self):
        c = np.eye(2, dtype=complex)
        with pytest.raises(ValueError):
            assemble_liouvillian(np.zeros((2, 2)),
                                 [("x", 0.1, c, False), ("x", 0.2, c, False)])
