"""Acceptance gate: one test per exit criterion, each printed as a
PASS/FAIL line and asserted at its stated tolerance.

The spectroscopy criteria (1-4) run on the rotating-wave master equation,
which is the stated numerical model for those figures; zero-frequency and
squeezing criteria (5-7) run on the full coupling Hamiltonian. Method
cross-checks (8) run both, at documented reduced cutoffs for the hottest
parameter sets (the identities under test are cutoff independent).
"""

import numpy as np

from conftest import transport_bundle
from dqdnoise.checks import run_checks
from dqdnoise.model import ModelParams, resonance_branches
from dqdnoise.noise import (
    ResolventSolver,
    counting_fd_check,
    find_peaks_xy,
    macdonald_correlation_trace,
    macdonald_evaluate,
    pair_value,
)
from dqdnoise.steady import currents
from dqdnoise.superop import spectrum

FIG2 = dict(epsilon=0.0, omega_b=1.0, gamma_L=0.01, gamma_R=0.01,
            gamma_b=0.05, temperature=0.0)
FIG5 = dict(epsilon=0.0, omega_b=1.0, delta=0.1, gamma_L=0.1, gamma_R=0.001,
            gamma_b=0.01, temperature=0.0)


def announce(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


class FanoCurve:
    """Resolvent S_ii(w)/2I_i evaluator sharing one resolvent solver."""

    def __init__(self, params: ModelParams, hamiltonian: str = "jc",
                 pair=("e", "e")):
        _, self.liouv, self.ss = transport_bundle(params, hamiltonian)
        self.solver = ResolventSolver(self.liouv, self.ss)
        self.pair = pair
        self.flux = float(np.real(
            self.solver.tr @ (self.liouv.channel(pair[0]).part @ self.solver.rho_vec)))

    def value(self, omega: float) -> float:
        i, j = self.pair
        return pair_value(self.solver, self.liouv, i, j, omega, self.flux)

    def fano(self, omegas) -> np.ndarray:
        return np.array([self.value(w) for w in np.atleast_1d(omegas)]) / (2 * self.flux)


def above_floor_peaks(omegas, fano_values):
    return [(w, h) for w, h in find_peaks_xy(omegas, fano_values) if h > 1.0]


def nearest_peak_error(peaks, target, window=0.1):
    errs = [abs(w - target) for w, _ in peaks if abs(w - target) <= window]
    return min(errs) if errs else None


def test_criterion_1_resonance_triplet():
    """Peaks of S_ee/2I at {0.6, 1.0, 1.4} within 0.02 (g=0.4 preset)."""
    params = ModelParams(delta=0.5, g=0.4, n_fock=6, **FIG2)
    curve = FanoCurve(params)
    omegas = np.linspace(0.2, 1.8, 300)
    peaks = above_floor_peaks(omegas, curve.fano(omegas))
    errs = {t: nearest_peak_error(peaks, t) for t in (0.6, 1.0, 1.4)}
    ok = all(e is not None and e <= 0.02 for e in errs.values())
    announce(1, ok, f"peak position errors {errs} (peaks {peaks})")
    assert ok, (
        f"resonance triplet not reproduced within 0.02: errors {errs}; "
        "the exact resolvent spectrum displaces weak dispersive features "
        "by about one linewidth (see decisions ledger)"
    )


def test_criterion_2_branch_separation_scales_with_coupling():
    """Outer-branch separation equals 2g within 0.02 for g in {0.2, 0.4}."""
    results = {}
    for g in (0.2, 0.4):
        params = ModelParams(delta=0.5, g=g, n_fock=6, **FIG2)
        curve = FanoCurve(params)
        omegas = np.linspace(0.2, 1.8, 300)
        peaks = above_floor_peaks(omegas, curve.fano(omegas))
        lower = [w for w, _ in peaks if abs(w - (1.0 - g)) <= 0.1]
        upper = [w for w, _ in peaks if abs(w - (1.0 + g)) <= 0.1]
        assert lower and upper, f"missing outer branches at g={g}: {peaks}"
        sep = min(upper, key=lambda w: abs(w - (1.0 + g))) - \
            min(lower, key=lambda w: abs(w - (1.0 - g)))
        results[g] = abs(sep - 2 * g)
    ok = all(err <= 0.02 for err in results.values())
    announce(2, ok, f"separation errors vs 2g: {results}")
    assert ok, f"branch separation errors {results}"


def test_criterion_3_thermal_suppression_of_side_peaks():
    """Side-peak heights at 2 Delta +- g strictly decrease as T grows."""
    heights = {0.6: [], 1.4: []}
    for temperature in (0.0, 0.5, 1.0):
        params = ModelParams(delta=0.5, g=0.4, n_fock=15,
                             **{**FIG2, "temperature": temperature})
        curve = FanoCurve(params)
        for target in heights:
            window = np.linspace(target - 0.08, target + 0.08, 21)
            heights[target].append(float(curve.fano(window).max()))
    ok = all(h[0] > h[1] > h[2] for h in heights.values())
    announce(3, ok, f"side-peak heights vs T=(0,0.5,1): {heights}")
    assert ok, f"side-peak heights not strictly decreasing: {heights}"


def test_criterion_4_off_resonant_hyperbolae():
    """Upper/lower peak positions track the avoided-crossing branches."""
    tol = max(0.02, 0.01)  # max(0.02, Gamma_R)
    errors = {}
    gaps = {}
    for g in (0.1, 0.4):
        for delta in (0.3, 0.4, 0.5, 0.6, 0.7):
            params = ModelParams(delta=delta, g=g, n_fock=6, **FIG2)
            de_up, de_low, _ = resonance_branches(params)
            curve = FanoCurve(params)
            for label, target in (("up", de_up), ("low", de_low)):
                window = np.linspace(target - 0.12, target + 0.12, 61)
                peaks = find_peaks_xy(window, curve.fano(window))
                err = nearest_peak_error(peaks, target, window=0.12)
                errors[(g, delta, label)] = err
            if delta == 0.5:
                up = nearest_extracted(curve, de_up)
                low = nearest_extracted(curve, de_low)
                gaps[g] = up - low
    grows = gaps[0.4] > gaps[0.1]
    bad = {k: v for k, v in errors.items() if v is None or v > tol}
    ok = grows and not bad
    announce(4, ok, f"branch errors beyond {tol}: {bad}; gap(0.1)={gaps[0.1]:.3f} "
                    f"gap(0.4)={gaps[0.4]:.3f}")
    assert grows, f"avoided-crossing gap does not grow with g: {gaps}"
    assert not bad, (
        f"branch positions outside max(0.02, Gamma_R): {bad}; "
        "apex displacement of the weak dispersive features, see ledger"
    )


def nearest_extracted(curve: FanoCurve, target: float) -> float:
    window = np.linspace(target - 0.12, target + 0.12, 61)
    peaks = find_peaks_xy(window, curve.fano(window))
    if not peaks:
        return float(window[np.argmax(curve.fano(window))])
    return min((w for w, _ in peaks), key=lambda w: abs(w - target))


def test_criterion_5_zero_frequency_fano_structure():
    """Fig 5a/b: super-Poissonian at T=0, maxima shrinking with T, and the
    strong-coupling epsilon=0 point staying near Poissonian."""
    eps_grid = np.linspace(-2.0, 2.0, 41)
    maxima = []
    for temperature in (0.0, 0.5, 1.0, 1.5, 2.0):
        vals = []
        for eps in eps_grid:
            params = ModelParams(g=0.0008, n_fock=25,
                                 **{**FIG5, "epsilon": float(eps),
                                    "temperature": temperature})
            curve = FanoCurve(params, hamiltonian="full")
            vals.append(float(curve.fano(0.0)[0]))
        maxima.append(max(vals))
    strong = ModelParams(g=0.4, n_fock=8, **FIG5)
    strong_value = float(FanoCurve(strong, hamiltonian="full").fano(0.0)[0])

    super_poissonian = maxima[0] > 1.0
    monotone = all(maxima[k] > maxima[k + 1] for k in range(4))
    near_unity = 0.9 <= strong_value <= 1.1
    ok = super_poissonian and monotone and near_unity
    announce(5, ok, f"max over eps per T: {np.round(maxima, 4).tolist()}, "
                    f"g=0.4 eps=0 value {strong_value:.4f}")
    assert super_poissonian, f"no super-Poissonian point at T=0 (max {maxima[0]})"
    assert monotone, f"maxima not monotonically decreasing with T: {maxima}"
    assert near_unity, f"g=0.4, eps=0 value {strong_value} outside [0.9, 1.1]"


def test_criterion_6_cross_correlation_structure():
    """Fig 5c: S_eb(0) vanishes at g=0 and develops maxima at integer
    multiples of the mode frequency at strong coupling."""
    zero_vals = []
    for eps in (-1.0, 0.0, 0.7):
        params = ModelParams(g=0.0, n_fock=6, **{**FIG5, "epsilon": eps})
        _, liouv, ss = transport_bundle(params)
        solver = ResolventSolver(liouv, ss)
        flux = currents(ss, liouv).e
        zero_vals.append(abs(pair_value(solver, liouv, "e", "b", 0.0, flux)))
    decoupled_ok = max(zero_vals) <= 1e-10

    eps_grid = np.arange(0.7, 2.301, 0.02)
    vals = []
    for eps in eps_grid:
        params = ModelParams(g=0.4, n_fock=10, **{**FIG5, "epsilon": float(eps)})
        _, liouv, ss = transport_bundle(params)
        solver = ResolventSolver(liouv, ss)
        flux = currents(ss, liouv).e
        vals.append(pair_value(solver, liouv, "e", "b", 0.0, flux))
    peaks = find_peaks_xy(eps_grid, np.array(vals))
    errs = {k: nearest_peak_error(peaks, float(k), window=0.2) for k in (1, 2)}
    peaks_ok = all(e is not None and e <= 0.05 for e in errs.values())
    ok = decoupled_ok and peaks_ok
    announce(6, ok, f"g=0 |S_eb(0)| max {max(zero_vals):.2e}; "
                    f"maxima errors at eps=k*omega_b: {errs}")
    assert decoupled_ok, f"cross-correlation at g=0 not zero: {zero_vals}"
    assert peaks_ok, f"phonon-assisted maxima misplaced: {errs} (peaks {peaks})"


def test_criterion_7_squeezing_maps():
    """Fig 6: sub-Poissonian window in both measures, no quadrature
    squeezing anywhere, and zero cross-correlation at g=0 for all T."""
    from dqdnoise.steady import fano_number, min_quadrature_variance

    g_grid = np.linspace(0.0, 0.4, 17)
    quad_floor = 0.0
    squeezed_g = []
    cross_at_zero = []
    for temperature in (0.0, 0.5, 1.0):
        for g in g_grid:
            params = ModelParams(delta=0.5, g=float(g), n_fock=15,
                                 **{**FIG2, "temperature": temperature})
            _, liouv, ss = transport_bundle(params)
            qmin = min_quadrature_variance(ss)[1]
            quad_floor = min(quad_floor, qmin)
            if g == 0.0:
                solver = ResolventSolver(liouv, ss)
                flux = currents(ss, liouv).e
                cross_at_zero.append(abs(pair_value(solver, liouv, "e", "b",
                                                    0.0, flux)))
            if temperature == 0.0 and 0.05 <= g <= 0.35:
                fq = fano_number(ss)
                flux_b = currents(ss, liouv).b
                if flux_b > 0:
                    solver = ResolventSolver(liouv, ss)
                    sbb = pair_value(solver, liouv, "b", "b", 0.0, flux_b) / (2 * flux_b)
                    if fq < 1.0 and sbb < 1.0:
                        squeezed_g.append((float(g), fq, sbb))

    has_window = bool(squeezed_g)
    no_quad_squeezing = quad_floor >= -1e-9
    cross_ok = max(cross_at_zero) <= 1e-10
    ok = has_window and no_quad_squeezing and cross_ok
    announce(7, ok, f"sub-Poissonian points {squeezed_g[:3]}, quad floor "
                    f"{quad_floor:.2e}, g=0 cross max {max(cross_at_zero):.2e}")
    assert has_window, "no g in [0.05, 0.35] with F_Q < 1 and S_bb(0)/2I_b < 1"
    assert no_quad_squeezing, f"quadrature variance dipped to {quad_floor}"
    assert cross_ok, f"g=0 cross-correlation nonzero: {cross_at_zero}"


def _triangle_samples():
    """(preset, hamiltonian, pair, [(params, omegas)]) per figure preset.

    T > 0 and slow-relaxation presets run the method identities at
    documented reduced cutoffs; the identities are cutoff independent.
    """
    spectral_omegas = [0.35, 0.7, 1.0, 1.25, 1.65]
    fig2p = lambda **kw: ModelParams(**{**FIG2, "delta": 0.5, "n_fock": 6, **kw})
    fig5p = lambda **kw: ModelParams(**{**FIG5, "n_fock": 6, **kw})
    samples = [
        ("fig2", "jc", ("e", "e"), [(fig2p(g=0.2), spectral_omegas)]),
        ("fig3", "jc", ("e", "e"), [(fig2p(g=0.4, temperature=1.0), spectral_omegas)]),
        ("fig4a", "jc", ("e", "e"), [(fig2p(g=0.1, delta=0.35), spectral_omegas)]),
        ("fig4b", "jc", ("e", "e"), [(fig2p(g=0.4, delta=0.65), spectral_omegas)]),
        ("fig5a", "full", ("e", "e"),
         [(fig5p(g=0.0008, temperature=t, n_fock=6), [0.0])
          for t in (0.0, 0.5, 1.0, 1.5, 2.0)]),
        ("fig5b", "full", ("e", "e"),
         [(fig5p(g=g, epsilon=e), [0.0])
          for g, e in ((0.0, 0.0), (0.1, 0.3), (0.2, -0.4), (0.4, 0.0), (0.4, 1.0))]),
        ("fig5c", "full", ("e", "b"),
         [(fig5p(g=g, epsilon=e), [0.0])
          for g, e in ((0.1, 0.0), (0.2, 0.5), (0.4, -0.5), (0.4, 1.0), (0.4, 2.0))]),
        ("fig6a", "full", ("b", "b"),
         [(fig2p(g=g, temperature=t), [0.0])
          for g, t in ((0.1, 0.0), (0.2, 0.0), (0.35, 0.0), (0.2, 0.5), (0.2, 1.0))]),
        ("fig6b", "full", ("b", "b"),
         [(fig2p(g=g, temperature=t), [0.0])
          for g, t in ((0.05, 0.0), (0.15, 0.0), (0.3, 0.0), (0.3, 0.5), (0.3, 1.0))]),
        ("fig6c", "full", ("e", "b"),
         [(fig2p(g=g, temperature=t), [0.0])
          for g, t in ((0.1, 0.0), (0.2, 0.0), (0.4, 0.0), (0.2, 0.5), (0.2, 1.0))]),
    ]
    return samples


def test_criterion_8_method_triangle():
    """resolvent vs MacDonald to 1e-5 relative and resolvent(0) vs the
    counting finite difference to 1e-4 relative, 5 samples per preset."""
    worst_mac = ("", 0.0)
    worst_fd = ("", 0.0)
    for name, ham, pair, points in _triangle_samples():
        for params, omegas in points:
            _, liouv, ss = transport_bundle(params, ham)
            solver = ResolventSolver(liouv, ss)
            i, j = pair
            flux = float(np.real(
                solver.tr @ (liouv.channel(i).part @ solver.rho_vec)))
            rate = spectrum(liouv).slowest_decay_rate()
            zero_only = list(omegas) == [0.0]
            dt = 1.0 if zero_only else 0.02
            trace = macdonald_correlation_trace(liouv, ss, i, j,
                                                t_max=15.0 / rate, dt=dt)
            for w in omegas:
                res = pair_value(solver, liouv, i, j, float(w), flux)
                mac = float(np.atleast_1d(macdonald_evaluate(trace, float(w)))[0])
                rel = abs(res - mac) / max(abs(res), abs(mac), 1e-10)
                if rel > worst_mac[1]:
                    worst_mac = (f"{name} w={w}", rel)
            res0 = pair_value(solver, liouv, i, j, 0.0, flux)
            fd = counting_fd_check(liouv, ss, i, j)
            rel = abs(res0 - fd) / max(abs(res0), abs(fd), 1e-10)
            if rel > worst_fd[1]:
                worst_fd = (name, rel)
    ok = worst_mac[1] <= 1e-5 and worst_fd[1] <= 1e-4
    announce(8, ok, f"worst macdonald rel {worst_mac}, worst counting-fd rel {worst_fd}")
    assert worst_mac[1] <= 1e-5, f"MacDonald disagreement {worst_mac}"
    assert worst_fd[1] <= 1e-4, f"counting-FD disagreement {worst_fd}"


def test_criterion_9_analytic_limit_suite():
    """The fast self-check suite (thermal values, factorization, analytic
    single-level Fano, charge conservation) passes in full."""
    results = run_checks("fast")
    failed = [r for r in results if not r.passed]
    ok = not failed
    announce(9, ok, f"{len(results) - len(failed)}/{len(results)} fast invariants")
    assert ok, "failed invariants: " + "; ".join(r.line() for r in failed)


def test_criterion_10_structural_invariants_full():
    """Structural invariants across every figure preset via the full suite."""
    results = run_checks("full")
    failed = [r for r in results if not r.passed]
    ok = not failed
    announce(10, ok, f"{len(results) - len(failed)}/{len(results)} invariants "
                     "(trace/hermiticity preservation, half-plane, uniqueness, "
                     "symmetry, Poissonian floor)")
    assert ok, "failed invariants: " + "; ".join(r.line() for r in failed)
