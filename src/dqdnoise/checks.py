"""Self-check suites: analytic limits (fast) and structural invariants
across the figure presets (full). Run via the CLI ``check`` subcommand.

Eigenvalue checks run at a reduced, documented Fock cutoff; the
invariants under test (stability half-plane, unique stationary state,
conjugate pairs) are structural and cutoff independent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import ModelParams, thermal_state
from .noise import TransportPoint, compute_spectrum
from .steady import solve_steady_state
from .superop import (
    GeneratorPlan,
    assemble_liouvillian,
    charge_sector,
    counting_liouvillian,
    devectorize,
    eigenvalues,
    sector_leak,
    stationary_count,
    thermal_occupation,
    trace_defect,
    vectorize,
)
from .sweep import PRESET_NAMES, _axis_params, preset

__all__ = ["CheckResult", "run_checks", "FAST_LEVEL", "FULL_LEVEL"]

FAST_LEVEL = "fast"
FULL_LEVEL = "full"

#: Fock cutoff cap for the dense eigenvalue checks at every preset point
_EIG_CHECK_CUTOFF = 12


@dataclass
class CheckResult:
    name: str
    context: str
    passed: bool
    observed: float
    tolerance: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status}  {self.name:38s} {self.context:28s} "
                f"observed={self.observed:.17g} tol={self.tolerance:.3g}")


def _result(name, context, observed, tolerance) -> CheckResult:
    return CheckResult(name, context, bool(observed <= tolerance), float(observed),
                       float(tolerance))


def _single_level_liouvillian(gamma_L: float, gamma_R: float):
    h = np.zeros((2, 2), dtype=complex)
    c_in = np.array([[0, 0], [1, 0]], dtype=complex)
    c_out = np.array([[0, 1], [0, 0]], dtype=complex)
    return assemble_liouvillian(
        h, [("in", gamma_L, c_in, False), ("e", gamma_R, c_out, True)]
    )


def _dot_only_steady(params: ModelParams) -> np.ndarray:
    """3x3 stationary state of the bare dot (independent route for the
    g = 0 factorization check)."""
    ket = lambda i: np.eye(3, dtype=complex)[:, i : i + 1]
    sz = ket(1) @ ket(1).conj().T - ket(2) @ ket(2).conj().T
    sx = ket(1) @ ket(2).conj().T + ket(2) @ ket(1).conj().T
    h = params.epsilon * sz + params.delta * sx
    liouv = assemble_liouvillian(
        h,
        [
            ("in", params.gamma_L, ket(1) @ ket(0).conj().T, False),
            ("e", params.gamma_R, ket(0) @ ket(2).conj().T, True),
        ],
    )
    return solve_steady_state(liouv).rho_ss


def _fast_checks() -> list[CheckResult]:
    out = []

    # thermal occupation reference values
    for t, expected in ((0.0, 0.0), (1.0, 0.5819767), (2.0, 1.5414941)):
        nb = thermal_occupation(1.0, t)
        out.append(_result("thermal-occupation", f"T={t}", abs(nb - expected), 1e-6))

    # decoupled thermal resonator: F_Q = 1 + n_bar, quad variance = 2 n_bar
    # (cutoffs sized so the truncated Boltzmann tail sits below 1e-8 in <n^2>)
    for t, nf in ((0.5, 18), (1.0, 30), (2.0, 58)):
        rep = TransportPoint(ModelParams(delta=0.5, g=0.0, temperature=t, n_fock=nf)).report
        nb = thermal_occupation(1.0, t)
        out.append(_result("fano-thermal-1+nbar", f"T={t}", abs(rep.fano_q - (1 + nb)), 1e-8))
        out.append(_result("quad-thermal-2nbar", f"T={t}", abs(rep.quad_min - 2 * nb), 1e-8))

    # g = 0 factorization against dot-only (x) Boltzmann product
    params = ModelParams(delta=0.5, g=0.0, temperature=1.0, n_fock=24)
    rho = TransportPoint(params).ss.rho_ss
    rho_dot = _dot_only_steady(params)
    rho_th = thermal_state(params.n_fock, thermal_occupation(1.0, 1.0))
    dev = np.max(np.abs(rho - np.kron(rho_dot, rho_th)))
    out.append(_result("g0-factorization", "T=1", dev, 1e-8))

    # vacuum Fano convention
    rep0 = TransportPoint(ModelParams(delta=0.5, g=0.0, temperature=0.0, n_fock=4)).report
    out.append(_result("vacuum-fano-zero", "T=0,g=0",
                       abs(rep0.fano_q) + (0.0 if rep0.fano_vacuum else 1.0), 1e-12))

    # single resonant level: S(0)/2I = (GL^2 + GR^2)/(GL + GR)^2
    for gl, gr in ((0.1, 0.1), (0.1, 0.025)):
        liouv = _single_level_liouvillian(gl, gr)
        fano0, = compute_spectrum(liouv, solve_steady_state(liouv), [(("e", "e"), "fano")], 0.0)
        expected = (gl**2 + gr**2) / (gl + gr) ** 2
        out.append(_result("single-level-fano", f"GL={gl},GR={gr}", abs(fano0 - expected), 1e-8))

    # charge conservation and trace preservation on the fig2 preset point
    point = TransportPoint(ModelParams(delta=0.5, g=0.2, n_fock=6))
    rep = point.report
    out.append(_result("charge-conservation", "fig2,g=0.2",
                       abs(rep.current_in - rep.current_e), 1e-10))
    out.append(_result("trace-preservation", "fig2,g=0.2", trace_defect(point.liouv), 1e-10))
    out.append(_result("steady-residual", "fig2,g=0.2", point.ss.residual, 1e-10))
    return out


def _preset_point(name: str) -> tuple[ModelParams, str]:
    """Most demanding representative parameter point of a preset grid."""
    spec = preset(name)
    names = [axis.name for axis in spec.axes]
    grids = [axis.grid() for axis in spec.axes]
    vals = [g[len(g) // 2 + 2] if name == "epsilon" else g.max()
            for name, g in zip(names, grids)]
    return _axis_params(spec.base, names, vals, spec.base.n_fock), spec.hamiltonian


def _full_checks() -> list[CheckResult]:
    out = []
    rng = np.random.default_rng(20240811)
    for name in PRESET_NAMES:
        params, ham = _preset_point(name)
        point = TransportPoint(params, ham)
        liouv, ss = point.liouv, point.ss
        d = liouv.dim_rho
        ctx = f"{name}"

        out.append(_result("trace-preservation", ctx, trace_defect(liouv), 1e-10))

        # Hermiticity preservation on a random Hermitian matrix
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = 0.5 * (x + x.conj().T)
        lrho = devectorize(liouv.matrix @ vectorize(rho))
        out.append(_result("hermiticity-preservation", ctx,
                           float(np.max(np.abs(lrho - lrho.conj().T))), 1e-10))
        out.append(_result("trace-derivative-zero", ctx,
                           abs(np.trace(lrho)), 1e-10))

        # channel completeness: base + sum(parts) reassembles the total exactly
        parts = [ch.part for ch in liouv.channels.values()]
        total = liouv.base
        for part in parts:
            total = total + part
        out.append(_result("channel-completeness", ctx,
                           float(abs(liouv.matrix - total.tocsr()).max()), 0.0))

        # counting-field linearity: second difference in s_e vanishes
        h_s = 0.25
        m_plus = counting_liouvillian(liouv, {"e": 1 + h_s})
        m_minus = counting_liouvillian(liouv, {"e": 1 - h_s})
        second = m_plus + m_minus - 2 * liouv.matrix
        scale = max(1.0, abs(liouv.matrix).max())
        out.append(_result("counting-linearity", ctx,
                           float(abs(second).max()) / scale, 1e-14))

        # the charge-sector block the resolvent solves on is closed under L
        out.append(_result("charge-sector-closure", ctx,
                           sector_leak([liouv.matrix, *parts], charge_sector(d)), 0.0))

        out.append(_result("steady-residual", ctx, ss.residual, 1e-10))
        out.append(_result("steady-positivity", ctx,
                           -float(np.linalg.eigvalsh(ss.rho_ss).min()), 1e-9))

        # noise symmetry and the high-frequency Poissonian floor
        sym = max(abs(point.noise("e", "e", w) - point.noise("e", "e", -w))
                  for w in (0.37, 1.0))
        out.append(_result("noise-symmetry", ctx, sym, 1e-8))
        hi = point.noise("e", "e", 1000.0, "fano")
        out.append(_result("high-frequency-floor", ctx, abs(hi - 1.0), 1e-3))

        eig_params = replace(params, n_fock=min(params.n_fock, _EIG_CHECK_CUTOFF))
        out += _eigenvalue_checks(GeneratorPlan(eig_params.n_fock, ham).generator(eig_params),
                                  f"{ctx} (N_b<={_EIG_CHECK_CUTOFF})")
    return out


def _eigenvalue_checks(liouv, ctx: str) -> list[CheckResult]:
    """Half-plane, unique stationary state and conjugate pairs of the
    eigenvalues of every sector block; the coherence halves (0, X) and
    (X, 0) are solved apart, so the pairing across them is tested."""
    alphas = eigenvalues(liouv)
    return [_result("eigenvalue-half-plane", ctx, float(alphas.real.max()), 1e-10),
            _result("unique-stationary-state", ctx, abs(stationary_count(alphas) - 1), 0.0),
            _result("conjugate-pair-symmetry", ctx, _conjugate_pair_defect(alphas), 1e-10)]


def _conjugate_pair_defect(alphas: np.ndarray) -> float:
    im = alphas[np.abs(alphas.imag) > 1e-12]
    if im.size == 0:
        return 0.0
    conj = np.conj(im)
    return float(max(np.min(np.abs(im[k] - conj)) for k in range(im.size)))


def run_checks(level: str = FAST_LEVEL) -> list[CheckResult]:
    """Execute the requested suite and return one result per invariant."""
    if level not in (FAST_LEVEL, FULL_LEVEL):
        raise ValueError(f"unknown check level {level!r}")
    results = _fast_checks()
    if level == FULL_LEVEL:
        results += _full_checks()
    return results
