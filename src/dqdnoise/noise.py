"""Symmetrized finite-frequency noise spectra S(omega)_{i,j} for the
counted jump channels, by three routes.

resolvent (primary)
    S(w)/2 = Re{-Tr[L_i R(w) L_j rho_ss] - Tr[L_j R(w) L_i rho_ss]}
             + delta_ij Tr[L_i rho_ss],
    with R(w) = Q (i w + L)^{-1} Q, P = |rho_ss><1|, Q = 1 - P. Each
    frequency is a direct sparse factorization; w = 0 solves the
    trace-row-augmented system (pseudo-inverse restricted to range Q)
    with the factorization the steady-state solve already made.

eigen (diagnostic)
    S(w)/2I = 1 - 2 sum_k c_k alpha_k / (w^2 + alpha_k^2) over the
    non-stationary eigenvalues, c_k = (V^-1 L_i V)_kk. Peak locations
    only; requires a diagonalizable generator.

macdonald (oracle)
    Time-domain sine transform of the counted-moment correlator,
    S(w) = 2 f_inf + 2 w int_0^T sin(w tau) (f(tau) - f_inf) dtau with
    f(tau) = Tr[L_i rho_j] + Tr[L_j rho_i] + delta_ij I_i - 2 tau I_i I_j
    and d rho_i/dtau = L rho_i + L_i rho_ss. The coupled system is
    propagated with the exact step matrix E = exp(L dt); the N samples
    of f are running sums of r E^m w, evaluated in sqrt(N) blocks of
    powers of E (baby-step/giant-step). No resolvent, pseudo-inverse
    solve or eigendecomposition enters this path.

A zero-frequency consistency check through counting-field finite
differences of the stationary eigenvalue completes the method triangle.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConvergenceFailure, MethodUnavailable, NumericalError
from .steady import SteadyState
from .superop import (
    LiouvillianSpectrum,
    Superoperator,
    counting_liouvillian,
    spectrum,
    trace_vector,
    vectorize,
)

__all__ = [
    "NoiseSpectrum",
    "ResolventSolver",
    "pair_value",
    "noise_resolvent",
    "noise_eigen_expansion",
    "MacdonaldTrace",
    "macdonald_correlation_trace",
    "noise_macdonald_oracle",
    "counting_fd_check",
    "compute_spectrum",
    "find_peaks",
    "find_peaks_xy",
]

REALITY_TOL = 1e-10
EIGEN_IMAG_TOL = 1e-8


@dataclass
class NoiseSpectrum:
    """One evaluated channel-pair spectrum on a frequency grid."""

    pair: tuple[str, str]
    omegas: np.ndarray
    values: np.ndarray
    normalization: str  # "raw" or "fano" (S / 2 I_i, autocorrelation only)
    method: str  # "resolvent", "eigen" or "macdonald"


class ResolventSolver:
    """Projected-resolvent applications R(w) x.

    P projects onto the stationary direction, Q = 1 - P onto its
    complement. The factorization of (i w + L) at the last frequency is
    kept, so repeated applications at one frequency (the quantities of a
    sweep point, the two orderings of a cross pair) factor once. The
    singular w = 0 point is handled by replacing the redundant
    trace-block row with the trace constraint, which is the system
    ``ss.factor`` already factors.
    """

    def __init__(self, liouv: Superoperator, ss: SteadyState):
        self.liouv = liouv
        self.rho_vec = vectorize(ss.rho_ss)
        self.tr = trace_vector(liouv.dim_rho)
        self._csc = liouv.matrix.tocsc()
        self._eye = sp.identity(liouv.dim_rho**2, format="csc", dtype=complex)
        self._omega: float | None = None
        self._lu = None
        self._zero_factor = ss.factor

    def q_apply(self, x: np.ndarray) -> np.ndarray:
        return x - self.rho_vec * (self.tr @ x)

    def _factor(self, omega: float):
        if omega != self._omega:
            self._omega = self._lu = None  # free the old factor before the new one
            try:
                self._lu = spla.splu((1j * omega) * self._eye + self._csc)
            except RuntimeError as exc:
                raise NumericalError(
                    f"resolvent factorization singular at omega={omega!r}: {exc}"
                ) from exc
            self._omega = omega
        return self._lu

    def apply(self, omega: float, x: np.ndarray) -> np.ndarray:
        """R(omega) x = Q (i omega + L)^{-1} Q x."""
        rhs = self.q_apply(np.asarray(x, dtype=complex))
        if omega == 0.0:
            rhs[0] = 0.0  # trace constraint row: selects the range-Q solution
            y = self._zero_factor.solve(rhs)
        else:
            y = self._factor(omega).solve(rhs)
        return self.q_apply(y)


def pair_value(solver: ResolventSolver, liouv: Superoperator, i: str, j: str,
               omega: float, i_flux: float) -> float:
    """S(omega)_{i,j} with a reused solver; ``i_flux`` is Tr[L_i rho_ss]."""
    ci = liouv.channel(i).part
    cj = liouv.channel(j).part
    t_ij = solver.tr @ (ci @ solver.apply(omega, cj @ solver.rho_vec))
    if i == j:
        t_ji = t_ij
    else:
        t_ji = solver.tr @ (cj @ solver.apply(omega, ci @ solver.rho_vec))
    raw = -t_ij - t_ji
    # taking the real part symmetrizes over +-omega; away from omega = 0 the
    # discarded imaginary part is the genuine antisymmetric component
    if omega == 0.0 and abs(raw.imag) > REALITY_TOL * max(1.0, abs(raw.real)):
        warnings.warn(
            f"zero-frequency noise has imaginary residue {raw.imag:.3e}",
            stacklevel=3,
        )
    delta = i_flux if i == j else 0.0
    return 2.0 * (raw.real + delta)


def noise_resolvent(liouv: Superoperator, ss: SteadyState, i: str, j: str,
                    omega: float, solver: ResolventSolver | None = None) -> float:
    """Symmetrized noise S(omega)_{i,j} in natural units (e = 1)."""
    solver = solver or ResolventSolver(liouv, ss)
    flux = float(np.real(solver.tr @ (liouv.channel(i).part @ solver.rho_vec)))
    return pair_value(solver, liouv, i, j, float(omega), flux)


def _eigen_coefficients(spec: LiouvillianSpectrum, channel_part: sp.csr_matrix,
                        key: str | None = None) -> np.ndarray:
    cache = getattr(spec, "_coeff_cache", None)
    if cache is None:
        cache = {}
        spec._coeff_cache = cache
    if key is not None and key in cache:
        return cache[key]
    cv = channel_part @ spec.right_vectors
    coeff = np.einsum("ij,ji->i", spec.left_vectors, cv)
    if key is not None:
        cache[key] = coeff
    return coeff


def noise_eigen_expansion(spec: LiouvillianSpectrum, channel, omega) -> float | np.ndarray:
    """Normalized autocorrelation noise 1 - 2 sum_k c_k a_k / (w^2 + a_k^2).

    ``channel`` is the counted JumpChannel correlated with itself; its
    coefficients c_k = (V^-1 L_i V)_kk are summed as written over the
    complex conjugate-paired spectrum (the sum is then real up to
    roundoff). The stationary eigenvalue is excluded; its coefficient is
    the mean current and its term vanishes identically. Diagnostic
    method: peak locations only, values are approximate away from the
    validity conditions.
    """
    part = getattr(channel, "part", channel)
    key = getattr(channel, "id", None)
    coeff = _eigen_coefficients(spec, part, key)
    mask = np.ones(coeff.size, dtype=bool)
    mask[spec.zero_index] = False
    alphas = spec.alphas[mask]
    c = coeff[mask]
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    terms = c[None, :] * alphas[None, :] / (w[:, None] ** 2 + alphas[None, :] ** 2)
    total = 1.0 - 2.0 * np.sum(terms, axis=1)
    worst = float(np.max(np.abs(total.imag)))
    if worst > EIGEN_IMAG_TOL:
        warnings.warn(
            f"eigen-expansion imaginary residue {worst:.3e} above {EIGEN_IMAG_TOL:g}",
            stacklevel=2,
        )
    vals = total.real
    return float(vals[0]) if np.isscalar(omega) or np.ndim(omega) == 0 else vals


@dataclass
class MacdonaldTrace:
    """Sampled correlator derivative f(tau) for one channel pair."""

    pair: tuple[str, str]
    taus: np.ndarray
    f: np.ndarray
    f_inf: float
    tail_dev: float
    flux_i: float
    flux_j: float


def _boole(y: np.ndarray, dx: float) -> float:
    """Composite Boole quadrature; len(y) - 1 must be a multiple of 4."""
    n = y.size - 1
    if n % 4 != 0:
        raise ValueError("Boole rule needs a multiple of 4 intervals")
    w = np.zeros(y.size)
    w[0::4] = 14.0
    w[0] = w[-1] = 7.0
    w[1::4] = 32.0
    w[3::4] = 32.0
    w[2::4] = 12.0
    return float((2.0 * dx / 45.0) * (w @ y))


def macdonald_correlation_trace(liouv: Superoperator, ss: SteadyState, i: str, j: str,
                                t_max: float, dt: float,
                                tail_rtol: float = 3e-5) -> MacdonaldTrace:
    """Propagate the coupled counted-moment system and sample f(tau).

    Auxiliary states rho_i start at zero and obey
    d rho_i / dtau = L rho_i + L_i rho_ss while rho stays at the steady
    state. Exact stepping: rho_i(t+dt) = E rho_i(t) + w_i with
    E = exp(L dt) and w_i the step integral of the constant forcing,
    both obtained from one augmented matrix exponential. After k steps
    rho_i = sum_{m<k} E^m w_i, so f is a running sum of the scalars
    y_m = Tr[L_i E^m w_j] + Tr[L_j E^m w_i]. These are evaluated by
    baby-step/giant-step (Paterson & Stockmeyer, SIAM J. Comput. 2, 60
    (1973)): with b = ceil(sqrt(N)), m = q b + p and
    y_m = (r E^p)((E^b)^q w), which takes b row products, ceil(N / b)
    column products with E^b and one matrix product instead of N steps.
    Fails with a suggested larger t_max when the running tail has not
    flattened.
    """
    if t_max <= 0 or dt <= 0:
        raise ValueError("t_max and dt must be positive")
    d2 = liouv.dim_rho**2
    rho_vec = vectorize(ss.rho_ss)
    tr = trace_vector(liouv.dim_rho)
    ci = liouv.channel(i).part
    cj = liouv.channel(j).part
    v_i = ci @ rho_vec
    v_j = cj @ rho_vec
    flux_i = float(np.real(tr @ v_i))
    flux_j = float(np.real(tr @ v_j))
    r_i = tr @ ci  # row functionals Tr[L_i . ]
    r_j = tr @ cj

    n_steps = int(np.ceil(t_max / dt))
    n_steps += (-n_steps) % 4
    taus = np.arange(n_steps + 1) * dt

    aug = np.zeros((d2 + 2, d2 + 2), dtype=complex)
    aug[:d2, :d2] = liouv.matrix.toarray()
    aug[:d2, d2] = v_i
    aug[:d2, d2 + 1] = v_j
    eaug = la.expm(aug * dt)
    e_step = eaug[:d2, :d2]
    w_step = eaug[:d2, d2:]  # columns: int_0^dt e^{L s} v ds

    b = int(np.ceil(np.sqrt(n_steps)))
    a = -(-n_steps // b)
    rows = np.empty((b, 2, d2), dtype=complex)  # baby steps [r_i E^p, r_j E^p]
    rows[0] = (r_i, r_j)
    for p in range(1, b):
        rows[p] = rows[p - 1] @ e_step
    giant = np.linalg.matrix_power(e_step, b)
    cols = np.empty((a, d2, 2), dtype=complex)  # giant steps (E^b)^q [w_j, w_i]
    cols[0] = w_step[:, ::-1]
    for q in range(1, a):
        cols[q] = giant @ cols[q - 1]
    y = np.tensordot(rows, cols, axes=([1, 2], [2, 1]))  # y[p, q] = y_{q b + p}

    f = np.empty(n_steps + 1)
    delta_floor = flux_i if i == j else 0.0
    f[0] = delta_floor
    f[1:] = np.cumsum(y.T.ravel()[:n_steps]).real + delta_floor \
        - 2.0 * taus[1:] * flux_i * flux_j

    n_tail = max(8, (n_steps + 1) // 10)
    tail = f[-n_tail:]
    f_inf = float(tail.mean())
    tail_dev = float(np.max(np.abs(tail - f_inf)))
    span = float(np.max(np.abs(f - f_inf)))
    if tail_dev > tail_rtol * max(span, abs(f_inf), 1e-300):
        raise ConvergenceFailure(
            f"correlator tail not converged (dev {tail_dev:.3e} over scale "
            f"{max(span, abs(f_inf)):.3e}); increase t_max (suggest >= {2 * t_max:g})"
        )
    return MacdonaldTrace(
        pair=(i, j), taus=taus, f=f, f_inf=f_inf, tail_dev=tail_dev,
        flux_i=flux_i, flux_j=flux_j,
    )


def macdonald_evaluate(trace: MacdonaldTrace, omega) -> float | np.ndarray:
    """S(omega) from a sampled trace; the constant tail is integrated analytically."""
    g = trace.f - trace.f_inf
    dt = float(trace.taus[1] - trace.taus[0])
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    out = np.empty(w.size)
    for k, wk in enumerate(w):
        if wk == 0.0:
            out[k] = 2.0 * trace.f_inf
        else:
            out[k] = 2.0 * trace.f_inf + 2.0 * wk * _boole(np.sin(wk * trace.taus) * g, dt)
    return float(out[0]) if np.ndim(omega) == 0 else out


def noise_macdonald_oracle(liouv: Superoperator, ss: SteadyState, i: str, j: str,
                           omega, t_max: float, dt: float,
                           tail_rtol: float = 3e-5) -> float | np.ndarray:
    """Time-domain noise oracle; accepts a scalar or an array of frequencies.

    ``t_max`` should cover all relaxation modes (>= 10 / |Re alpha_slowest|);
    an unconverged tail raises with a suggested budget.
    """
    trace = macdonald_correlation_trace(liouv, ss, i, j, t_max, dt, tail_rtol)
    return macdonald_evaluate(trace, omega)


def _smallest_eigenvalue(m: sp.csc_matrix, v0: np.ndarray, w0: np.ndarray,
                         iters: int = 3) -> complex:
    """Eigenvalue of m nearest zero by two-sided inverse iteration."""
    try:
        lu = spla.splu(m)
    except RuntimeError as exc:
        raise NumericalError(f"counting generator singular: {exc}") from exc
    v, w = v0.astype(complex), w0.astype(complex)
    for _ in range(iters):
        v = lu.solve(v)
        v /= np.linalg.norm(v)
        w = lu.solve(w, trans="H")
        w /= np.linalg.norm(w)
    denom = np.vdot(w, v)
    if abs(denom) < 1e-14:
        raise NumericalError("two-sided Rayleigh quotient degenerate")
    return complex(np.vdot(w, m @ v) / denom)


def counting_fd_check(liouv: Superoperator, ss: SteadyState, i: str, j: str,
                      h: float = 5e-3, include_delta: bool = True,
                      _retried: bool = False) -> float:
    """Zero-frequency noise from counting-field finite differences.

    Differentiates the stationary eigenvalue lambda0(s) of the deformed
    generator M(s) around s = 1 with Richardson-corrected central
    stencils: S(0) = 2 (d2 lambda0/ds_i ds_j + delta_ij d lambda0/ds_i).
    ``include_delta=False`` drops the first-derivative shot-noise floor
    (whose value is the mean current, 2 I_i in these units). Validation
    role only; agrees with the resolvent value at omega = 0.
    """
    v0 = vectorize(ss.rho_ss)
    w0 = trace_vector(liouv.dim_rho)

    def lam(si: float, sj: float | None = None) -> float:
        s = {i: si} if (i == j or sj is None) else {i: si, j: sj}
        m = counting_liouvillian(liouv, s).matrix.tocsc()
        val = _smallest_eigenvalue(m, v0, w0)
        if abs(val.imag) > 1e-8 * max(1.0, abs(val.real)):
            warnings.warn(f"counting eigenvalue has imaginary part {val.imag:.3e}",
                          stacklevel=3)
        return val.real

    if i == j:
        lp1, lm1 = lam(1 + h), lam(1 - h)
        lp2, lm2 = lam(1 + 2 * h), lam(1 - 2 * h)
        d2_h = (lp1 + lm1) / h**2  # lambda0(1) = 0 exactly
        d2_2h = (lp2 + lm2) / (2 * h) ** 2
        d2 = (4.0 * d2_h - d2_2h) / 3.0
        d1_h = (lp1 - lm1) / (2 * h)
        d1_2h = (lp2 - lm2) / (4 * h)
        d1 = (4.0 * d1_h - d1_2h) / 3.0
        delta_term = d1 if include_delta else 0.0
        value = 2.0 * (d2 + delta_term)
        rough = 2.0 * (d2_h + (d1_h if include_delta else 0.0))
    else:
        def cross(step: float) -> float:
            return (
                lam(1 + step, 1 + step) - lam(1 + step, 1 - step)
                - lam(1 - step, 1 + step) + lam(1 - step, 1 - step)
            ) / (4 * step**2)

        d_h, d_2h = cross(h), cross(2 * h)
        value = 2.0 * (4.0 * d_h - d_2h) / 3.0
        rough = 2.0 * d_h

    scale = max(abs(value), 1e-12)
    if abs(value - rough) > 0.1 * scale:
        if _retried:
            raise ConvergenceFailure(
                f"counting finite difference ill-conditioned at h={h:g} "
                f"(plain {rough:.6e} vs corrected {value:.6e})"
            )
        return counting_fd_check(liouv, ss, i, j, h=4 * h,
                                 include_delta=include_delta, _retried=True)
    return value


def compute_spectrum(liouv: Superoperator, ss: SteadyState, pair: tuple[str, str],
                     omegas: np.ndarray, method: str = "resolvent",
                     normalization: str = "fano",
                     t_max: float | None = None, dt: float = 0.02) -> NoiseSpectrum:
    """Evaluate one channel pair on a frequency grid with the chosen method."""
    i, j = pair
    omegas = np.asarray(omegas, dtype=float)
    if normalization not in ("raw", "fano"):
        raise ValueError(f"unknown normalization {normalization!r}")
    if normalization == "fano" and i != j:
        raise ValueError("fano normalization applies to autocorrelation pairs only")

    if method == "resolvent":
        solver = ResolventSolver(liouv, ss)
        flux = float(np.real(solver.tr @ (liouv.channel(i).part @ solver.rho_vec)))
        values = np.array(
            [pair_value(solver, liouv, i, j, w, flux) for w in omegas]
        )
    elif method == "eigen":
        if i != j:
            raise MethodUnavailable("eigen-expansion covers autocorrelation pairs only")
        spec = spectrum(liouv)
        normalized = np.atleast_1d(noise_eigen_expansion(spec, liouv.channel(i), omegas))
        if normalization == "fano":
            values = normalized
        else:
            tr = trace_vector(liouv.dim_rho)
            flux = float(np.real(tr @ (liouv.channel(i).part @ vectorize(ss.rho_ss))))
            values = normalized * 2.0 * flux
        return NoiseSpectrum(pair=pair, omegas=omegas, values=values,
                             normalization=normalization, method=method)
    elif method == "macdonald":
        if t_max is None:
            raise ValueError("macdonald method requires t_max")
        trace = macdonald_correlation_trace(liouv, ss, i, j, t_max, dt)
        values = np.atleast_1d(macdonald_evaluate(trace, omegas))
    else:
        raise ValueError(f"unknown method {method!r}")

    if normalization == "fano":
        tr = trace_vector(liouv.dim_rho)
        flux = float(np.real(tr @ (liouv.channel(i).part @ vectorize(ss.rho_ss))))
        if flux <= 0:
            raise NumericalError(f"cannot Fano-normalize: channel {i!r} flux is {flux:g}")
        values = values / (2.0 * flux)
    return NoiseSpectrum(pair=pair, omegas=omegas, values=values,
                         normalization=normalization, method=method)


def find_peaks_xy(omegas: np.ndarray, values: np.ndarray) -> list[tuple[float, float]]:
    """Local maxima by three-point comparison with parabolic refinement."""
    omegas = np.asarray(omegas, dtype=float)
    values = np.asarray(values, dtype=float)
    peaks: list[tuple[float, float]] = []
    for k in range(1, values.size - 1):
        if not (values[k] > values[k - 1] and values[k] >= values[k + 1]):
            continue
        denom = values[k - 1] - 2.0 * values[k] + values[k + 1]
        if denom >= 0.0:
            peaks.append((float(omegas[k]), float(values[k])))
            continue
        shift = 0.5 * (values[k - 1] - values[k + 1]) / denom
        spacing = 0.5 * (omegas[k + 1] - omegas[k - 1])
        peaks.append((
            float(omegas[k] + shift * spacing),
            float(values[k] - 0.25 * (values[k - 1] - values[k + 1]) * shift),
        ))
    return peaks


def find_peaks(noise_spectrum: NoiseSpectrum) -> list[tuple[float, float]]:
    """Peak positions and heights of an evaluated spectrum (may be empty)."""
    return find_peaks_xy(noise_spectrum.omegas, noise_spectrum.values)
