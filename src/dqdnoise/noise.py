"""Symmetrized finite-frequency noise spectra S(omega)_{i,j} for the
counted jump channels, by three routes.

resolvent (primary, ``ResolventSolver.noises``)
    S(w)/2 = Re{-Tr[L_i R(w) L_j rho_ss] - Tr[L_j R(w) L_i rho_ss]}
             + delta_ij Tr[L_i rho_ss],
    with R(w) = Q (i w + L)^{-1} Q, P = |rho_ss><1|, Q = 1 - P. A point's
    whole frequency axis, for every requested channel pair, is solved on
    the charge-sector block of L that the steady state was solved on. w = 0
    solves the trace-row-augmented block (pseudo-inverse restricted to
    range Q) with the factorization the steady-state solve already made;
    nonzero w, for a large grid on a small block, in pole-residue form from
    the real eigendecomposition of the block that ``superop.spectrum`` shares,
    else (or for an ill-conditioned eigenvector basis) by one sparse
    factorization per frequency in the block's own fill-reducing order.

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

:func:`compute_spectrum` is the one entry from a generator and its steady
state to spectra: it checks each request, runs one of the three routes,
derives MacDonald's default ``t_max`` and applies the Fano normalization.
:class:`TransportPoint` takes a parameter point to its generator, steady
state and moment report.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConfigError, ConvergenceFailure, MethodUnavailable, NumericalError
from .model import ModelParams
from .steady import (
    MomentReport,
    SteadyState,
    channel_flux,
    factor_kept_block,
    moment_report,
    refined_solve,
    solve_steady_state,
)
from .superop import (
    DENSE_MAX_DIM,
    GeneratorPlan,
    LiouvillianSpectrum,
    Superoperator,
    counting_liouvillian,
    kept_eig,
    slowest_decay_rate,
    spectrum,
    trace_vector,
    vectorize,
)

__all__ = [
    "ResolventSolver",
    "TransportPoint",
    "noise_eigen_expansion",
    "MacdonaldTrace",
    "macdonald_correlation_trace",
    "counting_fd_check",
    "compute_spectrum",
    "find_peaks_xy",
]

REALITY_TOL = 1e-10
EIGEN_IMAG_TOL = 1e-8
FD_STEP = 5e-3  # the counting-field step of counting_fd_check


#: Dense path cut (:meth:`ResolventSolver._use_dense`), from the break-even table in
#: CHANGES.md (BLAS threads 1): 36, 72 and 125-147 frequencies at n = 245, 405 and 605,
#: 0.008-0.010 n^1.5. At n = 1280 the measured break-even is 209-255, but the cut asks
#: for 412, so fig3's 321 stay on sparse LUs by the n^1.5 fit, not by measurement.
DENSE_BREAK_EVEN = 0.009
DENSE_COND_MAX = 1e5  # on the condition estimate of V's real form; fig2/fig4 reach 1.2e4


class ResolventSolver:
    """Projected-resolvent applications R(w) x and the noise built on them,
    all on the generator's charge-sector block ``liouv.blocks[0]``, the one
    the steady state was solved on.

    P projects onto the stationary direction, Q = 1 - P onto its
    complement. rho_ss, the trace functional and every channel's
    L_c rho_ss and Tr[L_c .] live on the block, so Q keeps it and the
    noise needs no other vec index. w = 0 solves the trace-replaced block
    that ``ss.factor`` already factors, refined as the steady solve is
    (:meth:`apply`). Above the cut of :meth:`_use_dense` all nonzero w come
    from the block's eigendecomposition L_blk = u V diag(lambda) V^-1 u^H
    (:func:`superop.kept_eig`, shared with :func:`superop.spectrum`) in
    pole-residue form, r (i w + L_blk)^-1 c = sum_k ((r u) V)_k (V^-1 u^H c)_k
    / (i w + lambda_k) (Antoulas, *Approximation of Large-Scale Dynamical
    Systems*, SIAM 2005, ch. 4). Below the cut, or when V is ill-conditioned,
    each nonzero w takes one sparse LU of (i w + L_blk) in the block's order
    (``steady.factor_kept_block``) for all pairs.
    """

    def __init__(self, liouv: Superoperator, ss: SteadyState):
        self.liouv = liouv
        self.ss = ss
        block = liouv.blocks[0]
        self.rho = vectorize(ss.rho_ss)[block]
        self.tr = trace_vector(liouv.dim_rho)[block]

    def _q(self, x: np.ndarray) -> np.ndarray:
        return x - self.rho * (self.tr @ x)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """R(0) x = Q L^{-1} Q x of a block vector, the range-Q solution."""
        rhs = self._q(np.asarray(x, dtype=complex))
        rhs[-1] = 0.0  # trace constraint row, vec index 0's: selects the range-Q solution
        return self._q(refined_solve(self.ss.factor, self.liouv.system, rhs))

    def _channels(self, chans: list[str]) -> tuple[dict, dict]:
        """(rows Tr[L_c Q], columns Q L_c rho_ss) of the channels c in ``chans``
        on the block."""
        rho, tr = vectorize(self.ss.rho_ss), trace_vector(self.liouv.dim_rho)
        block = self.liouv.blocks[0]
        rows, cols = {}, {}
        for c in chans:
            part = self.liouv.channel(c).part
            r = (tr @ part)[block]
            rows[c] = r - (r @ self.rho) * self.tr
            cols[c] = self._q((part @ rho)[block])
        return rows, cols

    @cached_property
    def _matrix(self) -> sp.csc_matrix:
        """L on the block; only the sparse-LU path needs it."""
        block = self.liouv.blocks[0]
        return self.liouv.matrix[block][:, block].tocsc()

    def _use_dense(self, n_omega: int) -> bool:
        """n <= DENSE_MAX_DIM and n_omega >= DENSE_BREAK_EVEN n^1.5 for a block of dimension
        n: its eigendecomposition costs O(n^3) once, a sparse LU O(n^1.5) per frequency."""
        n = self.liouv.blocks[0].size
        return n <= DENSE_MAX_DIM and n_omega >= DENSE_BREAK_EVEN * n**1.5

    def _poles(self, pairs: list[tuple[str, str]], rows: dict, cols: dict, w: np.ndarray):
        """-r_i (i w + L_blk)^-1 c_j - r_j (i w + L_blk)^-1 c_i of each pair (i, j) at the
        nonzero w; None below the cut of :meth:`_use_dense` or when the 1-norm condition
        estimate (LAPACK ``gecon``) of X, the real form of V, is above DENSE_COND_MAX."""
        if not self._use_dense(w.size):
            return None
        u, lam, v = kept_eig(self.liouv)
        # V = X B, X real: x and y of each conjugate pair x +- i y, the Im lambda > 0 one first
        k = np.flatnonzero(lam.imag > 0)
        x = v.real.copy(order="F")
        x[:, k + 1] = v.imag[:, k]
        lange, gecon = la.get_lapack_funcs(("lange", "gecon"), (x,))
        norm, lu = lange("1", x), la.lu_factor(x, overwrite_a=True)
        if gecon(lu[0], norm, norm="1")[0] * DENSE_COND_MAX < 1.0:
            return None
        b = u.conj().T @ np.column_stack(list(cols.values()))
        y = la.lu_solve(lu, b.real) + 1j * la.lu_solve(lu, b.imag)
        y[k], y[k + 1] = (y[k] - 1j * y[k + 1]) / 2, (y[k] + 1j * y[k + 1]) / 2  # V^-1 u^H c
        left, right = {c: (u.T @ r) @ v for c, r in rows.items()}, dict(zip(cols, y.T))
        out = np.empty((len(pairs), w.size), dtype=complex)
        for s in range(0, w.size, 32):  # 32 w a block keep the kernel 1 / (i w + lambda) small
            kernel = 1j * w[s:s + 32, None] + lam
            np.reciprocal(kernel, out=kernel)
            for p, (i, j) in enumerate(pairs):  # a product per pair: its bits are its own
                out[p, s:s + 32] = -(kernel @ (left[i] * right[j] + left[j] * right[i]))
        return out

    def _solve(self, omega: float, b: np.ndarray) -> np.ndarray:
        """(i omega + L_blk)^-1 b by one sparse LU in the block's order."""
        try:
            return factor_kept_block((1j * omega) * sp.identity(b.shape[0], format="csc")
                                     + self._matrix).solve(b)
        except RuntimeError as exc:
            msg = f"resolvent factorization singular at omega={omega!r}: {exc}"
            raise NumericalError(msg) from exc

    def noises(self, pairs: list[tuple[str, str]], omega) -> list:
        """Symmetrized noise S(omega)_{i,j} in natural units (e = 1) of each
        channel pair, at a frequency (floats) or on an array of frequencies.
        w = 0 applies R(0) to each channel's column; the nonzero w take the
        pole-residue form or one factorization each for all channels."""
        chans = list(dict.fromkeys(c for pair in pairs for c in pair))
        w = np.atleast_1d(np.asarray(omega, dtype=float))
        raw = np.empty((len(pairs), w.size), dtype=complex)
        if pairs:
            rows, cols = self._channels(chans)
            dense = self._poles(pairs, rows, cols, w[w != 0.0])
            if dense is not None:
                raw[:, w != 0.0] = dense
            b = np.column_stack(list(cols.values()))
            for k in np.flatnonzero(w == 0.0) if dense is not None else range(w.size):
                y = {c: self.apply(cols[c]) for c in chans} if w[k] == 0.0 \
                    else dict(zip(cols, self._solve(w[k], b).T))
                for p, (i, j) in enumerate(pairs):
                    raw[p, k] = -(rows[i] @ y[j]) - rows[j] @ y[i]
        for raw0 in raw[:, w == 0.0].flat:
            if abs(raw0.imag) > REALITY_TOL * max(1.0, abs(raw0.real)):
                warnings.warn(f"zero-frequency noise has imaginary residue {raw0.imag:.3e}",
                              stacklevel=2)
        # taking the real part symmetrizes over +-omega; away from omega = 0 the
        # discarded imaginary part is the genuine antisymmetric component
        delta = [channel_flux(self.ss, self.liouv, i) if i == j else 0.0 for i, j in pairs]
        values = 2.0 * (raw.real + np.reshape(delta, (-1, 1)))
        return [float(v[0]) if np.ndim(omega) == 0 else v for v in values]


class TransportPoint:
    """One transport parameter point: generator, steady state, moment
    report, and its noise through :func:`compute_spectrum`.

    ``hamiltonian`` names an entry of ``model.HAMILTONIANS``. The generator
    comes from ``plan``, a :class:`superop.GeneratorPlan` for
    (``params.n_fock``, ``hamiltonian``) that a run shares among its points;
    without one the point builds its own. The generator and the steady
    state are built on construction; the moment report is built on first
    use and kept.
    """

    def __init__(self, params: ModelParams, hamiltonian: str = "full",
                 plan: GeneratorPlan | None = None):
        plan = plan or GeneratorPlan(params.n_fock, hamiltonian)
        if plan.hamiltonian != hamiltonian:
            raise ValueError(f"plan is for hamiltonian {plan.hamiltonian!r}, "
                             f"not {hamiltonian!r}")
        self.params = params
        self.liouv = plan.generator(params)
        self.ss = solve_steady_state(self.liouv)

    @cached_property
    def report(self) -> MomentReport:
        return moment_report(self.ss, self.liouv)

    def noise(self, i: str, j: str, omega, normalization: str = "raw") -> float | np.ndarray:
        """S(omega)_{i,j}, "raw" or "fano" (S / 2 I_i, autocorrelation only),
        at a frequency or on an array of frequencies; see :func:`compute_spectrum`."""
        return compute_spectrum(self.liouv, self.ss, [((i, j), normalization)], omega)[0]


def noise_eigen_expansion(spec: LiouvillianSpectrum, channel, omega) -> float | np.ndarray:
    """Normalized autocorrelation noise 1 - 2 sum_k c_k a_k / (w^2 + a_k^2).

    ``channel`` is the counted JumpChannel correlated with itself; its
    coefficients c_k = (V_b^-1 L_i V_b)_kk, block by block, are summed as
    written over the complex conjugate-paired spectrum (the sum is then
    real up to roundoff). The stationary eigenvalue is excluded; its
    coefficient is the mean current and its term vanishes identically.
    Diagnostic method: peak locations only, values are approximate away
    from the validity conditions.
    """
    part = channel.part
    coeff = np.empty(spec.alphas.size, dtype=complex)
    for idx, vb, vbinv in spec.blocks:
        coeff[idx] = np.einsum("ij,ji->i", vbinv, part[idx][:, idx] @ vb)
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

    taus: np.ndarray
    f: np.ndarray
    f_inf: float


def _boole_weights(n_points: int, dx: float) -> np.ndarray:
    """Composite Boole quadrature weights; n_points - 1 must be a multiple of 4."""
    if (n_points - 1) % 4 != 0:
        raise ValueError("Boole rule needs a multiple of 4 intervals")
    w = np.zeros(n_points)
    w[0::4] = 14.0
    w[0] = w[-1] = 7.0
    w[1::4] = 32.0
    w[3::4] = 32.0
    w[2::4] = 12.0
    return (2.0 * dx / 45.0) * w


def macdonald_correlation_trace(liouv: Superoperator, ss: SteadyState, i: str, j: str,
                                t_max: float, dt: float,
                                tail_rtol: float = 3e-5) -> MacdonaldTrace:
    """Propagate the coupled counted-moment system and sample f(tau).

    Auxiliary states rho_i start at zero and obey
    d rho_i / dtau = L rho_i + L_i rho_ss while rho stays at the steady
    state; the forcing, and so rho_i, stays in the charge-sector block of L
    (``liouv.blocks[0]``). Exact stepping: rho_i(t+dt) = E rho_i(t) + w_i with
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
    kept = liouv.blocks[0]
    n = kept.size
    rho_vec = vectorize(ss.rho_ss)
    tr = trace_vector(liouv.dim_rho)
    ci = liouv.channel(i).part
    cj = liouv.channel(j).part
    v_i = ci @ rho_vec
    v_j = cj @ rho_vec
    flux_i = float(np.real(tr @ v_i))
    flux_j = float(np.real(tr @ v_j))
    r_i = (tr @ ci)[kept]  # row functionals Tr[L_i . ]
    r_j = (tr @ cj)[kept]

    n_steps = int(np.ceil(t_max / dt))
    n_steps += (-n_steps) % 4
    taus = np.arange(n_steps + 1) * dt

    aug = np.zeros((n + 2, n + 2), dtype=complex)
    aug[:n, :n] = liouv.matrix[kept][:, kept].toarray()
    aug[:n, n:] = np.column_stack([v_i, v_j])[kept]
    eaug = la.expm(aug * dt)
    e_step = eaug[:n, :n]
    w_step = eaug[:n, n:]  # columns: int_0^dt e^{L s} v ds

    b = int(np.ceil(np.sqrt(n_steps)))
    a = -(-n_steps // b)
    rows = np.empty((b, 2, n), dtype=complex)  # baby steps [r_i E^p, r_j E^p]
    rows[0] = (r_i, r_j)
    for p in range(1, b):
        rows[p] = rows[p - 1] @ e_step
    giant = np.linalg.matrix_power(e_step, b)
    cols = np.empty((a, n, 2), dtype=complex)  # giant steps (E^b)^q [w_j, w_i]
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
    return MacdonaldTrace(taus=taus, f=f, f_inf=f_inf)


def macdonald_evaluate(trace: MacdonaldTrace, omega) -> float | np.ndarray:
    """S(omega) from a sampled trace; the constant tail is integrated analytically.

    Every Boole-weighted sum sum_k h_k sin(w k dt) = Im sum_k h_k e^{i w k dt}
    is taken by baby-step/giant-step phases: with b = ceil(sqrt(N)) and
    k = q b + p, one (n_omega x b) @ (b x a) product of e^{i w p dt} with
    the samples, then a row sum weighted by e^{i w q b dt}.
    """
    dt = float(trace.taus[1] - trace.taus[0])
    h = _boole_weights(trace.f.size, dt) * (trace.f - trace.f_inf)
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    b = int(np.ceil(np.sqrt(h.size)))
    a = -(-h.size // b)
    blocks = np.zeros(a * b)
    blocks[:h.size] = h
    baby = np.exp(1j * dt * np.outer(w, np.arange(b)))
    giant = np.exp(1j * dt * b * np.outer(w, np.arange(a)))
    sums = np.einsum("wq,wq->w", giant, baby @ blocks.reshape(a, b).T)
    out = 2.0 * trace.f_inf + 2.0 * w * sums.imag
    return float(out[0]) if np.ndim(omega) == 0 else out


def _smallest_eigenvalue(m: sp.csc_matrix, v0: np.ndarray, w0: np.ndarray) -> complex:
    """Eigenvalue of m nearest zero by three steps of two-sided inverse iteration."""
    try:
        lu = spla.splu(m)
    except RuntimeError as exc:
        raise NumericalError(f"counting generator singular: {exc}") from exc
    v, w = v0.astype(complex), w0.astype(complex)
    for _ in range(3):
        v = lu.solve(v)
        v /= np.linalg.norm(v)
        w = lu.solve(w, trans="H")
        w /= np.linalg.norm(w)
    denom = np.vdot(w, v)
    if abs(denom) < 1e-14:
        raise NumericalError("two-sided Rayleigh quotient degenerate")
    return complex(np.vdot(w, m @ v) / denom)


def counting_fd_check(liouv: Superoperator, ss: SteadyState, i: str, j: str,
                      include_delta: bool = True) -> float:
    """Zero-frequency noise from counting-field finite differences.

    Differentiates the stationary eigenvalue lambda0(s) of the deformed
    generator M(s) around s = 1 with Richardson-corrected central
    stencils: S(0) = 2 (d2 lambda0/ds_i ds_j + delta_ij d lambda0/ds_i).
    ``include_delta=False`` drops the first-derivative shot-noise floor
    (whose value is the mean current, 2 I_i in these units). When the
    correction moves the plain stencil by more than 10%, the step is raised
    from ``FD_STEP`` to 4 ``FD_STEP`` once, and ConvergenceFailure is raised
    if it still does.
    Validation role only; agrees with the resolvent value at omega = 0.
    """
    v0 = vectorize(ss.rho_ss)
    w0 = trace_vector(liouv.dim_rho)

    def lam(si: float, sj: float | None = None) -> float:
        s = {i: si} if (i == j or sj is None) else {i: si, j: sj}
        m = counting_liouvillian(liouv, s).tocsc()
        val = _smallest_eigenvalue(m, v0, w0)
        if abs(val.imag) > 1e-8 * max(1.0, abs(val.real)):
            warnings.warn(f"counting eigenvalue has imaginary part {val.imag:.3e}",
                          stacklevel=3)
        return val.real

    def cross(dh: float) -> float:
        return (
            lam(1 + dh, 1 + dh) - lam(1 + dh, 1 - dh)
            - lam(1 - dh, 1 + dh) + lam(1 - dh, 1 - dh)
        ) / (4 * dh**2)

    for step in (FD_STEP, 4 * FD_STEP):
        if i == j:
            lp1, lm1 = lam(1 + step), lam(1 - step)
            lp2, lm2 = lam(1 + 2 * step), lam(1 - 2 * step)
            d2_h = (lp1 + lm1) / step**2  # lambda0(1) = 0 exactly
            d2_2h = (lp2 + lm2) / (2 * step) ** 2
            d2 = (4.0 * d2_h - d2_2h) / 3.0
            d1_h = (lp1 - lm1) / (2 * step)
            d1_2h = (lp2 - lm2) / (4 * step)
            d1 = (4.0 * d1_h - d1_2h) / 3.0
            delta_term = d1 if include_delta else 0.0
            value = 2.0 * (d2 + delta_term)
            rough = 2.0 * (d2_h + (d1_h if include_delta else 0.0))
        else:
            d_h, d_2h = cross(step), cross(2 * step)
            value = 2.0 * (4.0 * d_h - d_2h) / 3.0
            rough = 2.0 * d_h
        scale = max(abs(value), 1e-12)
        if not abs(value - rough) > 0.1 * scale:
            return value
    raise ConvergenceFailure(
        f"counting finite difference ill-conditioned at h={step:g} "
        f"(plain {rough:.6e} vs corrected {value:.6e})"
    )


def compute_spectrum(liouv: Superoperator, ss: SteadyState,
                     requests: list[tuple[tuple[str, str], str]], omega,
                     method: str = "resolvent", t_max: float | None = None,
                     dt: float = 0.02) -> list:
    """S(omega)_{i,j} of each ((i, j), normalization) request, "raw" or
    "fano" (S / 2 I_i, autocorrelation only), at a frequency (floats) or on
    an array of frequencies, by one method.

    The resolvent solves every request with one factorization per
    frequency. MacDonald's ``t_max`` defaults to 12 / (slowest decay rate),
    which needs a dense eigensolve of a kept block no larger than
    ``superop.DENSE_MAX_DIM``. The eigen expansion is in Fano units already
    and is scaled by 2 I_i for "raw" only.
    """
    for (i, j), normalization in requests:
        if normalization not in ("raw", "fano"):
            raise ValueError(f"unknown normalization {normalization!r}")
        if normalization == "fano" and i != j:
            raise ValueError("fano normalization applies to autocorrelation pairs only")
    if method == "resolvent":
        values = ResolventSolver(liouv, ss).noises([pair for pair, _ in requests], omega)
    elif method == "eigen":
        if any(i != j for (i, j), _ in requests):
            raise MethodUnavailable("eigen-expansion covers autocorrelation pairs only")
        spec = spectrum(liouv)
        fano = [noise_eigen_expansion(spec, liouv.channel(i), omega) for (i, _), _ in requests]
        return [v if norm == "fano" else v * 2.0 * channel_flux(ss, liouv, i)
                for v, ((i, _), norm) in zip(fano, requests)]
    elif method == "macdonald":
        if t_max is None:
            if liouv.blocks[0].size > DENSE_MAX_DIM:
                raise ConfigError("macdonald.t_max required (system too large to "
                                  "auto-derive the relaxation time)")
            t_max = 12.0 / slowest_decay_rate(liouv)
        values = [macdonald_evaluate(macdonald_correlation_trace(liouv, ss, i, j, t_max, dt),
                                     omega) for (i, j), _ in requests]
    else:
        raise ValueError(f"unknown method {method!r}")
    for k, ((i, _), norm) in enumerate(requests):
        if norm == "fano":
            flux = channel_flux(ss, liouv, i)
            if flux <= 0:
                raise NumericalError(f"cannot Fano-normalize: channel {i!r} flux is {flux:g}")
            values[k] = values[k] / (2.0 * flux)
    return values


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
