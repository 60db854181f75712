"""Stationary density matrix and single-time observables.

The solver works on the charge-sector ("kept") block of the generator, the
first of its ``blocks``: it holds vec index 0 and every diagonal index, so
the stationary state lives there. The row of vec index 0 (a diagonal vec
position, where the generator's one row dependency lives), which the block
lists last, is replaced with the vectorized trace constraint. The block, L
on it and that system (``superop.Superoperator.kept`` and ``.system``) are
fields of the generator, set by whichever builder made it.

The system is solved by one of two paths (:class:`SystemInverse`). A
generator that carries its g = 0 form (``Superoperator.uncoupled``, which
a plan sets for a kept block above ``DENSE_MAX_DIM``) is solved by GMRES
on the block, right-preconditioned by the inverse of that form, applied as
a Kronecker sum. Every other one, and a point whose GMRES misses
``KRYLOV_MAX_ITER`` iterations, is solved directly, with a couple of
iterative-refinement passes on the factorization. The block lists its
indices in a fill-reducing order, and every sparse LU of it
(:func:`factor_kept_block`, here, and per frequency and for the counting
check in ``noise``) keeps that order; it is the program's one sparse LU.

The state is Hermitized and normalized on the block, and its residual is
reported against L on the whole block, the trace row's equation included;
no other entry of L reaches the block. Each channel's stationary flux is
taken there once. The D x D state holds exact zeros in the dropped
coherence blocks. The solver is kept on the returned SteadyState, and the
omega = 0 projected resolvent solves with it on the generator's
``blocks[0]`` by the same path, instead of factoring the same matrix again.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConvergenceFailure, DegenerateSteadyState, NumericalError
from .superop import (
    DENSE_MAX_DIM,
    PLAN_CACHE_SIZE,
    STATIONARY_TOL,
    KroneckerSum,
    Superoperator,
    devectorize,
    spectrum,
)

__all__ = [
    "SteadyState",
    "SystemInverse",
    "Currents",
    "MomentReport",
    "factor_kept_block",
    "refined_solve",
    "solve_steady_state",
    "currents",
    "mode_moments",
    "top_fock_population",
    "fano_number",
    "quadrature_variance",
    "min_quadrature_variance",
    "moment_report",
]

RESIDUAL_TOL = 1e-10
POSITIVITY_TOL = -1e-9
VACUUM_TOL = 1e-12
CHARGE_DOT_DIM = 3
#: top-Fock-level population above which a state counts as truncated: 2.4e-4 moves S_ee(0)
#: by 3% (fig5b); fig5a's 1.5e-6 (T 2) by 1.1e-12 at eps 0 but 1.2e-6 relative at eps 0.5
TRUNCATION_TOL = 1e-5
#: GMRES iterations a kept-block solve may take before it falls back to the sparse LU: fig5a's
#: points (g 8e-4) take at most 8, while at g 0.1-0.4 the count is 24-349, where a miss costs
#: these iterations on top of the LU
KRYLOV_MAX_ITER = 20


class _Uncoupled:
    """P, the inverse of a point's g = 0 generator L0 = A (x) 1 + 1 (x) B
    (``superop.KroneckerSum``) on the kept block's trace-zero vectors, and
    rho0 = rho_dot (x) rho_th, with L0 rho0 = 0 and Tr rho0 = 1.

    With A = V diag(lambda) V^-1, L0 x = y is (B + lambda_k) z_k = (V^-1 y)_k
    for the rows z_k of V^-1 x (Bartels & Stewart, Commun. ACM 15, 820
    (1972)): five tridiagonal systems, factored once as one (LAPACK
    ``gttrf``). At A's zero mode, B is singular on the populations. There
    the (0, 0) row, which a trace-zero y makes redundant, is replaced by
    z = 0, and the multiple of rho0 that makes Tr x = 0 is added. An apply
    works in the (dot pair, resonator pair) layout, where the trace row and
    rho0 are kept, with one gather in and one out. Raises
    LinAlgError when L0 has more than one stationary state: when more than
    one eigenvalue of A lies within ``STATIONARY_TOL`` max|lambda| of zero
    (a dot cut off from both leads, whose further zeros ``eig`` may return
    as 1e-17), or when a shifted B is singular (an undamped resonator).
    """

    def __init__(self, ks: KroneckerSum, trace: np.ndarray):
        lam, self.v = np.linalg.eig(ks.dot)
        if np.sum(np.abs(lam) <= STATIONARY_TOL * np.abs(lam).max()) > 1:
            raise la.LinAlgError("the dot generator has more than one stationary mode")
        self.vinv = np.linalg.inv(self.v)
        self.order, self.position = ks.order, ks.position
        sub, diag, sup = ks.bands
        main, upper = (diag + lam[:, None]).ravel(), np.tile(sup.astype(complex), lam.size)
        self.pin = (int(np.argmin(np.abs(lam))), ks.populations.start)
        at = np.ravel_multi_index(self.pin, (lam.size, diag.size))
        main[at], upper[at] = 1.0, 0.0
        gttrf = la.get_lapack_funcs("gttrf", (main,))
        *self.lu, info = gttrf(np.tile(sub.astype(complex), lam.size)[:-1], main, upper[:-1])
        if info:
            raise la.LinAlgError(f"shifted resonator generator is singular (gttrf info {info})")
        self.gttrs = la.get_lapack_funcs("gttrs", (main,))
        unit = np.zeros((lam.size, diag.size), dtype=complex)
        unit[self.pin] = 1.0  # its solution is B's null vector, the thermal populations
        rho0 = np.outer(self.v[:, self.pin[0]], self._solve(unit)[self.pin[0]]).ravel()
        self.trace = trace[self.order]
        self.rho0_layout = rho0 / (self.trace @ rho0)
        self.rho0 = self.rho0_layout[self.position]

    def _solve(self, w: np.ndarray) -> np.ndarray:
        return self.gttrs(*self.lu, w.ravel(), overwrite_b=True)[0].reshape(w.shape)

    def __call__(self, y: np.ndarray) -> np.ndarray:
        w = self.vinv @ y[self.order].reshape(self.v.shape[0], -1)
        w[self.pin] = 0.0
        x = (self.v @ self._solve(w)).ravel()
        x -= (self.trace @ x) * self.rho0_layout
        return x[self.position]


def _gmres(product, precondition, b: np.ndarray,
           tol: float) -> tuple[np.ndarray | None, int]:
    """(x, iterations) with |b - product(x)| <= tol and x = precondition(z), by GMRES on
    product(precondition(z)) = b from z = 0 (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7,
    856 (1986)) with the Arnoldi vectors orthogonalized twice by classical Gram-Schmidt
    and the Hessenberg matrix reduced by Givens rotations. Each Arnoldi vector's
    preconditioned image is kept, so x is their combination, with no further
    ``precondition``. x is None when ``KRYLOV_MAX_ITER`` iterations do not reach ``tol``."""
    cap = KRYLOV_MAX_ITER
    # one allocation for both: two of this size each solve let malloc return their pages
    # to the system, and the next solve then faults them in again
    basis, images = np.split(np.empty((2 * cap + 1, b.size), dtype=complex), [cap + 1])
    r = np.zeros((cap + 1, cap), dtype=complex)  # the Hessenberg matrix, rotated to triangular
    g = np.zeros(cap + 1, dtype=complex)  # |b| e_1, rotated alike: |g[j + 1]| is the residual
    g[0] = norm = np.linalg.norm(b)
    if norm <= tol:
        return np.zeros_like(b), 0
    np.multiply(b, 1.0 / norm, out=basis[0])  # a real factor: no complex division
    rotations = []
    for j in range(cap):
        images[j] = precondition(basis[j])
        w = product(images[j])
        for _ in range(2):
            h = (basis[:j + 1] @ w.conj()).conj()  # no conjugate copy of the basis
            w -= h @ basis[:j + 1]
            r[:j + 1, j] += h
        norm = np.linalg.norm(w)
        for i, (c, s) in enumerate(rotations):  # s is real
            r[i:i + 2, j] = (c.conjugate() * r[i, j] + s * r[i + 1, j],
                             c * r[i + 1, j] - s * r[i, j])
        rho = np.hypot(abs(r[j, j]), norm)
        if not 0.0 < rho < np.inf:  # a non-finite product, or a breakdown short of tol
            return None, j + 1
        c, s = r[j, j] / rho, norm / rho
        rotations.append((c, s))
        r[j, j], g[j:j + 2] = rho, (c.conjugate() * g[j], -s * g[j])
        if abs(g[j + 1]) <= tol:
            return la.solve_triangular(r[:j + 1, :j + 1], g[:j + 1]) @ images[:j + 1], j + 1
        np.multiply(w, 1.0 / norm, out=basis[j + 1])
    return None, cap


class SystemInverse:
    """x = S^-1 b for S, a generator's ``system``, the trace-replaced kept block.

    Path "lu": the sparse LU of S (:func:`factor_kept_block`) and
    :func:`refined_solve`. Path "krylov", taken when the generator carries
    its g = 0 form (``Superoperator.uncoupled``) and that form has a single
    stationary state: x = b_last rho0 + P z, with
    rho0 and P of ``_Uncoupled`` and z from GMRES on L P z = r, r being b
    less b_last L rho0 with the trace row's entry set so that Tr r = 0
    (Nation, arXiv:1504.06768 (2015)). It stops at a residual of 1e-13 |r|
    or 1e-15 |b|. A miss, at ``KRYLOV_MAX_ITER`` iterations, factors S once
    and solves by the LU from then on (path "krylov-lu"). ``iterations``
    lists the GMRES iteration count of each Krylov solve. An LU whose
    :func:`_inverse_condition` estimate is below n eps (S numerically
    singular: more than one stationary state) raises DegenerateSteadyState,
    or, on a block of at most ``DENSE_MAX_DIM``, the error its dense
    spectrum names.
    """

    def __init__(self, liouv: Superoperator):
        self.liouv, self.lu, self.iterations = liouv, None, []
        self.path, self.uncoupled = "lu", None
        if liouv.uncoupled is not None:
            try:
                self.uncoupled = _Uncoupled(liouv.uncoupled, liouv.trace)
            except la.LinAlgError:
                pass
            else:
                self.path, self.l_rho0 = "krylov", liouv.kept @ self.uncoupled.rho0

    def __call__(self, b: np.ndarray) -> np.ndarray:
        if self.lu is None and self.uncoupled is not None:
            p = self.uncoupled
            r = b - b[-1] * self.l_rho0
            r[-1] -= self.liouv.trace @ r  # the trace row is vec index 0's, last
            x, count = _gmres(self.liouv.kept.dot, p, r,
                              max(1e-13 * np.linalg.norm(r), 1e-15 * np.linalg.norm(b)))
            self.iterations.append(count)
            if x is not None:
                return b[-1] * p.rho0 + x
            self.path = "krylov-lu"
        if self.lu is None:
            try:
                lu = factor_kept_block(self.liouv.system)
            except RuntimeError as exc:  # an exactly zero pivot
                raise _diagnose_failure(self.liouv, float("inf")) from exc
            estimate = _inverse_condition(lu, self.liouv.system)
            if not estimate >= b.size * np.finfo(float).eps:
                raise _diagnose_failure(self.liouv, float("inf"), estimate)
            self.lu = lu
        return refined_solve(self.lu, self.liouv.system, b)


@dataclass
class SteadyState:
    """Normalized Hermitian stationary state with its solve diagnostics.

    ``inverse`` solves the generator's ``system``, the trace-replaced
    charge-sector block ``blocks[0]`` the state was solved on, by the path
    that solved the state (:class:`SystemInverse`); the omega = 0 projected
    resolvent solves with it. ``rho_kept`` is the state on that block in
    block order, ``fluxes`` maps each channel id to its stationary flux
    Tr[L_c rho_ss], and ``min_eig`` is the smallest eigenvalue of rho_ss,
    taken from its two charge-sector blocks when the coherences between them
    are dropped.
    """

    rho_ss: np.ndarray
    residual: float
    inverse: SystemInverse = field(repr=False, compare=False)
    rho_kept: np.ndarray = field(repr=False, compare=False)
    fluxes: dict[str, float]
    min_eig: float

    @property
    def dim(self) -> int:
        return self.rho_ss.shape[0]

    @property
    def path(self) -> str:
        """The solve path, "lu", "krylov" or "krylov-lu" (:class:`SystemInverse`)."""
        return self.inverse.path

    @property
    def iterations(self) -> list[int]:
        """GMRES iterations of the steady state and then of each R(0) column solved."""
        return self.inverse.iterations


class Currents(NamedTuple):
    e: float
    b: float
    inflow: float


@dataclass
class MomentReport:
    """Stationary currents, phonon moments and quadrature statistics."""

    current_e: float
    current_b: float
    current_in: float
    mean_n: float
    mean_n2: float
    fano_q: float
    fano_vacuum: bool
    quad_phi_star: float
    quad_min: float
    mean_a: complex
    mean_a2: complex

    def to_dict(self) -> dict:
        """The fields in order, a complex value as [re, im]."""
        return {k: [v.real, v.imag] if isinstance(v, complex) else v
                for k, v in asdict(self).items()}


def _diagnose_failure(liouv: Superoperator, residual: float,
                      estimate: float | None = None) -> Exception:
    """The error of a failed steady solve: DegenerateSteadyState when the kept block's
    dense spectrum (at most ``DENSE_MAX_DIM``) has more than one stationary eigenvalue, or,
    above that, when the system's :func:`_inverse_condition` ``estimate`` says it is
    singular; else ConvergenceFailure."""
    if liouv.blocks[0].size <= DENSE_MAX_DIM:
        n_zero = spectrum(liouv).n_stationary
        if n_zero >= 2:
            return DegenerateSteadyState(
                f"stationary subspace is degenerate ({n_zero} eigenvalues below "
                f"{STATIONARY_TOL:g}); "
                "the trace-constrained solve is not well posed"
            )
    elif estimate is not None:
        return DegenerateSteadyState(
            f"steady system is singular (inverse condition estimate {estimate:.1e}); "
            "the stationary subspace is degenerate"
        )
    return ConvergenceFailure(
        f"steady-state solve did not converge (residual {residual:.3e} > {RESIDUAL_TOL:g})"
    )


def factor_kept_block(m: sp.csc_matrix) -> spla.SuperLU:
    """Sparse LU of a matrix on the kept block ``blocks[0]``, in the block's
    own order: no column permutation (SuperLU, Demmel et al., SIAM J. Matrix
    Anal. Appl. 20, 720 (1999)), and the diagonal pivot wherever it is at
    least 0.01 of its column's largest entry, which keeps the exact zeros of
    decoupled points."""
    return spla.splu(m, permc_spec="NATURAL", diag_pivot_thresh=0.01)


def _inverse_condition(lu: spla.SuperLU, m: sp.csc_matrix) -> float:
    """max|c| / (max|m_ij| max|m^-1 c|) for a fixed pseudo-random c, by one solve with
    ``lu``, the :func:`factor_kept_block` of m: at least 1/kappa(m) in the max norm, up to
    the length of m's longest row, so a small value means m is numerically singular. A
    steady system with a second stationary state (both leads off) reads 6e-20 to 7e-16,
    every preset point 8.9e-6 or more. It tells what the pivot ratio min|U_ii| / max|U_ii|
    does, at a fraction of the cost of reading ``lu.U``."""
    c = _probe(m.shape[0])
    return float(np.abs(c).max() / (np.abs(m.data).max() * np.abs(lu.solve(c)).max()))


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _probe(n: int) -> np.ndarray:
    """The fixed pseudo-random vector of :func:`_inverse_condition` at dimension n, one per
    kept-block size, as plans are kept."""
    c = np.random.default_rng(0).standard_normal(n).astype(complex)
    c.setflags(write=False)
    return c


def refined_solve(lu: spla.SuperLU, m: sp.csc_matrix, b: np.ndarray) -> np.ndarray:
    """x with m x = b from ``lu``, the :func:`factor_kept_block` of m, and up
    to two passes of iterative refinement against m while the residual is
    at least 1e-16 max|b| and, as in LAPACK's xGERFS, at most half the last
    one. The diagonal pivots grow a bare solve's error to 2e-12 relative at
    some points (the R(0) columns of S_eb at fig6c's g 0.02, T 1); one pass
    brings it back to 1e-15."""
    x, last = lu.solve(b), np.inf
    for _ in range(2):
        r = b - m @ x
        size = np.max(np.abs(r))
        if size < 1e-16 * np.max(np.abs(b)) or size > 0.5 * last:
            break
        x, last = x + lu.solve(r), size
    return x


def solve_steady_state(liouv: Superoperator) -> SteadyState:
    """Solve L[rho] = 0, Tr rho = 1 and return the Hermitized, normalized state.

    Raises NumericalError for a generator with inf or NaN entries on the
    kept block, DegenerateSteadyState when the stationary subspace is not
    one-dimensional and ConvergenceFailure when the residual against the
    unmodified generator stays above tolerance. The returned state keeps
    the :class:`SystemInverse` that solved the generator's ``system``.
    """
    if not np.isfinite(liouv.kept.data.view(float)).all():
        raise NumericalError("generator has non-finite entries (inf or NaN): "
                             "a model parameter overflows double precision")
    b = np.zeros(liouv.kept.shape[0], dtype=complex)
    b[-1] = 1.0  # the trace row, that of vec index 0, which the block lists last
    inverse = SystemInverse(liouv)
    x = inverse(b)
    x = 0.5 * (x + x[liouv.partner].conj())  # rho[i, j] and rho[j, i]^*
    tr = (liouv.trace @ x).real
    if abs(tr) < 1e-300:
        raise ConvergenceFailure("steady-state solve returned a traceless matrix")
    x /= tr

    residual = float(np.max(np.abs(liouv.kept @ x)))
    if not residual <= RESIDUAL_TOL:  # a NaN residual fails too
        raise _diagnose_failure(liouv, residual)

    vec = np.zeros(liouv.dim_rho**2, dtype=complex)
    vec[liouv.blocks[0]] = x
    rho = devectorize(vec)
    # rho is block-diagonal, empty dot and occupied dot, when the coherences between are dropped
    nf = liouv.dim_rho // CHARGE_DOT_DIM
    sectors = [rho[:nf, :nf], rho[nf:, nf:]] if len(liouv.blocks) > 1 else [rho]
    min_eig = float(min(np.linalg.eigvalsh(r).min() for r in sectors))
    if min_eig < POSITIVITY_TOL:
        raise NumericalError(
            f"steady state has eigenvalue {min_eig:.3e} below {POSITIVITY_TOL:g}; "
            "the Fock cutoff is likely too small, increase n_fock"
        )
    fluxes = {cid: ch.rate * float((ch.row @ x).real) for cid, ch in liouv.channels.items()}
    return SteadyState(rho_ss=rho, residual=residual, inverse=inverse, rho_kept=x,
                       fluxes=fluxes, min_eig=min_eig)


def currents(ss: SteadyState, liouv: Superoperator) -> Currents:
    """Stationary fluxes I_i = Tr[L_i rho_ss] of the emission, phonon and
    injection channels. Charge conservation makes inflow equal e outflow.
    Channels absent from the generator report zero flux."""
    vals = {}
    for cid in ("e", "b", "in"):
        v = ss.fluxes.get(cid, 0.0)
        if v < -1e-12:
            raise NumericalError(f"channel {cid!r} flux is negative ({v:.3e})")
        vals[cid] = max(v, 0.0)
    return Currents(e=vals["e"], b=vals["b"], inflow=vals["in"])


def _resonator_state(ss: SteadyState) -> np.ndarray:
    """The resonator's reduced state rho_b, the dot traced out."""
    nf, rest = divmod(ss.dim, CHARGE_DOT_DIM)
    if rest or nf < 2:
        raise ValueError(f"dimension {ss.dim} is not a 3-level dot (x) Fock space")
    return np.trace(ss.rho_ss.reshape(CHARGE_DOT_DIM, nf, CHARGE_DOT_DIM, nf),
                    axis1=0, axis2=2)


def top_fock_population(ss: SteadyState) -> float:
    """Population of the top Fock level n_fock in ``ss``, from the reduced
    resonator state of :func:`mode_moments`; above ``TRUNCATION_TOL`` the
    cutoff visibly moves the results."""
    return float(_resonator_state(ss)[-1, -1].real)


def mode_moments(ss: SteadyState) -> tuple[complex, complex, float, float]:
    """Resonator moments (<a>, <a^2>, <n>, <n^2>) of ``ss``.

    Read off the diagonals of the resonator's reduced state rho_b (the
    dot traced out): <n^k> = sum n^k rho_b[n, n], <a> = sum sqrt(n)
    rho_b[n, n-1], <a^2> = sum sqrt(n (n-1)) rho_b[n, n-2].
    """
    rho_b = _resonator_state(ss)
    n = np.arange(rho_b.shape[0])
    pop = rho_b.diagonal().real
    mean_a = complex(np.sqrt(n[1:]) @ rho_b.diagonal(-1))
    mean_a2 = complex(np.sqrt(n[2:] * n[1:-1]) @ rho_b.diagonal(-2))
    return mean_a, mean_a2, float(n @ pop), float(n**2 @ pop)


def _fano(mean_n: float, mean_n2: float) -> float:
    return 0.0 if mean_n < VACUUM_TOL else (mean_n2 - mean_n**2) / mean_n


def _quad_min(mean_a: complex, mean_a2: complex, mean_n: float) -> tuple[float, float]:
    z = mean_a2 - mean_a**2
    value = float(2.0 * (mean_n - abs(mean_a) ** 2) - 2.0 * abs(z))
    if abs(z) == 0.0:
        phi_star = 0.0
    else:
        # e^{-2 i phi} z = -|z| at the minimum
        phi_star = float((np.angle(z) + np.pi) / 2.0 % np.pi)
    return phi_star, value


def fano_number(ss: SteadyState) -> float:
    """Number-state Fano factor (<n^2> - <n>^2) / <n>.

    Values below one flag sub-Poissonian phonon-number statistics. The
    vacuum limit <n> -> 0 is defined as 0 (see MomentReport.fano_vacuum).
    """
    return _fano(*mode_moments(ss)[2:])


def quadrature_variance(ss: SteadyState, phi: float) -> float:
    """Normal-ordered variance of Q = a e^{-i phi} + a^dag e^{i phi}.

    Negative values would indicate quadrature squeezing.
    """
    mean_a, mean_a2, mean_n, _ = mode_moments(ss)
    return float(
        2.0 * np.real((mean_a2 - mean_a**2) * np.exp(-2j * phi))
        + 2.0 * (mean_n - abs(mean_a) ** 2)
    )


def min_quadrature_variance(ss: SteadyState) -> tuple[float, float]:
    """Closed-form minimum of the normal-ordered quadrature variance.

    Returns (phi_star, value) with phi_star in [0, pi); the variance is
    pi-periodic in the quadrature angle.
    """
    return _quad_min(*mode_moments(ss)[:3])


def moment_report(ss: SteadyState, liouv: Superoperator) -> MomentReport:
    """All stationary observables in one record."""
    cur = currents(ss, liouv)
    mean_a, mean_a2, mean_n, mean_n2 = mode_moments(ss)
    phi_star, qmin = _quad_min(mean_a, mean_a2, mean_n)
    return MomentReport(
        current_e=cur.e,
        current_b=cur.b,
        current_in=cur.inflow,
        mean_n=mean_n,
        mean_n2=mean_n2,
        fano_q=_fano(mean_n, mean_n2),
        fano_vacuum=mean_n < VACUUM_TOL,
        quad_phi_star=phi_star,
        quad_min=qmin,
        mean_a=mean_a,
        mean_a2=mean_a2,
    )
