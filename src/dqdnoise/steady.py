"""Stationary density matrix and single-time observables.

The solver works on the charge-sector ("kept") block of the generator, the
first of its ``blocks``: it holds vec index 0 and every diagonal index, so
the stationary state lives there. The row of vec index 0 (a diagonal vec
position, where the generator's one row dependency lives), which the block
lists last, is replaced with the vectorized trace constraint and the system
is solved directly, with a couple of iterative-refinement passes on the
cached factorization. The block and that system
(``superop.Superoperator.system``) are fields of the generator, set by
whichever builder made it. The block lists its indices in a fill-reducing
order, and every sparse LU of it (:func:`factor_kept_block`, here and per
frequency in ``noise``) keeps that order. The state is scattered back into
D x D with exact zeros in the dropped coherence blocks, and the residual
is always reported against the whole unmodified generator. The
factorization is kept on the returned SteadyState, and the omega = 0
projected resolvent solves with it on the generator's ``blocks[0]``
instead of factoring the same matrix again.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConvergenceFailure, DegenerateSteadyState, NumericalError
from .superop import (DENSE_MAX_DIM, STATIONARY_TOL, Superoperator, devectorize,
                      eigenvalues, stationary_count, trace_vector, vectorize)

__all__ = [
    "SteadyState",
    "Currents",
    "MomentReport",
    "factor_kept_block",
    "refined_solve",
    "solve_steady_state",
    "channel_flux",
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


@dataclass
class SteadyState:
    """Normalized Hermitian stationary state with its solve diagnostics.

    ``factor`` is the sparse LU (``SuperLU``) of the generator's ``system``,
    the trace-replaced charge-sector block ``blocks[0]`` the state was solved
    on; the omega = 0 projected resolvent solves with it.
    """

    rho_ss: np.ndarray
    residual: float
    factor: spla.SuperLU = field(repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.rho_ss.shape[0]


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


def _diagnose_failure(liouv: Superoperator, residual: float) -> Exception:
    if liouv.blocks[0].size <= DENSE_MAX_DIM:
        n_zero = stationary_count(eigenvalues(liouv))
        if n_zero >= 2:
            return DegenerateSteadyState(
                f"stationary subspace is degenerate ({n_zero} eigenvalues below "
                f"{STATIONARY_TOL:g}); "
                "the trace-constrained solve is not well posed"
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

    Raises NumericalError for a generator with inf or NaN entries,
    DegenerateSteadyState when the stationary subspace is not
    one-dimensional and ConvergenceFailure when the residual against the
    unmodified generator stays above tolerance. The returned state keeps
    the factorization of the generator's ``system``.
    """
    if not np.all(np.isfinite(liouv.matrix.data)):
        raise NumericalError("generator has non-finite entries (inf or NaN): "
                             "a model parameter overflows double precision")
    block, m = liouv.blocks[0], liouv.system
    b = np.zeros(block.size, dtype=complex)
    b[-1] = 1.0  # the trace row, that of vec index 0, which the block lists last
    try:
        lu = factor_kept_block(m)
    except RuntimeError as exc:
        raise _diagnose_failure(liouv, float("inf")) from exc
    x = refined_solve(lu, m, b)

    vec = np.zeros(liouv.dim_rho**2, dtype=complex)
    vec[block] = x
    rho = devectorize(vec)
    rho = 0.5 * (rho + rho.conj().T)
    tr = np.trace(rho).real
    if abs(tr) < 1e-300:
        raise ConvergenceFailure("steady-state solve returned a traceless matrix")
    rho = rho / tr

    residual = float(np.max(np.abs(liouv.matrix @ vectorize(rho))))
    if not residual <= RESIDUAL_TOL:  # a NaN residual fails too
        raise _diagnose_failure(liouv, residual)

    min_eig = float(np.linalg.eigvalsh(rho).min())
    if min_eig < POSITIVITY_TOL:
        raise NumericalError(
            f"steady state has eigenvalue {min_eig:.3e} below {POSITIVITY_TOL:g}; "
            "the Fock cutoff is likely too small, increase n_fock"
        )
    return SteadyState(rho_ss=rho, residual=residual, factor=lu)


def channel_flux(ss: SteadyState, liouv: Superoperator, cid: str) -> float:
    """Stationary flux Tr[L_cid rho_ss] of one jump channel of ``liouv``."""
    tr = trace_vector(ss.dim)
    return float(np.real(tr @ (liouv.channel(cid).part @ vectorize(ss.rho_ss))))


def currents(ss: SteadyState, liouv: Superoperator) -> Currents:
    """Stationary fluxes I_i = Tr[L_i rho_ss] of the emission, phonon and
    injection channels. Charge conservation makes inflow equal e outflow.
    Channels absent from the generator report zero flux."""
    vals = {}
    for cid in ("e", "b", "in"):
        if cid not in liouv.channels:
            vals[cid] = 0.0
            continue
        v = channel_flux(ss, liouv, cid)
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
