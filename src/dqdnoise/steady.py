"""Stationary density matrix and single-time observables.

The solver replaces one row of the (singular) generator with the
vectorized trace constraint and solves the resulting linear system
directly, with a couple of iterative-refinement passes on the cached
factorization; the residual is always reported against the unmodified
generator. The replaced row must belong to the trace block (a diagonal
vec position), which is where the generator's one row dependency lives.
The factorization is kept on the returned SteadyState, and the omega = 0
projected resolvent solves with it instead of factoring the same matrix
again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConvergenceFailure, DegenerateSteadyState, NumericalError
from .model import (
    HilbertSpace,
    ModelParams,
    OperatorSet,
    build_hamiltonian,
    build_jc_hamiltonian,
    build_operators,
)
from .superop import Superoperator, build_liouvillian, devectorize, trace_vector, vectorize

__all__ = [
    "SteadyState",
    "Currents",
    "MomentReport",
    "solve_steady_state",
    "trace_replaced_system",
    "transport_point",
    "currents",
    "expectation",
    "fano_number",
    "quadrature_variance",
    "min_quadrature_variance",
    "moment_report",
]

RESIDUAL_TOL = 1e-10
POSITIVITY_TOL = -1e-9
VACUUM_TOL = 1e-12
CHARGE_DOT_DIM = 3


@dataclass
class SteadyState:
    """Normalized Hermitian stationary state with its solve diagnostics.

    ``factor`` is the sparse LU (``SuperLU``) of the trace-replaced
    generator the state was solved with; the omega = 0 projected
    resolvent reuses it.
    """

    rho_ss: np.ndarray
    residual: float
    factor: spla.SuperLU = field(repr=False, compare=False)
    method: str = "trace-lu"

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
        return {
            "current_e": self.current_e,
            "current_b": self.current_b,
            "current_in": self.current_in,
            "mean_n": self.mean_n,
            "mean_n2": self.mean_n2,
            "fano_q": self.fano_q,
            "fano_vacuum": self.fano_vacuum,
            "quad_phi_star": self.quad_phi_star,
            "quad_min": self.quad_min,
            "mean_a": [self.mean_a.real, self.mean_a.imag],
            "mean_a2": [self.mean_a2.real, self.mean_a2.imag],
        }


def trace_replaced_system(liouv: Superoperator) -> tuple[sp.csc_matrix, np.ndarray]:
    """Generator with row 0 (a trace-block row) replaced by the trace constraint."""
    d2 = liouv.dim_rho**2
    coo = liouv.matrix.tocoo()
    keep = coo.row != 0
    diag_idx = np.arange(liouv.dim_rho) * (liouv.dim_rho + 1)
    rows = np.concatenate([coo.row[keep], np.zeros(liouv.dim_rho, dtype=coo.row.dtype)])
    cols = np.concatenate([coo.col[keep], diag_idx.astype(coo.col.dtype)])
    data = np.concatenate([coo.data[keep], np.ones(liouv.dim_rho, dtype=complex)])
    m = sp.csc_matrix((data, (rows, cols)), shape=(d2, d2))
    b = np.zeros(d2, dtype=complex)
    b[0] = 1.0
    return m, b


def _diagnose_failure(liouv: Superoperator, residual: float) -> Exception:
    if liouv.dim_rho**2 <= 10_000:
        alphas = np.linalg.eigvals(liouv.matrix.toarray())
        n_zero = int(np.sum(np.abs(alphas) <= 1e-8))
        if n_zero >= 2:
            return DegenerateSteadyState(
                f"stationary subspace is degenerate ({n_zero} eigenvalues below 1e-8); "
                "the trace-constrained solve is not well posed"
            )
    return ConvergenceFailure(
        f"steady-state solve did not converge (residual {residual:.3e} > {RESIDUAL_TOL:g})"
    )


def solve_steady_state(liouv: Superoperator) -> SteadyState:
    """Solve L[rho] = 0, Tr rho = 1 and return the Hermitized, normalized state.

    Raises DegenerateSteadyState when the stationary subspace is not
    one-dimensional and ConvergenceFailure when the residual against the
    unmodified generator stays above tolerance. The returned state keeps
    the factorization of ``trace_replaced_system(liouv)``.
    """
    m, b = trace_replaced_system(liouv)
    try:
        lu = spla.splu(m)
    except RuntimeError as exc:
        raise _diagnose_failure(liouv, float("inf")) from exc
    x = lu.solve(b)
    for _ in range(2):  # refinement against the modified system
        r = b - m @ x
        if np.max(np.abs(r)) < 1e-16:
            break
        x = x + lu.solve(r)

    rho = devectorize(x)
    rho = 0.5 * (rho + rho.conj().T)
    tr = np.trace(rho).real
    if abs(tr) < 1e-300:
        raise ConvergenceFailure("steady-state solve returned a traceless matrix")
    rho = rho / tr

    residual = float(np.max(np.abs(liouv.matrix @ vectorize(rho))))
    if residual > RESIDUAL_TOL:
        raise _diagnose_failure(liouv, residual)

    min_eig = float(np.linalg.eigvalsh(rho).min())
    if min_eig < POSITIVITY_TOL:
        raise NumericalError(
            f"steady state has eigenvalue {min_eig:.3e} below {POSITIVITY_TOL:g}; "
            "the Fock cutoff is likely too small, increase n_fock"
        )
    return SteadyState(rho_ss=rho, residual=residual, factor=lu)


def transport_point(params: ModelParams, hamiltonian: str = "full"
                    ) -> tuple[OperatorSet, Superoperator, SteadyState]:
    """(operators, generator, steady state) of one transport parameter point.

    ``hamiltonian`` is "full" (the complete dot-resonator coupling) or
    "jc" (the rotating-wave form).
    """
    if hamiltonian not in ("full", "jc"):
        raise ValueError(f"hamiltonian must be 'full' or 'jc', got {hamiltonian!r}")
    build = build_jc_hamiltonian if hamiltonian == "jc" else build_hamiltonian
    space = params.space()
    ops = build_operators(space)
    liouv = build_liouvillian(build(params, space, ops), params, ops)
    return ops, liouv, solve_steady_state(liouv)


def expectation(op: np.ndarray, rho: np.ndarray) -> complex:
    return complex(np.trace(op @ rho))


def _channel_flux(liouv: Superoperator, channel_id: str, rho_vec: np.ndarray,
                  tr: np.ndarray) -> float:
    return float(np.real(tr @ (liouv.channel(channel_id).part @ rho_vec)))


def currents(ss: SteadyState, liouv: Superoperator) -> Currents:
    """Stationary fluxes I_i = Tr[L_i rho_ss] of the emission, phonon and
    injection channels. Charge conservation makes inflow equal e outflow.
    Channels absent from the generator report zero flux."""
    rho_vec = vectorize(ss.rho_ss)
    tr = trace_vector(ss.dim)
    vals = {}
    for cid in ("e", "b", "in"):
        if cid not in liouv.channels:
            vals[cid] = 0.0
            continue
        v = _channel_flux(liouv, cid, rho_vec, tr)
        if v < -1e-12:
            raise NumericalError(f"channel {cid!r} flux is negative ({v:.3e})")
        vals[cid] = max(v, 0.0)
    return Currents(e=vals["e"], b=vals["b"], inflow=vals["in"])


def _mode(ss: SteadyState) -> tuple[np.ndarray, np.ndarray]:
    """(a, n) on the composite space of ``ss``."""
    if ss.dim % CHARGE_DOT_DIM != 0:
        raise ValueError(f"dimension {ss.dim} is not a 3-level dot (x) Fock space")
    ops = build_operators(HilbertSpace(n_fock=ss.dim // CHARGE_DOT_DIM - 1))
    return ops.a, ops.number


def fano_number(ss: SteadyState) -> float:
    """Number-state Fano factor (<n^2> - <n>^2) / <n>.

    Values below one flag sub-Poissonian phonon-number statistics. The
    vacuum limit <n> -> 0 is defined as 0 (see MomentReport.fano_vacuum).
    """
    a, num = _mode(ss)
    mean_n = expectation(num, ss.rho_ss).real
    if mean_n < VACUUM_TOL:
        return 0.0
    mean_n2 = expectation(num @ num, ss.rho_ss).real
    return (mean_n2 - mean_n**2) / mean_n


def quadrature_variance(ss: SteadyState, phi: float) -> float:
    """Normal-ordered variance of Q = a e^{-i phi} + a^dag e^{i phi}.

    Negative values would indicate quadrature squeezing.
    """
    a, num = _mode(ss)
    rho = ss.rho_ss
    mean_a = expectation(a, rho)
    mean_a2 = expectation(a @ a, rho)
    mean_n = expectation(num, rho).real
    return float(
        2.0 * np.real((mean_a2 - mean_a**2) * np.exp(-2j * phi))
        + 2.0 * (mean_n - abs(mean_a) ** 2)
    )


def min_quadrature_variance(ss: SteadyState) -> tuple[float, float]:
    """Closed-form minimum of the normal-ordered quadrature variance.

    Returns (phi_star, value) with phi_star in [0, pi); the variance is
    pi-periodic in the quadrature angle.
    """
    a, num = _mode(ss)
    rho = ss.rho_ss
    mean_a = expectation(a, rho)
    mean_a2 = expectation(a @ a, rho)
    mean_n = expectation(num, rho).real
    z = mean_a2 - mean_a**2
    value = float(2.0 * (mean_n - abs(mean_a) ** 2) - 2.0 * abs(z))
    if abs(z) == 0.0:
        phi_star = 0.0
    else:
        # e^{-2 i phi} z = -|z| at the minimum
        phi_star = float((np.angle(z) + np.pi) / 2.0 % np.pi)
    return phi_star, value


def moment_report(ss: SteadyState, liouv: Superoperator) -> MomentReport:
    """All stationary observables in one record."""
    cur = currents(ss, liouv)
    a, num = _mode(ss)
    rho = ss.rho_ss
    mean_n = expectation(num, rho).real
    mean_n2 = expectation(num @ num, rho).real
    vacuum = mean_n < VACUUM_TOL
    fano = 0.0 if vacuum else (mean_n2 - mean_n**2) / mean_n
    phi_star, qmin = min_quadrature_variance(ss)
    return MomentReport(
        current_e=cur.e,
        current_b=cur.b,
        current_in=cur.inflow,
        mean_n=mean_n,
        mean_n2=mean_n2,
        fano_q=fano,
        fano_vacuum=vacuum,
        quad_phi_star=phi_star,
        quad_min=qmin,
        mean_a=expectation(a, rho),
        mean_a2=expectation(a @ a, rho),
    )
