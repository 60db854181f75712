"""Vectorized Liouvillian of the transport master equation.

Column-stacking vectorization is the fixed convention: vec(rho)[i + j*D]
= rho[i, j], so vec(A rho B) = kron(B.T, A) vec(rho). The generator is
split into a base part (coherent commutator plus all anticommutator
halves of the dissipators) and labeled completely positive jump channels
Gamma X rho X^dag, which carry the counting fields:

  in     injection  Gamma_L s_L^dag rho s_L            (not counted)
  e      emission   Gamma_R s_R rho s_R^dag            (counted)
  b      phonon emission gamma_b (1 + n_bar) a rho a^dag   (counted)
  b_abs  thermal absorption gamma_b n_bar a^dag rho a  (not counted)

The thermal lines are assembled in the standard (1+n_bar)-emission /
n_bar-absorption Lindblad grouping, which is trace preserving; the
literal printed grouping (anticommutators taken with a^dag a on both
thermal lines) is available from :func:`thermal_dissipator` for the
regrouping diagnostic, and differs by gamma_b n_bar/2 {a a^dag - a^dag a, rho}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from .errors import MethodUnavailable
from .model import ModelParams, OperatorSet, build_operators

__all__ = [
    "JumpChannel",
    "Superoperator",
    "LiouvillianSpectrum",
    "vectorize",
    "devectorize",
    "spre",
    "spost",
    "sandwich",
    "trace_vector",
    "thermal_occupation",
    "thermal_dissipator",
    "assemble_liouvillian",
    "build_liouvillian",
    "counting_liouvillian",
    "spectrum",
    "trace_defect",
]

COUNTED_CHANNELS = ("e", "b")
STATIONARY_TOL = 1e-8
BIORTHOGONALITY_TOL = 1e-8


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Column-stack a D x D matrix into a D^2 vector."""
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {rho.shape}")
    return rho.flatten(order="F")


def devectorize(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vectorize`."""
    v = np.asarray(v)
    d = math.isqrt(v.size)
    if d * d != v.size:
        raise ValueError(f"vector length {v.size} is not a perfect square")
    return v.reshape((d, d), order="F")


def spre(op: np.ndarray) -> sp.csr_matrix:
    """Superoperator for left multiplication, rho -> op rho."""
    d = op.shape[0]
    return sp.kron(sp.identity(d, format="csr"), sp.csr_matrix(op), format="csr")


def spost(op: np.ndarray) -> sp.csr_matrix:
    """Superoperator for right multiplication, rho -> rho op."""
    d = op.shape[0]
    return sp.kron(sp.csr_matrix(op.T), sp.identity(d, format="csr"), format="csr")


def sandwich(left: np.ndarray, right: np.ndarray) -> sp.csr_matrix:
    """Superoperator for rho -> left rho right."""
    return sp.kron(sp.csr_matrix(right.T), sp.csr_matrix(left), format="csr")


def trace_vector(dim: int) -> np.ndarray:
    """Row vector t with t . vec(rho) = Tr rho."""
    return vectorize(np.eye(dim, dtype=complex))


def thermal_occupation(omega_b: float, temperature: float) -> float:
    """Bose-Einstein occupation e^{-omega_b/T} / (1 - e^{-omega_b/T})."""
    if omega_b <= 0:
        raise ValueError(f"omega_b must be > 0, got {omega_b}")
    if temperature < 0:
        raise ValueError(f"temperature must be >= 0, got {temperature}")
    if temperature == 0.0:
        return 0.0
    x = math.exp(-omega_b / temperature)
    return x / (1.0 - x)


@dataclass
class JumpChannel:
    """One completely positive jump term Gamma X rho X^dag of the generator."""

    id: str
    part: sp.csr_matrix
    counted: bool


@dataclass
class Superoperator:
    """Generator acting on vectorized density matrices.

    ``base`` holds the commutator and anticommutator pieces; the total
    matrix is base plus the sum of all channel parts. Instances are
    treated as immutable after construction and are safe to share across
    worker threads; the assembled total and the eigendecomposition are
    cached on first use.
    """

    dim_rho: int
    base: sp.csr_matrix
    channels: dict[str, JumpChannel]
    _matrix: sp.csr_matrix | None = field(default=None, repr=False)
    _spectrum: "LiouvillianSpectrum | None" = field(default=None, repr=False)

    @property
    def matrix(self) -> sp.csr_matrix:
        if self._matrix is None:
            total = self.base
            for ch in self.channels.values():
                total = total + ch.part
            self._matrix = total.tocsr()
        return self._matrix

    def channel(self, channel_id: str) -> JumpChannel:
        try:
            return self.channels[channel_id]
        except KeyError:
            raise KeyError(
                f"unknown channel {channel_id!r}; have {sorted(self.channels)}"
            ) from None

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Action d rho / dt = L[rho] on a density matrix."""
        return devectorize(self.matrix @ vectorize(rho))


@dataclass
class LiouvillianSpectrum:
    """Full eigendecomposition L = V diag(alphas) V^-1."""

    alphas: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray  # rows of V^-1, biorthogonal to the columns of V
    zero_index: int

    @property
    def n_stationary(self) -> int:
        return int(np.sum(np.abs(self.alphas) <= STATIONARY_TOL))

    def slowest_decay_rate(self) -> float:
        """|Re alpha| of the slowest non-stationary mode (sets relaxation t_max)."""
        mask = np.abs(self.alphas) > STATIONARY_TOL
        if not np.any(mask):
            raise ValueError("no non-stationary modes")
        rates = -self.alphas[mask].real
        slowest = float(rates.min())
        if slowest <= 1e-12:
            raise ValueError(f"undamped non-stationary mode (rate {slowest:.3e})")
        return slowest


def _dissipator_parts(jump: np.ndarray, rate: float) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """(sandwich, anticommutator) pieces of rate * D[jump]."""
    gain = rate * sandwich(jump, jump.conj().T)
    cdc = jump.conj().T @ jump
    anti = (-0.5 * rate) * (spre(cdc) + spost(cdc))
    return gain.tocsr(), anti.tocsr()


def thermal_dissipator(a_op: np.ndarray, gamma_b: float, n_bar: float,
                       grouping: str = "lindblad") -> sp.csr_matrix:
    """Resonator damping superoperator at occupation n_bar.

    ``grouping="lindblad"`` is the trace-preserving standard form
    gamma_b (1+n_bar) D[a] + gamma_b n_bar D[a^dag]. ``grouping="printed"``
    follows the literal equation of motion, a gamma_b/2 decay line plus an
    n_bar gamma_b line whose anticommutator uses a^dag a for both sandwich
    terms; it exceeds the standard form by gamma_b n_bar/2 {a a^dag - a^dag a, .}
    and is kept only for the regrouping diagnostic.
    """
    adag = a_op.conj().T
    if grouping == "lindblad":
        gain_e, anti_e = _dissipator_parts(a_op, gamma_b * (1.0 + n_bar))
        gain_a, anti_a = _dissipator_parts(adag, gamma_b * n_bar)
        return (gain_e + anti_e + gain_a + anti_a).tocsr()
    if grouping == "printed":
        num = adag @ a_op
        decay = 0.5 * gamma_b * (2.0 * sandwich(a_op, adag) - spre(num) - spost(num))
        thermal = (gamma_b * n_bar) * (
            sandwich(a_op, adag) + sandwich(adag, a_op) - spre(num) - spost(num)
        )
        return (decay + thermal).tocsr()
    raise ValueError(f"unknown grouping {grouping!r}")


def assemble_liouvillian(h: np.ndarray,
                         jumps: list[tuple[str, float, np.ndarray, bool]]) -> Superoperator:
    """Build a generator from a Hamiltonian and (id, rate, jump_op, counted) terms."""
    dev = np.max(np.abs(h - h.conj().T)) if h.size else 0.0
    if dev > 1e-12:
        raise ValueError(f"Hamiltonian must be Hermitian (deviation {dev:g})")
    d = h.shape[0]
    base = (-1j * (spre(h) - spost(h))).tocsr()
    channels: dict[str, JumpChannel] = {}
    for cid, rate, jump, counted in jumps:
        if cid in channels:
            raise ValueError(f"duplicate channel id {cid!r}")
        if rate < 0:
            raise ValueError(f"channel {cid!r} has negative rate {rate}")
        gain, anti = _dissipator_parts(jump, rate)
        base = (base + anti).tocsr()
        channels[cid] = JumpChannel(id=cid, part=gain, counted=counted)
    return Superoperator(dim_rho=d, base=base, channels=channels)


def build_liouvillian(h: np.ndarray, params: ModelParams,
                      ops: OperatorSet | None = None) -> Superoperator:
    """Transport Liouvillian: -i[H, .] plus lead injection/emission and
    thermal resonator damping, with the four labeled jump channels."""
    space = params.space()
    if h.shape != (space.dim, space.dim):
        raise ValueError(
            f"Hamiltonian shape {h.shape} does not match dim {space.dim} "
            f"from n_fock={params.n_fock}"
        )
    ops = ops or build_operators(space)
    n_bar = thermal_occupation(params.omega_b, params.temperature)
    return assemble_liouvillian(
        h,
        [
            ("in", params.gamma_L, ops.s_L.conj().T, False),
            ("e", params.gamma_R, ops.s_R, True),
            ("b", params.gamma_b * (1.0 + n_bar), ops.a, True),
            ("b_abs", params.gamma_b * n_bar, ops.adag, False),
        ],
    )


def counting_liouvillian(liouv: Superoperator, s: dict[str, float]) -> Superoperator:
    """Counting-field deformation M(s) = base + sum_i s_i * channel_i.

    Multipliers may be given for the counted channels only; uncounted
    channels stay at 1. M(1, ..., 1) equals the undeformed generator
    exactly.
    """
    counted = {cid for cid, ch in liouv.channels.items() if ch.counted}
    unknown = set(s) - counted
    if unknown:
        raise KeyError(
            f"multipliers for unknown or uncounted channels: {sorted(unknown)}; "
            f"counted channels are {sorted(counted)}"
        )
    channels = {
        cid: JumpChannel(id=cid, part=float(s.get(cid, 1.0)) * ch.part, counted=ch.counted)
        for cid, ch in liouv.channels.items()
    }
    return Superoperator(dim_rho=liouv.dim_rho, base=liouv.base, channels=channels)


def spectrum(liouv: Superoperator) -> LiouvillianSpectrum:
    """Dense eigendecomposition of the generator.

    Raises MethodUnavailable if the eigenvector basis fails the
    biorthogonality tolerance (defective or severely ill-conditioned L);
    the resolvent-based noise path does not depend on this.
    """
    if liouv._spectrum is not None:
        return liouv._spectrum
    dense = liouv.matrix.toarray()
    alphas, v = la.eig(dense)
    try:
        vinv = la.inv(v)
    except la.LinAlgError as exc:
        raise MethodUnavailable(f"eigenvector basis is singular: {exc}") from exc
    defect = np.max(np.abs(vinv @ v - np.eye(v.shape[0])))
    if defect > BIORTHOGONALITY_TOL:
        raise MethodUnavailable(
            f"eigendecomposition failed biorthogonality check "
            f"(defect {defect:.3e} > {BIORTHOGONALITY_TOL:g}); "
            "eigen-expansion method unavailable for this generator"
        )
    zero_index = int(np.argmin(np.abs(alphas)))
    result = LiouvillianSpectrum(
        alphas=alphas, right_vectors=v, left_vectors=vinv, zero_index=zero_index
    )
    liouv._spectrum = result
    return result


def trace_defect(liouv: Superoperator) -> float:
    """Max-norm of the trace row 1^T L; zero for a trace-preserving generator."""
    t = trace_vector(liouv.dim_rho)
    return float(np.max(np.abs(t @ liouv.matrix)))
