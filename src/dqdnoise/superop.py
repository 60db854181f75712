"""Vectorized Liouvillian of the transport master equation.

Column-stacking vectorization is the fixed convention: vec(rho)[i + j*D]
= rho[i, j], so vec(A rho B) = kron(B.T, A) vec(rho). The generator is
split into the no-jump base -i(H_eff rho - rho H_eff^dag), H_eff = H -
(i/2) sum Gamma X^dag X (Plenio & Knight, Rev. Mod. Phys. 70, 101 (1998)),
and labeled completely positive jump channels Gamma X rho X^dag, which
carry the counting fields:

  in     injection  Gamma_L s_L^dag rho s_L            (not counted)
  e      emission   Gamma_R s_R rho s_R^dag            (counted)
  b      phonon emission gamma_b (1 + n_bar) a rho a^dag   (counted)
  b_abs  thermal absorption gamma_b n_bar a^dag rho a  (not counted)

The thermal lines are assembled in the standard (1+n_bar)-emission /
n_bar-absorption Lindblad grouping, which is trace preserving; the
literal printed grouping (anticommutators taken with a^dag a on both
thermal lines) is available from :func:`thermal_dissipator` for the
regrouping diagnostic, and differs by gamma_b n_bar/2 {a a^dag - a^dag a, rho}.

A :class:`Superoperator` is built complete: its total, its sector blocks
and its steady system are plain fields that every builder fills. Its kept
block lists its vec indices in one reverse Cuthill-McKee order with vec
index 0 last, and every sparse LU of that block factors in it. Every
command takes its transport generators from a :class:`GeneratorPlan`, built
once per run, which forms each point's generator on one fixed sparse
pattern without kron products; :func:`build_liouvillian` is the kron
assembly it is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .errors import MethodUnavailable
from .model import HilbertSpace, ModelParams, OperatorSet, build_operators, hamiltonian_terms

__all__ = [
    "JumpChannel",
    "Superoperator",
    "GeneratorPlan",
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
    "eigenvalues",
    "hermitian_basis",
    "real_kept_block",
    "kept_eig",
    "slowest_decay_rate",
    "stationary_count",
    "charge_sector",
    "sector_leak",
    "trace_replaced_system",
    "trace_defect",
]

STATIONARY_TOL = 1e-8
BIORTHOGONALITY_TOL = 1e-8
#: largest kept block ``blocks[0]`` taken dense (the resolvent's pole-residue sweep, a
#: failed-solve diagnosis, an automatic MacDonald t_max): n_fock 15's, where :func:`eigenvalues`
#: takes 5.4 s (one BLAS thread) and V with the LU of its real form keep 24 n^2 bytes, 39 MB
DENSE_MAX_DIM = 1280


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
    """One completely positive jump term Gamma X rho X^dag of the generator,
    kept in :attr:`Superoperator.channels` under its id."""

    part: sp.csr_matrix
    counted: bool


@dataclass
class Superoperator:
    """Generator acting on vectorized density matrices, built complete.

    ``base`` is the no-jump generator of the effective Hamiltonian H_eff,
    ``channels`` maps each channel id to its jump term, and ``matrix`` is
    the total, base plus the channel parts added in channel order.
    ``blocks`` holds the vec indices of the blocks that no entry of L or of
    a channel couples: the charge sector, then the coherences (0, X) and
    (X, 0); all indices as one block when L is not dot (x) Fock or they
    leak. The first, kept block lists its indices in the order every sparse
    LU of it factors them in (:func:`_factor_order`, vec index 0 last), the
    others sorted. ``system`` is :func:`trace_replaced_system` on the first
    block, the matrix the steady state is solved with. Both builders,
    :func:`assemble_liouvillian` and :meth:`GeneratorPlan.generator`, set
    every field; only the eigendecompositions (:func:`kept_eig`,
    :func:`spectrum`) are formed on first use and kept. Instances are treated
    as immutable after construction and are safe to share across threads.
    """

    dim_rho: int
    base: sp.csr_matrix
    channels: dict[str, JumpChannel]
    matrix: sp.csr_matrix = field(repr=False)
    blocks: list[np.ndarray] = field(repr=False)
    system: sp.csc_matrix = field(repr=False)
    _kept_eig: tuple | None = field(default=None, repr=False)
    _spectrum: "LiouvillianSpectrum | None" = field(default=None, repr=False)

    def channel(self, channel_id: str) -> JumpChannel:
        try:
            return self.channels[channel_id]
        except KeyError:
            raise KeyError(
                f"unknown channel {channel_id!r}; have {sorted(self.channels)}"
            ) from None


@dataclass
class LiouvillianSpectrum:
    """Eigendecomposition L = V diag(alphas) V^-1 with V block diagonal:
    ``blocks`` holds (vec indices, V_b, V_b^-1) per sector block of
    :class:`Superoperator`, and ``alphas`` the eigenvalues at their block's vec indices."""

    alphas: np.ndarray
    blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    zero_index: int

    @property
    def n_stationary(self) -> int:
        return stationary_count(self.alphas)

    def slowest_decay_rate(self) -> float:
        """|Re alpha| of the slowest non-stationary mode (sets relaxation t_max)."""
        return _slowest_rate(self.alphas)


def stationary_count(alphas: np.ndarray) -> int:
    """Number of eigenvalues within ``STATIONARY_TOL`` of zero."""
    return int(np.sum(np.abs(alphas) <= STATIONARY_TOL))


def _slowest_rate(alphas: np.ndarray) -> float:
    mask = np.abs(alphas) > STATIONARY_TOL
    if not np.any(mask):
        raise ValueError("no non-stationary modes")
    slowest = float((-alphas[mask].real).min())
    if slowest <= 1e-12:
        raise ValueError(f"undamped non-stationary mode (rate {slowest:.3e})")
    return slowest


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
        return assemble_liouvillian(np.zeros_like(a_op), [
            ("b", gamma_b * (1.0 + n_bar), a_op, True),
            ("b_abs", gamma_b * n_bar, adag, False),
        ]).matrix
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
    """Build a generator from a Hamiltonian and (id, rate, jump_op, counted) terms:
    the no-jump base of H_eff = H - (i/2) sum rate X^dag X, one part rate X . X^dag
    each, by kron; then the total, the sector blocks and the steady system."""
    dev = np.max(np.abs(h - h.conj().T)) if h.size else 0.0
    if dev > 1e-12:
        raise ValueError(f"Hamiltonian must be Hermitian (deviation {dev:g})")
    h_eff = np.array(h, dtype=complex)
    channels: dict[str, JumpChannel] = {}
    for cid, rate, jump, counted in jumps:
        if cid in channels:
            raise ValueError(f"duplicate channel id {cid!r}")
        if rate < 0:
            raise ValueError(f"channel {cid!r} has negative rate {rate}")
        jdag = jump.conj().T
        h_eff -= 0.5j * rate * (jdag @ jump)
        channels[cid] = JumpChannel(part=rate * sandwich(jump, jdag), counted=counted)
    base = spre(-1j * h_eff) + spost(1j * h_eff.conj().T)
    parts = [ch.part for ch in channels.values()]
    matrix = sum(parts, base).tocsr()  # base + parts, added in channel order
    blocks = _sector_split(h.shape[0], [matrix, *parts])
    return Superoperator(dim_rho=h.shape[0], base=base, channels=channels, matrix=matrix,
                         blocks=blocks, system=trace_replaced_system(matrix, blocks[0]))


def _transport_jumps(ops: OperatorSet) -> list[tuple[str, np.ndarray, bool]]:
    """(id, jump operator, counted) of the four transport channels, in channel order."""
    return [("in", ops.s_L.conj().T, False), ("e", ops.s_R, True),
            ("b", ops.a, True), ("b_abs", ops.adag, False)]


def _transport_rates(params: ModelParams) -> list[float]:
    """The rates of the :func:`_transport_jumps` channels at ``params``."""
    n_bar = thermal_occupation(params.omega_b, params.temperature)
    return [params.gamma_L, params.gamma_R,
            params.gamma_b * (1.0 + n_bar), params.gamma_b * n_bar]


def build_liouvillian(h: np.ndarray, params: ModelParams) -> Superoperator:
    """Transport Liouvillian: -i[H, .] plus lead injection/emission and
    thermal resonator damping, with the four labeled jump channels, by kron
    assembly (the reference that :class:`GeneratorPlan` is checked against)."""
    space = params.space()
    if h.shape != (space.dim, space.dim):
        raise ValueError(
            f"Hamiltonian shape {h.shape} does not match dim {space.dim} "
            f"from n_fock={params.n_fock}"
        )
    jumps = _transport_jumps(build_operators(space))
    return assemble_liouvillian(h, [(cid, rate, jump, counted) for (cid, jump, counted), rate
                                    in zip(jumps, _transport_rates(params))])


class GeneratorPlan:
    """Every transport generator of one (n_fock, hamiltonian) on one sorted
    CSR pattern.

    L is linear in the Hamiltonian's ModelParams fields and in each
    channel's rate, the affine form QuTiP builds its generators in
    (Johansson, Nation & Nori, Comput. Phys. Commun. 184, 1234 (2013)). The
    plan keeps the Hamiltonian's terms and each channel's X^dag X as D x D
    operators, each channel's sandwich X . X^dag, the union pattern of L
    with int32 maps into it from M = -i H_eff (``base`` = spre(M) +
    spost(M^dag) repeats M's entries along the diagonal blocks) and from
    each sandwich, that pattern's sector blocks (a zero coefficient only
    removes entries, so they hold at every point), the kept block ordered
    from that pattern once for every factorization of the run, and the
    gather map from L's data to its :func:`trace_replaced_system`. A point's
    generator then takes a few scaled additions of D x D and data arrays: no
    kron, no dense product, no sparse addition. Read-only after
    construction, so worker threads share one plan.
    """

    def __init__(self, n_fock: int, hamiltonian: str = "full"):
        ops = build_operators(HilbertSpace(n_fock=n_fock))
        d = ops.space.dim
        d2 = d * d
        self.n_fock, self.hamiltonian, self.dim_rho = n_fock, hamiltonian, d
        self._terms = hamiltonian_terms(hamiltonian, ops)
        jumps = _transport_jumps(ops)
        self._channels = [(cid, counted) for cid, _, counted in jumps]
        self._decays = [c.conj().T @ c for _, c, _ in jumps]
        self._parts = [sandwich(c, c.conj().T) for _, c, _ in jumps]
        # spre(M) holds M[i, j] at (k d + i, k d + j), spost(M^dag) M^dag[j, i] at
        # (i d + k, j d + k), for every k and every (i, j) that some term reaches
        i, j = np.nonzero(sum(abs(x) for x in [x for _, x in self._terms] + self._decays))
        k = np.arange(d)[:, None]
        pre = ((k * d + i) * d2 + k * d + j).ravel()
        post = ((i * d + k) * d2 + j * d + k).ravel()
        self._sources = [np.broadcast_to(i * d + j, (d, i.size)).ravel(),
                         np.broadcast_to(j * d + i, (d, i.size)).ravel()]
        keys = [pre, post] + [np.repeat(np.arange(d2), np.diff(m.indptr)) * d2 + m.indices
                              for m in self._parts]
        union = np.unique(np.concatenate(keys))
        self._indptr = np.searchsorted(union, np.arange(d2 + 1) * d2).astype(np.int32)
        self._indices = (union % d2).astype(np.int32)
        self._where = [np.searchsorted(union, key).astype(np.int32) for key in keys]
        # L's pattern with data 2 + position: the steady system built from it holds 2 +
        # the position of each entry's source, and 1 for the trace row's ones, which
        # generator() keeps at position -1 of its data array
        coded = sp.csr_matrix((np.arange(2.0, union.size + 2), self._indices, self._indptr),
                              shape=(d2, d2))
        self.blocks = _sector_split(d, [coded])
        gather = trace_replaced_system(coded, self.blocks[0])
        self._gather = gather.data.real.astype(np.intp) - 2
        self._system_pattern = (gather.indices, gather.indptr)
        for a in (self._indptr, self._indices, self._gather, *self.blocks, *self._where,
                  *self._sources, *self._system_pattern, *self._decays,
                  *(m for p in self._parts for m in (p.data, p.indices, p.indptr))):
            a.setflags(write=False)

    def generator(self, params: ModelParams) -> Superoperator:
        """The transport Liouvillian at ``params``, with its total, sector
        blocks and steady system filled in. H_eff, each channel part and the
        order of every addition are those of :func:`build_liouvillian`."""
        if params.n_fock != self.n_fock:
            raise ValueError(f"params.n_fock {params.n_fock} does not match the plan's "
                             f"{self.n_fock}")
        rates = _transport_rates(params)
        data = np.zeros(self._indices.size + 1, dtype=complex)
        (pre, post), parts = self._where[:2], self._where[2:]
        with np.errstate(over="ignore", invalid="ignore"):  # the steady solve names inf/NaN
            h_eff = sum(getattr(params, name) * x for name, x in self._terms)
            for rate, decay in zip(rates, self._decays):
                h_eff = h_eff - 0.5j * rate * decay
            data[pre] = (-1j * h_eff).ravel()[self._sources[0]]
            data[post] += (1j * h_eff.conj().T).ravel()[self._sources[1]]
        shape = (self.dim_rho**2,) * 2
        base = sp.csr_matrix((data[:-1].copy(), self._indices, self._indptr), shape=shape)
        channels = {}
        for (cid, counted), rate, where, m in zip(self._channels, rates, parts, self._parts):
            part = rate * m
            data[where] += part.data  # the total in channel order, as assemble_liouvillian adds it
            channels[cid] = JumpChannel(part=part, counted=counted)
        data[-1] = 1.0  # the trace row's ones in the steady system
        n = self.blocks[0].size
        system = sp.csc_matrix((data[self._gather], *self._system_pattern), shape=(n, n),
                               copy=True)
        matrix = sp.csr_matrix((data[:-1], self._indices, self._indptr), shape=shape, copy=True)
        for m in (system, matrix):
            m.eliminate_zeros()  # a zero coefficient's entries would cost SuperLU as much as any
        return Superoperator(dim_rho=self.dim_rho, base=base, channels=channels,
                             matrix=matrix, blocks=self.blocks, system=system)


def counting_liouvillian(liouv: Superoperator, s: dict[str, float]) -> sp.csr_matrix:
    """Counting-field deformation M(s) = base + sum_i s_i * channel_i, summed
    in channel order.

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
    return sum((float(s.get(cid, 1.0)) * ch.part for cid, ch in liouv.channels.items()),
               liouv.base).tocsr()


def hermitian_basis(dim_rho: int, block: np.ndarray) -> sp.csc_matrix:
    """Unitary u from the Hermitian basis |i><i|, (|i><j| + |j><i|)/sqrt 2,
    i(|j><i| - |i><j|)/sqrt 2 (i < j) of the vec indices ``block``, which hold
    the transpose of each of their indices, to those indices. Its columns
    follow the sorted vec indices and its rows the order of ``block``, so
    the basis does not depend on that order. A Lindblad generator maps
    Hermitian matrices to Hermitian matrices, so u^H L_blk u is real."""
    pos = np.full(dim_rho**2, -1)
    pos[block] = np.arange(block.size)
    vec = np.sort(block)
    transposed = vec % dim_rho * dim_rho + vec // dim_rho  # rho[i, j] -> rho[j, i]
    if np.any(pos[transposed] < 0):
        raise ValueError("block is not closed under transposition")
    k, s = np.arange(block.size), math.sqrt(0.5)
    # a diagonal index's two entries sum to 1
    own = np.select([vec < transposed, vec > transposed], [s, -1j * s], 0.5)
    return sp.csc_matrix((np.concatenate([own, own.conj()]),
                          (np.concatenate([pos[vec], pos[transposed]]), np.concatenate([k, k]))),
                         shape=(block.size, block.size))


def real_kept_block(liouv: Superoperator) -> tuple[sp.csc_matrix, np.ndarray]:
    """(u, a) with L_blk = u a u^H on the kept block ``blocks[0]``: u from
    :func:`hermitian_basis`, a = Re(u^H L_blk u) dense and Fortran-ordered."""
    kept = liouv.blocks[0]
    u = hermitian_basis(liouv.dim_rho, kept)
    return u, (u.conj().T @ liouv.matrix[kept][:, kept] @ u).real.toarray(order="F")


def kept_eig(liouv: Superoperator) -> tuple[sp.csc_matrix, np.ndarray, np.ndarray]:
    """(u, lambda, V), L_blk = u V diag(lambda) V^-1 u^H on the kept block: one real
    ``eig`` of :func:`real_kept_block`, kept for :func:`spectrum` and the resolvent."""
    if liouv._kept_eig is None:
        u, a = real_kept_block(liouv)
        liouv._kept_eig = (u, *la.eig(a, overwrite_a=True))
    return liouv._kept_eig


def _coherence_blocks(liouv: Superoperator):
    """(vec indices, dense block) of each sector block after the kept one, one at a time."""
    for idx in liouv.blocks[1:]:
        yield idx, liouv.matrix[idx][:, idx].toarray()


def spectrum(liouv: Superoperator) -> LiouvillianSpectrum:
    """Dense eigendecomposition of the generator, one of its sector ``blocks``
    at a time; a mode sits at its block's vec indices. The kept block takes
    :func:`kept_eig`, a real ``eig`` in its Hermitian basis u, so there
    V_b = u V and V_b^-1 = V^-1 u^H; the coherence blocks take a complex one.

    Raises MethodUnavailable if the eigenvector basis fails the
    biorthogonality tolerance (defective or severely ill-conditioned L);
    the resolvent-based noise path does not depend on this.
    """
    if liouv._spectrum is not None:
        return liouv._spectrum
    alphas = np.empty(liouv.dim_rho**2, dtype=complex)
    u, alphas[liouv.blocks[0]], vb = kept_eig(liouv)
    blocks = []
    for idx, dense in chain([(liouv.blocks[0], None)], _coherence_blocks(liouv)):
        if dense is not None:
            alphas[idx], vb = la.eig(dense)
        try:
            vbinv = la.inv(vb)
        except la.LinAlgError as exc:
            raise MethodUnavailable(f"eigenvector basis is singular: {exc}") from exc
        defect = np.max(np.abs(vbinv @ vb - np.eye(idx.size)))
        if defect > BIORTHOGONALITY_TOL:
            raise MethodUnavailable(
                f"eigendecomposition failed biorthogonality check "
                f"(defect {defect:.3e} > {BIORTHOGONALITY_TOL:g}); "
                "eigen-expansion method unavailable for this generator"
            )
        blocks.append((idx, u @ vb, vbinv @ u.conj().T) if dense is None else (idx, vb, vbinv))
    result = LiouvillianSpectrum(alphas=alphas, blocks=blocks,
                                 zero_index=int(np.argmin(np.abs(alphas))))
    liouv._spectrum = result
    return result


def eigenvalues(liouv: Superoperator) -> np.ndarray:
    """Eigenvalues of the generator, one dense ``eigvals`` per sector block, the
    kept block's real in its Hermitian basis (:func:`real_kept_block`)."""
    return np.concatenate([la.eigvals(real_kept_block(liouv)[1]),
                           *(la.eigvals(dense) for _, dense in _coherence_blocks(liouv))])


def slowest_decay_rate(liouv: Superoperator) -> float:
    """|Re alpha| of the generator's slowest non-stationary mode, from the
    cached eigendecomposition if there is one, else from eigenvalues alone."""
    if liouv._spectrum is not None:
        return liouv._spectrum.slowest_decay_rate()
    return _slowest_rate(eigenvalues(liouv))


def charge_sector(dim_rho: int) -> np.ndarray | None:
    """Mask over the vec indices of a dot (x) Fock generator of the
    charge-sector ("kept") block, rho[i, j] with equal dot charges (both
    empty or both occupied); the transport generator never couples it to
    the empty-occupied coherences (Buca & Prosen, New J. Phys. 14, 073007
    (2012)). None when ``dim_rho`` is not 3 (n_fock + 1)."""
    if dim_rho % 3:
        return None
    occupied = np.arange(dim_rho) >= dim_rho // 3  # dot index k // (n_fock + 1) != DOT_EMPTY
    return (occupied[:, None] == occupied[None, :]).ravel(order="F")


def sector_leak(matrices: list[sp.csr_matrix], labels: np.ndarray) -> int:
    """Nonzero entries of the CSR ``matrices`` that couple vec indices of
    different ``labels`` (a block mask, or one block label per index)."""
    leak = 0
    for m in matrices:
        rows = np.repeat(labels, np.diff(m.indptr))
        leak += int(np.count_nonzero((rows != labels[m.indices]) & (m.data != 0)))
    return leak


def _sector_split(dim_rho: int, matrices: list[sp.csr_matrix]) -> list[np.ndarray]:
    """:class:`Superoperator`'s ``blocks`` for a generator whose entries, and
    its channels', are those of ``matrices``; the first block in the
    :func:`_factor_order` of ``matrices[0]``, the others sorted."""
    blocks = [np.arange(dim_rho**2)]
    kept = charge_sector(dim_rho)
    if kept is not None:
        # 1 kept, 2 (0, X) above the diagonal of rho, 0 (X, 0) below it
        labels = kept + 2 * vectorize(np.triu(devectorize(~kept), 1))
        if not sector_leak(matrices, labels):
            blocks = [np.flatnonzero(labels == k) for k in (1, 2, 0)]
    blocks[0] = _factor_order(matrices[0], blocks[0])
    return blocks


def _factor_order(matrix: sp.csr_matrix, block: np.ndarray) -> np.ndarray:
    """The sorted vec indices ``block``, which start at vec index 0, in the
    order every sparse LU of the block factors them: reverse Cuthill-McKee
    (Cuthill & McKee, Proc. 24th ACM Natl. Conf. 157 (1969)) of |A| + |A^T|
    for ``matrix`` on the block without vec index 0, then vec index 0, whose
    row the steady system replaces by the dense trace row."""
    rest = block[1:]
    a = abs(matrix[rest][:, rest])
    return np.append(rest[reverse_cuthill_mckee((a + a.T).tocsr(), symmetric_mode=True)], 0)


def trace_replaced_system(matrix: sp.csr_matrix, block: np.ndarray) -> sp.csc_matrix:
    """The generator ``matrix`` on the vec indices ``block``, in their order,
    which hold index 0 and every diagonal index and which no entry couples to
    the rest, with the row of vec index 0 (a trace-block row) replaced by the
    trace constraint: the matrix of the steady-state solve, whose right-hand
    side is 1 at that row and 0 elsewhere."""
    d = math.isqrt(matrix.shape[0])
    pos = np.full(d * d, -1)
    pos[block] = np.arange(block.size)
    coo = matrix.tocoo()
    keep = (pos[coo.row] >= 0) & (coo.row != 0)  # rows of the block but vec index 0's
    rows = np.concatenate([pos[coo.row[keep]], np.full(d, pos[0])])
    cols = np.concatenate([pos[coo.col[keep]], pos[np.arange(d) * (d + 1)]])
    data = np.concatenate([coo.data[keep], np.ones(d, dtype=complex)])
    return sp.csc_matrix((data, (rows, cols)), shape=(block.size, block.size))


def trace_defect(liouv: Superoperator) -> float:
    """Max-norm of the trace row 1^T L; zero for a trace-preserving generator."""
    t = trace_vector(liouv.dim_rho)
    return float(np.max(np.abs(t @ liouv.matrix)))
