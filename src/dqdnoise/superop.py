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

A :class:`Superoperator` is built complete: the entries of its total, its
sector blocks and L on the kept block are plain fields that every builder
fills, and its steady system is one too or is formed on first use from what
the builder passed. Its kept block lists its vec indices in one reverse
Cuthill-McKee order with vec index 0 last, and every sparse LU of that block
factors in it. Every
command takes its transport generators from a :class:`GeneratorPlan`, one
per (n_fock, Hamiltonian) per process (:func:`generator_plan`), which forms
each point's generator on one fixed sparse pattern without kron products;
:func:`build_liouvillian` is the kron assembly it is tested against.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .model import HilbertSpace, ModelParams, OperatorSet, build_operators, hamiltonian_terms

__all__ = [
    "JumpChannel",
    "Superoperator",
    "KroneckerSum",
    "GeneratorPlan",
    "generator_plan",
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
    "hermitian_basis",
    "real_kept_block",
    "kept_eig",
    "charge_sector",
    "sector_leak",
    "trace_replaced_system",
    "trace_defect",
]

STATIONARY_TOL = 1e-8
#: largest kept block ``blocks[0]`` taken dense (the resolvent's pole-residue sweep, the eigen
#: method, a failed-solve diagnosis, an automatic MacDonald t_max): n_fock 15's, where
#: :func:`spectrum` takes 0.9-1.0 s at T = 0 and 1.3-1.4 s at T = 1 (one BLAS thread, 2-core
#: Xeon) and V with the LU of its real form keep 24 n^2 bytes, 39 MB
DENSE_MAX_DIM = 1280
#: plans :func:`generator_plan` keeps; one holds 0.3, 3.0 and 15.8 MB at n_fock 6, 25 and 58
PLAN_CACHE_SIZE = 8


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


def _kron(a: np.ndarray, b: np.ndarray) -> sp.csr_matrix:
    """``scipy.sparse.kron(a, b, format="csr")`` of dense a and b, bit for bit: one outer
    product of their nonzeros, put in row order (within a row, in a's order, then b's)."""
    (ra, ca), (rb, cb) = np.nonzero(a), np.nonzero(b)
    (ma, na), (mb, nb) = a.shape, b.shape
    rows = (ra[:, None] * mb + rb).ravel()
    order = np.argsort(rows, kind="stable")
    indptr = np.zeros(ma * mb + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=ma * mb), out=indptr[1:])
    return sp.csr_matrix((np.multiply.outer(a[ra, ca], b[rb, cb]).ravel()[order],
                          (ca[:, None] * nb + cb).ravel()[order], indptr),
                         shape=(ma * mb, na * nb))


def spre(op: np.ndarray) -> sp.csr_matrix:
    """Superoperator for left multiplication, rho -> op rho."""
    return _kron(np.eye(op.shape[0]), op)


def spost(op: np.ndarray) -> sp.csr_matrix:
    """Superoperator for right multiplication, rho -> rho op."""
    return _kron(op.T, np.eye(op.shape[0]))


def sandwich(left: np.ndarray, right: np.ndarray) -> sp.csr_matrix:
    """Superoperator for rho -> left rho right."""
    return _kron(right.T, left)


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


def _wrap(m: sp.csr_matrix) -> sp.csr_matrix:
    """A new CSR matrix over the arrays of ``m``: rebinding its attributes changes no other."""
    return sp.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)


@dataclass
class JumpChannel:
    """One completely positive jump term Gamma X rho X^dag of the generator,
    kept in :attr:`Superoperator.channels` under its id: ``unit`` is X . X^dag,
    ``kept`` that on the kept block in block order and ``row`` its trace row
    there. A :class:`GeneratorPlan`'s generators share the arrays of all
    three; ``unit`` and ``kept`` are each a new matrix over them on every read."""

    rate: float
    _unit: sp.csr_matrix
    _kept: sp.csr_matrix
    row: np.ndarray
    counted: bool

    @property
    def unit(self) -> sp.csr_matrix:
        return _wrap(self._unit)

    @property
    def kept(self) -> sp.csr_matrix:
        return _wrap(self._kept)

    @property
    def part(self) -> sp.csr_matrix:
        """The jump term Gamma X . X^dag, formed on each use."""
        return self.rate * self._unit


@dataclass
class Superoperator:
    """Generator acting on vectorized density matrices, built complete.

    ``h_eff`` is the effective Hamiltonian of the no-jump :attr:`base`,
    ``channels`` maps each channel id to its jump term, and ``data`` holds the
    total :attr:`matrix`, base plus the channel parts in channel order, on the
    CSR ``pattern`` (indices, indptr). ``blocks`` holds the vec indices of the
    blocks that no entry of L or of a channel couples: the charge sector, then
    the coherences (0, X) and (X, 0); all indices as one block when L is not
    dot (x) Fock or they leak. The first, kept block lists its indices in the
    order every sparse LU of it factors them in (:func:`_factor_order`, vec
    index 0 last), the (X, 0) half sorted and the (0, X) half as their
    transposes (:func:`_sector_split`). On it, in that order, ``kept`` is L,
    ``system`` the :func:`trace_replaced_system` the steady state is solved
    with, ``trace`` the trace row and ``partner`` the position of each index's
    transpose. ``uncoupled`` is the generator at g = 0 on the kept block as
    a :class:`KroneckerSum`, or None (a plan sets it above
    ``DENSE_MAX_DIM``). Both builders, :func:`assemble_liouvillian` and
    :meth:`GeneratorPlan.generator`, set every field; ``base``, ``matrix`` and
    the channel parts, D^2 x D^2 operators that no solve reads, are formed on
    each use, and ``system`` (which only a sparse LU reads; a builder may pass
    the function that forms it) and the kept block's eigendecomposition
    (:func:`kept_eig`) on first use and kept. Instances are treated as
    immutable after construction and are safe to share across threads.
    """

    dim_rho: int
    h_eff: np.ndarray = field(repr=False)
    channels: dict[str, JumpChannel] = field(repr=False)
    data: np.ndarray = field(repr=False)
    pattern: tuple[np.ndarray, np.ndarray] = field(repr=False)
    blocks: tuple[np.ndarray, ...] = field(repr=False)
    kept: sp.csc_matrix = field(repr=False)
    _system: sp.csc_matrix | Callable[[], sp.csc_matrix] = field(repr=False)
    trace: np.ndarray = field(repr=False)
    partner: np.ndarray = field(repr=False)
    uncoupled: KroneckerSum | None = field(repr=False)
    _kept_eig: tuple | None = field(default=None, repr=False)

    def channel(self, channel_id: str) -> JumpChannel:
        try:
            return self.channels[channel_id]
        except KeyError:
            raise KeyError(
                f"unknown channel {channel_id!r}; have {sorted(self.channels)}"
            ) from None

    @property
    def system(self) -> sp.csc_matrix:
        """The :func:`trace_replaced_system` of the kept block, in block order."""
        if callable(self._system):
            self._system = self._system()
        return self._system

    @property
    def base(self) -> sp.csr_matrix:
        """The no-jump generator -i(H_eff . - . H_eff^dag)."""
        return _no_jump(self.h_eff)

    @property
    def matrix(self) -> sp.csr_matrix:
        """The total L, without the entries a zero coefficient leaves on ``pattern``."""
        m = sp.csr_matrix((self.data, *self.pattern), shape=(self.dim_rho**2,) * 2, copy=True)
        m.eliminate_zeros()
        return m


@dataclass(frozen=True)
class KroneckerSum:
    """A transport generator at g = 0 on its kept block, L0 = A (x) 1 + 1 (x) B.

    The block's vector ``x`` reads in the (dot pair p, resonator pair r)
    layout as ``x[order].reshape(5, -1)[p, r]``, and a layout vector ``y`` in
    block order as ``y[position]``. ``dot`` is A, the dot's
    generator on its charge-sector vec indices, those of (empty, empty),
    (L, L), (R, L), (L, R) and (R, R). B is the resonator's, with its pairs
    (n, n') listed by coherence order m = n - n' and then by n, where it is
    tridiagonal: ``bands`` holds B[i + 1, i], B[i, i] and B[i, i + 1] at i,
    the last of the first and third rows 0. ``populations`` is the run of
    the m = 0 pairs, n = 0 first.
    """

    order: np.ndarray
    position: np.ndarray
    dot: np.ndarray
    bands: np.ndarray
    populations: slice


@dataclass
class LiouvillianSpectrum:
    """Eigenvalues of a generator, ``alphas[k]`` at vec index k of its sector block."""

    alphas: np.ndarray

    @property
    def n_stationary(self) -> int:
        """Number of eigenvalues within ``STATIONARY_TOL`` of zero."""
        return int(np.sum(np.abs(self.alphas) <= STATIONARY_TOL))

    def slowest_decay_rate(self) -> float:
        """|Re alpha| of the slowest non-stationary mode (sets relaxation t_max)."""
        mask = np.abs(self.alphas) > STATIONARY_TOL
        if not np.any(mask):
            raise ValueError("no non-stationary modes")
        slowest = float((-self.alphas[mask].real).min())
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
        return (_dissipator(a_op, gamma_b * (1.0 + n_bar))
                + _dissipator(adag, gamma_b * n_bar)).tocsr()
    if grouping == "printed":
        num = adag @ a_op
        thermal = (gamma_b * n_bar) * (
            sandwich(a_op, adag) + sandwich(adag, a_op) - spre(num) - spost(num)
        )
        return (_dissipator(a_op, gamma_b) + thermal).tocsr()
    raise ValueError(f"unknown grouping {grouping!r}")


def _dissipator(c: np.ndarray, rate: float) -> sp.csr_matrix:
    """rate D[c] = (rate / 2)(2 c . c^dag - {c^dag c, .})."""
    cdag = c.conj().T
    num = cdag @ c
    return 0.5 * rate * (2.0 * sandwich(c, cdag) - spre(num) - spost(num))


def assemble_liouvillian(h: np.ndarray,
                         jumps: list[tuple[str, float, np.ndarray, bool]]) -> Superoperator:
    """Build a generator from a Hamiltonian and (id, rate, jump_op, counted) terms:
    the no-jump base of H_eff = H - (i/2) sum rate X^dag X, one part rate X . X^dag
    each, by kron; then the total, the sector blocks and the steady system."""
    dev = np.max(np.abs(h - h.conj().T)) if h.size else 0.0
    if dev > 1e-12:
        raise ValueError(f"Hamiltonian must be Hermitian (deviation {dev:g})")
    h_eff = np.array(h, dtype=complex)
    units: dict[str, sp.csr_matrix] = {}
    for cid, rate, jump, counted in jumps:
        if cid in units:
            raise ValueError(f"duplicate channel id {cid!r}")
        if rate < 0:
            raise ValueError(f"channel {cid!r} has negative rate {rate}")
        jdag = jump.conj().T
        h_eff -= 0.5j * rate * (jdag @ jump)
        units[cid] = sandwich(jump, jdag)
    parts = [rate * units[cid] for cid, rate, _, _ in jumps]
    matrix = sum(parts, _no_jump(h_eff)).tocsr()  # base + parts, added in channel order
    d = h.shape[0]
    blocks = _sector_split(d, [matrix, *parts])
    kept, trace, partner, on_block = _kept_constants(d, blocks[0], matrix, list(units.values()))
    return Superoperator(
        dim_rho=d, h_eff=h_eff, data=matrix.data, pattern=(matrix.indices, matrix.indptr),
        blocks=blocks, kept=kept,
        channels={cid: JumpChannel(rate, units[cid], *kept_unit, counted)
                  for (cid, rate, _, counted), kept_unit in zip(jumps, on_block)},
        _system=trace_replaced_system(matrix, blocks[0]), trace=trace, partner=partner,
        uncoupled=None)


def _no_jump(h_eff: np.ndarray) -> sp.csr_matrix:
    """-i(H_eff . - . H_eff^dag) by kron."""
    return spre(-1j * h_eff) + spost(1j * h_eff.conj().T)


def _kept_constants(dim_rho: int, block: np.ndarray, matrix: sp.csr_matrix,
                    units: list[sp.csr_matrix]):
    """(``matrix`` on the kept block ``block`` in its order, the trace row there,
    the block position of each index's transpose, [(each unit there, its trace
    row)]). ``block`` is closed under transposition."""
    pos = np.full(dim_rho**2, -1)
    pos[block] = np.arange(block.size)
    trace = trace_vector(dim_rho)[block]
    on_block = [u[block][:, block] for u in units]
    return (matrix[block][:, block].tocsc(), trace,
            pos[block % dim_rho * dim_rho + block // dim_rho], [(m, trace @ m) for m in on_block])


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
    plan keeps the Hamiltonian's terms and each channel's X^dag X on the
    entries (i, j) of H_eff that some term reaches, each channel's sandwich
    X . X^dag, the union pattern of L with a 0/1 assembly matrix into it from
    M = -i H_eff and M^* on those entries (``base`` = spre(M) + spost(M^dag)
    repeats them along the diagonal blocks) and from each sandwich, that
    pattern's sector blocks (a zero coefficient only removes entries, so
    they hold at every point), the kept block ordered from that pattern once
    for every factorization of the run, and the gather maps from L's data
    to L on the kept block and to its :func:`trace_replaced_system`. On the
    kept block it keeps what every point shares: the trace row, the block
    position of each index's transpose, and each sandwich there in block
    order with its trace row. A point's generator then takes a few scaled
    additions on the entries of H_eff, one product with the assembly matrix
    and one gather (a second forms the steady system, on first use): no
    kron, no dense product, no sparse addition.
    Read-only after construction, as is every array it hands a generator,
    so every point of a process with the same (n_fock, hamiltonian), on any
    thread, shares the one plan of :func:`generator_plan`.
    """

    def __init__(self, n_fock: int, hamiltonian: str = "full"):
        ops = build_operators(HilbertSpace(n_fock=n_fock))
        d = ops.space.dim
        d2 = d * d
        self.n_fock, self.dim_rho = n_fock, d
        terms = hamiltonian_terms(hamiltonian, ops)
        jumps = _transport_jumps(ops)
        decays = [c.conj().T @ c for _, c, _ in jumps]
        units = [sandwich(c, c.conj().T) for _, c, _ in jumps]
        # H_eff is kept on the entries (i, j) that some term reaches. spre(M) holds M[i, j]
        # at (k d + i, k d + j), spost(M^dag) M^dag[j, i] = conj(M[i, j]) at
        # (i d + k, j d + k), for every k
        self._nonzero = i, j = np.nonzero(sum(abs(x) for x in [x for _, x in terms] + decays))
        self._terms = [(name, x[i, j]) for name, x in terms]
        self._decays = [x[i, j] for x in decays]
        k = np.arange(d)[:, None]
        keys = [((k * d + i) * d2 + k * d + j).ravel(), ((i * d + k) * d2 + j * d + k).ravel()]
        keys += [np.repeat(np.arange(d2), np.diff(m.indptr)) * d2 + m.indices for m in units]
        union = np.unique(np.concatenate(keys))
        self._indptr = np.searchsorted(union, np.arange(d2 + 1) * d2).astype(np.int32)
        self._indices = (union % d2).astype(np.int32)
        # L's data, and after it the trace row's 1 (see below), is the product of this 0/1
        # matrix with the sources: -i H_eff and i H_eff^* on (i, j), each sandwich's data
        # times its rate, and 1. A row's columns ascend in that order, the order
        # assemble_liouvillian adds in.
        one = 2 * i.size + sum(m.nnz for m in units)  # the trace row's source
        columns = np.concatenate([np.tile(np.arange(i.size), d),
                                  np.tile(np.arange(i.size, 2 * i.size), d),
                                  np.arange(2 * i.size, one + 1)])
        rows = np.append(np.searchsorted(union, np.concatenate(keys)), union.size)
        self._assembly = sp.csr_matrix((np.ones(rows.size, dtype=complex), (rows, columns)),
                                       shape=(union.size + 1, one + 1))
        # L's pattern with data 2 + position: L on the kept block and the steady system
        # built from it hold 2 + the position of each entry's source, and 1 for the trace
        # row's ones, which generator() keeps at position -1 of its data array
        coded = sp.csr_matrix((np.arange(2.0, union.size + 2), self._indices, self._indptr),
                              shape=(d2, d2))
        self.blocks = _sector_split(d, [coded])
        kept, self.trace, self.partner, on_block = _kept_constants(d, self.blocks[0], coded,
                                                                    units)
        self._gathers = [(m.data.real.astype(np.intp) - 2, m.indices, m.indptr)
                         for m in (kept, trace_replaced_system(coded, self.blocks[0]))]
        self._channels = [(cid, unit, *kept_unit, counted)
                          for (cid, _, counted), unit, kept_unit in zip(jumps, units, on_block)]
        self._kronecker = None
        if len(self.blocks) > 1 and self.blocks[0].size > DENSE_MAX_DIM:
            self._kronecker = _kronecker_units(n_fock, terms, jumps, self.blocks[0])
        assembly = self._assembly
        for a in (self._indptr, self._indices, *self.blocks, i, j, assembly.data,
                  assembly.indices, assembly.indptr, *(x for _, x in self._terms),
                  *(x for g in self._gathers for x in g), *self._decays, self.trace,
                  self.partner, *(x for _, unit, kept, row, _ in self._channels
                                  for x in (unit.data, unit.indices, unit.indptr, kept.data,
                                            kept.indices, kept.indptr, row))):
            a.setflags(write=False)

    def generator(self, params: ModelParams) -> Superoperator:
        """The transport Liouvillian at ``params``, with its total, sector
        blocks, kept block and steady system filled in. H_eff, each channel
        rate and the order of every addition are those of
        :func:`build_liouvillian`."""
        if params.n_fock != self.n_fock:
            raise ValueError(f"params.n_fock {params.n_fock} does not match the plan's "
                             f"{self.n_fock}")
        rates = _transport_rates(params)
        with np.errstate(over="ignore", invalid="ignore"):  # the steady solve names inf/NaN
            h = sum(getattr(params, name) * x for name, x in self._terms)
            for rate, decay in zip(rates, self._decays):
                h -= 0.5j * rate * decay
            data = self._assembly @ np.concatenate(
                [-1j * h, 1j * h.conj(), *(rate * unit.data for rate, (_, unit, *_)
                                           in zip(rates, self._channels)), [1.0]])
        h_eff = np.zeros((self.dim_rho,) * 2, dtype=complex)
        h_eff[self._nonzero] = h
        g, indices, indptr = self._gathers[0]
        n = self.blocks[0].size
        return Superoperator(dim_rho=self.dim_rho, h_eff=h_eff, data=data[:-1],
                             pattern=(self._indices, self._indptr), blocks=self.blocks,
                             channels={cid: JumpChannel(rate, *shared) for (cid, *shared), rate
                                       in zip(self._channels, rates)},
                             kept=sp.csc_matrix((np.take(data, g), indices, indptr), shape=(n, n),
                                                copy=False),
                             _system=partial(self._system, data), trace=self.trace,
                             partner=self.partner,
                             uncoupled=None if self._kronecker is None else
                             self._kronecker_sum(params))

    def _system(self, data: np.ndarray) -> sp.csc_matrix:
        """The steady system of the generator whose data, with the trace row's 1 last, is
        ``data``."""
        g, indices, indptr = self._gathers[1]
        n = self.blocks[0].size
        system = sp.csc_matrix((np.take(data, g), indices, indptr), shape=(n, n), copy=True)
        system.eliminate_zeros()  # a zero coefficient's entries would cost SuperLU as much as any
        return system

    def _kronecker_sum(self, params: ModelParams) -> KroneckerSum:
        """The generator at ``params`` with g = 0 on the kept block, as a :class:`KroneckerSum`."""
        coefficients = [getattr(params, name) for name, _ in self._terms]
        coefficients += _transport_rates(params)
        order, position, dot, resonator, populations = self._kronecker
        return KroneckerSum(order, position, sum(coefficients[k] * a for k, a in dot),
                            sum(coefficients[k] * b for k, b in resonator), populations)


def _kronecker_units(n_fock: int, terms: list[tuple[str, np.ndarray]],
                     jumps: list[tuple[str, np.ndarray, bool]], block: np.ndarray):
    """(order, position, dot units, resonator units, populations) of a
    :class:`KroneckerSum`: the generator of each Hamiltonian term but g's, -i[X, .], and of
    each channel at unit rate, X . X^dag - {X^dag X, .} / 2, with its coefficient's index in
    the term fields and then the rates. A dot unit is 5 x 5, a resonator unit three bands,
    each read-only. None when one of them acts on both the dot and the resonator, or a
    resonator unit is not tridiagonal."""
    def local(y: np.ndarray, coherent: bool) -> sp.csr_matrix:
        return spre(-1j * y) + spost(1j * y) if coherent else _dissipator(y, 1.0)

    nf = n_fock + 1
    sector = np.flatnonzero(charge_sector(3))
    n, n2 = np.arange(nf * nf) % nf, np.arange(nf * nf) // nf
    fock = np.lexsort((n, n - n2))  # by coherence order, then n
    dot, resonator = [], []
    generators = [(k, x, True) for k, (name, x) in enumerate(terms) if name != "g"]
    generators += [(len(terms) + k, x, False) for k, (_, x, _) in enumerate(jumps)]
    for k, x, coherent in generators:
        if np.array_equal(x, np.kron(x[::nf, ::nf], np.eye(nf))):
            dot.append((k, local(x[::nf, ::nf], coherent).toarray()[np.ix_(sector, sector)]))
        elif np.array_equal(x, np.kron(np.eye(3), x[:nf, :nf])):
            b = local(x[:nf, :nf], coherent)[fock][:, fock]
            if sp.triu(b, 2).nnz or sp.tril(b, -2).nnz:
                return None
            resonator.append((k, np.stack([np.append(b.diagonal(-1), 0.0), b.diagonal(),
                                           np.append(b.diagonal(1), 0.0)])))
        else:
            return None
    at_pair = np.empty(nf * nf, dtype=np.intp)
    at_pair[fock] = np.arange(nf * nf)
    at_dot = np.full(9, -1)
    at_dot[sector] = np.arange(sector.size)
    (dot_row, row), (dot_col, col) = divmod(block % (3 * nf), nf), divmod(block // (3 * nf), nf)
    order = np.argsort(at_dot[dot_row + 3 * dot_col] * nf * nf + at_pair[row + nf * col])
    position = np.argsort(order)
    for a in (order, position, *(u for _, u in dot + resonator)):
        a.setflags(write=False)
    return order, position, dot, resonator, slice(at_pair[0], at_pair[0] + nf)


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def generator_plan(n_fock: int, hamiltonian: str, /) -> GeneratorPlan:
    """The process's one :class:`GeneratorPlan` of (n_fock, hamiltonian), the
    last ``PLAN_CACHE_SIZE`` kept. Two threads that miss together each build
    one, so a run looks its plan up before its workers start."""
    return GeneratorPlan(n_fock, hamiltonian)


def counting_liouvillian(liouv: Superoperator, s: dict[str, float]) -> sp.csc_matrix:
    """Counting-field deformation M(s) = L + sum_c (s_c - 1) rate_c X_c . X_c^dag
    on the kept block ``blocks[0]`` in block order: ``kept`` plus each counted
    channel's sandwich there, summed in channel order. No channel leaves the
    block (:func:`_sector_split`), so its stationary eigenvalue is that of the
    whole space.

    Multipliers may be given for the counted channels only; uncounted
    channels stay at 1. M(1, ..., 1) equals ``kept`` exactly.
    """
    counted = {cid for cid, ch in liouv.channels.items() if ch.counted}
    unknown = set(s) - counted
    if unknown:
        raise KeyError(
            f"multipliers for unknown or uncounted channels: {sorted(unknown)}; "
            f"counted channels are {sorted(counted)}"
        )
    return sum(((float(s[cid]) - 1.0) * (ch.rate * ch.kept) for cid, ch in liouv.channels.items()
                if cid in s), liouv.kept)


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
    u = hermitian_basis(liouv.dim_rho, liouv.blocks[0])
    return u, (u.conj().T @ liouv.kept @ u).real.toarray(order="F")


def kept_eig(liouv: Superoperator) -> tuple[sp.csc_matrix, np.ndarray, np.ndarray]:
    """(u, lambda, V), L_blk = u V diag(lambda) V^-1 u^H on the kept block: one real
    ``eig`` of :func:`real_kept_block`, kept for the resolvent's pole-residue sweep
    and the eigen method (``noise.noise_eigen_expansion``)."""
    if liouv._kept_eig is None:
        u, a = real_kept_block(liouv)
        liouv._kept_eig = (u, *la.eig(a, overwrite_a=True))
    return liouv._kept_eig


def spectrum(liouv: Superoperator) -> LiouvillianSpectrum:
    """The generator's eigenvalues, one dense ``eigvals`` per sector block at
    that block's vec indices, the kept block's real in its Hermitian basis
    (:func:`real_kept_block`). Formed on each call; no eigenvector is computed."""
    alphas = np.empty(liouv.dim_rho**2, dtype=complex)
    alphas[liouv.blocks[0]] = la.eigvals(real_kept_block(liouv)[1])
    matrix = liouv.matrix
    for idx in liouv.blocks[1:]:
        alphas[idx] = la.eigvals(matrix[idx][:, idx].toarray())
    return LiouvillianSpectrum(alphas)


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


def _sector_split(dim_rho: int, matrices: list[sp.csr_matrix]) -> tuple[np.ndarray, ...]:
    """:class:`Superoperator`'s ``blocks`` for a generator whose entries, and
    its channels', are those of ``matrices``; the first block in the
    :func:`_factor_order` of ``matrices[0]``, the (X, 0) half sorted and the
    (0, X) half as the transposes of its indices, element for element. Both
    halves then list the empty-dot Fock index outermost, so at T = 0, where
    only a rho a^dag acts across it, each dense half is block upper-triangular
    and LAPACK's QR deflates it; and L(rho^dag) = L(rho)^dag makes the dense
    (0, X) half the entry-for-entry conjugate of the (X, 0) half. A tuple, as
    a plan shares it with every generator it forms."""
    blocks = [np.arange(dim_rho**2)]
    kept = charge_sector(dim_rho)
    if kept is not None:
        # 1 kept, 2 (0, X) above the diagonal of rho, 0 (X, 0) below it
        labels = kept + 2 * vectorize(np.triu(devectorize(~kept), 1))
        if not sector_leak(matrices, labels):
            below = np.flatnonzero(labels == 0)
            blocks = [np.flatnonzero(labels == 1), below % dim_rho * dim_rho + below // dim_rho,
                      below]
    return (_factor_order(matrices[0], blocks[0]), *blocks[1:])


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
