"""Hilbert space, operators and Hamiltonians for a transport qubit
(double quantum dot with an empty state) coupled to one quantized
mechanical mode, plus the closed-form Jaynes-Cummings analytics used as
oracles by the noise machinery.

Units: hbar = k_B = e = 1 throughout; omega_b = 1 is the recommended
energy scale but is not enforced.

Basis ordering convention (fixed so serialized matrices are comparable
across runs): composite index = dot_state * (n_fock + 1) + n with
dot_state in {0: empty, 1: L, 2: R} and n the Fock occupation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DOT_EMPTY",
    "DOT_L",
    "DOT_R",
    "ModelParams",
    "HilbertSpace",
    "OperatorSet",
    "EnergySpectrum",
    "CollapseTrace",
    "build_operators",
    "build_hamiltonian",
    "build_jc_hamiltonian",
    "HAMILTONIANS",
    "hamiltonian_terms",
    "build_spin_hamiltonian",
    "jc_multiplet_energies",
    "resonance_branches",
    "energy_spectrum",
    "p_left_analytic",
    "equal_weight_amplitudes",
    "coherent_amplitudes",
    "spin_estimates",
    "thermal_state",
]

DOT_EMPTY, DOT_L, DOT_R = 0, 1, 2

#: electron spin gyromagnetic conversion, Hz per Tesla (estimate, +-30%)
GYROMAGNETIC_HZ_PER_T = 28.0e9

HERMITICITY_TOL = 1e-12


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of one run; the single source of truth.

    Attributes
    ----------
    epsilon : float
        Dot detuning (energy gap of the charge states), in units of omega_b
        by convention.
    delta : float
        Coherent interdot tunneling amplitude.
    g : float
        Dot-resonator coupling strength.
    omega_b : float
        Resonator fundamental frequency (default scale 1).
    gamma_L, gamma_R : float
        Left/right lead tunneling rates (injection / emission).
    gamma_b : float
        Resonator damping rate into its thermal bath.
    temperature : float
        Bath temperature (k_B = 1).
    n_fock : int
        Fock cutoff: highest retained resonator number state.
    """

    epsilon: float = 0.0
    delta: float = 0.0
    g: float = 0.0
    omega_b: float = 1.0
    gamma_L: float = 0.01
    gamma_R: float = 0.01
    gamma_b: float = 0.05
    temperature: float = 0.0
    n_fock: int = 6

    def __post_init__(self):
        for name in ("gamma_L", "gamma_R", "gamma_b"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.omega_b <= 0:
            raise ValueError(f"omega_b must be > 0, got {self.omega_b}")
        if self.temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")
        if int(self.n_fock) != self.n_fock or self.n_fock < 1:
            raise ValueError(f"n_fock must be an integer >= 1, got {self.n_fock}")
        object.__setattr__(self, "n_fock", int(self.n_fock))  # 2.0 sizes arrays as 2

    def space(self) -> "HilbertSpace":
        return HilbertSpace(n_fock=self.n_fock)


@dataclass(frozen=True)
class HilbertSpace:
    """Truncated transport-qubit (empty, L, R) (x) Fock product space."""

    n_fock: int

    def __post_init__(self):
        if self.n_fock < 1:
            raise ValueError(f"n_fock must be >= 1, got {self.n_fock}")

    @property
    def fock_dim(self) -> int:
        return self.n_fock + 1

    @property
    def dim(self) -> int:
        return 3 * (self.n_fock + 1)

    def index(self, dot_state: int, n: int) -> int:
        """Composite basis index of |dot_state, n>."""
        if not 0 <= dot_state <= DOT_R:
            raise ValueError(f"dot_state {dot_state} outside 0..{DOT_R}")
        if not 0 <= n <= self.n_fock:
            raise ValueError(f"Fock index {n} outside 0..{self.n_fock}")
        return dot_state * self.fock_dim + n


@dataclass
class OperatorSet:
    """Dense complex matrices on the composite space (read-only arrays)."""

    space: HilbertSpace
    identity: np.ndarray
    a: np.ndarray
    adag: np.ndarray
    number: np.ndarray
    sz: np.ndarray
    sx: np.ndarray
    sx_plus: np.ndarray
    sx_minus: np.ndarray
    s_L: np.ndarray
    s_R: np.ndarray
    p0: np.ndarray
    pL: np.ndarray
    pR: np.ndarray


@dataclass
class EnergySpectrum:
    """Sorted eigenvalues and selected level splittings of a Hamiltonian."""

    eigenvalues: np.ndarray
    gaps: tuple[float, ...] = ()


@dataclass
class CollapseTrace:
    """Closed-form left-dot occupation trace P_L(t) with its amplitude weights."""

    times: np.ndarray
    p_left: np.ndarray
    coefficients: np.ndarray


def _readonly(m: np.ndarray) -> np.ndarray:
    m.setflags(write=False)
    return m


def _fock_ladder(fock_dim: int) -> np.ndarray:
    a = np.zeros((fock_dim, fock_dim), dtype=complex)
    for n in range(1, fock_dim):
        a[n - 1, n] = math.sqrt(n)  # <n-1| a |n> = sqrt(n), hard truncation at the top
    return a


def build_operators(space: HilbertSpace) -> OperatorSet:
    """Construct all composite-space operators for the transport qubit.

    Returns ladder operators, quasi-spin operators on the charge
    subspace, the lead jump operators s_L = |0><L|, s_R = |0><R|, and
    the three dot projectors, all as dim x dim dense complex matrices.
    The ladder operator annihilates the image of the top Fock state
    (hard truncation), so [a, a^dag] deviates from the identity only in
    the n = n_fock block.
    """
    nf = space.fock_dim
    id_dot = np.eye(3, dtype=complex)
    id_fock = np.eye(nf, dtype=complex)

    ket = lambda i: np.eye(3, dtype=complex)[:, i : i + 1]
    proj = lambda i: ket(i) @ ket(i).conj().T

    a_f = _fock_ladder(nf)
    sz_dot = proj(DOT_L) - proj(DOT_R)
    sx_dot = ket(DOT_L) @ ket(DOT_R).conj().T + ket(DOT_R) @ ket(DOT_L).conj().T
    sy_dot = -1j * ket(DOT_L) @ ket(DOT_R).conj().T + 1j * ket(DOT_R) @ ket(DOT_L).conj().T
    # Raising/lowering in the sigma_x eigenbasis; sx_plus maps the bonding
    # (-1) eigenstate onto the anti-bonding (+1) one.
    sxp_dot = 0.5 * (sz_dot - 1j * sy_dot)
    sxm_dot = 0.5 * (sz_dot + 1j * sy_dot)
    sL_dot = ket(DOT_EMPTY) @ ket(DOT_L).conj().T
    sR_dot = ket(DOT_EMPTY) @ ket(DOT_R).conj().T

    kron = np.kron
    ops = OperatorSet(
        space=space,
        identity=_readonly(kron(id_dot, id_fock)),
        a=_readonly(kron(id_dot, a_f)),
        adag=_readonly(kron(id_dot, a_f.conj().T)),
        number=_readonly(kron(id_dot, a_f.conj().T @ a_f)),
        sz=_readonly(kron(sz_dot, id_fock)),
        sx=_readonly(kron(sx_dot, id_fock)),
        sx_plus=_readonly(kron(sxp_dot, id_fock)),
        sx_minus=_readonly(kron(sxm_dot, id_fock)),
        s_L=_readonly(kron(sL_dot, id_fock)),
        s_R=_readonly(kron(sR_dot, id_fock)),
        p0=_readonly(kron(proj(DOT_EMPTY), id_fock)),
        pL=_readonly(kron(proj(DOT_L), id_fock)),
        pR=_readonly(kron(proj(DOT_R), id_fock)),
    )
    return ops


def _check_hermitian(h: np.ndarray, label: str) -> np.ndarray:
    dev = np.max(np.abs(h - h.conj().T))
    if dev > HERMITICITY_TOL:
        raise ValueError(f"{label} not Hermitian within {HERMITICITY_TOL} (dev {dev:g})")
    return _readonly(h)


#: the transport Hamiltonians by name, "full" (the complete dot-resonator
#: coupling) and "jc" (the rotating-wave form), each as (ModelParams field,
#: operator) terms, the Hamiltonian being the sum of field value times operator
HAMILTONIANS = {
    "full": lambda ops: [("epsilon", ops.sz), ("delta", ops.sx),
                         ("g", ops.sz @ (ops.a + ops.adag)), ("omega_b", ops.number)],
    "jc": lambda ops: [("g", ops.sx_plus @ ops.a + ops.sx_minus @ ops.adag),
                       ("omega_b", ops.number), ("delta", ops.sx)],
}


def hamiltonian_terms(hamiltonian: str, ops: OperatorSet) -> list[tuple[str, np.ndarray]]:
    """(ModelParams field, operator) terms of the Hamiltonian named ``hamiltonian``
    (a key of :data:`HAMILTONIANS`); it is linear in those fields."""
    if hamiltonian not in HAMILTONIANS:
        raise ValueError(f"unknown hamiltonian {hamiltonian!r}; "
                         f"expected one of {tuple(HAMILTONIANS)}")
    return HAMILTONIANS[hamiltonian](ops)


def _from_terms(hamiltonian: str, params: ModelParams, space: HilbertSpace | None,
                ops: OperatorSet | None, label: str) -> np.ndarray:
    ops = ops or build_operators(space or params.space())
    h = sum(getattr(params, name) * op for name, op in hamiltonian_terms(hamiltonian, ops))
    return _check_hermitian(h, label)


def build_hamiltonian(params: ModelParams, space: HilbertSpace | None = None,
                      ops: OperatorSet | None = None) -> np.ndarray:
    """Full Hamiltonian eps*sz + Delta*sx + g*sz*(a + a^dag) + omega_b*n.

    Acts as zero on the empty-dot charge sector apart from the free
    resonator term.
    """
    return _from_terms("full", params, space, ops, "Hamiltonian")


def build_jc_hamiltonian(params: ModelParams, space: HilbertSpace | None = None,
                         ops: OperatorSet | None = None) -> np.ndarray:
    """Rotating-wave Hamiltonian g*(sx+ a + sx- a^dag) + omega_b*n + Delta*sx.

    Intended for epsilon = 0 (any epsilon is accepted but excluded from
    the construction). Block diagonal in the multiplet structure: each
    excitation manifold couples |n, 1_x> only to |n+1, 0_x>.
    """
    return _from_terms("jc", params, space, ops, "JC Hamiltonian")


def build_spin_hamiltonian(sigma_gap: float, omega_b: float, lambda_coupling: float,
                           n_fock: int) -> np.ndarray:
    """Spin-resonator variant -Sigma*sz/2 + omega_b*n + lambda*(a+a^dag)*sx.

    Lives on a two-level (x) Fock space (Fock states 0..n_fock) with no
    empty state; this variant is not attached to leads and supports
    spectrum inspection only. The qubit term is diagonal in the energy
    basis, only the transverse coupling mixes it with the mode.
    """
    if n_fock < 1:
        raise ValueError(f"n_fock must be >= 1, got {n_fock}")
    nf = n_fock + 1
    id_fock = np.eye(nf, dtype=complex)
    a_f = _fock_ladder(nf)
    sz = np.diag([1.0, -1.0]).astype(complex)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    h = (
        -0.5 * sigma_gap * np.kron(sz, id_fock)
        + omega_b * np.kron(np.eye(2, dtype=complex), a_f.conj().T @ a_f)
        + lambda_coupling * np.kron(sx, a_f + a_f.conj().T)
    )
    return _check_hermitian(h, "spin-resonator Hamiltonian")


def jc_multiplet_energies(params: ModelParams, n: int) -> tuple[float, float]:
    """Exact eigenvalues (E_plus, E_minus) of the (n, n+1) coupling block.

    The block couples |n, 1_x> at n*omega_b + Delta to |n+1, 0_x> at
    (n+1)*omega_b - Delta with matrix element g*sqrt(n+1). For n = 0 this
    reduces to omega_b/2 +- sqrt(Omega^2 + 4 g^2)/2 with
    Omega = omega_b - 2*Delta.
    """
    if n < 0:
        raise ValueError(f"multiplet index must be >= 0, got {n}")
    wb, d, g = params.omega_b, params.delta, params.g
    center = (2 * n + 1) * wb / 2.0
    omega_det = wb - 2.0 * d
    half_split = 0.5 * math.sqrt(omega_det**2 + 4.0 * g**2 * (n + 1))
    return (center + half_split, center - half_split)


def resonance_branches(params: ModelParams) -> tuple[float, float, float]:
    """Predicted noise-peak frequencies (dE1, dE2, dE3).

    dE1/dE2 are the upper and lower branches |omega_b/2 +-
    sqrt(Omega^2 + 4 g^2)/2 + Delta| (the lowest excited doublet measured
    from the ground energy -Delta); on resonance (Omega = 0) they reduce
    to 2*Delta +- g. dE3 = 2*Delta is the bare internal splitting.
    """
    e_plus, e_minus = jc_multiplet_energies(params, 0)
    d = params.delta
    return (abs(e_plus + d), abs(e_minus + d), 2.0 * d)


def energy_spectrum(h: np.ndarray, pairs: tuple[tuple[int, int], ...] = ()) -> EnergySpectrum:
    """Ascending eigenvalues of a Hermitian matrix plus selected gaps.

    ``pairs`` lists (i, j) index pairs into the sorted spectrum; each gap
    is reported as |lambda_i - lambda_j|.
    """
    vals = np.linalg.eigvalsh(h)
    gaps = tuple(abs(float(vals[i] - vals[j])) for i, j in pairs)
    return EnergySpectrum(eigenvalues=vals, gaps=gaps)


def equal_weight_amplitudes(n_states: int) -> np.ndarray:
    """Equal-weight amplitude preset C_n = 1/sqrt(N) over n = 0..N-1."""
    if n_states < 1:
        raise ValueError("need at least one state")
    return np.full(n_states, 1.0 / math.sqrt(n_states))


def coherent_amplitudes(z: float, n_max: int) -> np.ndarray:
    """Poissonian-shaped amplitude preset C_n proportional to z^n e^-z / n!.

    The raw weights are not normalized as amplitudes, so they are
    rescaled to unit total probability sum |C_n|^2 = 1.
    """
    n = np.arange(n_max + 1)
    log_c = n * math.log(z) - z - np.array([math.lgamma(k + 1) for k in n])
    c = np.exp(log_c - log_c.max())
    return c / math.sqrt(np.sum(c**2))


def p_left_analytic(coefficients: np.ndarray, params: ModelParams,
                    times: np.ndarray) -> CollapseTrace:
    """Collapse trace P_L(t) = sum_n {C_n cos[(-g(sqrt(n+1)-sqrt(n))t - 2t*Delta)/2]}^2.

    Valid in the slowly-varying-amplitude regime where adjacent C_n are
    nearly equal; see the unitary-evolution comparison in the tests.
    """
    c = np.asarray(coefficients, dtype=complex)
    norm = float(np.sum(np.abs(c) ** 2))
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"amplitudes must satisfy sum |C_n|^2 = 1, got {norm!r}")
    t = np.asarray(times, dtype=float)
    n = np.arange(c.size)
    rates = -params.g * (np.sqrt(n + 1.0) - np.sqrt(n)) - 2.0 * params.delta
    phases = 0.5 * np.outer(rates, t)
    p = np.sum((np.abs(c)[:, None] * np.cos(phases)) ** 2, axis=0)
    return CollapseTrace(times=t, p_left=p, coefficients=c)


def spin_estimates(field_gradient_mT_per_nm: float, x_zp_nm: float) -> tuple[float, float]:
    """Field and Rabi-frequency estimates for the magnetized-resonator variant.

    field = gradient * zero-point motion (mT); rabi = 28 GHz/T * field,
    expressed in Hz. The gyromagnetic conversion is an electron-spin
    estimate, quoted to +-30%.
    """
    if field_gradient_mT_per_nm <= 0 or x_zp_nm <= 0:
        raise ValueError("field gradient and zero-point motion must be positive")
    field_mT = field_gradient_mT_per_nm * x_zp_nm
    rabi_hz = GYROMAGNETIC_HZ_PER_T * field_mT * 1e-3
    return (field_mT, rabi_hz)


def thermal_state(n_fock: int, n_bar: float) -> np.ndarray:
    """Truncated, renormalized Boltzmann state of the bare mode at occupation n_bar."""
    if n_bar <= 0.0:
        rho = np.zeros((n_fock + 1, n_fock + 1), dtype=complex)
        rho[0, 0] = 1.0
        return rho
    q = n_bar / (1.0 + n_bar)  # e^{-omega_b/T}
    p = q ** np.arange(n_fock + 1)
    return np.diag(p / p.sum()).astype(complex)
