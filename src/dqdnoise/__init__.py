"""Transport-qubit / mechanical-mode noise simulator.

Computes steady states and symmetrized finite-frequency current-noise
spectra (electron, phonon emission, and cross-correlations) for a double
quantum dot coupled to a single quantized resonator mode, with parameter
sweeps reproducing the reference resonance, squeezing and Fano-factor
results at desk scale.
"""

import os

# one BLAS thread unless the caller sets one, before numpy loads (README, "Install and test")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .model import (
    ModelParams,
    HilbertSpace,
    OperatorSet,
    build_operators,
    build_hamiltonian,
    build_jc_hamiltonian,
    build_spin_hamiltonian,
    jc_multiplet_energies,
    resonance_branches,
    p_left_analytic,
    spin_estimates,
)
from .superop import (
    Superoperator,
    JumpChannel,
    LiouvillianSpectrum,
    vectorize,
    devectorize,
    build_liouvillian,
    counting_liouvillian,
    thermal_occupation,
    spectrum,
)
from .steady import (
    SteadyState,
    MomentReport,
    solve_steady_state,
    currents,
    moment_report,
    fano_number,
    quadrature_variance,
    min_quadrature_variance,
)
from .noise import (
    ResolventSolver,
    TransportPoint,
    noise_eigen_expansion,
    counting_fd_check,
    compute_spectrum,
    find_peaks_xy,
)
from .sweep import SweepSpec, SweepAxis, GridResult, fock_convergence, run_sweep, preset

__version__ = "0.1.0"
