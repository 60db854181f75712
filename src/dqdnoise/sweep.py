"""Parameter sweeps and figure presets with Fock-cutoff convergence control.

Axes may vary the noise frequency ("omega") or any of the model knobs
("g", "delta", "epsilon", "T"). Grid points are independent; when one
axis is the noise frequency, work factorizes over the other axis: each
point builds its steady state once and solves its noise quantities on its
whole frequency axis in one call. Every point takes its generator from the
one ``superop.GeneratorPlan`` per (n_fock, Hamiltonian) per process, which
a run looks up before its workers start, and reports the top-Fock-level
population of its steady state (``GridResult.top_population``). Results are
placed by grid index, so output is deterministic and independent of the
worker count. Per-point failures become explicit gap entries (NaN in the
failing quantities' arrays, null in serialized output), never silent
interpolation.

Each preset carries its own Fock cutoff ``n_fock``: fig2 and fig4 run at 6,
fig3 and fig6 at 15, fig5a at 25, fig5b and fig5c at 8. :func:`resolve_cutoff`
is the one place a run's cutoff is chosen; its "auto" mode runs the
:func:`fock_convergence` ladder.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from functools import cache

import numpy as np

from .errors import ConvergenceFailure
from .model import HAMILTONIANS, ModelParams
from .noise import TransportPoint, compute_spectrum
from .steady import top_fock_population
from .superop import generator_plan

__all__ = [
    "SweepAxis",
    "SweepSpec",
    "GridResult",
    "AXIS_NAMES",
    "QUANTITIES",
    "PRESET_NAMES",
    "fock_convergence",
    "run_sweep",
    "preset",
    "resolve_cutoff",
]

AXIS_NAMES = ("omega", "g", "delta", "epsilon", "T")
#: relative change of the probes below which a Fock cutoff counts as converged
FOCK_RTOL = 1e-6
FOCK_MAX_CUTOFF = 40  # the top rung of the fock_convergence ladder
_PARAM_FIELD = {"g": "g", "delta": "delta", "epsilon": "epsilon", "T": "temperature"}

#: quantity -> (channel pair, normalization) of a noise spectrum, or the
#: MomentReport field of a steady-state quantity
QUANTITIES = {
    "S_ee": (("e", "e"), "fano"),
    "S_bb": (("b", "b"), "fano"),
    "S_eb": (("e", "b"), "raw"),
    "I_e": "current_e",
    "I_b": "current_b",
    "F_Q": "fano_q",
    "quad_min": "quad_min",
}


@dataclass(frozen=True)
class SweepAxis:
    """One sweep axis: either a (start, stop, count) range or explicit values."""

    name: str
    start: float = 0.0
    stop: float = 0.0
    count: int = 0
    values: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise ValueError(f"unknown axis {self.name!r}; expected one of {AXIS_NAMES}")
        if self.values is not None:
            if len(self.values) < 2:
                raise ValueError(f"axis {self.name!r} needs at least 2 values")
        elif self.count < 2:
            raise ValueError(f"axis {self.name!r}: counts >= 2 required, got {self.count}")

    def grid(self) -> np.ndarray:
        if self.values is not None:
            return np.asarray(self.values, dtype=float)
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class SweepSpec:
    """Base parameters plus up to two axes and the quantities to evaluate.

    ``hamiltonian`` picks the coherent part of the master equation by its
    name in ``model.HAMILTONIANS``: "full" or "jc" (the rotating-wave form
    used for the spectroscopy figures).
    """

    base: ModelParams
    axes: tuple[SweepAxis, ...]
    quantities: tuple[str, ...]
    preset: str | None = None
    hamiltonian: str = "full"

    def __post_init__(self):
        if not 1 <= len(self.axes) <= 2:
            raise ValueError(f"need 1 or 2 axes, got {len(self.axes)}")
        names = [a.name for a in self.axes]
        if len(set(names)) != len(names):
            raise ValueError(f"axis parameters must be distinct, got {names}")
        for q in self.quantities:
            if q not in QUANTITIES:
                raise ValueError(f"unknown quantity {q!r}; expected one of {sorted(QUANTITIES)}")
        if not self.quantities:
            raise ValueError("at least one quantity required")
        if self.hamiltonian not in HAMILTONIANS:
            raise ValueError(f"unknown hamiltonian {self.hamiltonian!r}; "
                             f"expected one of {tuple(HAMILTONIANS)}")

    def to_manifest(self) -> dict:
        """Stable serialized form (used for preset fidelity checks)."""
        axes = [
            {"name": a.name, "start": a.start, "stop": a.stop, "count": a.count,
             "values": list(a.values) if a.values is not None else None}
            for a in self.axes
        ]
        return {"preset": self.preset, "base": asdict(self.base), "axes": axes,
                "quantities": list(self.quantities), "hamiltonian": self.hamiltonian}


@dataclass
class GridResult:
    """Evaluated sweep grid; arrays are indexed [axis1][axis2]."""

    spec: SweepSpec
    axis_values: tuple[np.ndarray, ...]
    data: dict[str, np.ndarray]
    cutoff_used: int
    convergence_report: dict
    #: top-Fock-level population of each point's steady state, indexed over
    #: the non-omega axes (a 0-d array for an omega-only sweep); NaN at a gap
    top_population: np.ndarray
    gaps: list[tuple[tuple[int, ...], str]] = field(default_factory=list)


def fock_convergence(*points: ModelParams, hamiltonian: str = "full") -> int:
    """The largest over ``points`` of the smallest cutoff N_b >= 1 whose
    electron current and mean phonon number move by less than ``FOCK_RTOL``
    relative when raised to N_b + 3, under the "full" or "jc" Hamiltonian.
    Raises ConvergenceFailure at ``FOCK_MAX_CUTOFF``. The points climb their
    ladders rung by rung together, so each cutoff's plan serves them all."""

    @cache
    def values(k: int, n: int) -> tuple[float, float]:
        report = TransportPoint(replace(points[k], n_fock=n), hamiltonian).report
        return report.current_e, report.mean_n

    climbing = range(len(points))
    for n in range(1, FOCK_MAX_CUTOFF + 1):  # "not <": a NaN move keeps its point climbing
        climbing = [k for k in climbing if not max(abs(a - b) / max(abs(a), abs(b), 1e-12)
                    for a, b in zip(values(k, n), values(k, n + 3))) < FOCK_RTOL]
        if not climbing:
            return n
    raise ConvergenceFailure(
        f"Fock cutoff did not converge below N_b = {FOCK_MAX_CUTOFF} (rtol {FOCK_RTOL:g})"
    )


def resolve_cutoff(base: ModelParams, axes: tuple[SweepAxis, ...], hamiltonian: str,
                   cutoff: int | str | None) -> tuple[int, dict]:
    """The Fock cutoff of a run over ``axes`` around ``base``, and its report.

    None keeps ``base.n_fock``, an int forces that value, and "auto" takes
    the larger of ``base.n_fock`` and :func:`fock_convergence` over the
    corners of the non-omega axes (a single point, ``axes=()``, is its own
    one corner).
    """
    if cutoff != "auto":
        n_fock = base.n_fock if cutoff is None else int(cutoff)
        return n_fock, {"mode": "fixed", "cutoff": n_fock}
    corners = [[]]
    for axis in axes:
        if axis.name != "omega":
            g = axis.grid()
            corners = [c + [(axis.name, v)] for c in corners
                       for v in sorted({float(g.min()), float(g.max())})]
    n_fock = max(base.n_fock, fock_convergence(
        *(_axis_params(base, [n for n, _ in c], [v for _, v in c], base.n_fock) for c in corners),
        hamiltonian=hamiltonian))
    return n_fock, {"mode": "auto", "corners": len(corners), "cutoff": n_fock}


def _axis_params(base: ModelParams, names: list[str], vals: list[float],
                 n_fock: int) -> ModelParams:
    kw = {"n_fock": n_fock}
    for name, val in zip(names, vals):
        if name != "omega":
            kw[_PARAM_FIELD[name]] = float(val)
    return replace(base, **kw)


def _evaluate(point: TransportPoint, names, omegas: np.ndarray) -> list:
    """(values, error) per frequency: the value of each quantity that succeeded
    there, and None or the message of the first in ``names`` that failed. The
    noise quantities share one factorization per frequency. A failed batch is
    retried one quantity at a time, and a failed quantity frequency by
    frequency, so only the failing quantities at the failing frequencies are
    left out."""
    noisy = [q for q in names if not isinstance(QUANTITIES[q], str)]
    try:
        requests = [QUANTITIES[q] for q in noisy]
        vals = dict(zip(noisy, compute_spectrum(point.liouv, point.ss, requests, omegas)))
        vals.update((q, np.full(omegas.shape, getattr(point.report, QUANTITIES[q])))
                    for q in names if q not in vals)
    except Exception as exc:  # noqa: BLE001 - recorded as an explicit gap
        if len(names) > 1:
            rows = zip(*(_evaluate(point, [q], omegas) for q in names))
            return [({q: v for part, _ in row for q, v in part.items()},
                     next((err for _, err in row if err is not None), None)) for row in rows]
        if omegas.size == 1:
            return [({}, str(exc))]
        return [r for k in range(omegas.size) for r in _evaluate(point, names, omegas[k:k + 1])]
    return [({q: vals[q][k] for q in names}, None) for k in range(omegas.size)]


def run_sweep(spec: SweepSpec, workers: int = 1,
              cutoff: int | str | None = None) -> GridResult:
    """Evaluate a sweep grid.

    ``cutoff`` picks the Fock cutoff through :func:`resolve_cutoff`: None
    keeps the spec's base n_fock, an int forces a value, "auto" runs the
    convergence ladder at the grid corners. Every point takes its generator
    from the process's one plan, :func:`superop.generator_plan`. Output is
    deterministic for a given spec regardless of ``workers``.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    n_fock, report = resolve_cutoff(spec.base, spec.axes, spec.hamiltonian, cutoff)
    # the plan is built here, if the process has none, before any worker starts:
    # workers that missed the cache together would each build one
    generator_plan(n_fock, spec.hamiltonian)

    axis_values = tuple(a.grid() for a in spec.axes)
    shape = tuple(len(v) for v in axis_values)
    data = {q: np.full(shape, np.nan) for q in spec.quantities}
    gaps: list[tuple[tuple[int, ...], str]] = []

    names = [a.name for a in spec.axes]
    omega_axis = names.index("omega") if "omega" in names else None
    param_axes = [k for k in range(len(names)) if k != omega_axis]

    # one task per non-omega grid index, all quantities on the whole omega axis at once
    top = np.full(tuple(shape[k] for k in param_axes), np.nan)
    task_indices = list(np.ndindex(top.shape))
    omegas = axis_values[omega_axis] if omega_axis is not None else np.zeros(1)

    def run_task(task_idx):
        """(top-Fock population, per-omega (values, error)) of one task."""
        pnames = [names[k] for k in param_axes]
        pvals = [float(axis_values[k][i]) for k, i in zip(param_axes, task_idx)]
        try:
            point = TransportPoint(_axis_params(spec.base, pnames, pvals, n_fock),
                                   spec.hamiltonian)
        except Exception as exc:  # noqa: BLE001 - recorded as one explicit gap per omega
            return np.nan, [({}, str(exc))] * omegas.size
        return top_fock_population(point.ss), _evaluate(point, spec.quantities, omegas)

    if workers == 1:
        results = map(run_task, task_indices)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_task, task_indices))

    for task_idx, (pop, chunk) in zip(task_indices, results):
        top[task_idx] = pop
        for w_i, (vals, err) in enumerate(chunk):
            full = task_idx if omega_axis is None else \
                task_idx[:omega_axis] + (w_i,) + task_idx[omega_axis:]
            if err is not None:
                gaps.append((full, err))
            for q, v in vals.items():
                data[q][full] = v

    return GridResult(spec=spec, axis_values=axis_values, data=data,
                      cutoff_used=n_fock, convergence_report=report, gaps=gaps,
                      top_population=top)


def _fig2_base(**kw) -> ModelParams:
    defaults = dict(epsilon=0.0, delta=0.5, g=0.0, omega_b=1.0,
                    gamma_L=0.01, gamma_R=0.01, gamma_b=0.05, temperature=0.0,
                    n_fock=6)
    defaults.update(kw)
    return ModelParams(**defaults)


def _fig5_base(**kw) -> ModelParams:
    defaults = dict(epsilon=0.0, delta=0.1, g=0.0008, omega_b=1.0,
                    gamma_L=0.1, gamma_R=0.001, gamma_b=0.01, temperature=0.0,
                    n_fock=8)
    defaults.update(kw)
    return ModelParams(**defaults)


def _presets() -> dict[str, SweepSpec]:
    omega_axis = SweepAxis(name="omega", start=0.2, stop=1.8, count=161)
    return {
        "fig2": SweepSpec(
            base=_fig2_base(),
            axes=(SweepAxis(name="g", start=0.0, stop=0.4, count=21), omega_axis),
            quantities=("S_ee",),
            preset="fig2",
            hamiltonian="jc",
        ),
        "fig3": SweepSpec(
            base=_fig2_base(g=0.4, n_fock=15),
            axes=(SweepAxis(name="T", values=(0.0, 0.5, 1.0)),
                  SweepAxis(name="omega", start=0.2, stop=1.8, count=321)),
            quantities=("S_ee",),
            preset="fig3",
            hamiltonian="jc",
        ),
        "fig4a": SweepSpec(
            base=_fig2_base(g=0.1),
            axes=(SweepAxis(name="delta", start=0.3, stop=0.7, count=17), omega_axis),
            quantities=("S_ee",),
            preset="fig4a",
            hamiltonian="jc",
        ),
        "fig4b": SweepSpec(
            base=_fig2_base(g=0.4),
            axes=(SweepAxis(name="delta", start=0.3, stop=0.7, count=17), omega_axis),
            quantities=("S_ee",),
            preset="fig4b",
            hamiltonian="jc",
        ),
        "fig5a": SweepSpec(
            base=_fig5_base(n_fock=25),
            axes=(SweepAxis(name="epsilon", start=-2.0, stop=2.0, count=81),
                  SweepAxis(name="T", values=(0.0, 0.5, 1.0, 1.5, 2.0))),
            quantities=("S_ee",),
            preset="fig5a",
        ),
        "fig5b": SweepSpec(
            base=_fig5_base(),
            axes=(SweepAxis(name="epsilon", start=-2.0, stop=2.0, count=81),
                  SweepAxis(name="g", values=(0.0, 0.1, 0.2, 0.4))),
            quantities=("S_ee",),
            preset="fig5b",
        ),
        "fig5c": SweepSpec(
            base=_fig5_base(),
            axes=(SweepAxis(name="epsilon", start=-2.0, stop=2.0, count=81),
                  SweepAxis(name="g", values=(0.0, 0.1, 0.2, 0.4))),
            quantities=("S_eb",),
            preset="fig5c",
        ),
        "fig6a": SweepSpec(
            base=_fig2_base(n_fock=15),
            axes=(SweepAxis(name="g", start=0.0, stop=0.4, count=21),
                  SweepAxis(name="T", values=(0.0, 0.5, 1.0))),
            quantities=("S_bb",),
            preset="fig6a",
        ),
        "fig6b": SweepSpec(
            base=_fig2_base(n_fock=15),
            axes=(SweepAxis(name="g", start=0.0, stop=0.4, count=21),
                  SweepAxis(name="T", values=(0.0, 0.5, 1.0))),
            quantities=("F_Q",),
            preset="fig6b",
        ),
        "fig6c": SweepSpec(
            base=_fig2_base(n_fock=15),
            axes=(SweepAxis(name="g", start=0.0, stop=0.4, count=21),
                  SweepAxis(name="T", values=(0.0, 0.5, 1.0))),
            quantities=("S_eb",),
            preset="fig6c",
        ),
    }


PRESET_NAMES = tuple(sorted(_presets()))


def preset(name: str) -> SweepSpec:
    """Figure preset with the caption parameters and documented grid density."""
    table = _presets()
    if name not in table:
        raise KeyError(f"unknown preset {name!r}; known: {', '.join(sorted(table))}")
    return table[name]
