"""The traced layers: which public functions get a span, and the per-layer
metrics computed from those spans.

Layers are the package modules ``model``, ``superop``, ``steady``,
``noise``, ``sweep`` and ``cli``. Times are inclusive (what the caller
waits for) unless the name ends in ``self_ms``; layer self times exclude
traced children and add up to the traced wall time spent in the layers.
Counts marked "computed" in the README come from array sizes and repeat
exactly.
"""

from __future__ import annotations

import math
from collections import defaultdict

from tracer import LU_OWNERS

#: (name, unit, better) for every per-layer metric, in report order
PER_LAYER = (
    ("model.build_ms", "ms", "lower"),
    ("model.build_calls", "count", "lower"),
    ("superop.assemble_ms", "ms", "lower"),
    ("superop.assemble_calls", "count", "lower"),
    ("superop.assemble_ms_per_call", "ms", "lower"),
    ("superop.dim_L", "count", "lower"),
    ("superop.nnz_L", "count", "lower"),
    ("superop.eig_ms", "ms", "lower"),
    ("superop.eig_dim", "count", "lower"),
    ("superop.self_ms", "ms", "lower"),
    ("steady.solve_ms", "ms", "lower"),
    ("steady.solve_calls", "count", "lower"),
    ("steady.lu_count", "count", "lower"),
    ("steady.lu_ms", "ms", "lower"),
    ("steady.self_ms", "ms", "lower"),
    ("noise.lu_count", "count", "lower"),
    ("noise.lu_ms", "ms", "lower"),
    ("noise.lu_nnz", "count", "lower"),
    ("noise.resolvent_apply_calls", "count", "lower"),
    ("noise.resolvent_apply_ms", "ms", "lower"),
    ("noise.applies_per_lu", "count", "higher"),
    ("noise.macdonald_ms", "ms", "lower"),
    ("noise.macdonald_steps", "count", "lower"),
    ("noise.macdonald_gflop", "GFLOP", "lower"),
    ("noise.macdonald_gbyte", "GB", "lower"),
    ("noise.macdonald_gflops", "GFLOP/s", "higher"),
    ("noise.expm_ms", "ms", "lower"),
    ("noise.counting_fd_ms", "ms", "lower"),
    ("noise.self_ms", "ms", "lower"),
    ("sweep.run_ms", "ms", "lower"),
    ("sweep.points", "count", "higher"),
    ("sweep.lu_per_point", "count", "lower"),
    ("sweep.cpu_s", "s", "lower"),
    ("sweep.parallel_eff", "1", "higher"),
    ("sweep.self_ms", "ms", "lower"),
    ("cli.overhead_ms", "ms", "lower"),
    ("cli.output_bytes", "B", "lower"),
    ("trace.overhead_frac", "1", "lower"),
)

LAYERS = ("model", "superop", "steady", "noise", "sweep", "cli")

#: bytes of one complex128 entry; a MacDonald step multiplies the dense
#: D^2 x D^2 step matrix into two columns: 2 * 8 real flops per entry
_COMPLEX_BYTES = 16
_STEP_FLOPS_PER_ENTRY = 16


def _generator_counts(args, kwargs, liouv):
    total = liouv.base
    for channel in liouv.channels.values():
        total = total + channel.part
    return {"dim": liouv.dim_rho**2, "nnz": int(total.nnz)}


def _eig_counts(args, kwargs, result):
    return {"dim": args[0].dim_rho**2}


def _macdonald_counts(args, kwargs, trace):
    return {"steps": int(trace.taus.size - 1), "dim": args[0].dim_rho**2}


def _sweep_counts(args, kwargs, result):
    workers = kwargs.get("workers", args[1] if len(args) > 1 else 1)
    return {"points": math.prod(len(v) for v in result.axis_values), "workers": int(workers)}


def _lu_counts(args, kwargs, lu):
    return {"nnz": int(lu.L.nnz + lu.U.nnz)}


def targets():
    """(owner, attribute, span name, counters) for every traced call."""
    import scipy.linalg
    import scipy.sparse.linalg

    from dqdnoise import cli, model, noise, steady, superop, sweep

    return [
        (model, "build_operators", "model.build", None),
        (model, "build_hamiltonian", "model.build", None),
        (model, "build_jc_hamiltonian", "model.build", None),
        (superop, "build_liouvillian", "superop.assemble", _generator_counts),
        (superop, "spectrum", "superop.eig", _eig_counts),
        (steady, "solve_steady_state", "steady.solve", None),
        (noise, "compute_spectrum", "noise.spectrum", None),
        (noise.ResolventSolver, "apply", "noise.resolvent_apply", None),
        (noise, "macdonald_correlation_trace", "noise.macdonald", _macdonald_counts),
        (noise, "counting_fd_check", "noise.counting_fd", None),
        (sweep, "run_sweep", "sweep.run", _sweep_counts),
        (cli, "main", "cli.main", None),
        (scipy.sparse.linalg, "splu", "lu", _lu_counts),
        (scipy.linalg, "expm", "noise.expm", None),
    ]


def span_table(records) -> dict[str, dict]:
    """name -> {calls, incl, self} summed over the records (seconds)."""
    table: dict[str, dict] = defaultdict(lambda: {"calls": 0, "incl": 0.0, "self": 0.0})
    for r in records:
        row = table[r["name"]]
        row["calls"] += 1
        row["incl"] += r["incl"]
        row["self"] += r["self"]
    return dict(table)


def metrics(records, n_iter: int, traced_wall: float, untraced_wall: float,
            output_bytes: float) -> dict[str, float]:
    """Per-layer metrics per workload run from the resolved span records
    of ``n_iter`` traced runs."""
    table = span_table(records)

    def per_run(name, key):
        return table.get(name, {}).get(key, 0) / n_iter

    def ms(name):
        return 1e3 * per_run(name, "incl")

    def counter(name, key):
        return [r["counters"][key] for r in records if r["name"] == name and key in r["counters"]]

    def self_ms(layer):
        return 1e3 * sum(r["self"] for r in records if r["name"].split(".")[0] == layer) / n_iter

    out = {}
    out["model.build_ms"] = ms("model.build")
    out["model.build_calls"] = per_run("model.build", "calls")

    calls = per_run("superop.assemble", "calls")
    out["superop.assemble_ms"] = ms("superop.assemble")
    out["superop.assemble_calls"] = calls
    out["superop.assemble_ms_per_call"] = out["superop.assemble_ms"] / calls if calls else 0.0
    out["superop.dim_L"] = max(counter("superop.assemble", "dim"), default=0)
    out["superop.nnz_L"] = max(counter("superop.assemble", "nnz"), default=0)
    out["superop.eig_ms"] = ms("superop.eig")
    out["superop.eig_dim"] = max(counter("superop.eig", "dim"), default=0)
    out["superop.self_ms"] = self_ms("superop")

    out["steady.solve_ms"] = ms("steady.solve")
    out["steady.solve_calls"] = per_run("steady.solve", "calls")
    out["steady.lu_count"] = per_run("steady.lu", "calls")
    out["steady.lu_ms"] = ms("steady.lu")
    out["steady.self_ms"] = self_ms("steady")

    lu_count = per_run("noise.lu", "calls")
    applies = per_run("noise.resolvent_apply", "calls")
    nnz = counter("noise.lu", "nnz")
    out["noise.lu_count"] = lu_count
    out["noise.lu_ms"] = ms("noise.lu")
    out["noise.lu_nnz"] = sum(nnz) / len(nnz) if nnz else 0.0
    out["noise.resolvent_apply_calls"] = applies
    out["noise.resolvent_apply_ms"] = ms("noise.resolvent_apply")
    out["noise.applies_per_lu"] = applies / lu_count if lu_count else 0.0

    work = [(r["counters"]["steps"], r["counters"]["dim"]) for r in records
            if r["name"] == "noise.macdonald" and r["counters"]]
    per_step = [_STEP_FLOPS_PER_ENTRY * dim**2 for _, dim in work]
    steps = sum(s for s, _ in work) / n_iter
    gflop = sum(s * f for (s, _), f in zip(work, per_step)) / n_iter / 1e9
    mac_self_s = per_run("noise.macdonald", "self")
    out["noise.macdonald_ms"] = ms("noise.macdonald")
    out["noise.macdonald_steps"] = steps
    out["noise.macdonald_gflop"] = gflop
    out["noise.macdonald_gbyte"] = sum(
        s * _COMPLEX_BYTES * dim**2 for s, dim in work) / n_iter / 1e9
    out["noise.macdonald_gflops"] = gflop / mac_self_s if mac_self_s > 0 else 0.0
    out["noise.expm_ms"] = ms("noise.expm")
    out["noise.counting_fd_ms"] = ms("noise.counting_fd")
    out["noise.self_ms"] = self_ms("noise")

    sweeps = [r for r in records if r["name"] == "sweep.run"]
    points = sum(r["counters"].get("points", 0) for r in sweeps)
    sweep_lus = sum(1 for r in records if r["name"].endswith(".lu")
                    and "sweep.run" in r["ancestors"])
    wall = sum(r["incl"] for r in sweeps)
    cpu = sum(r["cpu"] for r in sweeps)
    worker_wall = sum(r["incl"] * r["counters"].get("workers", 1) for r in sweeps)
    out["sweep.run_ms"] = 1e3 * wall / n_iter
    out["sweep.points"] = points / n_iter
    out["sweep.lu_per_point"] = sweep_lus / points if points else 0.0
    out["sweep.cpu_s"] = cpu / n_iter
    out["sweep.parallel_eff"] = cpu / worker_wall if worker_wall > 0 else 0.0
    out["sweep.self_ms"] = self_ms("sweep")

    out["cli.overhead_ms"] = self_ms("cli")
    out["cli.output_bytes"] = output_bytes
    out["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    return {name: float(out[name]) for name, _, _ in PER_LAYER}


def misattributed_lu(records) -> int:
    """splu spans whose direct parent is not a steady/noise span on the same thread."""
    return sum(1 for r in records if r["name"].endswith(".lu") and not (
        r["same_thread_parent"] and (r["parent"] or "").split(".")[0] in LU_OWNERS))
