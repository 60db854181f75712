"""Regenerate ``reference.json``: the grids and values the benchmark checks
its outputs against.

Run from the repository root: ``python3 perfbench/make_reference.py``
(about five minutes on two cores). It computes every point any seed can
select: the full fig2, fig5a and fig5b grids, and the oracle workload at
each of the 20 nonzero fig2 couplings, plus the smoke grids used by
``selftest.py``. Values are stored to 12 significant digits, enough for
the 1e-6 comparison; grids are stored exactly.
"""

from __future__ import annotations

import json
import os
import sys
import shutil
from dataclasses import asdict, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
os.environ.pop("DQDNOISE_WORKERS", None)
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from dqdnoise import cli, sweep  # noqa: E402

DIGITS = 12
#: MacDonald step of the oracle workload: twice the CLI default halves the
#: 80,004 steps at fig2's slowest decay rate; resolvent agreement stays ~2e-10
MACDONALD_DT = 0.04
#: cutoff of the oracle workload's dense eigendecomposition (D^2 = 441)
EIG_N_FOCK = 6


def _round(v: float) -> float:
    return float(f"{v:.{DIGITS}g}")


def _values(csv_text: str) -> list[float]:
    return [_round(float(row[-1])) for row in workloads.parse_csv(csv_text)]


def _sweep_skeleton(base, axes, hamiltonian: str) -> dict:
    return {"base": asdict(base), "hamiltonian": hamiltonian, "quantity": "S_ee",
            "axes": [{"name": n, "values": [float(v) for v in vals]} for n, vals in axes]}


def _run(wl, inp: dict, tmp: str) -> tuple[str, dict]:
    cfg = os.path.join(tmp, workloads.CONFIG_NAME)
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(inp["config"])
    argv = [cfg if a == workloads.CONFIG_NAME else a for a in inp["argv"]]
    out = os.path.join(tmp, "out.csv")
    extras = wl.run(inp, wl.prepare(inp, cfg), argv, out)
    with open(out, encoding="utf-8") as fh:
        return fh.read(), extras


def sweep_reference(name: str, skeleton: dict, tmp: str, preset: str | None) -> dict:
    wl = workloads.WORKLOADS[name]
    if preset is not None:  # every column of the preset grid
        out = os.path.join(tmp, "out.csv")
        cli.main(["sweep", "--preset", preset, "--workers", "2", "--out", out])
        with open(out, encoding="utf-8") as fh:
            text = fh.read()
    else:
        text, _ = _run(wl, wl.inputs(0, skeleton, smoke=True), tmp)
    return dict(skeleton, values=_values(text))


def oracle_reference(base, couplings, spectrum: dict, eig_n_fock: int, tmp: str) -> dict:
    wl = workloads.WORKLOADS["oracle_triangle"]
    ref = {"base": asdict(base), "spectrum": spectrum, "eig_n_fock": eig_n_fock,
           "macdonald_dt": MACDONALD_DT, "points": []}
    for g in couplings:
        skeleton = dict(ref, points=[{"g": float(g)}])
        text, extras = _run(wl, wl.inputs(0, skeleton, smoke=True), tmp)
        point = {"g": float(g), "fd": _round(extras["fd"]),
                 "slowest_rate": _round(extras["slowest_rate"])}
        rows = workloads.parse_csv(text)
        for method in wl.METHODS:
            point[method] = [_round(float(r[1])) for r in rows if r[2] == method]
        ref["omega"] = [float(r[0]) for r in rows if r[2] == wl.METHODS[0]]
        ref["points"].append(point)
        print(f"oracle g={g:.2f} done", file=sys.stderr)
    return ref


def main() -> None:
    fig2, fig5a, fig5b = sweep.preset("fig2"), sweep.preset("fig5a"), sweep.preset("fig5b")
    omega = fig2.axes[1]
    spectrum = {"omega_start": omega.start, "omega_stop": omega.stop,
                "omega_count": omega.count}
    ref: dict = {"full": {}, "smoke": {}}
    work = ROOT / ".bench_build" / "make_reference"
    work.mkdir(parents=True, exist_ok=True)
    tmp = str(work)
    try:
        smoke = ref["smoke"]
        smoke["spectral_fig2"] = sweep_reference("spectral_fig2", _sweep_skeleton(
            replace(fig2.base, g=0.4), [("omega", [0.6, 1.0])], "jc"), tmp, None)
        smoke["zero_freq_fig5a"] = sweep_reference("zero_freq_fig5a", _sweep_skeleton(
            replace(fig5a.base, temperature=0.5), [("epsilon", [-1.0, 0.5])], "full"),
            tmp, None)
        smoke["param_map_fig5b"] = sweep_reference("param_map_fig5b", _sweep_skeleton(
            replace(fig5b.base, g=0.4), [("epsilon", [-0.5, 0.1])], "full"), tmp, None)
        smoke["oracle_triangle"] = oracle_reference(
            replace(fig2.base, n_fock=1), [0.4],
            {"omega_start": 0.2, "omega_stop": 1.8, "omega_count": 2}, 2, tmp)
        print("smoke references done", file=sys.stderr)

        full = ref["full"]
        for name, spec in (("spectral_fig2", fig2), ("param_map_fig5b", fig5b),
                           ("zero_freq_fig5a", fig5a)):
            axes = [(a.name, a.grid()) for a in spec.axes]
            full[name] = sweep_reference(
                name, _sweep_skeleton(spec.base, axes, spec.hamiltonian), tmp, spec.preset)
            print(f"{name} done", file=sys.stderr)
        couplings = [g for g in fig2.axes[0].grid() if g != 0.0]
        full["oracle_triangle"] = oracle_reference(
            replace(fig2.base, n_fock=4), couplings, spectrum, EIG_N_FOCK, tmp)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(ref, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
