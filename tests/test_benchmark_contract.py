"""The benchmark in ``perfbench/`` drives the package through fixed entry
points (``cli.main``, ``steady.solve_steady_state``, ``steady.currents``,
``superop.build_liouvillian``, ``superop.spectrum``,
``noise.ResolventSolver.apply`` (the omega = 0 solve on the charge-sector
block), ``noise.compute_spectrum`` (which carries every point's noise, for
sweeps and the ``spectrum`` command alike), ``noise.counting_fd_check``,
``noise.macdonald_correlation_trace(liouv, ...)``, ``sweep.run_sweep``) and
checks every output against ``perfbench/reference.json``. Its traced smoke run on every
workload fails when one of those names moves or an output drifts."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_perfbench_smoke_run_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "1",
         "--seconds", "0.5", "--smoke", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
