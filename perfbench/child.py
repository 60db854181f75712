"""One workload process of the benchmark; started by run.py, never directly.

Usage: child.py SPEC.json MODE, where MODE is

* ``setup``: import the package and build the preset/config, record the
  monotonic clock when ready, and exit;
* ``run``: the same set-up, then a closed loop of workload runs until
  ``seconds`` have passed, then peak RSS and the untimed oracle;
* ``trace``: the same set-up, then pairs of one untraced and one traced
  workload run until ``seconds`` have passed, then the per-layer metrics.

The result goes to ``<workdir>/result-<mode>.json``; run.py checks the
written outputs.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def environment(workers: int) -> dict:
    import numpy
    import scipy

    def blas(module):
        try:
            dep = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep.get('name')} {dep.get('version')}"
        except (KeyError, TypeError, ValueError):
            return "unknown"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": blas(numpy),
        "blas_scipy": blas(scipy),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "workers": workers,
    }


def main(spec_path: str, mode: str) -> None:
    import workloads

    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    workdir = spec["workdir"]
    wl = workloads.WORKLOADS[spec["workload"]]
    inp = spec["inputs"]
    config_path = os.path.join(workdir, workloads.CONFIG_NAME)
    prepared = wl.prepare(inp, config_path)
    ready = time.monotonic()
    result = {"ready": ready}

    if mode == "trace":
        import layers
        import tracer as tracing

    if mode != "setup":
        argv = [config_path if a == workloads.CONFIG_NAME else a for a in inp["argv"]]
        seconds = float(spec["seconds"])
        runs = []
        begin = time.perf_counter()

        def more() -> bool:
            if mode == "trace" and len(runs) % 2 == 1:
                return True  # a traced run always follows its untraced partner
            return not runs or time.perf_counter() - begin < seconds

        while more():
            k = len(runs)
            traced = mode == "trace" and k % 2 == 1
            out = os.path.join(workdir, f"out-{k}.csv")
            tracer = tracing.Tracer() if traced else None
            if tracer is not None:
                tracer.install(layers.targets())
            try:
                t0 = time.perf_counter()
                extras = wl.run(inp, prepared, argv, out)
                wall = time.perf_counter() - t0
            finally:
                if tracer is not None:
                    tracer.uninstall()
            runs.append({"out": out, "wall": wall, "traced": traced, "extras": extras,
                         "spans": tracer.spans if traced else None})
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["oracle"] = wl.oracle(inp, prepared)
        result["environment"] = environment(inp["workers"])
        if mode == "trace":
            records = [r for run in runs if run["traced"] for r in tracing.resolve(run["spans"])]
            traced_walls = [run["wall"] for run in runs if run["traced"]]
            plain_walls = [run["wall"] for run in runs if not run["traced"]]
            out_bytes = [os.path.getsize(run["out"]) for run in runs if run["traced"]]
            result["per_layer"] = layers.metrics(
                records, len(traced_walls), sum(traced_walls) / len(traced_walls),
                sum(plain_walls) / len(plain_walls), sum(out_bytes) / len(out_bytes))
            result["spans"] = layers.span_table(records)
            result["misattributed_lu"] = layers.misattributed_lu(records)
        for run in runs:
            run.pop("spans")
        result["runs"] = runs

    with open(os.path.join(workdir, f"result-{mode}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
