"""Benchmark of the dqdnoise pipeline: four workloads, end-to-end metrics,
and a traced per-layer breakdown.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of spectral_fig2, zero_freq_fig5a, param_map_fig5b,
oracle_triangle, or ``all``. Each workload runs in fresh child processes
with BLAS pinned to one thread and ``DQDNOISE_WORKERS`` cleared; the
worker count is passed explicitly. With ``--trace 0`` the last line of
stdout is a JSON object with the end-to-end metrics (wall_s, setup_s,
peak_rss_mb); with ``--trace 1`` it carries the per-layer metrics. A
human-readable report, including fail_frac and the environment, goes to
stderr. The exit code is 1 when any output check fails, 2 when the
package source or the reference data is missing, 3 when a child fails.

``--smoke`` runs the two-point grids of ``selftest.py``; ``--corrupt``
perturbs one output value before the checks, to show that they fail.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

#: set-up-only processes per run, after one warm-up that compiles bytecode
SETUP_SAMPLES = 4
SETUP_TIMEOUT = 60
RUN_TIMEOUT = 150
MIN_TAIL = 10  # samples a reported tail percentile must have beyond it

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """A child process failed or timed out."""


def child_env() -> dict:
    env = dict(os.environ)
    for var in BLAS_VARS:
        env[var] = "1"
    env.pop("DQDNOISE_WORKERS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(spec_path: Path, mode: str, timeout: float) -> tuple[float, dict]:
    """Run child.py; return (seconds from spawn to ready, child result)."""
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(spec_path), mode],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} child timed out after {timeout:g} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} child exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    with open(spec_path.parent / f"result-{mode}.json", encoding="utf-8") as fh:
        result = json.load(fh)
    return result["ready"] - start, result


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """Highest nearest-rank percentile with MIN_TAIL samples above it."""
    n = len(samples)
    rank = n - MIN_TAIL
    if rank < 1:
        return None
    return 100.0 * rank / n, sorted(samples)[rank - 1]


def corrupt(text: str) -> str:
    """Scale the value of the first data row by 1 + 1e-3."""
    lines = text.splitlines()
    data = [k for k, ln in enumerate(lines) if ln and not ln.startswith("#")]
    header, first = lines[data[0]].split(","), data[1]
    col = header.index("value") if "value" in header else len(header) - 1
    fields = lines[first].split(",")
    fields[col] = repr(float(fields[col]) * (1 + 1e-3))
    lines[first] = ",".join(fields)
    return "\n".join(lines) + "\n"


def run_workload(name: str, args, ref: dict) -> tuple[dict, list[str]]:
    wl = workloads.WORKLOADS[name]
    section = ref["smoke" if args.smoke else "full"][name]
    workdir = ROOT / ".bench_build" / "perfbench" / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        inp = wl.inputs(args.seed, section, args.smoke)
        (workdir / workloads.CONFIG_NAME).write_text(inp["config"], encoding="utf-8")
        spec_path = workdir / "spec.json"
        spec_path.write_text(json.dumps({"workload": name, "inputs": inp, "seconds": args.seconds,
                                         "workdir": str(workdir)}), encoding="utf-8")
        mode = "trace" if args.trace else "run"
        setups = []
        if not args.trace:
            for k in range(SETUP_SAMPLES + 1):
                seconds, _ = spawn(spec_path, "setup", SETUP_TIMEOUT)
                if k:
                    setups.append(seconds)
        seconds, result = spawn(spec_path, mode, RUN_TIMEOUT)
        setups.append(seconds)
        runs = result["runs"]
        for run in runs:
            run["text"] = Path(run["out"]).read_text(encoding="utf-8")
        if args.corrupt:
            runs[0]["text"] = corrupt(runs[0]["text"])
        tally = workloads.Tally()
        wl.check(inp, runs, result["oracle"], section, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = result["environment"]
    lines = [f"perfbench {name} seed={args.seed} trace={args.trace}"
             + (" (smoke)" if args.smoke else ""),
             "  environment: Python {python}, numpy {numpy} ({blas_numpy}), scipy {scipy} "
             "({blas_scipy}), nproc {nproc}, CPU {cpu}, BLAS threads {blas_threads}, "
             "workers {workers}".format(**env)]
    walls = [r["wall"] for r in runs if not r["traced"]]
    if args.trace:
        units = {n: u for n, u, _ in layers.PER_LAYER}
        metrics = {n: {"value": v, "unit": units[n]} for n, v in result["per_layer"].items()}
        lines += [f"  {n:30s} {m['value']:.6g} {m['unit']}" for n, m in metrics.items()]
        lines.append("  spans (per traced run, seconds): name calls incl self, by self time")
        n_traced = sum(1 for r in runs if r["traced"])
        for span, row in sorted(result["spans"].items(), key=lambda kv: -kv[1]["self"]):
            lines.append(f"  span {span:24s} calls={row['calls'] / n_traced:g} "
                         f"incl={row['incl'] / n_traced:.4f} self={row['self'] / n_traced:.4f}")
        lines.append(f"  misattributed_lu {result['misattributed_lu']}")
    else:
        values = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setups),
                  "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
        tail = tail_percentile(walls)
        tail_text = (f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail else
                     f"no tail percentile (needs >= {MIN_TAIL + 1} samples)")
        lines += [
            f"  wall_s      {values['wall_s']:.4f} s   median of n={len(walls)} runs "
            f"[{', '.join(f'{w:.3f}' for w in walls)}]; {tail_text}",
            f"  setup_s     {values['setup_s']:.4f} s   median of n={len(setups)} fresh "
            f"processes [{', '.join(f'{s:.3f}' for s in setups)}]",
            f"  peak_rss_mb {values['peak_rss_mb']:.1f} MB",
        ]
    lines.append(f"  fail_frac   {tally.failed / tally.attempted:.6g} 1   ({tally.failed} of "
                 f"{tally.attempted} values failed, {tally.gaps} gaps)")
    lines += [f"  FAIL {m}" for m in tally.messages]
    result_line = {"correct": tally.failed == 0, "attempted": tally.attempted,
                   "failed": tally.failed, "metrics": metrics}
    return result_line, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "dqdnoise" / "cli.py").is_file():
        print(f"perfbench: no dqdnoise package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        with open(HERE / "reference.json", encoding="utf-8") as fh:
            ref = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read reference.json: {exc}", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    code = 0
    for name in names:
        try:
            result_line, lines = run_workload(name, args, ref)
        except BenchError as exc:
            print(f"perfbench {name}: {exc}", file=sys.stderr)
            return 3
        print("\n".join(lines), file=sys.stderr)
        print(json.dumps(result_line), flush=True)
        if not result_line["correct"]:
            code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
