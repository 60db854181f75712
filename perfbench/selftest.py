"""Self-test of the benchmark on two-point smoke grids (about a minute).

Run from the repository root: ``python3 perfbench/selftest.py``. It
passes (exit 0) when

* every workload prints wall_s, setup_s, peak_rss_mb and fail_frac by
  name with their units, and its result line carries every end_to_end
  metric of BENCHMARK.json with its unit;
* a traced run carries every per_layer metric with its unit, emits spans
  for every layer, and attributes every splu call to a steady or noise
  parent on its own thread (param_map_fig5b runs two worker threads);
* a run with one corrupted output value fails its check and exits nonzero.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

REPORTED = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"), ("fail_frac", "1"))
SPANS = ("model.build", "superop.assemble", "superop.eig", "steady.solve", "steady.lu",
         "noise.spectrum", "noise.resolvent_apply", "noise.lu", "noise.macdonald",
         "noise.expm", "noise.counting_fd", "sweep.run", "cli.main")


def bench(*extra: str) -> tuple[int, list[dict], dict[str, str]]:
    """Run every smoke workload; return (exit code, result lines, report per workload)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "1",
         "--seconds", "0.5", "--smoke", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    results = [json.loads(ln) for ln in proc.stdout.splitlines() if ln.startswith("{")]
    reports = {}
    for block in re.split(r"^(?=perfbench )", proc.stderr, flags=re.M):
        if block.startswith("perfbench "):
            reports[block.split()[1]] = block
    return proc.returncode, results, reports


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            failures.append(what)

    names = list(workloads.WORKLOADS)
    code, results, reports = bench("--trace", "0")
    expect(code == 0 and len(results) == len(names), f"trace 0 run exited {code}")
    for name, result in zip(names, results):
        report = reports.get(name, "")
        for metric, unit in REPORTED:
            expect(re.search(rf"^\s+{metric}\s+\S+ {re.escape(unit)}\b", report, re.M),
                   f"{name}: {metric} [{unit}] not reported")
        for m in spec["end_to_end"]:
            got = result["metrics"].get(m["name"], {})
            expect(got.get("unit") == m["unit"] and got.get("value", 0) > 0,
                   f"{name}: end_to_end {m['name']} missing or not positive")
        expect(result["correct"] and result["failed"] == 0, f"{name}: outputs failed checks")

    code, results, reports = bench("--trace", "1")
    expect(code == 0 and len(results) == len(names), f"trace 1 run exited {code}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(declared == {n: u for n, u, _ in layers.PER_LAYER},
           "BENCHMARK.json per_layer differs from layers.PER_LAYER")
    seen = set()
    for name, result in zip(names, results):
        got = {n: m["unit"] for n, m in result["metrics"].items()}
        expect(got == declared, f"{name}: traced metrics differ from per_layer")
        report = reports.get(name, "")
        seen |= set(re.findall(r"^\s+span (\S+)", report, re.M))
        expect(re.search(r"^\s+misattributed_lu 0$", report, re.M),
               f"{name}: splu calls attributed to the wrong parent")
    for span in SPANS:
        expect(span in seen, f"no traced run emitted a {span} span")
    for layer in layers.LAYERS:
        expect(any(s.startswith(layer + ".") for s in seen), f"no spans for layer {layer}")

    code, results, _ = bench("--trace", "0", "--corrupt")
    expect(code == 1, f"corrupted run exited {code}, expected 1")
    for name, result in zip(names, results):
        expect(not result["correct"] and result["failed"] >= 1,
               f"{name}: corrupted output passed the check")

    for f in failures:
        print(f"FAIL {f}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
