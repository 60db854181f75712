"""Compare every shipped output of the working tree against a reference tree.

Usage: python tools/compare_outputs.py REF [--only NAME ...]

REF is a git revision of this repository or a directory holding a copy of it.
The script copies the ``src`` tree of REF and of the working tree into a
temporary directory, which it removes at the end, runs each output in a
fresh process at one BLAS thread on both sides, and prints one line per
output:

* ``identical`` when the output file's bytes are the same, or else the
  largest move of a number over its CSV column's maximum (in any other
  output, over the number's own size), or ``text differs`` when more than
  numbers changed;
* the exit codes, and whether stderr is the same.

The outputs are every preset sweep at ``--workers 1`` and ``--workers 2``,
``spectrum --preset fig2 --methods resolvent,eigen,macdonald``,
``check --check full`` and ``steady --preset fig5a``. ``--only`` picks some
of them by the names the table prints. The exit code is 0 when every output
is identical with the same exit code and stderr, and 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tarfile
import tempfile
from io import BytesIO
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PRESETS = ("fig2", "fig3", "fig4a", "fig4b", "fig5a", "fig5b", "fig5c", "fig6a", "fig6b",
           "fig6c")
NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")
RUN = "import sys; from dqdnoise.cli import main; sys.exit(main(sys.argv[1:]))"


def outputs() -> dict[str, list[str]]:
    """Output name -> dqdnoise arguments, without ``--out``."""
    runs = {f"sweep-{p}-w{w}": ["sweep", "--preset", p, "--workers", str(w)]
            for p in PRESETS for w in (1, 2)}
    runs["spectrum-fig2"] = ["spectrum", "--preset", "fig2", "--methods",
                             "resolvent,eigen,macdonald"]
    runs["check-full"] = ["check", "--check", "full"]
    runs["steady-fig5a"] = ["steady", "--preset", "fig5a"]
    return runs


def copy_tree(ref: str, dest: Path) -> None:
    """The ``src`` tree of ``ref``, a directory or a git revision, at dest/src."""
    if os.path.isdir(ref):
        shutil.copytree(Path(ref) / "src", dest / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        return
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", ref, "src"],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run(side: Path, name: str, args: list[str]) -> tuple[int, bytes, bytes]:
    """(exit code, output file, stderr) of one output in a fresh process."""
    out = side / f"{name}.out"
    env = dict(os.environ, PYTHONPATH=str(side / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", RUN, *args, "--out", str(out)], cwd=side,
                          env=env, capture_output=True)
    return proc.returncode, out.read_bytes() if out.exists() else b"", proc.stderr


def move(ref: bytes, new: bytes) -> str:
    """"identical", the largest move of a number over its column's maximum, or
    "text differs"."""
    if ref == new:
        return "identical"
    a, b = ref.splitlines(), new.splitlines()
    if len(a) != len(b) or any(NUMBER.sub(b"#", x) != NUMBER.sub(b"#", y)
                               for x, y in zip(a, b)):
        return "text differs"
    csv = a and a[0].startswith(b"#schema=")
    columns: dict[object, list[tuple[float, float]]] = {}
    for k, (x, y) in enumerate(zip(a, b)):
        if csv and x.startswith(b"#"):
            continue
        for j, (u, v) in enumerate(zip(NUMBER.findall(x), NUMBER.findall(y))):
            columns.setdefault(j if csv else (k, j), []).append((float(u), float(v)))
    worst, where = 0.0, None
    for key, pairs in columns.items():
        scale = max(abs(u) for u, _ in pairs) or 1.0
        size = max(abs(u - v) if u == u or v == v else 0.0 for u, v in pairs) / scale
        if not size <= worst:
            worst, where = size, key
    if where is None:
        return "text differs"
    if csv:
        return f"moves by {worst:.2e} of its column maximum (column {where + 1})"
    return f"moves by {worst:.2e} of its own size (line {where[0] + 1})"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="a git revision or a directory holding the repository")
    parser.add_argument("--only", nargs="+", metavar="NAME", help="outputs to compare")
    args = parser.parse_args(argv)
    runs = outputs()
    unknown = set(args.only or ()) - set(runs)
    if unknown:
        parser.error(f"unknown outputs {sorted(unknown)}; known: {', '.join(runs)}")
    clean = True
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as scratch:
        sides = [Path(scratch) / "ref", Path(scratch) / "work"]
        copy_tree(args.ref, sides[0])
        copy_tree(str(ROOT), sides[1])
        for name, cmd in runs.items():
            if args.only and name not in args.only:
                continue
            (code_a, out_a, err_a), (code_b, out_b, err_b) = (run(s, name, cmd) for s in sides)
            result = move(out_a, out_b)
            codes = f"exit {code_a}" if code_a == code_b else f"exit {code_a} -> {code_b}"
            stderr = "stderr same" if err_a == err_b else "stderr differs"
            clean &= result == "identical" and code_a == code_b and err_a == err_b
            print(f"{name:<18} {result:<58} {codes:<12} {stderr}", flush=True)
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
