import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_compare_outputs_finds_the_tree_identical_to_itself():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "compare_outputs.py"), str(ROOT),
                           "--only", "sweep-fig2-w1"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    name, result, *rest = proc.stdout.split()
    assert (name, result) == ("sweep-fig2-w1", "identical")
    assert proc.stdout.rstrip().endswith("exit 0       stderr same")
