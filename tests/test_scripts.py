import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import bugsize

ROOT = Path(__file__).resolve().parents[1]


def test_calibration_script_runs():
    src = str(Path(bugsize.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [
            sys.executable, str(ROOT / "scripts" / "run_calibration.py"),
            "--scenarios", "2", "--iterations", "60", "--burn-in", "20",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("phases covered") == 2
    assert "coverage" in done.stdout
    # one rank per phase total: the 2-phase and the 3-phase scenario
    (fifths,) = [line for line in done.stdout.splitlines() if line.startswith("rank fifths ")]
    counts = [int(count) for count in fifths.removeprefix("rank fifths ").split(" / ")]
    assert len(counts) == 5 and sum(counts) == 5


def test_benchmark_traced_names_resolve():
    # bench/run.py wraps each name of its TRACED table on its bugsize module;
    # read the table without importing the benchmark
    tree = ast.parse((ROOT / "bench" / "run.py").read_text(encoding="utf-8"))
    (traced,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["TRACED"]
    ]
    missing = [
        f"{module}.{name}"
        for module, names in traced.items()
        for name in names
        if not hasattr(importlib.import_module(f"bugsize.{module}"), name)
    ]
    assert traced and missing == []
