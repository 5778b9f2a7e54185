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
