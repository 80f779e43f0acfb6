"""The experiment scripts run end to end on small inputs."""

import subprocess
import sys
from pathlib import Path

from kfrag.baselines import SchemeId

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_security_analysis_writes_one_report_per_scheme(tmp_path):
    # k = 2 keeps every fragment of a 2000-byte sample at or above the
    # 1000 bytes chi-squared needs
    child = subprocess.run(
        [sys.executable, str(SCRIPTS / "security_analysis.py"), "--samples", "1",
         "--size", "2000", "--k", "2", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert sorted(p.name for p in tmp_path.glob("report_*.json")) == sorted(
        f"report_{s.value}_s0.json" for s in SchemeId
    )


def test_security_analysis_rejects_a_size_too_small_for_chi_squared(tmp_path):
    # at the default k = 4, IDA fragments of a 2000-byte sample hold 500 bytes
    child = subprocess.run(
        [sys.executable, str(SCRIPTS / "security_analysis.py"), "--samples", "1",
         "--size", "2000", "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 2, child.stderr
    assert "--size must be at least 3997" in child.stderr
    assert "Traceback" not in child.stderr
    assert not (tmp_path / "out").exists()
