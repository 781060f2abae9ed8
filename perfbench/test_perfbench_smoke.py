"""Smoke test of the benchmark: a tiny slice of every workload, traced and
untraced, must emit every metric BENCHMARK.json names, with its unit, and
have error_ratio 0.  It checks that the benchmark runs, not its timings."""

import subprocess
import sys
from pathlib import Path


def test_benchmark_smoke():
    run = Path(__file__).resolve().with_name("run.py")
    proc = subprocess.run([sys.executable, str(run), "--smoke"], capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
