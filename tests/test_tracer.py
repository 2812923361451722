import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_benchmark_layer_metric_finds_a_wrapped_name():
    # perfbench's tracer wraps package names by string; a metric whose names
    # are all gone reads None and the benchmark's output is malformed.
    # Installed in a subprocess: install replaces module attributes.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = ("import tracer\n"
            "t = tracer.Tracer()\n"
            "tracer.install(t)\n"
            "lacking = [k for k, v in tracer.layer_metrics(t).items() if v is None]\n"
            "assert not lacking, f'no wrapped name for {lacking}; absent: {t.absent}'\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
