"""The benchmark's tracer still finds every spdelab name it wraps."""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_tracer_installs_on_the_current_api():
    """bench/spans.py rebinds spdelab functions by name and raises when one
    is missing, so an API change that drops a traced name fails here."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "bench"), os.path.join(ROOT, "src")]))
    done = subprocess.run(
        [sys.executable, "-c", "import spans; spans.install(spans.Tracer())"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
