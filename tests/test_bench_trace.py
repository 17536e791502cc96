"""The benchmark's tracer still finds every spdelab name it wraps."""
import json
import os
import subprocess
import sys
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [os.path.join(ROOT, "bench"), os.path.join(ROOT, "src")]))


def test_bench_tracer_installs_on_the_current_api():
    """bench/spans.py rebinds spdelab functions by name and raises when one
    is missing, so an API change that drops a traced name fails here."""
    done = subprocess.run(
        [sys.executable, "-c", "import spans; spans.install(spans.Tracer())"],
        env=ENV, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


TRACED_RUN = textwrap.dedent("""
    import json, sys, time
    import spans
    import spdelab.runner as runner

    tracer = spans.Tracer()
    spans.install(tracer)
    cfg = runner.ExperimentConfig(system={"name": "diagonal"}, T=0.5, dt=1e-3,
                                  paths=6, write_paths=True, output_dir=sys.argv[1])
    start = time.perf_counter()
    tracer.span("runner.run", runner.run)(cfg)
    root_s = time.perf_counter() - start
    print(json.dumps({"root_s": root_s, **spans.layer_metrics(tracer, "runner.run")}))
""")


def test_traced_run_keeps_worker_writes_inside_the_persist_span(tmp_path):
    """Writing the .npy tables is `runner._write_csv`, traced as
    runner.persist, and the layers' self times add up to the whole run."""
    done = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(tmp_path / "out")],
        env=ENV, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    layers = json.loads(done.stdout)
    assert len(os.listdir(tmp_path / "out" / "diagnostics")) == 6
    assert layers["runner.persist_s"] > 0
    assert abs(layers["trace.self_sum_s"] - layers["root_s"]) <= 0.01 * layers["root_s"]
