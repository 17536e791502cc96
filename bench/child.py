"""One benchmark repetition in a fresh process.

Usage: python3 bench/child.py JOB.json

The job names a mode: "setup" times importing spdelab, load_config and
make_system; "run" times one experiment; "traced" times one experiment with
the trace wrappers of spans.py installed.  The outcome is written as JSON to
the job's result path.  Only the standard library is imported before the
timer starts, so "setup" sees a cold spdelab import.
"""
import contextlib
import io
import json
import os
import resource
import sys
import time

import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_spdelab():
    sys.path.insert(0, SRC)
    import spdelab.runner

    where = os.path.dirname(os.path.abspath(spdelab.__file__))
    if where != os.path.join(SRC, "spdelab"):
        raise RuntimeError(f"imported spdelab from {where}, not from {SRC}")
    return spdelab.runner


def _environment() -> dict:
    import numpy
    import scipy

    def blas(mod):
        dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def calibration_s() -> float:
    """Wall time of a fixed kernel of small numpy calls driven from Python.

    The kernel resembles spdelab's hot loops and shares none of its code, so
    its time tracks how fast the host runs this process right now.
    """
    import numpy as np

    m = np.arange(9.0).reshape(3, 3)
    v = np.ones(3)
    acc = 0.0
    start = time.perf_counter()
    for _ in range(50_000):
        acc += float(m @ v @ v)
    return time.perf_counter() - start


def _setup(job: dict) -> dict:
    start = time.perf_counter()
    runner = _import_spdelab()
    cfg = runner.load_config(job["config_path"])
    params = {k: v for k, v in cfg.system.items() if k != "name"}
    runner.make_system(cfg.system["name"], **params)
    setup_s = time.perf_counter() - start
    return {"setup_s": setup_s, "calibration_s": calibration_s()}


def _experiment(job: dict, traced: bool) -> dict:
    runner = _import_spdelab()
    import spdelab.cli as cli

    tracer = None
    if traced:
        tracer = spans.Tracer()
        spans.install(tracer)
    if job["entry"] == "convergence":
        root = "cli.main"
        argv = job["cli_args"] + ["--config", job["config_path"]]
        call = cli.main if tracer is None else tracer.span(root, cli.main)
        stdout = io.StringIO()
        before = calibration_s()
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout):
            code = call(argv)
        run_s = time.perf_counter() - start
        out = _measured(run_s, tracer, root, before)
        out.update({"exit_code": code, "report": json.loads(stdout.getvalue())})
    else:
        root = "runner.run"
        cfg = runner.load_config(job["config_path"])
        call = runner.run if tracer is None else tracer.span(root, runner.run)
        before = calibration_s()
        start = time.perf_counter()
        manifest = call(cfg)
        run_s = time.perf_counter() - start
        out = _measured(run_s, tracer, root, before)
        with open(os.path.join(manifest.run_dir, "report.json")) as fh:
            report = json.load(fh)
        out.update({
            "report": report,
            "summary": runner.report_summary(manifest.run_dir),
            "manifest_blowups": manifest.blowups,
        })
        if job.get("oracle"):
            params = {k: v for k, v in cfg.system.items() if k != "name"}
            spec = runner.make_system(cfg.system["name"], **params)
            out["oracle_limit"] = spec.oracle.quotient_limit(spec.u0)
    return out


def _measured(run_s: float, tracer, root: str, before: float) -> dict:
    """Timing, peak memory and (when traced) layer metrics, read right after the run.

    calibration_s averages the kernel's time just before and just after it.
    """
    out = {"run_s": run_s,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        out["layers"] = spans.layer_metrics(tracer, root)
    out["calibration_s"] = 0.5 * (before + calibration_s())
    return out


def main() -> int:
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    if job["mode"] == "setup":
        out = _setup(job)
    else:
        out = _experiment(job, traced=job["mode"] == "traced")
    out["environment"] = _environment()
    with open(job["result_path"], "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
