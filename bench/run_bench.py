"""spdelab benchmark: one workload, end-to-end or per-layer, from a seed.

Usage (from the repository root):

    python3 bench/run_bench.py --workload diag-ensemble --seed 1 --seconds 15 --trace 0

Closed loop, one client: each repetition is one experiment (`runner.run`, or
the `convergence` command through `cli.main`) in a fresh process with one
BLAS thread, and the next starts only after it ends.  A run opens with an
untimed repetition at the reference seed, compared with reference.json,
then repeats the seeded experiment until `--seconds` have passed.  Every
repetition is checked (see workloads.py) and its run directory, written
under .bench_tmp/ in the checkout, is counted and deleted.

--trace 0 reports the end-to-end metrics: run_s (median wall time of one
experiment), path_steps_per_s, setup_s (median over fresh processes of
importing spdelab, load_config and make_system) and peak_rss_mb.  --trace 1
alternates untraced and traced repetitions and reports the per-layer
metrics of spans.py.  The last stdout line is one JSON object with keys
correct, attempted, failed and metrics; fail_frac is failed / attempted.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from workloads import CONVERGENCE_ARGS, REFERENCE_SEED, WORKLOADS, compare

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_tmp")

SETUP_PROCESSES = 3
MIN_REPETITIONS = 3  # timed repetitions (or traced pairs) per run, whatever --seconds says
CHILD_TIMEOUT_S = 30
RUN_LIMIT_S = 120  # start no repetition after this, so a run ends well within 180 s
THREADS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
UNACCOUNTED_TOL = 0.01  # share of traced run_s that layer self times may miss
#: child.calibration_s() on the reference host; times are reported in
#: reference-host seconds (wall time scaled by this over the measured kernel time)
CALIBRATION_REFERENCE_S = 0.1

END_TO_END_UNITS = {
    "run_s": "s", "path_steps_per_s": "path-steps/s", "setup_s": "s", "peak_rss_mb": "MB",
}


@contextlib.contextmanager
def scratch_dir():
    """A fresh directory under .bench_tmp/, removed with .bench_tmp/ itself when empty."""
    os.makedirs(SCRATCH, exist_ok=True)
    path = tempfile.mkdtemp(dir=SCRATCH)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            os.rmdir(SCRATCH)


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "bytes" if name.endswith("bytes_written") else "count"


def count_outputs(path: str) -> tuple:
    n_bytes = n_files = 0
    for folder, _, files in os.walk(path):
        for f in files:
            n_bytes += os.path.getsize(os.path.join(folder, f))
            n_files += 1
    return n_bytes, n_files


class Bench:
    """Repetitions of one workload, with attempt and failure counts."""

    def __init__(self, workload, seed: int, tiny: bool, scratch: str) -> None:
        self.workload = workload
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0
        self.environment = None  # host and library versions, as the last child saw them
        self.start = time.perf_counter()
        self.configs = {}
        for label, s in (("seeded", seed), ("reference", REFERENCE_SEED)):
            cfg = workload.make_config(s, tiny)
            path = os.path.join(scratch, f"{label}.json")
            with open(path, "w") as fh:
                json.dump(cfg, fh)
            self.configs[label] = (cfg, path)

    def child(self, mode: str, label: str) -> dict:
        """Run child.py once; return its outcome, with outputs counted and deleted."""
        cfg, cfg_path = self.configs[label]
        rep_dir = tempfile.mkdtemp(dir=self.scratch)
        out_root = os.path.join(rep_dir, "out")
        job = {
            "mode": mode, "entry": self.workload.entry, "config_path": cfg_path,
            "cli_args": CONVERGENCE_ARGS, "oracle": self.workload.oracle,
            "result_path": os.path.join(rep_dir, "result.json"),
        }
        job_path = os.path.join(rep_dir, "job.json")
        with open(job_path, "w") as fh:
            json.dump(job, fh)
        env = dict(os.environ, SPDELAB_OUTPUT_ROOT=out_root, **THREADS_ENV)
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), job_path],
                env=env, cwd=ROOT, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S,
            )
            if proc.returncode != 0:
                tail = (proc.stderr.strip().splitlines() or ["no message"])[-1]
                raise RuntimeError(f"{mode} process exited {proc.returncode}: {tail}")
            with open(job["result_path"]) as fh:
                out = json.load(fh)
            self.environment = out.pop("environment")
            out["bytes_written"], out["files_written"] = count_outputs(out_root)
            return out
        except subprocess.TimeoutExpired as exc:
            raise RuntimeError(f"{mode} process timed out after {CHILD_TIMEOUT_S} s") from exc
        finally:
            shutil.rmtree(rep_dir, ignore_errors=True)

    def repetition(self, mode: str, label: str = "seeded", like=None, reference=None):
        """One checked experiment; None if it raised, exited non-zero or failed a check."""
        self.attempted += 1
        cfg = self.configs[label][0]
        try:
            out = self.child(mode, label)
        except RuntimeError as exc:
            problems = [str(exc)]
        else:
            problems = self.workload.check(cfg, out)
            if label == "reference":
                problems += (compare(out["report"], reference, "reference") if reference
                             else ["no stored reference for this workload and size"])
            if like is not None:
                problems += compare(out["report"], like["report"], "repeat")
            if mode == "traced":
                problems += _trace_problems(out, like)
        tag = f"{mode} seed={cfg['master_seed']}"
        if problems:
            self.failed += 1
            print(f"rep {self.attempted} {tag} FAILED: {'; '.join(problems)}", flush=True)
            return None
        print(f"rep {self.attempted} {tag} wall_s={out['run_s']:.4f} "
              f"calibration_s={out['calibration_s']:.4f} peak_rss_mb={out['peak_rss_mb']:.1f} "
              f"files={out['files_written']} ok", flush=True)
        return out

    def more(self, done: int, last_wall: float, seconds: float) -> bool:
        """Whether to start another timed repetition (or pair)."""
        elapsed = time.perf_counter() - self.start
        if elapsed > RUN_LIMIT_S:
            return False
        return done < MIN_REPETITIONS or elapsed + last_wall <= seconds


def _trace_problems(out: dict, like) -> list:
    layers = out["layers"]
    missed = out["run_s"] - layers["trace.self_sum_s"]
    problems = []
    if abs(missed) > UNACCOUNTED_TOL * out["run_s"]:
        problems.append(f"layer self times miss {missed:.4f} s of run_s {out['run_s']:.4f}")
    if like is not None:
        counts = [k for k in layers if layer_unit(k) != "s"]
        differ = [k for k in counts if layers[k] != like["layers"][k]]
        if differ:
            problems.append(f"traced counts differ between repetitions: {differ[:3]}")
    return problems


def host_scaled(out: dict, key: str) -> float:
    """`out[key]` in reference-host seconds, scaled by the child's own calibration."""
    return out[key] * CALIBRATION_REFERENCE_S / out["calibration_s"]


def _quartiles(values: list) -> str:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return f"n={len(values)} p25={q[0]:.4f} p50={q[1]:.4f} p75={q[2]:.4f}"


def end_to_end(bench: Bench, seconds: float) -> dict:
    setups = [bench.child("setup", "seeded") for _ in range(SETUP_PROCESSES)]
    timed: list = []
    bench.start = time.perf_counter()
    tried, wall = 0, 0.0
    while bench.more(tried, wall, seconds):
        t0 = time.perf_counter()
        out = bench.repetition("run", like=timed[0] if timed else None)
        wall = time.perf_counter() - t0
        tried += 1
        if out is not None:
            timed.append(out)
    if not timed:
        raise RuntimeError("no repetition succeeded")
    runs = [host_scaled(o, "run_s") for o in timed]
    work = bench.workload.work(bench.configs["seeded"][0])
    print(f"run_s {_quartiles(runs)}")
    print(f"run_wall_s {_quartiles([o['run_s'] for o in timed])}")
    print(f"setup_wall_s {_quartiles([o['setup_s'] for o in setups])}")
    print(f"work path_steps={work}")
    run_s = statistics.median(runs)
    return {
        "run_s": run_s,
        "path_steps_per_s": work / run_s,
        "setup_s": statistics.median(host_scaled(o, "setup_s") for o in setups),
        "peak_rss_mb": statistics.median(o["peak_rss_mb"] for o in timed),
    }


def per_layer(bench: Bench, seconds: float) -> dict:
    plain: list = []
    traced: list = []
    bench.start = time.perf_counter()
    pairs, wall = 0, 0.0
    while bench.more(pairs, wall, seconds):
        t0 = time.perf_counter()
        for mode, outs in (("run", plain), ("traced", traced)):
            out = bench.repetition(mode, like=outs[0] if outs else None)
            if out is not None:
                outs.append(out)
        wall = time.perf_counter() - t0
        pairs += 1
    if not (plain and traced):
        raise RuntimeError("no traced and untraced repetition pair succeeded")
    for out in traced:
        factor = CALIBRATION_REFERENCE_S / out["calibration_s"]
        layers = out["layers"]
        layers["trace.unaccounted_s"] = out["run_s"] - layers.pop("trace.self_sum_s")
        layers["trace.run_s"] = out["run_s"]
        layers["runner.bytes_written"] = out["bytes_written"]
        layers["runner.files_written"] = out["files_written"]
        for key in layers:
            if layer_unit(key) == "s":
                layers[key] *= factor
    metrics = {k: statistics.median(o["layers"][k] for o in traced) for k in traced[0]["layers"]}
    metrics["trace.overhead_s"] = (
        metrics["trace.run_s"] - statistics.median(host_scaled(o, "run_s") for o in plain))
    print(f"trace samples traced={len(traced)} untraced={len(plain)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for bench/selfcheck.py")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "spdelab", "__init__.py")):
        print(f"error: no spdelab sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)[args.size].get(args.workload)

    with scratch_dir() as scratch:
        bench = Bench(WORKLOADS[args.workload], args.seed, args.size == "tiny", scratch)
        print(f"bench workload={args.workload} seed={args.seed} size={args.size} "
              f"seconds={args.seconds} trace={args.trace}", flush=True)
        bench.repetition("run", label="reference", reference=reference)
        print("environment " + json.dumps(bench.environment, sort_keys=True), flush=True)
        try:
            if args.trace:
                metrics, units = per_layer(bench, args.seconds), layer_unit
            else:
                metrics, units = end_to_end(bench, args.seconds), END_TO_END_UNITS.get
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units(name)}")
    print(f"metric fail_frac = {bench.failed / bench.attempted:.6g} ratio "
          f"({bench.failed} of {bench.attempted} repetitions failed)")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": units(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
