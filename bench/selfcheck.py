"""Fast self-check of the benchmark; exits non-zero on the first problem.

Usage (from the repository root): python3 bench/selfcheck.py

Runs every workload at tiny size, untraced and traced, and asserts that
each metric BENCHMARK.json names is emitted with its unit and that no
repetition failed.  Then checks that the benchmark refuses to run, without
printing a result, in a copy that holds only BENCHMARK.json and bench/.
"""
import json
import os
import shutil
import subprocess
import sys

from run_bench import HERE, ROOT, scratch_dir
from workloads import WORKLOADS


def bench(args: list, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run_bench.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def check_run(workload: str, trace: int, declared: list) -> None:
    proc = bench(["--workload", workload, "--seed", "1", "--seconds", "1",
                  "--trace", str(trace), "--size", "tiny"])
    where = f"{workload} trace={trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], where
    assert result["correct"] and result["failed"] == 0, f"{where}:\n{proc.stdout}"
    assert any(line.startswith("metric fail_frac = 0 ratio") for line in lines), where
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    assert got == want, f"{where}: metrics {sorted(set(got) ^ set(want))} or units differ"
    print(f"ok {where}: {result['attempted']} repetitions")


def check_refuses_without_sources() -> None:
    with scratch_dir() as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(["--workload", "diag-ensemble", "--seed", "1", "--seconds", "1",
                      "--trace", "0"], cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
        print("ok refuses to run without spdelab sources")


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    for name in WORKLOADS:
        check_run(name, 0, spec["end_to_end"])
        check_run(name, 1, spec["per_layer"])
    check_refuses_without_sources()


if __name__ == "__main__":
    main()
