"""Record reference.json: each workload's outputs at the reference seed.

Usage: python3 bench/record_reference.py

Run it only when a change is meant to alter spdelab's outputs, and say so
with the change; every benchmark run compares against this file.
"""
import json
import os

from run_bench import HERE, Bench, scratch_dir
from workloads import REFERENCE_SEED, WORKLOADS


def main() -> None:
    reference = {}
    with scratch_dir() as scratch:
        for size in ("full", "tiny"):
            reference[size] = {}
            for name, workload in WORKLOADS.items():
                bench = Bench(workload, REFERENCE_SEED, size == "tiny", scratch)
                out = bench.child("run", "reference")
                problems = workload.check(bench.configs["reference"][0], out)
                if problems:
                    raise SystemExit(f"{name} ({size}) fails its checks: {problems}")
                reference[size][name] = out["report"]
                print(f"{size} {name}: run_s={out['run_s']:.3f}")
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
