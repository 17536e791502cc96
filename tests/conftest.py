"""Run the suite with one BLAS thread, as the benchmark does.

numpy's OpenBLAS starts a thread per CPU at import unless told otherwise.
Set before any test module imports numpy; a value already in the
environment wins.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
