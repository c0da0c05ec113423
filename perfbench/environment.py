"""The explicit environment of every child process, and the record of the
machine and libraries a result was measured with."""

from __future__ import annotations

import ctypes
import importlib.util
import os
import platform

# Variables that change timings by large factors; a child never inherits
# them from the caller's shell.
_REMOVED = ("MMC_HSS_THREADS", "MMC_HSS_NO_JIT", "PYTHONPATH")
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(root: str, blas_threads: int | None = None) -> dict:
    """Environment for a child: the package from ``root``/src, BLAS at its
    own default thread count unless ``blas_threads`` pins it."""
    env = {k: v for k, v in os.environ.items()
           if k not in _REMOVED and not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    if blas_threads is not None:
        for var in _THREAD_VARS:
            env[var] = str(blas_threads)
    return env


def _blas_libraries() -> dict:
    """{library path: effective thread count} of every OpenBLAS loaded."""
    out = {}
    try:
        with open("/proc/self/maps", encoding="ascii") as fh:
            paths = {line.split()[-1] for line in fh
                     if "openblas" in line.lower() and "/" in line}
    except OSError:
        return out
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                out[os.path.basename(path)] = fn()
                break
    return out


def _git_commit(root: str) -> str:
    """HEAD's commit, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def record(root: str) -> dict:
    """Facts that change timings; call after numpy and scipy are loaded."""
    import numpy as np
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS)
    from mmc_hss import td_sim

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get(
        "blas", {})
    threads = _blas_libraries()
    advance = getattr(td_sim, "_ADVANCE", None)
    python_kernel = getattr(td_sim, "_advance_py", None)
    if advance is None:
        kernel = "unknown"
    else:
        kernel = "python" if advance is python_kernel else "numba"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": f"{blas.get('name', 'unknown')} "
                       f"{blas.get('version', '')}".strip(),
        "blas_threads": threads,
        "blas_threads_max": max(threads.values(), default=0),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "rk4_kernel": kernel,
        "thread_env": {k: os.environ[k] for k in _THREAD_VARS
                       if k in os.environ},
        "git_commit": _git_commit(root),
    }
