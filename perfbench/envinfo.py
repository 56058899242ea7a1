"""Environment fingerprint and process-memory probes for the benchmark.

Everything here reads the running process (``/proc/self``, ``/proc/stat``,
loaded shared objects) or files inside the checkout; nothing shells out,
so the fingerprint works in a plain source tree that is not a git clone.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import resource
from pathlib import Path
from typing import Any, Dict, Optional

#: Symbols that report OpenBLAS's thread count, newest packaging first.
_BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def steal_ticks() -> Optional[int]:
    """Machine-wide CPU steal ticks so far (``/proc/stat``), or None."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    # cpu user nice system idle iowait irq softirq steal ...
    return int(fields[8]) if len(fields) > 8 and fields[0] == "cpu" else None


def peak_rss_mb() -> float:
    """Process peak resident set size so far, in MiB (``ru_maxrss``)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reset_hwm() -> bool:
    """Reset the kernel's ``VmHWM`` to the current RSS; False if refused.

    This also lowers ``ru_maxrss``, so only the traced run calls it; the
    untraced run's ``peak_rss_mb`` is the untouched process peak.
    """
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        return False
    return True


def read_hwm_mb() -> float:
    """``VmHWM`` in MiB, falling back to ``ru_maxrss`` when unreadable."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return peak_rss_mb()


def _blas_info() -> Dict[str, Any]:
    import numpy as np

    info: Dict[str, Any] = {"vendor": "unknown", "threads": None}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"] = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    try:
        with open("/proc/self/maps") as handle:
            paths = sorted(
                {line.split()[-1] for line in handle if "openblas" in line.lower()}
            )
    except OSError:
        paths = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_SYMBOLS:
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                info["threads"] = int(getter())
                return info
    return info


def _git_sha(root: Path) -> str:
    """HEAD commit read from ``.git`` files; "unknown" outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest(src: Path) -> str:
    """Content hash of the program's sources (identifies a build without git)."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.suffix in (".py", ".c") and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(src)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def fingerprint(root: Path, *, steal_start: Optional[int]) -> Dict[str, Any]:
    """The environment a result was measured in (see README)."""
    import numpy as np
    import scipy

    from repro.geometry.native import load_kernels

    steal_end = steal_ticks()
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "loadavg": list(os.getloadavg()),
        "steal_ticks": (
            steal_end - steal_start
            if steal_end is not None and steal_start is not None
            else None
        ),
        "blas": _blas_info(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(root),
        "src_digest": _source_digest(root / "src"),
        "native_available": load_kernels() is not None,
    }
