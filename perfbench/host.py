"""Host provenance stamped into every benchmark result."""

from __future__ import annotations

import os
import platform
import resource
from pathlib import Path
from typing import Dict, Iterable, Optional

THREAD_VARIABLES = ("REPRO_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")


def cpu_model() -> str:
    """The CPU model name, or the platform's best guess."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def blas_name() -> str:
    """The BLAS numpy was built against, from ``np.show_config``."""
    import numpy as np

    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def git_sha(root: Path) -> str:
    """HEAD of the checkout when it is a git work tree, else ``unknown``.

    Reads ``.git`` inside ``root`` only: a checkout that is not a
    repository must not pick up the SHA of a repository around it.
    """
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(root: Path, seed: int) -> Dict:
    import numpy as np

    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "numpy": np.__version__,
        "blas": blas_name(),
        "threads_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "python": platform.python_version(),
        "git_sha": git_sha(root),
        "seed": seed,
    }


def _status_kb(pid: int, field: str) -> Optional[int]:
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return None


def peak_rss_mb(child_pids: Iterable[int] = ()) -> float:
    """Peak resident set of this process plus the given live children.

    Each child's high-water mark (``VmHWM``) must be read while it is
    still running; children that cannot be read count as zero.
    """
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = sum(_status_kb(pid, "VmHWM") or 0 for pid in child_pids)
    return (own_kb + children_kb) / 1024.0
