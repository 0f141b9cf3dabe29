"""Small numeric helpers shared by the workloads.

The benchmark keeps its own statistics rather than reusing the
program's (``repro.service.loadgen.percentile`` is nearest-rank), so a
change to the program cannot redefine how a metric is computed.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import subprocess
from typing import Dict, Iterable, Optional, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linearly interpolated.

    Matches ``numpy.percentile``'s default; an empty sample reads 0.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)


def geomean(values: Iterable[float]) -> float:
    """Geometric mean, summed in sorted order so equal inputs in any
    order give the same last digit."""
    logs = [math.log(v) for v in sorted(values)]
    if not logs:
        return 0.0
    return math.exp(sum(logs) / len(logs))


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child, MB.

    ``ru_maxrss`` is in KiB on Linux; children count once reaped, so
    call this after every pool and server of the run has exited.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def source_digest(root: str) -> str:
    """sha256 over the program's sources, for checkouts without git."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for folder, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_sha(root: str) -> Optional[str]:
    # The ceiling keeps git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def environment(root: str, **extra) -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(root),
        "source_digest": source_digest(root),
        **extra,
    }
