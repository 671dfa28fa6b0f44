"""Summary statistics and run metadata for the benchmark."""

from __future__ import annotations

import hashlib
import json
import math
import os
from typing import Dict, Optional, Sequence

__all__ = ["TAIL_LADDER", "tail", "ratio", "steal_seconds", "git_sha",
           "config_hash", "cpu_count"]

#: candidate tail percentiles, highest first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: samples that must lie beyond a reported tail
MIN_BEYOND = 10


def tail(samples: Sequence[float]) -> Optional[dict]:
    """The highest ladder percentile with at least ``MIN_BEYOND``
    samples beyond it (nearest-rank), or None when even the median has
    fewer.  Returns the percentile, its value, the number of samples
    beyond it and the sample count."""
    xs = sorted(samples)
    n = len(xs)
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p / 100.0 * n))
        beyond = n - rank
        if beyond >= MIN_BEYOND:
            return {"percentile": p, "value": xs[rank - 1],
                    "beyond": beyond, "n": n}
    return None


def ratio(num: float, base: float) -> float:
    """``num / base``, 0.0 on an empty base (the base is reported
    alongside, so an empty one is visible)."""
    return num / base if base else 0.0


def steal_seconds() -> Optional[float]:
    """Cumulative CPU steal time of the machine from ``/proc/stat``, in
    seconds (None where the file is unavailable)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu" or len(fields) < 9:
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def git_sha(root: str) -> str:
    """The checked-out commit, read from ``.git`` without running git;
    ``"none"`` outside a git repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "none"


def config_hash(config: Dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:       # pragma: no cover - non-linux
        return os.cpu_count() or 1
