"""Every process the benchmark starts ends before the benchmark does.

Two kinds of descendants outlive the code that started them:

- ``multiprocessing``'s resource tracker.  A spawn-context pool starts
  it on first use and only the interpreter's exit closes the pipe that
  keeps it alive, so it would end after the benchmark, unreaped.
- Grandchildren.  The ``jlreduce serve`` subprocess has its own pool
  and tracker; when the server exits they are orphans.

``adopt_orphans`` makes the benchmark the reaper of its orphaned
descendants (Linux ``PR_SET_CHILD_SUBREAPER``), and ``reap_children``
stops the tracker, then waits for every child, adopted ones included,
killing what outlives a grace period.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time
from typing import List

PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> bool:
    """Reparent orphaned descendants to this process; False if unsupported."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def children() -> List[int]:
    """Pids whose parent is this process, read from ``/proc``."""
    me = os.getpid()
    found = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return found
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The parent pid is the second field after the parenthesised name.
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            found.append(int(entry))
    return found


def stop_resource_tracker() -> None:
    """Close this process's resource tracker and wait for it, if started."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is None:
        return
    try:
        stop()
    except ChildProcessError:
        pass


def _reap_exited() -> bool:
    """Reap every exited child; True once no child is left."""
    try:
        while os.waitpid(-1, os.WNOHANG)[0]:
            pass
    except ChildProcessError:
        return True
    return False


def reap_children(grace_s: float = 20.0) -> None:
    """Wait for every child to end; kill those still alive after ``grace_s``."""
    stop_resource_tracker()
    deadline = time.monotonic() + grace_s
    while not _reap_exited():
        if time.monotonic() > deadline:
            for pid in children():
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            # A killed child's own children are adopted next: kill
            # those without another grace period.
            deadline = time.monotonic() + 1.0
        time.sleep(0.01)
