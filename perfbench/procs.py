"""Process-tree housekeeping: nothing the benchmark starts outlives it.

A process marks itself a *child subreaper*, so descendants orphaned by
their parent's exit (for instance pool workers a stopped service left
behind) are re-parented to it rather than to init.  After its own
children have been stopped, :func:`kill_descendants` kills whatever is
left and reaps it.  Linux only; elsewhere both are no-ops beyond the
direct children.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time
from typing import List, Set

_PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Adopt orphaned descendants (``prctl(PR_SET_CHILD_SUBREAPER)``)."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def children(pid: int) -> List[int]:
    """Direct children of ``pid``, across all its threads."""
    found: List[int] = []
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                found.extend(int(c) for c in handle.read().split())
    except OSError:
        pass
    return found


def descendants(pid: int) -> Set[int]:
    """Every live descendant of ``pid`` (a child may be listed under
    more than one thread of its parent)."""
    seen: Set[int] = set()
    pending = children(pid)
    while pending:
        child = pending.pop()
        if child not in seen:
            seen.add(child)
            pending.extend(children(child))
    return seen


def kill_descendants(timeout: float = 10.0) -> int:
    """SIGKILL every remaining descendant of this process and reap the
    ones that are, or became, its children.  Returns how many were
    killed."""
    me = os.getpid()
    leftover = descendants(me)
    for pid in leftover:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            reaped, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            break
        if reaped == 0:
            if not descendants(me):
                break
            time.sleep(0.01)
    return len(leftover)
