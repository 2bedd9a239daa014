import os
import signal
from pathlib import Path

import pytest


def _running_children() -> list[int]:
    """The pids whose parent is this process, read from /proc (empty where there is none)."""
    me, pids = os.getpid(), []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            ppid = int(stat.read_text().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue  # the process ended while it was read
        if ppid == me:
            pids.append(int(stat.parent.name))
    return pids


def reap_children() -> tuple[list[int], list[int]]:
    """Kill every child of this process that still runs and reap every
    child; returns the pids of those that ran and of those that had exited."""
    running, exited = [], []
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return running, exited
        if pid:
            exited.append(pid)
            continue
        children = _running_children()
        if not children:  # with no /proc to find it by, a running child cannot be killed
            pytest.fail(f"a child process runs that cannot be found; reaped {exited}")
        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        running += children


@pytest.fixture(autouse=True)
def no_child_outlives_its_test():
    """A test that leaves child processes running or unreaped fails once,
    naming each, and the next test starts with none."""
    yield
    running, unreaped = reap_children()
    if running or unreaped:
        pytest.fail(f"the test left child processes running {running} and unreaped {unreaped}")
