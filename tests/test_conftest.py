"""The conftest fixture that fails a test which leaves child processes."""

import os
import sys
import time

import pytest
from conftest import reap_children


def _fork(seconds: float) -> int:
    """A child that sleeps `seconds`, then exits."""
    pid = os.fork()
    if pid == 0:
        try:
            time.sleep(seconds)
        finally:
            os._exit(0)
    return pid


@pytest.mark.skipif(sys.platform != "linux", reason="running children are found through /proc")
def test_every_child_left_is_reaped_and_named():
    exited = [_fork(0) for _ in range(2)]
    running = [_fork(60) for _ in range(2)]
    for pid in exited:  # wait until it has exited, without reaping it
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
    found_running, found_exited = reap_children()
    assert (sorted(found_running), sorted(found_exited)) == (sorted(running), sorted(exited))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
