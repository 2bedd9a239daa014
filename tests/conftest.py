import os

import pytest


@pytest.fixture(autouse=True)
def no_child_outlives_its_test():
    """A test that leaves a child process running or unreaped fails."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process {'running' if pid == 0 else f'{pid} unreaped'}")
