import sys

import numpy as np
import pytest

from faddeevlab import (CutoffProfile, FieldState, KernelParams, RadialField,
                        RadialGrid)


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance verdict lines whether or not the tests passed
    (pytest swallows stdout of passing tests)."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "VERDICTS", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def params():
    return KernelParams()


@pytest.fixture(scope="session")
def profile():
    return CutoffProfile()


@pytest.fixture(scope="session")
def grid128():
    return RadialGrid(128, 8.0)


@pytest.fixture(scope="session")
def grid256():
    return RadialGrid(256, 8.0)


def gaussian_v_state(grid, amp=0.2, width=1.0, amp_t=0.0, t=0.0):
    """An even Gaussian Cauchy pair in the lifted chart."""
    env = np.exp(-((grid.r / width) ** 2))
    return FieldState(RadialField(amp * env, grid),
                      RadialField(amp_t * env, grid), t)
