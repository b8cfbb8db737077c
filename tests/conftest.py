import contextlib
import io
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from faddeevlab import CutoffProfile, FieldState, KernelParams, RadialGrid


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance verdict lines whether or not the tests passed
    (pytest swallows stdout of passing tests)."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "VERDICTS", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


def python_blocks(text):
    """The source of every ```python block of a markdown text, in order."""
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)


@pytest.fixture(scope="session")
def readme_block_outputs(tmp_path_factory):
    """What each README python block prints, each run once per session, on its
    own, in an empty working directory."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    printed = []
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp_path_factory.mktemp("readme"))
        for i, block in enumerate(python_blocks(readme)):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                exec(compile(block, f"README.md python block {i}", "exec"), {"__name__": "__main__"})
            printed.append(out.getvalue())
    return printed


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


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(5)


def quadrature_1d(integrand, lower, upper, panels):
    """Composite 5-point Gauss-Legendre quadrature of a vectorizable
    callable over [lower, upper]: the tests' reference integrator."""
    if upper == lower:
        return 0.0
    if panels < 1:
        raise ValueError("need at least one panel")
    edges = np.linspace(lower, upper, panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    mid = 0.5 * (edges[:-1] + edges[1:])
    pts = mid[:, None] + half * _GL_NODES[None, :]
    vals = np.asarray(integrand(pts), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("non-finite integrand sample")
    return float(half * np.sum(vals @ _GL_WEIGHTS))


def gaussian_v_state(grid, amp=0.2, width=1.0, amp_t=0.0, t=0.0):
    """An even Gaussian Cauchy pair in the lifted chart."""
    env = np.exp(-((grid.r / width) ** 2))
    return FieldState(amp * env, amp_t * env, grid, t)
