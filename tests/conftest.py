"""Shared fixtures: small machines and calibrated parameters.

Session-scoped because the objects are immutable-by-convention (tests
never mutate a system) and topology construction at 2K nodes is not free.

Registers the ``ci-deep`` Hypothesis profile.  Also provides a minimal
stand-in for the ``pytest-timeout`` plugin when it is not installed (CI
installs the real one from the ``test`` extras; hermetic environments
may not have it): ``@pytest.mark.timeout(N)`` and the ``timeout`` ini
default are honoured via SIGALRM, which is enough to keep a hung service
test from wedging the whole suite.
"""

from __future__ import annotations

import importlib.util
import signal

import pytest
from hypothesis import settings

from repro.machine import BGQSystem, mira_system
from repro.network.params import MIRA_PARAMS
from repro.torus.topology import TorusTopology

_HAVE_PYTEST_TIMEOUT = importlib.util.find_spec("pytest_timeout") is not None

#: A deeper search for tests that leave their example budget to the
#: profile (the supervisor core's state machine): ``pytest
#: --hypothesis-profile=ci-deep``.  Tier-1 keeps Hypothesis's default.
settings.register_profile(
    "ci-deep", max_examples=1000, stateful_step_count=100, deadline=None
)


if not _HAVE_PYTEST_TIMEOUT:

    def pytest_addoption(parser):
        parser.addini(
            "timeout",
            "default per-test timeout in seconds (SIGALRM fallback)",
            default="0",
        )

    def pytest_configure(config):
        config.addinivalue_line(
            "markers",
            "timeout(seconds): fail the test if it runs longer than this",
        )

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(item):
        marker = item.get_closest_marker("timeout")
        if marker is not None and marker.args:
            seconds = float(marker.args[0])
        else:
            seconds = float(item.config.getini("timeout") or 0)
        if seconds <= 0 or not hasattr(signal, "SIGALRM"):
            yield
            return

        def on_alarm(signum, frame):
            raise TimeoutError(
                f"test exceeded {seconds:.0f}s timeout (conftest SIGALRM fallback)"
            )

        old = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)


@pytest.fixture(scope="session")
def params():
    """The calibrated Mira constants."""
    return MIRA_PARAMS


@pytest.fixture(scope="session")
def torus_small():
    """A 3-D 3x4x2 torus: small, asymmetric, has odd and even rings."""
    return TorusTopology((3, 4, 2))


@pytest.fixture(scope="session")
def torus128():
    """The paper's Figure-5 partition torus (2x2x4x4x2)."""
    return TorusTopology((2, 2, 4, 4, 2))


@pytest.fixture(scope="session")
def system128():
    """128-node Mira partition (one pset, two bridges)."""
    return mira_system(nnodes=128)


@pytest.fixture(scope="session")
def system512():
    """512-node Mira partition (4 psets) — the Figure-7 machine."""
    return mira_system(nnodes=512)


@pytest.fixture(scope="session")
def tiny_system():
    """A 32-node machine with 8-node psets for fast I/O-path tests."""
    return BGQSystem((2, 2, 2, 2, 2), pset_size=8, bridges_per_pset=2)
