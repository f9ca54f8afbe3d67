"""Benchmark-suite configuration.

Each ``bench_figXX`` file regenerates one paper figure.  By default the
two I/O scaling studies (Figures 10–11) run a reduced core grid so the
whole suite finishes in minutes; set ``REPRO_FULL=1`` to sweep the
paper's full 2,048 → 131,072-core range (tens of minutes — the 8,192-node
fluid simulations dominate).

Every benchmark writes its rendered figure (the text table recorded in
EXPERIMENTS.md) to ``benchmarks/out/<figure>.txt``.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

OUT_DIR = Path(__file__).parent / "out"


@pytest.fixture(scope="session", autouse=True)
def _bench_logging():
    """Route benchmark figure output through the ``repro`` logger.

    ``REPRO_LOG_LEVEL=warning`` silences the figure tables without
    touching pytest's own capture settings.
    """
    from repro.util.log import setup_cli_logging

    setup_cli_logging(os.environ.get("REPRO_LOG_LEVEL", "info"))


def full_scale() -> bool:
    """True when the paper's full core grid was requested."""
    return os.environ.get("REPRO_FULL", "") == "1"


@pytest.fixture(scope="session")
def save_figure():
    """Writer: persist a rendered figure for EXPERIMENTS.md."""
    OUT_DIR.mkdir(exist_ok=True)

    def _save(fig, rendered: str):
        (OUT_DIR / f"{fig.figure}.txt").write_text(rendered + "\n")
        return rendered

    return _save


@pytest.fixture(scope="session")
def io_cores():
    """Core grid for Figure 10."""
    if full_scale():
        return (2048, 4096, 8192, 16384, 32768, 65536, 131072)
    return (2048, 8192, 32768, 65536)


@pytest.fixture(scope="session")
def hacc_cores():
    """Core grid for Figure 11."""
    if full_scale():
        return (8192, 16384, 32768, 65536, 131072)
    return (8192, 32768, 65536)
