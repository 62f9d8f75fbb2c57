"""Repository-wide pytest hooks, shared by ``tests/`` and ``benchmarks/``.

Per-test timeout ceiling: ``addopts`` passes ``--timeout=300`` so no
single test can hang a run.  CI installs pytest-timeout, which owns that
option; on bare environments without the plugin this SIGALRM-based
fallback registers the same option and enforces the same ceiling (POSIX
only; where SIGALRM is missing the option is accepted and ignored).  It
lives at the repository root so ``pytest benchmarks/`` accepts the option
too.
"""

from __future__ import annotations

import importlib.util
import signal

import pytest

_HAVE_PYTEST_TIMEOUT = importlib.util.find_spec("pytest_timeout") is not None

if not _HAVE_PYTEST_TIMEOUT:

    def pytest_addoption(parser):
        parser.addoption(
            "--timeout",
            type=float,
            default=0,
            help="per-test ceiling in seconds, 0 to disable (SIGALRM "
            "fallback; install pytest-timeout for the full plugin)",
        )

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(item):
        limit = float(item.config.getoption("--timeout"))
        if limit <= 0 or not hasattr(signal, "SIGALRM"):
            yield
            return

        def _expired(signum, frame):
            pytest.fail(
                f"{item.nodeid} exceeded the {limit:g}s per-test ceiling",
                pytrace=False,
            )

        previous = signal.signal(signal.SIGALRM, _expired)
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
