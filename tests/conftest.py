import sys

import pytest


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance pass/fail lines even when their tests passed."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "CRITERIA", None)
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def tile_threads(monkeypatch):
    """Run map_tiles on four worker threads whatever the CPU count.

    Returns the BLAS thread-count handle map_tiles pins: NumPy's OpenBLAS,
    or an in-memory stand-in where NumPy links another BLAS, so the
    threaded path runs either way.
    """
    from csicodec import util

    monkeypatch.setattr(util, "_cpu_count", lambda: 4)
    blas = util._openblas_threads()
    if blas is None:
        count = [4]
        blas = util._BlasThreads(get=lambda: count[0],
                                 set=lambda n: count.__setitem__(0, n))
        monkeypatch.setattr(util, "_openblas_threads", lambda: blas)
    return blas
