import numpy as np
import pytest

from radialmot import (
    block_density,
    example_counterexample_density,
    uniform_density,
)

# acceptance criteria results, printed once at the end of the run
_CRITERIA: dict[int, tuple[bool, str]] = {}


@pytest.fixture(scope="session")
def record_criterion():
    def rec(num: int, ok: bool, detail: str) -> None:
        _CRITERIA[num] = (bool(ok), detail)

    return rec


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(_CRITERIA):
        ok, detail = _CRITERIA[n]
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {n:2d}: {verdict} - {detail}")


@pytest.fixture(scope="session")
def uniform():
    return uniform_density()


@pytest.fixture(scope="session")
def blocks():
    return block_density([(0.0, 1.0), (2.0, 3.0), (15.0, 16.0)])


@pytest.fixture(scope="session")
def cex():
    """The generated counterexample density, matched to fourth order at
    the second tertile; shared because the build probes the pushforward
    map's slope at several hundred points."""
    return example_counterexample_density(s1=0.9, s2=1.0, ratio=4.0, k=4)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260825)
