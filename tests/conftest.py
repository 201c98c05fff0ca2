"""Shared pytest wiring: the acceptance suite records one verdict line per
criterion, echoed in the terminal summary regardless of capture settings,
and no test may leave the cyclic garbage collector disabled."""

import gc

import pytest

VERDICTS: list = []


def record_verdict(line: str) -> None:
    VERDICTS.append(line)


def pytest_terminal_summary(terminalreporter):
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def collector_left_on():
    """Error the test that leaves the collector off (a leaked pause would
    skew the time and memory of every later test), and turn it back on."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic garbage collector disabled")
