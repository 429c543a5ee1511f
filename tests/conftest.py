"""Shared pytest wiring.

Tests marked ``@pytest.mark.criterion(num, "summary")`` get one
``criterion N: PASS/FAIL`` line each in the terminal summary, so the
acceptance gate reads as a checklist.
"""

import pytest

_RESULTS: dict[int, tuple[str, str]] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "criterion(num, summary): acceptance-gate criterion with a "
        "one-line pass/fail report",
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if marker is None:
        return
    num, summary = marker.args
    if report.when == "call":
        _RESULTS[num] = ("PASS" if report.passed else "FAIL", summary)
    elif report.when == "setup" and report.failed:
        _RESULTS[num] = ("FAIL", summary + " (setup error)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_RESULTS):
        verdict, summary = _RESULTS[num]
        terminalreporter.write_line(f"criterion {num}: {verdict} — {summary}")
