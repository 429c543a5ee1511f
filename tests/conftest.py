"""Shared pytest wiring.

Tests marked ``@pytest.mark.criterion(num, "summary")`` get one
``criterion N: PASS/FAIL`` line each in the terminal summary, so the
acceptance gate reads as a checklist.  Tests marked ``slow`` take
minutes each and run only with ``--run-slow``.
"""

import pytest

_RESULTS: dict[int, tuple[str, str]] = {}


def pytest_addoption(parser):
    parser.addoption(
        "--run-slow", action="store_true", help="also run the tests marked slow"
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "criterion(num, summary): acceptance-gate criterion with a "
        "one-line pass/fail report",
    )
    config.addinivalue_line("markers", "slow: takes minutes; runs only with --run-slow")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-slow"):
        return
    skip = pytest.mark.skip(reason="slow; pass --run-slow to run it")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


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
