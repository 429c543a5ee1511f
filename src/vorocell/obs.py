"""Run counters for ``vorocell -v``.

A layer reports its totals once per call with :func:`add` (sums) or
:func:`peak` (maxima), grouped by section.  The counters live in a
context variable that :func:`collecting` sets for the duration of one
command; outside it each report is one context-variable lookup and
nothing is kept.  Counters never reach stdout.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Optional

_book: ContextVar[Optional[dict[str, dict[str, int]]]] = ContextVar("vorocell_obs", default=None)


def add(section: str, **counts: int) -> None:
    """Add to the named counters of ``section``, when collecting."""
    book = _book.get()
    if book is not None:
        entry = book.setdefault(section, {})
        for name, value in counts.items():
            entry[name] = entry.get(name, 0) + value


def peak(section: str, **values: int) -> None:
    """Raise the named counters of ``section`` to at least these values."""
    book = _book.get()
    if book is not None:
        entry = book.setdefault(section, {})
        for name, value in values.items():
            entry[name] = max(entry.get(name, value), value)


@contextmanager
def collecting() -> Iterator[dict[str, dict[str, int]]]:
    """Collect the counters reported inside the block into one dict."""
    book: dict[str, dict[str, int]] = {}
    token = _book.set(book)
    try:
        yield book
    finally:
        _book.reset(token)
