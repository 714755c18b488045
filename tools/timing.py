"""Process-time medians and their table cells, shared by the ladder tools
(`poly_ladder.py`, `decompose_ladder.py`, `tensor_ladder.py`).

A timing is the median of at least 7 runs with its interquartile range,
printed as "median (IQR)" in ms; a ladder's local slope between
neighbouring sizes n1 < n2 is log(t2 / t1) / log(n2 / n1) of the medians.
"""
from __future__ import annotations

import math
import statistics
import time

WIDTH = 19  # the width of a cell such as "12345.678 (123.456)"


def median_ms(fn, budget: float = 0.3) -> tuple[float, float]:
    """The median and the interquartile range of fn's process time in ms,
    over at least 7 runs, and more up to 200 while they fit the budget."""
    times: list[float] = []
    while len(times) < 7 or (sum(times) < budget and len(times) < 200):
        start = time.process_time()
        fn()
        times.append(time.process_time() - start)
    q1, _, q3 = statistics.quantiles(times, n=4)
    return 1e3 * statistics.median(times), 1e3 * (q3 - q1)


def cell(timing: tuple[float, float], width: int = WIDTH) -> str:
    """A median with its interquartile range in parentheses."""
    return f"{timing[0]:.3f} ({timing[1]:.3f})".rjust(width)


def cells(*fns) -> str:
    """Each fn's `median_ms` as a cell."""
    return " ".join(cell(median_ms(fn)) for fn in fns)


def header(*names) -> str:
    """Column titles as wide as the cells."""
    return " ".join(f"{name:>{WIDTH}}" for name in names)


def slope_lines(label: str, names, rows):
    """For rows (n, t_1, ..., t_k) of medians in increasing n, one line per
    pair of neighbouring sizes with the local slope of each named column."""
    for (n1, *t1), (n2, *t2) in zip(rows, rows[1:]):
        slopes = (math.log(b / a) / math.log(n2 / n1) for a, b in zip(t1, t2))
        yield (f"{label:>6} slope {n1}->{n2}: "
               + ", ".join(f"{name} {s:.2f}" for name, s in zip(names, slopes)))
