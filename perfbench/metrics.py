"""Metric definitions and the arithmetic behind them.

Names and units are read from BENCHMARK.json at the checkout root, so
the declared metrics and the printed ones cannot drift apart:
``result_line`` refuses to print a metric set that differs from the
declaration.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TAIL_BEYOND = 10


def declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def tail(samples, beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """Highest percentile with at least ``beyond`` samples above it.

    Returns (value, percentile, sample count). The value is the
    (beyond + 1)-th largest sample, whose percentile is
    100 * (n - beyond) / n. With ``beyond`` samples or fewer no
    percentile qualifies, and the maximum is returned at 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= beyond:
        return ordered[-1], 100.0, n
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, n


def end_to_end(latencies_s, cycle: int, failed: int, setup_runs_s, import_s: float,
               peak_rss_mb: float) -> dict[str, float]:
    """End-to-end values of one untraced run of whole cycles of ``cycle`` ops."""
    tail_ms, _, _ = tail([t * 1e3 for t in latencies_s])
    return {
        "setup_s": import_s + statistics.median(setup_runs_s),
        "op_ms_p50": statistics.median(latencies_s) * 1e3,
        "op_ms_tail": tail_ms,
        "ops_per_s": ops_per_s(latencies_s, cycle, failed),
        "peak_rss_mb": peak_rss_mb,
    }


def ops_per_s(latencies_s, cycle: int, failed: int) -> float:
    """Successful ops per second over a cycle in which each op takes the
    interquartile mean time of its position in the cycle.

    Time spent between ops, on the benchmark's own verification, is not
    charged to the program. The interquartile means keep a few ops that
    the speed correction misjudged from moving the figure, as they did
    when it was the run's op count over the sum of all op times.
    """
    cycle_s = sum(interquartile_mean(latencies_s[j::cycle]) for j in range(cycle))
    return (1.0 - failed / len(latencies_s)) * cycle / cycle_s


def interquartile_mean(samples) -> float:
    """Mean of the samples left after dropping the lowest and the highest
    quarter (rounded down) of them."""
    ordered = sorted(samples)
    cut = len(ordered) // 4
    return statistics.mean(ordered[cut:len(ordered) - cut])


def result_line(kind: str, values: dict[str, float], attempted: int, failed: int) -> str:
    """The JSON object the benchmark prints last; ``kind`` is
    ``end_to_end`` or ``per_layer``."""
    units = {m["name"]: m["unit"] for m in declared()[kind]}
    if set(values) != set(units):
        missing = sorted(set(units) - set(values))
        extra = sorted(set(values) - set(units))
        raise ValueError(f"{kind} metrics differ from BENCHMARK.json: "
                         f"missing {missing}, undeclared {extra}")
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]}
                    for name in units},
    })
