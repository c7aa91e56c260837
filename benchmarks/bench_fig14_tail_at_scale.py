"""Figure 14: the tail-at-scale effects of request fanout.

Expected shape: with a fixed fraction of 10x-slower servers, p99 rises
with cluster size; for clusters >= 100 servers, 1% slow servers is
already enough to let the stragglers define the tail (paper SSV-A,
consistent with Dean & Barroso).
"""

from repro.experiments.tail_at_scale import tail_at_scale_sweep
from repro.telemetry import format_table

from .conftest import OPTIONS, run_once, scaled_n

CLUSTER_SIZES = (5, 10, 50, 100, 500, 1000)
SLOW_FRACTIONS = (0.0, 0.01, 0.05, 0.10)


def test_fig14_tail_at_scale(benchmark, emit):
    points = run_once(
        benchmark, tail_at_scale_sweep,
        cluster_sizes=CLUSTER_SIZES,
        slow_fractions=SLOW_FRACTIONS,
        num_requests=scaled_n(150),
        options=OPTIONS,
    )
    emit("\n=== Figure 14: tail at scale (p99 ms by cluster size) ===")
    by_key = {(p.slow_fraction, p.cluster_size): p for p in points}
    rows = []
    for size in CLUSTER_SIZES:
        rows.append(
            [size] + [
                by_key[(frac, size)].p99 * 1e3 for frac in SLOW_FRACTIONS
            ]
        )
    emit(format_table(
        ["cluster size"] + [f"{f:.0%} slow" for f in SLOW_FRACTIONS], rows
    ))

    # 1% slow servers dominates the tail at >= 100 servers...
    clean = by_key[(0.0, 100)].p99
    one_percent = by_key[(0.01, 100)].p99
    emit(f"\n100 servers: p99 {clean*1e3:.1f} ms clean vs "
         f"{one_percent*1e3:.1f} ms with 1% slow")
    assert one_percent > 2 * clean
    # ...and the tail grows with cluster size at fixed slow fraction.
    assert by_key[(0.01, 1000)].p99 > by_key[(0.01, 10)].p99
