"""Figure 6: validation of the 3-tier NGINX-memcached-MongoDB
application.

Expected shape: real and simulated curves agree; saturation sits far
below the 2-tier app because MongoDB's disk bounds the miss path;
pre-saturation deviations are low single-digit milliseconds (paper:
1.55 ms mean / 2.32 ms tail).
"""

from repro.experiments.validation import fig6_three_tier
from repro.telemetry import format_table

from .conftest import (
    OPTIONS,
    SWEEP_HEADERS,
    presaturation_deviation,
    run_once,
    scaled,
    sweep_rows,
)


def test_fig06_three_tier(benchmark, emit):
    pair = run_once(
        benchmark, fig6_three_tier, duration=scaled(0.6), warmup=scaled(0.15),
        options=OPTIONS,
    )
    emit("\n=== Figure 6: 3-tier NGINX-memcached-MongoDB validation ===")
    emit(format_table(SWEEP_HEADERS, sweep_rows(pair)))
    mean_dev, tail_dev = presaturation_deviation(pair)
    if mean_dev is not None:
        emit(f"pre-saturation |sim-real|: mean {mean_dev*1e3:.2f} ms, "
             f"p99 {tail_dev*1e3:.2f} ms (paper: 1.55 ms / 2.32 ms)")
    # Disk-bound: the 3-tier must saturate far below the 2-tier's ~60k.
    assert pair["sim"][-1].offered_qps < 20_000
