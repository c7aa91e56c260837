"""Figure 5: validation of the 2-tier NGINX-memcached application
across thread/process configurations.

Expected shape (paper SSIV-A): simulated and "real" load-latency curves
agree up to a shared saturation point; saturation scales with the NGINX
process count and is insensitive to memcached threads; pre-saturation
deviations are fractions of a millisecond.
"""

from repro.experiments.validation import FIG5_CONFIGS, fig5_two_tier
from repro.telemetry import format_table

from .conftest import (
    OPTIONS,
    SWEEP_HEADERS,
    presaturation_deviation,
    run_once,
    scaled,
    sweep_rows,
)


def test_fig05_two_tier(benchmark, emit):
    results = run_once(
        benchmark, fig5_two_tier, duration=scaled(0.4), warmup=scaled(0.1),
        options=OPTIONS,
    )
    emit("\n=== Figure 5: 2-tier NGINX-memcached validation ===")
    for config, pair in results.items():
        emit(format_table(SWEEP_HEADERS, sweep_rows(pair),
                          title=f"\n[{config}]"))
        mean_dev, tail_dev = presaturation_deviation(pair)
        if mean_dev is not None:
            emit(f"pre-saturation |sim-real|: mean {mean_dev*1e3:.2f} ms, "
                 f"p99 {tail_dev*1e3:.2f} ms "
                 f"(paper: 0.17 ms / 0.83 ms)")
    assert set(results) == {
        f"nginx={p}p,memcached={t}t" for p, t in FIG5_CONFIGS
    }
