"""Figure 12(b): validation of the Social Network application (Fig 11).

Expected shape: at low load the simulator closely matches the real
system's latency; both saturate at a similar throughput. The request
graph exercises fanout, synchronisation, and blocking simultaneously.
"""

from repro.experiments.validation import fig12b_social_network
from repro.telemetry import format_table

from .conftest import (
    OPTIONS,
    SWEEP_HEADERS,
    presaturation_deviation,
    run_once,
    scaled,
    sweep_rows,
)


def test_fig12b_social_network(benchmark, emit):
    pair = run_once(
        benchmark, fig12b_social_network,
        duration=scaled(0.5), warmup=scaled(0.12), options=OPTIONS,
    )
    emit("\n=== Figure 12(b): Social Network end-to-end validation ===")
    emit(format_table(SWEEP_HEADERS, sweep_rows(pair)))
    mean_dev, tail_dev = presaturation_deviation(pair)
    if mean_dev is not None:
        emit(f"pre-saturation |sim-real|: mean {mean_dev*1e3:.2f} ms, "
             f"p99 {tail_dev*1e3:.2f} ms")
        # "At low load, uqSim closely matches the latency of the real
        # application."
        assert mean_dev < 1e-3
