"""Figure 12(a): validation of RPC request simulation (Apache Thrift
echo server).

Expected shape: both systems saturate just past 50 kQPS with low-load
latency under 100 us; beyond saturation the REAL system's latency
climbs faster than the simulator's, because only the real system pays
request timeouts and reconnection overhead (paper SSIV-C).
"""

from repro.experiments.validation import fig12a_thrift
from repro.telemetry import format_table

from .conftest import OPTIONS, SWEEP_HEADERS, run_once, scaled, sweep_rows


def test_fig12a_thrift(benchmark, emit):
    pair = run_once(
        benchmark, fig12a_thrift, duration=scaled(0.4), warmup=scaled(0.1),
        options=OPTIONS,
    )
    emit("\n=== Figure 12(a): Thrift echo RPC validation ===")
    emit(format_table(SWEEP_HEADERS, sweep_rows(pair)))

    low_load = pair["sim"][0]
    emit(f"\nlow-load p50: {low_load.p50*1e6:.0f} us "
         f"(paper: < 100 us incl. network)")
    assert low_load.p50 < 100e-6

    # Past saturation the real system blows up faster (timeouts).
    sim_sat = pair["sim"][-1]
    real_sat = pair["real"][-1]
    emit(f"post-saturation p99: sim {sim_sat.p99*1e3:.1f} ms vs "
         f"real {real_sat.p99*1e3:.1f} ms (real should be larger)")
    assert real_sat.p99 > sim_sat.p99
