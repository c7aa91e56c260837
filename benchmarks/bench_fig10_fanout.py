"""Figure 10: validation of request fanout.

Expected shape: for every fanout factor the simulated and real curves
agree; as fanout grows the tail rises and the saturation load decreases
slightly — the probability that one slow leaf drags the synchronised
response grows with the fan-in width.
"""

from repro.experiments.validation import fig10_fanout
from repro.telemetry import format_table

from .conftest import OPTIONS, SWEEP_HEADERS, run_once, scaled, sweep_rows


def test_fig10_fanout(benchmark, emit):
    results = run_once(
        benchmark, fig10_fanout, duration=scaled(0.4), warmup=scaled(0.1),
        options=OPTIONS,
    )
    emit("\n=== Figure 10: request fanout validation (p99 vs load) ===")
    for fanout_factor, pair in results.items():
        emit(format_table(SWEEP_HEADERS, sweep_rows(pair),
                          title=f"\n[fanout = {fanout_factor}]"))
    # Tail grows with fanout at the same moderate load.
    mid = 2  # index of the middle load point
    p99s = {fo: pair["sim"][mid].p99 for fo, pair in results.items()}
    emit(f"\np99 at {results[4]['sim'][mid].offered_qps:.0f} QPS by fanout: "
         + ", ".join(f"{fo}: {p*1e3:.2f}ms" for fo, p in sorted(p99s.items())))
    assert p99s[16] > p99s[4]
