"""Figure 8: validation of load balancing across scale-out factors.

Expected shape: saturation scales linearly 35k -> 70k QPS from 4 to 8
webservers and sub-linearly to ~120k at 16, where the cores handling
network interrupts (soft_irq) saturate before the NGINX instances.
"""

from repro.experiments import saturation_load
from repro.experiments.validation import fig8_load_balancing
from repro.telemetry import format_table

from .conftest import OPTIONS, SWEEP_HEADERS, run_once, scaled, sweep_rows


def test_fig08_load_balancing(benchmark, emit):
    results = run_once(
        benchmark, fig8_load_balancing,
        duration=scaled(0.3), warmup=scaled(0.08), options=OPTIONS,
    )
    emit("\n=== Figure 8: load balancing validation (p99 vs load) ===")
    saturations = {}
    for scale_out, pair in results.items():
        emit(format_table(SWEEP_HEADERS, sweep_rows(pair),
                          title=f"\n[scale-out = {scale_out}]"))
        saturations[scale_out] = saturation_load(
            pair["sim"], p99_limit=10e-3
        )
    emit(format_table(
        ["scale-out", "sustained QPS (sim)", "paper"],
        [[so, saturations[so], ref]
         for so, ref in [(4, "35k"), (8, "70k"), (16, "120k")]],
        title="\nSaturation points",
    ))
    # Linear 4 -> 8, sub-linear 8 -> 16 (the soft_irq ceiling).
    assert saturations[8] > 1.7 * saturations[4]
    assert saturations[16] < 1.9 * saturations[8]
