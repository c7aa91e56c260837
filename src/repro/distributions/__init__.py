"""Processing-time distributions (paper Table I "histograms" input).

Two families, one interface (:class:`Distribution`):

* parametric — :class:`Exponential`, :class:`Deterministic`,
  :class:`Uniform`, :class:`LogNormal`, :class:`Pareto`,
  :class:`Erlang`, :class:`Weibull`, plus :class:`Mixture`,
  :class:`Scaled` and :class:`Shifted` combinators;
* empirical — :class:`Histogram`, the profiling format the paper's users
  collect by instrumenting stage boundaries.

:class:`FrequencyTable` layers DVFS on top: one distribution per
profiled frequency, frequency-ratio scaling in between.

:class:`BufferedSampler` (and the DVFS-aware
:class:`FrequencySampler`) serve scalar draws from numpy block draws —
bitwise-identical to repeated scalar sampling, at a fraction of the
per-call cost. See :mod:`repro.distributions.buffered` for the
determinism contract. :class:`WeightedIndex` does the same for weighted
index draws: bit-identical to ``Generator.choice(n, p=p)``, with the
CDF built once (:mod:`repro.distributions.weighted`).
"""

from .base import Distribution
from .buffered import DEFAULT_BLOCK, BufferedSampler
from .frequency import FrequencySampler, FrequencyTable
from .histogram import Histogram
from .standard import (
    Deterministic,
    Erlang,
    Exponential,
    LogNormal,
    Mixture,
    Pareto,
    Scaled,
    Shifted,
    Uniform,
    Weibull,
)
from .weighted import WeightedIndex

__all__ = [
    "Distribution",
    "Deterministic",
    "Exponential",
    "Uniform",
    "LogNormal",
    "Pareto",
    "Erlang",
    "Weibull",
    "Mixture",
    "Scaled",
    "Shifted",
    "Histogram",
    "FrequencyTable",
    "FrequencySampler",
    "BufferedSampler",
    "DEFAULT_BLOCK",
    "WeightedIndex",
]
