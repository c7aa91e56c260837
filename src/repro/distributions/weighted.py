"""Weighted index draws with a precomputed CDF.

Request-type mixes, execution-path selection, mixture components and
path-tree choice all draw "index ``i`` with probability ``p[i]``" once
per request or job. ``Generator.choice(n, p=p)`` re-validates ``p`` and
rebuilds its CDF on every call, which costs far more than the draw.

**Stream contract.** For ``size=None``, numpy's ``choice`` computes
``cdf = p.cumsum(); cdf /= cdf[-1]``, draws one double with
``random()`` and returns ``cdf.searchsorted(u, side="right")``.
:class:`WeightedIndex` builds that CDF once, the same way, and answers
each draw with ``bisect_right`` over the same doubles: the same single
double is consumed and the same index comes back, so swapping one for
the other leaves every generator stream bit-identical
(``tests/distributions/test_weighted.py`` checks it).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

import numpy as np

from ..errors import DistributionError


class WeightedIndex:
    """Draws ``i`` with probability ``weights[i]``, as
    ``rng.choice(len(weights), p=weights)`` would."""

    __slots__ = ("_cdf",)

    def __init__(self, weights: Sequence[float]) -> None:
        p = np.asarray(weights, dtype=np.float64)
        if p.ndim != 1 or p.size == 0:
            raise DistributionError(
                "weighted index needs a 1-D, non-empty weight vector"
            )
        if not np.all(np.isfinite(p)) or np.any(p < 0):
            raise DistributionError(
                f"weights must be finite and non-negative, got {p.tolist()}"
            )
        cdf = p.cumsum()
        if not cdf[-1] > 0:
            raise DistributionError("weights must not all be zero")
        cdf /= cdf[-1]
        self._cdf = cdf.tolist()

    def draw(self, rng: np.random.Generator) -> int:
        """One index, consuming exactly one ``rng.random()`` double."""
        return bisect_right(self._cdf, rng.random())
