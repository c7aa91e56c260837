"""Execution paths and the probabilistic path-selection state machine.

Paper SSIII-B: "Multiple application logic stages are assembled to form
execution paths, corresponding to a microservice's different code
paths. Finally, the model of a microservice also includes a state
machine that specifies the probability that a microservice follows
different execution paths."

memcached's read/write paths are deterministic per request type;
MongoDB's hit/miss paths are probabilistic (a function of working-set
size vs allocated memory) — both use this module.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

import numpy as np

from ..distributions import WeightedIndex
from ..errors import ConfigError


class ExecutionPath:
    """An ordered walk through stage ids."""

    def __init__(self, path_id: int, name: str, stage_ids: Sequence[int]) -> None:
        if path_id < 0:
            raise ConfigError(f"path_id must be >= 0, got {path_id}")
        if not stage_ids:
            raise ConfigError(f"path {name!r} must contain at least one stage")
        self.path_id = path_id
        self.name = name
        self.stage_ids = list(int(s) for s in stage_ids)

    def __len__(self) -> int:
        return len(self.stage_ids)

    def __repr__(self) -> str:
        return f"<Path {self.path_id}:{self.name} stages={self.stage_ids}>"


class PathSelector:
    """Chooses the execution path for each incoming job.

    Selection precedence:

    1. an explicit ``path_id``/``path_name`` (the inter-microservice
       path node "specifies ... the execution path within the
       microservice"), else
    2. a draw from the configured probability distribution, else
    3. the only path, if there is exactly one.
    """

    def __init__(
        self,
        paths: Sequence[ExecutionPath],
        probabilities: Optional[Dict[int, float]] = None,
    ) -> None:
        if not paths:
            raise ConfigError("a microservice needs at least one execution path")
        self._by_id: Dict[int, ExecutionPath] = {}
        self._by_name: Dict[str, ExecutionPath] = {}
        for path in paths:
            if path.path_id in self._by_id:
                raise ConfigError(f"duplicate path_id {path.path_id}")
            if path.name in self._by_name:
                raise ConfigError(f"duplicate path name {path.name!r}")
            self._by_id[path.path_id] = path
            self._by_name[path.name] = path

        self._prob_ids: Optional[list] = None
        self._index: Optional[WeightedIndex] = None
        if probabilities is not None:
            unknown = set(probabilities) - set(self._by_id)
            if unknown:
                raise ConfigError(
                    f"probabilities reference unknown path ids {sorted(unknown)}"
                )
            total = sum(probabilities.values())
            if not math.isclose(total, 1.0, rel_tol=1e-9, abs_tol=1e-9):
                raise ConfigError(
                    f"path probabilities must sum to 1, got {total!r}"
                )
            if any(p < 0 for p in probabilities.values()):
                raise ConfigError("path probabilities must be non-negative")
            self._prob_ids = sorted(probabilities)
            self._index = WeightedIndex(
                [probabilities[i] for i in self._prob_ids]
            )

    @property
    def paths(self) -> list:
        return list(self._by_id.values())

    def get(self, path_id: int) -> ExecutionPath:
        try:
            return self._by_id[path_id]
        except KeyError:
            raise ConfigError(
                f"unknown path_id {path_id}; have {sorted(self._by_id)}"
            ) from None

    def get_by_name(self, name: str) -> ExecutionPath:
        try:
            return self._by_name[name]
        except KeyError:
            raise ConfigError(
                f"unknown path {name!r}; have {sorted(self._by_name)}"
            ) from None

    def select(
        self,
        rng: np.random.Generator,
        path_id: Optional[int] = None,
        path_name: Optional[str] = None,
    ) -> ExecutionPath:
        """Resolve the path for one job (see class docstring)."""
        if path_id is not None:
            return self.get(path_id)
        if path_name is not None:
            return self.get_by_name(path_name)
        if self._index is not None:
            return self._by_id[self._prob_ids[self._index.draw(rng)]]
        if len(self._by_id) == 1:
            return next(iter(self._by_id.values()))
        raise ConfigError(
            "multiple paths but no probabilities configured and no "
            "explicit path requested"
        )

    def __repr__(self) -> str:
        return f"<PathSelector paths={sorted(self._by_id)}>"
