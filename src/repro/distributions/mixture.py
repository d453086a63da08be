"""Finite mixtures of parameterized distributions (cf. Remark 2.4).

Remark 2.4 of the paper considers distributions mixing discrete and
continuous parts, to be handled "by considering these parts
separately".  This module implements the unambiguous same-kind case: a
:class:`FiniteMixture` of components that are either all discrete or
all continuous, whose density is the weighted sum of component
densities with respect to the shared base measure - a genuine
parameterized distribution in the sense of Definition 2.1.

Components carry *fixed* parameters (the mixture itself takes no
program-level parameters), so a mixture is registered once and used as
a zero-parameter random term, e.g.::

    registry.register(FiniteMixture("BimodalNoise", [
        (0.5, Normal(), (-2.0, 1.0)),
        (0.5, Normal(), (2.0, 1.0)),
    ]))
    Program.parse("Noise(BimodalNoise<>) :- true.", registry)

Mixing a discrete with a continuous component is rejected: the sum of
a pmf and a pdf is not a density against either base measure, exactly
the subtlety Remark 2.4 defers.
"""

from __future__ import annotations

import math
from typing import Any, Iterator, Sequence

import numpy as np

from repro.distributions.base import ParameterizedDistribution
from repro.errors import DistributionError


class FiniteMixture(ParameterizedDistribution):
    """A fixed finite mixture ``Σ w_i · ψ_i⟨θ_i⟩`` (same-kind components).

    ``components`` is a sequence of ``(weight, distribution, params)``
    triples; weights must be positive and sum to 1.
    """

    param_arity = 0

    def __init__(self, name: str,
                 components: Sequence[tuple[float,
                                            ParameterizedDistribution,
                                            Sequence]]):
        if not components:
            raise DistributionError("mixture needs at least one "
                                    "component")
        self.name = name
        prepared = []
        kinds = set()
        total = 0.0
        for weight, distribution, params in components:
            weight = float(weight)
            if weight <= 0.0:
                raise DistributionError(
                    f"{name}: component weights must be positive")
            validated = distribution.validate_params(tuple(params))
            prepared.append((weight, distribution, validated))
            kinds.add(distribution.is_discrete)
            total += weight
        if abs(total - 1.0) > 1e-9:
            raise DistributionError(
                f"{name}: weights must sum to 1 (got {total})")
        if len(kinds) != 1:
            raise DistributionError(
                f"{name}: mixing discrete and continuous components "
                "has no common base measure (Remark 2.4); split the "
                "model into separate rules instead")
        self.components = tuple(prepared)
        self.is_discrete = kinds.pop()

    def _check_params(self, params: tuple) -> tuple:
        return ()

    def density(self, params: Sequence[Any], x: Any) -> float:
        self.validate_params(params)
        return math.fsum(
            weight * distribution.density(component_params, x)
            for weight, distribution, component_params
            in self.components)

    def sample_batch(self, params: Sequence[Any], size: int,
                     rng: np.random.Generator) -> np.ndarray:
        self.validate_params(params)
        size = int(size)
        weights = np.asarray([w for w, _d, _p in self.components])
        cumulative = np.cumsum(weights)
        cumulative[-1] = 1.0  # guard against fsum drift at the edge
        choices = np.searchsorted(cumulative, rng.random(size),
                                  side="right")
        parts = []
        for index, (_w, distribution, component_params) in \
                enumerate(self.components):
            count = int(np.count_nonzero(choices == index))
            parts.append(distribution.sample_batch(
                component_params, count, rng) if count else None)
        dtype = np.result_type(*(part.dtype for part in parts
                                 if part is not None)) \
            if any(part is not None for part in parts) else float
        out = np.empty(size, dtype=dtype)
        for index, part in enumerate(parts):
            if part is not None:
                out[choices == index] = part
        return out

    def support(self, params: Sequence[Any]) -> Iterator[Any]:
        if not self.is_discrete:
            return super().support(params)
        seen: set = set()

        def union() -> Iterator[Any]:
            # Round-robin over component supports so infinite supports
            # do not starve later components.
            iterators = [distribution.support(component_params)
                         for _w, distribution, component_params
                         in self.components]
            alive = list(iterators)
            while alive:
                still_alive = []
                for iterator in alive:
                    try:
                        value = next(iterator)
                    except StopIteration:
                        continue
                    still_alive.append(iterator)
                    if value not in seen:
                        seen.add(value)
                        yield value
                alive = still_alive

        return union()

    def support_is_finite(self, params: Sequence[Any]) -> bool:
        return self.is_discrete and all(
            distribution.support_is_finite(component_params)
            for _w, distribution, component_params in self.components)

    def cdf(self, params: Sequence[Any], x: float) -> float:
        self.validate_params(params)
        return math.fsum(
            weight * distribution.cdf(component_params, x)
            for weight, distribution, component_params
            in self.components)

    def mean(self, params: Sequence[Any]) -> float:
        return math.fsum(
            weight * distribution.mean(component_params)
            for weight, distribution, component_params
            in self.components)

    def variance(self, params: Sequence[Any]) -> float:
        # Law of total variance over the component indicator.
        overall_mean = self.mean(params)
        total = 0.0
        for weight, distribution, component_params in self.components:
            component_mean = distribution.mean(component_params)
            total += weight * (distribution.variance(component_params)
                               + (component_mean - overall_mean) ** 2)
        return total
