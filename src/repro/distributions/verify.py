"""Numeric verification of Definition 2.1 and Fact 2.3 conditions.

The paper's measurability machinery (Fact 2.3, Gaudard & Hadwin)
requires the parameterized family to satisfy three conditions:

1. **normalization** - ``∫ ψ⟨θ⟩ dµ = 1`` for every ``θ``
   (Definition 2.1);
2. **continuity in θ** - ``θ ↦ ψ⟨θ⟩(x)`` continuous for every ``x``;
3. **identifiability** - ``θ ≠ θ' ⇒ P_ψ⟨θ⟩ ≠ P_ψ⟨θ'⟩``.

These cannot be proven at runtime, but they can be *checked
numerically* at concrete parameters - catching broken custom
distributions before they corrupt a program's semantics.  The checks
are used by the test suite across the whole built-in catalogue and are
exported for users registering their own families.

All verifiers return booleans (within tolerances);
:func:`fact_2_3_report` bundles them into a readable report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.distributions.base import ParameterizedDistribution


def verify_normalization(distribution: ParameterizedDistribution,
                         params: Sequence, tolerance: float = 5e-3,
                         grid_width: float = 60.0,
                         grid_points: int = 50001) -> bool:
    """Check ``∫ ψ⟨θ⟩ dµ ≈ 1`` at one parameter point.

    Discrete families sum the density over the truncated support (the
    truncation itself aims for mass ``1 − 1e-9``, so an unnormalized
    pmf shows up as a sum far from 1).  Continuous families are
    integrated by trapezoid over an adaptively-narrowed grid: a coarse
    scan locates where the density is non-negligible, then a fine pass
    integrates that region - keeping the discretization error at jump
    discontinuities (Uniform/Exponential edges) below ``tolerance``.
    """
    params = distribution.validate_params(params)
    if distribution.is_discrete:
        pairs, _residue = distribution.truncated_support(params, 1e-9)
        total = sum(mass for _, mass in pairs)
        return abs(total - 1.0) <= tolerance + 1e-6
    try:
        centre = distribution.mean(params)
    except NotImplementedError:
        centre = 0.0
    coarse = np.linspace(centre - grid_width, centre + grid_width, 2001)
    values = np.asarray([distribution.density(params, float(x))
                         for x in coarse])
    alive = np.nonzero(values > 1e-13)[0]
    if alive.size == 0:
        return False
    margin = coarse[1] - coarse[0]
    low = float(coarse[alive[0]]) - margin
    high = float(coarse[alive[-1]]) + margin
    xs = np.linspace(low, high, grid_points)
    ys = np.asarray([distribution.density(params, float(x))
                     for x in xs])
    return abs(float(np.trapezoid(ys, xs)) - 1.0) <= tolerance


def verify_parameter_continuity(distribution: ParameterizedDistribution,
                                params: Sequence, x,
                                which: int = 0,
                                steps: Sequence[float] = (1e-2, 1e-4),
                                tolerance_ratio: float = 0.2) -> bool:
    """Check ``θ ↦ ψ⟨θ⟩(x)`` looks continuous at one point.

    Perturbs parameter ``which`` by decreasing steps; the density
    change must shrink with the step (up to ``tolerance_ratio`` slack
    for flat regions, where both changes are ~0).  Families with a
    *discrete* parameter space (integer parameters) are vacuously
    continuous: the perturbed point lies outside ``Θ_ψ``, and every
    function on a discrete space is continuous.
    """
    from repro.errors import DistributionError
    params = list(distribution.validate_params(params))
    base = distribution.density(tuple(params), x)
    changes = []
    for step in steps:
        perturbed = list(params)
        perturbed[which] = perturbed[which] + step
        try:
            value = distribution.density(tuple(perturbed), x)
        except DistributionError:
            # Perturbation leaves Θ_ψ: discrete parameter coordinate.
            return True
        changes.append(abs(value - base))
    if changes[0] <= 1e-12:
        return changes[-1] <= 1e-9
    return changes[-1] <= changes[0] * tolerance_ratio + 1e-12


def distribution_distance(distribution: ParameterizedDistribution,
                          first: Sequence, second: Sequence,
                          grid_width: float = 60.0,
                          grid_points: int = 4001) -> float:
    """A numeric lower bound on ``TV(P_ψ⟨θ⟩, P_ψ⟨θ'⟩)``.

    Discrete: exact TV on the union of truncated supports.  Continuous:
    half the L1 distance of densities on a wide grid (trapezoid).
    """
    first = distribution.validate_params(first)
    second = distribution.validate_params(second)
    if distribution.is_discrete:
        support: dict = {}
        for params in (first, second):
            for value, _mass in \
                    distribution.truncated_support(params, 1e-10)[0]:
                support[value] = None
        return 0.5 * sum(
            abs(distribution.density(first, value)
                - distribution.density(second, value))
            for value in support)
    try:
        centre = 0.5 * (distribution.mean(first)
                        + distribution.mean(second))
    except NotImplementedError:
        centre = 0.0
    xs = np.linspace(centre - grid_width, centre + grid_width,
                     grid_points)
    gaps = np.asarray([
        abs(distribution.density(first, float(x))
            - distribution.density(second, float(x))) for x in xs])
    return 0.5 * float(np.trapezoid(gaps, xs))


def verify_identifiability(distribution: ParameterizedDistribution,
                           first: Sequence, second: Sequence,
                           minimum_distance: float = 1e-6) -> bool:
    """Check distinct parameters induce distinguishable measures."""
    if distribution.validate_params(first) == \
            distribution.validate_params(second):
        return True  # same point of Θ: nothing to distinguish
    return distribution_distance(distribution, first, second) \
        >= minimum_distance


@dataclass(frozen=True)
class Fact23Report:
    """Outcome of the Fact 2.3 condition checks at sample parameters."""

    distribution: str
    normalization_ok: bool
    continuity_ok: bool
    identifiability_ok: bool

    def all_ok(self) -> bool:
        return (self.normalization_ok and self.continuity_ok
                and self.identifiability_ok)

    def __repr__(self) -> str:
        flags = [
            ("normalization", self.normalization_ok),
            ("θ-continuity", self.continuity_ok),
            ("identifiability", self.identifiability_ok),
        ]
        inner = ", ".join(f"{name}={'ok' if ok else 'FAIL'}"
                          for name, ok in flags)
        return f"Fact23Report({self.distribution}: {inner})"


def fact_2_3_report(distribution: ParameterizedDistribution,
                    parameter_points: Sequence[Sequence],
                    test_values: Sequence) -> Fact23Report:
    """Run all three checks over sample parameters and values.

    ``parameter_points`` needs at least two distinct points for the
    identifiability check; ``test_values`` are the ``x`` points for the
    continuity check.
    """
    normalization = all(verify_normalization(distribution, params)
                        for params in parameter_points)
    continuity = all(
        verify_parameter_continuity(distribution, params, x)
        for params in parameter_points for x in test_values)
    identifiability = True
    for i, first in enumerate(parameter_points):
        for second in parameter_points[i + 1:]:
            if not verify_identifiability(distribution, first, second):
                identifiability = False
    return Fact23Report(distribution.name, normalization, continuity,
                        identifiability)
