"""Parameterized distributions (Definition 2.1).

A parameterized distribution ``ψ`` consists of a base measure space -
either a Euclidean space with Lebesgue measure or a discrete space with
counting measure - and a density family ``ψ⟨θ⟩`` over a parameter space
``Θ_ψ``, with ``∫ ψ⟨θ⟩ dµ = 1`` for every ``θ``.

:class:`ParameterizedDistribution` captures exactly this structure:

* ``is_discrete`` selects the base-measure kind;
* :meth:`validate_params` decides membership in ``Θ_ψ`` (raising
  :class:`repro.errors.DistributionError` otherwise - the paper requires
  valuations mapping into ``Θ_ψ``, Definition 3.1);
* :meth:`density` is ``ψ⟨θ⟩(x)`` - a pmf for discrete, pdf for
  continuous distributions;
* :meth:`sample_batch` draws iid values from ``P_ψ⟨θ⟩`` (Eq. 2.A) with
  one numpy call.  It is the only sampler a family implements: the
  scalar :meth:`sample` of a chase step (Eq. 4.A) is a one-draw batch,
  and numpy consumes a generator identically for a scalar call and a
  ``size=1`` call, so the two cannot disagree;
* discrete distributions enumerate their support, possibly lazily with
  an explicit *truncation*: :meth:`truncated_support` returns pairs
  covering at least ``1 - tolerance`` of the mass, enabling exact chase
  enumeration with the residue tracked as error mass.

Fact 2.3's conditions (continuity in θ, identifiability) are documented
per distribution; :meth:`distinct_parameters` operationalizes
identifiability, which the Bárány-style semantics (§6.2) relies on when
keying samples by parameter values.
"""

from __future__ import annotations

import math
from typing import Any, Iterator, Sequence

import numpy as np

from repro.distributions.regions import Region
from repro.distributions.regions import _interval_contains as _in_interval
from repro.errors import DistributionError
from repro.measures.discrete import DiscreteMeasure

#: Upper bound on integers enumerated when a discrete draw is
#: constrained through bounded intervals (e.g. ``DiscreteUniform``
#: pinned to ``[1, 10^5]``); beyond it the truncated-support walk is
#: used instead.
_INTERVAL_ENUM_CAP = 100_000
#: Retry rounds for region-filtered rejection (continuous families
#: without an inverse CDF); exhausting it raises so guided inference
#: can fall back instead of silently spinning.
_REJECTION_ROUNDS = 64


class ParameterizedDistribution:
    """Abstract base for parameterized distributions.

    Subclasses define class attributes ``name`` (the symbolic name used
    in programs, e.g. ``"Flip"``), ``param_arity`` and ``is_discrete``,
    and implement the per-θ behaviour.
    """

    #: Symbolic name used in program text (``ψ⟨θ⟩`` is ``Name<θ>``).
    name: str = "?"
    #: Number of parameters (length of θ tuples).
    param_arity: int = 0
    #: Discrete (counting base measure) vs continuous (Lebesgue).
    is_discrete: bool = True

    # -- parameter space Θ_ψ ---------------------------------------------------

    def validate_params(self, params: Sequence[Any]) -> tuple:
        """Check ``params ∈ Θ_ψ``; return the normalized tuple.

        Subclasses override :meth:`_check_params`; this wrapper enforces
        arity and converts to a canonical tuple of floats/values.
        """
        params = tuple(params)
        if len(params) != self.param_arity:
            raise DistributionError(
                f"{self.name} expects {self.param_arity} parameter(s), "
                f"got {len(params)}")
        return self._check_params(params)

    def _check_params(self, params: tuple) -> tuple:
        raise NotImplementedError

    def distinct_parameters(self, first: tuple, second: tuple) -> bool:
        """Whether two parameter tuples induce different measures.

        Definition 2.1 / Fact 2.3 require the family to be identifiable
        (θ ≠ θ' ⇒ P_ψ⟨θ⟩ ≠ P_ψ⟨θ'⟩); all built-in families are, so the
        default compares normalized tuples.
        """
        return self.validate_params(first) != self.validate_params(second)

    # -- density and sampling -----------------------------------------------------

    def density(self, params: Sequence[Any], x: Any) -> float:
        """``ψ⟨θ⟩(x)``: pmf (discrete) or pdf (continuous)."""
        raise NotImplementedError

    def log_density(self, params: Sequence[Any], x: Any) -> float:
        """``log ψ⟨θ⟩(x)`` (−inf outside the support)."""
        d = self.density(params, x)
        if d <= 0.0:
            return float("-inf")
        return float(np.log(d))

    def sample(self, params: Sequence[Any],
               rng: np.random.Generator) -> Any:
        """Draw one value from ``P_ψ⟨θ⟩`` as a Python scalar.

        A one-draw :meth:`sample_batch`, so it consumes the generator
        exactly as that call does; families implement only the batch.
        """
        return self.sample_batch(params, 1, rng).item()

    def sample_batch(self, params: Sequence[Any], size: int,
                     rng: np.random.Generator) -> np.ndarray:
        """Draw ``size`` iid values from ``P_ψ⟨θ⟩`` as a numpy array.

        The one sampler a family implements (:meth:`sample` is a
        one-draw batch).  The batched chase engine
        (:mod:`repro.engine.batched`) calls it once per (distribution,
        parameters) key per round - pooling the draws of *every*
        firing and signature group that shares the key into one call,
        then slicing the flat array back per consumer.  That pooling
        is sound exactly because this method's contract requires the
        ``size`` draws to be iid from ``P_ψ⟨θ⟩``: any split of an iid
        array preserves the product law, so implementations must not
        introduce cross-draw structure (antithetic pairs,
        stratification, common random numbers).  ``size`` draws in one
        call are *law*-equal, not draw-for-draw equal, to ``size``
        one-draw calls.
        """
        raise NotImplementedError(
            f"{self.name} does not implement sample_batch")

    # -- truncated/conditional sampling -----------------------------------------

    def sample_batch_truncated(self, params: Sequence[Any],
                               region: Region, size: int,
                               rng: np.random.Generator,
                               ) -> tuple[np.ndarray, float]:
        """Draw ``size`` iid values from ``P_ψ⟨θ⟩`` conditioned on a region.

        Returns ``(values, log_weight)``: the draws follow the prior
        law restricted to ``region`` and renormalized, and
        ``log_weight`` is the per-draw log importance weight that makes
        a self-normalized posterior over such draws law-exact -
        ``log P_ψ⟨θ⟩(region)`` for positive-mass regions, and the log
        *density* at the point for a continuous single-point region
        (the disintegrated likelihood-weighting case).  The weight is a
        single scalar because the draws are iid given ``(θ, region)``.

        The base implementation covers every family: discrete draws
        renormalize the pmf over the region's candidates (pins checked
        directly via :meth:`density`, bounded intervals enumerated,
        unbounded intervals walked through :meth:`truncated_support` -
        mass below its ``1e-12`` residue is treated as infeasible);
        continuous draws use the inverse CDF when :meth:`ppf` is
        implemented and region-filtered rejection with a retry budget
        otherwise, with the region mass taken from :meth:`cdf` where
        available and from numeric quadrature of :meth:`density` as the
        last resort (Gamma, Beta).  Raises
        :class:`~repro.errors.DistributionError` when the region is
        empty, carries (numerically) zero prior mass, or the rejection
        budget is exhausted.
        """
        params = self.validate_params(params)
        size = int(size)
        if region.is_empty:
            raise DistributionError(
                f"{self.name}: empty feasible region")
        if self.is_discrete:
            return self._sample_truncated_discrete(params, region, size,
                                                   rng)
        return self._sample_truncated_continuous(params, region, size,
                                                 rng)

    def ppf(self, params: Sequence[Any], q: np.ndarray) -> np.ndarray:
        """Inverse CDF at quantiles ``q`` (array-capable; optional).

        Families with a classical closed form (Normal, LogNormal,
        Exponential, Uniform, Laplace) override this; the base raises
        so :meth:`sample_batch_truncated` knows to fall back to
        region-filtered rejection.
        """
        raise NotImplementedError(
            f"{self.name} does not expose an inverse CDF")

    def _sample_truncated_discrete(self, params: tuple, region: Region,
                                   size: int, rng: np.random.Generator,
                                   ) -> tuple[np.ndarray, float]:
        values: list = []
        masses: list[float] = []
        for point in region.points:
            mass = self.density(params, point)
            if mass > 0.0:
                values.append(point)
                masses.append(mass)
        if region.intervals:
            seen = set(values)
            for value, mass in self._interval_candidates(params, region):
                if mass > 0.0 and value not in seen:
                    seen.add(value)
                    values.append(value)
                    masses.append(mass)
        total = math.fsum(masses)
        if total <= 0.0:
            raise DistributionError(
                f"{self.name}: feasible region {region!r} has zero "
                "prior mass")
        probs = np.asarray(masses, dtype=float)
        probs /= probs.sum()
        index = rng.choice(len(values), size=size, p=probs)
        return np.asarray(values)[index], float(math.log(min(total, 1.0)))

    def _interval_candidates(self, params: tuple, region: Region):
        """``(value, pmf)`` pairs of the support inside the intervals.

        Bounded intervals are enumerated directly over the integers
        (every built-in discrete family is integer-valued), so a rare
        pin deep in the tail - ``Poisson⟨0.1⟩`` constrained to
        ``[900, 1000]`` - keeps its exact mass; unbounded intervals
        fall back to the truncated-support walk, whose ``<= 1e-12``
        uncovered residue is the only approximation.
        """
        bounded = []
        span = 0
        for low, high, closed_left, closed_right in region.intervals:
            if not (math.isfinite(low) and math.isfinite(high)):
                bounded = None
                break
            first = math.ceil(low)
            if first == low and not closed_left:
                first += 1
            last = math.floor(high)
            if last == high and not closed_right:
                last -= 1
            bounded.append((first, last))
            span += max(last - first + 1, 0)
        if bounded is not None and span <= _INTERVAL_ENUM_CAP:
            for first, last in bounded:
                for value in range(first, last + 1):
                    yield value, self.density(params, value)
            return
        pairs, _residue = self.truncated_support(params)
        for value, mass in pairs:
            if any(_in_interval(interval, value)
                   for interval in region.intervals):
                yield value, mass

    def _sample_truncated_continuous(self, params: tuple,
                                     region: Region, size: int,
                                     rng: np.random.Generator,
                                     ) -> tuple[np.ndarray, float]:
        single = region.single_point()
        if single is not None:
            (value,) = single
            log_density = self.log_density(params, value)
            if log_density == float("-inf"):
                raise DistributionError(
                    f"{self.name}: zero density at pinned value "
                    f"{value!r}")
            return np.full(size, float(value)), float(log_density)
        if not region.intervals:
            raise DistributionError(
                f"{self.name} is continuous; the multi-point pin set "
                f"{region!r} is a null event (pin one value or use an "
                "interval)")
        # Extra pin points alongside intervals are Lebesgue-null;
        # the conditional law lives on the intervals alone.
        mass = self._interval_mass(params, region.intervals)
        if mass <= 1e-300:
            raise DistributionError(
                f"{self.name}: feasible region {region!r} has zero "
                "prior mass")
        draws = self._ppf_truncated(params, region.intervals, size, rng)
        if draws is None:
            draws = self._rejection_truncated(params, region, size, rng,
                                              mass)
        return draws, float(math.log(min(mass, 1.0)))

    def _cdf_clipped(self, params: tuple, x: float) -> float:
        if x == float("-inf"):
            return 0.0
        if x == float("inf"):
            return 1.0
        return min(max(self.cdf(params, x), 0.0), 1.0)

    def _interval_mass(self, params: tuple, intervals: tuple) -> float:
        """Prior mass of an interval union (CDF, else quadrature)."""
        try:
            total = 0.0
            for low, high, _cl, _cr in intervals:
                total += (self._cdf_clipped(params, high)
                          - self._cdf_clipped(params, low))
            return min(max(total, 0.0), 1.0)
        except NotImplementedError:
            return self._quadrature_mass(params, intervals)

    def _quadrature_mass(self, params: tuple, intervals: tuple) -> float:
        """Trapezoid mass of intervals for CDF-less families.

        The integration window is clipped to mean ± 40 standard
        deviations (the density is numerically zero beyond), and the
        grid is geometrically refined toward both interval endpoints so
        integrable endpoint singularities (Beta with ``α < 1``, Gamma
        with shape ``< 1``) keep sub-percent accuracy.
        """
        center = self.mean(params)
        spread = math.sqrt(self.variance(params)) or 1.0
        window_low = center - 40.0 * spread
        window_high = center + 40.0 * spread
        total = 0.0
        for low, high, _cl, _cr in intervals:
            a = max(low, window_low)
            b = min(high, window_high)
            if a >= b:
                continue
            width = b - a
            offsets = width * np.geomspace(1e-12, 0.5, 128)
            grid = np.unique(np.concatenate([
                np.linspace(a, b, 2049), a + offsets, b - offsets]))
            density = np.asarray([self.density(params, float(x))
                                  for x in grid])
            total += float(np.trapezoid(density, grid))
        return min(max(total, 0.0), 1.0)

    def _ppf_truncated(self, params: tuple, intervals: tuple, size: int,
                       rng: np.random.Generator) -> np.ndarray | None:
        """Exact inverse-CDF draws over an interval union (or None)."""
        try:
            lows = np.asarray([self._cdf_clipped(params, low)
                               for low, _h, _cl, _cr in intervals])
            highs = np.asarray([self._cdf_clipped(params, high)
                                for _l, high, _cl, _cr in intervals])
            masses = np.maximum(highs - lows, 0.0)
            total = float(masses.sum())
            if total <= 0.0:
                raise DistributionError(
                    f"{self.name}: feasible intervals have zero prior "
                    "mass")
            chosen = rng.choice(len(intervals), size=size,
                                p=masses / total)
            q = lows[chosen] + rng.random(size) * masses[chosen]
            return np.asarray(self.ppf(params, q), dtype=float)
        except NotImplementedError:
            return None

    def _rejection_truncated(self, params: tuple, region: Region,
                             size: int, rng: np.random.Generator,
                             mass: float) -> np.ndarray:
        """Region-filtered rejection with a retry budget (law-exact)."""
        per_round = min(max(int(size / max(mass, 1e-6)) + 16, size, 256),
                        1_000_000)
        accepted: list[np.ndarray] = []
        collected = 0
        drawn = 0
        for _ in range(_REJECTION_ROUNDS):
            chunk = np.asarray(self.sample_batch(params, per_round, rng))
            keep = chunk[region.mask(chunk)]
            drawn += per_round
            if keep.size:
                accepted.append(keep)
                collected += keep.size
            if collected >= size:
                return np.concatenate(accepted)[:size]
        raise DistributionError(
            f"{self.name}: truncated-rejection budget exhausted "
            f"({collected}/{size} accepted in {drawn} draws for region "
            f"{region!r})")

    # -- moments (used by tests and examples; optional) ----------------------------

    def mean(self, params: Sequence[Any]) -> float:
        raise NotImplementedError(f"{self.name} does not expose a mean")

    def variance(self, params: Sequence[Any]) -> float:
        raise NotImplementedError(f"{self.name} does not expose a variance")

    # -- discrete support ------------------------------------------------------------

    def support(self, params: Sequence[Any]) -> Iterator[Any]:
        """Iterate the support (discrete only; possibly infinite)."""
        raise DistributionError(
            f"{self.name} is continuous; its support is uncountable")

    def support_is_finite(self, params: Sequence[Any]) -> bool:
        """Whether :meth:`support` terminates for these parameters."""
        return False

    def truncated_support(self, params: Sequence[Any],
                          tolerance: float = 1e-12,
                          max_points: int = 100_000,
                          ) -> tuple[list[tuple[Any, float]], float]:
        """``([(value, mass), ...], residue)`` covering mass ≥ 1−tolerance.

        For finite-support distributions the residue is 0.  For infinite
        discrete supports (Poisson, Geometric) enumeration stops once
        the accumulated mass reaches ``1 - tolerance`` (or at
        ``max_points``); the uncovered ``residue`` is reported so exact
        inference can move it to error mass instead of silently
        renormalizing.
        """
        if not self.is_discrete:
            raise DistributionError(
                f"{self.name} is continuous; exact enumeration requires "
                "a discrete distribution")
        params = self.validate_params(params)
        pairs: list[tuple[Any, float]] = []
        accumulated = 0.0
        for value in self.support(params):
            mass = self.density(params, value)
            if mass > 0.0:
                pairs.append((value, mass))
                accumulated += mass
            if accumulated >= 1.0 - tolerance:
                break
            if len(pairs) >= max_points:
                break
        return pairs, max(1.0 - accumulated, 0.0)

    def finite_support_values(self, params: Sequence[Any],
                              max_points: int = 128,
                              ) -> tuple | None:
        """The full support as a tuple, or None when not small/finite.

        Returns None for continuous families, for discrete families
        with infinite support (Poisson, Geometric), and for finite
        supports larger than ``max_points``.  The batched chase engine
        (:mod:`repro.engine.batched`) uses this to intersect trigger
        pins with the reachable sample values - a pin outside the
        support can never fire, so the world never needs to leave the
        vectorized batch - and to bound how many signature groups an
        always-triggering firing can cascade into.
        """
        if not self.is_discrete:
            return None
        params = self.validate_params(params)
        if not self.support_is_finite(params):
            return None
        values: list = []
        for value in self.support(params):
            values.append(value)
            if len(values) > max_points:
                return None
        return tuple(values)

    def measure(self, params: Sequence[Any],
                tolerance: float = 1e-12) -> DiscreteMeasure:
        """``P_ψ⟨θ⟩`` as a (possibly sub-probability) discrete measure."""
        pairs, _residue = self.truncated_support(params, tolerance)
        return DiscreteMeasure(dict(pairs))

    # -- continuous CDF (optional; used by KS tests) -------------------------------------

    def cdf(self, params: Sequence[Any], x: float) -> float:
        """The CDF of ``P_ψ⟨θ⟩`` where available."""
        raise NotImplementedError(f"{self.name} does not expose a CDF")

    def __repr__(self) -> str:
        kind = "discrete" if self.is_discrete else "continuous"
        return f"<{self.name} ({kind}, {self.param_arity} params)>"


def require(condition: bool, distribution_name: str, message: str) -> None:
    """Raise :class:`DistributionError` unless ``condition`` holds."""
    if not condition:
        raise DistributionError(f"{distribution_name}: {message}")


def as_float(value: Any, distribution_name: str, role: str) -> float:
    """Coerce a parameter to float, rejecting non-numeric values."""
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float)):
        result = float(value)
        if np.isnan(result):
            raise DistributionError(
                f"{distribution_name}: {role} must not be NaN")
        return result
    raise DistributionError(
        f"{distribution_name}: {role} must be numeric, got {value!r}")


def as_int(value: Any, distribution_name: str, role: str) -> int:
    """Coerce a parameter to int, rejecting fractional values."""
    f = as_float(value, distribution_name, role)
    if not float(f).is_integer():
        raise DistributionError(
            f"{distribution_name}: {role} must be an integer, got {value!r}")
    return int(f)
