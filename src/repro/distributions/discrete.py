"""Discrete parameterized distributions (counting base measure).

The catalogue covers Example 2.2's discrete families (Flip, Binomial,
Poisson) and further standard families used by the examples, workloads
and tests.  Each class documents its parameter space ``Θ_ψ``; Fact 2.3's
regularity conditions (continuity in θ, identifiability) hold for all of
them, as the paper notes for "most common parametric families".
``Bernoulli`` is not a class: the default registry binds it to Flip's
law under a second name
(:meth:`repro.distributions.registry.DistributionRegistry.alias`).
"""

from __future__ import annotations

import math
from itertools import count
from typing import Any, Iterator, Sequence

import numpy as np

from repro.distributions.base import (ParameterizedDistribution, as_float,
                                      as_int, require)
from repro.pdb.facts import normalize_value


class Flip(ParameterizedDistribution):
    """A biased coin: ``Flip⟨p⟩(1) = p``, ``Flip⟨p⟩(0) = 1 − p``.

    ``Θ_Flip = [0, 1]`` (Example 2.2).  Values are the integers 0/1.
    """

    name = "Flip"
    param_arity = 1
    is_discrete = True

    def _check_params(self, params: tuple) -> tuple:
        p = as_float(params[0], self.name, "bias")
        require(0.0 <= p <= 1.0, self.name, f"bias must be in [0,1]: {p}")
        return (p,)

    def density(self, params: Sequence[Any], x: Any) -> float:
        (p,) = self.validate_params(params)
        x = normalize_value(x)
        if x == 1:
            return p
        if x == 0:
            return 1.0 - p
        return 0.0

    def sample_batch(self, params: Sequence[Any], size: int,
                     rng: np.random.Generator) -> np.ndarray:
        (p,) = self.validate_params(params)
        return (rng.random(size) < p).astype(np.int64)

    def support(self, params: Sequence[Any]) -> Iterator[int]:
        yield 0
        yield 1

    def support_is_finite(self, params: Sequence[Any]) -> bool:
        return True

    def mean(self, params: Sequence[Any]) -> float:
        (p,) = self.validate_params(params)
        return p

    def variance(self, params: Sequence[Any]) -> float:
        (p,) = self.validate_params(params)
        return p * (1.0 - p)


class Binomial(ParameterizedDistribution):
    """Binomial: number of successes among ``n`` trials of bias ``p``.

    ``Θ = {(n, p) : n ∈ N, p ∈ [0, 1]}``.  (Example 2.2 parameterizes by
    ``(n, k)``; we use the conventional ``(n, p)`` with finite support
    ``{0..n}`` per parameter - the union over parameters is infinite,
    exactly the phenomenon the example highlights.)
    """

    name = "Binomial"
    param_arity = 2
    is_discrete = True

    def _check_params(self, params: tuple) -> tuple:
        n = as_int(params[0], self.name, "n")
        p = as_float(params[1], self.name, "p")
        require(n >= 0, self.name, f"n must be >= 0: {n}")
        require(0.0 <= p <= 1.0, self.name, f"p must be in [0,1]: {p}")
        return (n, p)

    def density(self, params: Sequence[Any], x: Any) -> float:
        n, p = self.validate_params(params)
        x = normalize_value(x)
        if not isinstance(x, (int, float)) or not float(x).is_integer():
            return 0.0
        k = int(x)
        if k < 0 or k > n:
            return 0.0
        return float(math.comb(n, k) * (p ** k) * ((1.0 - p) ** (n - k)))

    def sample_batch(self, params: Sequence[Any], size: int,
                     rng: np.random.Generator) -> np.ndarray:
        n, p = self.validate_params(params)
        return rng.binomial(n, p, size=size).astype(np.int64)

    def support(self, params: Sequence[Any]) -> Iterator[int]:
        n, _p = self.validate_params(params)
        return iter(range(n + 1))

    def support_is_finite(self, params: Sequence[Any]) -> bool:
        return True

    def mean(self, params: Sequence[Any]) -> float:
        n, p = self.validate_params(params)
        return n * p

    def variance(self, params: Sequence[Any]) -> float:
        n, p = self.validate_params(params)
        return n * p * (1.0 - p)


class Poisson(ParameterizedDistribution):
    """Poisson: ``ψ⟨λ⟩(k) = λ^k e^{−λ} / k!`` with ``Θ = R_{>0}``.

    Infinite support for every parameter (Example 2.2); exact inference
    relies on :meth:`truncated_support` with explicit residue mass.
    """

    name = "Poisson"
    param_arity = 1
    is_discrete = True

    def _check_params(self, params: tuple) -> tuple:
        lam = as_float(params[0], self.name, "rate")
        require(lam > 0.0, self.name, f"rate must be > 0: {lam}")
        return (lam,)

    def density(self, params: Sequence[Any], x: Any) -> float:
        (lam,) = self.validate_params(params)
        x = normalize_value(x)
        if not isinstance(x, (int, float)) or not float(x).is_integer():
            return 0.0
        k = int(x)
        if k < 0:
            return 0.0
        return float(math.exp(k * math.log(lam) - lam - math.lgamma(k + 1)))

    def sample_batch(self, params: Sequence[Any], size: int,
                     rng: np.random.Generator) -> np.ndarray:
        (lam,) = self.validate_params(params)
        return rng.poisson(lam, size=size).astype(np.int64)

    def support(self, params: Sequence[Any]) -> Iterator[int]:
        return count(0)

    def support_is_finite(self, params: Sequence[Any]) -> bool:
        return False

    def mean(self, params: Sequence[Any]) -> float:
        (lam,) = self.validate_params(params)
        return lam

    def variance(self, params: Sequence[Any]) -> float:
        (lam,) = self.validate_params(params)
        return lam


class Geometric(ParameterizedDistribution):
    """Geometric on {0, 1, 2, ...}: failures before the first success.

    ``ψ⟨p⟩(k) = (1−p)^k p`` with ``Θ = (0, 1]``.
    """

    name = "Geometric"
    param_arity = 1
    is_discrete = True

    def _check_params(self, params: tuple) -> tuple:
        p = as_float(params[0], self.name, "success probability")
        require(0.0 < p <= 1.0, self.name, f"p must be in (0,1]: {p}")
        return (p,)

    def density(self, params: Sequence[Any], x: Any) -> float:
        (p,) = self.validate_params(params)
        x = normalize_value(x)
        if not isinstance(x, (int, float)) or not float(x).is_integer():
            return 0.0
        k = int(x)
        if k < 0:
            return 0.0
        return float(((1.0 - p) ** k) * p)

    def sample_batch(self, params: Sequence[Any], size: int,
                     rng: np.random.Generator) -> np.ndarray:
        (p,) = self.validate_params(params)
        # numpy's geometric counts trials (support {1, 2, ...}); shift.
        return rng.geometric(p, size=size).astype(np.int64) - 1

    def support(self, params: Sequence[Any]) -> Iterator[int]:
        return count(0)

    def support_is_finite(self, params: Sequence[Any]) -> bool:
        return False

    def mean(self, params: Sequence[Any]) -> float:
        (p,) = self.validate_params(params)
        return (1.0 - p) / p

    def variance(self, params: Sequence[Any]) -> float:
        (p,) = self.validate_params(params)
        return (1.0 - p) / (p * p)


class DiscreteUniform(ParameterizedDistribution):
    """Uniform over the integer range ``{low, ..., high}``.

    ``Θ = {(low, high) ∈ Z² : low <= high}``.
    """

    name = "DiscreteUniform"
    param_arity = 2
    is_discrete = True

    def _check_params(self, params: tuple) -> tuple:
        low = as_int(params[0], self.name, "low")
        high = as_int(params[1], self.name, "high")
        require(low <= high, self.name, f"need low <= high: {low}, {high}")
        return (low, high)

    def density(self, params: Sequence[Any], x: Any) -> float:
        low, high = self.validate_params(params)
        x = normalize_value(x)
        if not isinstance(x, (int, float)) or not float(x).is_integer():
            return 0.0
        k = int(x)
        if low <= k <= high:
            return 1.0 / (high - low + 1)
        return 0.0

    def sample_batch(self, params: Sequence[Any], size: int,
                     rng: np.random.Generator) -> np.ndarray:
        low, high = self.validate_params(params)
        return rng.integers(low, high + 1, size=size).astype(np.int64)

    def support(self, params: Sequence[Any]) -> Iterator[int]:
        low, high = self.validate_params(params)
        return iter(range(low, high + 1))

    def support_is_finite(self, params: Sequence[Any]) -> bool:
        return True

    def mean(self, params: Sequence[Any]) -> float:
        low, high = self.validate_params(params)
        return (low + high) / 2.0

    def variance(self, params: Sequence[Any]) -> float:
        low, high = self.validate_params(params)
        n = high - low + 1
        return (n * n - 1) / 12.0


class Categorical(ParameterizedDistribution):
    """Categorical over {0, ..., k−1} with explicit probability weights.

    Variadic: the parameters *are* the weights, which must be
    non-negative and sum to 1 (within tolerance).  ``Θ`` is the
    probability simplex of the given dimension.
    """

    name = "Categorical"
    param_arity = -1  # variadic; validate_params overridden
    is_discrete = True

    def validate_params(self, params: Sequence[Any]) -> tuple:
        weights = tuple(as_float(w, self.name, "weight") for w in params)
        require(len(weights) >= 1, self.name, "needs at least one weight")
        require(all(w >= 0.0 for w in weights), self.name,
                f"weights must be non-negative: {weights}")
        total = math.fsum(weights)
        require(abs(total - 1.0) <= 1e-9, self.name,
                f"weights must sum to 1 (got {total})")
        return weights

    def _check_params(self, params: tuple) -> tuple:
        return self.validate_params(params)

    def density(self, params: Sequence[Any], x: Any) -> float:
        weights = self.validate_params(params)
        x = normalize_value(x)
        if not isinstance(x, (int, float)) or not float(x).is_integer():
            return 0.0
        k = int(x)
        if 0 <= k < len(weights):
            return weights[k]
        return 0.0

    def sample_batch(self, params: Sequence[Any], size: int,
                     rng: np.random.Generator) -> np.ndarray:
        weights = self.validate_params(params)
        return rng.choice(len(weights), size=size,
                          p=np.asarray(weights)).astype(np.int64)

    def support(self, params: Sequence[Any]) -> Iterator[int]:
        weights = self.validate_params(params)
        return iter(range(len(weights)))

    def support_is_finite(self, params: Sequence[Any]) -> bool:
        return True

    def mean(self, params: Sequence[Any]) -> float:
        weights = self.validate_params(params)
        return math.fsum(k * w for k, w in enumerate(weights))

    def variance(self, params: Sequence[Any]) -> float:
        weights = self.validate_params(params)
        mean = self.mean(params)
        return math.fsum(w * (k - mean) ** 2
                         for k, w in enumerate(weights))
