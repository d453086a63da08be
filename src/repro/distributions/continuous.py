"""Continuous parameterized distributions (Lebesgue base measure).

These are the point of the paper: rule heads may sample from absolutely
continuous laws such as ``Normal⟨µ, σ²⟩``.  Example 2.2 prints the
normal density without the factor 2 in the exponent's denominator, a
typographical error: the displayed function does not integrate to 1.
We implement the correct density

    Normal⟨µ, σ²⟩(x) = exp(−(x−µ)² / (2σ²)) / sqrt(2πσ²).

All families expose exact densities, CDFs and inverse CDFs where
classical closed forms exist (KS tests and truncated draws), moments,
and one sampler each: a one-call numpy ``sample_batch``.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np

from repro.distributions.base import (ParameterizedDistribution, as_float,
                                      require)


def _as_real(x: Any) -> float | None:
    """Value as float if it is a real number, else None."""
    if isinstance(x, bool):
        return float(x)
    if isinstance(x, (int, float)):
        return float(x)
    return None


_ERFC = np.vectorize(math.erfc)


def _standard_normal_ppf(q: np.ndarray) -> np.ndarray:
    """``Φ^{-1}(q)``: Acklam's rational approximation, Halley-polished.

    The initial approximation is accurate to ~1.15e-9 relative error
    over (0, 1); one Halley refinement against the exact ``erfc``-based
    CDF brings it to machine precision, which is what lets truncated
    normal draws (:meth:`Normal.sample_batch_truncated`) be treated as
    exact inverse-CDF samples in the law tests.
    """
    q = np.asarray(q, dtype=float)
    q = np.clip(q, 1e-300, 1.0 - 1e-16)
    a = (-3.969683028665376e+01, 2.209460984245205e+02,
         -2.759285104469687e+02, 1.383577518672690e+02,
         -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02,
         -1.556989798598866e+02, 6.680131188771972e+01,
         -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01,
         -2.400758277161838e+00, -2.549732539343734e+00,
         4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01,
         2.445134137142996e+00, 3.754408661907416e+00)
    split = 0.02425
    x = np.empty_like(q)
    lower = q < split
    upper = q > 1.0 - split
    middle = ~(lower | upper)
    if np.any(middle):
        r = q[middle] - 0.5
        s = r * r
        x[middle] = ((((((a[0] * s + a[1]) * s + a[2]) * s + a[3]) * s
                       + a[4]) * s + a[5]) * r
                     / (((((b[0] * s + b[1]) * s + b[2]) * s + b[3]) * s
                         + b[4]) * s + 1.0))
    if np.any(lower):
        r = np.sqrt(-2.0 * np.log(q[lower]))
        x[lower] = (((((c[0] * r + c[1]) * r + c[2]) * r + c[3]) * r
                     + c[4]) * r + c[5]) \
            / ((((d[0] * r + d[1]) * r + d[2]) * r + d[3]) * r + 1.0)
    if np.any(upper):
        r = np.sqrt(-2.0 * np.log(1.0 - q[upper]))
        x[upper] = -((((((c[0] * r + c[1]) * r + c[2]) * r + c[3]) * r
                       + c[4]) * r + c[5])
                     / ((((d[0] * r + d[1]) * r + d[2]) * r + d[3]) * r
                        + 1.0))
    # One Halley step: e = Φ(x) − q, u = e / φ(x).
    e = 0.5 * _ERFC(-x / math.sqrt(2.0)) - q
    u = e * np.sqrt(2.0 * np.pi) * np.exp(x * x / 2.0)
    return x - u / (1.0 + x * u / 2.0)


class Normal(ParameterizedDistribution):
    """Normal distribution parameterized by mean and *variance*.

    ``Θ = R × R_{>0}`` (Example 2.2): the second parameter is σ², not σ,
    matching the paper's ``Normal⟨µ, σ²⟩`` notation.
    """

    name = "Normal"
    param_arity = 2
    is_discrete = False

    def _check_params(self, params: tuple) -> tuple:
        mu = as_float(params[0], self.name, "mean")
        var = as_float(params[1], self.name, "variance")
        require(var > 0.0, self.name, f"variance must be > 0: {var}")
        return (mu, var)

    def density(self, params: Sequence[Any], x: Any) -> float:
        mu, var = self.validate_params(params)
        value = _as_real(x)
        if value is None:
            return 0.0
        return float(math.exp(-(value - mu) ** 2 / (2.0 * var))
                     / math.sqrt(2.0 * math.pi * var))

    def sample_batch(self, params: Sequence[Any], size: int,
                     rng: np.random.Generator) -> np.ndarray:
        mu, var = self.validate_params(params)
        return rng.normal(mu, math.sqrt(var), size=size)

    def cdf(self, params: Sequence[Any], x: float) -> float:
        mu, var = self.validate_params(params)
        return 0.5 * (1.0 + math.erf((x - mu) / math.sqrt(2.0 * var)))

    def ppf(self, params: Sequence[Any], q: np.ndarray) -> np.ndarray:
        mu, var = self.validate_params(params)
        return mu + math.sqrt(var) * _standard_normal_ppf(q)

    def mean(self, params: Sequence[Any]) -> float:
        mu, _var = self.validate_params(params)
        return mu

    def variance(self, params: Sequence[Any]) -> float:
        _mu, var = self.validate_params(params)
        return var


class LogNormal(ParameterizedDistribution):
    """Log-normal: ``exp(Z)`` with ``Z ~ Normal⟨µ, σ²⟩``.

    ``Θ = R × R_{>0}``.  Included because the introduction motivates
    continuous PDBs with real-world log-normal phenomena [29].
    """

    name = "LogNormal"
    param_arity = 2
    is_discrete = False

    def _check_params(self, params: tuple) -> tuple:
        mu = as_float(params[0], self.name, "log-mean")
        var = as_float(params[1], self.name, "log-variance")
        require(var > 0.0, self.name, f"log-variance must be > 0: {var}")
        return (mu, var)

    def density(self, params: Sequence[Any], x: Any) -> float:
        mu, var = self.validate_params(params)
        value = _as_real(x)
        if value is None or value <= 0.0:
            return 0.0
        return float(math.exp(-(math.log(value) - mu) ** 2 / (2.0 * var))
                     / (value * math.sqrt(2.0 * math.pi * var)))

    def sample_batch(self, params: Sequence[Any], size: int,
                     rng: np.random.Generator) -> np.ndarray:
        mu, var = self.validate_params(params)
        return rng.lognormal(mu, math.sqrt(var), size=size)

    def cdf(self, params: Sequence[Any], x: float) -> float:
        mu, var = self.validate_params(params)
        if x <= 0.0:
            return 0.0
        return 0.5 * (1.0 + math.erf(
            (math.log(x) - mu) / math.sqrt(2.0 * var)))

    def ppf(self, params: Sequence[Any], q: np.ndarray) -> np.ndarray:
        mu, var = self.validate_params(params)
        return np.exp(mu + math.sqrt(var) * _standard_normal_ppf(q))

    def mean(self, params: Sequence[Any]) -> float:
        mu, var = self.validate_params(params)
        return math.exp(mu + var / 2.0)

    def variance(self, params: Sequence[Any]) -> float:
        mu, var = self.validate_params(params)
        return (math.exp(var) - 1.0) * math.exp(2.0 * mu + var)


class Exponential(ParameterizedDistribution):
    """Exponential with rate λ: ``ψ⟨λ⟩(x) = λ e^{−λx}`` on ``x >= 0``.

    ``Θ = R_{>0}``.  (The conclusion of the paper names exponential
    distributions as a natural application.)
    """

    name = "Exponential"
    param_arity = 1
    is_discrete = False

    def _check_params(self, params: tuple) -> tuple:
        rate = as_float(params[0], self.name, "rate")
        require(rate > 0.0, self.name, f"rate must be > 0: {rate}")
        return (rate,)

    def density(self, params: Sequence[Any], x: Any) -> float:
        (rate,) = self.validate_params(params)
        value = _as_real(x)
        if value is None or value < 0.0:
            return 0.0
        return float(rate * math.exp(-rate * value))

    def sample_batch(self, params: Sequence[Any], size: int,
                     rng: np.random.Generator) -> np.ndarray:
        (rate,) = self.validate_params(params)
        return rng.exponential(1.0 / rate, size=size)

    def cdf(self, params: Sequence[Any], x: float) -> float:
        (rate,) = self.validate_params(params)
        if x <= 0.0:
            return 0.0
        return 1.0 - math.exp(-rate * x)

    def ppf(self, params: Sequence[Any], q: np.ndarray) -> np.ndarray:
        (rate,) = self.validate_params(params)
        return -np.log1p(-np.asarray(q, dtype=float)) / rate

    def mean(self, params: Sequence[Any]) -> float:
        (rate,) = self.validate_params(params)
        return 1.0 / rate

    def variance(self, params: Sequence[Any]) -> float:
        (rate,) = self.validate_params(params)
        return 1.0 / (rate * rate)


class Uniform(ParameterizedDistribution):
    """Continuous uniform on ``[low, high]`` with ``low < high``."""

    name = "Uniform"
    param_arity = 2
    is_discrete = False

    def _check_params(self, params: tuple) -> tuple:
        low = as_float(params[0], self.name, "low")
        high = as_float(params[1], self.name, "high")
        require(low < high, self.name, f"need low < high: {low}, {high}")
        return (low, high)

    def density(self, params: Sequence[Any], x: Any) -> float:
        low, high = self.validate_params(params)
        value = _as_real(x)
        if value is None or not low <= value <= high:
            return 0.0
        return 1.0 / (high - low)

    def sample_batch(self, params: Sequence[Any], size: int,
                     rng: np.random.Generator) -> np.ndarray:
        low, high = self.validate_params(params)
        return rng.uniform(low, high, size=size)

    def cdf(self, params: Sequence[Any], x: float) -> float:
        low, high = self.validate_params(params)
        if x <= low:
            return 0.0
        if x >= high:
            return 1.0
        return (x - low) / (high - low)

    def ppf(self, params: Sequence[Any], q: np.ndarray) -> np.ndarray:
        low, high = self.validate_params(params)
        return low + np.asarray(q, dtype=float) * (high - low)

    def mean(self, params: Sequence[Any]) -> float:
        low, high = self.validate_params(params)
        return (low + high) / 2.0

    def variance(self, params: Sequence[Any]) -> float:
        low, high = self.validate_params(params)
        return (high - low) ** 2 / 12.0


class Gamma(ParameterizedDistribution):
    """Gamma with shape ``k > 0`` and rate ``λ > 0``.

    ``ψ⟨k, λ⟩(x) = λ^k x^{k−1} e^{−λx} / Γ(k)`` on ``x > 0``.
    """

    name = "Gamma"
    param_arity = 2
    is_discrete = False

    def _check_params(self, params: tuple) -> tuple:
        shape = as_float(params[0], self.name, "shape")
        rate = as_float(params[1], self.name, "rate")
        require(shape > 0.0, self.name, f"shape must be > 0: {shape}")
        require(rate > 0.0, self.name, f"rate must be > 0: {rate}")
        return (shape, rate)

    def density(self, params: Sequence[Any], x: Any) -> float:
        shape, rate = self.validate_params(params)
        value = _as_real(x)
        if value is None or value <= 0.0:
            return 0.0
        log_density = (shape * math.log(rate)
                       + (shape - 1.0) * math.log(value)
                       - rate * value - math.lgamma(shape))
        return float(math.exp(log_density))

    def sample_batch(self, params: Sequence[Any], size: int,
                     rng: np.random.Generator) -> np.ndarray:
        shape, rate = self.validate_params(params)
        return rng.gamma(shape, 1.0 / rate, size=size)

    def mean(self, params: Sequence[Any]) -> float:
        shape, rate = self.validate_params(params)
        return shape / rate

    def variance(self, params: Sequence[Any]) -> float:
        shape, rate = self.validate_params(params)
        return shape / (rate * rate)


class Beta(ParameterizedDistribution):
    """Beta on ``[0, 1]`` with shape parameters ``α, β > 0``."""

    name = "Beta"
    param_arity = 2
    is_discrete = False

    def _check_params(self, params: tuple) -> tuple:
        alpha = as_float(params[0], self.name, "alpha")
        beta = as_float(params[1], self.name, "beta")
        require(alpha > 0.0, self.name, f"alpha must be > 0: {alpha}")
        require(beta > 0.0, self.name, f"beta must be > 0: {beta}")
        return (alpha, beta)

    def density(self, params: Sequence[Any], x: Any) -> float:
        alpha, beta = self.validate_params(params)
        value = _as_real(x)
        if value is None or not 0.0 < value < 1.0:
            return 0.0
        log_norm = (math.lgamma(alpha + beta) - math.lgamma(alpha)
                    - math.lgamma(beta))
        return float(math.exp(log_norm + (alpha - 1.0) * math.log(value)
                              + (beta - 1.0) * math.log(1.0 - value)))

    def sample_batch(self, params: Sequence[Any], size: int,
                     rng: np.random.Generator) -> np.ndarray:
        alpha, beta = self.validate_params(params)
        return rng.beta(alpha, beta, size=size)

    def mean(self, params: Sequence[Any]) -> float:
        alpha, beta = self.validate_params(params)
        return alpha / (alpha + beta)

    def variance(self, params: Sequence[Any]) -> float:
        alpha, beta = self.validate_params(params)
        total = alpha + beta
        return alpha * beta / (total * total * (total + 1.0))


class Laplace(ParameterizedDistribution):
    """Laplace (double exponential) with location µ and scale b > 0."""

    name = "Laplace"
    param_arity = 2
    is_discrete = False

    def _check_params(self, params: tuple) -> tuple:
        loc = as_float(params[0], self.name, "location")
        scale = as_float(params[1], self.name, "scale")
        require(scale > 0.0, self.name, f"scale must be > 0: {scale}")
        return (loc, scale)

    def density(self, params: Sequence[Any], x: Any) -> float:
        loc, scale = self.validate_params(params)
        value = _as_real(x)
        if value is None:
            return 0.0
        return float(math.exp(-abs(value - loc) / scale) / (2.0 * scale))

    def sample_batch(self, params: Sequence[Any], size: int,
                     rng: np.random.Generator) -> np.ndarray:
        loc, scale = self.validate_params(params)
        return rng.laplace(loc, scale, size=size)

    def cdf(self, params: Sequence[Any], x: float) -> float:
        loc, scale = self.validate_params(params)
        if x < loc:
            return 0.5 * math.exp((x - loc) / scale)
        return 1.0 - 0.5 * math.exp(-(x - loc) / scale)

    def ppf(self, params: Sequence[Any], q: np.ndarray) -> np.ndarray:
        loc, scale = self.validate_params(params)
        q = np.clip(np.asarray(q, dtype=float), 1e-300, 1.0 - 1e-16)
        return np.where(q < 0.5,
                        loc + scale * np.log(2.0 * q),
                        loc - scale * np.log(2.0 * (1.0 - q)))

    def mean(self, params: Sequence[Any]) -> float:
        loc, _scale = self.validate_params(params)
        return loc

    def variance(self, params: Sequence[Any]) -> float:
        _loc, scale = self.validate_params(params)
        return 2.0 * scale * scale
