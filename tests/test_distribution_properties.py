"""Seeded property tests: samplers match their declared densities.

Complements ``test_verify_distributions.py`` (which checks the Fact
2.3 *conditions* numerically): here every registered distribution's
``sample`` method is tested against its own declared law -

* sample moments vs ``mean()`` / ``variance()``;
* empirical CDF vs ``cdf()`` where exposed, else vs a numeric
  integral of ``density()`` (continuous families);
* sampled frequencies vs ``truncated_support`` masses (discrete
  families).

The parameter table is asserted to cover the *entire* default
registry, so registering a new family without property coverage - or
renaming one - fails immediately (registry drift).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.distributions.registry import DEFAULT_REGISTRY
from repro.distributions.verify import fact_2_3_report
from repro.measures.empirical import (frequencies_close, ks_critical_value,
                                      ks_statistic, summarize)

N_SAMPLES = 4000

#: Two distinct parameter points per registered family.
PARAMETER_POINTS = {
    "Flip": [(0.3,), (0.7,)],
    "Bernoulli": [(0.2,), (0.6,)],
    "FlipPrime": [(0.4,), (0.9,)],
    "Binomial": [(5, 0.4), (3, 0.8)],
    "Poisson": [(1.5,), (4.0,)],
    "Geometric": [(0.3,), (0.6,)],
    "DiscreteUniform": [(0, 4), (2, 7)],
    "Categorical": [(0.2, 0.3, 0.5), (0.5, 0.5)],
    "Normal": [(0.0, 1.0), (2.0, 4.0)],
    "LogNormal": [(0.0, 0.25), (0.5, 1.0)],
    "Exponential": [(1.0,), (2.5,)],
    "Uniform": [(0.0, 1.0), (-2.0, 3.0)],
    "Gamma": [(2.0, 1.0), (1.5, 2.0)],
    "Beta": [(2.0, 2.0), (5.0, 1.5)],
    "Laplace": [(0.0, 1.0), (1.0, 2.0)],
}

CASES = [(name, params) for name, points in
         sorted(PARAMETER_POINTS.items()) for params in points]
CASE_IDS = [f"{name}{params}" for name, params in CASES]


def test_parameter_table_covers_registry_exactly():
    """Registry drift tripwire: every family needs property points."""
    assert set(PARAMETER_POINTS) == set(DEFAULT_REGISTRY.names())


def _samples(name, params):
    rng = np.random.default_rng(int.from_bytes(name.encode(), "big")
                                % (2 ** 31) + len(params))
    return DEFAULT_REGISTRY[name].sample_batch(params, N_SAMPLES, rng).tolist()


@pytest.mark.parametrize("name,params", CASES, ids=CASE_IDS)
def test_sample_mean_matches_declared_mean(name, params):
    distribution = DEFAULT_REGISTRY[name]
    try:
        expected = distribution.mean(params)
    except NotImplementedError:
        pytest.skip(f"{name} exposes no mean")
    summary = summarize(float(x) for x in _samples(name, params))
    assert summary.mean_within(expected, z=5.0), (
        f"{name}{params}: sample mean {summary.mean:.4f} vs declared "
        f"{expected:.4f} (se {summary.mean_standard_error:.4f})")


@pytest.mark.parametrize("name,params", CASES, ids=CASE_IDS)
def test_sample_variance_matches_declared_variance(name, params):
    distribution = DEFAULT_REGISTRY[name]
    try:
        expected = distribution.variance(params)
    except NotImplementedError:
        pytest.skip(f"{name} exposes no variance")
    summary = summarize(float(x) for x in _samples(name, params))
    # Variance of the sample variance is ~ (kurtosis-dependent)
    # 2 sigma^4 / n for light tails; allow a generous relative band
    # plus an absolute floor for near-zero variances.
    tolerance = 0.25 * expected + 8.0 * expected \
        * math.sqrt(2.0 / N_SAMPLES) + 0.01
    assert abs(summary.variance - expected) <= tolerance, (
        f"{name}{params}: sample variance {summary.variance:.4f} vs "
        f"declared {expected:.4f}")


def _reference_cdf(distribution, params):
    """``cdf()`` if exposed, else a numeric integral of the density."""
    try:
        distribution.cdf(params, 0.0)
        return lambda x: distribution.cdf(params, x)
    except NotImplementedError:
        pass
    centre = distribution.mean(params)
    spread = math.sqrt(max(distribution.variance(params), 1e-6))
    grid = np.linspace(centre - 12 * spread, centre + 12 * spread,
                       20001)
    densities = np.asarray([distribution.density(params, float(x))
                            for x in grid])
    masses = np.concatenate(
        [[0.0], np.cumsum(np.diff(grid)
                          * 0.5 * (densities[1:] + densities[:-1]))])

    def cdf(x: float) -> float:
        return float(np.interp(x, grid, masses))

    return cdf


@pytest.mark.parametrize(
    "name,params",
    [(name, params) for name, params in CASES
     if not DEFAULT_REGISTRY[name].is_discrete],
    ids=[cid for (name, _), cid in zip(CASES, CASE_IDS)
         if not DEFAULT_REGISTRY[name].is_discrete])
def test_continuous_samples_match_cdf(name, params):
    """One-sample KS of the sampler against the density's own CDF."""
    distribution = DEFAULT_REGISTRY[name]
    samples = [float(x) for x in _samples(name, params)]
    statistic = ks_statistic(samples, _reference_cdf(distribution,
                                                     params))
    limit = 1.3 * ks_critical_value(len(samples), alpha=1e-3)
    assert statistic <= limit, (
        f"{name}{params}: KS {statistic:.4f} > {limit:.4f} - sampler "
        "disagrees with its declared density")


@pytest.mark.parametrize(
    "name,params",
    [(name, params) for name, params in CASES
     if DEFAULT_REGISTRY[name].is_discrete],
    ids=[cid for (name, _), cid in zip(CASES, CASE_IDS)
         if DEFAULT_REGISTRY[name].is_discrete])
def test_discrete_frequencies_match_pmf(name, params):
    """Sampled frequencies vs ``truncated_support`` point masses."""
    distribution = DEFAULT_REGISTRY[name]
    samples = _samples(name, params)
    pairs, residue = distribution.truncated_support(params, 1e-6)
    assert residue <= 1e-6
    probabilities = dict(pairs)
    assert frequencies_close(samples, probabilities,
                             tolerance_sigmas=6.0), (
        f"{name}{params}: sampled frequencies disagree with the pmf")


@pytest.mark.parametrize("name", sorted(PARAMETER_POINTS),
                         ids=sorted(PARAMETER_POINTS))
def test_fact_2_3_conditions_hold(name):
    """Normalization / θ-continuity / identifiability per family."""
    distribution = DEFAULT_REGISTRY[name]
    points = PARAMETER_POINTS[name]
    values = [0, 1] if distribution.is_discrete else [0.25, 1.5]
    report = fact_2_3_report(distribution, points, values)
    assert report.all_ok(), repr(report)


# -- truncated / conditional sampling ---------------------------------------
#
# ``sample_batch_truncated`` is the engine of guided conditioning
# (repro.core.backward): every family must (a) only emit values inside
# the feasible region, (b) follow the prior law renormalized to the
# region, and (c) report the log region mass (or log density at a
# point) as the importance weight.  Gamma and Beta expose neither
# ``cdf`` nor ``ppf`` and therefore exercise the base-class fallback:
# region-filtered rejection plus quadrature mass.

from repro.distributions.regions import Region
from repro.errors import DistributionError

DISCRETE_CASES = [(n, p) for n, p in CASES
                  if DEFAULT_REGISTRY[n].is_discrete]
DISCRETE_IDS = [cid for (n, _), cid in zip(CASES, CASE_IDS)
                if DEFAULT_REGISTRY[n].is_discrete]
CONTINUOUS_CASES = [(n, p) for n, p in CASES
                    if not DEFAULT_REGISTRY[n].is_discrete]
CONTINUOUS_IDS = [cid for (n, _), cid in zip(CASES, CASE_IDS)
                  if not DEFAULT_REGISTRY[n].is_discrete]

N_POOL = 60_000  # prior reference pool for masses / filtered laws


def _pool(name, params):
    rng = np.random.default_rng(int.from_bytes(name.encode(), "big")
                                % (2 ** 31) + 7 * len(params))
    return DEFAULT_REGISTRY[name].sample_batch(params, N_POOL, rng)


def _truncated(name, params, region, size=N_SAMPLES, seed=11):
    rng = np.random.default_rng(int.from_bytes(name.encode(), "big")
                                % (2 ** 31) + seed)
    return DEFAULT_REGISTRY[name].sample_batch_truncated(
        params, region, size, rng)


def _mass_close(name, log_weight, pool, region):
    """exp(log_weight) vs the empirical prior region mass."""
    inside = region.mask(pool)
    estimate = float(inside.mean())
    sigma = math.sqrt(max(estimate * (1 - estimate), 1e-12) / N_POOL)
    # the 2e-3 floor absorbs quadrature error (Gamma/Beta mass is a
    # trapezoid integral of the density, not a closed form)
    tolerance = 6.0 * sigma + 2e-3
    assert abs(math.exp(log_weight) - estimate) <= tolerance, (
        f"{name}: weight exp({log_weight:.4f}) = "
        f"{math.exp(log_weight):.4f} vs empirical region mass "
        f"{estimate:.4f} (tolerance {tolerance:.4f})")


def _region_pmf(name, params, region):
    """Exact renormalized pmf of a discrete family over a region."""
    distribution = DEFAULT_REGISTRY[name]
    pairs, _residue = distribution.truncated_support(params, 1e-9)
    masses = {v: m for v, m in pairs if region.contains(v)}
    total = math.fsum(masses.values())
    return {v: m / total for v, m in masses.items()}, total


@pytest.mark.parametrize("name,params", DISCRETE_CASES,
                         ids=DISCRETE_IDS)
def test_truncated_discrete_pin_set(name, params):
    """Top-2 pin set: in-region, right frequencies, exact weight."""
    distribution = DEFAULT_REGISTRY[name]
    pairs, _ = distribution.truncated_support(params, 1e-9)
    top = [v for v, _ in sorted(pairs, key=lambda vm: -vm[1])[:2]]
    region = Region.pins(top)
    samples, log_weight = _truncated(name, params, region)
    assert all(region.contains(v) for v in samples.tolist())
    probabilities, total = _region_pmf(name, params, region)
    assert frequencies_close(samples, probabilities,
                             tolerance_sigmas=6.0), (
        f"{name}{params}: truncated frequencies disagree with the "
        f"renormalized pmf over {region}")
    assert abs(math.exp(log_weight) - total) <= 1e-6


@pytest.mark.parametrize("name,params", DISCRETE_CASES,
                         ids=DISCRETE_IDS)
def test_truncated_discrete_interval(name, params):
    """Asymmetric left interval through the enumeration path."""
    pool = _pool(name, params)
    median = float(np.median(pool))
    region = Region.interval(-0.5, median + 0.25)
    samples, log_weight = _truncated(name, params, region)
    assert all(region.contains(v) for v in samples.tolist())
    probabilities, total = _region_pmf(name, params, region)
    assert frequencies_close(samples, probabilities,
                             tolerance_sigmas=6.0), (
        f"{name}{params}: truncated frequencies disagree with the "
        f"renormalized pmf over {region}")
    assert abs(math.exp(log_weight) - total) <= 1e-6


def _empirical_cdf(reference):
    ordered = np.sort(np.asarray(reference, dtype=float))

    def cdf(x: float) -> float:
        return float(np.searchsorted(ordered, x, side="right")
                     / len(ordered))

    return cdf


@pytest.mark.parametrize("name,params", CONTINUOUS_CASES,
                         ids=CONTINUOUS_IDS)
def test_truncated_continuous_tail_interval(name, params):
    """One-sided tail: in-region, KS vs filtered prior, mass weight."""
    pool = _pool(name, params)
    cut = float(np.quantile(pool, 0.7))
    region = Region.interval(cut, float("inf"))
    samples, log_weight = _truncated(name, params, region)
    assert bool(region.mask(samples).all()), (
        f"{name}{params}: truncated draw escaped {region}")
    reference = pool[region.mask(pool)]
    statistic = ks_statistic([float(x) for x in samples],
                             _empirical_cdf(reference))
    limit = 1.3 * ks_critical_value(len(samples), len(reference),
                                    alpha=1e-3)
    assert statistic <= limit, (
        f"{name}{params}: KS {statistic:.4f} > {limit:.4f} - "
        "truncated law disagrees with region-filtered prior")
    _mass_close(f"{name}{params}", log_weight, pool, region)


@pytest.mark.parametrize("name,params", CONTINUOUS_CASES,
                         ids=CONTINUOUS_IDS)
def test_truncated_continuous_union(name, params):
    """Two disjoint intervals: both visited, law and weight right."""
    pool = _pool(name, params)
    q05, q25, q60, q80 = (float(np.quantile(pool, q))
                          for q in (0.05, 0.25, 0.6, 0.8))
    region = Region.interval(q05, q25).union(
        Region.interval(q60, q80))
    samples, log_weight = _truncated(name, params, region)
    assert bool(region.mask(samples).all())
    lower = Region.interval(q05, q25).mask(samples).mean()
    # each component holds ~half the region's mass; both must be hit
    assert 0.25 <= float(lower) <= 0.75, (
        f"{name}{params}: union sampling ignored a component "
        f"(lower fraction {float(lower):.3f})")
    reference = pool[region.mask(pool)]
    statistic = ks_statistic([float(x) for x in samples],
                             _empirical_cdf(reference))
    limit = 1.3 * ks_critical_value(len(samples), len(reference),
                                    alpha=1e-3)
    assert statistic <= limit, (
        f"{name}{params}: KS {statistic:.4f} > {limit:.4f} over "
        f"{region}")
    _mass_close(f"{name}{params}", log_weight, pool, region)


@pytest.mark.parametrize("name,params", CASES, ids=CASE_IDS)
def test_truncated_single_point_is_constant(name, params):
    """Point region: constant column, weight = log pmf / density."""
    distribution = DEFAULT_REGISTRY[name]
    if distribution.is_discrete:
        pairs, _ = distribution.truncated_support(params, 1e-9)
        value = max(pairs, key=lambda vm: vm[1])[0]
    else:
        value = float(np.median(_pool(name, params)))
    samples, log_weight = _truncated(name, params,
                                     Region.point(value), size=64)
    assert samples.shape == (64,)
    assert all(v == value for v in samples.tolist())
    expected = math.log(distribution.density(params, value))
    assert abs(log_weight - expected) <= 1e-9, (
        f"{name}{params}: point weight {log_weight} vs log "
        f"{'pmf' if distribution.is_discrete else 'density'} "
        f"{expected}")


@pytest.mark.parametrize("name,params", CASES, ids=CASE_IDS)
def test_truncated_empty_region_raises(name, params):
    with pytest.raises(DistributionError):
        _truncated(name, params, Region(), size=8)


@pytest.mark.parametrize(
    "name,params,region",
    [("DiscreteUniform", (0, 4), Region.pins([-7])),
     ("Poisson", (1.5,), Region.pins([-3, -1])),
     ("Uniform", (0.0, 1.0), Region.interval(5.0, 6.0)),
     ("Exponential", (1.0,), Region.interval(-5.0, -1.0)),
     ("Beta", (2.0, 2.0), Region.interval(2.0, 3.0))],
    ids=["DiscreteUniform-pins", "Poisson-pins", "Uniform-interval",
         "Exponential-interval", "Beta-quadrature"])
def test_truncated_zero_mass_region_raises(name, params, region):
    """Nonempty regions the prior cannot reach are rejected loudly."""
    with pytest.raises(DistributionError):
        _truncated(name, params, region, size=8)


@pytest.mark.parametrize("name", ["Gamma", "Beta"])
def test_fallback_families_lack_closed_forms(name):
    """Tripwire: Gamma/Beta must keep exercising the base fallback.

    The truncated tests above only cover the rejection + quadrature
    base path as long as these families expose neither ``cdf`` nor
    ``ppf``; if someone adds closed forms, this reminds them the
    fallback then needs a dedicated carrier.
    """
    distribution = DEFAULT_REGISTRY[name]
    params = PARAMETER_POINTS[name][0]
    with pytest.raises(NotImplementedError):
        distribution.cdf(params, 1.0)
    with pytest.raises(NotImplementedError):
        distribution.ppf(params, np.asarray([0.5]))
