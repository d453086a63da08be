"""Parameterized distributions (Definition 2.1) and their registry."""

from repro.distributions.base import ParameterizedDistribution
from repro.distributions.mixture import FiniteMixture
from repro.distributions.verify import (Fact23Report, fact_2_3_report,
                                        verify_identifiability,
                                        verify_normalization,
                                        verify_parameter_continuity)
from repro.distributions.continuous import (Beta, Exponential, Gamma,
                                            Laplace, LogNormal, Normal,
                                            Uniform)
from repro.distributions.discrete import (Binomial, Categorical,
                                          DiscreteUniform, Flip, Geometric,
                                          Poisson)
from repro.distributions.registry import (DEFAULT_REGISTRY,
                                          AliasedDistribution,
                                          DistributionRegistry,
                                          default_registry)

__all__ = [
    "AliasedDistribution", "Beta", "Binomial", "Categorical",
    "DEFAULT_REGISTRY", "DiscreteUniform", "DistributionRegistry",
    "Exponential", "Fact23Report", "FiniteMixture", "Flip", "Gamma",
    "Geometric", "Laplace", "LogNormal", "Normal",
    "ParameterizedDistribution", "Poisson", "Uniform",
    "default_registry", "fact_2_3_report", "verify_identifiability",
    "verify_normalization", "verify_parameter_continuity",
]
