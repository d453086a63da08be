"""Registry mapping distribution names to implementations.

The paper fixes a family ``Ψ`` of parameterized distributions that a
program may use (Section 3.1).  A :class:`DistributionRegistry` is that
family: the parser resolves ``Name⟨θ⟩`` random terms against it, and
custom families can be registered for applications.

:meth:`DistributionRegistry.alias` reproduces the paper's ``Flip'``
device (Example 1.1): two registered names bound to the *same law* are
different elements of ``Ψ`` and therefore behave differently under the
semantics of [3] (which keys samples by distribution name) while being
interchangeable under this paper's semantics.  An
:class:`AliasedDistribution` forwards every law method to the family it
names - the one same-law wrapper, which the §6.2 tag wrapper
(:class:`repro.core.barany.TaggedDistribution`) extends.
"""

from __future__ import annotations

from typing import Iterator

from repro.distributions.base import ParameterizedDistribution
from repro.distributions.continuous import (Beta, Exponential, Gamma,
                                            Laplace, LogNormal, Normal,
                                            Uniform)
from repro.distributions.discrete import (Binomial, Categorical,
                                          DiscreteUniform, Flip, Geometric,
                                          Poisson)
from repro.errors import DistributionError


class DistributionRegistry:
    """A family ``Ψ`` of named parameterized distributions."""

    def __init__(self, distributions: list[ParameterizedDistribution]
                 | None = None):
        self._by_name: dict[str, ParameterizedDistribution] = {}
        for distribution in distributions or []:
            self.register(distribution)

    def register(self, distribution: ParameterizedDistribution,
                 name: str | None = None) -> None:
        """Add a distribution under its name (or an explicit alias)."""
        key = name or distribution.name
        if key in self._by_name:
            raise DistributionError(f"distribution {key!r} already "
                                    "registered")
        self._by_name[key] = distribution

    def alias(self, existing: str, alias_name: str) -> None:
        """Register a second *name* for an existing law.

        The alias shares the implementation object, so the laws are
        identical; only the name differs.  Under the paper's semantics
        programs are invariant under such renaming; under [3]'s they are
        not (Example 1.1, ``Flip`` vs ``Flip'``).
        """
        self.register(AliasedDistribution(self[existing], alias_name))

    def __getitem__(self, name: str) -> ParameterizedDistribution:
        try:
            return self._by_name[name]
        except KeyError:
            known = ", ".join(sorted(self._by_name))
            raise DistributionError(
                f"unknown distribution {name!r} (known: {known})") from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._by_name))

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._by_name))

    def copy(self) -> "DistributionRegistry":
        registry = DistributionRegistry()
        registry._by_name = dict(self._by_name)
        return registry


class AliasedDistribution(ParameterizedDistribution):
    """A second name for an existing law; every law method forwards.

    :meth:`_inner_params` maps this wrapper's parameters to the inner
    family's: the identity here, the tag-dropping map in
    :class:`repro.core.barany.TaggedDistribution`.
    """

    def __init__(self, inner: ParameterizedDistribution, name: str):
        self._inner = inner
        self.name = name
        self.param_arity = inner.param_arity
        self.is_discrete = inner.is_discrete

    def _inner_params(self, params):
        return params

    def validate_params(self, params):
        return self._inner.validate_params(params)

    def density(self, params, x):
        return self._inner.density(self._inner_params(params), x)

    def sample_batch(self, params, size, rng):
        return self._inner.sample_batch(self._inner_params(params), size,
                                        rng)

    def support(self, params):
        return self._inner.support(self._inner_params(params))

    def support_is_finite(self, params):
        return self._inner.support_is_finite(self._inner_params(params))

    def cdf(self, params, x):
        return self._inner.cdf(self._inner_params(params), x)

    def ppf(self, params, q):
        return self._inner.ppf(self._inner_params(params), q)

    def sample_batch_truncated(self, params, region, size, rng):
        return self._inner.sample_batch_truncated(
            self._inner_params(params), region, size, rng)

    def mean(self, params):
        return self._inner.mean(self._inner_params(params))

    def variance(self, params):
        return self._inner.variance(self._inner_params(params))


def default_registry() -> DistributionRegistry:
    """The standard family Ψ: Example 2.2's distributions and more.

    ``Bernoulli`` and ``FlipPrime`` (the paper's ``Flip'``) are aliases
    of ``Flip``: equal as measures, different by name.  Example 1.1's
    ``G'_0`` relies on such a pair, whose semantics differs under [3]
    but not under ours, so the example can be written directly.
    """
    registry = DistributionRegistry([
        Flip(), Binomial(), Poisson(), Geometric(), DiscreteUniform(),
        Categorical(),
        Normal(), LogNormal(), Exponential(), Uniform(), Gamma(), Beta(),
        Laplace(),
    ])
    registry.alias("Flip", "Bernoulli")
    registry.alias("Flip", "FlipPrime")
    return registry


#: Shared default registry used when none is supplied explicitly.
DEFAULT_REGISTRY = default_registry()
