"""Figure-1 bookkeeping for the output SPDB's mass accounting.

The output SPDB of a program is computed through the
compile-once / infer-many facade of :mod:`repro.api`:

>>> import repro
>>> compiled = repro.compile("R(Flip<0.5>) :- true.")
>>> pdb = compiled.on().exact().pdb

``Session.exact()`` is the exact output SPDB of a *discrete* program
(Theorems 4.8 / 5.5 / 6.1), ``Session.sample(n)`` the Monte-Carlo one
of any program, ``CompiledProgram.apply_to_pdb`` a program applied to
a probabilistic *input* database, and ``Session.mass_report`` the
Figure-1 accounting whose rows this module defines.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MassReport:
    """Figure-1 bookkeeping: where the unit of probability mass went.

    ``instance_mass`` is carried by finite (stable) chase paths -
    these map into the instance space ``D`` under ``lim-inst``;
    ``err_mass`` is carried by paths that were still alive at the
    budget - the stand-in for infinite paths, mapped to ``err``.
    The two always sum to 1 (up to float tolerance).
    """

    budget: int
    instance_mass: float
    err_mass: float

    @property
    def total(self) -> float:
        return self.instance_mass + self.err_mass
