"""Verification library for explicit local period identities on p-adic
unitary groups: exact quadratic-extension arithmetic, Whittaker torus
values, local L-factor products, congruence-subgroup volumes, transfer
factors, rank-one orbital integrals, and the closed-form assembly of the
two local characters they tie together.

Each public name is imported from the module that defines it, such as
``from localperiods.symfunc import schur``; the package root re-exports
nothing."""

__version__ = "0.1.0"
