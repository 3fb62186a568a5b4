"""Entanglement change of two-particle spin-1 states under Lorentz boosts.

The package models a pair of distinguishable spin-1 particles with
two-valued, anti-correlated momenta. A boost acts on each momentum sector
through a Wigner rotation of the spins; the engine computes the resulting
change of linear-entropy entanglement across four partitions of the
momentum and spin subsystems, sweeps it over spin-state parameters, and
reports extrema.

The top level exports only ``__version__``; import from the submodules
(``spinboost.sweep``, ``spinboost.entanglement`` and so on).
"""

__version__ = "0.1.0"
