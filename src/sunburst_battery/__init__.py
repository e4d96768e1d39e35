"""Sunburst quantum Ising battery: exact dynamics and closed-form analytics.

A transverse-field Ising ring (the charger) charges n external qubits (the
batteries) through sigma^x Sigma^x couplings.  The package spells the
composite Hamiltonian as one list of bit-flip terms, evolves states exactly
by a matrix-free Chebyshev expansion that serves a whole time grid at once,
reduces them to the battery register, and verifies stored energy,
ergotropy, linear entropy and charging power against their strong-charger
closed forms and against dense exact-diagonalization oracles.

Import each name from the module that defines it, e.g.
``from sunburst_battery.experiments import run_series``.  Importing the
package itself loads nothing, numpy included: the command line sets the
BLAS thread default before anything loads it (``cli.main``).
"""

__version__ = "0.1.0"
