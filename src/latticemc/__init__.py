"""Discrete-spacetime random walks with lattice-memory interference.

A particle hops on an integer lattice, one site per tick at most, with
move probabilities fixed by a single propensity in [-1, 1].  Free
ensembles reproduce a spreading wave packet; when lattice sites remember
previous visitors, walkers exchange momentum-carrying bosons with the
lattice and single particles build up double-slit fringes, quantized ring
currents, and box modes.  Everything is checked against closed forms and
wave-mechanics oracles; see the ``verify`` module and the test suite.

The package namespace holds the README library example's two closed
forms, ``pmf_free`` and ``multi_slit_density``; every other name is
imported from its own module (``latticemc.walker``, ``latticemc.qforce``, ...).
"""

from .analytic import pmf_free
from .scenarios import multi_slit_density

__version__ = "0.2.0"

__all__ = ["__version__", "multi_slit_density", "pmf_free"]
