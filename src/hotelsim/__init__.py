"""Numerical laboratory for level-multiplication protocols.

Three layers: an exact eigenbasis pipeline for the infinite square well
(`well`, `protocol`), grid-based time-dependent dynamics for the same
protocol with realistic potentials (`dynamics`), and a paraxial-optics
bench multiplying the azimuthal index of ring beams (`optics`,
`multiplier`).  The `cli` module exposes everything as reproducible,
manifest-driven experiment runs.

The tier modules are the API: import from `hotelsim.<tier>`, whose
`__all__` lists its public names.  Importing this package loads no tier.
"""

__version__ = "1.0.0"
