"""zetaforge: a verification workbench for spectral zeta functions of
oscillator models (two-by-two matrix oscillator and quantum Rabi model).

Subpackages by concern:

* ``exact``    — arbitrary-precision rationals, Bernoulli combinatorics
* ``series``   — truncated power series / q-expansions and their operators
* ``aperynum`` — Apery and Apery-like numbers, congruence verifiers
* ``specval``  — floating-point special values, cube quadratures
* ``spectra``  — truncated eigensolvers, partition functions, heat-trace fits
* ``resum``    — divergent-series traces, Borel transforms and sums
* ``padic``    — p-adic arithmetic, Teichmuller lifts, p-adic Hurwitz zeta
* ``cli``      — batch command-line surface over all of the above
"""

__version__ = "0.1.0"


class Uncertified(RuntimeError):
    """A computation did not reach its certified accuracy (convergence,
    tail, conditioning or quadrature checks); the CLI exits 3 on it."""
