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


class Record:
    """Base of the parameter and result records.

    A record names its fields, in order, in ``__slots__`` only.  This base
    builds it by position or keyword, takes the trailing fields left out
    from the class's ``_defaults`` (shared, so immutable), and raises
    TypeError on a missing, unknown or repeated field; a record that checks
    or normalises its input does so in its own ``__init__``, then calls
    this one.  The base also gives the repr and the field-wise equality
    that ``dataclasses`` would generate, without importing that module
    (and ``inspect`` with it) or compiling methods for each class.  A
    record is unhashable, as a mutable dataclass is.  Records are not
    subclassed, so ``__slots__`` holds every field.
    """

    __slots__ = ()
    _defaults = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            args = self._complete(args, kwargs)
        for name, value in zip(names, args):
            # through object: a frozen record refuses plain assignment
            object.__setattr__(self, name, value)

    def _complete(self, args: tuple, kwargs: dict) -> list:
        """Every field's value, in order, from the given ones and the defaults."""
        names, cls = self.__slots__, type(self).__qualname__
        if len(args) > len(names):
            raise TypeError(f"{cls} has {len(names)} fields, got {len(args)} values")
        for name in kwargs:
            if name not in names:
                raise TypeError(f"{cls} has no field {name!r}")
            if names.index(name) < len(args):
                raise TypeError(f"{cls} got field {name!r} twice")
        values = {**self._defaults, **dict(zip(names, args)), **kwargs}
        for name in names:
            if name not in values:
                raise TypeError(f"{cls} is missing field {name!r}")
        return [values[name] for name in names]

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()


class FrozenRecord(Record):
    """A record whose fields are set once, when it is built; it hashes by
    its fields and refuses assignment."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Uncertified(RuntimeError):
    """A computation did not reach its certified accuracy (convergence,
    tail, conditioning or quadrature checks); the CLI exits 3 on it."""
