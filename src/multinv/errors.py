"""Exception types shared across the package."""


class CapExceeded(RuntimeError):
    """Group closure passed the element cap, or proved the group infinite
    first (:class:`InfiniteGroup`, :class:`InfiniteOrderElement`); either
    way it will not close under the cap."""

    def __init__(self, cap, message=None):
        super().__init__(message or f"group closure exceeded the cap of {cap} elements")
        self.cap = cap


class InfiniteGroup(CapExceeded):
    """Group closure met two distinct elements that agree mod 3.

    A finite subgroup of GL_n(Z) injects into GL_n(Z/3) (Minkowski), so
    the pair ``first``, ``second`` proves the group infinite; anyone can
    re-check it from the two matrices alone.
    """

    def __init__(self, cap, first, second):
        super().__init__(
            cap,
            f"group is infinite (two distinct elements agree mod 3), "
            f"so its closure would exceed the cap of {cap} elements",
        )
        self.first = first
        self.second = second


class InfiniteOrderElement(CapExceeded):
    """Group closure met an element g with |tr g| > n, its rank.

    The eigenvalues of an element of finite order are roots of unity, so
    its trace is at most n in absolute value; ``element`` has infinite
    order, which anyone can re-check from that one matrix.
    """

    def __init__(self, cap, element):
        super().__init__(
            cap,
            f"group is infinite (an element's trace exceeds its rank in absolute value), "
            f"so its closure would exceed the cap of {cap} elements",
        )
        self.element = element


class TheoremViolation(AssertionError):
    """A provably true fact failed to verify; this always indicates a bug."""


class NotIsotropy(ValueError):
    """Subgroup is not the exact pointwise stabilizer of its fixed lattice."""


class GeneratorMismatch(ValueError):
    """Paired generator lists do not close to compatible groups."""


class NotInvariant(ValueError):
    """Element of the Laurent algebra is not fixed by the group action."""


class ParityViolation(ArithmeticError):
    """An odd coefficient appeared where evenness is forced."""


class InvalidGenerator(ValueError):
    """Generator matrix is not square of the declared rank, or not unimodular."""


class UnknownBuiltin(KeyError):
    """No builtin group with the requested name."""

    def __str__(self):
        return f"unknown builtin: {self.args[0]}" if self.args else "unknown builtin"


class UnknownPreset(KeyError):
    """No orbit-verification preset with the requested name."""

    def __str__(self):
        return f"unknown preset: {self.args[0]}" if self.args else "unknown preset"


class ParseError(ValueError):
    """Group definition file is not well-formed."""


class ValidationError(ValueError):
    """Input parsed but failed semantic validation: a group definition file,
    or an argument such as an orbit-verification bound below the
    generators' support width."""
