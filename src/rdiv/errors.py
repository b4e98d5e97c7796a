"""Domain errors shared across the package.

Everything raised on a violated precondition derives from RdivError so the
CLI can map failures to exit codes uniformly.
"""


class RdivError(Exception):
    pass


class MixedDiscriminant(RdivError):
    """Two scalars from distinct irrational quadratic fields were combined."""

    def __init__(self, d1, d2):
        super().__init__(f"incompatible discriminants {d1} and {d2}")
        self.discs = (d1, d2)


class DivisionByZero(RdivError, ZeroDivisionError):
    pass


class UnboundedPolytope(RdivError):
    pass


class NotBig(RdivError):
    pass


class NotNef(RdivError):
    pass


class NotEffective(RdivError):
    pass


class NotPseudoeffective(RdivError):
    pass


class NonSimplicialCone(RdivError):
    pass


class NoSections(RdivError):
    """No sections at the requested multiple."""

    def __init__(self, m):
        super().__init__(f"no sections at m={m}")
        self.m = m


class UnsupportedDivisor(RdivError):
    pass


class UnsupportedModel(RdivError):
    pass


class ExampleViolated(RdivError):
    pass


class ParseError(RdivError):
    def __init__(self, message, path=""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path
