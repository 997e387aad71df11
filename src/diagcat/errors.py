"""Exception types shared across the package."""


class DiagramError(Exception):
    """Base class for all domain errors; carries a stable machine code."""

    code = "domain_error"


class NotAMatching(DiagramError):
    code = "not_a_matching"


class NotAPartition(DiagramError):
    code = "not_a_partition"


class NotInjective(DiagramError):
    code = "not_injective"


class ColorViolation(DiagramError):
    code = "color_violation"


class ParityViolation(NotAMatching):
    # a parity failure is one way of failing to be a matching
    code = "parity_violation"


class VariantMismatch(DiagramError):
    code = "variant_mismatch"


class ShapeMismatch(DiagramError):
    code = "shape_mismatch"


class ColorMismatch(DiagramError):
    code = "color_mismatch"


class UnsupportedVariant(DiagramError):
    code = "unsupported_variant"

    @classmethod
    def of(cls, operation, variant, supported):
        """The error naming the operation and the variants it supports."""
        return cls(f"{operation} supports {', '.join(supported)}; not {variant}")


class DimensionBudgetExceeded(DiagramError):
    code = "dimension_budget_exceeded"


class SizeMismatch(DiagramError):
    code = "size_mismatch"


# the two below are ValueErrors too, as these refusals were before they
# had codes of their own


class InvalidParameter(DiagramError, ValueError):
    """A tautological functor's dimension or quantum parameter is refused."""

    code = "invalid_parameter"


class NotAnIntegerPartition(DiagramError, ValueError):
    """Parts that are not integers, a negative part, or parts that rise."""

    code = "not_an_integer_partition"


class DiagramSyntaxError(DiagramError):
    """Parse failure in the diagram text grammar."""

    code = "syntax_error"

    def __init__(self, position, expected, text=""):
        self.position = position
        self.expected = expected
        self.text = text
        super().__init__(f"at position {position}: expected {expected}")
