"""Exception hierarchy shared across the package."""


class LhsError(Exception):
    """Base class for all errors raised by this package."""


class InputError(LhsError):
    """Malformed input, or input outside the fragment an operation accepts."""


class FormulaSyntaxError(InputError):
    """Malformed concrete syntax; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SideViolation(LhsError):
    """A substitution value breaks the side-purity requirement."""


class NotClean(InputError):
    """Operation requires a clean formula."""


class ContainsI(InputError):
    """Operation is restricted to the I-free fragment."""


class ModalInput(InputError):
    """Operation requires a purely propositional formula."""


class UnknownState(InputError):
    """A state id is not declared in the ambient model."""


class ModelFormatError(InputError):
    """Model/tile/proof file does not conform to its schema."""


class ResourceGuard(LhsError):
    """A computation was refused because its size exceeds the ceiling."""


class InvalidTiling(InputError):
    """A periodic tiling breaks its wrap-around color constraints."""
