"""Shared exception types."""


class InternalConsistencyError(Exception):
    """An exact identity that must hold by construction failed.

    Raised when a cross-checked quantity (a division that must be exact, a
    character sum that must reduce to 0 or |H|, a re-sorted label that must
    stay admissible) comes out wrong.  Always indicates a bug, never bad
    user input.
    """


def listing_fault(listing: str, item, exc: ValueError) -> InternalConsistencyError:
    """The error for an item the program listed that fails its own check."""
    return InternalConsistencyError("%s listed %s: %s" % (listing, item, exc))


class CapabilityError(Exception):
    """The request is valid but exceeds the supported problem size."""
