"""Exception types shared by the whole package."""

from __future__ import annotations


class NonevadeError(Exception):
    """Base class for every error raised by this package."""


# --- lattice construction and queries ---------------------------------------


class ParseError(NonevadeError):
    """Malformed lattice document or JSON payload."""


class CycleDetected(NonevadeError):
    """The cover/order relation contains a directed cycle."""


class NoUniqueBottom(NonevadeError):
    """The poset has zero or several minimal elements."""


class NoUniqueTop(NonevadeError):
    """The poset has zero or several maximal elements."""


class NotALattice(NonevadeError):
    """Some pair of elements has no unique meet.

    Only meets are checked, since a finite poset with a top and every meet
    is a lattice, so ``kind`` is always "meet"; ``witnesses`` holds the
    maximal common lower bounds of ``left`` and ``right``.
    """

    kind = "meet"

    def __init__(self, left, right, witnesses):
        self.left = left
        self.right = right
        self.witnesses = tuple(witnesses)
        super().__init__(
            f"no unique meet for {left!r} and {right!r}: candidates {sorted(self.witnesses)}"
        )


class UnknownElement(NonevadeError):
    """Referenced element label is not part of the lattice."""


class NotComparable(NonevadeError):
    """Interval endpoints are not ordered."""


class NotAnAtom(NonevadeError):
    """remove_atom called on an element that does not cover bottom."""


class UnknownFamily(NonevadeError):
    """generate() does not know the requested lattice family."""


class ParamOutOfRange(NonevadeError):
    """Generator parameter outside the supported range."""


# --- complexes ---------------------------------------------------------------


class EmptyInterior(NonevadeError):
    """Order complex requested for an empty vertex set."""


class UnknownVertex(NonevadeError):
    """Referenced vertex is not part of the complex."""


class EmptyLink(NonevadeError):
    """The vertex is isolated: its link has no faces."""


class LastVertex(NonevadeError):
    """Cannot delete the only vertex of a complex."""


class NotFreePair(NonevadeError):
    """A collapse step is not a free pair in the current complex.

    ``reason`` is one of "not-a-face", "multiple-cofaces", "wrong-coface".
    """

    def __init__(self, index, reason, detail=""):
        self.index = index
        self.reason = reason
        msg = f"collapse pair #{index} rejected: {reason}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class ReplayMismatch(NonevadeError):
    """Replay finished but the remaining complex is not the stated point."""


# --- certifier ---------------------------------------------------------------


class ElementOnBoundary(NonevadeError):
    """certify() needs an interior element, not bottom or top."""


class InternalAssertion(NonevadeError):
    """A condition the theory guarantees was found violated: a bug, not bad input."""

    def __init__(self, tag, detail=""):
        self.tag = tag
        msg = f"internal assertion failed [{tag}]"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class VerificationFailed(NonevadeError):
    """A certificate did not verify against the complex it was paired with."""


# --- oracles and game --------------------------------------------------------


class CapExceeded(NonevadeError):
    """Input larger than the configured brute-force cap."""


class GroundMismatch(NonevadeError):
    """Certificate vertex set does not match the supplied ground set."""
