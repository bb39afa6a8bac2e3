"""The token: ``<d, PE, tag, nt, port, data>`` (§2.2.2).

``d`` classifies the token — "Other paths through the processing element
provide for the cases where an incoming token is destined for the
I-Structure Storage (d=1), or is destined for the PE Controller (d=2)"
(§2.2.3).  Normal data tokens are d=0.

``PE`` is computed from the tag via the machine's mapping policy when
the token is built, so the output section only reads it; ``nt`` is the
total operand count of the target instruction; ``port`` says which
operand this token carries.

Millions of tokens flow through a single experiment, so the class is a
plain ``__slots__`` record rather than a dataclass: construction is the
hot operation, and attribute access happens in every pipeline stage.
"""

import enum

__all__ = ["Token", "TokenKind"]


class TokenKind(enum.IntEnum):
    """The ``d`` field."""

    NORMAL = 0  # d=0: ordinary data token for the waiting-matching section
    STRUCTURE = 1  # d=1: I-structure FETCH/STORE request
    CONTROL = 2  # d=2: PE-controller traffic (allocation, management)


class Token:
    """One token in flight.  Treated as immutable by all machine code."""

    __slots__ = ("tag", "port", "data", "kind", "nt", "pe", "cause")

    def __init__(self, tag, port, data, kind=TokenKind.NORMAL, nt=1, pe=None,
                 cause=None):
        self.tag = tag
        self.port = port
        self.data = data
        self.kind = kind
        self.nt = nt
        self.pe = pe
        # Provenance: eid of the trace event that produced this token.  Only
        # populated when the machine's bus runs with provenance=True;
        # excluded from repr so trace detail strings stay byte-compatible.
        self.cause = cause

    @property
    def needs_partner(self):
        """True when the waiting-matching section must pair this token."""
        return self.kind is TokenKind.NORMAL and self.nt >= 2

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not Token:
            return NotImplemented
        return (
            self.tag == other.tag
            and self.port == other.port
            and self.data == other.data
            and self.kind == other.kind
            and self.nt == other.nt
            and self.pe == other.pe
            and self.cause == other.cause
        )

    def __ne__(self, other):
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self):
        return hash((self.tag, self.port, self.data, self.kind, self.nt,
                     self.pe, self.cause))

    def __repr__(self):
        return (
            f"<d={int(self.kind)},PE={self.pe},{self.tag!r},"
            f"nt={self.nt},p{self.port},{self.data!r}>"
        )
