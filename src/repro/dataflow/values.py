"""Runtime value types carried in the data field of tokens.

Ordinary numbers and booleans are plain Python values.  Three special
types exist:

* :class:`~repro.istructure.heap.StructureRef` — a pointer into
  I-structure storage (re-exported here for convenience);
* :class:`FunctionRef` — a first-class procedure value, resolved by a
  dynamic ``CALL``;
* :class:`Continuation` — the return linkage a ``CALL`` sends to the
  callee's ``RETURN`` instruction: where (context, block, iteration) and to
  which arcs the result must be delivered.  ``Continuation.HALT`` marks the
  top-level call injected by the machine; a RETURN that consumes it ends
  the program.
"""

from dataclasses import dataclass, field
from typing import Optional, Tuple

__all__ = ["Continuation", "FunctionRef", "StructureRef"]

from ..istructure.heap import StructureRef  # noqa: F401  (re-export)
from ..graph.instruction import Destination
from .tags import Tag


@dataclass(frozen=True)
class FunctionRef:
    """A procedure as a value: just its code block name."""

    block: str

    def __repr__(self):
        return f"fn:{self.block}"


@dataclass(frozen=True)
class Continuation:
    """Return linkage for one procedure invocation."""

    context: Optional[Tag]
    code_block: str
    iteration: int
    dests: Tuple[Destination, ...] = field(default=())
    halt: bool = False

    def return_tags(self):
        """The (tag, port) pairs the result token(s) must be sent to."""
        return [
            (Tag(self.context, self.code_block, d.statement,
                 self.iteration), d.port)
            for d in self.dests
        ]

    def __repr__(self):
        if self.halt:
            return "⊥halt"
        arcs = ",".join(f"{d.statement}.{d.port}" for d in self.dests)
        return f"cont:{self.code_block}@i{self.iteration}->[{arcs}]"


#: The continuation of the whole program.
Continuation.HALT = Continuation(
    context=None, code_block="", iteration=1, dests=(), halt=True
)
