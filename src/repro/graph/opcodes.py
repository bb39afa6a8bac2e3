"""The instruction set of the tagged-token dataflow machine.

The paper (§2.2.1) divides the operators of a compiled graph into

* arithmetic / relational / conditional instructions "whose function should
  be self-evident",
* the *tag-manipulation* instructions ``D``, ``D⁻¹``, ``L`` and ``L⁻¹``
  which "provide proper entry, iteration, and exit by manipulating
  context-identifying information", and
* structure references, where "a SELECT operation becomes a FETCH
  instruction while an APPEND operation becomes a STORE instruction"
  (§2.2.4) directed at I-structure storage.

This module enumerates all opcodes, classifies them, and provides the pure
value semantics for the arithmetic/relational/logical group.  The impure
opcodes (tag manipulation, structure access, apply/return) are interpreted
by :mod:`repro.dataflow.exec_core`, which is shared by the untimed
reference interpreter and the timed machine.
"""

import enum
import math

from ..common.errors import GraphError

__all__ = [
    "Opcode",
    "OpcodeClass",
    "OPCODE_CLASS",
    "CLASS_COUNTER",
    "PURE_BINARY",
    "PURE_UNARY",
    "arity_of",
    "is_pure",
]


class Opcode(enum.Enum):
    """Every instruction the machine knows how to execute."""

    # -- pure binary arithmetic ---------------------------------------
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    MOD = "mod"
    POW = "pow"
    MIN = "min"
    MAX = "max"
    # -- pure binary relational ---------------------------------------
    LT = "lt"
    LE = "le"
    GT = "gt"
    GE = "ge"
    EQ = "eq"
    NE = "ne"
    # -- pure binary logical ------------------------------------------
    AND = "and"
    OR = "or"
    XOR = "xor"
    # -- pure unary -----------------------------------------------------
    NEG = "neg"
    NOT = "not"
    ABS = "abs"
    FLOOR = "floor"
    CEIL = "ceil"
    SQRT = "sqrt"
    EXP = "exp"
    LOG = "log"
    SIN = "sin"
    COS = "cos"
    IDENT = "ident"
    # -- control ---------------------------------------------------------
    CONSTANT = "constant"  # emits its literal when triggered (port 0)
    SWITCH = "switch"  # port 0 = data, port 1 = boolean control
    GATE = "gate"  # emits port 0 once port 1 (the trigger) arrives
    SINK = "sink"  # absorbs a token (explicitly discarded value)
    # -- tag manipulation (loop schema, Fig 2-2) -------------------------
    L = "l"  # loop entry: new loop context, iteration := 1
    D = "d"  # loop back edge: iteration := iteration + 1
    D_INV = "d_inv"  # canonicalize: iteration := 1
    L_INV = "l_inv"  # loop exit: restore the enclosing context
    # -- procedure linkage ------------------------------------------------
    CALL = "call"  # apply: new context, send args + continuation
    RETURN = "return"  # port 0 = result, port 1 = continuation
    # -- I-structure access (§2.1, §2.2.4) --------------------------------
    I_ALLOC = "i_alloc"  # port 0 = size -> structure reference
    I_FETCH = "i_fetch"  # port 0 = ref, port 1 = index (SELECT)
    I_STORE = "i_store"  # ports = ref, index, value (APPEND)


class OpcodeClass(enum.Enum):
    """Coarse classification used by the machine's dispatch and by stats."""

    PURE = "pure"  # value in, value out; executed entirely in the ALU
    CONTROL = "control"  # switch / gate / sink / constant
    TAG = "tag"  # D, D_INV, L, L_INV
    LINKAGE = "linkage"  # call / return
    STRUCTURE = "structure"  # I-structure traffic (d=1 tokens)


def _safe_div(a, b):
    if isinstance(a, int) and isinstance(b, int) and b != 0 and a % b == 0:
        return a // b
    return a / b


#: Value semantics for the two-operand pure opcodes.
PURE_BINARY = {
    Opcode.ADD: lambda a, b: a + b,
    Opcode.SUB: lambda a, b: a - b,
    Opcode.MUL: lambda a, b: a * b,
    Opcode.DIV: _safe_div,
    Opcode.MOD: lambda a, b: a % b,
    Opcode.POW: lambda a, b: a**b,
    Opcode.MIN: min,
    Opcode.MAX: max,
    Opcode.LT: lambda a, b: a < b,
    Opcode.LE: lambda a, b: a <= b,
    Opcode.GT: lambda a, b: a > b,
    Opcode.GE: lambda a, b: a >= b,
    Opcode.EQ: lambda a, b: a == b,
    Opcode.NE: lambda a, b: a != b,
    Opcode.AND: lambda a, b: bool(a) and bool(b),
    Opcode.OR: lambda a, b: bool(a) or bool(b),
    Opcode.XOR: lambda a, b: bool(a) != bool(b),
}

#: Value semantics for the one-operand pure opcodes.
PURE_UNARY = {
    Opcode.NEG: lambda a: -a,
    Opcode.NOT: lambda a: not a,
    Opcode.ABS: abs,
    Opcode.FLOOR: math.floor,
    Opcode.CEIL: math.ceil,
    Opcode.SQRT: math.sqrt,
    Opcode.EXP: math.exp,
    Opcode.LOG: math.log,
    Opcode.SIN: math.sin,
    Opcode.COS: math.cos,
    Opcode.IDENT: lambda a: a,
}

#: Natural operand count for each opcode, before immediate substitution.
_ARITY = {}
_ARITY.update({op: 2 for op in PURE_BINARY})
_ARITY.update({op: 1 for op in PURE_UNARY})
_ARITY.update(
    {
        Opcode.CONSTANT: 1,  # the trigger
        Opcode.SWITCH: 2,
        Opcode.GATE: 2,
        Opcode.SINK: 1,
        Opcode.L: 1,
        Opcode.D: 1,
        Opcode.D_INV: 1,
        Opcode.L_INV: 1,
        # CALL arity is the argument count and is instruction-specific.
        Opcode.RETURN: 2,
        Opcode.I_ALLOC: 1,
        Opcode.I_FETCH: 2,
        Opcode.I_STORE: 3,
    }
)

OPCODE_CLASS = {}
OPCODE_CLASS.update({op: OpcodeClass.PURE for op in PURE_BINARY})
OPCODE_CLASS.update({op: OpcodeClass.PURE for op in PURE_UNARY})
OPCODE_CLASS.update(
    {
        Opcode.CONSTANT: OpcodeClass.CONTROL,
        Opcode.SWITCH: OpcodeClass.CONTROL,
        Opcode.GATE: OpcodeClass.CONTROL,
        Opcode.SINK: OpcodeClass.CONTROL,
        Opcode.L: OpcodeClass.TAG,
        Opcode.D: OpcodeClass.TAG,
        Opcode.D_INV: OpcodeClass.TAG,
        Opcode.L_INV: OpcodeClass.TAG,
        Opcode.CALL: OpcodeClass.LINKAGE,
        Opcode.RETURN: OpcodeClass.LINKAGE,
        Opcode.I_ALLOC: OpcodeClass.STRUCTURE,
        Opcode.I_FETCH: OpcodeClass.STRUCTURE,
        Opcode.I_STORE: OpcodeClass.STRUCTURE,
    }
)

#: The per-class instruction counter each engine bumps on every firing
#: (``class_pure``, ``class_tag``, ...), built once so neither formats it.
CLASS_COUNTER = {op: f"class_{cls.value}" for op, cls in OPCODE_CLASS.items()}


def arity_of(opcode):
    """Natural operand count of ``opcode``.

    ``CALL`` has no fixed arity (one port per argument); asking for it is a
    programming error caught here.
    """
    if opcode is Opcode.CALL:
        raise GraphError("CALL arity is per-instruction (one port per argument)")
    return _ARITY[opcode]


def is_pure(opcode):
    """True when the opcode's result depends only on its operand values."""
    return OPCODE_CLASS[opcode] is OpcodeClass.PURE
