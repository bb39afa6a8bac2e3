"""A two-pass assembler for the von Neumann baseline processors.

Syntax, one instruction per line::

    ; comments run to end of line
    start:  movi r1, 0          ; labels end with ':'
    loop:   addi r1, r1, 1
            load r2, r3, 8      ; r2 <- mem[r3 + 8]
            store r2, r3, 0     ; mem[r3 + 0] <- r2
            faa  r2, r4, r5     ; r2 <- mem[r4]; mem[r4] += r5   (atomic)
            blt  r1, r6, loop
            halt

Register operands are ``rN``; immediates are decimal integers; branch
targets are labels.

Assembly is host work only, memoized at two grains.  A whole text seen
twice is kept as its instruction tuple.  Below that, every statement
that parses is kept by its text (label and comment stripped): its
parsed operands, and the finished :class:`Instr` when it names no
label.  The unrolled Cm* kernels, one text per processor and cell,
repeat the same few hundred statements, so each is parsed once per
process.  Label targets and every error are still resolved per
program, at the line where they occur.
"""

import re

from ..common.errors import CompileError
from .isa import Instr, Op

__all__ = ["assemble"]

_LABEL_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*:\s*(.*)$")
_REG_RE = re.compile(r"^r(\d+)$")

# operand signatures per op: r = register, i = immediate, l = label
_SIGNATURES = {
    Op.MOVI: "ri",
    Op.MOV: "rr",
    Op.ADD: "rrr", Op.SUB: "rrr", Op.MUL: "rrr", Op.DIV: "rrr",
    Op.MOD: "rrr", Op.AND: "rrr", Op.OR: "rrr", Op.XOR: "rrr",
    Op.SLT: "rrr", Op.SLE: "rrr", Op.SEQ: "rrr", Op.SNE: "rrr",
    Op.ADDI: "rri", Op.SUBI: "rri", Op.MULI: "rri",
    Op.LOAD: "rri", Op.STORE: "rri",
    Op.TESTSET: "rri", Op.FAA: "rrr",
    Op.READF: "rri", Op.WRITEF: "rri",
    Op.BEQZ: "rl", Op.BNEZ: "rl",
    Op.BLT: "rrl", Op.BGE: "rrl", Op.BEQ: "rrl", Op.BNE: "rrl",
    Op.JMP: "l",
    Op.NOP: "", Op.HALT: "",
}


#: source text -> tuple of Instrs, for texts assembled at least twice.
_ASSEMBLED = {}
_ASSEMBLED_MAX = 1 << 9
#: hash(text) of texts assembled once so far.  It decides admission only:
#: a collision admits one text early, it never returns the wrong program.
_SEEN_ONCE = set()
_SEEN_ONCE_MAX = 1 << 12
#: statement text (label and comment stripped) -> (op, regs, imm, label,
#: instr), for every statement that parsed; ``instr`` is the finished
#: Instr when the statement names no label, else None (its target is
#: per program).
_STATEMENTS = {}
_STATEMENTS_MAX = 1 << 12


def assemble(source):
    """Assemble ``source`` text into a list of :class:`Instr`.

    A text is assembled in full once per process; from its second
    assembly on, its instructions come from a memo.  Single-use texts
    (the unrolled Cm*-style programs) are not kept whole, but each of
    their statements is parsed once per process: a statement seen
    before costs a memo lookup, plus its label target if it names one.
    Every call returns a fresh list, which the caller may mutate.
    """
    program = _ASSEMBLED.get(source)
    if program is not None:
        return list(program)
    program = _assemble(source)
    seen = hash(source)
    if seen in _SEEN_ONCE:
        _SEEN_ONCE.discard(seen)
        if len(_ASSEMBLED) >= _ASSEMBLED_MAX:
            _ASSEMBLED.clear()
        _ASSEMBLED[source] = tuple(program)
    else:
        if len(_SEEN_ONCE) >= _SEEN_ONCE_MAX:
            _SEEN_ONCE.clear()
        _SEEN_ONCE.add(seen)
    return program


def _assemble(source):
    # Pass 1 places the labels and checks the mnemonics; pass 2 parses
    # the operands and resolves the targets.  A memoized statement skips
    # both parses, and one that is not is parsed in the same pass as on
    # an empty memo, so every error is raised in the same order and at
    # the same line either way.
    statements = []  # (line_no, text, memo entry or op)
    labels = {}
    memo = _STATEMENTS
    for line_no, raw in enumerate(source.splitlines(), start=1):
        text = raw.split(";", 1)[0].strip()
        while ":" in text:
            match = _LABEL_RE.match(text)
            if match is None:
                break
            label, text = match.group(1), match.group(2).strip()
            if label in labels:
                raise CompileError(f"duplicate label {label!r}", line=line_no)
            labels[label] = len(statements)
        if not text:
            continue
        entry = memo.get(text)
        if entry is None:
            mnemonic = text.split(None, 1)[0].lower()
            try:
                entry = Op(mnemonic)
            except ValueError:
                raise CompileError(f"unknown mnemonic {mnemonic!r}",
                                   line=line_no)
        statements.append((line_no, text, entry))

    program = []
    for line_no, text, entry in statements:
        if entry.__class__ is Op:
            entry = memo.get(text) or _parse(entry, text, line_no)
        op, regs, imm, label, instr = entry
        if instr is None:
            if label not in labels:
                raise CompileError(f"undefined label {label!r}", line=line_no)
            instr = _build(op, regs, imm, labels[label], label)
        program.append(instr)
    return program


def _parse(op, text, line_no):
    """Parse statement ``text`` (mnemonic ``op``) into its memo entry
    and memoize it; a statement that does not parse raises CompileError
    at ``line_no`` and is not kept."""
    parts = text.split(None, 1)
    operands = []
    if len(parts) > 1:
        operands = [token.strip() for token in parts[1].split(",")]
    signature = _SIGNATURES[op]
    if len(operands) != len(signature):
        raise CompileError(
            f"{op.value} expects {len(signature)} operands, "
            f"got {len(operands)}",
            line=line_no,
        )
    regs = []
    imm = None
    label = None
    for kind, operand in zip(signature, operands):
        if kind == "r":
            match = _REG_RE.match(operand)
            if not match:
                raise CompileError(
                    f"expected register, got {operand!r}", line=line_no
                )
            regs.append(int(match.group(1)))
        elif kind == "i":
            try:
                imm = int(operand, 0)
            except ValueError:
                raise CompileError(
                    f"expected immediate, got {operand!r}", line=line_no
                ) from None
        else:  # label
            label = operand
    regs = tuple(regs)
    instr = None if label is not None else _build(op, regs, imm, None, None)
    if len(_STATEMENTS) >= _STATEMENTS_MAX:
        _STATEMENTS.clear()
    entry = _STATEMENTS[text] = (op, regs, imm, label, instr)
    return entry


def _build(op, regs, imm, target, label):
    rd = ra = rb = None
    if op in (Op.BEQZ, Op.BNEZ):
        ra = regs[0]
    elif op in (Op.BLT, Op.BGE, Op.BEQ, Op.BNE):
        ra, rb = regs
    elif op is Op.STORE or op is Op.WRITEF:
        # store rS, rA, off : value register first, then address base
        rd, ra = regs
    elif op is Op.FAA:
        rd, ra, rb = regs
    elif len(regs) == 3:
        rd, ra, rb = regs
    elif len(regs) == 2:
        rd, ra = regs
    elif len(regs) == 1:
        rd = regs[0]
    return Instr(op=op, rd=rd, ra=ra, rb=rb, imm=imm, target=target, label=label)
