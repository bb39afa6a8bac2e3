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


def assemble(source):
    """Assemble ``source`` text into a list of :class:`Instr`.

    A text is assembled in full once per process; from its second
    assembly on, its instructions come from a memo.  Single-use texts
    (the unrolled Cm*-style programs) are not kept.  Every call returns
    a fresh list, which the caller may mutate.
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
    lines = source.splitlines()
    statements = []  # (line_no, op, operand_strings)
    labels = {}
    for line_no, raw in enumerate(lines, start=1):
        text = raw.split(";", 1)[0].strip()
        while text:
            match = _LABEL_RE.match(text)
            if match:
                label, text = match.group(1), match.group(2).strip()
                if label in labels:
                    raise CompileError(f"duplicate label {label!r}", line=line_no)
                labels[label] = len(statements)
                continue
            break
        if not text:
            continue
        parts = text.split(None, 1)
        mnemonic = parts[0].lower()
        try:
            op = Op(mnemonic)
        except ValueError:
            raise CompileError(f"unknown mnemonic {mnemonic!r}", line=line_no)
        operands = []
        if len(parts) > 1:
            operands = [token.strip() for token in parts[1].split(",")]
        statements.append((line_no, op, operands))

    program = []
    for index, (line_no, op, operands) in enumerate(statements):
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
        for kind, text in zip(signature, operands):
            if kind == "r":
                match = _REG_RE.match(text)
                if not match:
                    raise CompileError(
                        f"expected register, got {text!r}", line=line_no
                    )
                regs.append(int(match.group(1)))
            elif kind == "i":
                try:
                    imm = int(text, 0)
                except ValueError:
                    raise CompileError(
                        f"expected immediate, got {text!r}", line=line_no
                    ) from None
            else:  # label
                label = text
        target = None
        if label is not None:
            if label not in labels:
                raise CompileError(f"undefined label {label!r}", line=line_no)
            target = labels[label]
        instr = _build(op, regs, imm, target, label)
        program.append(instr)
    return program


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
