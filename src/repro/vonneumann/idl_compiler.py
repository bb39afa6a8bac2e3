"""A sequential (von Neumann) backend for the Id-like language.

The experiments compare architectures on "the same program"; this
compiler makes that literal: the *same source file* that the dataflow
front end turns into a token graph is compiled here into assembly for
the stalling in-order processor.  Loops become branches around a program
counter, variables become registers, arrays become plain memory through a
bump allocator — the von Neumann idiom the paper describes, with none of
the dataflow machinery (no presence bits: sequential execution orders
every read after its write by construction).

Supported: arithmetic/comparison/boolean expressions, ``let``,
``if/then/else``, ``for``/``while`` loops with ``new`` updates and
element stores, indexing, ``array(n)``, ``abs``/``min``/``max``/``floor``
builtins, and *non-recursive* procedure calls (inlined).  Unsupported —
by the nature of the target, not an accident: recursion (no stack on this
simple machine) and the floating-point transcendentals.  ``%``, ``/`` and
comparisons follow the integer semantics of the ISA.

Conventions: entry parameters arrive in registers r2, r3, ...; the result
is stored to memory address :data:`RESULT_ADDR`; the heap pointer lives
in a compiler-managed register.
"""

import itertools

from ..common.errors import CompileError
from ..lang.ast_nodes import (
    ArrayAlloc,
    BinOp,
    Call,
    If,
    Index,
    Let,
    Literal,
    Loop,
    UnOp,
    Var,
)
from ..lang.parser import parse

__all__ = ["compile_to_assembly", "RESULT_ADDR", "HEAP_BASE"]

#: The entry procedure's result is stored here before HALT.
RESULT_ADDR = 1
#: First address handed out by the bump allocator.
HEAP_BASE = 4096

_BINOP_OPS = {
    "+": "add", "-": "sub", "*": "mul", "/": "div", "%": "mod",
    "<": "slt", "<=": "sle", ">": None, ">=": None, "==": "seq",
    "!=": "sne", "and": "and", "or": "or",
}

_UNSUPPORTED_BUILTINS = frozenset(
    {"sqrt", "exp", "log", "sin", "cos", "ceil"}
)


class _Emitter:
    def __init__(self):
        self.lines = []
        self._labels = itertools.count()

    def emit(self, text):
        self.lines.append(f"    {text}")

    def label(self, name):
        self.lines.append(f"{name}:")

    def fresh(self, stem):
        return f"{stem}_{next(self._labels)}"

    def text(self):
        return "\n".join(self.lines) + "\n"


class _Registers:
    """A bump allocator over the register file (no spilling)."""

    def __init__(self, first=2, limit=250):
        self.next = first
        self.limit = limit

    def take(self):
        if self.next >= self.limit:
            raise CompileError(
                "expression too deep for the sequential backend's "
                "register file"
            )
        reg = self.next
        self.next += 1
        return reg

    def mark(self):
        return self.next

    def release_to(self, mark):
        self.next = mark


class _SeqCompiler:
    def __init__(self, ast_program, entry):
        self.defs = {d.name: d for d in ast_program.defs}
        if entry not in self.defs:
            raise CompileError(f"no definition named {entry!r}")
        self.entry = entry
        self.out = _Emitter()
        self.regs = _Registers()
        self._call_stack = []
        self.heap_reg = None

    # ------------------------------------------------------------------
    def compile(self):
        definition = self.defs[self.entry]
        env = {}
        for param in definition.params:
            env[param] = self.regs.take()  # r2, r3, ... by convention
        self.heap_reg = self.regs.take()
        self.out.emit(f"movi r{self.heap_reg}, {HEAP_BASE}")
        result = self._expr(definition.body, env)
        address = self.regs.take()
        self.out.emit(f"movi r{address}, {RESULT_ADDR}")
        self.out.emit(f"store r{result}, r{address}, 0")
        self.out.emit("halt")
        return self.out.text()

    # ------------------------------------------------------------------
    def _expr(self, node, env):
        """Compile ``node``; returns the register holding its value."""
        if isinstance(node, Literal):
            reg = self.regs.take()
            value = node.value
            if isinstance(value, bool):
                value = int(value)
            if not isinstance(value, int):
                raise CompileError(
                    f"the sequential backend is integer-only, got {value!r}",
                    line=node.line,
                )
            self.out.emit(f"movi r{reg}, {value}")
            return reg
        if isinstance(node, Var):
            if node.name not in env:
                raise CompileError(f"undefined variable {node.name!r}",
                                   line=node.line)
            return env[node.name]
        if isinstance(node, BinOp):
            return self._binop(node, env)
        if isinstance(node, UnOp):
            return self._unop(node, env)
        if isinstance(node, If):
            return self._if(node, env)
        if isinstance(node, Let):
            inner = dict(env)
            for name, expr in node.bindings:
                inner[name] = self._expr(expr, inner)
            return self._expr(node.body, inner)
        if isinstance(node, Call):
            return self._call(node, env)
        if isinstance(node, ArrayAlloc):
            return self._alloc(node, env)
        if isinstance(node, Index):
            return self._index(node, env)
        if isinstance(node, Loop):
            return self._loop(node, env)
        raise CompileError(f"cannot compile {node!r}", line=node.line)

    def _binop(self, node, env):
        op = node.op
        left = self._expr(node.left, env)
        right = self._expr(node.right, env)
        reg = self.regs.take()
        if op == ">":
            self.out.emit(f"slt r{reg}, r{right}, r{left}")
        elif op == ">=":
            self.out.emit(f"sle r{reg}, r{right}, r{left}")
        elif op == "**":
            raise CompileError("'**' unsupported on the sequential backend",
                               line=node.line)
        else:
            mnemonic = _BINOP_OPS.get(op)
            if mnemonic is None:
                raise CompileError(f"unknown operator {op!r}", line=node.line)
            self.out.emit(f"{mnemonic} r{reg}, r{left}, r{right}")
        return reg

    def _unop(self, node, env):
        value = self._expr(node.operand, env)
        reg = self.regs.take()
        if node.op == "-":
            zero = self.regs.take()
            self.out.emit(f"movi r{zero}, 0")
            self.out.emit(f"sub r{reg}, r{zero}, r{value}")
        else:  # not: compare against a known zero
            zero = self.regs.take()
            self.out.emit(f"movi r{zero}, 0")
            self.out.emit(f"seq r{reg}, r{value}, r{zero}")
        return reg

    def _if(self, node, env):
        cond = self._expr(node.cond, env)
        reg = self.regs.take()
        else_label = self.out.fresh("else")
        end_label = self.out.fresh("endif")
        self.out.emit(f"beqz r{cond}, {else_label}")
        mark = self.regs.mark()
        then_value = self._expr(node.then, env)
        self.out.emit(f"mov r{reg}, r{then_value}")
        self.out.emit(f"jmp {end_label}")
        self.regs.release_to(mark)
        self.out.label(else_label)
        else_value = self._expr(node.orelse, env)
        self.out.emit(f"mov r{reg}, r{else_value}")
        self.regs.release_to(mark)
        self.out.label(end_label)
        return reg

    def _call(self, node, env):
        name = node.func
        if name in self.defs:
            if name in self._call_stack:
                raise CompileError(
                    f"recursive call to {name!r}: the sequential backend "
                    "has no call stack (use a loop)",
                    line=node.line,
                )
            definition = self.defs[name]
            if len(node.args) != len(definition.params):
                raise CompileError(
                    f"{name} takes {len(definition.params)} args",
                    line=node.line,
                )
            inner_env = {}
            for param, arg in zip(definition.params, node.args):
                value = self._expr(arg, env)
                # Copy into a fresh register so the callee body cannot
                # clobber a shared register through rebinding.
                reg = self.regs.take()
                self.out.emit(f"mov r{reg}, r{value}")
                inner_env[param] = reg
            self._call_stack.append(name)
            result = self._expr(definition.body, inner_env)
            self._call_stack.pop()
            return result
        if name in ("min", "max"):
            if len(node.args) != 2:
                raise CompileError(f"{name} takes 2 arguments",
                                   line=node.line)
            a = self._expr(node.args[0], env)
            b = self._expr(node.args[1], env)
            reg = self.regs.take()
            keep_a = self.out.fresh(f"{name}_a")
            done = self.out.fresh(f"{name}_done")
            branch = "blt" if name == "min" else "bge"
            self.out.emit(f"{branch} r{a}, r{b}, {keep_a}")
            self.out.emit(f"mov r{reg}, r{b}")
            self.out.emit(f"jmp {done}")
            self.out.label(keep_a)
            self.out.emit(f"mov r{reg}, r{a}")
            self.out.label(done)
            return reg
        if name == "abs":
            value = self._expr(node.args[0], env)
            reg = self.regs.take()
            positive = self.out.fresh("abs_pos")
            self.out.emit(f"mov r{reg}, r{value}")
            zero = self.regs.take()
            self.out.emit(f"movi r{zero}, 0")
            self.out.emit(f"bge r{reg}, r{zero}, {positive}")
            self.out.emit(f"sub r{reg}, r{zero}, r{value}")
            self.out.label(positive)
            return reg
        if name == "floor":
            return self._expr(node.args[0], env)  # integers already
        if name in _UNSUPPORTED_BUILTINS:
            raise CompileError(
                f"{name} unsupported on the integer sequential backend",
                line=node.line,
            )
        raise CompileError(f"unknown function {name!r}", line=node.line)

    def _alloc(self, node, env):
        size = self._expr(node.size, env)
        reg = self.regs.take()
        self.out.emit(f"mov r{reg}, r{self.heap_reg}")
        self.out.emit(f"add r{self.heap_reg}, r{self.heap_reg}, r{size}")
        return reg

    def _index(self, node, env):
        base = self._expr(node.array, env)
        index = self._expr(node.index, env)
        address = self.regs.take()
        self.out.emit(f"add r{address}, r{base}, r{index}")
        reg = self.regs.take()
        self.out.emit(f"load r{reg}, r{address}, 0")
        return reg

    def _loop(self, node, env):
        bindings = list(node.initial)
        updates = dict(node.updates)
        if node.index is not None:
            bindings.insert(0, (node.index, node.lo))
            hi_reg = self._expr(node.hi, env)
        # Circulating variables get stable registers.
        loop_env = dict(env)
        var_regs = {}
        for name, expr in bindings:
            value = self._expr(expr, env)
            reg = self.regs.take()
            self.out.emit(f"mov r{reg}, r{value}")
            var_regs[name] = reg
            loop_env[name] = reg

        top = self.out.fresh("loop")
        exit_label = self.out.fresh("exit")
        self.out.label(top)
        mark = self.regs.mark()
        if node.index is not None:
            index_reg = var_regs[node.index]
            # for-form: continue while index <= hi
            cond = self.regs.take()
            self.out.emit(f"sle r{cond}, r{index_reg}, r{hi_reg}")
        else:
            cond = self._expr(node.cond, loop_env)
        self.out.emit(f"beqz r{cond}, {exit_label}")

        # Element stores (use current values).
        for store in node.stores:
            base = self._expr(store.array, loop_env)
            index = self._expr(store.index, loop_env)
            value = self._expr(store.value, loop_env)
            address = self.regs.take()
            self.out.emit(f"add r{address}, r{base}, r{index}")
            self.out.emit(f"store r{value}, r{address}, 0")

        # Parallel 'new' semantics: compute all nexts into temporaries,
        # then commit — a bare variable reference must be *copied*, or an
        # earlier commit would clobber it (new a <- b; new b <- a).
        staged = []
        for name, expr in updates.items():
            value = self._expr(expr, loop_env)
            tmp = self.regs.take()
            self.out.emit(f"mov r{tmp}, r{value}")
            staged.append((name, tmp))
        if node.index is not None and node.index not in updates:
            one = self.regs.take()
            self.out.emit(f"movi r{one}, 1")
            nxt = self.regs.take()
            self.out.emit(f"add r{nxt}, r{var_regs[node.index]}, r{one}")
            staged.append((node.index, nxt))
        for name, reg in staged:
            self.out.emit(f"mov r{var_regs[name]}, r{reg}")
        self.regs.release_to(mark)
        self.out.emit(f"jmp {top}")
        self.out.label(exit_label)
        result = self._expr(node.result, loop_env)
        return result


def run_sequential(source, args, entry=None, latency=1.0, memory_time=1.0,
                   cpu_time=1.0, trace_bus=None, return_machine=False):
    """Compile and execute on a single stalling processor.

    Returns ``(value, VNResult)`` — the fair von Neumann comparator for a
    dataflow run of the same source.  ``trace_bus`` forwards to
    :class:`VNMachine` for structured observability.  With
    ``return_machine`` the tuple gains the :class:`VNMachine` itself, so
    profilers can read per-processor cycle accounting after the run.
    """
    from .machine import VNMachine

    text, param_regs = compile_to_assembly(source, entry=entry)
    if len(args) != len(param_regs):
        raise CompileError(
            f"entry takes {len(param_regs)} arguments, got {len(args)}"
        )
    machine = VNMachine(1, memory="dancehall", latency=latency,
                        memory_time=memory_time, cpu_time=cpu_time,
                        trace_bus=trace_bus)
    processor = machine.add_processor(text, regs=dict(zip(param_regs, args)))
    # Expression-deep programs need a wider register file than the
    # architectural 32; the simulator indulges us.
    processor.regs = processor.regs + [0] * (256 - len(processor.regs))
    processor.set_regs(dict(zip(param_regs, args)))
    result = machine.run()
    if return_machine:
        return machine.peek(RESULT_ADDR), result, machine
    return machine.peek(RESULT_ADDR), result


def compile_to_assembly(source, entry=None):
    """Compile Id-like ``source`` to assembly for the stalling processor.

    Returns ``(assembly_text, param_registers)`` — the runner must place
    the entry arguments in ``param_registers`` (r2, r3, ... by
    convention) and will find the result at memory ``RESULT_ADDR``.
    """
    ast_program = parse(source)
    entry_name = entry if entry is not None else ast_program.defs[0].name
    compiler = _SeqCompiler(ast_program, entry_name)
    text = compiler.compile()
    n_params = len(compiler.defs[entry_name].params)
    return text, list(range(2, 2 + n_params))
