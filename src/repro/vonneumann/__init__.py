"""Von Neumann multiprocessor baselines (S8/S9 in DESIGN.md).

The machines the paper critiques, built to be measured: a RISC-like ISA
and assembler, in-order processors that stall on memory, private caches
with snoopy MSI coherence over an atomic bus, interleaved memory modules
behind a packet network, atomic TEST-AND-SET / FETCH-AND-ADD, HEP-style
full/empty bits with busy-wait retry, and a multithreaded (fixed-context)
processor for the low-level context-switching discussion of §1.1.
"""

from .assembler import assemble
from .cache import Cache, CacheConfig, CacheState
from .coherence import SnoopyBusSystem
from .isa import ALU_OPS, BRANCH_OPS, Instr, MEMORY_OPS, Op
from .machine import VNMachine, VNResult
from .memory import DancehallMemorySystem, MemRequest, MemoryModule, RETRY
from .multithreaded import HardwareContext, MultithreadedProcessor
from .processor import Processor, decode
from . import programs, sync

__all__ = [
    "ALU_OPS",
    "BRANCH_OPS",
    "Cache",
    "CacheConfig",
    "CacheState",
    "DancehallMemorySystem",
    "HardwareContext",
    "Instr",
    "MEMORY_OPS",
    "MemRequest",
    "MemoryModule",
    "MultithreadedProcessor",
    "Op",
    "Processor",
    "RESULT_ADDR",
    "RETRY",
    "SnoopyBusSystem",
    "VNMachine",
    "VNResult",
    "assemble",
    "compile_to_assembly",
    "decode",
    "run_sequential",
    "programs",
    "sync",
]

#: Served on first access, so that importing the machines does not load
#: the Id compiler (``repro.lang``) with them.
_LAZY = frozenset({"RESULT_ADDR", "compile_to_assembly", "run_sequential"})


def __getattr__(name):
    if name in _LAZY:
        from . import idl_compiler

        return getattr(idl_compiler, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
