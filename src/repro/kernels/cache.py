"""In-process compiled-program memo.

Compiling a kernel (unroll, cluster-assign, schedule, allocate) is the
most expensive non-simulation step of every experiment, and the same
twelve Table 1 programs are needed by table1, fig4, fig6 and fig10
alike.  :class:`ProgramCache` memoizes compiled
:class:`~repro.compiler.program.VLIWProgram` objects in a dictionary
keyed by the kernel and the :func:`identity` of the machine and the
compiler options, so each program is compiled at most once per
process.  A grid or a queue drain looks each of its programs up here
once (:class:`~repro.eval.runner.ProgramSet`), and the parallel grid
runner does so in the parent before forking, so forked workers inherit
the resolved programs.
"""

from __future__ import annotations

import dataclasses
import enum
import json

from repro.compiler.options import CompilerOptions
from repro.compiler.pipeline import compile_kernel

__all__ = ["ProgramCache", "cache_key", "get_default_cache", "identity"]


def identity(obj):
    """JSON-able identity of a frozen dataclass: every field, walked
    recursively, with enum values and dict keys written by name.

    Machines, compiler options and simulation configs are all named
    this way (program-cache keys, run-store fingerprints), so a field a
    later change adds is part of every identity without listing it.  A
    field declared with ``metadata={"identity": False}`` is left out.
    """
    if isinstance(obj, enum.Enum):
        return obj.name
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if dataclasses.is_dataclass(obj):
        return {f.name: identity(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
                if f.metadata.get("identity", True)}
    if isinstance(obj, dict):
        return {str(identity(k)): identity(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [identity(v) for v in obj]
    raise TypeError(f"no identity for {type(obj).__name__} {obj!r}")


def cache_key(spec, machine, options: CompilerOptions) -> tuple:
    """Key identifying one (kernel, machine, options) build."""
    return (
        f"kernel={spec.name}|class={spec.ilp_class}"
        f"|hints={sorted(spec.unroll.items())}",
        json.dumps([identity(machine), identity(options)], sort_keys=True),
    )


class ProgramCache:
    """In-memory compiled-program memo."""

    def __init__(self):
        self._memory: dict = {}
        self.compiles = 0
        self.memory_hits = 0

    def get(self, spec, machine, options: CompilerOptions | None = None):
        """Compiled program for ``spec`` — compiled at most once per key."""
        options = options or CompilerOptions()
        key = cache_key(spec, machine, options)
        prog = self._memory.get(key)
        if prog is not None:
            self.memory_hits += 1
            return prog
        prog = compile_kernel(spec.build(), machine, options,
                              unroll_hints=dict(spec.unroll))
        self.compiles += 1
        self._memory[key] = prog
        return prog


#: the process-wide cache every ``compile_spec`` call routes through.
_default_cache = ProgramCache()


def get_default_cache() -> ProgramCache:
    return _default_cache
