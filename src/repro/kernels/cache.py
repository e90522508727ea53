"""In-process compiled-program memo.

Compiling a kernel (unroll, cluster-assign, schedule, allocate) is the
most expensive non-simulation step of every experiment, and the same
twelve Table 1 programs are needed by table1, fig4, fig6 and fig10
alike.  :class:`ProgramCache` memoizes compiled
:class:`~repro.compiler.program.VLIWProgram` objects in a dictionary
keyed by kernel, machine and compiler-options fingerprints, so each
program is compiled at most once per process.  The parallel grid runner
compiles every program of a grid in the parent before forking, so
forked workers inherit the warm memo.
"""

from __future__ import annotations

from repro.compiler.options import CompilerOptions
from repro.compiler.pipeline import compile_kernel

__all__ = ["ProgramCache", "cache_key", "get_default_cache"]


def machine_fingerprint(machine) -> str:
    """Stable textual identity of a machine description."""
    lat = ",".join(f"{k.name}={v}" for k, v in sorted(
        machine.latency.items(), key=lambda kv: kv[0].name))
    return (
        f"{machine.name}|c={machine.n_clusters}|{machine.cluster}"
        f"|lat[{lat}]|xfer={machine.xfer_latency}"
        f"|tbp={machine.taken_branch_penalty}|regs={machine.regs_per_cluster}"
    )


def options_fingerprint(options: CompilerOptions) -> str:
    return (
        f"unroll={sorted(options.unroll.items())}"
        f"|scale={options.unroll_scale}|iv={options.iv_split}"
        f"|spec={options.speculate}|policy={options.cluster_policy}"
        f"|dce={options.dce}|maxbr={options.max_branches_per_instr}"
    )


def cache_key(spec, machine, options: CompilerOptions) -> tuple:
    """Key identifying one (kernel, machine, options) build."""
    return (
        f"kernel={spec.name}|class={spec.ilp_class}"
        f"|hints={sorted(spec.unroll.items())}",
        machine_fingerprint(machine),
        options_fingerprint(options),
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
