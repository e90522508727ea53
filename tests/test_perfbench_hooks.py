"""The campaign benchmark's hooks into ``src/`` still resolve.

``perfbench/rep.py`` imports ``repro`` modules in its set-up phase and
builds each workload's config; ``perfbench/spans.py`` rebinds layer
entry points by name.  A rename or deletion under ``src/`` that one of
them still reaches should fail here, not only when the benchmark runs.
This reads ``perfbench/``; it changes nothing there.
"""

import ast
import os
import subprocess
import sys
import textwrap

import repro

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def _setup_imports() -> str:
    """The import statements of ``rep.main``, as source."""
    with open(os.path.join(PERFBENCH, "rep.py"), encoding="utf-8") as f:
        tree = ast.parse(f.read())
    (main,) = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "main"]
    imports = [node for node in ast.walk(main)
               if isinstance(node, (ast.Import, ast.ImportFrom))
               and node.col_offset == 4]
    assert imports, "rep.main imports nothing"
    return "\n".join(ast.unparse(node) for node in imports)


_PROBE = """
{imports}
import rep
import spans

for workload in rep.WORKLOADS:
    cfg = rep.base_config(workload, 0)
    assert cfg.seed == rep.sim_seed(workload, 0), workload
    rep.programs_needed(workload)
spans.install(spans.Tracer())
print("ok")
"""


def test_benchmark_setup_and_span_install_succeed():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (PERFBENCH, src, os.environ.get("PYTHONPATH")) if p))
    script = textwrap.dedent(_PROBE).format(imports=_setup_imports())
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          cwd=PERFBENCH, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"
