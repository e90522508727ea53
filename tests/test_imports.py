"""A verb imports only the layer it runs.

``repro.eval`` and ``repro.eval.backends`` resolve their public names
on first use, so importing the Session API, running a paper experiment
on a ``dir:`` store or the CLI's ``run`` verb loads neither the queue,
the search and sweep layers nor the stdlib packages that only other
paths need (a process pool, the SQLite driver).  Nothing loads numpy,
``ctypes`` or the two modules ``repro.sim.batch`` and
``repro.sim.native``, which only the campaign benchmark imports.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

import repro
import repro.eval
import repro.eval.backends

#: modules that an experiment on a ``dir:`` store never needs.
UNNEEDED = (
    "concurrent.futures", "multiprocessing", "ctypes", "subprocess",
    "sqlite3", "uuid", "socket", "difflib",
    "repro.eval.queue", "repro.eval.search", "repro.eval.sweep",
    "repro.eval.evaluator", "repro.eval.scaling",
    "repro.sim.batch", "repro.sim.native", "numpy",
)

_PROBE = textwrap.dedent("""
    import json, sys

    UNNEEDED = {unneeded!r}
    loaded = {{}}

    def mark(point):
        loaded[point] = [m for m in UNNEEDED if m in sys.modules]

    import repro.eval.api
    mark("import repro.eval.api")

    from repro.eval.api import Session
    from repro.eval.experiments import default_config
    with Session(config=default_config(0.02), store={session_url!r},
                 jobs=1) as session:
        session.run("fig4")
    mark("Session.run('fig4') on dir:")

    from repro.eval.cli import main
    assert main(["run", "-e", "fig4", "--scale", "0.02",
                 "--out", {cli_url!r}]) == 0
    mark("repro-eval run on dir:")
    print(json.dumps(loaded))
""")


@pytest.mark.parametrize("package", [repro.eval, repro.eval.backends],
                         ids=lambda p: p.__name__)
class TestLazyPackage:
    def test_every_public_name_resolves(self, package):
        namespace = {}
        exec(f"from {package.__name__} import *", namespace)
        for name in package.__all__:
            value = getattr(package, name)
            assert namespace[name] is value, name

    def test_dir_lists_every_public_name(self, package):
        assert set(package.__all__) <= set(dir(package))

    def test_unknown_name_names_the_module(self, package):
        with pytest.raises(AttributeError,
                           match=rf"'{package.__name__}' has no attribute "
                                 rf"'no_such_name'"):
            package.no_such_name


def test_names_resolve_to_their_defining_module():
    from repro.eval import api, backends, queue, runner
    from repro.eval.backends import sqlite

    assert repro.eval.Session is api.Session
    assert repro.eval.run_cells is runner.run_cells
    assert repro.eval.run_worker is queue.run_worker
    assert repro.eval.QueueBackend is backends.QueueBackend \
        is sqlite.QueueBackend


def test_dir_experiment_loads_no_other_layer(tmp_path):
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    script = _PROBE.format(unneeded=UNNEEDED,
                           session_url=f"dir:{tmp_path / 'session'}",
                           cli_url=f"dir:{tmp_path / 'cli'}")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert len(loaded) == 3
    assert loaded == {point: [] for point in loaded}
