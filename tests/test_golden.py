"""Golden regression corpus: the paper artifacts, byte-for-byte.

``tests/golden/`` checks in the JSON artifacts of every simulation-heavy
experiment at a tiny scale.  This suite re-runs each of them under
*every* engine and compares the serialized result byte-for-byte against
the corpus — the net that catches any engine, runner, scheme or
statistics refactor that shifts a single reported value (or merely the
JSON formatting).  Intentional changes regenerate the corpus with
``python tests/golden/regen.py`` and review the diff.
"""

import importlib.util
import os

import pytest

from repro.eval import Session, default_config, merge_runs

_REGEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "regen.py")
_spec = importlib.util.spec_from_file_location("golden_regen", _REGEN_PATH)
golden_regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_regen)

GOLDEN_SCALE = golden_regen.GOLDEN_SCALE
GOLDEN_EXPERIMENTS = golden_regen.GOLDEN_EXPERIMENTS


def _golden_bytes(name: str) -> str:
    with open(golden_regen.golden_path(name)) as f:
        return f.read()


class TestCorpusFiles:
    def test_every_pinned_artifact_is_checked_in(self):
        for name in GOLDEN_EXPERIMENTS:
            assert os.path.exists(golden_regen.golden_path(name)), name

    def test_corpus_covers_every_simulating_experiment(self):
        """New grid experiments must either join the corpus or be
        explicitly excluded here (fig11/fig12 are joins of fig10)."""
        from repro.eval import SIM_EXPERIMENTS

        derived = {"fig11", "fig12"}  # deterministic joins of fig10
        assert set(GOLDEN_EXPERIMENTS) == SIM_EXPERIMENTS - derived


@pytest.mark.parametrize("engine", ["fast", "reference"])
@pytest.mark.parametrize("name", GOLDEN_EXPERIMENTS)
def test_artifact_matches_golden_bytes(name, engine):
    config = default_config(GOLDEN_SCALE, engine=engine)
    result = Session(config=config).run(name)
    assert result.to_json() == _golden_bytes(name), (
        f"{name} ({engine} engine) drifted from tests/golden/{name}.json; "
        f"if the change is intentional, regenerate with "
        f"`python tests/golden/regen.py` and review the diff"
    )


class TestSessionAndBackends:
    """The corpus must reproduce through the Session API under both
    store backends — simulated once into a directory store, then merged
    into SQLite and reassembled with zero new simulations."""

    @pytest.fixture(scope="class")
    def dir_store(self, tmp_path_factory):
        return str(tmp_path_factory.mktemp("golden") / "run")

    @pytest.fixture(scope="class")
    def dir_session(self, dir_store):
        session = Session(config=default_config(GOLDEN_SCALE),
                          store=dir_store)
        session.run_all(GOLDEN_EXPERIMENTS)
        return session

    @pytest.fixture(scope="class")
    def sqlite_session(self, dir_session, dir_store, tmp_path_factory):
        url = f"sqlite:{tmp_path_factory.mktemp('golden-sq') / 'run.db'}"
        merge_runs(url, [dir_store])
        return Session(config=default_config(GOLDEN_SCALE), store=url)

    @pytest.mark.parametrize("name", GOLDEN_EXPERIMENTS)
    def test_directory_backed_session_matches_golden(self, dir_session,
                                                     name):
        assert dir_session.run(name).to_json() == _golden_bytes(name)

    @pytest.mark.parametrize("name", GOLDEN_EXPERIMENTS)
    def test_sqlite_backed_session_matches_golden(self, sqlite_session,
                                                  name):
        result = sqlite_session.run(name)
        assert sqlite_session.last_grid is None \
            or sqlite_session.last_grid.executed == 0
        assert result.to_json() == _golden_bytes(name)
