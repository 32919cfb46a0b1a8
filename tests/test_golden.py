"""The paper's tables are golden files.

``tests/golden/`` holds the 46 files ``python -m repro.bench all --scale
0.01 --out`` writes (``MANIFEST.json`` names the commit, Python and NumPy
they came from).  This test regenerates the fast experiments in-process
and compares their files byte for byte; ``make golden`` regenerates all
46, plus fig4 under ``--exact``.  A change that means to move a paper
number regenerates the files and names every changed table.
"""

import json
import os
from pathlib import Path

import pytest

from repro.bench import runner
from repro.core import artifactcache
from repro.gpusim.executor import get_default_engine, set_default_engine

GOLDEN = Path(__file__).parent / "golden"
#: the experiments that take a few seconds together at scale 0.01
FAST_EXPERIMENTS = ("fig2", "fig4", "fig7", "fig8", "table1", "ablations",
                    "baselines")


@pytest.fixture
def restore_process_defaults():
    """The runner sets the engine and the disk level process-wide."""
    saved_cache = artifactcache._cache
    saved_env = os.environ.get(artifactcache.ENV_VAR)
    saved_engine = get_default_engine()
    yield
    artifactcache._cache = saved_cache
    if saved_env is not None:
        os.environ[artifactcache.ENV_VAR] = saved_env
    set_default_engine(saved_engine)


def _golden_files(experiment: str) -> list[str]:
    return sorted(p.name for p in GOLDEN.iterdir()
                  if p.stem == experiment
                  or p.stem.rsplit("_", 1)[0] == experiment)


def test_manifest_counts_every_file():
    manifest = json.loads((GOLDEN / "MANIFEST.json").read_text())
    tables = [p for p in GOLDEN.iterdir() if p.name != "MANIFEST.json"]
    assert len(tables) == manifest["files"] == 46


def test_fast_experiments_match_golden_files(tmp_path, capsys,
                                             restore_process_defaults):
    code = runner.main([*FAST_EXPERIMENTS, "--scale", "0.01",
                        "--no-disk-cache", "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    expected = sorted(name for exp in FAST_EXPERIMENTS
                      for name in _golden_files(exp))
    assert written == expected
    assert len(written) == 32
    changed = [name for name in written
               if (tmp_path / name).read_bytes()
               != (GOLDEN / name).read_bytes()]
    assert not changed, f"tables differ from tests/golden/: {changed}"
