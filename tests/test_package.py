"""Package-wide checks: every regression scenario passes, and the import stays light."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mcpen
from mcpen import repro

pytestmark = pytest.mark.filterwarnings("ignore:outer function evaluated")


@pytest.mark.parametrize("name", repro.list_scenarios())
def test_every_repro_scenario_passes(name):
    report = repro.run(name, seed=0)
    failed = [c for c in report["checks"] if not c["pass"]]
    assert report["checks"] and report["ok"], failed


def test_import_leaves_scipy_stats_out():
    # scipy.stats costs about half a second of `import mcpen`; the library
    # needs only scipy.optimize and scipy.sparse, for HiGHS.
    src = str(Path(mcpen.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, mcpen; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
