"""Package-wide checks: every regression scenario passes, the import stays light, the tracer fits."""

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


def _run(code: str, *args: str) -> str:
    """stdout of ``code`` run by a fresh interpreter that imports this checkout's mcpen."""
    src = str(Path(mcpen.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.strip()


def test_import_leaves_scipy_stats_out():
    # scipy.stats costs about half a second of `import mcpen`; the library
    # needs only scipy.optimize and scipy.sparse, for HiGHS.
    code = "import sys, mcpen; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    assert _run(code) == "[]"


TRACER_CHECK = """
import importlib.util, sys
import mcpen
spec = importlib.util.spec_from_file_location("spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
names = [k for k in sys.modules if k == "mcpen" or k.startswith("mcpen.")]
before = {k: dict(vars(sys.modules[k])) for k in names}
tracer = spans.Tracer()
slots = tracer.install()
wrapped = all(
    getattr(sys.modules["mcpen." + mod], f).__wrapped__ is before["mcpen." + mod][f]
    for mod, funcs in spans.TRACED.items()
    for f in funcs
)
# the tracer reads taylor_cells' exprs and dtheta by position
import numpy as np
from mcpen import expr as ex
exprs = [ex.vmax(ex.theta(0), ex.mul(ex.theta(1), ex.uref(1, 0))), ex.square(ex.theta(0))]
tracer.enabled = True
ex.taylor_cells(exprs, np.zeros(2), [np.ones(1)], np.ones((2, 3)), [np.ones((1, 3))])
tracer.enabled = False
node_cols = tracer.metrics()["expr.taylor_cells.node_cols"] == 3 * sum(len(list(ex.nodes(e))) for e in exprs)
tracer.uninstall()
restored = all(vars(sys.modules[k]).get(a) is v for k in names for a, v in before[k].items())
print(slots, wrapped, restored, node_cols)
"""


def test_the_benchmark_tracer_finds_every_traced_function_and_restores_them():
    # perfbench's tracer patches functions by name after `import mcpen`; a
    # renamed or deleted name, or a copy imported under another, shows here,
    # and so does a taylor_cells signature that moves the arguments it reads
    spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    assert _run(TRACER_CHECK, str(spans)) == "69 True True True"
