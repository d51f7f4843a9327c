"""Package-wide checks: every regression scenario passes, the import stays light, the benchmark fits."""

import json
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
    # scipy.stats costs about half a second of `import mcpen`; at import the
    # library needs only numpy and scipy.linalg, for the multipliers.
    code = "import sys, mcpen; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    assert _run(code) == "[]"


HIGHS_LOADS = """
import json, sys, warnings
sys.path.insert(0, sys.argv[1])
if sys.argv[2] == "eager":
    import scipy.optimize, scipy.sparse
warnings.filterwarnings("ignore", "outer function evaluated to", RuntimeWarning)


def loaded():
    return sorted({m.split(".")[1] for m in sys.modules if m.startswith(("scipy.optimize", "scipy.sparse"))})


import numpy as np
import mcpen
seen = [loaded()]
import mcpen.cli
seen.append(loaded())
from conftest import random_problem
from mcpen.model import eval_layers
from mcpen.rnn import build_problem, desk_instance, rnn_penalty_config
from mcpen.serialize import dumps
from mcpen.stationarity import check_d_stationary_P1, compare_sets_on_point

spec = desk_instance(0)
problem = build_problem(spec)
lift = eval_layers(problem, 0.1 * np.random.default_rng(0).standard_normal(problem.n))
compare_sets_on_point(problem, lift, rnn_penalty_config(spec), seed=0)
seen.append(loaded())
p = random_problem(7)
report = check_d_stationary_P1(p, eval_layers(p, np.zeros(p.n)), [0.7] * p.L)
seen.append(loaded())
bits = [float(v).hex() for v in (report.min_found, report.witness_value, *report.witness.dtheta)]
print(json.dumps([seen, dumps({"report": report}), bits]))
"""


def test_highs_loads_at_the_first_milp_with_the_eager_report():
    # scipy.optimize and scipy.sparse cost about 20 MB and 0.2 s per process,
    # and only a MILP or LP uses them: neither the CLI nor a multiplier-settled
    # check loads them.  P1 at random problem 7's theta = 0 reaches HiGHS.
    tests = str(Path(__file__).resolve().parent)
    lazy_seen, *lazy = json.loads(_run(HIGHS_LOADS, tests, "lazy"))
    _, *eager = json.loads(_run(HIGHS_LOADS, tests, "eager"))
    assert lazy_seen == [[], [], [], ["optimize", "sparse"]]
    assert lazy == eager


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
    assert _run(TRACER_CHECK, str(spans)) == "66 True True True"


BENCHMARK_ROUND = """
import json, sys, warnings
sys.path.insert(0, sys.argv[1])
warnings.filterwarnings("ignore", "outer function evaluated to", RuntimeWarning)
from workloads import WORKLOADS
report = {}
for name, cls in WORKLOADS.items():
    work = cls(0)
    work.setup(cls.round_size)
    wrong, failed = [], []
    for i in range(cls.round_size):
        try:
            result = work.op(i)
        except Exception as e:
            failed.append([i, f"raised {type(e).__name__}"])
            continue
        try:
            out = work.check(i, result)
        except Exception as e:
            wrong.append(f"op {i}: check raised {type(e).__name__}: {e}")
            continue
        wrong += out.wrong
        failed += [[i, f] for f in out.failed]
    report[name] = {"wrong": wrong, "failed": failed}
print(json.dumps(report))
"""


def test_one_round_of_each_benchmark_workload_runs_and_checks():
    # one round of each perfbench workload at seed 0, each op followed by its
    # own check; a library change that breaks a name the benchmark reads
    # shows here as an exception, and a wrong output as a failed check.  Two
    # generic problems of moduli-generic have a negative reference level,
    # which build_config refuses.
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    report = json.loads(_run(BENCHMARK_ROUND, str(perfbench)))
    assert report == {
        "certify-rnn": {"wrong": [], "failed": []},
        "train-desk": {"wrong": [], "failed": []},
        "moduli-generic": {"wrong": [], "failed": [[3, "raised ValueError"], [5, "raised ValueError"]]},
    }
