"""Package-wide checks: every regression scenario passes, the import stays light, the benchmark fits."""

import ast
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


def _self_calls(fn: ast.FunctionDef) -> bool:
    """Whether ``fn`` calls its own name (or ``self.``/``cls.`` its name) without binding that name itself."""
    inside = list(ast.walk(fn))[1:]
    binds = any(
        isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and node.id == fn.name
        or isinstance(node, ast.alias) and (node.asname or node.name) == fn.name
        or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == fn.name
        for node in inside
    )
    calls = any(
        isinstance(node, ast.Call)
        and (
            isinstance(node.func, ast.Name) and node.func.id == fn.name
            or isinstance(node.func, ast.Attribute) and node.func.attr == fn.name
            and isinstance(node.func.value, ast.Name) and node.func.value.id in ("self", "cls")
        )
        for node in inside
    )
    return calls and not binds


def test_nothing_in_src_recurses_but_the_piece_enumeration_oracle():
    # No walker in src/ recurses, so every check and every problem file takes
    # a tree of any depth.  The one exception is pieces.expr_pieces's rec,
    # the enumeration oracle; a function that rebinds its own name, such as
    # the lazy pieces.milp and pieces.linprog imports, calls what it bound.
    found = set()
    for path in sorted(Path(mcpen.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and _self_calls(fn):
                found.add(f"{path.stem}.{fn.name}")
    assert found == {"pieces.rec"}


def test_import_leaves_scipy_stats_out():
    # scipy.stats costs about half a second of `import mcpen`, and scipy.linalg
    # 0.2-0.35 s and 26 MB; at import the library needs numpy alone.
    code = "import sys, mcpen; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert _run(code) == "[]"


HIGHS_LOADS = """
import json, sys, warnings
sys.path.insert(0, sys.argv[1])
if sys.argv[2] == "eager":
    import scipy.optimize, scipy.sparse
warnings.filterwarnings("ignore", "outer function evaluated to", RuntimeWarning)


def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")


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
    # scipy costs about 45 MB and 0.4 s per process, and only a MILP or LP
    # uses it: neither the CLI nor a multiplier-settled check loads any scipy
    # module.  P1 at random problem 7's theta = 0 reaches HiGHS.
    tests = str(Path(__file__).resolve().parent)
    lazy_seen, *lazy = json.loads(_run(HIGHS_LOADS, tests, "lazy"))
    _, *eager = json.loads(_run(HIGHS_LOADS, tests, "eager"))
    assert lazy_seen[:3] == [[], [], []]
    assert {"scipy.optimize", "scipy.sparse"} <= set(lazy_seen[3])
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
    # and so does a taylor_cells signature that moves the arguments it reads;
    # the solver holds no copy of feasibility_descent_direction, since its
    # probes build the direction from residuals they already hold, and dcalc
    # holds none of eval_g or eval_Theta, since dd_Psi, dd_F and dd_Theta read
    # their values off their one Taylor pass
    spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    assert _run(TRACER_CHECK, str(spans)) == "62 True True True"


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
