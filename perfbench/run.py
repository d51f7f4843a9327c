#!/usr/bin/env python3
"""Closed-loop benchmark of the mcpen library, one client.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify-rnn --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

``all`` runs the workloads listed in BENCHMARK.json, one after another.

Each op waits for the previous one, as a synchronous library call does.
A run is a parent process that measures nothing itself: every pass over the
ops runs in a fresh process of its own, which imports the library, builds
the inputs from the seed (timed as set-up) and runs the ops.  Since every
pass starts cold, a cache that lives inside the library cannot carry work
from one pass into the next.  Each pass runs the same ops, as many whole
rounds as fill ``--seconds / passes`` at the tuned speed (see
``workloads.Workload.ops_for``); the first pass checks their outputs and
the others must reproduce its outcome signatures.

The speed of the shared host swings by up to 2x within a minute, as other
tenants come and go.  Two things keep that out of the figures.  A fixed
probe that calls nothing of mcpen runs just before each op and, for at
least ``PROBE_SHARE`` of the op's time, just after it; each op's time is
scaled by ``PROBE_REF_S`` over the median of its probe times, which gives
it at the probe's reference speed.  Then each op keeps its fastest pass.  The printed ``op_wall_s_p50`` is the unscaled median.
``setup_s`` is the median over at least three processes of import plus
set-up time, and ``peak_rss_mb`` the highest per-process high-water mark.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics listed in BENCHMARK.json.  With ``--trace 1`` one
process runs the workload's fixed number of trace ops untraced, so that
counts compare across versions at equal work, and another runs set-up and
the same ops with spans around mcpen's public functions (see ``spans.py``).
The run reports the per-layer metrics; ``trace.overhead_s`` is the traced
minus the untraced op time.  Spans are written to ``.perfbench/``.

``attempted`` counts the distinct ops of the first pass and ``failed`` those
that raised, showed a known defect or returned a wrong output.  ``correct``
is false when some op returned a wrong output, or when two passes over the
same ops disagree (traced against untraced included).
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MIN_SETUPS = 3
# Seconds the probe takes on the 2-core host the benchmark was tuned on,
# when that host is not slowed by its neighbours.
PROBE_REF_S = 0.004
# The least share of an op's time spent probing after it: one probe after a
# 0.3 s op, twenty after an 8 s one, whose single probes were too few to
# follow the host.
PROBE_SHARE = 0.01
RUN_LIMIT_S = 170.0
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0)
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# What a pass process does: it runs the ops checked or unchecked (a
# repeat), only sets up, or runs them checked under the tracer.
PASS_KINDS = ("checked", "repeat", "setup", "traced")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Set by the parent run for its pass processes.
    ap.add_argument("--pass-kind", choices=PASS_KINDS, help=argparse.SUPPRESS)
    ap.add_argument("--pass-ops", type=int, default=0, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def fail(msg: str, code: int = 2) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return code


def import_library():
    """Import mcpen from this checkout's src/, never from anywhere else."""
    pkg = ROOT / "src" / "mcpen"
    if not (pkg / "__init__.py").is_file():
        raise ImportError(f"no mcpen package under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import mcpen

    if Path(mcpen.__file__).resolve().parent != pkg.resolve():
        raise ImportError(f"mcpen resolved to {mcpen.__file__}, not to {pkg}")


# -- one pass, in a process of its own ------------------------------------


def probe() -> float:
    """Seconds of a fixed piece of interpreter and small-array work.

    Its time follows the host's speed.  On a shared 2-core host whose speed
    swung by up to 2x over 90 s, the probe run next to repeated
    moduli-generic ops correlated with their times at 0.87-0.93.  It calls
    nothing of mcpen, so a change to the library cannot move it.
    """
    import numpy as np

    t0 = time.perf_counter()
    acc, seen = 0.0, {}
    for k in range(20_000):
        acc += (k * 7 % 13) * 0.5
        seen[k & 255] = acc
    a = np.arange(64.0)
    for _ in range(400):
        a = np.sqrt(a * a + 1.0) - 0.5
    return time.perf_counter() - t0


def run_op(work, i, checked, tracer=None):
    """Run op ``i`` once; (seconds, median probe seconds, outcome).

    The op's result is freed on return."""
    from workloads import Outcome

    before = probe()
    result = exc = None
    if tracer is not None:
        tracer.enabled = True
    t0 = time.perf_counter()
    try:
        result = work.op(i)
    except Exception as e:
        exc = e
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.enabled = False
    after = [probe()]
    while sum(after) < PROBE_SHARE * dt:
        after.append(probe())
    speed = statistics.median([before, *after])
    if exc is not None:
        name = type(exc).__name__
        return dt, speed, Outcome(("raised", name), failed=[f"raised {name}: {exc}"], raised=True)
    try:
        if checked:
            return dt, speed, work.check(i, result)
        return dt, speed, Outcome(work.signature(i, result))
    except Exception as e:
        traceback.print_exc(file=sys.stderr)
        return dt, speed, Outcome(("check raised",), [f"check raised {type(e).__name__}: {e}"])


def one_pass(args) -> int:
    """Set up, run this pass's ops and print what the parent needs as JSON."""
    try:
        import_library()
        from workloads import WORKLOADS
    except ImportError as exc:
        return fail(f"cannot import the library or the benchmark: {exc}")
    import_s = time.perf_counter() - T0
    cls = WORKLOADS[args.workload]
    kind = args.pass_kind
    ops = args.pass_ops
    tracer = None
    if kind == "traced":
        from spans import Tracer

        tracer = Tracer()
        slots = tracer.install()
        tracer.enabled, tracer.phase = True, "setup."
    work = cls(args.seed)
    t0 = time.perf_counter()
    work.setup(ops)
    setup_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.enabled, tracer.phase = False, ""

    times, probes, outcomes = [], [], []
    for i in range(0 if kind == "setup" else ops):
        dt, speed, out = run_op(work, i, kind != "repeat", tracer)
        times.append(dt)
        probes.append(speed)
        outcomes.append(out)

    result = {
        "setup_s": import_s + setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "times": times,
        "probes": probes,
        "outcomes": [
            {
                "signature": json.dumps(o.signature, default=repr),
                "wrong": o.wrong,
                "failed": o.failed,
                "tally": o.tally,
                "raised": o.raised,
            }
            for o in outcomes
        ],
    }
    if tracer is not None:
        tracer.uninstall()
        out = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.npz"
        tracer.write(out)
        result["trace"] = tracer.metrics()
        spans = len(tracer.span_start)
        result["trace_note"] = f"patched={slots} spans={spans} file={out.relative_to(ROOT)}"
    print(json.dumps(result, default=float))
    return 0


# -- the parent run --------------------------------------------------------


def spawn(args, kind, ops) -> dict:
    """Run one pass process and return its result; raises if it fails."""
    left = RUN_LIMIT_S - (time.perf_counter() - T0)
    if left <= 0:
        raise RuntimeError(f"no time left for a {kind} pass")
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload]
    cmd += ["--seed", str(args.seed), "--seconds", f"{args.seconds!r}"]
    cmd += ["--pass-kind", kind, "--pass-ops", str(ops)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=left)
    if proc.returncode != 0:
        raise RuntimeError(f"{kind} pass exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(times):
    """Highest listed percentile with at least 10 ops beyond it."""
    n = len(times)
    for p in TAIL_LEVELS:
        if n * (1.0 - p / 100.0) >= 10.0:
            return p, statistics.quantiles(times, n=1000, method="inclusive")[int(p * 10) - 1]
    return None


def failed(outcome) -> bool:
    return bool(outcome["wrong"] or outcome["failed"])


def op_times(p) -> list[float]:
    """A pass's op times, each at the probe's reference speed."""
    return [t * PROBE_REF_S / s for t, s in zip(p["times"], p["probes"])]


def end_to_end(cls, runs, passes):
    """Metrics over each op's fastest pass; ops that raised count only in fail_rate."""
    outcomes = passes[0]["outcomes"]
    kept = [not o["raised"] for o in outcomes]
    if not any(kept):
        kept = [True] * len(outcomes)
    done = [min(ts) for ts, k in zip(zip(*(op_times(p) for p in passes)), kept) if k]
    wall = [min(ts) for ts, k in zip(zip(*(p["times"] for p in passes)), kept) if k]
    m = {
        "setup_s": (statistics.median(r["setup_s"] for r in runs), "s"),
        "ops_per_s": (len(done) / sum(done), "op/s"),
        "op_s_p50": (statistics.median(done), "s"),
        "op_wall_s_p50": (statistics.median(wall), "s"),
        "probe_s_p50": (statistics.median(s for p in passes for s in p["probes"]), "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in runs), "MB"),
        "fail_rate": (sum(map(failed, outcomes)) / len(outcomes), "ratio"),
        "op_s_samples": (len(done), "count"),
    }
    t = tail(done)
    if t is not None:
        m[f"op_s_tail_p{t[0]:g}"] = (t[1], "s")
    m.update(cls.metrics([o["tally"] for o in outcomes]))
    return m


def run_one(args, spec) -> int:
    try:
        import_library()
        import numpy
        import scipy
        from spans import per_layer_units
        from workloads import WORKLOADS
    except ImportError as exc:
        return fail(f"cannot import the library or the benchmark: {exc}")
    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    print(
        f"env nproc={os.cpu_count()} threads={os.environ['OMP_NUM_THREADS']} "
        f"python={platform.python_version()} numpy={numpy.__version__} scipy={scipy.__version__}"
    )
    print(f"run workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    cls = WORKLOADS[args.workload]

    try:
        if args.trace:
            passes = [spawn(args, "checked", cls.trace_ops), spawn(args, "traced", cls.trace_ops)]
            runs = passes
        else:
            n = cls.ops_for(args.seconds)
            passes = [spawn(args, "checked", n)]
            passes += [spawn(args, "repeat", n) for _ in range(cls.passes - 1)]
            runs = passes + [spawn(args, "setup", n) for _ in range(MIN_SETUPS - cls.passes)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        return fail(f"a pass failed: {exc}", 3)

    outcomes = passes[0]["outcomes"]
    if args.trace:
        traced = passes[1]
        print(f"trace {traced['trace_note']}")
        untraced_s, traced_s = sum(op_times(passes[0])), sum(op_times(traced))
        print(f"trace untraced_s={untraced_s:.4f} traced_s={traced_s:.4f}")
        units = per_layer_units()
        metrics = {k: (v, units[k]) for k, v in traced["trace"].items()}
        metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
        wanted = spec["per_layer"]
        key = ("signature", "wrong", "failed")
    else:
        metrics = end_to_end(cls, runs, passes)
        wanted = spec["end_to_end"]
        key = ("signature",)

    same = all([[o[k] for k in key] for o in p["outcomes"]] == [[o[k] for k in key] for o in outcomes]
               for p in passes)
    print(f"passes={len(passes)} ops_per_pass={len(outcomes)} outcomes_identical={same}")
    print("setup_s per process " + " ".join(f"{r['setup_s']:.4f}" for r in runs))
    for k, p in enumerate(passes):
        print(f"op_times_s pass={k} " + " ".join(f"{t:.4f}" for t in p["times"]))
        print(f"probe_s pass={k} " + " ".join(f"{t:.6f}" for t in p["probes"]))
    for i, o in enumerate(outcomes):
        for e in o["failed"]:
            print(f"failed op={i}: {e}")
        for e in o["wrong"]:
            print(f"wrong op={i}: {e}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")

    result = {}
    for entry in wanted:
        got = metrics.get(entry["name"])
        if got is None or got[1] != entry["unit"]:
            return fail(f"metric {entry['name']} [{entry['unit']}] not produced as listed", 3)
        result[entry["name"]] = {"value": float(got[0]), "unit": got[1]}
    print(
        json.dumps(
            {
                "correct": same and not any(o["wrong"] for o in outcomes),
                "attempted": len(outcomes),
                "failed": sum(map(failed, outcomes)),
                "metrics": result,
            }
        )
    )
    return 0


def run_all(args, names) -> int:
    """Each workload's run in turn, each with processes of its own."""
    code = 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)]
        code = max(code, subprocess.run(cmd, cwd=ROOT, timeout=3 * RUN_LIMIT_S).returncode)
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = str(min(2, os.cpu_count() or 1))
    for var in THREAD_VARS:
        os.environ[var] = threads
    # Generated problems can have an outer function that dips below zero,
    # which model.eval_g reports with a message that differs on every call;
    # printing each one would put stderr writes inside the timed ops.
    warnings.filterwarnings("ignore", "outer function evaluated to", RuntimeWarning)
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    if args.pass_kind is not None:
        return one_pass(args)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload == "all":
        return run_all(args, [w["name"] for w in spec["workloads"]])
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
