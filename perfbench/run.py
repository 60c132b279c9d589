"""framecond benchmark: one workload per process, timed from outside the library.

    python3 perfbench/run.py --workload frame_pipeline --seed 0 --seconds 40 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``):

- ``frame_pipeline``: ``framecond certify``, ``diag-lp`` and ``precondition``
  through ``cli.main`` on the first two seeded m x 64 Gaussian frames for
  each m in {12, 18, 24, 30}.
- ``bounded_sweep``: ``solve_coherence`` with eigenvalue bounds on the first
  four seeded 12 x 64 frames (t2 = 0.5, t1 in {2, 4}, plus the pinned
  t2 = 1 points).
- ``phase_recovery``: ``phase_diagram`` at M = 16, m = 2..15, 10 trials, for
  phi/bp, gphi/bp and g1phi/omp.

A run sets up the workload several times, each time starting a fresh
interpreter that imports the library, then repeats the workload's fixed item
list for about ``--seconds`` of wall time: a new round starts only while the median
round still fits, and at least one round always runs.  After every round,
outside the timed region, the outputs are checked against independent
oracles and, for seed 0, against the references in ``reference_seed0.json``.
Times are CPU seconds of the (single-threaded) process; see ``CLOCK``.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics: ``setup_s`` (median time of one set-up, import included),
``round_cpu_s`` (median time of one round) and
``peak_rss_mb``.  The lines before it print those, the round's wall time, the
workload's own latencies with their sample counts, the failure ratio with its
base, every failed check, and the environment.  With ``--trace 1`` rounds
alternate between traced and untraced, traced first (wrappers from
``spans.py`` around every public ``framecond`` function); the last line
carries the per-layer metrics, each the median over the traced rounds, and
``trace.overhead`` compares the two kinds of round.

Files: inputs and the CLI's outputs go to ``.perfbench_work/`` (removed at
exit); a JSON result per run, and the spans of a traced run, go to
``.perfbench_out/``.  ``--record-reference`` (seed 0 only) rewrites the
workload's entry in ``reference_seed0.json`` from the run's outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference_seed0.json"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

# One BLAS thread: on the 2-core machine the baseline was measured on, two
# threads made the 24 x 64 solve 2.4x slower, and a fixed thread count keeps
# the order of BLAS reductions, and so the iteration counts, repeatable.
BLAS_THREADS = 1
# Times are CPU seconds of this process, which runs single-threaded.  On a
# machine shared with other tenants a busy neighbour on each core stretched
# wall time of the same phase diagram by 40-50% and its CPU time by under 10%.
CLOCK = time.process_time
SETUP_REPS = 5
IMPORT_CHECK = "import numpy, framecond.cli"   # framecond.cli imports every framecond module
WORKLOAD_NAMES = ("frame_pipeline", "bounded_sweep", "phase_recovery")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true", dest="record_reference")
    args = parser.parse_args(argv)
    if args.record_reference and args.seed != 0:
        parser.error("references are stored for seed 0 only")
    return args


def git_commit() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(seed: int, workload: str) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    if os.path.isfile("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
    }


def cpu_with_children() -> float:
    """CPU seconds of this process plus those of its children that have ended."""
    own, kids = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def import_in_fresh_interpreter() -> None:
    """Start a new interpreter that imports the library, and wait for it.

    The benchmark process imports the library only once, so each set-up
    sample times a fresh interpreter's start and import instead."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", IMPORT_CHECK], env=env, cwd=ROOT, check=True)


def run_round(workload, recorder=None):
    """Run the item list once; return (CPU seconds, wall seconds, per-item
    CPU seconds, outcomes, errors)."""
    times, outcomes, errors = {}, {}, {}
    wall0, start = time.perf_counter(), CLOCK()
    for item in workload.items():
        if recorder is not None:
            recorder.item = item.id
        t0 = CLOCK()
        try:
            outcomes[item.id] = item.run()
        except Exception as exc:   # a failing item is counted and the run goes on
            traceback.print_exc(file=sys.stderr)
            errors[item.id] = f"raised {type(exc).__name__}: {exc}"
        times[item.id] = CLOCK() - t0
    return CLOCK() - start, time.perf_counter() - wall0, times, outcomes, errors


def pin_blas_threads() -> None:
    """Fix the BLAS thread count; takes effect only before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "framecond" / "__init__.py").is_file():
        print(f"error: no framecond sources under {SRC}", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, str(SRC))

    import workloads

    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    cls = workloads.WORKLOADS[args.workload]

    def make_workload():
        import_in_fresh_interpreter()
        reference = {}
        if args.seed == 0 and not args.record_reference and REFERENCE.is_file():
            with open(REFERENCE) as fh:
                reference = json.load(fh).get(args.workload, {})
        return cls(args.seed, str(workdir), reference)

    try:
        report(args, measure(make_workload, args.seconds, bool(args.trace)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def _by_tracing():
    return {False: [], True: []}


@dataclass
class RunResult:
    workload: object
    setup_times: list
    rounds: dict = field(default_factory=_by_tracing)   # traced? -> round CPU seconds
    walls: dict = field(default_factory=_by_tracing)    # traced? -> round wall seconds
    samples: dict = field(default_factory=dict)         # item id -> CPU seconds, one per untraced round
    layer_rounds: list = field(default_factory=list)    # per traced round: layer metrics
    recorders: list = field(default_factory=list)
    problems: list = field(default_factory=list)        # distinct (item id, kind, text)
    attempted: int = 0
    failed: int = 0
    first_outcomes: dict = None

    @property
    def setup_s(self) -> float:
        return statistics.median(self.setup_times)

    @property
    def round_s(self) -> float:
        return statistics.median(self.rounds[False])

    @property
    def correct(self) -> bool:
        return not any(kind == "mismatch" for _, kind, _ in self.problems)


def measure(make_workload, seconds: float, trace: bool) -> RunResult:
    """Set up SETUP_REPS times, then run rounds for about ``seconds``.

    A set-up sample is the CPU time of ``make_workload()`` and the
    workload's ``setup()``, counting the child processes they wait for.

    With ``trace`` rounds alternate traced/untraced, starting traced, and at
    least one of each runs.  The traced round is then the process's first,
    as in an untraced run, so its layer times describe the same kind of
    round that ``round_cpu_s`` measures; ``trace.overhead`` compares it with
    the untraced round that follows.  Item latencies come from untraced
    rounds only.
    """
    setup_times = []
    for _ in range(SETUP_REPS):
        t0 = cpu_with_children()
        workload = make_workload()
        workload.setup()
        setup_times.append(cpu_with_children() - t0)
    res = RunResult(workload, setup_times)

    start = time.perf_counter()
    while True:
        traced = trace and len(res.rounds[True]) <= len(res.rounds[False])
        if traced:
            recorder = spans.Recorder()
            with recorder:
                cpu, wall, times, outcomes, errors = run_round(workload, recorder)
            res.recorders.append(recorder)
            layer = spans.layer_metrics(recorder.spans)
            layer["recovery.success_ratio"] = (
                workload.success_ratio(outcomes) if hasattr(workload, "success_ratio") else 0.0)
            res.layer_rounds.append(layer)
        else:
            cpu, wall, times, outcomes, errors = run_round(workload)
        res.rounds[traced].append(cpu)
        res.walls[traced].append(wall)
        if not traced:
            for item_id, t in times.items():
                res.samples.setdefault(item_id, []).append(t)
        problems = workload.check(outcomes)
        for item_id, text in errors.items():
            problems.setdefault(item_id, []).append(("fail", text))
        res.attempted += len(times)
        res.failed += sum(1 for item_id in times if problems.get(item_id))
        for item_id, found in problems.items():
            for kind, text in found:
                if (item_id, kind, text) not in res.problems:
                    res.problems.append((item_id, kind, text))
        if res.first_outcomes is None:
            res.first_outcomes = outcomes
        elapsed = time.perf_counter() - start
        next_round = statistics.median(res.walls[False] + res.walls[True])
        pending = trace and not (res.rounds[True] and res.rounds[False])
        if not pending and elapsed + next_round > seconds:
            return res


def end_to_end_metrics(res: RunResult) -> dict:
    return {
        "setup_s": {"value": res.setup_s, "unit": "s"},
        "round_cpu_s": {"value": res.round_s, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }


def per_layer_metrics(res: RunResult) -> dict:
    """Median over the traced rounds of each layer metric, plus trace.overhead."""
    layer = {name: statistics.median(r[name] for r in res.layer_rounds) for name in res.layer_rounds[0]}
    layer["trace.overhead"] = statistics.median(res.rounds[True]) / res.round_s - 1.0
    return {name: {"value": layer[name], "unit": _layer_unit(name)} for name in sorted(layer)}


def report(args, res: RunResult) -> None:
    """Print the report lines and the result line; write the result files."""
    e2e = end_to_end_metrics(res)
    env = environment(args.seed, args.workload)
    walls = res.walls
    rounds = res.rounds
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={len(rounds[False]) + len(rounds[True])} items/round={len(res.samples)} "
          f"(times in CPU seconds)")
    print("env " + json.dumps(env, sort_keys=True))
    bases = {
        "setup_s": f"n={SETUP_REPS} set-ups, each with a fresh interpreter's import",
        "round_cpu_s": f"n={len(rounds[False])} untraced rounds",
        "peak_rss_mb": "n=1 process",
    }
    lines = [
        *((name, m["value"], m["unit"], bases[name]) for name, m in e2e.items()),
        ("wall_s", statistics.median(walls[False]), "s", f"n={len(walls[False])} untraced rounds, wall clock"),
        ("fail_ratio", res.failed / res.attempted, "ratio", f"failed {res.failed} / attempted {res.attempted}"),
        *res.workload.summary(res.samples, res.round_s),
    ]
    for name, value, unit, base in lines:
        print(f"metric {name} = {value:.6g} {unit} ({base})")
    for item_id, kind, text in res.problems:
        print(f"{kind} {item_id}: {text}")

    if args.trace:
        metrics = per_layer_metrics(res)
        for name, m in metrics.items():
            print(f"layer {name} = {m['value']:.6g} {m['unit']} (median of {len(res.layer_rounds)} traced rounds)")
    else:
        metrics = e2e

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump({
            "env": env,
            "metrics": {name: {"value": v, "unit": u, "base": b} for name, v, u, b in lines},
            "result_metrics": metrics,
            "rounds_cpu_s": {"untraced": rounds[False], "traced": rounds[True]},
            "rounds_wall_s": {"untraced": walls[False], "traced": walls[True]},
            "setup_s": res.setup_times,
            "items_s": res.samples,
            "problems": res.problems,
        }, fh, indent=1)
    if res.recorders:
        with open(OUT / f"spans-{tag}.jsonl", "w") as fh:
            for i, recorder in enumerate(res.recorders):
                recorder.write(fh, traced_round=i)
    if args.record_reference:
        stored = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
        stored[args.workload] = res.workload.reference_values(res.first_outcomes)
        REFERENCE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")

    print(json.dumps({"correct": res.correct, "attempted": res.attempted, "failed": res.failed,
                      "metrics": metrics}))


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("s_per_iter"):
        return "s/iter"
    if name.endswith("bytes_out"):
        return "B"
    if name.endswith("_ratio") or name == "trace.overhead":
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
