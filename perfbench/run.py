"""End-to-end Lumos benchmark: one workload per run, closed loop, checked.

Run from the repository root::

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all            # every workload, in turn

One client sends one job at a time and the next only when the previous one
has returned.  Every job's result is checked; a failed check is printed,
counted and the run continues.  ``--trace 0`` reports the end-to-end
metrics of untraced jobs; ``--trace 1`` additionally runs traced jobs with
per-layer timers (see ``layers.py``) and reports the per-layer metrics.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402  (the clock above must start first)
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train-gat", "sweep", "sweep-process", "construct")
#: Set-up steps that can be repeated are repeated this often; the median counts.
SETUP_REPEATS = 3

ALL = frozenset(WORKLOAD_NAMES)
TRAINED = frozenset({"train-gat", "sweep", "sweep-process"})
SWEEPS = frozenset({"sweep", "sweep-process"})
#: Every end-to-end metric: name -> (unit, workloads it applies to).
END_TO_END = {
    "setup_s": ("s", ALL),
    "job_s_p50": ("s", ALL),
    "job_cpu_s_p50": ("s", ALL),
    "peak_rss_mb": ("MB", ALL),
    "failed_frac": ("ratio", ALL),
    "test_accuracy": ("ratio", TRAINED),
    "test_auc": ("ratio", SWEEPS),
    "max_workload": ("nodes", frozenset({"construct"})),
    "rounds_per_device": ("rounds", frozenset({"construct"})),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# --------------------------------------------------------------------------- #
# Machine fingerprint
# --------------------------------------------------------------------------- #
def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or ``None`` if unreadable."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for library in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(library))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                function.argtypes = []
                return int(function())
    return None


def machine_fingerprint():
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "blas_env": {
            name: os.environ[name]
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if name in os.environ
        },
    }


# --------------------------------------------------------------------------- #
# Measurement
# --------------------------------------------------------------------------- #
def cpu_seconds():
    """CPU time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def current_rss_mb():
    """Resident set size of this process now."""
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb():
    """The larger of this process's and its largest child's peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


class Loop:
    """Closed-loop job runner with per-job checks."""

    def __init__(self, workload, inputs, expected, reference):
        self.workload = workload
        self.inputs = inputs
        self.expected = expected
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def problems(self, result):
        found = []
        if result != self.expected:
            found.append("result differs from the warm-up job's result")
        if self.reference is not None and result != self.reference:
            found.append("result differs from the serial reference")
        return found + self.workload.check(result)

    def job(self, stores):
        """Run and check one job; its wall and CPU seconds."""
        self.attempted += 1
        cpu_started = cpu_seconds()
        started = time.perf_counter()
        try:
            result = self.workload.job(self.inputs, stores)
        except Exception:  # a failing job is counted and reported, the run goes on
            wall = time.perf_counter() - started
            self.failed += 1
            print(f"job {self.attempted} raised:\n{traceback.format_exc()}", flush=True)
            return wall, cpu_seconds() - cpu_started
        wall = time.perf_counter() - started
        cpu = cpu_seconds() - cpu_started
        problems = self.problems(result)
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"job {self.attempted} failed a check: {problem}", flush=True)
        return wall, cpu

    def run_for(self, seconds):
        """Untraced jobs for ``seconds``: wall times, CPU times, peak RSS.

        The peak RSS is read after the first timed job: that is a fixed
        amount of work, so the figure does not depend on how many jobs fit
        into ``seconds`` (resident memory grows from job to job on some
        workloads; the traced run reports that growth).
        """
        walls, cpus = [], []
        started = time.perf_counter()
        while not walls or time.perf_counter() - started < seconds:
            wall, cpu = self.job([])
            walls.append(wall)
            cpus.append(cpu)
            if len(walls) == 1:
                peak = peak_rss_mb()
        return walls, cpus, peak


def engine_counts(before, stores):
    """Stage hits and misses of one job: the default store's delta plus the
    stores the job created."""
    from repro.engine import default_store

    engine = {
        stage: {kind: counts[kind] - before.get(stage, {}).get(kind, 0) for kind in counts}
        for stage, counts in default_store().summary().items()
    }
    for store in stores:
        for stage, counts in store.summary().items():
            entry = engine.setdefault(stage, {"hits": 0, "misses": 0})
            for kind in ("hits", "misses"):
                entry[kind] += counts[kind]
    return engine


def traced_job(loop, layers, recorder):
    """One job under the layer timers; its wall time and per-layer values.

    Everything the job allocated is released when this returns, so the
    resident set size read afterwards holds no harness-retained garbage.
    """
    from repro.engine import default_store

    before = default_store().summary()
    stores = []
    installation = layers.install(recorder)
    try:
        wall, _ = loop.job(stores)
    finally:
        installation.remove()
    engine = engine_counts(before, stores)
    values = layers.job_metrics(recorder, wall, engine, loop.workload.num_nodes)
    return wall, values, installation.absent


def traced_run(loop, seconds, untraced_p50):
    """Traced jobs for ``seconds``; per-layer rows, absent layers, job count."""
    import layers

    jobs, epoch_ms, walls, rss = [], [], [], []
    started = time.perf_counter()
    while not walls or time.perf_counter() - started < seconds:
        recorder = layers.Recorder()
        wall, values, absent = traced_job(loop, layers, recorder)
        jobs.append(values)
        epoch_ms.extend(recorder.epoch_ms)
        walls.append(wall)
        rss.append(current_rss_mb())
    metrics = layers.summarize(jobs, epoch_ms, walls, untraced_p50, rss)
    rows = [
        (name, value, layers.PER_LAYER[name][0], layers.PER_LAYER[name][1] in absent)
        for name, value in metrics.items()
    ]
    return rows, sorted(absent), len(walls)


# --------------------------------------------------------------------------- #
# Reporting
# --------------------------------------------------------------------------- #
def print_table(title, rows):
    print(f"\n{title}")
    print(f"  {'metric':34} {'value':>14}  unit")
    for name, value, unit, absent in rows:
        shown = "absent" if absent else f"{value:14.6g}"
        print(f"  {name:34} {shown:>14}  {unit}")


def declared_metrics(trace):
    """``{name: unit}`` of the metrics BENCHMARK.json declares for this mode."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return {}
    section = json.loads(path.read_text())["per_layer" if trace else "end_to_end"]
    return {entry["name"]: entry["unit"] for entry in section}


def self_check(workload, rows, trace):
    """Every metric this benchmark defines or declares is printed, with its unit."""
    printed = {name: unit for name, _, unit, _ in rows}
    expected = {
        name: unit for name, (unit, applies) in END_TO_END.items() if workload in applies
    }
    if trace:
        import layers

        expected.update({name: unit for name, (unit, _) in layers.PER_LAYER.items()})
    expected.update(declared_metrics(trace))
    return [
        f"{name} [{unit}] missing or printed with unit {printed.get(name)!r}"
        for name, unit in expected.items()
        if printed.get(name) != unit
    ]


def json_metrics(rows, trace):
    """The metrics BENCHMARK.json declares for this mode (all rows without it)."""
    declared = declared_metrics(trace)
    return {
        name: {"value": value, "unit": unit}
        for name, value, unit, _ in rows
        if not declared or name in declared
    }


# --------------------------------------------------------------------------- #
# Entry points
# --------------------------------------------------------------------------- #
def run_workload(args):
    from workloads import WORKLOADS

    import_s = time.perf_counter() - _PROCESS_START
    workload = WORKLOADS[args.workload]
    print(f"workload {workload.name}: {workload.why}")
    print(f"machine {json.dumps(machine_fingerprint(), sort_keys=True)}", flush=True)

    search_started = time.perf_counter()
    graph_seed = workload.pick_graph_seed(args.seed)
    search_s = time.perf_counter() - search_started
    builds = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        inputs = workload.build_inputs(graph_seed)
        builds.append(time.perf_counter() - started)
    reference, reference_s = None, 0.0
    if workload.reference is not None:
        started = time.perf_counter()
        reference = workload.reference(inputs)
        reference_s = time.perf_counter() - started
    started = time.perf_counter()
    expected = workload.job(inputs, [])
    warmup_s = time.perf_counter() - started
    setup_s = import_s + statistics.median(builds) + reference_s + warmup_s
    print(
        f"setup: imports {import_s:.3f}s, inputs {statistics.median(builds):.3f}s "
        f"(median of {SETUP_REPEATS}), reference {reference_s:.3f}s, warm-up job "
        f"{warmup_s:.3f}s; graph seed {graph_seed} picked in {search_s:.3f}s",
        flush=True,
    )

    loop = Loop(workload, inputs, expected, reference)
    if reference is not None and expected != reference:
        print("warm-up job differs from the serial reference", flush=True)
    walls, cpus, peak = loop.run_for(args.seconds)
    job_p50 = statistics.median(walls)
    rows = [
        ("setup_s", setup_s, "s", False),
        ("job_s_p50", job_p50, "s", False),
        ("job_cpu_s_p50", statistics.median(cpus), "s", False),
        ("peak_rss_mb", peak, "MB", False),
    ]
    title = f"{workload.name}: {len(walls)} untraced jobs in {sum(walls):.1f}s, closed loop, 1 client"
    print(f"job wall times (s): {' '.join(f'{wall:.3f}' for wall in walls)}")
    if args.trace:
        layer_rows, absent, traced = traced_run(loop, args.seconds, job_p50)
        if absent:
            print(f"absent layers (target no longer exists): {', '.join(absent)}")
    rows.append(("failed_frac", loop.failed / loop.attempted, "ratio", False))
    for name, (value, unit) in workload.quality(expected).items():
        rows.append((name, value, unit, False))
    print_table(title, rows)
    if args.trace:
        import layers

        print_table(
            f"{workload.name}: per-layer, per-job means over {traced} traced jobs",
            layer_rows,
        )
        print("\nlayer -> the end-to-end metric it should move")
        for layer in layers.LAYERS:
            print(f"  {layer.name:24} {layer.moves}")
        rows = rows + layer_rows
    problems = self_check(workload.name, rows, args.trace)
    if problems:
        for problem in problems:
            print(f"self-check: {problem}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": json_metrics(rows, args.trace),
    }))
    return 0


def run_all(args):
    """Each workload in its own process (peak RSS is per process), in turn."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        print(completed.stdout, end="", flush=True)
        if completed.returncode != 0:
            print(f"workload {name} exited with code {completed.returncode}", file=sys.stderr)
            return completed.returncode
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(summary))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    # The runtime's spill directories and any other temporary files stay
    # inside the checkout.
    temporary = ROOT / ".bench_tmp" / str(os.getpid())
    temporary.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(temporary)
    tempfile.tempdir = str(temporary)
    try:
        return run_workload(args)
    finally:
        shutil.rmtree(temporary, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
