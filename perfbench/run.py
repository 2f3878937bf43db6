"""simpca benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload {cli-tall,select-mix,rotate-wide} \
        --seed N --seconds S --trace {0,1} [--small]

Run from anywhere; it imports simpca from ``src/`` of the checkout this file
lives in and writes only under ``.perfbench_out/`` there. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``). A result file with every sample and the
environment, and with ``--trace 1`` the spans as JSON lines, go to
``.perfbench_out/``.

Closed loop, one client: runs follow one another in this process until the
next run would end after ``--seconds``. Every run's output is checked; a run
that raises, makes the CLI exit non-zero or fails the check is a failure.

``--record-reference`` stores the fingerprint of one run for the seed, to
be compared exactly (supports, trace steps) or within a tight relative
tolerance (R^2, vexp) by every later run with that seed.
"""

import os

# BLAS on one thread, in this process and the set-up children only: counts
# repeat exactly only with a fixed reduction order, and two threads gave no
# gain on cli-tall, with a wider spread. Must precede the numpy import.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update({var: "1" for var in THREAD_VARS})

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["cli-tall", "select-mix", "rotate-wide"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--small", action="store_true",
                        help="small shapes, for the self-test")
    parser.add_argument("--record-reference", action="store_true",
                        help="store this seed's output fingerprint and exit")
    parser.add_argument("--setup-only", metavar="CSV",
                        help="(internal) import and make the inputs, then exit")
    return parser.parse_args(argv)


def import_simpca():
    """Import simpca from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "simpca" / "__init__.py").is_file():
        sys.exit(f"perfbench: no simpca sources under {src}")
    sys.path.insert(0, str(src))
    import simpca

    if Path(simpca.__file__).resolve().parent != src / "simpca":
        sys.exit(f"perfbench: imported simpca from {simpca.__file__}, not {src}")


def environment(seed):
    """What the numbers depend on besides the code."""
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        l3 = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "l3": l3,
        "seed": seed,
        "commit": commit,
    }


def time_setup(args, csv_path):
    """Wall time of a fresh process that imports, makes the inputs and (for
    cli-tall) writes the CSV: process start to the first run."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only", str(csv_path)]
    if args.small:
        cmd.append("--small")
    start = time.perf_counter()
    # a blocking wait: wait(timeout=...) polls, which rounds the time up to
    # its 50 ms polling step
    with subprocess.Popen(cmd, stdout=subprocess.DEVNULL) as proc:
        code = proc.wait()
    elapsed = time.perf_counter() - start
    if code != 0:
        sys.exit(f"perfbench: set-up exited with {code}")
    return elapsed


class Runner:
    """Closed-loop runs of one workload, each checked."""

    def __init__(self, workload, inputs, reference):
        self.workload = workload
        self.inputs = inputs
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def once(self):
        """One run; returns its wall time."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            output = self.workload.run(self.inputs)
            elapsed = time.perf_counter() - start
            problems = self.workload.check(self.inputs, output, self.reference)
        except Exception:  # a failed run is counted, and the loop goes on
            elapsed = time.perf_counter() - start
            problems = [traceback.format_exc()]
        self.errors.extend(problems)
        self.failed += bool(problems)
        return elapsed


def loop(seconds, step):
    """Call ``step`` until the next call would end after ``seconds``; at
    least once."""
    start = time.perf_counter()
    took = []
    while not took or time.perf_counter() - start + statistics.median(took) <= seconds:
        t = time.perf_counter()
        step()
        took.append(time.perf_counter() - t)


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    import_simpca()
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](small=args.small)
    if args.setup_only:
        workload.prepare(args.seed, Path(args.setup_only))
        return 0

    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.record_reference:
            return record_reference(args, workload, work)
        return measure(args, workload, work, tracing)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def record_reference(args, workload, work):
    inputs = workload.prepare(args.seed, work / "input.csv")
    output = workload.run(inputs)
    problems = workload.invariants(inputs, output)
    if problems:
        sys.exit(f"perfbench: not recording a failing run: {problems}")
    path = workload.reference_path(args.seed)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "environment": environment(args.seed),
        "fingerprint": workload.fingerprint(inputs, output),
    }, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}", file=sys.stderr)
    return 0


def measure(args, workload, work, tracing):
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "small": args.small,
              "environment": environment(args.seed)}
    if args.trace:
        inputs = workload.prepare(args.seed, work / "input.csv")
    else:
        # set-up samples are spread over the window, one after each run, so
        # that they do not all land in one burst of interference
        setup_s = [time_setup(args, work / "input.csv")]
        inputs = workload.prepare(args.seed, work / "input.csv", write=False)
    runner = Runner(workload, inputs, workload.load_reference(args.seed))
    record["reference_checked"] = runner.reference is not None

    if args.trace:
        tracer = tracing.Tracer()
        untraced, traced = [], []

        def pair():
            untraced.append(runner.once())
            with tracer.run(len(traced)):
                traced.append(runner.once())

        loop(args.seconds, pair)
        per_run = [tracer.layer_metrics(i, t) for i, t in enumerate(traced)]
        # the fastest traced run, for the reason run_s is the fastest run
        metrics = dict(per_run[traced.index(min(traced))])
        metrics["trace_overhead_frac"] = min(traced) / min(untraced) - 1
        record.update(untraced_s=untraced, traced_s=traced, per_run=per_run)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}-{os.getpid()}.jsonl"
        tracer.write_spans(spans_path)
        record["spans"] = str(spans_path.relative_to(ROOT))
    else:
        run_s = []

        def step():
            run_s.append(runner.once())
            if len(setup_s) < SETUP_SAMPLES:
                csv = work / f"setup{len(setup_s)}.csv"
                setup_s.append(time_setup(args, csv))
                csv.unlink(missing_ok=True)

        loop(args.seconds, step)
        metrics = {
            # the fastest run: on a shared host, other tenants slow whole
            # seconds by up to 1.8x, which moves a window's median far more
            # than its minimum (see README.md)
            "run_s": min(run_s),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - runner.failed / runner.attempted,
        }
        record.update(run_s=run_s, run_s_median=statistics.median(run_s),
                      runs=len(run_s), setup_s=setup_s)

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": tracing.unit(name)}
                    for name, value in metrics.items()},
    }
    record.update(result=result, errors=runner.errors)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for error in runner.errors:
        print(error, file=sys.stderr)
    print(f"result file: {path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
