"""Self-test of the benchmark at small shapes (about 15 s).

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced, and fails unless each
result is correct and names exactly the metrics of BENCHMARK.json, each
with its unit. Also checks, in this process, that a CSV written by the
benchmark reads back bit for bit (the output check of cli-tall relies on
it), that the fingerprint comparison catches a changed support and a
changed R^2, and that a traced run puts back every function it wrapped.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_benchmark(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "0.1", "--trace", str(trace), "--small"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_results(spec):
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run_benchmark(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1, result
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, f"{workload} --trace {trace}: {got} != {want}"
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)) and m["value"] == m["value"], name
            print(f"ok  {workload} --trace {trace}: {len(got)} metrics, "
                  f"{result['attempted']} runs")


def check_in_process():
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import tracing
    import workloads
    from simpca import report

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    csv = out / "smoke.csv"
    raw = workloads.factor_matrix(300, 12, 3, 5)
    workloads.write_csv(csv, raw)
    try:
        assert np.array_equal(report.ingest_csv(csv)[1], raw), "CSV does not round-trip"
    finally:
        csv.unlink()

    ref = [[{"support": [1, 4], "trace_r2": [0.5, 0.9]}]]
    assert workloads.compare(ref, ref) is None
    assert workloads.compare(ref, [[{"support": [1, 5], "trace_r2": [0.5, 0.9]}]])
    assert workloads.compare(ref, [[{"support": [1, 4], "trace_r2": [0.5, 0.9 + 1e-6]}]])

    tracer = tracing.Tracer()
    before = tracing.wrapped_functions()
    workload = workloads.WORKLOADS["rotate-wide"](small=True)
    with tracer.run(0):
        workload.run(workload.prepare(0, None))
    assert tracer.counts[0]["rotation.cf_evals"] > 0
    assert tracing.wrapped_functions() == before, "a traced run left a wrapper in place"
    print("ok  CSV round trip, fingerprint comparison, wrappers restored")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_in_process()
    check_results(spec)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
