"""Benchmark of the wavefuse library: network fusion, variational fusion and
scoring, end to end and per module.

    python3 perfbench/run.py --workload net-large --seed 0 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

One process, one caller, closed loop: each library call starts after the
previous one returns. With --trace 0 the run is untraced and reports the
end-to-end metrics; with --trace 1 it makes a warm-up run, an untraced run and
a traced run, and reports the per-layer metrics. The last line of standard output is a JSON
object with the keys correct, attempted, failed and metrics.
See perfbench/README.md.
"""

import os
import sys

# Cap BLAS threads at the CPU count before numpy loads.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    if not os.environ.get(_var, "").isdigit() or not 1 <= int(os.environ[_var]) <= NPROC:
        os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 5
MIN_REPS = 3
IMPORT_SNIPPET = f"import sys; sys.path.insert(0, {str(SRC)!r}); import wavefuse"

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "mpix_per_s": "Mpix/s",
    "peak_mib": "MiB",
    "final_loss": "loss",
}


def load_library():
    """Import wavefuse from this checkout's src/, and nowhere else."""
    if not (SRC / "wavefuse" / "__init__.py").is_file():
        raise SystemExit(f"error: no wavefuse sources under {SRC}")
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("wavefuse")
    if Path(pkg.__file__).resolve().parent != SRC / "wavefuse":
        raise SystemExit(f"error: imported wavefuse from {pkg.__file__}, not {SRC}")
    lib = argparse.Namespace(pkg=pkg)
    for layer in layers.MODULES:
        setattr(lib, layer, importlib.import_module(f"wavefuse.{layer}"))
    return lib


def fingerprint():
    """What the numbers depend on besides the code."""
    blas = {}
    for lib_path in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        so = ctypes.CDLL(lib_path)
        for key, names in (
            ("config", ("scipy_openblas_get_config64_", "openblas_get_config")),
            ("corename", ("scipy_openblas_get_corename64_", "openblas_get_corename")),
            ("threads", ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads")),
        ):
            for name in names:
                if hasattr(so, name):
                    fn = getattr(so, name)
                    fn.restype = ctypes.c_int if key == "threads" else ctypes.c_char_p
                    value = fn()
                    blas[key] = value.decode() if isinstance(value, bytes) else value
                    break
    build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {
        "numpy": np.__version__,
        "blas_build": f"{build.get('name')} {build.get('version')}",
        "openblas_runtime": blas or "unknown",
        "OPENBLAS_CORETYPE": os.environ.get("OPENBLAS_CORETYPE", "unset"),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": NPROC,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "src_lines": src_lines,  # information only
    }


def set_up(cls, lib, seed, reps):
    """Median time to start a fresh interpreter that imports the library, plus
    input generation, weight initialisation and reference load."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], check=True, timeout=120)
        wl = cls(lib, seed)
        ref = workloads.load_reference(cls.name, seed)
        times.append(time.perf_counter() - t0)
    return wl, ref, statistics.median(times)


def timed_run(wl):
    t0 = time.perf_counter()
    out = wl.run()
    return out, time.perf_counter() - t0


def measure(wl, ref, seconds):
    """End-to-end metrics: a tracemalloc pass (also the warm-up), then timed
    runs until `seconds` have passed and at least MIN_REPS were made, so the
    median never rests on fewer. Every run's outputs are checked."""
    tracemalloc.start()
    out = wl.run()
    peak_mib = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    failures = [workloads.check(wl, out, ref)]
    final_loss = wl.final_loss(out)

    times = []
    start = time.perf_counter()
    while len(times) < MIN_REPS or time.perf_counter() - start < seconds:
        out, dt = timed_run(wl)
        times.append(dt)
        failures.append(workloads.check(wl, out, ref))
    run_s = statistics.median(times)
    metrics = {
        "run_s": run_s,
        "mpix_per_s": wl.pixels / 1e6 / run_s,
        "peak_mib": peak_mib,
        "final_loss": final_loss,
    }
    return metrics, failures, {"run_times_s": times}


def traced(wl, ref, lib):
    """Per-layer metrics: a warm-up run, one untraced run, then one traced run
    of the same inputs. The traced outputs must equal the untraced ones bit
    for bit and the span call counts must match the workload's expected
    counts."""
    out_warm = wl.run()
    out_plain, plain_s = timed_run(wl)
    tracer = spans.Tracer()
    with spans.instrument(
        tracer,
        {layer: getattr(lib, layer) for layer in layers.MODULES},
        [lib.pkg] + [getattr(lib, layer) for layer in layers.MODULES],
        on_call=layers.COUNTERS,
        keep_results=("losses.loss_total",),
    ):
        out_traced, traced_s = timed_run(wl)

    failures = [workloads.check(wl, out, ref) for out in (out_warm, out_plain, out_traced)]
    if not all(np.array_equal(out_plain[k], out_traced[k]) for k in out_plain):
        failures[-1].append("traced outputs differ from untraced outputs")
    for name, want in wl.expected_calls(tracer).items():
        got = tracer.get(name).calls
        if got != want:
            failures[-1].append(f"span {name}: {got} calls, expected {want}")

    qw_peak = 0.0
    if wl.name == "score":
        tracemalloc.start()
        lib.metrics.q_w(wl.a, wl.b, wl.f)
        qw_peak = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    metrics = layers.per_layer(tracer, wl, qw_peak)
    metrics["trace.overhead_s"] = traced_s - plain_s
    return metrics, failures, {
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "computed_counts": layers.COMPUTED,
    }


def run_workload(name, lib, seed, seconds, trace):
    wl, ref, setup_s = set_up(workloads.WORKLOADS[name], lib, seed, 1 if trace else SETUP_REPS)
    if trace:
        metrics, failures, detail = traced(wl, ref, lib)
        units = layers.UNITS
    else:
        metrics, failures, detail = measure(wl, ref, seconds)
        metrics["setup_s"] = setup_s
        units = END_TO_END_UNITS
    problems = [p for f in failures for p in f]
    for p in problems:
        print(f"check failed [{name}]: {p}", file=sys.stderr)
    failed = sum(1 for f in failures if f)
    detail.update(
        workload=name,
        seed=seed,
        reference_checked=ref is not None,
        fail_frac=failed / len(failures),
    )
    result = {
        "correct": failed == 0,
        "attempted": len(failures),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return result, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    lib = load_library()
    env = fingerprint()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, detail = run_workload(name, lib, args.seed, args.seconds, args.trace)
        results[name] = result
        print("report " + json.dumps({**detail, "env": env}))
        for metric, m in result["metrics"].items():
            print(f"{name:10s} {metric:36s} {m['value']:14.6g} {m['unit']}")
        print(f"{name:10s} {'fail_frac':36s} {detail['fail_frac']:14.6g} share of runs")
    if len(names) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": m
                for name, r in results.items()
                for metric, m in r["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
