"""Benchmark for l1bn: end-to-end figures per workload, or per-layer figures traced.

    python3 perfbench/run.py                               # every workload, one process
    python3 perfbench/run.py --workload bn_conv4d --seed 3 --seconds 20 --trace 1

Run from the repository root or anywhere else: the library is imported from
the ``src/`` directory beside this one, never from an installed copy.  The
metric names and units come from ``BENCHMARK.json``.  Human-readable lines go
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the run spends half
its time untraced and half traced, and reports the per-layer metrics.
Results and spans are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ARCH = ROOT / "scripts" / "sample.arch"
OUT = HERE / "out"
# One BLAS thread: the parity matmuls are far too small to gain from more, and
# a single thread keeps timings steady on a small shared machine.
BLAS_THREADS = 1
SETUP_REPEATS = 9
MIN_OPS = 100
MIN_ROUNDS = 3
MODULES = ("tensor", "batchnorm", "gradcheck", "trainer", "ratio", "costmodel", "cli")
_SC_LEVEL3_CACHE_SIZE = 194  # glibc sysconf name


def load_library() -> dict:
    """Import l1bn afresh from SRC; returns its modules by short name."""
    for name in [n for n in sys.modules if n == "l1bn" or n.startswith("l1bn.")]:
        del sys.modules[name]
    package = importlib.import_module("l1bn")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"l1bn was imported from {package.__file__}, not from {SRC}")
    lib = {name: importlib.import_module(f"l1bn.{name}") for name in MODULES}
    lib["l1bn"] = package
    return lib


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    libc = ctypes.CDLL(None)
    libc.sysconf.restype = ctypes.c_long
    l3 = libc.sysconf(_SC_LEVEL3_CACHE_SIZE)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_runtime": _openblas_threads(numpy),
        "nproc": len(os.sched_getaffinity(0)),
        "l3_bytes": l3 if l3 > 0 else None,
    }


def _openblas_threads(numpy) -> int | None:
    """Thread count OpenBLAS reports at run time, where numpy bundles it."""
    for path in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        getter = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.restype = ctypes.c_int
            return getter()
    return None


def set_up(make, seed: int):
    """Import l1bn afresh, build the inputs and warm up; returns the workload,
    the library and the seconds it took."""
    started = perf_counter()
    lib = load_library()
    workload = make()
    workload.setup(lib, seed)
    workload.warmup()
    return workload, lib, perf_counter() - started


def timed_set_up(make, seed: int) -> float:
    """Seconds of one more set-up, whose workload is then dropped."""
    workload, _, seconds = set_up(make, seed)
    workload.close()
    return seconds


def measure(workload, seconds: float, untraced, min_ops: int = 0, set_up_again=None):
    """Whole rounds until ``seconds`` have passed, at least ``min_ops`` ops ran
    and every op was repeated ``MIN_ROUNDS`` times.

    With ``set_up_again``, a call that times a fresh set-up, SETUP_REPEATS - 1
    set-ups are timed between rounds, spread evenly over the run, so that their
    median spans the same stretch of host load as the rounds.  Returns the
    rounds and the set-up times.
    """
    rounds, ops, setup_times = [], 0, []
    wanted = SETUP_REPEATS - 1 if set_up_again else 0
    started = perf_counter()
    deadline = started + seconds
    while len(rounds) < MIN_ROUNDS or perf_counter() < deadline or ops < min_ops:
        rounds.append(workload.round(untraced))
        ops += len(rounds[-1].op_ns)
        due = (perf_counter() - started) / seconds * SETUP_REPEATS
        if len(setup_times) < min(wanted, int(due)):
            setup_times.append(set_up_again())
    while len(setup_times) < wanted:
        setup_times.append(set_up_again())
    return rounds, setup_times


def fastest(rounds, piece: str) -> list[int]:
    """The pieces ("op" or "gap") of one round, each timed as the fastest
    piece of the run with the same key, that is, doing the same work.

    Pieces with equal keys do equal, deterministic work, so their times differ
    only by what the host did meanwhile.  On a shared host other tenants slow
    stretches of a run, by up to 1.7x on a 2-vCPU VM, and never speed one up;
    the minimum over repeats is the estimate least moved by that.
    """
    best = {}
    for r in rounds:
        for key, ns in zip(getattr(r, piece + "_keys"), getattr(r, piece + "_ns")):
            best[key] = min(ns, best.get(key, ns))
    return [best[key] for key in getattr(rounds[0], piece + "_keys")]


def wall_s(rounds) -> float:
    """One round as the sum of its pieces, each at its fastest repeat."""
    return (sum(fastest(rounds, "op")) + sum(fastest(rounds, "gap"))) / 1e9


def end_to_end(rounds, setup_s: float) -> dict:
    op_ns = fastest(rounds, "op")
    items = rounds[0].op_items
    # inclusive: with few ops (three on bn_conv4d) p90 stays within the data
    deciles = statistics.quantiles([ns / 1e6 for ns in op_ns], n=10, method="inclusive")
    return {
        "setup_s": setup_s,
        "wall_s": wall_s(rounds),
        "items_per_s": sum(items) / sum(ns for ns, n in zip(op_ns, items) if n) * 1e9,
        "op_ms.p50": deciles[4],
        "op_ms.p90": deciles[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, rounds, untraced_rounds, workload, lib) -> dict:
    """Per-layer figures; counts and self times are per round of the traced pass."""
    n = len(rounds)

    def self_s(span):
        return tracer.self_ns[span] / 1e9 / n

    def p50(key):
        values = tracer.samples.get(key)
        return statistics.median(values) if values else 0.0

    m = {
        "tensor.reduce.calls": tracer.calls["tensor.reduce"] / n,
        "tensor.reduce.self_s": self_s("tensor.reduce"),
        "batchnorm.fwd_train.calls": tracer.calls["batchnorm.fwd_train"] / n,
        "batchnorm.fwd_train.self_s": self_s("batchnorm.fwd_train"),
        "batchnorm.bwd.self_s": self_s("batchnorm.bwd"),
    }
    for phase in ("fwd_train", "bwd", "fwd_infer"):
        for mode in ("l2", "l1", "l1c"):
            key = f"batchnorm.{phase}.{mode}.ns_per_elem"
            m[key + ".p50"] = p50(key)
    fwd_bwd = {mode: m[f"batchnorm.fwd_train.{mode}.ns_per_elem.p50"]
               + m[f"batchnorm.bwd.{mode}.ns_per_elem.p50"] for mode in ("l2", "l1")}
    m["batchnorm.cpu_time_ratio_l2_over_l1"] = (
        fwd_bwd["l2"] / fwd_bwd["l1"] if fwd_bwd["l2"] and fwd_bwd["l1"] else 0.0)
    costmodel = lib["costmodel"]
    profile = costmodel.model_report(
        [costmodel.LayerShape(f"layer{i}", *shape) for i, shape in enumerate(workload.layer_shapes)])
    m["costmodel.time_ratio_l2_over_l1"] = profile.time_ratio_l2_over_l1
    m["costmodel.power_saving_pct"] = profile.power_saving_pct
    for part in ("dense", "relu", "bn_layer", "softmax", "sgd", "eval"):
        m[f"trainer.{part}.self_s"] = self_s(f"trainer.{part}")
    m["trainer.steps"] = tracer.calls["trainer.step"] / n
    m["gradcheck.probes"] = tracer.counts["gradcheck.probes"] / n
    m["gradcheck.probe_us.p50"] = p50("gradcheck.probe_us")
    ratio_ns = tracer.total_ns["ratio"]
    m["ratio.samples_per_s"] = tracer.counts["ratio.samples"] / ratio_ns * 1e9 if ratio_ns else 0.0
    m["ratio.self_s"] = self_s("ratio")
    m["cli.self_s"] = self_s("cli")
    m["gradcheck.max_rel_err"] = tracer.max_rel_err
    traced, untraced = wall_s(rounds), wall_s(untraced_rounds)
    m["trace.overhead_s"] = traced - untraced
    m["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
    return m


def run_workload(make, seed: int, seconds: float, trace: bool, env: dict, spec: dict):
    workload, lib, first_setup = set_up(make, seed)
    try:
        if not trace:
            rounds, setup_times = measure(workload, seconds, contextlib.nullcontext, MIN_OPS,
                                          lambda: timed_set_up(make, seed))
            metrics = end_to_end(rounds, statistics.median([first_setup] + setup_times))
        else:
            untraced_rounds, _ = measure(workload, seconds / 2, contextlib.nullcontext)
            tracer = Tracer()
            tracer.instrument(lib)
            try:
                rounds, _ = measure(workload, seconds / 2, tracer.paused)
            finally:
                tracer.restore()
            metrics = per_layer(tracer, rounds, untraced_rounds, workload, lib)
            tracer.write_spans(OUT / f"spans-{workload.name}-seed{seed}.jsonl.gz")
        limits = workload.known_limits()
        if trace:
            metrics.update({k: v for k, v in limits.items() if k in spec})
    finally:
        workload.close()
    unknown = sorted(set(metrics) - set(spec))
    if unknown:
        raise RuntimeError(f"{workload.name}: metrics {unknown} are not in BENCHMARK.json")
    # a per-layer metric of a layer this workload does not exercise reads 0
    metrics = {**dict.fromkeys(spec, 0.0), **metrics}
    ops = sum(len(r.op_ns) for r in rounds)
    failed = sum(r.failed for r in rounds)
    report(workload, seed, rounds, ops, failed, metrics, limits, env, spec, trace)
    result = {"workload": workload.name, "why": workload.why, "seed": seed,
              "seconds": seconds, "trace": int(trace), "environment": env,
              "rounds": len(rounds), "ops": ops, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": spec[k]} for k in spec},
              "known_limits": limits}
    path = OUT / f"result-{workload.name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(result, indent=2) + "\n")
    return ops, failed, {k: metrics[k] for k in spec}


def report(workload, seed, rounds, ops, failed, metrics, limits, env, spec, trace):
    print(f"== {workload.name}  seed {seed}  closed loop, 1 caller  "
          f"{len(rounds)} rounds, {ops} ops ({'traced' if trace else 'untraced'})")
    print(f"   why: {workload.why}")
    for line in workload.describe(env):
        print(f"   {line}")
    for name, unit in spec.items():
        note = ""
        if name == "batchnorm.cpu_time_ratio_l2_over_l1":
            note = "  (measured, numpy on this CPU)"
        elif name.startswith("costmodel."):
            note = "  (modelled FPGA figure, not a measurement)"
        elif name == "setup_s":
            note = f"  (median of {SETUP_REPEATS} set-ups)"
        elif name in limits:
            note = "  (known limit, not counted as an op)"
        print(f"   {name:<42} {metrics[name]:>14.6g} {unit}{note}")
    print(f"   {'failed_ops':<42} {failed / max(ops, 1):>14.6g} fraction ({failed} of {ops})")
    for name, value in limits.items():
        if name not in spec:
            print(f"   known limit: {name} = {value:.6g}  (reported, not counted as an op)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    bench_file = ROOT / "BENCHMARK.json"
    for needed in (bench_file, SRC / "l1bn" / "__init__.py", ARCH):
        if not needed.is_file():
            print(f"run.py: {needed} not found; run inside a full l1bn checkout",
                  file=sys.stderr)
            return 2
    bench = json.loads(bench_file.read_text())
    spec = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}

    # BLAS reads its thread count when numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import workloads

    makers = {
        "parity_mlp": workloads.ParityMlp,
        "bn_conv4d": workloads.BnConv4d,
        "validate": lambda: workloads.Validate(OUT, ARCH),
    }
    names = list(makers) if args.workload == "all" else [args.workload]
    if any(name not in makers for name in names):
        parser.error(f"--workload must be one of {', '.join(makers)} or all")
    OUT.mkdir(exist_ok=True)
    env = environment()
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    attempted = failed = 0
    metrics = {}
    for name in names:
        ops, bad, values = run_workload(makers[name], args.seed, args.seconds,
                                        bool(args.trace), env, spec)
        attempted += ops
        failed += bad
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: {"value": v, "unit": spec[k]} for k, v in values.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
