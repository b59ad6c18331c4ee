#!/usr/bin/env python3
"""Benchmark the chopshop command on one workload, or on all of them.

    python3 benchmarks/run.py --workload plane-grid --seed 0 --seconds 10 --trace 0
    python3 benchmarks/run.py --workload all --trace 1

Each op is one ``chopshop`` invocation driven in-process through
``chopshop.cli.run(argv)``, imported from ``src/`` of the checkout this file
sits in.  A run repeats whole rounds of the workload's ops until
``--seconds`` have passed, clearing chopshop's lazily filled caches before
each op so that every op pays for them as a fresh invocation does.  The
outputs are then checked against the independent computations in
``oracles.py``.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` untraced and traced rounds alternate
and the object carries the per-layer metrics and the tracing overhead.  The
metric names and units are those listed in BENCHMARK.json.  Each run also
leaves a record, and with tracing its spans, under ``.bench_runs/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import importlib
import io
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
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_runs"
SETUP_SAMPLES = 3


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--probe-dir", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_chopshop() -> dict:
    """chopshop's modules, imported from this checkout's src/ and nowhere else."""
    if not (SRC / "chopshop" / "cli.py").is_file():
        raise SystemExit(f"error: no chopshop sources under {SRC}")
    sys.path.insert(0, str(SRC))
    modules = {
        name: importlib.import_module(f"chopshop.{name}")
        for name in ("grading", "formulas", "modlinalg", "pointideals", "verify", "waring", "cli")
    }
    if Path(modules["cli"].__file__).resolve().parent != SRC / "chopshop":
        raise SystemExit(f"error: chopshop was imported from {modules['cli'].__file__}")
    return modules


def machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def setup_samples(workload: str, seed: int) -> list[float]:
    """Seconds from starting a fresh interpreter to having imported
    chopshop.cli and built the inputs, once per sample."""
    samples = []
    for k in range(SETUP_SAMPLES):
        probe_dir = OUT / f"probe-{os.getpid()}-{k}"
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe", "--probe-dir", str(probe_dir)],
            capture_output=True, text=True, timeout=120,
        )
        shutil.rmtree(probe_dir, ignore_errors=True)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]) - start)
    return samples


def lazy_caches(modules: dict) -> list:
    """cache_clear of every memoized function in chopshop's modules."""
    found = {}
    for module in modules.values():
        for value in vars(module).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                found[id(value)] = clear
    return list(found.values())


def run_op(entry, op) -> tuple[int, str, float]:
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = entry(list(op.argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception:  # an op that crashes counts as failed; the run goes on
        code = -1
        traceback.print_exc()
    return code, buf.getvalue(), time.perf_counter() - start


def run_rounds(ops, modules, seconds: int, min_rounds: int, tracer) -> list[dict]:
    """Whole rounds until `seconds` have passed and at least `min_rounds`
    are done.  With a tracer, rounds come in groups of four: untraced,
    traced, traced, untraced.  A process's first round runs on a cold heap
    and is slower, and the group order keeps that from counting as tracing
    overhead."""
    cli = modules["cli"]
    caches = lazy_caches(modules)
    rounds: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 4 in (1, 2)
        rec = {"traced": traced, "times": [], "codes": [], "outputs": []}
        if traced:
            tracer.install(modules)
            entry = tracer.wrap("cli.run", cli.run)
            rec["first_span"] = len(tracer.spans)
        else:
            entry = cli.run
        try:
            for op in ops:
                for clear in caches:
                    clear()
                gc.collect()
                if traced:
                    tracer.op_id += 1
                code, output, elapsed = run_op(entry, op)
                rec["times"].append(elapsed)
                rec["codes"].append(code)
                rec["outputs"].append(output)
        finally:
            if traced:
                tracer.uninstall()
                rec["last_span"] = len(tracer.spans)
        rounds.append(rec)
        if (time.perf_counter() - start >= seconds and len(rounds) >= min_rounds
                and (tracer is None or not len(rounds) % 4)):
            return rounds


def check_rounds(workload: str, ops, rounds) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems).  The first round's outputs get the
    checks and the exact recomputation.  Exact outputs (all but Waring's)
    must repeat byte for byte in later rounds; Waring outputs are checked
    again in every round."""
    import workloads

    exact = workload != "waring-roundtrip"
    head = rounds[0]
    first = [
        workloads.check_op(op, code, output) or workloads.recompute(op, output)
        for op, code, output in zip(ops, head["codes"], head["outputs"])
    ]
    attempted = failed = 0
    problems: list[str] = []
    for index, rec in enumerate(rounds):
        for i, (op, code, output) in enumerate(zip(ops, rec["codes"], rec["outputs"])):
            attempted += 1
            if index == 0:
                found = first[i]
            elif not exact:
                found = workloads.check_op(op, code, output)
            elif (code, output) == (head["codes"][i], head["outputs"][i]):
                found = first[i]
            else:
                found = [f"{op.label}: output differs from the first round's"]
            if found:
                failed += 1
                problems.extend(found)
    return attempted, failed, problems


def best_times(rounds) -> list[float]:
    """Each op's fastest time over the given rounds."""
    return [min(times) for times in zip(*(rec["times"] for rec in rounds))]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def benchmark(args) -> int:
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    modules = import_chopshop()
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    setup = setup_samples(args.workload, args.seed)
    inputs = OUT / f"inputs-{tag}"
    ops = workloads.make_ops(args.workload, args.seed, inputs)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    rounds = run_rounds(ops, modules, args.seconds,
                        workloads.MIN_ROUNDS.get(args.workload, 1), tracer)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed, problems = check_rounds(args.workload, ops, rounds)
    shutil.rmtree(inputs, ignore_errors=True)
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)

    best = best_times([rec for rec in rounds if not rec["traced"]])
    metrics = {}
    if not args.trace:
        measured = {
            "setup_s": statistics.median(setup),
            "total_s": sum(best),
            "op_s_p50": statistics.median(best),
            "peak_rss_mb": peak_mb,
        }
        for m in spec["end_to_end"]:
            metrics[m["name"]] = metric(measured[m["name"]], m["unit"])
    else:
        from tracing import layer_metrics

        traced = [rec for rec in rounds if rec["traced"]]
        per_round = [layer_metrics(tracer.spans, rec["first_span"], rec["last_span"]) for rec in traced]
        traced_total = sum(best_times(traced))
        extra = {
            "trace.overhead_s": traced_total - sum(best),
            "trace.untraced_total_s": sum(best),
            "trace.traced_total_s": traced_total,
        }
        for m in spec["per_layer"]:
            name = m["name"]
            value = extra[name] if name in extra else statistics.median(
                layer[name] for layer in per_round
            )
            metrics[name] = metric(value, m["unit"])
        with open(OUT / f"spans-{tag}.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(), "setup_samples": setup,
        "ops": [op.label for op in ops],
        "rounds": [{"traced": rec["traced"], "times": rec["times"], "codes": rec["codes"]} for rec in rounds],
        "problems": problems, "metrics": metrics,
    }
    (OUT / f"run-{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"{args.workload} seed={args.seed} rounds={len(rounds)} ops/round={len(ops)} "
          f"attempted={attempted} failed={failed}")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload, each in a fresh process, and one summary table."""
    from workloads import WORKLOADS

    results, status = {}, 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit code {proc.returncode}")
            status = 1
            continue
        results[workload] = result = json.loads(lines[-1])
        status |= not result["correct"]
        print(f"{workload}: attempted={result['attempted']} failed={result['failed']} "
              f"correct={result['correct']}")
        for name, m in result["metrics"].items():
            print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        import workloads

        import_chopshop()
        workloads.make_ops(args.workload, args.seed, Path(args.probe_dir))
        print(time.monotonic())
        return 0
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
