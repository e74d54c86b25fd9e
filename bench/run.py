"""Benchmark of the crepant pipelines, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload exact-rational --seed 0 --seconds 14 --trace 0

Workloads are described in workloads.py.  Everything runs in one
single-threaded process, apart from the set-up probes: set-up (import,
building and validating the 8 built-in geometries, one warm-up operation)
is timed SETUP_REPEATS times, each in a fresh interpreter started after the
previous one has ended, and the median is reported.

Times are wall times scaled to a reference host speed (speed.py): on a
shared host the raw wall time of the same pass drifts by up to 2x within
minutes, the scaled time by a few percent.  The report also prints the raw
wall times.

--trace 0  times passes over the workload's operations with tracing off,
           for about --seconds reference seconds (at least one pass), and
           reports the end-to-end metrics as medians over the passes.
--trace 1  is a separate run for the per-layer metrics: one untraced pass,
           one traced pass (spans kept in memory, written to
           .bench_out/ at the end), microbenchmarks of the scalar and product
           layers, and one pass under cProfile.  Its times are scaled like
           run_s, except the profiled pass's.

Every operation's output is checked (workloads.py); an exception or a
failed check counts as a failure and does not stop the run.  The report
lists every metric by name with its unit; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
# a run must end within 180 s; cProfile slows a pass down up to about
# PROFILE_SLOWDOWN times, and the profile pass is skipped when it would end
# after RUN_LIMIT_S (only on a host running far below its usual speed)
RUN_LIMIT_S = 165
PROFILE_SLOWDOWN = 5

# name -> unit; all are "lower is better"
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "slowest_op_s": "s",
    "peak_rss_mb": "MB",
}

# name -> (unit, better, what it should move).  Counts must repeat exactly
# from run to run; they explain a change rather than measure it.
PER_LAYER = {
    "geometry.builtin_s": ("s", "lower", "setup_s on every workload"),
    "ifunction.build_s": ("s", "lower",
                          "run_s on exact-laurent, slightly on exact-rational"),
    "ifunction.expand_s": ("s", "lower",
                           "run_s and slowest_op_s on exact-rational"),
    "mirror.extract_s": ("s", "lower",
                         "run_s and slowest_op_s on exact-rational; "
                         "about 0 on exact-laurent"),
    "mirror.invert_s": ("s", "lower", "run_s on exact-*"),
    "mirror.j_s": ("s", "lower", "run_s and slowest_op_s on exact-rational"),
    "mirror.table_s": ("s", "lower", "run_s on exact-*"),
    "continuation.continue_s": ("s", "lower",
                                "run_s on numeric-umatrix (equivariant)"),
    "continuation.xside_s": ("s", "lower",
                             "run_s on numeric-umatrix (equivariant)"),
    "continuation.solve_s": ("s", "lower",
                             "run_s on numeric-umatrix (nonequivariant)"),
    "continuation.mb_s": ("s", "lower", "run_s on numeric-mb only"),
    "lambda_rat.mul_us": ("us", "lower", "run_s on exact-*, not numeric-*"),
    "lambda_rat.add_us": ("us", "lower", "run_s on exact-*, not numeric-*"),
    "algebra.elem_mul_us": ("us", "lower", "run_s on exact-*, not numeric-*"),
    "ifunction.expand_us": ("us", "lower", "run_s on exact-rational"),
    "lambda_rat.self_frac": ("ratio", "lower",
                             "run_s on exact-*, not numeric-*"),
    "fractions.self_frac": ("ratio", "lower",
                            "run_s on exact-*, not numeric-*"),
    "algebra.self_frac": ("ratio", "lower", "run_s on exact-*, not numeric-*"),
    "ifunction.self_frac": ("ratio", "lower", "run_s on exact-*"),
    "mirror.self_frac": ("ratio", "lower", "run_s on exact-*"),
    "continuation.self_frac": ("ratio", "lower", "run_s on numeric-*"),
    "mpmath.self_frac": ("ratio", "lower", "run_s on numeric-mb only"),
    "lambda_rat.calls": ("count", "lower", "run_s on exact-*, not numeric-*"),
    "fractions.calls": ("count", "lower", "run_s on exact-*, not numeric-*"),
    "algebra.calls": ("count", "lower", "run_s on exact-*, not numeric-*"),
    "mpmath.calls": ("count", "lower", "run_s on numeric-*"),
    "geometry.lattice_points": ("count", "lower", "explains run_s"),
    "ifunction.coeffs": ("count", "higher", "explains run_s on exact-*"),
    "ifunction.den_share": ("ratio", "lower",
                            "explains run_s on exact-rational (44/45) vs "
                            "exact-laurent (0/325)"),
    "ifunction.den_factors": ("count", "lower",
                              "explains run_s on exact-rational"),
    "mirror.j_entries": ("count", "higher", "explains run_s on exact-*"),
    "mirror.table_rows": ("count", "higher", "explains run_s on exact-*"),
    "continuation.solve_equations": ("count", "lower",
                                     "explains run_s on numeric-umatrix"),
    "continuation.mb_height": ("count", "lower",
                               "explains run_s on numeric-mb"),
    "continuation.mb_corrections": ("count", "lower",
                                    "explains run_s on numeric-mb"),
    "continuation.mb_known_defect": ("count", "lower",
                                     "failed operations once ex2 is fixed"),
    "trace.overhead_frac": ("ratio", "lower",
                            "traced over plain run_s, -1; the plain pass "
                            "fills the continuation caches, so it reads low "
                            "on numeric-*"),
    "profile.overhead_x": ("ratio", "lower", "profiled over plain run_s"),
}

SETUP_PROBE = """\
import sys, time
start = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.warm_up(sys.argv[3], int(sys.argv[4]))
elapsed = time.perf_counter() - start
import speed
print(elapsed, speed.direct_factor())
"""


@dataclass
class Pass:
    """Outcome of one pass over a workload's operations."""

    op_spans: dict = field(default_factory=dict)  # name -> (start, end)
    results: dict = field(default_factory=dict)
    attempted: int = 0
    failures: list = field(default_factory=list)
    known_defects: list = field(default_factory=list)

    @property
    def op_times(self) -> dict:
        return {name: end - start for name, (start, end) in
                self.op_spans.items()}

    @property
    def run_s(self) -> float:
        return sum(self.op_times.values())

    @property
    def failed(self) -> int:
        return len({name for name, _ in self.failures})


def run_pass(ops, tracer, profiler=None, expect=()) -> Pass:
    """Run, time and check each operation once.

    With a profiler, only the operations themselves are profiled.  expect
    maps operation names to fingerprints the outputs must reproduce.
    """
    gc.collect()
    out = Pass()
    for op in ops:
        out.attempted += 1
        error = None
        start = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        try:
            with tracer.span("op:" + op.name):
                result = op.run(tracer)
        except Exception as exc:  # a failed operation must not stop the run
            error = exc
        finally:
            if profiler is not None:
                profiler.disable()
            out.op_spans[op.name] = (start, time.perf_counter())
        if error is not None:
            if op.known_defect and op.known_defect in str(error):
                out.known_defects.append(op.name)
            else:
                out.failures.append((op.name, "".join(
                    traceback.format_exception_only(error)).strip()))
            continue
        try:
            problems = op.check(result)
            if op.name in expect and op.fingerprint(result) != expect[op.name]:
                problems.append("output differs from the untraced pass")
        except Exception as exc:
            problems = ["check raised " + "".join(
                traceback.format_exception_only(exc)).strip()]
        out.failures.extend((op.name, p) for p in problems)
        out.results[op.name] = result
    return out


def check_declared_metrics() -> None:
    """Stop unless BENCHMARK.json declares exactly the metrics produced."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    if e2e != END_TO_END or layer != {k: v[:2] for k, v in PER_LAYER.items()}:
        raise SystemExit("BENCHMARK.json does not match the metrics of "
                         "bench/run.py")


def setup_probe(workload: str, seed: int) -> tuple:
    """(wall seconds, speed factor) of one set-up in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH_DIR),
         workload, str(seed)],
        capture_output=True, text=True, timeout=150, check=False)
    if done.returncode != 0:
        raise SystemExit("set-up probe failed:\n" + done.stderr)
    wall, factor = done.stdout.split()
    return float(wall), float(factor)


def pass_factor(p: Pass, sampler) -> float:
    starts, ends = zip(*p.op_spans.values())
    return sampler.factor(min(starts), max(ends)) or speed.direct_factor()


def scaled_op_times(p: Pass, sampler) -> dict:
    """Operation times scaled to the reference speed (see speed.py).

    An operation too short to hold MIN_SAMPLES samples takes its pass's
    factor.
    """
    whole = pass_factor(p, sampler)
    return {name: (end - start) * (sampler.factor(start, end) or whole)
            for name, (start, end) in p.op_spans.items()}


def timed_run(workload, seed, seconds, ops, wl) -> tuple:
    setups = [setup_probe(workload, seed) for _ in range(SETUP_REPEATS)]
    wl.warm_up(workload, seed)
    passes = []
    start = time.perf_counter()
    with speed.SpeedSampler() as sampler:
        # the budget is in reference seconds, so that the number of passes
        # does not follow the host's speed
        while True:
            passes.append(run_pass(ops, wl.NO_TRACE))
            now = time.perf_counter()
            factor = sampler.factor(start, now) or speed.direct_factor()
            if (now - start + passes[-1].run_s) * factor > seconds:
                break
    scaled = [scaled_op_times(p, sampler) for p in passes]
    metrics = {
        "setup_s": statistics.median(wall * factor for wall, factor in setups),
        "run_s": statistics.median(sum(t.values()) for t in scaled),
        "slowest_op_s": statistics.median(max(t.values()) for t in scaled),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [f"{len(passes)} pass(es); wall seconds per pass: "
             + ", ".join(f"{p.run_s:.3f}" for p in passes)
             + "; scaled: " + ", ".join(f"{sum(t.values()):.3f}"
                                        for t in scaled),
             f"{len(sampler.samples)} speed samples, kernel median "
             f"{statistics.median(k for _, k in sampler.samples) * 1e3:.3f} "
             f"ms (reference {speed.REFERENCE_S * 1e3:g} ms)",
             "set-up wall seconds per probe: "
             + ", ".join(f"{wall:.3f}" for wall, _ in setups)]
    return metrics, passes, notes


def traced_run(workload, seed, ops, wl, builtin_s, t_start) -> tuple:
    import layers

    wl.warm_up(workload, seed)
    tracer = layers.Tracer()
    with speed.SpeedSampler() as sampler:
        plain = run_pass(ops, wl.NO_TRACE)
        expect = {op.name: op.fingerprint(plain.results[op.name])
                  for op in ops if op.name in plain.results}
        with layers.traced_expand(tracer):
            traced = run_pass(ops, tracer, expect=expect)
    plain_s = sum(scaled_op_times(plain, sampler).values())
    traced_factor = pass_factor(traced, sampler)
    operands = wl.operand_ifunctions(workload, plain.results)
    micro_factor = speed.direct_factor()
    micro = {name: us * micro_factor for name, us in
             layers.microbenchmarks(operands, seed).items()}
    passes = [plain, traced]
    per_module = {}
    projected = (time.perf_counter() - t_start
                 + PROFILE_SLOWDOWN * plain.run_s)
    if projected <= RUN_LIMIT_S:
        # no sampler here: its kernel calls would show in the profile
        profiler = cProfile.Profile()
        passes.append(run_pass(ops, wl.NO_TRACE, profiler=profiler))
        per_module = layers.module_stats(profiler)

    metrics = dict.fromkeys(PER_LAYER, 0)
    metrics["geometry.builtin_s"] = builtin_s
    for name, secs in tracer.self_times().items():
        if name in layers.SPAN_METRICS:
            metrics[layers.SPAN_METRICS[name]] += secs * traced_factor
    for name, value in tracer.counts.items():
        if name in metrics:
            metrics[name] = value
    if tracer.counts.get("ifunction.coeffs"):
        metrics["ifunction.den_share"] = (tracer.counts["ifunction.den_coeffs"]
                                          / tracer.counts["ifunction.coeffs"])
    metrics["continuation.mb_known_defect"] = len(plain.known_defects)
    metrics.update(micro)
    total_self = sum(m["self_s"] for m in per_module.values())
    for mod in layers.PROFILED_MODULES:
        if mod in per_module:
            metrics[f"{mod}.self_frac"] = per_module[mod]["self_s"] / total_self
            if f"{mod}.calls" in metrics:
                metrics[f"{mod}.calls"] = per_module[mod]["calls"]
    metrics["trace.overhead_frac"] = (
        sum(scaled_op_times(traced, sampler).values()) / plain_s - 1)
    if per_module:
        # unscaled, so indicative only
        metrics["profile.overhead_x"] = passes[2].run_s / plain.run_s

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(
        {"workload": workload, "seed": seed, "spans": tracer.spans,
         "counts": tracer.counts}, indent=1), encoding="utf-8")
    profiled = (f"profiled {passes[2].run_s:.3f}" if per_module else
                f"profile pass skipped, it would end after {RUN_LIMIT_S} s")
    notes = [f"wall seconds: plain pass {plain.run_s:.3f}, traced "
             f"{traced.run_s:.3f}, {profiled}; plain pass scaled "
             f"{plain_s:.3f}; {len(tracer.spans)} spans written to "
             f"{out_dir.name}/"]
    return metrics, passes, notes


def main(argv=None) -> int:
    t_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=14)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    check_declared_metrics()
    if not (SRC / "crepant").is_dir():
        raise SystemExit(f"no crepant sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads as wl
    from crepant import BUILTIN_NAMES, builtin

    if args.workload not in wl.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(wl.WORKLOADS)}")
    start = time.perf_counter()
    for name in BUILTIN_NAMES:
        builtin(name)
    builtin_s = (time.perf_counter() - start) * speed.direct_factor()
    ops = wl.operations(args.workload, args.seed, wl.load_reference())

    if args.trace:
        metrics, passes, notes = traced_run(args.workload, args.seed, ops, wl,
                                            builtin_s, t_start)
        units = {k: v[0] for k, v in PER_LAYER.items()}
    else:
        metrics, passes, notes = timed_run(args.workload, args.seed,
                                           args.seconds, ops, wl)
        units = END_TO_END

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    failures = [f for p in passes for f in p.failures]
    known = [k for p in passes for k in p.known_defects]
    results = {}
    for p in passes:
        results.update(p.results)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    if args.workload.startswith("numeric-"):
        smp = wl.samples(args.seed)
        print(f"  samples: lambda {smp.lam}, MB q {smp.q}")
    for note in notes:
        print("  " + note)
    for name, secs in passes[0].op_times.items():
        print(f"  op {name:<28} {secs:10.3f} s")
    for name, value in metrics.items():
        extra = f"  ({PER_LAYER[name][2]})" if args.trace else ""
        print(f"  {name:<30} {value:.6g} {units[name]}{extra}")
    print(f"  {'failed_frac':<30} {failed}/{attempted} = "
          f"{failed / attempted:.6g} ratio")
    for name, value in wl.quality(results).items():
        print(f"  {name:<30} {value:.6g} log10")
    for name in sorted(set(known)):
        print(f"  known defect: {name} raised '{wl.KNOWN_DEFECT}' "
              f"({known.count(name)}/{attempted} attempts)")
    for name, problem in failures:
        print(f"  FAILED {name}: {problem}")

    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
