"""Benchmark for ltw: end-to-end metrics per workload, per-layer metrics
from a separate traced run.

    python3 bench/run.py                     # every workload, untraced then traced
    python3 bench/run.py --workload corpus --seed 3 --seconds 30 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  For each workload the inputs are generated from
``--seed`` into ``.bench_work/`` (removed afterwards), set-up time is taken
from fresh interpreters, and the ops run in one fresh subprocess per
workload and mode: a closed loop with one client, single process, single
thread.  With ``--workload`` the last line of stdout is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``): the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The traced run
also writes its spans to ``.bench_out/spans-<workload>.tsv``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_RUNS = 15         # fresh interpreters per run; setup_s is their median
TAIL_BEYOND = 10        # latency_tail_ms: highest percentile with 10 samples above
WORKER_TIMEOUT_S = 150
SPANS = "spans.tsv"

SETUP_CODE = """\
import sys, time
sys.path.insert(0, {src!r})
t0 = time.perf_counter()
import ltw
ltw.words.fingerprinter()
print(time.perf_counter() - t0)
"""

END_TO_END = [("setup_s", "s"), ("latency_p50_ms", "ms"),
              ("latency_tail_ms", "ms"), ("throughput_ops_s", "1/s"),
              ("peak_rss_mb", "MB")]

# span names whose self time per op is reported as <name>_s
SELF_TIMES = ["ltwfile.load", "ltwfile.print", "core.trim", "core.validate",
              "core.evaluate", "normalize.pipeline", "normalize.eliminate",
              "normalize.erase_order", "normalize.parts", "normalize.reorder",
              "analysis.quasi_periodicity", "analysis.pair_space",
              "analysis.domains_equal", "analysis.same_ordered",
              "equivalence.decide", "equivalence.morphism",
              "oracle.witness_hunt", "words.equals", "words.expand"]
CALLS = ["analysis.quasi_periodicity", "oracle.witness_hunt", "words.equals"]
COUNTS = ["analysis.pairs", "normalize.states_out", "normalize.eliminated",
          "normalize.parts_passes", "words.pool_nodes"]
PER_LAYER = ([("cli.main_self_s", "s/op")]
             + [(f"{n}_s", "s/op") for n in SELF_TIMES]
             + [(f"{n}_calls", "count/op") for n in CALLS]
             + [(n, "count/op") for n in COUNTS]
             + [("equivalence.sampled_ratio", "ratio"),
                ("trace.overhead", "ratio")])


class BenchError(Exception):
    pass


# -- the parent: inputs, set-up time, one subprocess per workload -------------

def prepare(workload: str, seed: int, workdir: str) -> None:
    import workloads
    ops = workloads.generate(workload, seed, workdir)
    with open(os.path.join(workdir, "ops.json"), "w") as f:
        json.dump(ops, f)


def setup_time() -> float:
    """import ltw plus the first fingerprinter in a fresh interpreter."""
    p = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE.format(src=SRC)],
                       cwd=ROOT, capture_output=True, text=True, timeout=60)
    if p.returncode != 0:
        raise BenchError(f"set-up interpreter failed:\n{p.stderr}")
    return float(p.stdout.split()[-1])


class SetupSampler:
    """SETUP_RUNS set-up times spread evenly over the measured run, taken
    between ops, so that setup_s sees the same machine phases as the ops
    instead of the one second before them.  The workload subprocess has
    imported ltw already, so every sample finds compiled modules."""

    def __init__(self, seconds: float):
        self.every = seconds / SETUP_RUNS
        self.due = perf_counter()
        self.times: list[float] = []

    def __call__(self):
        while len(self.times) < SETUP_RUNS and perf_counter() >= self.due:
            self.times.append(setup_time())
            self.due += self.every

    def finish(self) -> list[float]:
        while len(self.times) < SETUP_RUNS:
            self.times.append(setup_time())
        return self.times


def run_worker(workdir: str, seconds: float, trace: int, name: str,
               seed: int) -> dict:
    """One fresh subprocess runs the ops.  Its string hash seed follows the
    input seed: the program iterates over sets of state names, so its work
    counts repeat exactly only under one hash seed."""
    cmd = [sys.executable, os.path.abspath(__file__), "--worker", workdir,
           "--seconds", str(seconds), "--trace", str(trace)]
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2 ** 32))
    try:
        p = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True,
                           text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name}: workload subprocess exceeded "
                         f"{WORKER_TIMEOUT_S} s") from None
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise BenchError(f"{name}: workload subprocess exited with "
                         f"{p.returncode}:\n{p.stderr}")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float,
                 traces: list[int]) -> dict:
    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"{workload}-s{seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        prepare(workload, seed, workdir)
        out = {}
        if 0 in traces:
            out["plain"] = run_worker(workdir, seconds, 0, workload, seed)
        if 1 in traces:
            out["traced"] = run_worker(workdir, seconds, 1, workload, seed)
            os.makedirs(OUT, exist_ok=True)
            shutil.move(os.path.join(workdir, SPANS),
                        os.path.join(OUT, f"spans-{workload}.tsv"))
        return out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# -- metrics ------------------------------------------------------------------

def best_times(passes: list[list[float]]) -> list[float]:
    """Each op's best wall time over the passes of a run."""
    return [min(samples) for samples in zip(*passes)]


def tail(xs: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples above it; the maximum when there are too few samples."""
    xs = sorted(xs)
    n = len(xs)
    k = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return xs[k], 100.0 * (k + 1) / n


def end_to_end(res: dict) -> tuple[dict, list[str]]:
    plain, setup = res["plain"], res["plain"]["setup"]
    best = best_times(plain["passes"])
    n, reps = len(best), len(plain["passes"])
    t_val, t_pct = tail(best)
    everything = [dt for p in plain["passes"] for dt in p]
    attempted = len(everything)
    failed = sum(plain["failures"].values())
    values = {
        "setup_s": statistics.median(setup),
        "latency_p50_ms": statistics.median(best) * 1e3,
        "latency_tail_ms": t_val * 1e3,
        "throughput_ops_s": n / sum(best),
        "peak_rss_mb": plain["peak_rss_mb"],
    }
    samples = f"n={n} ops, best of {reps} passes each"
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "latency_p50_ms": samples,
        "latency_tail_ms": f"p{t_pct:.2f}, {n - round(t_pct * n / 100)} "
                           f"ops above, {samples}",
        "throughput_ops_s": f"{n} ops / {sum(best):.4f} s of best times",
        "peak_rss_mb": "ru_maxrss of the workload subprocess",
    }
    lines = [f"  {name:<18} {values[name]:>14.6f} {unit:<4}  {notes[name]}"
             for name, unit in END_TO_END]
    lines.insert(4, f"  {'fail_ratio':<18} {failed / attempted:>14.6f} {'':<4}  "
                    f"{failed} of {attempted} ops failed")
    lines.append(f"  (all {attempted} samples: median "
                 f"{statistics.median(everything) * 1e3:.3f} ms, "
                 f"{attempted / sum(everything):.3f} ops/s over "
                 f"{sum(everything):.3f} timed s)")
    lines += _failure_lines(plain)
    return values, lines


def per_layer(res: dict) -> tuple[dict, list[str]]:
    tr = res["traced"]
    ops = sum(len(p) for p in tr["passes"])
    counts, spans, self_s = tr["counts"], tr["span_counts"], tr["self_s"]
    values = {"cli.main_self_s": self_s.get("cli.main", 0.0) / ops}
    for n in SELF_TIMES:
        values[f"{n}_s"] = self_s.get(n, 0.0) / ops
    for n in CALLS:
        values[f"{n}_calls"] = spans.get(n, 0) / ops
    for n in COUNTS:
        values[n] = counts.get(n, 0) / ops
    verdicts = counts.get("equivalence.verdicts", 0)
    values["equivalence.sampled_ratio"] = (
        counts.get("equivalence.sampled", 0) / verdicts if verdicts else 0.0)
    values["trace.overhead"] = (sum(best_times(tr["passes"]))
                                / sum(best_times(tr["plain"]["passes"])))
    notes = {"equivalence.sampled_ratio":
             f"{counts.get('equivalence.sampled', 0)} of {verdicts} morphism tests",
             "trace.overhead": "traced / untraced best time per pass"}
    lines = [f"  {name:<34} {values[name]:>14.6g} {unit:<8}  {notes.get(name, '')}"
             .rstrip() for name, unit in PER_LAYER]
    lines.append(f"  ({ops} traced ops in {len(tr['passes'])} passes, alternating "
                 f"with untraced ones; times are self time per op, counts per op)")
    lines += _failure_lines(tr)
    return values, lines


def _failure_lines(r: dict) -> list[str]:
    out = [f"  failed: {reason} x{count}"
           for reason, count in sorted(r["failures"].items())]
    if r["failed_ops"]:
        out.append(f"  {len(r['failed_ops'])} of {len(r['passes'][0])} inputs "
                   f"failed at least once")
    if r["wrong"]:
        out.append(f"  wrong answers printed: {r['wrong']}")
    return out


def result_line(r: dict, values: dict, spec) -> str:
    """`attempted` counts the workload's inputs, `failed` those with at
    least one failed op in the run: on `recursive`, whether one op fails
    depends on object addresses (see README), whether an input fails
    repeats exactly."""
    return json.dumps({
        "correct": r["wrong"] == 0,
        "attempted": len(r["passes"][0]),
        "failed": len(r["failed_ops"]),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in spec},
    })


# -- the workload subprocess --------------------------------------------------

def worker(workdir: str, seconds: float, trace: int) -> int:
    """Run the ops listed in `workdir`/ops.json; print the raw results as
    one JSON line (the traced run also writes its spans next to them)."""
    os.chdir(workdir)
    import harness
    with open("ops.json") as f:
        ops = json.load(f)
    checker = harness.Checker(ops)
    if trace:
        import tracer
        t = tracer.Tracer()
        out = harness.measure_traced(ops, checker, seconds, t)
        t.write(SPANS)
    else:
        setup = SetupSampler(seconds)
        out = harness.measure(ops, checker, seconds, setup)
        out["setup"] = setup.finish()
    print(json.dumps(out))
    return 0


# -- command line -------------------------------------------------------------

def main(argv=None) -> int:
    import workloads
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS,
                    help="run one workload (default: all of them)")
    ap.add_argument("--seed", type=int, default=0, help="input seed")
    ap.add_argument("--seconds", type=float, default=50,
                    help="least measured time per run (whole passes)")
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="0: end-to-end metrics, 1: per-layer metrics "
                         "(default: both)")
    ap.add_argument("--worker", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ltw", "__init__.py")):
        print(f"error: no ltw sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.worker:
        return worker(args.worker, args.seconds, args.trace)

    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    traces = [args.trace] if args.trace is not None else [0, 1]
    results, layers = {}, []
    try:
        for name in names:
            res = run_workload(name, args.seed, args.seconds, traces)
            results[name] = {}
            if "plain" in res:
                values, lines = end_to_end(res)
                print(f"== {name} (seed {args.seed}), end to end", flush=True)
                print("\n".join(lines), flush=True)
                results[name]["end_to_end"] = (res["plain"], values)
            if "traced" in res:
                values, lines = per_layer(res)
                layers.append(f"== {name} (seed {args.seed}), per layer, traced")
                layers.extend(lines)
                results[name]["per_layer"] = (res["traced"], values)
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if layers:
        print("\n".join(layers))
    if args.workload and args.trace is not None:
        part, spec = (("end_to_end", END_TO_END) if args.trace == 0
                      else ("per_layer", PER_LAYER))
        print(result_line(*results[args.workload][part], spec))
    else:
        print(json.dumps({name: {part: values for part, (_, values) in parts.items()}
                          for name, parts in results.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
