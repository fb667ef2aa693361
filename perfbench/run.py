"""hampart benchmark: one seeded workload per process, closed loop.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 10 --trace 0

Run from the repository root; the package is imported from ./src. The run
executes the workload's op list once, back to back, and times the light ops
(see workloads.py) again in rounds spread over the run (see run_pass); a
light op's time is the median of its samples. Every other op runs once. A
stage's time is the sum over its ops. After the timed work, the outputs are
checked by the numpy oracle in oracle.py. With --trace 1 the op list runs once
with hampart's public functions wrapped (every op a single sample); the
per-layer metrics and per-op rows come from it, and the tracing overhead is
its pipeline time minus that of a --trace 0 run of the same seed, made in a
fresh child process so that both passes are the first of their process. The
last stdout line is one JSON object.
"""

import os
import sys

# Pinned before numpy loads so that timings do not depend on the core count.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench_out")
SETUP_REPEATS = 3
LIGHT_MIN = 5
LIGHT_SECONDS = 4.0
CHILD_TIMEOUT_S = 170
STAGES = ("build", "partition", "evaluate")
END_TO_END_UNITS = {
    "setup_s": "s",
    "build_s": "s",
    "partition_s": "s",
    "evaluate_s": "s",
    "pipeline_s": "s",
    "peak_rss_mib": "MiB",
    "failed_frac": "ratio",
}
# The metrics BENCHMARK.json gates on; the others are printed only. The
# stage times swing from run to run by more than the 0.25 bound the gate
# allows on the shared 2-core machine the bounds were set on (see README.md),
# and failed_frac is 0 on healthy workloads; the result line carries it as
# `failed` / `attempted`.
GATED = ("setup_s", "pipeline_s", "peak_rss_mib")
# What a fresh process imports before its first op.
IMPORTS = f"import sys; sys.path[:0] = {[SRC, HERE]!r}; import inputs, tracing, workloads"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("certify", "score", "scale16"))
    parser.add_argument("--seed", type=int, required=True, help="seed of the generated inputs")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="accepted for the benchmark contract; every workload's op list"
                             " takes longer than this, so it does not change the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--haar-seed", type=int, default=2024,
                        help="seed of the first Haar state scored")
    return parser.parse_args(argv)


def run_op(op, ctx) -> tuple[float, int | None, str | None]:
    """One timed sample of `op`: (seconds, exit status, error)."""
    error = None
    start = time.perf_counter()
    try:
        status = op.run(ctx)
    except Exception as exc:  # a crash of the program is a failed op
        status, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if error is None and status != 0:
        error = f"exit {status}"
    return seconds, status, error


def resample_light(ops, rows, ctx) -> float:
    """One more sample of each light op that has run and not failed.

    The op rewrites the output it wrote before, which the oracle checks
    afterwards. Returns the seconds the samples took.
    """
    spent = 0.0
    for op, row in zip(ops, rows):
        if op.light and row["error"] is None:
            seconds, status, error = run_op(op, ctx)
            spent += seconds
            row["samples"].append(seconds)
            if error is not None:
                row.update(exit=status, error=error)
    return spent


def run_pass(ops, ctx, tracer=None) -> list[dict]:
    """Run every op in order; failures are recorded, not raised.

    Traced, every op runs once. Untraced, the light ops are timed again: one
    round over the light ops already run before each later op, so that their
    samples spread over the whole run, then further rounds until each has
    LIGHT_MIN samples and the extra samples took LIGHT_SECONDS. A light op's
    time is the median of its samples.
    """
    rows = []
    spent = 0.0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        else:
            spent += resample_light(ops[:i], rows, ctx)
        seconds, status, error = run_op(op, ctx)
        if tracer is not None:
            tracer.op_id = None
        rows.append({"op": op.name, "stage": op.stage, "method": op.method, "stem": op.stem,
                     "samples": [seconds], "exit": status, "error": error})
    light = [row for op, row in zip(ops, rows) if op.light and row["error"] is None]
    while tracer is None and light and (
            min(len(row["samples"]) for row in light) < LIGHT_MIN or spent < LIGHT_SECONDS):
        spent += resample_light(ops, rows, ctx)
        light = [row for row in light if row["error"] is None]
    for row in rows:
        row["seconds"] = statistics.median(row["samples"])
    return rows


def check_pass(ops, ctx, rows) -> int:
    """Oracle-check each op that succeeded; returns the number of wrong ops.

    An op that failed counts as wrong too, unless it exited with its known
    `may_exit` status.
    """
    import oracle

    wrong = 0
    for op, row in zip(ops, rows):
        if row["error"] is not None:
            if op.may_exit is None or row["exit"] != op.may_exit:
                wrong += 1
        else:
            try:
                row.update(op.check(ctx))
            except oracle.OracleError as exc:
                row["error"] = f"oracle: {exc}"
                wrong += 1
            except Exception as exc:  # the output is missing or malformed
                row["error"] = f"oracle: {type(exc).__name__}: {exc}"
                wrong += 1
        if "qubits" not in row and op.stem in ctx.truth:
            row["qubits"] = ctx.truth[op.stem][0]
            row["terms"] = len(ctx.truth[op.stem][1])
    return wrong


def stage_times(rows) -> dict[str, float]:
    out = {f"{stage}_s": sum(r["seconds"] for r in rows if r["stage"] == stage)
           for stage in STAGES}
    out["pipeline_s"] = sum(r["seconds"] for r in rows)
    return out


def import_seconds() -> float:
    """Median wall time of a fresh interpreter importing what a run imports."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORTS], check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def untraced_run(args) -> dict:
    """The result line of a --trace 0 run of the same inputs, in a child process."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
            "--haar-seed", str(args.haar_seed)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"untraced run exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hampart", "__init__.py")):
        print(f"error: no hampart package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import inputs
    import tracing
    import workloads

    norbs, make_ops = workloads.WORKLOADS[args.workload]
    rundir = os.path.join(OUT, f"{args.workload}-s{args.seed}" + ("-trace" if args.trace else ""))
    shutil.rmtree(rundir, ignore_errors=True)
    gen_s = []
    for r in range(SETUP_REPEATS):
        start = time.perf_counter()
        indir = os.path.join(rundir, f"inputs-{r}")
        os.makedirs(indir)
        for norb in norbs:
            inputs.write_electronic(os.path.join(indir, f"el{norb}.fcidump"), norb, args.seed)
        gen_s.append(time.perf_counter() - start)
    # Only the untraced run reports set-up time.
    setup_s = None if args.trace else import_seconds() + statistics.median(gen_s)

    ops = make_ops()
    ctx = workloads.Context(indir, os.path.join(rundir, "pass"), args.haar_seed)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    rows = run_pass(ops, ctx, tracer)
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    wrong = check_pass(ops, ctx, rows)
    attempted = len(rows)
    failed = sum(row["error"] is not None for row in rows)
    e2e = stage_times(rows)
    e2e.update(setup_s=setup_s, peak_rss_mib=peak_rss_mib, failed_frac=failed / attempted)
    with open(os.path.join(rundir, "rows.json"), "w") as fh:
        json.dump(rows, fh, indent=1)

    mode = "traced, one sample per op" if args.trace else "untraced"
    print(f"workload {args.workload} seed {args.seed} ({mode}):"
          f" {attempted} ops attempted, {failed} failed, {wrong} wrong")
    for row in rows:
        if row["error"] is not None:
            print(f"  failed: {row['op']} {row['stem']} {row['method']}: {row['error']}")
    for name, unit in END_TO_END_UNITS.items():
        if e2e[name] is not None:
            print(f"  {name:<14} {e2e[name]:.6g} {unit}")

    if args.trace:
        untraced = untraced_run(args)
        wrong += not untraced["correct"]
        attempted += untraced["attempted"]
        failed += untraced["failed"]
        layer = tracer.layer_metrics()
        layer["trace.overhead_s"] = (e2e["pipeline_s"]
                                     - untraced["metrics"]["pipeline_s"]["value"])
        print("per-op rows (traced pass):")
        print("  workload\top\tmethod\tqubits\tterms\tfragments\tseconds\texit")
        for r in rows:
            print(f"  {args.workload}\t{r['op']} {r['stem']}\t{r['method']}\t{r.get('qubits', '')}"
                  f"\t{r.get('terms', '')}\t{r.get('fragments', '')}\t{r['seconds']:.4f}"
                  f"\t{r['exit']}")
        for name, unit in tracing.PER_LAYER_UNITS.items():
            print(f"  {name:<46} {layer[name]:.6g} {unit}")
        with open(os.path.join(rundir, "trace.json"), "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "rows": rows,
                       "end_to_end": e2e, "untraced": untraced, "per_layer": layer,
                       "spans": tracer.spans, "counts": dict(tracer.counts)}, fh, indent=1)
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in tracing.PER_LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": END_TO_END_UNITS[name]} for name in GATED}
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
