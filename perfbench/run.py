"""End-to-end and per-layer benchmark of the msheston command line.

    python3 perfbench/run.py --workload surface --seed 1 --seconds 15 --trace 0

One invocation runs one workload (surface, calibrate or validate_mc) from the
root of a checkout.  The inputs are generated from ``--seed`` by
``inputs.py``; the program's own commands then run in-process through
``msheston.cli.main`` in a closed loop: one client, each operation starting
when the previous one ends.  After one untimed warm-up operation the loop
repeats until ``--seconds`` have passed.
Correctness checks (``checks.py``) run after the timed loop.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` each round is one untraced and one traced operation, and the
run reports the per-layer metrics of ``layers.py``; the difference between the
two operation times is ``trace.overhead_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Results, spans and
generated inputs go under ``perfbench/out/``.  Exit code 2 means the
checkout does not hold the program.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs

# before NumPy loads; the set-up probes inherit the cap
BLAS_THREADS = inputs.cap_blas_threads()

OUT = inputs.ROOT / "perfbench" / "out"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120
END_TO_END = (("op_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def measure_setup(workload: str, seed: int, run_dir: Path) -> list:
    """Seconds to import msheston and build the inputs, in fresh processes."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(inputs.__file__)), "--workload", workload,
             "--seed", str(seed), "--out", str(run_dir), "--time-setup"],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"input generation failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def run_op(cli_main, argv: list, output: Path, tracer=None, op=0):
    """One closed-loop operation.

    Returns (exit code, seconds, output digest, counts); counts is None
    unless ``tracer`` is given.
    """
    sink = io.StringIO()
    if tracer is not None:
        tracer.install(op)
    t0 = time.perf_counter()
    sid = tracer.start("cli.main") if tracer is not None else None
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        rc = cli_main(argv)
    if tracer is not None:
        tracer.finish(sid)
    seconds = time.perf_counter() - t0
    counts = tracer.uninstall() if tracer is not None else None
    if rc != 0:
        print(f"operation exited {rc}:\n{sink.getvalue()}", file=sys.stderr)
    digest = hashlib.sha256(output.read_bytes()).hexdigest() if output.exists() else ""
    return rc, seconds, digest, counts


def environment() -> dict:
    import numpy
    import scipy

    src = inputs.ROOT / "src"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "src_lines": sum(len(p.read_text().splitlines()) for p in src.rglob("*.py")),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        inputs.use_program()
    except inputs.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    run_dir = OUT / f"{args.workload}-s{args.seed}"
    try:
        setup_samples = measure_setup(args.workload, args.seed, run_dir)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    import msheston
    from msheston.cli import main as cli_main

    expected_src = inputs.ROOT / "src"
    if expected_src not in Path(msheston.__file__).resolve().parents:
        print(f"error: msheston loaded from {msheston.__file__}, not {expected_src}",
              file=sys.stderr)
        return 2

    import checks
    import layers

    cli_argv = json.loads((run_dir / "argv.json").read_text())
    output = Path(cli_argv[cli_argv.index("--output") + 1])
    tracer = layers.Tracer() if args.trace else None
    for name in tracer.unmeasured if tracer else ():
        print(f"unmeasured: {name} no longer exists; its metrics read 0")

    times, traced_times, per_op, codes, digests = [], [], [], [], set()
    # The first operation of a process runs up to a third slower than the
    # rest.  Kept in the median, it would move op_s with the number of
    # operations that fit in a run, so it is attempted but not timed.
    rc, _, digest, _ = run_op(cli_main, cli_argv, output)
    codes.append(rc)
    digests.add(digest)
    begin = time.perf_counter()
    while True:
        rc, seconds, digest, _ = run_op(cli_main, cli_argv, output)
        codes.append(rc)
        digests.add(digest)
        times.append(seconds)
        if tracer is not None:
            op = len(traced_times)
            rc, seconds, digest, counts = run_op(cli_main, cli_argv, output, tracer, op)
            codes.append(rc)
            digests.add(digest)
            traced_times.append(seconds)
            per_op.append(tracer.op_metrics(op, counts))
        if time.perf_counter() - begin >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    results = checks.CHECKS[args.workload](run_dir, args.seed)
    results.append(("outputs_identical", len(digests) == 1,
                    f"{len(digests)} distinct output digest(s) over {len(codes)} operations"))
    for name, passed, detail in results:
        print(f"check {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    correct = all(passed for _, passed, _ in results)

    if tracer is None:
        values = {"op_s": statistics.median(times),
                  "setup_s": statistics.median(setup_samples),
                  "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    else:
        overhead = statistics.median(traced_times) - statistics.median(times)
        metrics = layers.median_metrics(per_op, overhead)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "setup_samples_s": setup_samples, "op_times_s": times,
        "traced_op_times_s": traced_times, "exit_codes": codes,
        "checks": [list(r) for r in results], "metrics": metrics,
    }
    if tracer is not None:
        record["unmeasured"] = tracer.unmeasured
        record["per_op"] = per_op
        spans_file = OUT / f"spans-{args.workload}-s{args.seed}.json"
        spans_file.write_text(json.dumps({
            "fields": ["id", "parent", "name", "start_ns", "end_ns", "op"],
            "spans": tracer.spans}) + "\n")
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    failed = sum(1 for rc in codes if rc != 0)
    print(json.dumps({"correct": correct, "attempted": len(codes),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
