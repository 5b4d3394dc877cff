"""Benchmark of the qmult command-line interface.

One process, one thread, one client in a closed loop: each job is an
in-process call of ``qmult.cli.main(argv)`` with stdout and stderr captured,
and the next job starts when the previous one has returned and its output has
been checked against an independent oracle (``oracle.py``).  Importing qmult
and preparing the inputs is paid once, before timing, and reported as
``setup_s``.  Latencies are reported in *refs*: multiples of the time a fixed
pure-Python computation takes at the same moment, which takes out the drift of
a shared machine's speed (see README.md).

Run from the repository root:

    python3 perfbench/run.py --workload high_cx --seed 1 --seconds 12 --trace 0

``--trace 0`` times the jobs untouched and reports the end-to-end metrics.
``--trace 1`` plays a fixed number of rounds twice, first untouched and then
with every layer boundary wrapped from outside (``tracer.py``), and reports the
per-layer metrics; the spans are written to ``.perfbench/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it gives the details
of the run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction
from math import ceil
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 5
REF_SAMPLES = 5  # reference computations timed before and after each set-up
REF_SECOND_NS = 1_000_000  # a set-up second is a wall second where one ref takes 1 ms

from jobs import WORKLOADS, Context, Job, Plan, Workload, build_plan, load_corpus  # noqa: E402
from oracle import Outcome, check  # noqa: E402
from tracer import METRICS, Tracer  # noqa: E402

Call = tuple[list[str], str | None]  # argv with real paths, fixture directory


def import_cli():
    """qmult.cli from this checkout's src/, and never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import qmult.cli as cli
    except ImportError as err:
        raise SystemExit(f"perfbench: cannot import qmult from {src}: {err}")
    if Path(cli.__file__).resolve().parents[1] != src.resolve():
        raise SystemExit(f"perfbench: imported qmult from {cli.__file__}, not from {src}")
    return cli


def materialize(job: Job, index: int, workdir: Path) -> Call:
    """Write a job's input files and return the argv that names them."""
    argv = list(job.argv)
    if job.payload:
        path = workdir / f"{index}.json"
        path.write_text(job.payload)
        argv = [str(path) if a == "{input}" else a for a in argv]
    fixtures = None
    if job.corpus:
        directory = workdir / f"corpus{index}"
        directory.mkdir()
        for name, text in job.corpus:
            (directory / name).write_text(text)
        fixtures = str(directory)
    return argv, fixtures


def run_job(cli, call: Call) -> tuple[int, Outcome]:
    """One CLI invocation; returns its wall time in ns and what it printed."""
    argv, fixtures = call
    if fixtures:
        os.environ["MULT_FIXTURE_DIR"] = fixtures
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter_ns()
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
            except Exception:  # a traceback is a failed job, not a failed run
                code = None
                traceback.print_exc()
            took = time.perf_counter_ns() - start
    finally:
        if fixtures:
            del os.environ["MULT_FIXTURE_DIR"]
    return took, Outcome(code, out.getvalue(), err.getvalue())


class Tally:
    """Checked outcomes of every job a run attempted."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, job: Job, outcome: Outcome) -> bool:
        self.attempted += 1
        why = check(job.expect, outcome)
        if why is not None:
            self.failures.append(f"{job.cls} {' '.join(job.argv)}: {why}")
        return why is None


def setup(cli, workload: Workload, seed: int, workdir: Path, tally: Tally) -> tuple[Plan, list[list[tuple[Call, Job]]]]:
    """Generate the inputs, write them, and run one warm-up job per subcommand."""
    ctx = Context(load_corpus(Path(cli.__file__).parent / "fixtures"))
    plan = build_plan(workload, seed, ctx)
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    index = 0
    rounds = []
    for rnd in plan.rounds:
        calls = []
        for job in rnd:
            calls.append((materialize(job, index, workdir), job))
            index += 1
        rounds.append(calls)
    for job in plan.warmup:
        tally.record(job, run_job(cli, materialize(job, index, workdir))[1])
        index += 1
    return plan, rounds


def reference_ns() -> int:
    """Wall time of a fixed pure-Python computation of about a millisecond.

    It does what qmult spends its time on (exact rational arithmetic, dict and
    list work) and nothing of qmult, so its time tracks the speed the shared
    machine gives this process at the moment, and no change to qmult moves it.
    """
    start = time.perf_counter_ns()
    acc = Fraction(0)
    seen = {}
    for k in range(1, 300):
        acc += Fraction(k % 7 - 3, k)
        seen[k] = acc.numerator % 97
    sorted(seen.values())
    return time.perf_counter_ns() - start


def timed(cli, rounds, seconds: float, tally: Tally) -> tuple[list[tuple[int, int, str]], int, int]:
    """Play whole rounds until ``seconds`` have passed.

    Returns, per job, its latency in ns, the time of the reference computation
    run just before it, and its class; then the number of correct jobs and of
    rounds played.
    """
    samples: list[tuple[int, int, str]] = []
    ok = played = 0
    deadline = time.perf_counter() + seconds
    for rnd in rounds:
        for call, job in rnd:
            ref = reference_ns()
            took, outcome = run_job(cli, call)
            samples.append((took, ref, job.cls))
            ok += tally.record(job, outcome)
        played += 1
        if time.perf_counter() >= deadline:
            break
    return samples, ok, played


def traced(cli, calls, tally: Tally, spans_path: Path) -> dict[str, float]:
    """The same jobs untouched, then wrapped; per-layer metrics."""
    untraced = 0
    for call, job in calls:
        took, outcome = run_job(cli, call)
        untraced += took
        tally.record(job, outcome)
    tracer = Tracer()
    traced_ns = 0
    tracer.install()
    try:
        for i, (call, job) in enumerate(calls):
            tracer.job = i
            took, outcome = run_job(cli, call)
            traced_ns += took
            tally.record(job, outcome)
    finally:
        tracer.uninstall()
    tracer.write(spans_path)
    return tracer.metrics(untraced, traced_ns)


REF_WINDOW = 9  # jobs whose reference times set the speed a job ran at


def end_to_end(samples: list[tuple[int, int, str]], ok_jobs: int, setup_s: float) -> tuple[dict[str, float], dict]:
    """The end-to-end metrics, and the wall-clock figures behind them.

    The machine is shared, and its speed drifts by a third within seconds.
    So each latency is also given in *refs*: divided by the median time of the
    reference computation over the jobs around it.
    """
    half = REF_WINDOW // 2
    refs = [ref for _, ref, _ in samples]
    in_refs = [
        (took / statistics.median(refs[max(0, i - half) : i + half + 1]), cls)
        for i, (took, _, cls) in enumerate(samples)
    ]
    ordered = sorted(in_refs)
    p50, p90 = (len(ordered) - 1) // 2, ceil(0.9 * len(ordered)) - 1
    ms = sorted(took / 1e6 for took, _, _ in samples)
    by_class: dict[str, list[float]] = {}
    for value, cls in ordered:
        by_class.setdefault(cls, []).append(value)
    metrics = {
        "job_ref_p50": statistics.median(v for v, _ in ordered),
        "job_ref_p90": ordered[p90][0],
        "jobs_per_kref": 1000 * ok_jobs / sum(v for v, _ in ordered),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    details = {
        "jobs": len(ordered),
        "jobs_beyond_p90": len(ordered) - 1 - p90,
        "p50_class": ordered[p50][1],
        "p90_class": ordered[p90][1],
        "class_ref_p50": {cls: round(statistics.median(v), 3) for cls, v in sorted(by_class.items())},
        "job_ms_p50": statistics.median(ms),
        "job_ms_p90": ms[p90],
        "jobs_per_s": ok_jobs / (sum(ms) / 1000),
        "ref_ms_p50": statistics.median(refs) / 1e6,
    }
    return metrics, details


UNITS = {"job_ref_p50": "ref", "job_ref_p90": "ref", "jobs_per_kref": "1/kref", "setup_s": "s", "peak_rss_mb": "MB"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter_ns()
    cli = import_cli()
    import_ns = time.perf_counter_ns() - started

    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench" / f"{workload.name}-{args.seed}-{os.getpid()}"
    tally = Tally()
    try:
        # Set-up is timed in wall seconds and rescaled to a machine on which
        # the reference computation takes REF_SECOND_NS, using its median
        # time just before and after each repetition.
        refs = [reference_ns() for _ in range(REF_SAMPLES)]
        scaled = [import_ns * REF_SECOND_NS / statistics.median(refs)]
        walls = [import_ns]
        for _ in range(SETUP_REPS):
            plan = rounds = None  # each repetition starts from the same heap
            gc.collect()
            start = time.perf_counter_ns()
            plan, rounds = setup(cli, workload, args.seed, workdir, tally)
            walls.append(time.perf_counter_ns() - start)
            refs += [reference_ns() for _ in range(REF_SAMPLES)]
            scaled.append(walls[-1] * REF_SECOND_NS / statistics.median(refs[-2 * REF_SAMPLES :]))
        setup_s = (scaled[0] + statistics.median(scaled[1:])) / 1e9
        setup_wall_s = (walls[0] + statistics.median(walls[1:])) / 1e9
        gc.collect()
        gc.freeze()  # the harness's own objects stay out of the timed collections

        if args.trace:
            calls = [c for rnd in rounds[: workload.trace_rounds] for c in rnd]
            spans = ROOT / ".perfbench" / f"spans-{workload.name}-{args.seed}.jsonl.gz"
            metrics = traced(cli, calls, tally, spans)
            units = {name: unit for name, unit, _ in METRICS}
            details = {"jobs": len(calls), "spans": str(spans.relative_to(ROOT))}
        else:
            samples, ok, played = timed(cli, rounds, args.seconds, tally)
            metrics, details = end_to_end(samples, ok, setup_s)
            units = UNITS
            details.update(rounds=played, rounds_available=len(rounds))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    keys = [job.key for job in plan.jobs]
    details.update(
        workload=workload.name,
        seed=args.seed,
        mix=dict(workload.mix),
        repeat_share=1 - len(set(keys)) / len(keys),
        setup_wall_s=setup_wall_s,
        failures=tally.failures[:5],
    )
    print(json.dumps(details))
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
