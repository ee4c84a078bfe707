"""hvol benchmark: seeded CLI job streams run in one process, checked against
references, with end-to-end metrics or, with --trace 1, per-layer metrics.

    python3 hvolbench/run.py --workload toric-minimize --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; it imports `hvol` from `src/`.
One client runs the jobs one at a time (a closed loop) in this process, each
as `hvol.cli.main(argv)` with stdout captured, or as a direct library call.
Jobs come in rounds of fixed jobs, in an order the seed shuffles (see
jobs.py).  A run is a fixed number of rounds, sized from --seconds so that it
takes about that long on the machine the benchmark was calibrated on; at
least one round, and none started after 120 s.

The last line of stdout is one JSON object: `correct`, `attempted`, `failed`
and `metrics`.  A job fails when it raises, exits non-zero or disagrees with
its reference.  `correct` is false when any report disagrees with its
reference, or when a job fails in a way that no known defect in notes.json
explains (a known defect still counts in `failed`).
With --trace 0 the metrics are the end-to-end ones.  Every time in them is
a wall time scaled to the reference speed (speed.py): the host's speed swings
by up to 1.8x over minutes, so a fixed probe kernel runs right before each job
and setup sample and once at the end.  setup_s and jobs_per_s are scaled by
speed.REFERENCE_MS over the probe's trimmed mean time in the run; each job
time, before the median is taken, by REFERENCE_MS over the mean of the probes
right before and right after that job.  The summary line above the result
gives the run's scale and the unscaled values.

    setup_s      median time from starting a fresh interpreter to `import hvol`
                 done, over fifteen interpreters started at evenly spaced
                 points of the job loop (after one warm-up)
    jobs_per_s   jobs attempted / wall time of the job loop, without the
                 setup samples and probes
    job_ms_p50   median wall time of one job
    peak_rss_mb  peak resident set size of this process

`job_ms_p90` (only with at least 100 jobs, so that ten lie beyond it) and
`fail_share` are printed on the summary line above the result, with the
sample count, and stay out of the result: one is absent on short runs and the
other is 0 on healthy workloads, and every metric in the result must exist on
every run and never be 0.

With --trace 1 the run takes a fixed number of rounds and runs each job three
times: once untimed to warm up, then untraced and traced, in alternating order
from job to job.  It reports `<module>.<function>.calls` and `.self_ms` for
every function named by a `.calls` metric of BENCHMARK.json's per_layer list
(tracing.py), the `reeb` counters and `trace.overhead` (traced jobs_per_s /
untraced jobs_per_s, both over the same warmed-up jobs).  It is correct only
if the traced reports are byte-identical to the untraced ones and every
wrapped binding is restored afterwards.  Spans are written to .bench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed

# one thread everywhere, set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NOTES = HERE / "notes.json"
BENCHMARK = ROOT / "BENCHMARK.json"
SETUP_SAMPLES = 15
MAX_LOOP_SECONDS = 120  # start no round after this, so a run ends within 180 s


def parse_args(argv=None) -> argparse.Namespace:
    from jobs import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_sample() -> float:
    """Seconds from starting a fresh interpreter to `import hvol` done.

    The child reads CLOCK_MONOTONIC (time.monotonic) after the import; the
    parent read the same clock just before starting it.
    """
    code = "import hvol, time; print(repr(time.monotonic()))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True,
        text=True, check=True, timeout=60,
    )
    return float(done.stdout) - start


class Outcome:
    """What one job left behind: exit code, stdout, and an error line if any."""

    __slots__ = ("code", "stdout", "error", "ms")

    def __init__(self, code, stdout, error, ms):
        self.code, self.stdout, self.error, self.ms = code, stdout, error, ms

    def same_output(self, other: "Outcome") -> bool:
        return (self.code, self.stdout, self.error) == (other.code, other.stdout, other.error)


def execute(job) -> Outcome:
    import hvol.cli
    import hvol.singularities
    import hvol.valuation

    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if job.argv:
                code = hvol.cli.main(list(job.argv))
            else:
                family, model, weights, depth = json.loads(job.call)
                if family == "toric":
                    model = hvol.singularities.ToricConeSingularity.from_rays(model)
                else:
                    model = hvol.singularities.akm_singularity(*model)
                print(hvol.valuation.lattice_count_oracle(model, weights, depth))
                code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a raw traceback is a failed job; the loop goes on
        code = None
        error = traceback.format_exc(limit=1).strip().splitlines()[-1]
    ms = (time.perf_counter() - start) * 1e3
    if error is None and code not in (0, 2):
        error = (err.getvalue().strip().splitlines() or [f"exit {code}"])[0]
    return Outcome(code, out.getvalue(), error, ms)


def run_rounds(stream, rounds: int):
    """Run `rounds` rounds of jobs; returns the jobs, their outcomes, the wall
    time of the job loop, the setup samples, the speed probes (ms) and for
    each job the index of the probe right before it.

    The setup samples are taken between jobs at evenly spaced points of the
    loop, so that they see the machine as the jobs do, and their time is left
    out of the loop's wall time.  A speed probe runs right before every job
    and every setup sample, and once at the end.
    """
    batches = [batch for batch in (stream.next_round() for _ in range(rounds)) if batch]
    planned = sum(len(batch) for batch in batches)
    due = {planned * i // SETUP_SAMPLES for i in range(SETUP_SAMPLES)}
    setup_sample()  # the first start compiles bytecode caches; users pay that once
    jobs, outcomes, samples, probes, job_probes = [], [], [], [], []
    wall = 0.0
    for batch in batches:
        if wall > MAX_LOOP_SECONDS:
            break
        for job in batch:
            if len(jobs) in due:
                probes.append(speed.probe())
                samples.append(setup_sample())
            job_probes.append(len(probes))
            probes.append(speed.probe())
            start = time.perf_counter()
            outcomes.append(execute(job))
            wall += time.perf_counter() - start
            jobs.append(job)
    while len(samples) < SETUP_SAMPLES:
        probes.append(speed.probe())
        samples.append(setup_sample())
    probes.append(speed.probe())
    return jobs, outcomes, wall, samples, probes, job_probes


def failure_kind(outcome: Outcome) -> str | None:
    """How a job failed by its own account, in a few words; None if it ran
    to exit 0.  On a report this names the program's own failed checks."""
    if outcome.error is not None:
        return outcome.error.split(":", 1)[0][:80]
    if outcome.code == 0:
        return None
    try:
        report = json.loads(outcome.stdout)
        failed = sorted(c["name"] for c in report["checks"] if not c["pass"])
        c1 = report["results"].get("c1", {}).get("exact")
    except (json.JSONDecodeError, KeyError, TypeError, AttributeError):
        return f"exit {outcome.code}"
    kind = ",".join(failed) or f"exit {outcome.code}"
    return f"{kind} [c1{'=' if c1 == '1' else '!='}1]" if c1 else kind


def known_failure(job, kind: str, exemptions: list[dict]) -> bool:
    """True when a known defect in notes.json explains this failure."""
    command = job.argv[0] if job.argv else "oracle"
    return any(
        e["command"] == command
        and e["failure"] == kind
        and all(job.ref.get(key) == value for key, value in e.get("ref", {}).items())
        for e in exemptions
    )


def assess(jobs, outcomes: list[Outcome], references: dict) -> tuple[bool, dict, list[str]]:
    from check import check_output

    exemptions = [e for d in json.loads(NOTES.read_text(encoding="utf-8"))["known_defects"] for e in d.get("exempts", [])]
    correct = True
    failures: dict[str, int] = {}
    wrong: list[str] = []
    for job, outcome in zip(jobs, outcomes):
        kind = failure_kind(outcome)
        try:
            problems = [] if outcome.error is not None else check_output(job, outcome.stdout, references)
        except (KeyError, TypeError, ValueError) as exc:
            problems = [f"report lacks what its check reads: {exc!r}"]
        if problems:
            kind = "disagrees with reference"
        elif kind and not known_failure(job, kind, exemptions):
            problems = [f"{kind}, which no known defect explains"]
        if problems:
            correct = False
            wrong.append(f"{job.key[:120]}: {problems[0]}")
        if kind:
            failures[kind] = failures.get(kind, 0) + 1
    return correct, failures, wrong


def traced_targets() -> list[str]:
    """The functions to trace: those named by a `.calls` per-layer metric."""
    names = [m["name"] for m in json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]]
    return [name[: -len(".calls")] for name in names if name.endswith(".calls")]


def traced_metrics(workload: str, seed: int, jobs, references: dict):
    """Run each of `jobs` warm-up, untraced and traced; returns correct,
    metrics, detail, failed.

    The untraced and traced runs of a job alternate in order from job to job,
    after an untimed warm-up run, so that neither side gets the first-call
    costs.  `detail["unexpected_zero"]` lists the metrics notes.json expects
    to be non-zero on this workload that read 0; selftest.py fails on them, a
    run does not (a later version may do without a layer's calls).
    """
    from tracing import Tracer

    layers = json.loads(NOTES.read_text(encoding="utf-8"))["layers"]
    tracer = Tracer(traced_targets())
    plain, traced = [], []
    for job_id, job in enumerate(jobs):
        execute(job)
        for with_trace in (False, True) if job_id % 2 == 0 else (True, False):
            if not with_trace:
                plain.append(execute(job))
                continue
            tracer.job_id = job_id
            tracer.install()
            try:
                traced.append(execute(job))
            finally:
                tracer.uninstall()
    values = tracer.metrics()
    values["trace.overhead"] = (sum(o.ms for o in plain) / sum(o.ms for o in traced), "ratio")
    tracer.write(ROOT / ".bench_out" / f"spans-{workload}-seed{seed}.jsonl")
    expected_nonzero = [
        key
        for group in layers.values()
        for name, spec in group.items()
        if workload in spec["nonzero_on"]
        for key in ((f"{name}.calls", f"{name}.self_ms") if group is layers["functions"] else (name,))
    ]
    identical = all(a.same_output(b) for a, b in zip(plain, traced))
    correct, failures, wrong = assess(jobs, traced, references)
    detail = {
        "failures": failures,
        "wrong": wrong[:5],
        "identical_reports": identical,
        "bindings_restored": tracer.restored(),
        "unexpected_zero": [key for key in expected_nonzero if values[key][0] == 0],
    }
    ok = correct and identical and detail["bindings_restored"]
    return ok, values, detail, sum(failures.values())


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hvol" / "__init__.py").is_file():
        sys.stderr.write(f"no hvol sources under {SRC}; run from a source checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    import hvol  # noqa: F401  (imported here so that setup is timed apart)
    from check import load_references
    from jobs import TRACED_ROUNDS, JobStream, rounds_for

    references = load_references()
    stream = JobStream(args.workload, args.seed)
    if args.trace:
        jobs = [job for _ in range(TRACED_ROUNDS[args.workload]) for job in stream.next_round()]
        correct, values, detail, failed = traced_metrics(args.workload, args.seed, jobs, references)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        attempted = len(jobs)
    else:
        jobs, outcomes, wall, setup_samples, probes, job_probes = run_rounds(
            stream, rounds_for(args.workload, args.seconds)
        )
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        correct, failures, wrong = assess(jobs, outcomes, references)
        attempted, failed = len(jobs), sum(failures.values())
        scale = speed.scale(probes)
        job_ms = sorted(o.ms * speed.local_scale(probes, i) for o, i in zip(outcomes, job_probes))
        p90 = job_ms[-(-9 * len(job_ms) // 10) - 1] if len(job_ms) >= 100 else None
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples) * scale, "unit": "s"},
            "jobs_per_s": {"value": attempted / wall / scale, "unit": "1/s"},
            "job_ms_p50": {"value": statistics.median(job_ms), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        detail = {
            "job_ms_p90": {"value": p90, "unit": "ms", "samples": len(job_ms)},
            "fail_share": {"value": failed / attempted, "unit": "ratio"},
            "failures": failures,
            "wrong": wrong[:5],
            "unscaled": {
                "scale": scale,
                "setup_s": statistics.median(setup_samples),
                "jobs_per_s": attempted / wall,
                "job_ms_p50": statistics.median(o.ms for o in outcomes),
            },
        }
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace, **detail}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
