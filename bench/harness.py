"""Measurement loops of the benchmark; entered through run.py.

Untraced run (``--trace 0``): set-up is timed in fresh processes, then the
count pass runs once, then units run back to back, each on freshly set-up
state after a calibration slice, until the next one would end after
``--seconds``.  Oracle checks on the count pass and the units follow,
outside the timed region.

Traced run (``--trace 1``): the count pass gives the exact counts, then
chunks of candidates run both through the program and through the traced
public-call mirror, alternating which goes first, until ``--seconds`` have
passed since the start.  The program and the mirror each get state set up
after the count pass.  The mirror's records must equal the program's.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from sdtwists import build_count_report, dedup_classes, sweep

import calibration
import metrics
import workloads as wl
from tracing import Trace, compare, trace_ev_chunk, trace_sweep_chunk, traced_candidate, traced_ev

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_SAMPLES = 11
SETUP_SLICE_ROUNDS = 2_000
BUILD_REPEATS = 5
DEDUP_REPEATS = 3
SWEEP_CHUNK = 24
EV_CHUNK = 25
MIN_CHUNKS = 4
SELF_TEST_BOX = {"compact_d3": 6, "built_d5_d6": 3}
SELF_TEST_EV = 20


def _declared_metrics() -> tuple[dict, dict]:
    """Metric name -> unit, for the end-to-end and the per-layer metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def _git_commit() -> str | None:
    """HEAD of the repository at ROOT; None when ROOT is not one.  Git does
    not search above ROOT for a repository."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "sdtwists_workers": os.environ["SDTWISTS_WORKERS"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def _setup_sample(workload: str) -> dict:
    """Set-up time of the workload in a fresh interpreter (import excluded),
    with the slowness of calibration slices just before and after it."""
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--setup-sample", workload],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def _measure_setup(workload: str) -> dict:
    before = calibration.slice_seconds(SETUP_SLICE_ROUNDS)
    began = perf_counter()
    wl.setup(workload)
    seconds = perf_counter() - began
    after = calibration.slice_seconds(SETUP_SLICE_ROUNDS)
    return {
        "setup_s": seconds,
        "slowness": calibration.slowness((before + after) / 2, SETUP_SLICE_ROUNDS),
    }


def _check(workload: str, state, count, units: list, seed: int, errors: list[str]) -> int:
    """Oracle checks on the count pass, and on every unit's output."""
    # Imported here, after peak memory is read: the oracles load sympy.
    import checks

    rng = random.Random(seed)
    if workload == "ev_d6":
        bad = checks.check_ev(rng, state, count, errors)
        return bad + checks.check_ev(rng, state, [i for unit in units for i in unit], errors)
    bad = checks.check_sweeps(rng, count, errors)
    return bad + sum(checks.check_sweep_unit(unit, count, errors) for unit in units)


def untraced_run(args) -> tuple[dict, int, int, dict, list[str]]:
    workload = args.workload
    setups = [_setup_sample(workload) for _ in range(SETUP_SAMPLES)]
    state = wl.setup(workload)
    start = perf_counter()
    count = wl.run_count(workload, state, args.seed)
    count_s = perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    work = wl.unit_work(workload, state)
    durations: list[float] = []
    slices: list[float] = []
    rounds: list[float] = []
    units = []
    while not rounds or perf_counter() - start + statistics.median(rounds) <= args.seconds:
        round_began = perf_counter()
        slices.append(calibration.slice_seconds())
        fresh = wl.setup(workload)
        began = perf_counter()
        units.append(wl.run_unit(workload, fresh, args.seed, len(durations)))
        durations.append(perf_counter() - began)
        rounds.append(perf_counter() - round_began)
    errors: list[str] = []
    failed = _check(workload, state, count, units, args.seed, errors)
    summary = metrics.ev_summary(count) if workload == "ev_d6" else metrics.sweep_summary(count)
    count_work = wl.count_work(workload, state)
    attempted = count_work + work * len(durations)
    rate = work * len(durations) / sum(durations)
    slowness = calibration.slowness(statistics.fmean(slices))
    values = {
        "candidates_per_s": rate * slowness,
        "setup_s": statistics.median(s["setup_s"] / s["slowness"] for s in setups),
        "peak_rss_mb": peak_rss_mb,
        "certified_share": summary["certified_share"],
    }
    extra = {
        "count_work": count_work,
        "count_s": count_s,
        "unit_work": work,
        "unit_s": durations,
        "calibration_slices_s": slices,
        "slowness": slowness,
        "raw_candidates_per_s": rate,
        "setup_samples": setups,
        "raw_setup_s": statistics.median(s["setup_s"] for s in setups),
        "failed_share": failed / attempted,
    }
    if workload != "ev_d6":
        extra["classes"] = summary["counting.classes"]
        extra["quarantined_share"] = summary["counting.quarantined_share"]
    return values, attempted, failed, extra, errors


def traced_run(args) -> tuple[dict, int, int, dict, list[str]]:
    workload, seed = args.workload, args.seed
    start = perf_counter()
    state = wl.setup(workload)
    trace = Trace()
    for _ in range(BUILD_REPEATS):
        for build in wl.family_builders(workload):
            trace.call("family.build_family", build)
    first = wl.run_count(workload, state, seed)
    errors: list[str] = []
    failed = _check(workload, state, first, [], seed, errors)
    program, mirror = wl.setup(workload), wl.setup(workload)
    attempted = wl.count_work(workload, state)
    untraced_s = traced_s = 0.0
    chunks = 0

    def account(chunk) -> None:
        nonlocal untraced_s, traced_s, failed, attempted
        untraced_s += chunk.untraced_s
        traced_s += chunk.traced_s
        failed += chunk.mismatches
        attempted += len(chunk.records)

    if workload == "ev_d6":
        counted = []
        while chunks < MIN_CHUNKS or perf_counter() - start < args.seconds:
            chunk, fields = trace_ev_chunk(
                trace, program, mirror, wl.unit_seed(seed, chunks), EV_CHUNK, chunks % 2 == 1,
                errors,
            )
            counted += fields
            account(chunk)
            chunks += 1
        for _ in range(DEDUP_REPEATS):
            report = trace.call(
                "counting.dedup", lambda: build_count_report(dedup_classes(counted), wl.EV_DEGREE)
            )
        summary = metrics.field_summary(counted)
        summary.update(metrics.ev_summary(first))
        summary["counting.classes"] = report.class_count
    else:
        for res in first:
            for _ in range(DEDUP_REPEATS):
                trace.call(
                    "counting.dedup",
                    lambda: build_count_report(dedup_classes(res.candidates), res.job.family.d),
                )
        order = [(i, u, v) for i, job in enumerate(state) for u, v in wl.coprime_pairs(job.box)]
        random.Random(seed).shuffle(order)
        while chunks < MIN_CHUNKS or perf_counter() - start < args.seconds:
            at = chunks * SWEEP_CHUNK % len(order)
            picked = order[at : at + SWEEP_CHUNK]
            for i, (job, mirror_job) in enumerate(zip(program, mirror)):
                pairs = [(u, v) for j, u, v in picked if j == i]
                if pairs:
                    account(
                        trace_sweep_chunk(trace, job, mirror_job, pairs, chunks % 2 == 1, errors)
                    )
            chunks += 1
        summary = metrics.sweep_summary(first)
    summary.update(metrics.trace_summary(trace, untraced_s, traced_s))
    extra = {"chunks": chunks, "untraced_chunk_s": untraced_s, "traced_chunk_s": traced_s}
    return summary, attempted, failed, extra, errors


def self_test() -> int:
    """The traced mirror must reproduce ``sweep`` and ``ev_generate`` exactly."""
    trace = Trace()
    records, references = [], []
    for workload, box in SELF_TEST_BOX.items():
        for job in wl.setup(workload):
            reference = sweep(job.family, box, budgets=job.budgets)
            references += reference
            records += [traced_candidate(trace, job.family, c.u, c.v, job.budgets) for c in reference]
    model = wl.setup("ev_d6")
    references += wl.run_ev(model, 0, SELF_TEST_EV)
    records += traced_ev(trace, model, 0, SELF_TEST_EV)
    errors: list[str] = []
    bad = compare(records, references, errors)
    for message in errors:
        print(f"mismatch: {message}", file=sys.stderr)
    print(f"self-test: {len(references)} records compared, {bad} mismatched")
    return 1 if bad or not references else 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description="sdtwists benchmark")
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--setup-sample", choices=wl.WORKLOADS, help=argparse.SUPPRESS)
    return parser


def main(argv: list[str]) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.setup_sample:
        print(json.dumps(_measure_setup(args.setup_sample)))
        return 0
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")
    end_to_end, per_layer = _declared_metrics()
    units = per_layer if args.trace else end_to_end
    values, attempted, failed, extra, errors = (traced_run if args.trace else untraced_run)(args)
    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps({"environment": environment(args), "extra": extra}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1
