"""Traced decomposition of the candidate pipeline into public calls.

``sweep`` evaluates each (u, v) with the private ``counting._candidate``:
specialize, discriminant, point check, Galois evidence, certificate and
squarefree kernel.  ``traced_candidate`` makes the same public calls in the
same order and times each one; ``traced_ev`` does the same for the draws of
one ``ev_generate`` call.  Every traced record is compared field by field with
the program's own output for the same input, so the per-layer times describe
the work the untraced run does.

Probes re-run a function the pipeline calls inside another layer, to time it
on its own: Frobenius cycle types at the good primes listed in the evidence
provenance, and the transposition-witness search.  On ev_d6 the steps a sweep
takes after certification (point check, discriminant, kernel) are probes too,
since the EV mode does not take them.  Probe time is kept out of the
candidate times and out of the tracing overhead.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass, fields, replace
from time import perf_counter

from sdtwists import (
    FieldCandidate,
    GaloisEvidence,
    Poly,
    SdCertificate,
    certify_sd,
    collect_evidence,
    discriminant,
    frobenius_cycle_type,
    specialize,
    squarefree_kernel,
    sweep,
    transposition_witness,
    verify_new_point,
)
from sdtwists.counting import KERNEL_ZERO, ev_boxes, ev_instance
from sdtwists.galois import CERTIFIED, INCONCLUSIVE

import workloads as wl


class Trace:
    """Durations in seconds per span name, and the total spent in probes."""

    def __init__(self) -> None:
        self.spans: dict[str, list[float]] = defaultdict(list)
        self.probe_s = 0.0

    def call(self, name: str, fn, *args, **kwargs):
        start = perf_counter()
        out = fn(*args, **kwargs)
        self.spans[name].append(perf_counter() - start)
        return out

    def probe(self, name: str, fn, *args, **kwargs):
        start = perf_counter()
        out = fn(*args, **kwargs)
        elapsed = perf_counter() - start
        self.spans[name].append(elapsed)
        self.probe_s += elapsed
        return out


def witness_ran(evidence: GaloisEvidence) -> bool:
    """Whether ``collect_evidence`` searched for a transposition witness."""
    cubic_shortcut = evidence.degree == 3 and evidence.disc_is_square is False
    return evidence.irreducibility == CERTIFIED and not cubic_shortcut


def normalized(f: Poly) -> Poly:
    """Primitive integral multiple with positive lead, as the galois layer uses."""
    g = f.primitive()
    return -g if g.lead < 0 else g


def _inconclusive(degree: int) -> SdCertificate:
    evidence = GaloisEvidence(
        degree=max(degree, 2),
        observed_cycle_types=frozenset(),
        transposition_prime=None,
        irreducibility=INCONCLUSIVE,
        irreducibility_route=None,
        disc_is_square=True,
    )
    return SdCertificate(INCONCLUSIVE, evidence)


def traced_candidate(trace: Trace, family, u: int, v: int, budgets) -> FieldCandidate:
    """The public-call mirror of one sweep candidate (no congruence)."""
    d = family.d
    poly = trace.call("candidate.build", specialize, family, u, v)
    disc = int(trace.call("polyarith.discriminant", discriminant, poly)) if poly.degree >= 1 else 0
    point_ok = poly.degree >= 1 and trace.call(
        "candidate.point_check", verify_new_point, poly, family, u, v
    )
    if disc == 0 or poly.degree != d:
        cert = _inconclusive(poly.degree)
    else:
        evidence = trace.call(
            "galois.collect_evidence", collect_evidence, poly, d, budgets.prime_budget,
            polygon_primes=budgets.polygon_primes, trial_bound=budgets.trial_bound,
        )
        cert = trace.call("galois.certify_sd", certify_sd, evidence)
    if disc == 0:
        kernel, flag, cofactor = 0, KERNEL_ZERO, 0
    else:
        kernel, flag, cofactor = trace.call(
            "counting.squarefree_kernel", squarefree_kernel, disc, budgets.kernel_bound
        )
    return FieldCandidate(
        u=u, v=v, poly=poly, disc=disc, disc_sign=(disc > 0) - (disc < 0),
        kernel=kernel, kernel_flag=flag, kernel_cofactor=cofactor,
        certificate=cert, point_verified=point_ok, residue_class=None,
    )


def probe_evidence(trace: Trace, poly: Poly, cert: SdCertificate, trial_bound: int) -> int:
    """Re-run the Frobenius scan and the witness search; count disagreements.

    The witness search is probed whenever irreducibility is certified, also
    where the pipeline skips it (the d = 3 route), to show what it costs.
    """
    evidence = cert.evidence
    g = normalized(poly)
    bad = 0
    for kind, p, cycle_type in evidence.provenance:
        if kind == "frobenius_cycle_type":
            got = trace.probe("padic.frobenius_cycle_type", frobenius_cycle_type, g, p)
            bad += str(got) != cycle_type
    if evidence.irreducibility == CERTIFIED:
        found = trace.probe("galois.transposition_witness", transposition_witness, g, trial_bound)
        bad += witness_ran(evidence) and found != evidence.transposition_prime
    return bad


def compare(records, references, errors: list[str]) -> int:
    """Records that differ from their reference, field by field."""
    bad = int(len(records) != len(references))
    for rec, ref in zip(records, references):
        names = [f.name for f in fields(ref) if getattr(rec, f.name) != getattr(ref, f.name)]
        if names:
            bad += 1
            if len(errors) < 5:
                errors.append(f"{type(ref).__name__}: fields differ: {', '.join(names)}")
    return bad


def _timed(fn, *args):
    start = perf_counter()
    out = fn(*args)
    return out, perf_counter() - start


@dataclass
class ChunkResult:
    """One chunk run both ways; ``traced_s`` excludes probe time."""

    records: list
    untraced_s: float
    traced_s: float
    mismatches: int


def _run_both(trace: Trace, untraced, traced, traced_first: bool, errors: list[str]) -> ChunkResult:
    """Run the untraced call and the traced mirror, in the given order, and compare."""
    probe_before = trace.probe_s
    if traced_first:
        (records, bad), traced_s = _timed(traced)
        reference, untraced_s = _timed(untraced)
    else:
        reference, untraced_s = _timed(untraced)
        (records, bad), traced_s = _timed(traced)
    traced_s -= trace.probe_s - probe_before
    bad += compare(records, reference, errors)
    return ChunkResult(records, untraced_s, traced_s, bad)


def trace_sweep_chunk(trace: Trace, job: wl.SweepJob, mirror_job: wl.SweepJob, pairs,
                      traced_first: bool, errors: list[str]) -> ChunkResult:
    """Untraced ``sweep(pairs=...)`` on ``job`` and the traced mirror on
    ``mirror_job``, a separately set-up copy, on the same pairs."""

    def traced():
        out, bad = [], 0
        for u, v in pairs:
            start = perf_counter()
            rec = traced_candidate(trace, mirror_job.family, u, v, mirror_job.budgets)
            trace.spans["candidate"].append(perf_counter() - start)
            bad += probe_evidence(trace, rec.poly, rec.certificate, job.budgets.trial_bound)
            out.append(rec)
        return out, bad

    def untraced():
        return sweep(job.family, job.box, budgets=job.budgets, pairs=pairs)

    return _run_both(trace, untraced, traced, traced_first, errors)


def trace_ev_chunk(
    trace: Trace, model, mirror_model, seed: int, instances: int, traced_first: bool,
    errors: list[str],
) -> tuple[ChunkResult, list[FieldCandidate]]:
    """Untraced ``ev_generate`` on ``model`` and the traced mirror on
    ``mirror_model``, a separately set-up copy, on the same seed.

    Also returns a ``FieldCandidate`` per instance, built from probes of the
    steps a sweep takes after certification, so EV fields can be counted
    with ``dedup_classes`` like sweep candidates.
    """
    counted: list[FieldCandidate] = []

    def traced():
        out, bad = [], 0
        for index, inst in enumerate(traced_ev(trace, mirror_model, seed, instances)):
            if inst.certificate is not None:
                bad += probe_evidence(trace, inst.H, inst.certificate, wl.EV_TRIAL_BOUND)
            counted.append(_ev_field(trace, mirror_model, index, inst))
            out.append(inst)
        return out, bad

    def untraced():
        return wl.run_ev(model, seed, instances)

    return _run_both(trace, untraced, traced, traced_first, errors), counted


def traced_ev(trace: Trace, model, seed: int, instances: int):
    """The public-call mirror of ``ev_generate`` in its sampling mode; yields
    each instance as soon as it is built and certified."""
    d, y = wl.EV_DEGREE, wl.EV_SCALE
    config = wl.ev_config(seed, instances)
    a_bounds, b_bounds = ev_boxes(d, y)
    rng = random.Random(config.seed)
    for _ in range(config.max_instances):
        a = [rng.randint(-bound, bound) for bound in a_bounds]
        b = [rng.randint(-bound, bound) for bound in b_bounds]
        start = perf_counter()
        inst = trace.call("candidate.build", ev_instance, model, d, y, a, b)
        if config.certify and inst.H.degree == d:
            evidence = trace.call(
                "galois.collect_evidence", collect_evidence, inst.H, d,
                config.prime_budget, trial_bound=config.trial_bound,
            )
            inst = replace(inst, certificate=trace.call("galois.certify_sd", certify_sd, evidence))
        trace.spans["candidate"].append(perf_counter() - start)
        yield inst


def _ev_field(trace: Trace, model, index: int, inst) -> FieldCandidate:
    g = normalized(inst.H)
    point_ok = trace.probe("candidate.point_check", inst.identity_holds, model.f)
    disc = int(trace.probe("polyarith.discriminant", discriminant, g))
    if disc:
        kernel, flag, cofactor = trace.probe(
            "counting.squarefree_kernel", squarefree_kernel, disc, wl.EV_KERNEL_BOUND
        )
    else:
        kernel, flag, cofactor = 0, KERNEL_ZERO, 0
    return FieldCandidate(
        u=index, v=1, poly=g, disc=disc, disc_sign=(disc > 0) - (disc < 0),
        kernel=kernel, kernel_flag=flag, kernel_cofactor=cofactor,
        certificate=inst.certificate or _inconclusive(inst.H.degree),
        point_verified=point_ok, residue_class=None,
    )
