"""Summaries of a unit's output and of a trace, as named metric values."""

from __future__ import annotations

import math
import statistics
from collections import Counter

from sdtwists.counting import KERNEL_COMPLETE, KERNEL_PARTIAL

from tracing import Trace, witness_ran

ROUTES = ("standard", "cubic-disc")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def field_summary(cands) -> dict:
    """Yield and kernel figures of FieldCandidates, over distinct polynomials
    (so sweeping t and -t once or twice gives the same figures)."""
    distinct = list({c.poly: c for c in cands}.values())
    eligible = [c for c in distinct if c.eligible]
    kernels = [c for c in distinct if c.disc]
    cofactor_bits = [c.kernel_cofactor.bit_length() for c in kernels if c.kernel_flag == KERNEL_PARTIAL]
    return {
        "certified_share": share(len(eligible), len(distinct)),
        "counting.quarantined_share": share(
            sum(c.kernel_flag == KERNEL_PARTIAL for c in eligible), len(eligible)
        ),
        "counting.kernel.complete_share": share(
            sum(c.kernel_flag == KERNEL_COMPLETE for c in kernels), len(kernels)
        ),
        "counting.kernel.cofactor_bits_p50": statistics.median(cofactor_bits) if cofactor_bits else 0,
        "counting.sweep.distinct_share": share(len(distinct), len(cands)),
    }


def galois_summary(evaluated, distinct) -> dict:
    """Routes over distinct outcomes; witness searches over evaluated ones.

    Both arguments are lists of (polynomial, SdCertificate or None)."""
    routes = Counter(cert.route if cert else None for _, cert in distinct)
    searched = [cert for _, cert in evaluated if cert and witness_ran(cert.evidence)]
    found = sum(cert.evidence.transposition_prime is not None for cert in searched)
    out = {f"galois.route.{route}": routes[route] for route in ROUTES}
    out["galois.route.none"] = routes[None]
    out["galois.witness_calls"] = len(searched)
    out["galois.witness_found_share"] = share(found, len(searched))
    return out


def sweep_summary(results) -> dict:
    cands = [c for res in results for c in res.candidates]
    pairs = [(c.poly, c.certificate) for c in cands]
    out = field_summary(cands)
    out.update(galois_summary(pairs, list(dict(pairs).items())))
    out["counting.classes"] = sum(res.report.class_count for res in results)
    return out


def ev_summary(instances) -> dict:
    pairs = [(inst.H, inst.certificate) for inst in instances]
    distinct = dict(pairs)
    certified = sum(bool(cert and cert.certified) for _, cert in pairs)
    out = galois_summary(pairs, list(distinct.items()))
    out["certified_share"] = share(certified, len(pairs))
    out["counting.sweep.distinct_share"] = share(len(distinct), len(pairs))
    return out


def mean_ms(values) -> float:
    return 1000 * statistics.fmean(values) if values else 0.0


def trace_summary(trace: Trace, untraced_s: float, traced_s: float) -> dict:
    """Per-layer ms per call, evidence tails and the tracing overhead."""
    spans = trace.spans
    layers = (
        "family.build_family", "candidate.build", "polyarith.discriminant",
        "candidate.point_check", "galois.collect_evidence", "padic.frobenius_cycle_type",
        "galois.transposition_witness", "galois.certify_sd", "counting.squarefree_kernel",
        "counting.dedup",
    )
    out = {f"{name}.ms": mean_ms(spans[name]) for name in layers}
    evidence = spans["galois.collect_evidence"]
    out["galois.collect_evidence.p99_ms"] = 1000 * percentile(evidence, 99) if evidence else 0.0
    out["galois.good_primes"] = share(len(spans["padic.frobenius_cycle_type"]), len(evidence))
    cands = spans["candidate"]
    out["candidate.p50_ms"] = 1000 * percentile(cands, 50)
    out["candidate.p99_ms"] = 1000 * percentile(cands, 99)
    out["trace.candidates"] = len(cands)
    out["trace.overhead_share"] = traced_s / untraced_s - 1
    return out
