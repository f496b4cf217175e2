"""The three benchmark workloads: set-up, the count pass and the unit of work.

Every workload goes through the public API of ``sdtwists`` only.

* The *count pass* runs the workload at full size once per run: ``sweep``
  over the whole box, then ``dedup_classes`` and ``build_count_report``, once
  per family; or one ``ev_generate`` call of ``EV_INSTANCES`` certified
  instances on the run seed.  Counts, yield and the oracle checks come from
  it.
* A *unit* is the same work at a smaller size, short enough to interleave
  with calibration slices: the sweeps at ``UNIT_BOX``, or ``EV_UNIT_INSTANCES``
  instances on a seed derived from the run seed and the unit index.  Each
  unit is one throughput sample.

The work of a sweep is the number of coprime (u, v) pairs in its boxes,
counted here independently of the program, so a sweep that evaluates fewer
candidates for the same box counts as faster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from sdtwists import (
    EvConfig,
    SweepBudgets,
    TwistFamily,
    WeierstrassModel,
    build_count_report,
    build_family,
    dedup_classes,
    disc_form,
    ev_generate,
    sweep,
    twist_polynomial,
    verify_model,
)
from sdtwists.counting import ev_boxes

WORKLOADS = ("compact_d3", "built_d5_d6", "ev_d6")

CURVE = (1, 1)
COMPACT_BOX = 50
COMPACT_BUDGETS = SweepBudgets(prime_budget=10, kernel_bound=30_000)
BUILT_BOX = 12
BUILT_DEGREES = (5, 6)
EV_DEGREE = 6
EV_SCALE = Fraction(8)
EV_INSTANCES = 600
UNIT_BOX = {"compact_d3": 12, "built_d5_d6": 4}
EV_UNIT_INSTANCES = 50
EV_TRIAL_BOUND = 10_000
# Kernel bound for the traced count of EV fields (the EV mode itself takes no
# kernels); the sweep default.
EV_KERNEL_BOUND = SweepBudgets().kernel_bound


@dataclass(frozen=True)
class SweepJob:
    """One family swept over one box."""

    family: TwistFamily
    box: int
    budgets: SweepBudgets


@dataclass(frozen=True)
class SweepResult:
    job: SweepJob
    candidates: list
    dedup: object
    report: object


def coprime_pairs(box: int) -> list[tuple[int, int]]:
    """Coprime (u, v) with |u|, |v| <= box and v != 0, in lexicographic order."""
    return [
        (u, v)
        for u in range(-box, box + 1)
        for v in range(-box, box + 1)
        if v and math.gcd(u, v) == 1
    ]


def compact_model() -> WeierstrassModel:
    """The compact d = 3 model of the acceptance suite's count criterion."""
    model = WeierstrassModel(
        B=Fraction(7), C=Fraction(-28), D=Fraction(35), p1=11, p2=5, p3=7,
        shift_target=0, alpha=Fraction(0), epsilon=Fraction(100),
    )
    if not verify_model(model).all_ok():
        raise ValueError("compact model fails its invariants")
    return model


def build_compact_family() -> TwistFamily:
    family = twist_polynomial(compact_model(), 3)
    disc_form(family)
    return family


def setup(workload: str):
    """Model, family and discriminant-form construction for a workload.

    Returns a list of ``SweepJob`` for the sweeps, and the Weierstrass model
    for ``ev_d6``.
    """
    if workload == "compact_d3":
        return [SweepJob(build_compact_family(), COMPACT_BOX, COMPACT_BUDGETS)]
    if workload == "built_d5_d6":
        return [
            SweepJob(build_family(CURVE, d)[1], BUILT_BOX, SweepBudgets())
            for d in BUILT_DEGREES
        ]
    if workload == "ev_d6":
        model = build_family(CURVE, EV_DEGREE)[0]
        a_bounds, b_bounds = ev_boxes(EV_DEGREE, EV_SCALE)
        volume = math.prod(2 * b + 1 for b in a_bounds + b_bounds)
        if volume <= EvConfig().exhaustive_limit:
            raise ValueError("EV box is small enough to be walked, not sampled")
        return model
    raise ValueError(f"unknown workload {workload!r}")


def ev_config(seed: int, instances: int = EV_INSTANCES) -> EvConfig:
    return EvConfig(
        seed=seed, max_instances=instances, certify=True, trial_bound=EV_TRIAL_BOUND
    )


def unit_seed(seed: int, index: int) -> int:
    """Seed of the index-th EV unit or traced chunk of a run."""
    return seed * 1_000_003 + 1 + index


def run_sweeps(jobs: list[SweepJob]) -> list[SweepResult]:
    out = []
    for job in jobs:
        cands = sweep(job.family, job.box, budgets=job.budgets)
        dedup = dedup_classes(cands)
        out.append(SweepResult(job, cands, dedup, build_count_report(dedup, job.family.d)))
    return out


def run_ev(model: WeierstrassModel, seed: int, instances: int = EV_INSTANCES) -> list:
    return list(ev_generate(model, EV_DEGREE, EV_SCALE, ev_config(seed, instances)))


def run_count(workload: str, state, seed: int):
    """The full-size pass of a workload."""
    if workload == "ev_d6":
        return run_ev(state, seed)
    return run_sweeps(state)


def unit_jobs(workload: str, jobs: list[SweepJob]) -> list[SweepJob]:
    return [replace(job, box=UNIT_BOX[workload]) for job in jobs]


def run_unit(workload: str, state, seed: int, index: int):
    """The index-th throughput unit of a run."""
    if workload == "ev_d6":
        return run_ev(state, unit_seed(seed, index), EV_UNIT_INSTANCES)
    return run_sweeps(unit_jobs(workload, state))


def count_work(workload: str, state) -> int:
    """Work items in the count pass."""
    if workload == "ev_d6":
        return EV_INSTANCES
    return sum(len(coprime_pairs(job.box)) for job in state)


def unit_work(workload: str, state) -> int:
    """Work items in one unit: coprime pairs in the boxes, or EV instances."""
    if workload == "ev_d6":
        return EV_UNIT_INSTANCES
    return sum(len(coprime_pairs(job.box)) for job in unit_jobs(workload, state))


def family_builders(workload: str) -> list:
    """The family constructions of a workload's set-up, one callable each."""
    if workload == "compact_d3":
        return [build_compact_family]
    degrees = BUILT_DEGREES if workload == "built_d5_d6" else (EV_DEGREE,)
    return [lambda d=d: build_family(CURVE, d) for d in degrees]
