"""Batch front end: configuration, experiment commands, structured reports.

Subcommands: exponents, model, family, certify, sweep, ev, density,
pair-signs.  Every run is a pure function of its configuration and seed;
reports are emitted with fixed key order, integers beyond 53-bit safety as
decimal strings, and a null timing field (wall time goes to stderr), so two
runs with the same configuration produce byte-identical output.

A config file is flat key=value with sections ([run], [curve], [sweep],
[ev], [density], [pair], [output]); command-line flags override file
values.  Exit codes: 0 success, 2 usage error, 1 internal error.  The only
environment variable consulted is SDTWISTS_WORKERS (sweep worker count).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import json
import sys
import time
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Any, Optional

from . import counting, family, galois, rootnum
from .polyarith import Poly
from .primes import is_prime

SCHEMA_VERSION = 1

_MODES = ("exponents", "model", "family", "certify", "sweep", "ev", "density", "pair-signs")

_CSV_COLUMNS = (
    "u", "v", "degree", "poly", "disc", "disc_sign",
    "kernel", "kernel_flag", "kernel_cofactor",
    "certified", "cert_route", "irreducibility", "irreducibility_route",
    "transposition_prime", "cycle_types", "point_verified",
    "residue_u", "residue_v",
    "model_p1", "model_p2", "model_p3",
    "prime_budget", "trial_bound", "kernel_bound",
    "F", "G", "H", "bounds_ok",
    "mode_field", "value",
)


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    mode: str
    curve: Optional[tuple[int, int]] = None
    degree: Optional[int] = None
    d_min: int = 3
    d_max: int = 12
    box: Optional[int] = None
    scale: Optional[Fraction] = None
    congruence: Optional[tuple[int, int, int]] = None
    region: Optional[int] = None
    prime_budget: int = 25
    trial_bound: int = 100_000
    polygon_primes: tuple[int, ...] = ()
    kernel_bound: int = 10_000
    seed: int = 0
    poly: Optional[tuple[int, ...]] = None
    form: Optional[tuple[int, ...]] = None
    samples: int = 80_000
    local_bound: int = 31
    ev_count: int = 100
    ev_certify: bool = True
    conductor: Optional[int] = None
    root_number: Optional[int] = None
    pair_power: int = 1
    pair_symbol: int = -1
    epsilon: Fraction = Fraction(1, 2)
    output_format: str = "json"
    output: Optional[str] = None

    def validate(self) -> None:
        if self.mode not in _MODES:
            raise UsageError(f"mode: unknown mode {self.mode!r}")
        if self.mode in ("model", "family", "sweep", "ev"):
            if self.curve is None:
                raise UsageError(f"curve: required for mode {self.mode}")
            if self.degree is None:
                raise UsageError(f"degree: required for mode {self.mode}")
            min_degree = 4 if self.mode == "ev" else 3  # the coefficient box needs d >= 4
            if self.degree < min_degree:
                raise UsageError(f"degree: must be at least {min_degree} for mode {self.mode}")
        if self.mode == "exponents" and not 3 <= self.d_min <= self.d_max:
            raise UsageError("d_min/d_max: need 3 <= d_min <= d_max")
        if self.mode == "sweep" and (self.box is None or self.box < 1):
            raise UsageError("box: positive sweep box required")
        if self.mode == "ev" and (self.scale is None or self.scale < 1):
            raise UsageError("scale: coefficient scale >= 1 required")
        if self.mode == "certify" and not self.poly:
            raise UsageError("poly: coefficients required for mode certify")
        if self.mode == "density" and not self.form:
            raise UsageError("form: binary form coefficients required")
        if self.mode == "pair-signs":
            if self.conductor is None or self.root_number is None:
                raise UsageError("conductor/root-number: required for mode pair-signs")
            if self.box is None or self.box < 1:
                raise UsageError("box: positive sweep box required")
        if self.congruence is not None and (len(self.congruence) != 3 or self.congruence[2] < 1):
            raise UsageError("congruence: expected u0,v0,M with M >= 1")
        for p in self.polygon_primes:
            if not is_prime(p):
                raise UsageError(f"polygon_primes: {p} is not prime")
        for name in ("region", "root_number", "pair_symbol"):
            if getattr(self, name) not in (None, -1, 1):
                raise UsageError(f"{name}: must be -1 or 1")
        if self.output_format not in ("json", "csv"):
            raise UsageError(f"format: unknown output format {self.output_format!r}")
        for name in ("prime_budget", "trial_bound", "kernel_bound", "samples",
                     "local_bound", "ev_count", "d_min", "d_max", "pair_power"):
            if getattr(self, name) < 1:
                raise UsageError(f"{name}: must be positive")
        if self.kernel_bound < 2:
            raise UsageError("kernel_bound: must be at least 2")

    def echo(self) -> dict:
        out: dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = _jsonable(value)
        return out


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, tuple):
        return list(_jsonable(v) for v in value)
    if isinstance(value, int) and abs(value) > 2**53:
        return str(value)
    return value


def _poly_str(p: Poly) -> str:
    return ",".join(str(c) for c in p.coeffs)


# ---------------------------------------------------------------------------
# Record builders.
# ---------------------------------------------------------------------------


def _candidate_record(cand: counting.FieldCandidate, model, budgets) -> dict:
    ev = cand.certificate.evidence
    return {
        "u": cand.u,
        "v": cand.v,
        "degree": cand.poly.degree,
        "poly": _poly_str(cand.poly),
        "disc": _jsonable(cand.disc),
        "disc_sign": cand.disc_sign,
        "kernel": _jsonable(cand.kernel),
        "kernel_flag": cand.kernel_flag,
        "kernel_cofactor": _jsonable(cand.kernel_cofactor),
        "certified": cand.certificate.certified,
        "cert_route": cand.certificate.route,
        "irreducibility": ev.irreducibility,
        "irreducibility_route": ev.irreducibility_route,
        "transposition_prime": ev.transposition_prime,
        "cycle_types": ";".join(sorted(str(t) for t in ev.observed_cycle_types)),
        "point_verified": cand.point_verified,
        "residue_u": cand.residue_class[0] if cand.residue_class else None,
        "residue_v": cand.residue_class[1] if cand.residue_class else None,
        "model_p1": model.p1,
        "model_p2": model.p2,
        "model_p3": model.p3,
        "prime_budget": budgets.prime_budget,
        "trial_bound": budgets.trial_bound,
        "kernel_bound": budgets.kernel_bound,
    }


def _model_record(model: family.WeierstrassModel) -> dict:
    check = family.verify_model(model)
    return {
        "B": str(model.B),
        "C": str(model.C),
        "D": str(model.D),
        "p1": model.p1,
        "p2": model.p2,
        "p3": model.p3,
        "shift_target": model.shift_target,
        "alpha": str(model.alpha),
        "epsilon": str(model.epsilon),
        "forced_modulus": model.forced_modulus,
        "denominators_at_p1": check.denominators_at_p1,
        "unit_divisibility": check.unit_divisibility,
        "cubic_congruence": check.cubic_congruence,
        "epsilon_box": check.epsilon_box,
        "forced_congruence": check.forced_congruence,
    }


def _count_report_dict(rep: counting.CountReport) -> dict:
    return {
        "degree": rep.degree,
        "x_grid": _jsonable(rep.x_grid),
        "counts": list(rep.counts),
        "class_count": rep.class_count,
        "quarantined": rep.quarantined,
        "fit_slope": rep.fit_slope,
        "target_exponent": str(rep.target_exponent),
        "sign_histogram": {str(k): v for k, v in sorted(rep.sign_histogram.items())},
        "multiplicity_histogram": {str(k): v for k, v in sorted(rep.multiplicity_histogram.items())},
    }


# ---------------------------------------------------------------------------
# Mode pipelines.
# ---------------------------------------------------------------------------


def _run_exponents(cfg: RunConfig) -> dict:
    records = []
    for d in range(cfg.d_min, cfg.d_max + 1):
        row: dict[str, Any] = {"degree": d}
        row["c_general"] = str(counting.c_exponent(d, "theorem_general")) if d >= 2 else None
        row["c_small_degree"] = str(counting.c_exponent(d, "small_degree")) if d >= 3 else None
        row["c_large_degree"] = str(counting.c_exponent(d, "large_degree")) if d >= 5 else None
        row["c_field_improvement"] = (
            str(counting.c_exponent(d, "field_improvement")) if d >= 7 else None
        )
        row["c_conditional"] = str(counting.c_exponent(d, "conditional")) if d >= 2 else None
        row["ev_box_exponent"] = str(counting.ev_exponent(d)) if d >= 4 else None
        bound = counting.schmidt_ev_alpha(d)
        row["alpha_bound"] = str(bound.alpha)
        row["alpha_witness"] = list(bound.witness) if bound.witness else None
        records.append(row)
    return {"records": records}


def _build(cfg: RunConfig):
    return family.build_family(cfg.curve, cfg.degree, epsilon=cfg.epsilon)


def _run_model(cfg: RunConfig) -> dict:
    model, _fam, _form = _build(cfg)
    return {"records": [_model_record(model)]}


def _run_family(cfg: RunConfig) -> dict:
    model, fam, form = _build(cfg)
    rec = _model_record(model)
    rec.update(
        {
            "parity_case": fam.parity_case,
            "t_power": form.t_power,
            "degree_h": form.degree_h,
            "h": _poly_str(form.h),
            "unit": str(form.unit),
            "simple_factor": _poly_str(form.simple_factor) if form.simple_factor else None,
            "grid_positive": form.grid_positive,
            "grid_negative": form.grid_negative,
        }
    )
    return {"records": [rec]}


def _run_certify(cfg: RunConfig) -> dict:
    poly = Poly(cfg.poly)
    if poly.degree < 2:
        raise UsageError("poly: degree >= 2 required")
    evidence = galois.collect_evidence(
        poly,
        poly.degree,
        cfg.prime_budget,
        polygon_primes=cfg.polygon_primes,
        trial_bound=cfg.trial_bound,
        skip_witness_for_cubic=False,
    )
    cert = galois.certify_sd(evidence)
    record = {
        "poly": _poly_str(poly),
        "degree": poly.degree,
        "status": cert.status,
        "route": cert.route,
        "irreducibility": evidence.irreducibility,
        "irreducibility_route": evidence.irreducibility_route,
        "transposition_prime": evidence.transposition_prime,
        "disc_is_square": evidence.disc_is_square,
        "cycle_types": ";".join(sorted(str(t) for t in evidence.observed_cycle_types)),
        "provenance": ["%s p=%d %s" % entry for entry in evidence.provenance],
    }
    return {"records": [record]}


def _sweep_budgets(cfg: RunConfig) -> counting.SweepBudgets:
    return counting.SweepBudgets(
        prime_budget=cfg.prime_budget,
        trial_bound=cfg.trial_bound,
        polygon_primes=cfg.polygon_primes,
        kernel_bound=cfg.kernel_bound,
    )


def _run_sweep(cfg: RunConfig) -> dict:
    model, fam, _form = _build(cfg)
    budgets = _sweep_budgets(cfg)
    cands = counting.sweep(fam, cfg.box, congruence=cfg.congruence, region=cfg.region, budgets=budgets)
    dedup = counting.dedup_classes(cands)
    report = counting.build_count_report(dedup, cfg.degree)
    return {
        "records": [_candidate_record(c, model, budgets) for c in cands],
        "count_report": _count_report_dict(report),
    }


def _run_ev(cfg: RunConfig) -> dict:
    model, _fam, _form = _build(cfg)
    ev_cfg = counting.EvConfig(
        seed=cfg.seed,
        max_instances=cfg.ev_count,
        certify=cfg.ev_certify,
        prime_budget=cfg.prime_budget,
        trial_bound=min(cfg.trial_bound, 10_000),
    )
    records = []
    for inst in counting.ev_generate(model, cfg.degree, cfg.scale, ev_cfg):
        records.append(
            {
                "F": _poly_str(inst.F),
                "G": _poly_str(inst.G),
                "H": _poly_str(inst.H),
                "degree": inst.H.degree,
                "bounds_ok": inst.bounds_ok,
                "identity_ok": inst.identity_holds(model.f),
                "certified": inst.certificate.certified if inst.certificate else None,
                "cert_route": inst.certificate.route if inst.certificate else None,
                "model_p1": model.p1,
                "model_p2": model.p2,
                "model_p3": model.p3,
            }
        )
    return {"records": records}


def _run_density(cfg: RunConfig) -> dict:
    box = cfg.box if cfg.box else 10_000
    rep = counting.greaves_density(
        cfg.form,
        box,
        congruence=cfg.congruence,
        local_bound=cfg.local_bound,
        samples=cfg.samples,
        seed=cfg.seed,
        trial_bound=cfg.kernel_bound,
    )
    record = {
        "form": ",".join(str(c) for c in cfg.form),
        "box": box,
        "empirical": rep.empirical,
        "local_product": rep.local_product,
        "sampled": rep.sampled,
        "squarefree": rep.squarefree,
        "undecided": rep.undecided,
        "square_form": rep.square_form,
        "exhaustive": rep.exhaustive,
    }
    return {"records": [record]}


def _run_pair_signs(cfg: RunConfig) -> dict:
    n = cfg.conductor
    data = rootnum.CurveArithData(n, cfg.root_number)
    residues = rootnum.cubic_twist_residues(n, cfg.pair_symbol)
    if not residues:
        raise UsageError("conductor: no residue class pins the requested symbol")
    t0 = residues[0]
    curve = cfg.curve if cfg.curve else (-16, 16)
    model = family.build_model(curve, 0, 0, cfg.epsilon, 3, force_cubic_mod=n)
    fam = family.twist_polynomial(model, 3)
    budgets = _sweep_budgets(cfg)
    cands = counting.sweep(fam, cfg.box, congruence=(t0, 1, n), budgets=budgets)
    modulus = n**cfg.pair_power
    pairs = rootnum.sign_pairing(cands, modulus, data)
    pair_records = []
    root_reports = []
    for pair in pairs:
        pair_records.append(
            {
                "pos_u": pair.positive.u,
                "pos_v": pair.positive.v,
                "neg_u": pair.negative.u,
                "neg_v": pair.negative.v,
                "pos_disc": _jsonable(pair.positive.disc),
                "neg_disc": _jsonable(pair.negative.disc),
                "pos_w_rel": pair.positive_report.w_rel,
                "neg_w_rel": pair.negative_report.w_rel,
            }
        )
        for rep in (pair.positive_report, pair.negative_report):
            root_reports.append(
                {
                    "degree": rep.d,
                    "disc": _jsonable(rep.disc),
                    "gcd_ok": rep.gcd_ok,
                    "kronecker": rep.kronecker_value,
                    "w_rel": rep.w_rel,
                }
            )
    return {
        "records": [_candidate_record(c, model, budgets) for c in cands],
        "pairs": pair_records,
        "root_reports": root_reports,
        "preset_residue": t0,
        "pair_modulus": _jsonable(modulus),
    }


_PIPELINES = {
    "exponents": _run_exponents,
    "model": _run_model,
    "family": _run_family,
    "certify": _run_certify,
    "sweep": _run_sweep,
    "ev": _run_ev,
    "density": _run_density,
    "pair-signs": _run_pair_signs,
}


def run(cfg: RunConfig) -> dict:
    """Dispatch a validated config to its pipeline; deterministic per config."""
    cfg.validate()
    payload = _PIPELINES[cfg.mode](cfg)
    report = {
        "schema_version": SCHEMA_VERSION,
        "mode": cfg.mode,
        "config": cfg.echo(),
        "records": payload.get("records", []),
        "count_report": payload.get("count_report"),
        "root_reports": payload.get("root_reports", []),
        "pairs": payload.get("pairs", []),
        "timing_seconds": None,
    }
    for key, value in payload.items():
        if key not in report:
            report[key] = value
    return report


def emit(report: dict, fmt: str = "json") -> str:
    """Serialize a report; emit(parse(emit(r))) == emit(r)."""
    if fmt == "json":
        return json.dumps(report, indent=2, allow_nan=False) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        for rec in report.get("records", []):
            writer.writerow([_csv_cell(rec.get(col)) for col in _CSV_COLUMNS])
        return buf.getvalue()
    raise UsageError(f"format: unknown output format {fmt!r}")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ";".join(str(v) for v in value)
    return str(value)


def parse(text: str) -> dict:
    return json.loads(text)


# ---------------------------------------------------------------------------
# Command line.
# ---------------------------------------------------------------------------


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from exc


def _load_config_file(path: str) -> dict:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise UsageError(f"config: cannot read {path}")
    flat: dict[str, str] = {}
    for section in parser.sections():
        for key, value in parser.items(section):
            flat[f"{section}.{key}"] = value
    return flat


_FILE_KEYS = {
    "run.mode": ("mode", str),
    "run.degree": ("degree", int),
    "run.seed": ("seed", int),
    "run.d_min": ("d_min", int),
    "run.d_max": ("d_max", int),
    "run.epsilon": ("epsilon", Fraction),
    "curve.a": ("_curve_a", int),
    "curve.b": ("_curve_b", int),
    "sweep.box": ("box", int),
    "sweep.congruence": ("congruence", _parse_int_tuple),
    "sweep.region": ("region", int),
    "sweep.prime_budget": ("prime_budget", int),
    "sweep.trial_bound": ("trial_bound", int),
    "sweep.kernel_bound": ("kernel_bound", int),
    "sweep.polygon_primes": ("polygon_primes", _parse_int_tuple),
    "ev.scale": ("scale", Fraction),
    "ev.count": ("ev_count", int),
    "ev.certify": ("ev_certify", lambda s: s.lower() in ("1", "true", "yes")),
    "certify.poly": ("poly", _parse_int_tuple),
    "density.form": ("form", _parse_int_tuple),
    "density.samples": ("samples", int),
    "density.local_bound": ("local_bound", int),
    "pair.conductor": ("conductor", int),
    "pair.root_number": ("root_number", int),
    "pair.power": ("pair_power", int),
    "pair.symbol": ("pair_symbol", int),
    "output.format": ("output_format", str),
    "output.path": ("output", str),
}


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    values: dict[str, Any] = {}
    if args.config:
        flat = _load_config_file(args.config)
        for key, raw in flat.items():
            if key not in _FILE_KEYS:
                raise UsageError(f"config: unknown key {key}")
            name, conv = _FILE_KEYS[key]
            values[name] = conv(raw)
    curve_a = values.pop("_curve_a", None)
    curve_b = values.pop("_curve_b", None)
    if curve_a is not None and curve_b is not None:
        values["curve"] = (curve_a, curve_b)
    elif (curve_a is None) != (curve_b is None):
        raise UsageError("curve: both a and b are required")

    overrides = {
        "degree": args.degree,
        "box": args.box,
        "seed": args.seed,
        "region": args.region,
        "prime_budget": args.prime_budget,
        "trial_bound": args.trial_bound,
        "kernel_bound": args.kernel_bound,
        "samples": args.samples,
        "local_bound": args.local_bound,
        "ev_count": args.count,
        "conductor": args.conductor,
        "root_number": args.root_number,
        "pair_power": args.power,
        "pair_symbol": args.symbol,
        "d_min": args.d_min,
        "d_max": args.d_max,
        "output_format": args.format,
        "output": args.output,
    }
    for name, value in overrides.items():
        if value is not None:
            values[name] = value
    if args.curve is not None:
        parts = _parse_int_tuple(args.curve)
        if len(parts) != 2:
            raise UsageError("curve: expected a,b")
        values["curve"] = (parts[0], parts[1])
    if args.congruence is not None:
        parts = _parse_int_tuple(args.congruence)
        if len(parts) != 3:
            raise UsageError("congruence: expected u0,v0,M")
        values["congruence"] = (parts[0], parts[1], parts[2])
    if args.polygon_primes is not None:
        values["polygon_primes"] = _parse_int_tuple(args.polygon_primes)
    if args.poly is not None:
        values["poly"] = _parse_int_tuple(args.poly)
    if args.form is not None:
        values["form"] = _parse_int_tuple(args.form)
    if args.scale is not None:
        values["scale"] = Fraction(args.scale)
    if args.epsilon is not None:
        values["epsilon"] = Fraction(args.epsilon)
    if args.no_ev_certify:
        values["ev_certify"] = False
    values["mode"] = args.mode
    return RunConfig(**values)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdtwists",
        description="construct, certify and count symmetric-group fields where an elliptic curve gains a point",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in _MODES:
        p = sub.add_parser(mode)
        p.add_argument("--config", help="key=value config file with sections")
        p.add_argument("--curve", help="curve coefficients a,b of y^2 = x^3 + a x + b")
        p.add_argument("--degree", type=int)
        p.add_argument("--box", type=int, help="sweep box bound U")
        p.add_argument("--congruence", help="u0,v0,M residue filter")
        p.add_argument("--region", type=int, choices=(-1, 1), help="discriminant sign filter")
        p.add_argument("--prime-budget", dest="prime_budget", type=int)
        p.add_argument("--trial-bound", dest="trial_bound", type=int)
        p.add_argument("--kernel-bound", dest="kernel_bound", type=int)
        p.add_argument("--polygon-primes", dest="polygon_primes")
        p.add_argument("--seed", type=int)
        p.add_argument("--poly", help="ascending coefficients c0,c1,...,cd")
        p.add_argument("--form", help="binary form coefficients of sum f_i u^(m-i) v^i")
        p.add_argument("--samples", type=int)
        p.add_argument("--local-bound", dest="local_bound", type=int)
        p.add_argument("--scale", help="coefficient scale Y (rational)")
        p.add_argument("--count", type=int, help="instances to generate")
        p.add_argument("--no-certify", dest="no_ev_certify", action="store_true")
        p.add_argument("--conductor", type=int)
        p.add_argument("--root-number", dest="root_number", type=int, choices=(-1, 1))
        p.add_argument("--power", type=int, help="pairing modulus exponent")
        p.add_argument("--symbol", type=int, choices=(-1, 1), help="target Kronecker value")
        p.add_argument("--d-min", dest="d_min", type=int)
        p.add_argument("--d-max", dest="d_max", type=int)
        p.add_argument("--epsilon", help="model closeness epsilon (rational)")
        p.add_argument("--format", choices=("json", "csv"))
        p.add_argument("--output", help="output path (default stdout)")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        cfg = _config_from_args(args)
        report = run(cfg)
        text = emit(report, cfg.output_format)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    print(f"elapsed: {time.monotonic() - started:.3f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
