"""Batch front end: configuration, experiment commands, structured reports.

Subcommands: exponents, model, family, certify, sweep, ev, density,
pair-signs.  Every run is a pure function of its configuration and seed;
reports are emitted with fixed key order, integers beyond 53-bit safety as
decimal strings, and a null timing field (wall time goes to stderr), so two
runs with the same configuration produce byte-identical output.  A record
that is a library dataclass (the config echo, the model with its check, the
count report, the density report) is its fields in declaration order
(``_record``), so a field added there reaches the report unwritten here;
the other records name their own keys.  The exponents table reads each
exponent's least degree from ``counting``.  A CSV report is the records
alone: its columns are the records' keys in the order they first appear,
one row per record, so it holds every value of the JSON records.

A config file is flat key=value with sections ([run], [curve], [sweep],
[ev], [certify], [density], [pair], [output]); command-line flags override
file values.  Each option is declared once, on its RunConfig field.  Exit
codes: 0 success, 2 usage error, 1 internal error.  A usage error is a
missing or out-of-range value, such as a conductor below 2, a nonpositive
epsilon, a singular curve, a density form that is constant or of degree
above 6 or a sweep congruence class with no coprime pair, and is reported
as ``usage error: <field>: ...``.  The only environment variable consulted
is SDTWISTS_WORKERS (sweep worker count).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import json
import math
import sys
import time
from dataclasses import MISSING, dataclass, field, fields
from fractions import Fraction
from typing import Any, Optional

from . import counting, family, galois, rootnum
from .polyarith import Poly
from .primes import is_prime

SCHEMA_VERSION = 1

_MODES = ("exponents", "model", "family", "certify", "sweep", "ev", "density", "pair-signs")

_EV_TRIAL_BOUND_CAP = 10_000


class UsageError(Exception):
    pass


def _int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip() != "")


def _boolean(text: str) -> bool:
    states = configparser.ConfigParser.BOOLEAN_STATES
    if text.lower() not in states:
        raise ValueError(f"not a boolean: {text!r}")
    return states[text.lower()]


def _option(default, key, convert=int, *, flag=None, const=None, choices=(), minimum=None, help=None):
    """A RunConfig field with the one declaration of its option.

    ``key`` is the config-file key ``section.name``, and ``flag`` defaults to
    ``--name`` with dashes; an empty flag means none.  ``convert`` reads the
    text of either.  A flag with ``const`` takes no argument and stands for
    that text.  ``choices`` and ``minimum`` are checked by ``validate``.
    """
    if flag is None:
        flag = "--" + key.split(".")[1].replace("_", "-")
    return field(default=default, metadata={
        "key": key, "flag": flag, "convert": convert, "const": const,
        "choices": choices, "minimum": minimum, "help": help,
    })


@dataclass
class RunConfig:
    mode: str = _option(MISSING, "run.mode", str, flag="", choices=_MODES)
    curve: Optional[tuple[int, int]] = _option(
        None, None, _int_tuple, flag="--curve",
        help="curve coefficients a,b of y^2 = x^3 + a x + b (file keys [curve] a, b)")
    degree: Optional[int] = _option(None, "run.degree", help="field degree d")
    d_min: int = _option(
        counting.ALPHA_MIN_DEGREE, "run.d_min", minimum=1, help="first degree of the exponents table")
    d_max: int = _option(12, "run.d_max", minimum=1, help="last degree of the exponents table")
    box: Optional[int] = _option(None, "sweep.box", minimum=1, help="box bound U of the sweep or density")
    scale: Optional[Fraction] = _option(None, "ev.scale", Fraction, help="coefficient scale Y (rational)")
    congruence: Optional[tuple[int, int, int]] = _option(
        None, "sweep.congruence", _int_tuple, help="u0,v0,M residue filter")
    region: Optional[int] = _option(None, "sweep.region", choices=(-1, 1), help="discriminant sign filter")
    prime_budget: int = _option(
        25, "sweep.prime_budget", minimum=1,
        help="at most this many good primes; the scan stops once the certificate's facts hold")
    trial_bound: int = _option(
        100_000, "sweep.trial_bound", minimum=1,
        help=f"search bound of the transposition prime; ev mode caps it at {_EV_TRIAL_BOUND_CAP:,}")
    polygon_primes: tuple[int, ...] = _option(
        (), "sweep.polygon_primes", _int_tuple, help="primes p,q,... for Newton-polygon irreducibility")
    kernel_bound: int = _option(
        10_000, "sweep.kernel_bound", minimum=2, help="trial-division bound of squarefree kernels")
    seed: int = _option(0, "run.seed", help="random seed of ev and density sampling")
    poly: Optional[tuple[int, ...]] = _option(
        None, "certify.poly", _int_tuple, help="ascending coefficients c0,c1,...,cd")
    form: Optional[tuple[int, ...]] = _option(
        None, "density.form", _int_tuple, help="binary form coefficients of sum f_i u^(m-i) v^i")
    samples: int = _option(80_000, "density.samples", minimum=1, help="sampled points of a large box")
    local_bound: int = _option(31, "density.local_bound", minimum=1, help="prime bound of the local product")
    ev_count: int = _option(100, "ev.count", minimum=1, help="instances to generate")
    ev_certify: bool = _option(
        True, "ev.certify", _boolean, flag="--no-certify", const="false", help="do not certify ev instances")
    conductor: Optional[int] = _option(
        None, "pair.conductor", minimum=2, help="conductor N of the curve")
    root_number: Optional[int] = _option(
        None, "pair.root_number", choices=(-1, 1), help="global root number of the curve")
    pair_power: int = _option(1, "pair.power", minimum=1, help="pairing modulus exponent")
    pair_symbol: int = _option(-1, "pair.symbol", choices=(-1, 1), help="target Kronecker value")
    epsilon: Fraction = _option(
        Fraction(1, 2), "run.epsilon", Fraction, help="model closeness epsilon (rational)")
    output_format: str = _option("json", "output.format", str, choices=("json", "csv"), help="report format")
    output: Optional[str] = _option(
        None, "output.path", str, flag="--output", help="output path (default stdout)")

    def validate(self) -> None:
        for f in fields(self):
            value, choices, minimum = getattr(self, f.name), f.metadata["choices"], f.metadata["minimum"]
            if value is not None and choices and value not in choices:
                raise UsageError(f"{f.name}: must be one of {', '.join(map(str, choices))}")
            if value is not None and minimum is not None and value < minimum:
                raise UsageError(f"{f.name}: must be at least {minimum}")
        if self.mode in ("model", "family", "sweep", "ev"):
            if self.curve is None:
                raise UsageError(f"curve: required for mode {self.mode}")
            if self.degree is None:
                raise UsageError(f"degree: required for mode {self.mode}")
            min_degree = counting.BOX_MIN_DEGREE if self.mode == "ev" else family.MIN_DEGREE
            if self.degree < min_degree:
                raise UsageError(f"degree: must be at least {min_degree} for mode {self.mode}")
        if self.mode == "exponents" and not counting.ALPHA_MIN_DEGREE <= self.d_min <= self.d_max:
            raise UsageError(f"d_min/d_max: need {counting.ALPHA_MIN_DEGREE} <= d_min <= d_max")
        if self.mode == "sweep" and self.box is None:
            raise UsageError("box: sweep box required")
        if self.mode == "ev" and (self.scale is None or self.scale < 1):
            raise UsageError("scale: coefficient scale >= 1 required")
        if self.mode == "certify" and not self.poly:
            raise UsageError("poly: coefficients required for mode certify")
        if self.mode == "density":
            if not self.form:
                raise UsageError("form: binary form coefficients required")
            if len(self.form) > 7:
                raise UsageError("form: binary form degree must be at most 6")
            if len(self.form) < 2 or not any(self.form):
                raise UsageError("form: must be nonconstant")
        if self.mode == "pair-signs":
            if self.conductor is None or self.root_number is None:
                raise UsageError("conductor/root-number: required for mode pair-signs")
            if self.box is None:
                raise UsageError("box: sweep box required")
        if self.curve is not None:
            if len(self.curve) != 2:
                raise UsageError("curve: expected a,b")
            a, b = self.curve
            if 4 * a**3 + 27 * b**2 == 0:
                raise UsageError("curve: singular (4a^3 + 27b^2 = 0)")
        if self.epsilon <= 0:
            raise UsageError("epsilon: must be positive")
        if self.congruence is not None:
            if len(self.congruence) != 3 or self.congruence[2] < 1:
                raise UsageError("congruence: expected u0,v0,M with M >= 1")
            if self.mode == "sweep" and math.gcd(*self.congruence) != 1:
                raise UsageError("congruence: gcd(u0, v0, M) > 1 admits no coprime pairs")
        for p in self.polygon_primes:
            try:
                prime = is_prime(p)
            except ValueError as exc:
                raise UsageError(f"polygon_primes: {exc}") from exc
            if not prime:
                raise UsageError(f"polygon_primes: {p} is not prime")


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, tuple):
        return list(_jsonable(v) for v in value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(value.items())}
    if isinstance(value, int) and abs(value) > 2**53:
        return str(value)
    return value


def _record(*objects) -> dict:
    """The fields of these dataclass instances, in declaration order, each
    through ``_jsonable``."""
    return {f.name: _jsonable(getattr(obj, f.name)) for obj in objects for f in fields(obj)}


def _poly_str(p: Poly) -> str:
    return ",".join(str(c) for c in p.coeffs)


# ---------------------------------------------------------------------------
# Record builders.
# ---------------------------------------------------------------------------


def _model_primes(model) -> dict:
    """The model's primes p1..p3 under the report keys model_p1..model_p3."""
    return {"model_p1": model.p1, "model_p2": model.p2, "model_p3": model.p3}


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
        **_model_primes(model),
        "prime_budget": budgets.prime_budget,
        "trial_bound": budgets.trial_bound,
        "kernel_bound": budgets.kernel_bound,
    }


# ---------------------------------------------------------------------------
# Mode pipelines.
# ---------------------------------------------------------------------------


def _run_exponents(cfg: RunConfig) -> dict:
    records = []
    for d in range(cfg.d_min, cfg.d_max + 1):
        row: dict[str, Any] = {"degree": d}
        # columns in the order of C_MIN_DEGREE, c_general for theorem_general
        for mode, least in counting.C_MIN_DEGREE.items():
            row["c_" + mode.removeprefix("theorem_")] = (
                str(counting.c_exponent(d, mode)) if d >= least else None
            )
        row["ev_box_exponent"] = (
            str(counting.ev_exponent(d)) if d >= counting.BOX_MIN_DEGREE else None
        )
        bound = counting.schmidt_ev_alpha(d)
        row["alpha_bound"] = str(bound.alpha)
        row["alpha_witness"] = list(bound.witness) if bound.witness else None
        records.append(row)
    return {"records": records}


def _build(cfg: RunConfig):
    return family.build_family(cfg.curve, cfg.degree, epsilon=cfg.epsilon)


def _run_model(cfg: RunConfig) -> dict:
    model, _fam, _form = _build(cfg)
    return {"records": [_record(model, family.verify_model(model))]}


def _run_family(cfg: RunConfig) -> dict:
    model, fam, form = _build(cfg)
    rec = _record(model, family.verify_model(model))
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
        "count_report": _record(report),
    }


def _run_ev(cfg: RunConfig) -> dict:
    model, _fam, _form = _build(cfg)
    ev_cfg = counting.EvConfig(
        seed=cfg.seed,
        max_instances=cfg.ev_count,
        certify=cfg.ev_certify,
        prime_budget=cfg.prime_budget,
        trial_bound=min(cfg.trial_bound, _EV_TRIAL_BOUND_CAP),
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
                **_model_primes(model),
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
    record = {"form": ",".join(str(c) for c in cfg.form), "box": box, **_record(rep)}
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
        "config": _record(cfg),
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
        records = report.get("records", [])
        columns = list(dict.fromkeys(key for rec in records for key in rec))
        writer.writerow(columns)
        for rec in records:
            writer.writerow([_csv_cell(rec.get(col)) for col in columns])
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


_FIELDS = {f.name: f for f in fields(RunConfig)}
_KEY_FIELDS = {f.metadata["key"]: f.name for f in fields(RunConfig) if f.metadata["key"]}


def _convert(name: str, text: str) -> Any:
    try:
        return _FIELDS[name].metadata["convert"](text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"{name}: cannot read {text!r}") from exc


def _read_config_file(path: str) -> dict[str, Any]:
    """Field values from a config file; curve.a and curve.b make the curve."""
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path, encoding="utf-8"):
            raise UsageError(f"config: cannot read {path}")
        flat = {f"{section}.{key}": text for section in parser.sections()
                for key, text in parser.items(section)}
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise UsageError(f"config: {exc}") from exc
    if parser.defaults():  # configparser would copy these keys into every section
        raise UsageError(f"config: unknown section [{parser.default_section}]")
    a, b = flat.pop("curve.a", None), flat.pop("curve.b", None)
    if (a is None) != (b is None):
        raise UsageError("curve: both a and b are required")
    values = {} if a is None else {"curve": _convert("curve", f"{a},{b}")}
    for key, text in flat.items():
        if key not in _KEY_FIELDS:
            raise UsageError(f"config: unknown key {key}")
        values[_KEY_FIELDS[key]] = _convert(_KEY_FIELDS[key], text)
    return values


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    values = _read_config_file(args.config) if args.config else {}
    if values.setdefault("mode", args.mode) != args.mode:
        raise UsageError(f"mode: the config file says {values['mode']}, not {args.mode}")
    for name in _FIELDS:
        text = getattr(args, name, None)
        if text is not None:
            values[name] = _convert(name, text)
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
        for f in fields(RunConfig):
            meta = f.metadata
            if meta["const"] is not None:
                p.add_argument(meta["flag"], dest=f.name, action="store_const", const=meta["const"],
                               help=meta["help"])
            elif meta["flag"]:
                choices = ",".join(map(str, meta["choices"]))
                metavar = f"{{{choices}}}" if choices else meta["flag"][2:].replace("-", "_").upper()
                p.add_argument(meta["flag"], dest=f.name, metavar=metavar, help=meta["help"])
    return parser


_TAKES_VALUE = {"--help": False, "--config": True} | {
    f.metadata["flag"]: f.metadata["const"] is None for f in fields(RunConfig) if f.metadata["flag"]
}


def _takes_value(arg: str) -> bool:
    """Whether argparse reads arg as a flag that takes a value: the flag
    itself or its unique abbreviation."""
    if arg not in _TAKES_VALUE and arg.startswith("--"):
        named = [flag for flag in _TAKES_VALUE if flag.startswith(arg)]
        arg = named[0] if len(named) == 1 else arg
    return _TAKES_VALUE.get(arg, False)


def _attach_negative_values(argv: list[str]) -> list[str]:
    """argv with ``--flag -1,2`` written as ``--flag=-1,2`` for every flag
    that takes a value, since argparse reads a separate argument that starts
    with a minus and is not a plain number as an option of its own."""
    out: list[str] = []
    for arg in argv:
        if out and _takes_value(out[-1]) and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
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
