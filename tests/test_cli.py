import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sdtwists.cli as cli
from sdtwists import counting, family
from sdtwists.cli import RunConfig, UsageError, emit, main, parse, run
from sdtwists.primes import PROOF_BOUND

SRC = Path(__file__).resolve().parent.parent / "src"


def test_exponents_table():
    report = run(RunConfig(mode="exponents", d_min=3, d_max=12))
    rows = {r["degree"]: r for r in report["records"]}
    assert rows[3]["c_general"] == "1/3"
    assert rows[6]["c_general"] == "1/5"
    assert rows[8]["c_general"] == "1/6"
    assert rows[9]["c_general"] == "209/1296"
    assert rows[6]["ev_box_exponent"] == "8"


def test_exponents_least_degree_is_the_alpha_bounds():
    # The table starts, by default and at the least, at the least degree of
    # counting.schmidt_ev_alpha, which every row carries.
    least = counting.ALPHA_MIN_DEGREE
    counting.schmidt_ev_alpha(least)
    with pytest.raises(ValueError):
        counting.schmidt_ev_alpha(least - 1)
    assert RunConfig(mode="exponents").d_min == least
    RunConfig(mode="exponents", d_min=least, d_max=least).validate()
    with pytest.raises(UsageError, match=f"need {least} <= d_min"):
        RunConfig(mode="exponents", d_min=least - 1, d_max=least).validate()


@pytest.mark.parametrize("mode", ["model", "family", "sweep"])
def test_least_degree_is_the_family_bound(mode):
    # The CLI takes, for the modes that build a model and a family, the
    # least degree that family.build_model and family.twist_polynomial take.
    least = family.MIN_DEGREE
    curve = (1, 1)
    model = family.build_family(curve, least)[0]
    with pytest.raises(ValueError, match=f"at least {least}"):
        family.build_model(curve, 0, 0, 1, least - 1)
    with pytest.raises(ValueError, match=f"at least {least}"):
        family.twist_polynomial(model, least - 1)
    RunConfig(mode=mode, curve=curve, degree=least, box=1).validate()
    with pytest.raises(UsageError, match=f"at least {least} for mode {mode}"):
        RunConfig(mode=mode, curve=curve, degree=least - 1, box=1).validate()


def test_certify_mode_matches_module_example():
    report = run(RunConfig(mode="certify", poly=(-1, -2, -1, 1)))
    rec = report["records"][0]
    assert rec["status"] == "certified_Sd"
    assert rec["transposition_prime"] == 31


def test_sweep_mode_produces_count_report():
    cfg = RunConfig(mode="sweep", curve=(0, -2), degree=3, box=8,
                    prime_budget=10, kernel_bound=3000)
    report = run(cfg)
    assert report["records"]
    assert report["count_report"] is not None
    assert report["count_report"]["degree"] == 3
    rec = report["records"][0]
    for key in ("model_p1", "model_p2", "model_p3", "prime_budget",
                "trial_bound", "kernel_bound", "cycle_types"):
        assert key in rec


def test_density_mode():
    cfg = RunConfig(mode="density", form=(1, 0), box=200, local_bound=13)
    report = run(cfg)
    rec = report["records"][0]
    assert 0.5 < rec["empirical"] < 0.7


def test_ev_mode():
    cfg = RunConfig(mode="ev", curve=(1, 1), degree=6, scale=1, ev_count=20,
                    ev_certify=False)
    report = run(cfg)
    assert len(report["records"]) == 20
    assert all(r["identity_ok"] for r in report["records"])


def test_validation_errors(tmp_path, capsys):
    with pytest.raises(UsageError):
        run(RunConfig(mode="sweep", curve=(1, 1), degree=3))  # no box
    with pytest.raises(UsageError):
        run(RunConfig(mode="certify"))  # no poly
    with pytest.raises(UsageError):
        run(RunConfig(mode="nonsense"))
    # sign fields: the flags' choices, enforced for config-file values too
    with pytest.raises(UsageError, match="region"):
        run(RunConfig(mode="sweep", curve=(1, 1), degree=3, box=2, region=2))
    pair = dict(mode="pair-signs", box=4, conductor=37, root_number=-1)
    with pytest.raises(UsageError, match="root_number"):
        run(RunConfig(**{**pair, "root_number": 2}))
    with pytest.raises(UsageError, match="pair_symbol"):
        run(RunConfig(**pair, pair_symbol=0))
    config = tmp_path / "run.ini"
    config.write_text(
        "[curve]\na = 1\nb = 1\n[run]\ndegree = 3\n[sweep]\nbox = 2\nregion = 2\n",
        encoding="utf-8",
    )
    assert main(["sweep", "--config", str(config)]) == 2
    # out-of-range degrees, degree tables and polygon primes
    curve = ["--curve", "1,1"]
    for argv, name in (
        (["exponents", "--d-min", "6", "--d-max", "4"], "d_min"),
        (["exponents", "--d-min", "1"], "d_min"),
        (["sweep", *curve, "--degree", "2", "--box", "2"], "degree"),
        (["model", *curve, "--degree", "2"], "degree"),
        (["family", *curve, "--degree", "2"], "degree"),
        (["ev", *curve, "--degree", "3", "--scale", "2"], "degree"),
        (["sweep", *curve, "--degree", "3", "--box", "2", "--polygon-primes", "4"],
         "polygon_primes"),
        # a composite that passes every Miller-Rabin round of primes.is_prime
        (["certify", "--poly=-1,-1,0,1", "--polygon-primes", str(PROOF_BOUND)],
         "polygon_primes"),
        (["density", "--form", "1,0", "--box", "10", "--congruence", "1,1,0"], "congruence"),
        (["sweep", *curve, "--degree", "3", "--box", "2", "--kernel-bound", "1"],
         "kernel_bound"),
        # out-of-range values the library would also refuse
        (["pair-signs", "--conductor", "1", "--root-number", "-1", "--box", "4"], "conductor"),
        (["family", *curve, "--degree", "3", "--epsilon", "-1/2"], "epsilon"),
        (["model", "--curve", "0,0", "--degree", "3"], "curve"),
        (["sweep", *curve, "--degree", "3", "--box", "2", "--congruence", "0,0,2"], "congruence"),
        (["density", "--form", "1,0,0,0,0,0,0,1", "--box", "10"], "form"),
        (["density", "--form", "0,0,0", "--box", "10"], "form"),
    ):
        assert main(argv) == 2, argv
        assert f"usage error: {name}" in capsys.readouterr().err
    config.write_text("[run]\nd_min = 6\nd_max = 4\n", encoding="utf-8")
    assert main(["exponents", "--config", str(config)]) == 2
    config.write_text(
        "[curve]\na = 1\nb = 1\n[run]\ndegree = 3\n[sweep]\nbox = 2\npolygon_primes = 5,9\n",
        encoding="utf-8",
    )
    assert main(["sweep", "--config", str(config)]) == 2


@pytest.mark.parametrize("value", ["abc", "0", "-3"])
def test_bad_worker_count_is_an_error(monkeypatch, capsys, value):
    monkeypatch.setenv("SDTWISTS_WORKERS", value)
    assert main(["sweep", "--curve", "0,-2", "--degree", "3", "--box", "1"]) == 1
    assert "error: SDTWISTS_WORKERS" in capsys.readouterr().err


def test_emit_roundtrip_stability():
    report = run(RunConfig(mode="exponents", d_min=3, d_max=5))
    text = emit(report, "json")
    assert emit(parse(text), "json") == text


def test_emit_big_integers_as_strings():
    cfg = RunConfig(mode="sweep", curve=(0, -2), degree=3, box=4,
                    prime_budget=8, kernel_bound=1000)
    report = run(cfg)
    text = emit(report, "json")
    data = parse(text)
    for rec in data["records"]:
        disc = rec["disc"]
        assert isinstance(disc, str) or abs(disc) <= 2**53


def test_emit_csv_shape():
    cfg = RunConfig(mode="sweep", curve=(0, -2), degree=3, box=4,
                    prime_budget=8, kernel_bound=1000)
    report = run(cfg)
    text = emit(report, "csv")
    lines = text.strip("\n").split("\n")
    assert len(lines) == len(report["records"]) + 1


def test_emit_csv_empty_records():
    report = {"records": []}
    text = emit(report, "csv")
    assert len(text.strip("\n").split("\n")) == 1


def test_run_byte_identical():
    cfg = RunConfig(mode="sweep", curve=(0, -2), degree=3, box=6,
                    prime_budget=10, kernel_bound=2000)
    a = emit(run(cfg), "json")
    cfg2 = RunConfig(mode="sweep", curve=(0, -2), degree=3, box=6,
                     prime_budget=10, kernel_bound=2000)
    b = emit(run(cfg2), "json")
    assert a == b


def _cli(*args):
    # The child runs this checkout's package, whatever else is importable.
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    return subprocess.run(
        [sys.executable, "-m", "sdtwists", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
    )


def test_cli_subprocess_success_and_usage_error():
    done = _cli("exponents", "--d-min", "3", "--d-max", "4")
    assert done.returncode == 0
    payload = json.loads(done.stdout)
    assert payload["mode"] == "exponents"
    assert "elapsed" in done.stderr

    bad = _cli("sweep")  # curve/degree/box missing
    assert bad.returncode == 2
    assert "usage error" in bad.stderr


def test_cli_config_file_with_overrides(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(
        "[run]\nmode = certify\n[certify]\npoly = -1,-2,-1,1\n"
        "[output]\nformat = json\n",
        encoding="utf-8",
    )
    done = _cli("certify", "--config", str(config))
    assert done.returncode == 0
    assert json.loads(done.stdout)["records"][0]["status"] == "certified_Sd"

    done2 = _cli("certify", "--config", str(config), "--poly", "1,0,1")
    assert done2.returncode == 0
    rec = json.loads(done2.stdout)["records"][0]
    assert rec["poly"] == "1,0,1"
    assert rec["status"] == "certified_Sd"  # S_2 via irreducibility


def test_cli_output_file(tmp_path):
    out = tmp_path / "report.json"
    done = _cli("exponents", "--d-min", "3", "--d-max", "3", "--output", str(out))
    assert done.returncode == 0
    assert json.loads(out.read_text())["mode"] == "exponents"


def test_pair_signs_mode():
    cfg = RunConfig(mode="pair-signs", curve=(-16, 16), box=120, conductor=37,
                    root_number=-1, prime_budget=8, kernel_bound=1000)
    report = run(cfg)
    assert report["pairs"]
    for pair in report["pairs"]:
        assert pair["pos_w_rel"] == -pair["neg_w_rel"]
    assert report["preset_residue"] == 1


# ---------------------------------------------------------------------------
# The option surface: flags, config-file keys and how they combine.
# ---------------------------------------------------------------------------

MODES = ("exponents", "model", "family", "certify", "sweep", "ev", "density", "pair-signs")

FLAGS = {
    "--config", "--curve", "--degree", "--box", "--congruence", "--region",
    "--prime-budget", "--trial-bound", "--kernel-bound", "--polygon-primes",
    "--seed", "--poly", "--form", "--samples", "--local-bound", "--scale",
    "--count", "--no-certify", "--conductor", "--root-number", "--power",
    "--symbol", "--d-min", "--d-max", "--epsilon", "--format", "--output",
}

# Every config-file key with a value that differs from the one in FLAG_SAMPLES.
FILE_KEYS = {
    "run.mode": "exponents", "run.degree": "4", "run.seed": "1", "run.d_min": "3",
    "run.d_max": "5", "run.epsilon": "1/4", "curve.a": "1", "curve.b": "1",
    "sweep.box": "2", "sweep.congruence": "0,1,3", "sweep.region": "1",
    "sweep.prime_budget": "7", "sweep.trial_bound": "500", "sweep.kernel_bound": "50",
    "sweep.polygon_primes": "3", "ev.scale": "2", "ev.count": "3", "ev.certify": "true",
    "certify.poly": "1,1,1", "density.form": "1,1", "density.samples": "100",
    "density.local_bound": "7", "pair.conductor": "11", "pair.root_number": "1",
    "pair.power": "3", "pair.symbol": "-1", "output.format": "json",
    "output.path": "{tmp}/from_file.json",
}

# Each flag with the config-file keys that set the same value.
FLAG_SAMPLES = [
    (["--curve", "3,-4"], {"curve.a": "3", "curve.b": "-4"}),
    (["--degree", "5"], {"run.degree": "5"}),
    (["--seed", "9"], {"run.seed": "9"}),
    (["--d-min", "4"], {"run.d_min": "4"}),
    (["--d-max", "7"], {"run.d_max": "7"}),
    (["--epsilon", "1/3"], {"run.epsilon": "1/3"}),
    (["--box", "6"], {"sweep.box": "6"}),
    (["--congruence", "1,2,5"], {"sweep.congruence": "1,2,5"}),
    (["--region", "-1"], {"sweep.region": "-1"}),
    (["--prime-budget", "9"], {"sweep.prime_budget": "9"}),
    (["--trial-bound", "999"], {"sweep.trial_bound": "999"}),
    (["--kernel-bound", "77"], {"sweep.kernel_bound": "77"}),
    (["--polygon-primes", "5,7"], {"sweep.polygon_primes": "5,7"}),
    (["--scale", "3/2"], {"ev.scale": "3/2"}),
    (["--count", "4"], {"ev.count": "4"}),
    (["--no-certify"], {"ev.certify": "false"}),
    (["--poly", "1,2,3"], {"certify.poly": "1,2,3"}),
    (["--form", "1,0,1"], {"density.form": "1,0,1"}),
    (["--samples", "500"], {"density.samples": "500"}),
    (["--local-bound", "13"], {"density.local_bound": "13"}),
    (["--conductor", "37"], {"pair.conductor": "37"}),
    (["--root-number", "-1"], {"pair.root_number": "-1"}),
    (["--power", "2"], {"pair.power": "2"}),
    (["--symbol", "1"], {"pair.symbol": "1"}),
    (["--format", "csv"], {"output.format": "csv"}),
    (["--output", "{tmp}/from_flag.json"], {"output.path": "{tmp}/from_flag.json"}),
]


def _write_config(path, keys, tmp):
    sections: dict[str, list[str]] = {}
    for key, value in keys.items():
        section, name = key.split(".")
        sections.setdefault(section, []).append(f"{name} = {value.format(tmp=tmp)}")
    path.write_text(
        "".join(f"[{s}]\n" + "\n".join(lines) + "\n" for s, lines in sections.items()),
        encoding="utf-8",
    )
    return str(path)


@pytest.fixture
def captured(monkeypatch, tmp_path):
    """Run main() with the pipeline replaced; return the RunConfig it built."""
    seen = []

    def fake_run(cfg):
        seen.append(cfg)
        return {}

    monkeypatch.setattr(cli, "run", fake_run)

    def config_of(argv, keys=None, name="run.ini"):
        argv = [a.format(tmp=tmp_path) for a in argv]
        if keys is not None:
            argv += ["--config", _write_config(tmp_path / name, keys, tmp_path)]
        assert main(argv) == 0, argv
        return seen.pop()

    return config_of


def test_cli_option_surface_is_pinned(captured, capsys, tmp_path):
    for mode in MODES:
        with pytest.raises(SystemExit):
            main([mode, "--help"])
        flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
        assert flags - {"--help"} == FLAGS, mode

    # Every file key is read; any other section.name is rejected.
    base = captured(["exponents"], FILE_KEYS, "all.ini")
    names = {f.name for f in dataclasses.fields(RunConfig)}
    names |= {k.split(".")[1] for k in FILE_KEYS} | {f[2:].replace("-", "_") for f in FLAGS}
    for section in {k.split(".")[0] for k in FILE_KEYS}:
        for name in sorted(names):
            key = f"{section}.{name}"
            if key not in FILE_KEYS:
                path = _write_config(tmp_path / "probe.ini", {key: "1"}, tmp_path)
                assert main(["exponents", "--config", path]) == 2, key
                assert f"usage error: config: unknown key {key}" in capsys.readouterr().err

    # A flag and its file key give the same config; a flag overrides the file.
    default = RunConfig(mode="exponents")
    for flag_argv, keys in FLAG_SAMPLES:
        by_flag = captured(["exponents", *flag_argv])
        assert by_flag == captured(["exponents"], keys), flag_argv
        changed = [f.name for f in dataclasses.fields(RunConfig)
                   if getattr(by_flag, f.name) != getattr(default, f.name)]
        assert len(changed) == 1, flag_argv
        merged = captured(["exponents", *flag_argv], FILE_KEYS, "all.ini")
        value = getattr(by_flag, changed[0])
        assert getattr(base, changed[0]) != value, flag_argv
        assert merged == dataclasses.replace(base, **{changed[0]: value}), flag_argv
    assert {k for _argv, keys in FLAG_SAMPLES for k in keys} == set(FILE_KEYS) - {"run.mode"}


@pytest.mark.parametrize("flags, config, name", [
    pytest.param(["--box", "abc"], None, "box", id="flag-box"),
    pytest.param([], "[sweep]\nbox = abc\n", "box", id="file-box"),
    pytest.param(["--scale", "abc"], None, "scale", id="flag-scale"),
    pytest.param(["--scale", "1/0"], None, "scale", id="flag-scale-zero-denominator"),
    pytest.param(["--epsilon", "1/0"], None, "epsilon", id="flag-epsilon-zero-denominator"),
    pytest.param([], "[run]\nepsilon = 1/0\n", "epsilon", id="file-epsilon-zero-denominator"),
    pytest.param([], "[ev]\nscale = 2/0\n", "scale", id="file-scale-zero-denominator"),
    pytest.param(["--d-min", "three"], None, "d_min", id="flag-d-min"),
    pytest.param(["--curve", "1,x"], None, "curve", id="flag-curve"),
    pytest.param(["--curve", "1,2,3"], None, "curve", id="flag-curve-length"),
    pytest.param([], "[curve]\na = 1\nb = x\n", "curve", id="file-curve"),
    pytest.param([], "[curve]\na = 1\n", "curve", id="file-curve-without-b"),
    pytest.param(["--poly", "1,2.5"], None, "poly", id="flag-poly"),
    pytest.param(["--congruence", "a,b,c"], None, "congruence", id="flag-congruence"),
    pytest.param([], "[pair]\nroot_number = minus\n", "root_number", id="file-root-number"),
])
def test_malformed_values_are_usage_errors(tmp_path, capsys, flags, config, name):
    argv = ["exponents", *flags]
    if config is not None:
        path = tmp_path / "run.ini"
        path.write_text(config, encoding="utf-8")
        argv += ["--config", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: {name}: "), err


@pytest.mark.parametrize("text", [
    pytest.param("degree = 3\n", id="no-section-header"),
    pytest.param("[run]\ndegree = 3\ndegree = 4\n", id="duplicate-key"),
    pytest.param("[run]\ndegree = 3\n[run]\nseed = 1\n", id="duplicate-section"),
    pytest.param("[output]\npath = 50%.json\n", id="bad-interpolation"),
    pytest.param(b"[run]\nseed = \xff\n", id="not-utf-8"),
    pytest.param(None, id="missing-file"),
])
def test_bad_config_files_are_usage_errors(tmp_path, capsys, text):
    path = tmp_path / "run.ini"
    if isinstance(text, bytes):
        path.write_bytes(text)
    elif text is not None:
        path.write_text(text, encoding="utf-8")
    assert main(["exponents", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("usage error: config: ")


@pytest.mark.parametrize("mode", ["sweep", "nonsense"])
def test_config_mode_must_match_subcommand(tmp_path, capsys, mode):
    path = tmp_path / "run.ini"
    path.write_text(f"[run]\nmode = {mode}\n", encoding="utf-8")
    assert main(["exponents", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("usage error: mode: ")


@pytest.mark.parametrize("text, value", [
    ("1", True), ("yes", True), ("TRUE", True), ("on", True),
    ("0", False), ("no", False), ("False", False), ("off", False),
])
def test_config_certify_reads_boolean_words(captured, text, value):
    assert captured(["ev"], {"ev.certify": text}).ev_certify is value


@pytest.mark.parametrize("text", ["ture", "y", "2", "none"])
def test_config_certify_rejects_other_words(tmp_path, capsys, text):
    path = tmp_path / "run.ini"
    path.write_text(f"[ev]\ncertify = {text}\n", encoding="utf-8")
    assert main(["exponents", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("usage error: ev_certify: ")


@pytest.mark.parametrize("box", ["0", "-5"])
def test_box_below_one_is_a_usage_error(capsys, box):
    assert main(["density", "--form", "1,0", "--box", box]) == 2
    assert capsys.readouterr().err.startswith("usage error: box: ")
    assert main(["sweep", "--curve", "1,1", "--degree", "3", "--box", box]) == 2
    assert capsys.readouterr().err.startswith("usage error: box: ")


@pytest.mark.parametrize("flag, text, name, value", [
    ("--curve", "-16,16", "curve", (-16, 16)),
    ("--poly", "-1,-2,-1,1", "poly", (-1, -2, -1, 1)),
    ("--congruence", "-1,0,3", "congruence", (-1, 0, 3)),
    ("--form", "-1,0,2", "form", (-1, 0, 2)),
    ("--seed", "-7", "seed", -7),
    ("--curv", "-16,16", "curve", (-16, 16)),
])
def test_negative_values_follow_their_flag(captured, flag, text, name, value):
    # A separate argument starting with a minus is the flag's value, as it
    # is after "=", also after an abbreviated flag.
    assert getattr(captured(["exponents", flag, text]), name) == value
    assert captured(["exponents", f"{flag}={text}"]) == captured(["exponents", flag, text])


def test_negative_curve_runs_from_the_command_line(capsys):
    assert main(["model", "--curve", "-16,16", "--degree", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["curve"] == [-16, 16]


@pytest.mark.parametrize("text", [
    pytest.param("[DEFAULT]\nseed = 3\n[run]\ndegree = 3\n[sweep]\nbox = 2\n", id="beside-sections"),
    pytest.param("[DEFAULT]\nseed = 3\n", id="alone"),
])
def test_default_section_is_a_usage_error(tmp_path, capsys, text):
    # configparser would copy [DEFAULT] keys into every section; the file
    # format has no such section.
    path = tmp_path / "run.ini"
    path.write_text(text, encoding="utf-8")
    assert main(["exponents", "--config", str(path)]) == 2
    assert capsys.readouterr().err == "usage error: config: unknown section [DEFAULT]\n"
