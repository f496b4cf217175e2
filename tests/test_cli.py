import json
import subprocess
import sys

import pytest

from sdtwists.cli import RunConfig, UsageError, emit, main, parse, run


def test_exponents_table():
    report = run(RunConfig(mode="exponents", d_min=3, d_max=12))
    rows = {r["degree"]: r for r in report["records"]}
    assert rows[3]["c_general"] == "1/3"
    assert rows[6]["c_general"] == "1/5"
    assert rows[8]["c_general"] == "1/6"
    assert rows[9]["c_general"] == "209/1296"
    assert rows[6]["ev_box_exponent"] == "8"


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
        (["density", "--form", "1,0", "--box", "10", "--congruence", "1,1,0"], "congruence"),
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
    return subprocess.run(
        [sys.executable, "-m", "sdtwists", *args],
        capture_output=True,
        text=True,
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
