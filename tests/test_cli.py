import json
import subprocess
import sys

import pytest

from stokeszeros.cli import main


def run_cli(args):
    return main(args)


def test_stokes_command(tmp_path):
    code = run_cli(["stokes", "--d", "4", "--ell", "2", "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "stokes.json").read_text())
    assert payload["stokes_complex"]["census"]["half_plane_regions"] == 6
    assert payload["config"]["d"] == 4
    svg = (tmp_path / "stokes.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_stokes_region_census_d6(tmp_path):
    code = run_cli(["stokes", "--d", "6", "--ell", "3", "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "stokes.json").read_text())
    assert payload["stokes_complex"]["census"]["half_plane_regions"] == 8


def test_stokes_invalid_ell_exit_code(tmp_path):
    assert run_cli(["stokes", "--d", "4", "--ell", "4", "--out", str(tmp_path)]) == 2


def test_spectrum_command(tmp_path):
    code = run_cli(
        ["spectrum", "--d", "2", "--ell", "1", "--n-min", "0", "--n-max", "3", "--out", str(tmp_path)]
    )
    assert code == 0
    rows = json.loads((tmp_path / "spectrum.json").read_text())["eigenvalues"]
    assert [round(r["re_lambda"]) for r in rows] == [1, 3, 5, 7]
    csv_text = (tmp_path / "spectrum.csv").read_text()
    assert csv_text.splitlines()[0].startswith("n,re_lambda")


def test_spectrum_empty_range_is_usage_error(tmp_path):
    code = run_cli(
        ["spectrum", "--d", "2", "--ell", "1", "--n-min", "5", "--n-max", "1", "--out", str(tmp_path)]
    )
    assert code == 2


def test_zeros_command_small(tmp_path):
    code = run_cli(
        [
            "zeros",
            "--d", "2", "--ell", "1",
            "--n-min", "3", "--n-max", "3",
            "--window=-1.1,1.1,-0.2,0.2",
            "--resolution", "0.01",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    data = json.loads((tmp_path / "zeros.json").read_text())
    assert data["results"][0]["count"] == 3
    csv_rows = (tmp_path / "zeros.csv").read_text().splitlines()
    assert len(csv_rows) == 1 + 3
    assert (tmp_path / "zeros.svg").read_text().startswith("<svg")


def test_verify_single_criterion(tmp_path):
    code = run_cli(["verify", "--criteria", "1", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"] is True
    assert report["criteria"][0]["name"] == "harmonic-oracle"


def test_verify_suite_filter(tmp_path):
    code = run_cli(["verify", "--suite", "spectrum", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    names = [c["name"] for c in report["criteria"]]
    assert names == ["harmonic-oracle", "asymptotic-law"]


def test_deterministic_outputs(tmp_path):
    # identical configs (including the output directory) byte-match
    args = ["stokes", "--d", "3", "--ell", "1", "--out", str(tmp_path)]
    assert run_cli(args) == 0
    first_json = (tmp_path / "stokes.json").read_bytes()
    first_svg = (tmp_path / "stokes.svg").read_bytes()
    assert run_cli(args) == 0
    assert (tmp_path / "stokes.json").read_bytes() == first_json
    assert (tmp_path / "stokes.svg").read_bytes() == first_svg


def test_console_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "stokeszeros.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "stokes" in proc.stdout and "verify" in proc.stdout


def test_stokes_rejects_coeff(tmp_path, capsys):
    # the limit complex depends only on (d, ell): --coeff would be ignored
    code = run_cli(
        ["stokes", "--d", "4", "--ell", "1", "--coeff", "2=5,0", "--out", str(tmp_path)]
    )
    assert code == 2
    assert "--coeff" in capsys.readouterr().err
    assert not (tmp_path / "stokes.json").exists()
