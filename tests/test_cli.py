import argparse
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import stokeszeros
from stokeszeros import cli, spectral, stokescomplex, verify, wkb
from stokeszeros.cli import _spec, main
from stokeszeros.errors import DomainError, GeometryError, StructuralError

ZEROS_SMALL = [
    "zeros",
    "--d", "2", "--ell", "1",
    "--n-min", "3", "--n-max", "3",
    "--window=-1.1,1.1,-0.2,0.2",
    "--resolution", "0.01",
]


def run_cli(args):
    return main(args)


def _clear_program_caches():
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "stokeszeros":
            for obj in vars(mod).values():
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


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
    code = run_cli(ZEROS_SMALL + ["--out", str(tmp_path)])
    assert code == 0
    data = json.loads((tmp_path / "zeros.json").read_text())
    assert data["results"][0]["count"] == 3
    csv_rows = (tmp_path / "zeros.csv").read_text().splitlines()
    assert len(csv_rows) == 1 + 3
    assert (tmp_path / "zeros.svg").read_text().startswith("<svg")


def test_zeros_json_records_the_evaluators_work_counts(tmp_path):
    assert run_cli(ZEROS_SMALL + ["--out", str(tmp_path)]) == 0
    counts = json.loads((tmp_path / "zeros.json").read_text())["results"][0]["evaluations"]
    assert set(counts) == {"points", "hops", "hops_refused", "links", "reanchors"}
    assert counts["points"] > 0 and counts["links"] > 0


def test_zeros_json_records_the_quadtree_work_counts(tmp_path):
    assert run_cli(ZEROS_SMALL + ["--out", str(tmp_path)]) == 0
    result = json.loads((tmp_path / "zeros.json").read_text())["results"][0]
    counts = result["quadtree"]
    assert set(counts) == {
        "cells", "edge_samples", "reused", "midpoints", "window_nudges", "cross_nudges",
        "newton_failures",
    }
    # no nudge here, so the window and four children per split were counted
    assert counts["window_nudges"] == counts["cross_nudges"] == 0
    assert counts["cells"] > 1 and counts["cells"] % 4 == 1
    # the children's outer sides read their parent's samples
    assert counts["reused"] > counts["cells"]
    assert 0 < counts["edge_samples"] <= result["evaluations"]["points"]


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


def test_zeros_command_builds_limit_complex_once(tmp_path, monkeypatch):
    # the eigen-solve, the evaluator and compare_to_limit share one complex
    # count through both names the complex is reached by, so a second
    # build from either module fails the test
    builds = []
    real_build = stokescomplex.stokes_complex

    def counting_build(*args, **kwargs):
        builds.append(args)
        return real_build(*args, **kwargs)

    monkeypatch.setattr(stokescomplex, "stokes_complex", counting_build)
    monkeypatch.setattr(spectral, "stokes_complex", counting_build)
    _clear_program_caches()
    try:
        assert run_cli(ZEROS_SMALL + ["--out", str(tmp_path)]) == 0
    finally:
        _clear_program_caches()
    assert len(builds) == 1


def test_deterministic_outputs(tmp_path):
    # identical configs (including the output directory) byte-match; the
    # second zeros run reuses the cached limit complex, which must stay as
    # the first run left it
    cases = (
        (["stokes", "--d", "3", "--ell", "1"], ("stokes.json", "stokes.svg")),
        (ZEROS_SMALL, ("zeros.json", "zeros.svg")),
    )
    for args, names in cases:
        args = args + ["--out", str(tmp_path)]
        assert run_cli(args) == 0
        first = {name: (tmp_path / name).read_bytes() for name in names}
        assert run_cli(args) == 0
        for name in names:
            assert (tmp_path / name).read_bytes() == first[name]


def test_spectrum_json_records_each_solve_and_repeats(tmp_path):
    # the frame radius, its seed bound and the miss evaluations of each
    # solve are deterministic: two fresh runs write the same bytes
    args = ["spectrum", "--d", "4", "--ell", "1", "--n-min", "0", "--n-max", "3", "--format", "json", "--out", str(tmp_path)]
    written = []
    for _ in range(2):
        _clear_program_caches()
        assert run_cli(args) == 0
        written.append((tmp_path / "spectrum.json").read_bytes())
    assert written[0] == written[1]
    for row in json.loads(written[0])["eigenvalues"]:
        assert row["seed_radius"] > 1.0
        assert 0.0 <= row["seed_bound"] <= 1e-15
        assert row["shots"] >= 3


def test_zeros_error_names_the_solve(tmp_path, monkeypatch, capsys):
    def failing(resc, window, resolution):
        raise GeometryError("no boundary free of zeros at z=0.5")

    monkeypatch.setattr(cli, "locate_zeros", failing)
    assert run_cli(ZEROS_SMALL + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert re.search(r"zeros of ProblemSpec\(d=2, ell=1, a=\(\)\) n=3 at lambda=7\S*: no boundary free of zeros at z=0\.5", err), err


def test_stokes_counts_repeat_across_builds(tmp_path):
    # the tracer's work counts are deterministic: two fresh builds of the
    # complex write the same bytes, counts block included
    written = []
    for _ in range(2):
        _clear_program_caches()
        assert run_cli(["stokes", "--d", "3", "--ell", "1", "--format", "json", "--out", str(tmp_path)]) == 0
        written.append((tmp_path / "stokes.json").read_bytes())
    assert written[0] == written[1]
    payload = json.loads(written[0])["stokes_complex"]
    # three launches from each of the three turning points; the short
    # line's second trace is counted, then dropped
    assert payload["counts"]["traces"] == 9 and len(payload["lines"]) == 8
    assert payload["counts"]["steps"] > payload["counts"]["rejected"] > 0


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize(
    "args, name",
    [
        (["stokes", "--d", "2", "--ell", "1", "--u-grid", "5"], "stokes.json"),
        (["stokes", "--d", "2", "--ell", "1", "--u-grid", "5"], "ufield.json"),
        (["spectrum", "--d", "2", "--ell", "1", "--n-min", "0", "--n-max", "1"], "spectrum.json"),
        (ZEROS_SMALL, "zeros.json"),
        (["verify", "--criteria", "1"], "report.json"),
    ],
)
def test_artifacts_are_strict_json(tmp_path, args, name):
    # RFC 8259 has no NaN or Infinity; a strict parser must read every artifact
    assert run_cli(args + ["--out", str(tmp_path)]) == 0
    json.loads((tmp_path / name).read_text(), parse_constant=_reject_constant)
    if name == "spectrum.json":
        assert (tmp_path / "spectrum.csv").read_text().splitlines()[1].endswith(",")


def test_artifact_config_is_the_command_flags(tmp_path):
    # each artifact records the flags its command accepted, and no other
    assert run_cli(["stokes", "--d", "2", "--ell", "1", "--u-grid", "3", "--out", str(tmp_path)]) == 0
    for name in ("stokes.json", "ufield.json"):
        config = json.loads((tmp_path / name).read_text())["config"]
        assert list(config) == ["command", "d", "ell", "window", "u_grid", "out_dir", "formats"]
        assert config["u_grid"] == 3 and config["window"] is None
    spectrum = ["spectrum", "--d", "2", "--ell", "1", "--n-min", "0", "--n-max", "1"]
    assert run_cli(spectrum + ["--out", str(tmp_path)]) == 0
    config = json.loads((tmp_path / "spectrum.json").read_text())["config"]
    assert list(config) == ["command", "d", "ell", "coefficients", "n_min", "n_max", "out_dir", "formats"]
    assert run_cli(["verify", "--criteria", "1", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert list(report)[0] == "config"
    assert report["config"] == {"command": "verify", "suite": None, "criteria": [1], "out_dir": str(tmp_path)}


def test_console_entry_point_help():
    # the subprocess does not inherit pytest's pythonpath setting
    src = str(Path(stokeszeros.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, inherited))))
    proc = subprocess.run(
        [sys.executable, "-m", "stokeszeros.cli", "--help"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "stokes" in proc.stdout and "verify" in proc.stdout
    # each subcommand lists its own flags and no other command's
    spec = ("--d", "--ell")
    own = {
        "stokes": spec + ("--window", "--u-grid", "--out", "--format"),
        "spectrum": spec + ("--coeff", "--n-min", "--n-max", "--out", "--format"),
        "zeros": spec + ("--coeff", "--n-min", "--n-max", "--window", "--resolution", "--delta", "--out", "--format"),
        "verify": ("--suite", "--criteria", "--out"),
    }
    for command, flags in own.items():
        proc = subprocess.run(
            [sys.executable, "-m", "stokeszeros.cli", command, "--help"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        listed = set(re.findall(r"--[a-z][a-z-]*", proc.stdout))
        assert listed == {"--help", *flags}, command


def test_stokes_rejects_coeff(tmp_path, capsys):
    # the limit complex depends only on (d, ell): --coeff would be ignored
    code = run_cli(
        ["stokes", "--d", "4", "--ell", "1", "--coeff", "2=5,0", "--out", str(tmp_path)]
    )
    assert code == 2
    assert "--coeff" in capsys.readouterr().err
    assert not (tmp_path / "stokes.json").exists()


def test_stokes_rejects_unread_window(tmp_path, capsys):
    # only stokes.svg and --u-grid read --window: without them it would be ignored
    code = run_cli(
        ["stokes", "--d", "4", "--ell", "1", "--window", "2", "--format", "json", "--out", str(tmp_path)]
    )
    assert code == 2
    assert "--window" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    # either reader makes it a valid flag
    for extra in (["--format", "svg"], ["--format", "json", "--u-grid", "3"]):
        assert run_cli(["stokes", "--d", "4", "--ell", "1", "--window", "2", *extra, "--out", str(tmp_path)]) == 0


def test_verify_rejects_format(tmp_path, capsys):
    # verify always writes report.json: --format would be ignored
    code = run_cli(["verify", "--criteria", "1", "--format", "csv", "--out", str(tmp_path)])
    assert code == 2
    assert "--format" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(
    "command, unwritten",
    [
        (["stokes", "--d", "4", "--ell", "1"], "csv"),
        (["spectrum", "--d", "2", "--ell", "1", "--n-max", "1"], "svg"),
        (["zeros"] + ZEROS_SMALL[1:], "bogus"),
    ],
)
def test_format_outside_command_set_is_usage_error(tmp_path, capsys, command, unwritten):
    code = run_cli(command + ["--format", f"json,{unwritten}", "--out", str(tmp_path)])
    assert code == 2
    assert repr(unwritten) in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("empty", [",", ""])
@pytest.mark.parametrize(
    "command",
    [
        ["stokes", "--d", "4", "--ell", "1"],
        ["spectrum", "--d", "2", "--ell", "1", "--n-max", "1"],
        ["zeros"] + ZEROS_SMALL[1:],
    ],
    ids=["stokes", "spectrum", "zeros"],
)
def test_empty_format_is_usage_error(tmp_path, capsys, command, empty):
    # a --format that names nothing would write nothing and exit 0
    code = run_cli(command + ["--format", empty, "--out", str(tmp_path)])
    assert code == 2
    assert "--format" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_stokes_writes_only_chosen_format(tmp_path):
    code = run_cli(["stokes", "--d", "4", "--ell", "1", "--format", "svg", "--out", str(tmp_path)])
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["stokes.svg"]


@pytest.mark.parametrize("size", ["1", "-2"])
def test_stokes_rejects_degenerate_u_grid(tmp_path, capsys, size):
    # N = 1 has no grid spacing and N < 0 no grid: both are usage errors
    code = run_cli(["stokes", "--d", "2", "--ell", "1", "--u-grid", size, "--out", str(tmp_path)])
    assert code == 2
    assert "--u-grid" in capsys.readouterr().err
    assert not tmp_path.exists() or list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("criteria", ["11", "0", "x"])
def test_verify_rejects_unknown_criteria(tmp_path, capsys, criteria):
    # checked at parse time: no criterion runs and no report is written
    code = run_cli(["verify", "--criteria", criteria, "--out", str(tmp_path)])
    assert code == 2
    assert "--criteria" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "number, callee, name, suite",
    [(1, "solve_eigenpair", "harmonic-oracle", "spectrum"), (8, "h0_bound", "wkb-certificate", "wkb")],
)
def test_raising_criterion_reports_its_own_suite_and_name(monkeypatch, number, callee, name, suite):
    # a criterion that raises fails under the name and suite it passes under
    def broken(*args, **kwargs):
        raise StructuralError("broken on purpose")

    monkeypatch.setattr(verify, callee, broken)
    (res,) = verify.run_criteria(numbers=[number])
    assert (res.name, res.suite, res.passed) == (name, suite, False)
    assert res.detail == "StructuralError: broken on purpose"


@pytest.mark.parametrize("numbers", [[11], [0, 3], [1.5]])
def test_run_criteria_rejects_unknown_numbers(monkeypatch, numbers):
    # the library call checks its numbers before any criterion runs
    ran = []
    for k in list(verify.CRITERIA):
        monkeypatch.setitem(verify.CRITERIA, k, verify.CRITERIA[k]._replace(check=lambda k=k: ran.append(k)))
    with pytest.raises(DomainError, match="unknown criteria"):
        verify.run_criteria(numbers=numbers)
    assert ran == []


def test_empty_verify_selection_is_usage_error(tmp_path, capsys, monkeypatch):
    # a suite that holds none of the selected criteria would run nothing
    # and still report a pass
    ran = []
    for k in list(verify.CRITERIA):
        monkeypatch.setitem(verify.CRITERIA, k, verify.CRITERIA[k]._replace(check=lambda k=k: ran.append(k)))
    code = run_cli(["verify", "--suite", "spectrum", "--criteria", "7", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "'spectrum'" in err and "[7]" in err
    assert not tmp_path.exists() or list(tmp_path.iterdir()) == []
    with pytest.raises(DomainError, match="'bogus'"):
        verify.run_criteria(suite="bogus")
    assert ran == []


@pytest.mark.parametrize("command", ["spectrum", "zeros"])
def test_repeated_coeff_is_usage_error(tmp_path, capsys, command):
    # the spec keeps one value per a_k, so a second --coeff 1 would be ignored
    args = [command, "--d", "2", "--ell", "1", "--coeff", "1=0.5,0", "--coeff", "1=0,0"]
    assert run_cli(args + ["--out", str(tmp_path)]) == 2
    assert "a_1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_run_config_rejects_repeated_coefficient():
    # a_2 given twice: keeping either value would silently drop the other
    args = argparse.Namespace(d=4, ell=1, coefficients=[[2, 1.0, 0.0], [2, 3.0, 0.0]])
    with pytest.raises(DomainError, match="a_2"):
        _spec(args)
    assert _spec(argparse.Namespace(d=4, ell=1, coefficients=[[2, 3.0, 0.0]])).a == (0j, 3 + 0j)


@pytest.mark.parametrize(
    "args, flag",
    [
        (["zeros", "--d", "2", "--ell", "1", "--window=1,-1,-0.1,0.1"], "--window"),
        (["zeros", "--d", "2", "--ell", "1", "--window=-1,1,0.1,0.1"], "--window"),
        (["stokes", "--d", "2", "--ell", "1", "--window", "0"], "--window"),
        (["zeros", "--d", "2", "--ell", "1", "--resolution", "0"], "--resolution"),
        (["spectrum", "--d", "2", "--ell", "1", "--n-min", "-1"], "--n-min"),
        (["zeros", "--d", "2", "--ell", "1", "--n-max", "-1"], "--n-max"),
        (["zeros", "--d", "2", "--ell", "1", "--delta=-1"], "--delta"),
        (["zeros", "--d", "2", "--ell", "1", "--delta", "0"], "--delta"),
        # non-finite values would reach the winding or the strict JSON dump
        (["zeros", "--d", "2", "--ell", "1", "--window", "inf"], "--window"),
        (["zeros", "--d", "2", "--ell", "1", "--window", "1e309"], "--window"),
        (["zeros", "--d", "2", "--ell", "1", "--window=-1,inf,-1,1"], "--window"),
        (["stokes", "--d", "2", "--ell", "1", "--window", "inf"], "--window"),
        (["zeros", "--d", "2", "--ell", "1", "--resolution", "inf"], "--resolution"),
        (["zeros", "--d", "2", "--ell", "1", "--delta", "inf"], "--delta"),
    ]
    + [
        ([command, "--d", "4", "--ell", "2", "--coeff", coeff], "--coeff")
        for command in ("spectrum", "zeros")
        for coeff in ("2=nan,0", "1=0,inf", "2=1e309,0")
    ],
)
def test_range_arguments_checked_at_parse_time(tmp_path, capsys, args, flag):
    assert run_cli(args + ["--out", str(tmp_path)]) == 2
    assert flag in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_spectrum_flags_ordering_violation(tmp_path, capsys, monkeypatch):
    # (3,1) is not self-adjoint: no zero count certifies its indices, so
    # the ordering across the solved set is the check that catches a skip
    solve = cli.solve_eigenpair
    swap = {1: 2, 2: 1}
    monkeypatch.setattr(
        cli, "solve_eigenpair", lambda spec, n: replace(solve(spec, swap.get(n, n)), n=n)
    )
    code = run_cli(["spectrum", "--d", "3", "--ell", "1", "--n-min", "0", "--n-max", "3", "--out", str(tmp_path)])
    assert code == 1
    data = json.loads((tmp_path / "spectrum.json").read_text())
    assert data["ordering_violations"] == ["eigenvalue ordering violated between n=1 and n=2"]
    assert "FAILED eigenvalue ordering violated between n=1 and n=2" in capsys.readouterr().out


def test_spectrum_flags_repeated_eigenvalue(tmp_path, capsys):
    # the PT cubic iz^3 - 2iz: n = 2 and n = 3 both converge to 8.7166199633,
    # their Re lambda 2 ulp apart, so only the repeat shows the missed index
    args = ["spectrum", "--d", "3", "--ell", "1", "--coeff", "1=0,-2", "--n-min", "2", "--n-max", "3"]
    assert run_cli(args + ["--out", str(tmp_path)]) == 1
    data = json.loads((tmp_path / "spectrum.json").read_text())
    lams = [r["re_lambda"] for r in data["eigenvalues"]]
    assert lams[0] != lams[1] and abs(lams[1] - lams[0]) < 1e-12
    assert data["ordering_violations"] == ["eigenvalue repeated: n=2 and n=3 agree to 1e-9 relative"]
    assert "FAILED eigenvalue repeated: n=2 and n=3" in capsys.readouterr().out


def test_growth_law_has_one_source(tmp_path, monkeypatch):
    # the spectrum command's asymptotic_ratio and criterion 2 both divide
    # by eigenvalue_estimate rather than re-deriving (c n)^{2d/(d+2)}
    calls = []

    def recorded(d, ell, n, offset=0.0):
        calls.append((d, ell, n))
        return wkb.eigenvalue_estimate(d, ell, n, offset)

    monkeypatch.setattr(cli, "eigenvalue_estimate", recorded)
    monkeypatch.setattr(verify, "eigenvalue_estimate", recorded)
    assert run_cli(["spectrum", "--d", "2", "--ell", "1", "--n-min", "0", "--n-max", "2", "--out", str(tmp_path)]) == 0
    rows = json.loads((tmp_path / "spectrum.json").read_text())["eigenvalues"]
    for r in rows[1:]:
        lam = complex(r["re_lambda"], r["im_lambda"])
        assert r["asymptotic_ratio"] == abs(lam) / wkb.eigenvalue_estimate(2, 1, r["n"])
    passed, _ = verify.check_asymptotic_law()
    assert passed
    assert calls == [(2, 1, 1), (2, 1, 2), (4, 2, 10), (4, 2, 40), (3, 1, 10), (3, 1, 40)]
