import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stokeszeros
from stokeszeros.render import render_stokes_svg, render_zeros_svg
from stokeszeros.spectral import EigenfunctionEvaluator, ProblemSpec, rescale, solve_eigenpair
from stokeszeros.stokescomplex import stokes_complex
from stokeszeros.zeros import locate_zeros

DEMOS = Path(__file__).resolve().parent.parent / "demos"


# the SVG demos write tracked files under demos/out/, so only the print-only
# demos run here
@pytest.mark.parametrize(
    "name", ["wkb_certificate.py", "spectrum_asymptotics.py", "envelope_convergence.py"]
)
def test_print_only_demo_runs(name):
    # the subprocess does not inherit pytest's pythonpath setting
    src = str(Path(stokeszeros.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, inherited))))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_demo_imports_resolve():
    # the SVG demos do not run here, so check that every name any demo
    # imports from the package still exists
    checked = 0
    for path in sorted(DEMOS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "stokeszeros":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), f"{path.name}: {node.module}.{alias.name}"
                    checked += 1
    assert checked > 0


@pytest.mark.parametrize(
    "d, ell", [(2, 1), (3, 1), (4, 1), (4, 2), (4, 3), (6, 1), (6, 2), (6, 3), (6, 4)]
)
def test_tracked_stokes_pictures_match_the_renderer(d, ell):
    # demos/stokes_complexes.py writes these files; a change that moves the
    # complex or its rendering must regenerate them
    tracked = (DEMOS / "out" / f"stokes_{d}_{ell}.svg").read_bytes()
    assert render_stokes_svg(stokes_complex(d, ell)).encode() == tracked


def test_tracked_pt_zero_cloud_matches_its_demo():
    # demos/pt_zero_cloud.py writes this file; its zero cloud is rebuilt here
    # in memory, so a change that moves a zero must regenerate the picture
    out = DEMOS / "out"
    before = {p.name: p.stat().st_mtime_ns for p in out.iterdir()}
    pair = solve_eigenpair(ProblemSpec(4, 1), 24)
    window = (-1.6, 1.6, -1.6, 1.6)
    zs = locate_zeros(rescale(EigenfunctionEvaluator(pair)), window, resolution=0.02)
    svg = render_zeros_svg(stokes_complex(4, 1), list(zs.zeros), window)
    assert svg.encode() == (out / "pt_quartic_zeros_n24.svg").read_bytes()
    # the PT mirror z -> -conj(z) maps the drawn set onto itself
    pos = [z for z, _ in zs.zeros]
    assert max(min(abs(w + z.conjugate()) for w in pos) for z in pos) < 1e-8
    assert {p.name: p.stat().st_mtime_ns for p in out.iterdir()} == before
