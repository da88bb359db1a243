import importlib
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_heat_kernel_check_prints_both_spectral_values(monkeypatch, capsys):
    script = SCRIPTS / "heat_kernel_check.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--n-path", "8", "--n-div", "20"])
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert "S2 cost phi_5_2: spectral series = 0.299414" in out
    assert "S3 cost phi_32_52: spectral series = 1.023917" in out
    assert out.count("+-") == 10  # one line per integrator and sphere


@pytest.mark.parametrize("module", ["manifold_sde", "manifold_sde.manifolds"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"
    assert len(set(mod.__all__)) == len(mod.__all__)
