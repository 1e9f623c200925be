from pathlib import Path

import numpy as np
import pytest

from pfl import plans
from pfl.cli import main as cli_main
from pfl.grid import make_grid

STRUCTURE_FACTOR = (Path(__file__).resolve().parent.parent / "configs"
                    / "structure_factor.ini").read_text()


def test_member_runs_cover_the_ensemble(monkeypatch):
    monkeypatch.setattr(plans, "BLOCK_SITES", 24 * 64)
    # a member larger than BLOCK_SITES still makes a run of one
    assert plans.member_runs(3, 64, 64) == [slice(0, 1), slice(1, 2), slice(2, 3)]
    monkeypatch.setattr(plans, "BLOCK_SITES", 2**15)
    assert plans.member_runs(10, 64, 64) == [slice(0, 8), slice(8, 10)]
    assert plans.member_runs(2, 256, 256) == [slice(0, 1), slice(1, 2)]
    assert plans.member_runs(5, 1, 256) == [slice(0, 5)]  # up to 128 lines a run


@pytest.mark.parametrize("band_fraction, modes", [(0.03125, 5), (0.0312, 1)])
def test_the_noise_band_holds_a_mode_besides_k_zero(band_fraction, modes, tmp_path):
    # on 64^2 at dx = 5 um the first mode 2 pi / (64 dx) is 1/32 of pi / dx:
    # the structure-factor handler's band keeps it, along each axis and
    # sign, at band_fraction 0.03125, and only k = 0 just below. With k = 0
    # alone the run propagated its whole ensemble and then exited 3
    grid = make_grid(64, 64, 5e-6)
    edge = band_fraction * min(grid.k_nyquist_x, grid.k_nyquist_y)
    assert np.count_nonzero(np.sqrt(grid.k_squared()) <= edge) == modes
    config, out = tmp_path / "sf.ini", tmp_path / "out"
    config.write_text(STRUCTURE_FACTOR.replace("band_fraction = 0.75",
                                               f"band_fraction = {band_fraction}")
                      .replace("realizations = 100", "realizations = 8"))
    assert cli_main(["validate", "--config", str(config)]) == (0 if modes > 1 else 2)
    assert cli_main(["structure-factor", "--config", str(config),
                     "--out", str(out)]) == (0 if modes > 1 else 2)
