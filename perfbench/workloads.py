"""The three benchmark workloads: INI generation from a seed, the amount of
work each run does, and the oracle check read back from a run's artifacts.

Each workload is a `pfl <scenario>` run on an INI file that this module
writes; the program receives nothing else. The oracle checks use numpy
only and never import pfl, so a broken solver cannot grade itself. Their
tolerances are the acceptance criteria's (tests/test_acceptance.py) and
must never be looser.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.constants import c as C_LIGHT
from scipy.constants import epsilon_0 as EPS0

WAVELENGTH = 780e-9
K0 = 2.0 * math.pi / WAVELENGTH

# acceptance-criterion tolerances (criteria 03, 11(b) and 05)
LOSS_LAW_TOL = 1e-6
SF_ORACLE_TOL = 0.10
SOUND_SPEED_TOL = 0.05


class OracleFailure(Exception):
    """A run's artifacts do not meet its physics check."""


@dataclass(frozen=True)
class Inputs:
    """One workload instance: the INI text and the lattice-site updates it makes."""

    ini: str
    site_updates: int


def _ini(sections: dict[str, dict]) -> str:
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        for key, value in keys.items():
            if isinstance(value, bool):
                value = "true" if value else "false"
            elif isinstance(value, float):
                value = repr(value)
            elif isinstance(value, (list, tuple)):
                value = ", ".join(repr(float(v)) for v in value)
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)


def _defocusing_fluid(dx: float, xi_cells: float, tau: float) -> dict:
    """Plane-wave defocusing fluid of density |E|^2 = 1 with a prescribed
    healing length, the set-up of the acceptance criteria (tests/conftest.py)."""
    xi = xi_cells * dx
    z_nl = xi**2 * K0
    chi3 = -2.0 / (K0 * z_nl)
    return {"xi": xi, "z_nl": z_nl, "chi3": chi3, "length": tau * z_nl,
            "dn_nl": abs(chi3) / 2.0, "intensity": 0.5 * C_LIGHT * EPS0}


def _read_csv(path: Path) -> np.ndarray:
    """Data rows of a CSV artifact; the header line is skipped."""
    with path.open() as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array([[float(v) for v in row] for row in rows])


def _read_keys(path: Path) -> dict[str, float]:
    out = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key.strip()] = float(value)
    return out


# -- beam-512 ---------------------------------------------------------------

BEAM_N, BEAM_STEPS, BEAM_ALPHA, BEAM_LENGTH = 512, 300, 10.0, 0.075


def beam_inputs(seed: int) -> Inputs:
    """configs/propagate_gaussian.ini at 512^2; the seed jitters the beam."""
    rnd = random.Random(seed)
    ini = _ini({
        "run": {"scenario": "propagate", "seed": seed, "snapshots": True,
                "csv": True, "pgm": True},
        "grid": {"nx": BEAM_N, "ny": BEAM_N, "dx": 5e-6},
        "medium": {"lambda": WAVELENGTH, "n0": 1.0, "n2": -5e-12,
                   "alpha": BEAM_ALPHA, "length": BEAM_LENGTH},
        "plan": {"n_steps": BEAM_STEPS, "snapshot_every": 50},
        "source": {"kind": "gaussian", "waist": rnd.uniform(140e-6, 160e-6),
                   "power": rnd.uniform(0.4, 0.6)},
    })
    return Inputs(ini, BEAM_N * BEAM_N * BEAM_STEPS)


def beam_check(out: Path) -> float:
    """Loss law P(L)/P0 against exp(-alpha L) (criterion 03)."""
    trace = _read_csv(out / "power.csv")
    ratio = trace[-1, 1] / trace[0, 1]
    err = abs(ratio / math.exp(-BEAM_ALPHA * BEAM_LENGTH) - 1.0)
    if not err < LOSS_LAW_TOL:
        raise OracleFailure(f"loss law error {err:.3e} >= {LOSS_LAW_TOL}")
    return err


# -- sf-ensemble-64 ---------------------------------------------------------

SF_N, SF_DX, SF_STEPS, SF_MEMBERS, SF_NBINS = 64, 5e-6, 160, 200, 64
SF_FLUID = _defocusing_fluid(SF_DX, xi_cells=4.0, tau=2.0)


def sf_inputs(seed: int) -> Inputs:
    """Criterion 11(b): 200 noisy plane-wave members; the seed drives the
    member noise streams."""
    f = SF_FLUID
    ini = _ini({
        "run": {"scenario": "structure-factor", "seed": seed},
        "grid": {"nx": SF_N, "ny": SF_N, "dx": SF_DX},
        "medium": {"lambda": WAVELENGTH, "n0": 1.0, "chi3": f["chi3"],
                   "length": f["length"]},
        "plan": {"n_steps": SF_STEPS},
        "source": {"kind": "plane", "intensity": f["intensity"]},
        "structure-factor": {"realizations": SF_MEMBERS, "noise_amplitude": 1e-3,
                             "band_fraction": 0.75, "nbins": SF_NBINS},
    })
    return Inputs(ini, SF_N * SF_N * SF_STEPS * SF_MEMBERS)


def sf_oracle() -> dict[float, float]:
    """Linearized S(k) = 1 - (2 mu / (E + 2 mu)) sin^2(Omega L), averaged
    over the discrete modes of each radial bin."""
    f = SF_FLUID
    k = 2.0 * math.pi * np.fft.fftfreq(SF_N, d=SF_DX)
    kx, ky = np.meshgrid(k, k)
    kk = np.hypot(kx, ky)
    e_k = kk**2 / (2.0 * K0)
    mu = K0 * f["dn_nl"]
    omega = np.sqrt(e_k * (e_k + 2.0 * mu))
    s_mode = 1.0 - (2.0 * mu / (e_k + 2.0 * mu)) * np.sin(omega * f["length"]) ** 2
    k_max = float(np.max(np.abs(k)))
    edges = np.linspace(0.0, k_max, SF_NBINS + 1)
    idx = np.clip(np.digitize(kk.ravel(), edges) - 1, 0, SF_NBINS - 1)
    keep = (kk.ravel() > 0) & (kk.ravel() <= k_max)
    sums = np.bincount(idx[keep], weights=s_mode.ravel()[keep], minlength=SF_NBINS)
    counts = np.bincount(idx[keep], minlength=SF_NBINS)
    centers = edges[:-1] + 0.5 * np.diff(edges)
    return {float(c): s / n for c, s, n in zip(centers, sums, counts) if n > 0}


def sf_check(out: Path) -> float:
    """Largest |S - oracle| for k xi < 1, and S < 1 there (criterion 11(b))."""
    rows = _read_csv(out / "structure_factor.csv")
    oracle = sf_oracle()
    band = rows[rows[:, 0] * SF_FLUID["xi"] < 1.0]
    if len(band) == 0:
        raise OracleFailure("no structure-factor bins with k xi < 1")
    if not np.all(band[:, 1] < 1.0):
        raise OracleFailure("S(k xi < 1) is not below 1")
    centers = np.array(list(oracle))
    err = 0.0
    for k, s_k in band[:, :2]:
        nearest = centers[np.argmin(np.abs(centers - k))]
        if abs(nearest - k) > 1e-9 * k:
            raise OracleFailure(f"bin centre {k!r} is not an oracle bin")
        err = max(err, abs(s_k - oracle[nearest]))
    if not err < SF_ORACLE_TOL:
        raise OracleFailure(f"max |S - oracle| {err:.3f} >= {SF_ORACLE_TOL}")
    return err


# -- bogoliubov-256 ---------------------------------------------------------

BOG_N, BOG_DX, BOG_STEPS = 256, 5e-6, 525
BOG_K_XI = (0.15, 0.25, 0.5, 0.7, 1.0)  # five probes, the fit's minimum
BOG_FLUID = _defocusing_fluid(BOG_DX, xi_cells=1.5, tau=35.0)


def bogoliubov_inputs(seed: int) -> Inputs:
    """Criterion 05: background plus five probes; the seed jitters each
    probe wavevector by up to 3%."""
    rnd = random.Random(seed)
    f = BOG_FLUID
    k_perp = [k_xi * rnd.uniform(0.97, 1.03) / f["xi"] for k_xi in BOG_K_XI]
    ini = _ini({
        "run": {"scenario": "dispersion", "seed": seed},
        "grid": {"nx": BOG_N, "ny": BOG_N, "dx": BOG_DX},
        "medium": {"lambda": WAVELENGTH, "n0": 1.0, "chi3": f["chi3"],
                   "length": f["length"]},
        "plan": {"n_steps": BOG_STEPS, "snapshot_every": 10},
        "source": {"kind": "plane", "intensity": f["intensity"]},
        "dispersion": {"k_perp_list": k_perp, "probe_waist": 15.0 * f["xi"],
                       "power_ratio": 1e-5},
    })
    runs = 1 + len(BOG_K_XI)
    return Inputs(ini, BOG_N * BOG_N * BOG_STEPS * runs)


def bogoliubov_check(out: Path) -> float:
    """|c_s,fit / sqrt(dn_nl / n0) - 1| (criterion 05)."""
    fit = _read_keys(out / "fit.txt")
    err = abs(fit["c_s"] / math.sqrt(BOG_FLUID["dn_nl"]) - 1.0)
    if not err < SOUND_SPEED_TOL:
        raise OracleFailure(f"fitted c_s error {err:.4f} >= {SOUND_SPEED_TOL}")
    return err


@dataclass(frozen=True)
class Workload:
    """nominal_s is the time of one run of the unchanged code on a 2-vCPU
    x86 VM. It converts --seconds into a fixed number of repeats, so that a
    slow first repeat cannot cut the sample count of a noisy run."""

    name: str
    scenario: str
    inputs: Callable[[int], Inputs]
    check: Callable[[Path], float]
    nominal_s: float


WORKLOADS = {w.name: w for w in (
    Workload("beam-512", "propagate", beam_inputs, beam_check, 10.0),
    Workload("sf-ensemble-64", "structure-factor", sf_inputs, sf_check, 12.0),
    Workload("bogoliubov-256", "dispersion", bogoliubov_inputs, bogoliubov_check, 23.0),
)}
