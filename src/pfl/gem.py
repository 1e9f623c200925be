"""One-dimensional gradient-echo-memory simulator.

The memory is described in normalized units by the coupled system

    d(alpha)/dt = -(i eta(t) z + gamma) alpha + i g C(t) E
    dE/dz       = i N C(t) alpha

with alpha(z, t) the atomic polarization, E(z, t) the field envelope in the
co-moving frame, eta(t) the signed gradient slope (a piecewise-constant
zigzag that flips sign at listed times), and C(t) in {0, 1} the coupling
gate standing in for the Raman beam: with the gate off nothing is absorbed
or re-emitted and the coherence only accumulates gradient phase.

The z lattice is centered, z in [-z_extent/2, +z_extent/2], so the gradient
detuning covers the pulse spectrum symmetrically about its carrier. A run's
GemConfig and GaussianPulse are numpy-free classes of `plans` (plans.memories).

Integration is operator-split per time step: the stiff gradient phase is
applied as an exact rotation, and the coupling terms are advanced with a
Heun (trapezoidal predictor-corrector) kick at the midpoint, second order in
dt and dz overall. The schedule is built once per run as arrays: the exact
piecewise integral of eta over every half step (so flip times need not align
with the time grid) and the gate C(t) at every midpoint and grid time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rules
from .plans import GaussianPulse, GemConfig

# each echo peak recall_order reads must reach this fraction of the highest
PEAK_REL_HEIGHT = 0.2
# and lie within this many pulse widths of its rules.echo_time: the tests' 28
# ordered peaks lie within 0.173 (FIFO; FILO 0.017), those of fifo_filo.ini at
# eta0 = 0 or 0.5, a memory that stores next to nothing, 0.79 to 4.45
ECHO_TIME_WIDTHS = 1.0


@dataclass
class GemResult:
    times: np.ndarray
    input_field: np.ndarray
    output_field: np.ndarray
    polarization: np.ndarray | None = None  # alpha on the (z, t) lattice, (nz, nt)


def _field_from_alpha(alpha: np.ndarray, e_in: complex, coupling: float,
                      density: float, dz: float) -> np.ndarray:
    """Solve dE/dz = i N C alpha by cumulative trapezoid from the input edge."""
    if coupling == 0.0:
        return np.full_like(alpha, e_in)
    segments = 0.5 * (alpha[1:] + alpha[:-1]) * dz
    cumulative = np.concatenate([[0.0 + 0.0j], np.cumsum(segments)])
    return e_in + 1j * density * coupling * cumulative


def _gate(config: GemConfig, times) -> np.ndarray:
    """Coupling gate C(t) at each of the times; a window includes its edges."""
    times = np.asarray(times, dtype=float)[:, None]
    if not config.coupling_windows:
        return np.ones(len(times))
    on, off = np.transpose(config.coupling_windows)
    return np.any((times >= on) & (times <= off), axis=1).astype(float)


def _schedule(config: GemConfig, t: np.ndarray):
    """(phase, t_mid, c_mid, c_node) of the grid t: phase[2n] and phase[2n+1]
    integrate eta exactly over [t_n, t_mid_n] and [t_mid_n, t_n+1], piece by
    piece between flips; c_mid and c_node gate the midpoints and the times t."""
    t_mid = 0.5 * (t[:-1] + t[1:])
    nodes = np.empty(2 * len(t) - 1)
    nodes[0::2], nodes[1::2] = t, t_mid
    flips = np.asarray(config.eta_flips, dtype=float)
    # the sorted distinct times, as np.union1d gives them without loading numpy.ma
    edges = np.array(sorted({*nodes.tolist(), *flips[(flips > t[0]) & (flips < t[-1])].tolist()}))
    mid = 0.5 * (edges[:-1] + edges[1:])
    eta = config.eta0 * (-1.0) ** np.searchsorted(flips, mid, side="right")
    phase = np.add.reduceat(eta * np.diff(edges), np.searchsorted(edges, nodes[:-1]))
    return phase, t_mid, _gate(config, t_mid), _gate(config, t)


def gem_evolve(config: GemConfig, pulses: list[GaussianPulse],
               store_polarization: bool = True) -> GemResult:
    """Integrate the memory equations for an input field, the sum of the pulses."""
    rules.pulses([p.center for p in pulses], [p.width for p in pulses], config.t_extent)
    dt, dz = config.dt, config.dz
    z = np.linspace(-config.z_extent / 2.0, config.z_extent / 2.0, config.nz)
    t = np.linspace(0.0, config.t_extent, config.nt)
    phase, t_mid, c_mid, c_node = (a.tolist() for a in _schedule(config, t))

    e_in = np.zeros(config.nt, dtype=np.complex128)
    for p in pulses:
        e_in += p.amplitude * np.exp(-((t - p.center) ** 2) / (2.0 * p.width**2))
    alpha = np.zeros(config.nz, dtype=np.complex128)
    output = np.empty(config.nt, dtype=np.complex128)
    output[0] = _field_from_alpha(alpha, e_in[0], c_node[0], config.density, dz)[-1]
    polarization = None
    if store_polarization:
        polarization = np.zeros((config.nz, config.nt), dtype=np.complex128)

    g, density, gamma = config.g, config.density, config.decay
    for n in range(config.nt - 1):
        t0, tm, t1 = t[n], t_mid[n], t[n + 1]
        coupling = c_mid[n]
        e_mid = 0.5 * (e_in[n] + e_in[n + 1])

        alpha = alpha * np.exp(-1j * z * phase[2 * n] - gamma * (tm - t0))
        if coupling != 0.0:
            e1 = _field_from_alpha(alpha, e_mid, coupling, density, dz)
            predictor = alpha + dt * 1j * g * coupling * e1
            e2 = _field_from_alpha(predictor, e_mid, coupling, density, dz)
            alpha = alpha + dt * 1j * g * coupling * 0.5 * (e1 + e2)
        alpha = alpha * np.exp(-1j * z * phase[2 * n + 1] - gamma * (t1 - tm))

        if not np.all(np.isfinite(alpha)):
            raise FloatingPointError(f"non-finite polarization at t = {t1:.6g}")
        output[n + 1] = _field_from_alpha(alpha, e_in[n + 1], c_node[n + 1], density, dz)[-1]
        if polarization is not None:
            polarization[:, n + 1] = alpha

    return GemResult(times=t, input_field=e_in, output_field=output, polarization=polarization)


def gem_efficiency_theory(g: float, density: float, eta: float) -> float:
    """Closed-form recall efficiency sigma = (1 - exp(-2 pi g N / |eta|))^2."""
    rules.nonzero_eta(eta)
    if g * density < 0:
        raise ValueError("g * density must be non-negative")
    return float((1.0 - np.exp(-2.0 * np.pi * g * density / abs(eta))) ** 2)


@dataclass
class EfficiencyMeasurement:
    sigma: float
    echo_time: float


def gem_efficiency_measured(config: GemConfig, pulse: GaussianPulse) -> EfficiencyMeasurement:
    """Recall efficiency as the echo-to-input energy ratio, integrated over
    rules.echo_windows, of a config with exactly one gradient flip."""
    if len(config.eta_flips) != 1:
        raise ValueError("efficiency measurement expects exactly one gradient flip")
    input_window, echo_window = rules.echo_windows(config.eta_flips[0], pulse.center,
                                                   pulse.width, config.t_extent)

    result = gem_evolve(config, [pulse], store_polarization=False)
    t = result.times
    in_sel = (t >= input_window[0]) & (t <= input_window[1])
    echo_sel = (t >= echo_window[0]) & (t <= echo_window[1])
    energy_in = float(np.trapezoid(np.abs(result.input_field[in_sel]) ** 2, t[in_sel]))
    energy_echo = float(np.trapezoid(np.abs(result.output_field[echo_sel]) ** 2, t[echo_sel]))
    echo_power = np.abs(result.output_field) ** 2
    masked = np.where(echo_sel, echo_power, 0.0)
    echo_time = float(t[int(np.argmax(masked))])
    return EfficiencyMeasurement(sigma=energy_echo / energy_in, echo_time=echo_time)


@dataclass
class PulseOrderingResult:
    mode: str
    peak_times: list[float]
    labels: list[str]


def echo_peaks(power: np.ndarray, height: float, distance: int) -> np.ndarray:
    """Indices of the peaks of power that reach height, no two of them
    closer than distance samples, in increasing order: the rule of
    scipy.signal.find_peaks for these two arguments.

    A peak is a run of equal samples above the samples on both sides of it,
    taken at its midpoint (rounded down); the first and last samples are
    never peaks. Peaks below height are dropped. The rest are then taken
    from the highest down, each dropping every peak closer than distance
    to it; on equal heights the earlier peak is taken first.
    """
    starts = np.flatnonzero(np.append(True, power[1:] != power[:-1]))  # runs of equal samples
    ends = np.append(starts[1:] - 1, len(power) - 1)
    value = power[starts]
    top = np.flatnonzero((value[1:-1] > value[:-2]) & (value[1:-1] > value[2:])) + 1
    peaks = (starts[top] + ends[top]) // 2
    peaks = peaks[power[peaks] >= height]
    heights = power[peaks].tolist()
    keep = np.ones(len(peaks), dtype=bool)
    for j in sorted(range(len(peaks)), key=lambda j: -heights[j]):  # stable: earlier first
        if keep[j]:
            keep[np.abs(peaks - peaks[j]) < distance] = False
            keep[j] = True
    return peaks[keep]


def recall_order(config: GemConfig, pulses: list[GaussianPulse],
                 result: GemResult) -> PulseOrderingResult | None:
    """The recall order of result, the run of the pulses on config, if its
    schedule sets one (rules.ordering), else None: FILO (one flip, coupling
    always on) re-emits the later pulse first, FIFO (coupling gated off
    across those echoes, a second flip) in input order, each at its
    rules.echo_time. Raises RuntimeError if a peak lies past ECHO_TIME_WIDTHS
    widths from its echo time or the order found is not the mode's."""
    if (mode := rules.ordering(config.eta_flips, config.coupling_windows,
                               [p.center for p in pulses], [p.width for p in pulses],
                               config.t_extent)) is None:
        return None
    first, second = sorted(pulses, key=lambda p: p.center)
    # (echo time, label, width) of each pulse
    expected = [(rules.echo_time(mode, config.eta_flips, p.center), p.label or label, p.width)
                for p, label in ((first, "A"), (second, "B"))]

    t = result.times
    power = np.abs(result.output_field) ** 2
    recall_start = config.eta_flips[-1]
    sel = t > recall_start
    distance = max(1, int(0.5 * (second.center - first.center) / config.dt))
    peaks = echo_peaks(np.where(sel, power, 0.0), PEAK_REL_HEIGHT * float(np.max(power[sel])),
                       distance)
    peak_times = [float(t[i]) for i in peaks]
    if len(peak_times) != 2:
        raise RuntimeError(f"expected two echo peaks after t = {recall_start}, found "
                           f"{len(peak_times)} at {peak_times}")
    nearest = [min(expected, key=lambda e: abs(e[0] - pt)) for pt in peak_times]
    for pt, (echo, label, width) in zip(peak_times, nearest):
        if (off := abs(pt - echo) / width) > ECHO_TIME_WIDTHS:
            raise RuntimeError(f"no pulse recalled: the echo peak at t = {pt:.6g} lies {off:.2f} "
                               f"widths from the echo of {label} at {echo:g}")
    labels = [label for _, label, _ in nearest]
    expected_labels = [e[1] for e in sorted(expected)]
    if labels != expected_labels:
        raise RuntimeError(f"recall ordering {labels} does not match the {mode} expectation "
                           f"{expected_labels} (peaks at {peak_times})")
    return PulseOrderingResult(mode=mode, peak_times=peak_times, labels=labels)
