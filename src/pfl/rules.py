"""Each rule tying a value to the grid, to another value or to the memory
schedule: one numpy-free function raising ValueError with one message, which
the builders and config.validate_config call, most of them through the run
plans of `plans`. A `grid` has nx, ny, dx, dy. A rule on a fluid's scale
gets the value `medium` derives for the run. So do the values a run derives
from its config that are not a propagation: the snapshot schedule, the
order of a swept list, the coupling windows, and the phases per step at
which the kernel's step-resolution guard warns and aborts."""

import math

from .medium import bogoliubov_omega, density_to_intensity

MIN_LATTICE = 32  # points of the memory's z and t lattices, at least
WAIST_CELLS = 4.0  # cells a Gaussian waist spans, at least
FEATURE_CELLS = 2.0  # cells a speckle grain or a defect spans, at least
PULSE_WIDTHS = 4.0  # widths from a memory pulse to t = 0, t_extent and the other pulse
ECHO_WINDOW_WIDTHS = 4.0  # input and echo energies: center +- this many widths
MAX_GRADIENT_PHASE = 0.5  # rad of |eta| z_max dt per memory time step, at most
MIN_TRACKED_SNAPSHOTS = 3  # snapshots of a probe stack before z = L, at least
WARN_PHASE_PER_STEP = 0.5  # rad of phase per propagation step from which a run warns
ABORT_PHASE_PER_STEP = math.pi  # rad of phase per propagation step above which it aborts


def snapshot_steps(n_steps: int, snapshot_every: int) -> list[int]:
    """The steps after which a plan makes a snapshot: each multiple of
    snapshot_every below n_steps, none for 0 every. The field after the last
    step, at z = L, is the run's final field, never a snapshot."""
    return list(range(snapshot_every, n_steps, snapshot_every)) if snapshot_every else []


def tracked_snapshots(n_steps: int, snapshot_every: int):
    """Refuse a plan whose schedule makes too few snapshots for the per-mode
    recurrence of a probe stack, which reads the evenly spaced snapshots and
    then the final field when it lies evenly spaced after the last one."""
    count = len(snapshot_steps(n_steps, snapshot_every))
    if count < MIN_TRACKED_SNAPSHOTS:
        raise ValueError(f"the plan makes {count} snapshots ({n_steps} steps, one every "
                         f"{snapshot_every}); reading a probe's modes needs at least "
                         f"{MIN_TRACKED_SNAPSHOTS}")


def probe_modes(k_perp: float, grid) -> tuple[float, int]:
    """(t, j): |k_perp| in units of the grid's first x mode 2 pi / (nx dx),
    and j the mode nearest it, at least 1. A probe's group velocity is read
    from the modes j - 1, j and j + 1 of its density change."""
    t = abs(k_perp) * (grid.nx * grid.dx) / (2.0 * math.pi)
    return t, max(1, round(t))


def mode_aliasing(medium, density: float, k_perps, spacing: float, grid):
    """Refuse snapshots spacing apart over which the highest mode a probe
    stack reads turns by pi rad or more on the continuum Bogoliubov branch
    of this density: its recurrence's arccos would alias that mode."""
    top = max((probe_modes(k, grid)[1] for k in k_perps), default=0) + 1
    k = top * 2.0 * math.pi / (grid.nx * grid.dx)
    dn = abs(medium.chi3) * density / (2.0 * medium.n0)
    turn = bogoliubov_omega(k, medium.k0, medium.n0, dn) * spacing
    if turn >= math.pi:
        raise ValueError(f"mode {top} (k = {k:.4g} 1/m), the highest the probes read, turns "
                         f"{turn:.2f} rad (>= pi) between snapshots {spacing:.4g} m apart; "
                         "take the snapshots closer together")


def swept(values, what: str) -> list:
    """A swept list's values in increasing order, each once: a repeated
    value would make the run measure it twice."""
    ordered = sorted(values)
    for a, b in zip(ordered, ordered[1:]):
        if a == b:
            raise ValueError(f"{what} holds {a:g} twice; a sweep measures each value once")
    return ordered


def noise_band(band_fraction: float, grid):
    """Refuse a noise band that holds no mode but k = 0: its edge
    band_fraction pi / max(dx, dy) must reach the grid's first mode
    2 pi (1 / (n d)), in the arithmetic of Grid.kx and Grid.k_nyquist_x."""
    first = min(2.0 * math.pi * (1.0 / (grid.nx * grid.dx)),
                2.0 * math.pi * (1.0 / (grid.ny * grid.dy)))
    edge = band_fraction * min(math.pi / grid.dx, math.pi / grid.dy)
    if first > edge:
        raise ValueError(f"the noise band holds no mode but k = 0: its edge band_fraction "
                         f"* pi / max(dx, dy) = {edge:.6g} lies below the first mode "
                         f"2 pi / (n d) = {first:.6g}")


def probe_kick(medium, density: float, power_ratio: float, n_steps: int):
    """The first kick's peak phase |g| rho_peak dz on a probe line over a
    uniform background of this density: rho_peak = density (1 +
    sqrt(power_ratio))^2 bounds the line, saturated as the kernel's kick
    saturates it. Above ABORT_PHASE_PER_STEP the kernel's guard would abort
    the run at its first step; the message names the fewest steps that pass."""
    peak = density * (1.0 + math.sqrt(power_ratio)) ** 2
    if medium.i_sat is not None:
        peak /= 1.0 + density_to_intensity(peak, medium.n0) / medium.i_sat
    total = abs(medium.g) * peak * medium.length  # the kick's phase at dz = length
    if n_steps and total / n_steps > ABORT_PHASE_PER_STEP:
        raise ValueError(f"the first kick gives {total / n_steps:.2f} rad of phase per step "
                         f"(> pi) with {n_steps} steps; the run needs "
                         f"n_steps >= {math.ceil(total / ABORT_PHASE_PER_STEP)}")


def nonlinear_length(z_nl: float):
    """Refuse a run whose lengths are counted in nonlinear lengths when z_nl
    is infinite, as it is at chi3 = 0 or a zero source intensity."""
    if math.isinf(z_nl):
        raise ValueError("the nonlinear length z_nl is infinite (chi3 = 0 or a zero source "
                         "intensity), so tau z_nl sets no length")


def source_density(density: float):
    """Refuse a zero source density under noise, probes or a stripe that ride
    on the source amplitude: nothing would carry them (chi3 = 0 still runs)."""
    if density == 0:
        raise ValueError("the source intensity is zero: the noise, the probes or the stripe "
                         "ride on the source amplitude, so nothing would carry them")


def increasing(values, what: str):
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError(f"{what} must be strictly increasing")
    return values


def resolved(value: float, grid, what: str, cells: float = FEATURE_CELLS):
    if value < cells * max(grid.dx, grid.dy):
        raise ValueError(f"{what} {value} is unresolved: need at least {cells:g}*max(dx, dy) "
                         f"= {cells * max(grid.dx, grid.dy)}")


def waist(value: float, grid, what: str = "waist"):
    resolved(value, grid, what, WAIST_CELLS)
    half_extent = 0.5 * min(grid.nx * grid.dx, grid.ny * grid.dy)
    if value > half_extent:
        raise ValueError(f"{what} {value} exceeds half the grid extent {half_extent}; "
                         "the periodic wraparound would corrupt it")


def probe(probe_waist: float, k_perp: float, grid):
    """Refuse a probe whose modes j - 1, j and j + 1 (probe_modes) pass the
    Nyquist mode nx/2: a real line's transform holds mode -(nx/2 - 1) at
    index nx/2 + 1. The waist must be resolved."""
    top, half = probe_modes(k_perp, grid)[1] + 1, grid.nx // 2
    if top > half:
        limit = (half - 0.5) * 2.0 * math.pi / (grid.nx * grid.dx)
        raise ValueError(f"probe |k_perp| = {abs(k_perp):g} 1/m reads mode {top}, past the "
                         f"grid's Nyquist mode nx/2 = {half}: |k_perp| must lie below "
                         f"(nx/2 - 0.5) 2 pi / (nx dx) = {limit:.6g} 1/m")
    waist(probe_waist, grid, "probe waist")


def lattice_period(period: float, grid):
    if math.sqrt(3.0) * (2.0 * math.pi / period) > min(math.pi / grid.dx, math.pi / grid.dy):
        raise ValueError(f"lattice period {period} unresolved: interference wavevector "
                         "sqrt(3)*2*pi/period exceeds the grid Nyquist")


def vortex(charge: int, x: float, y: float, grid):
    if charge == 0:
        raise ValueError("charge must satisfy |charge| >= 1")
    half_x, half_y = grid.nx * grid.dx / 2, grid.ny * grid.dy / 2
    if not (-half_x <= x < half_x and -half_y <= y < half_y):
        raise ValueError(f"vortex center ({x}, {y}) lies outside the grid extent")


def decade(densities):
    if max(densities) / min(densities) < 10.0 - 1e-9:
        raise ValueError("densities must span at least one decade")


def coupling_windows(flat) -> tuple[tuple[float, float], ...]:
    """The (on, off) windows of a flat list of coupling times."""
    if len(flat) % 2:
        raise ValueError("gem.coupling_windows must list (on, off) pairs")
    return tuple(zip(flat[::2], flat[1::2]))


def schedule(flips, windows, t_extent: float):
    """Flip times and (on, off) coupling windows."""
    increasing(flips, "eta flip times")
    if any(not 0.0 <= t <= t_extent for t in flips):
        raise ValueError("eta flip times must lie within [0, t_extent]")
    if (flat := [t for window in windows for t in window]) != sorted(flat):
        raise ValueError("coupling windows must be ordered and disjoint")


def gradient_phase(eta0: float, z_extent: float, t_extent: float, nt: int):
    dt = t_extent / (nt - 1)
    phase_per_step = abs(eta0) * 0.5 * z_extent * dt
    if phase_per_step > MAX_GRADIENT_PHASE:
        raise ValueError(f"time step dt={dt:.3g} under-resolves the gradient phase: "
                         f"|eta| z_max dt = {phase_per_step:.3g} > {MAX_GRADIENT_PHASE} rad")


def nonzero_eta(eta: float):
    if eta == 0:
        raise ValueError("eta must be nonzero")


def stores(g: float, density: float):
    """Refuse a memory that couples no light in (g density = 0): it stores
    nothing, so no echo would carry a recall order."""
    if g * density == 0:
        raise ValueError("the memory stores nothing (g density = 0), so no echo would carry "
                         "a recall order")


def pulses(centers, widths, t_extent: float):
    for center, width in zip(centers, widths):
        if width <= 0:
            raise ValueError(f"pulse width must be positive, got {width}")
        if center - PULSE_WIDTHS * width < 0.0 or center + PULSE_WIDTHS * width > t_extent:
            raise ValueError(f"pulse at t={center} with width {width} does not fit in "
                             f"[0, {t_extent}] with {PULSE_WIDTHS:g} sigma margins")


def echo_windows(tau: float, center: float, width: float, t_extent: float):
    """(input, echo) windows of a pulse at center and its echo from a flip at tau."""
    half = ECHO_WINDOW_WIDTHS * width
    input_window, echo_window = [(c - half, c + half) for c in (center, 2.0 * tau - center)]
    if echo_window[0] <= input_window[1]:
        raise ValueError(f"echo window {echo_window} overlaps the input window {input_window}; "
                         "move the flip later or shorten the pulse")
    if echo_window[1] > t_extent:
        raise ValueError("echo window extends past t_extent")
    return input_window, echo_window


def echo_time(mode: str, flips, center: float) -> float:
    """When a pulse stored at center re-emits: FILO (one flip at tau1) at
    2 tau1 - center, FIFO (flips at tau1 and tau2) at center + 2 (tau2 - tau1)."""
    return 2.0 * flips[0] - center if mode == "FILO" else center + 2.0 * (flips[1] - flips[0])


def ordering(flips, windows, centers, widths, t_extent: float) -> str | None:
    """FILO for two pulses, one flip and no coupling windows, FIFO for two
    pulses, two flips and a window (see gem.recall_order), else None. Both
    pulses are stored before the first flip, and each echo is read after the
    last flip and PULSE_WIDTHS widths inside t_extent."""
    if len(centers) != 2 or (len(flips), bool(windows)) not in ((1, False), (2, True)):
        return None
    (first, first_width), (second, second_width) = sorted(zip(centers, widths))
    if second - first < PULSE_WIDTHS * max(first_width, second_width):
        raise ValueError(f"pulses are not temporally resolved: separation {second - first} "
                         f"< {PULSE_WIDTHS:g} widths")
    if second + PULSE_WIDTHS * second_width > flips[0]:
        raise ValueError(f"pulse at t={second} with width {second_width} is not stored before "
                         f"the first gradient flip at {flips[0]} ({PULSE_WIDTHS:g} sigma margin)")
    mode = "FILO" if len(flips) == 1 else "FIFO"
    if mode == "FIFO":
        for echo in (echo_time("FILO", flips, second), echo_time("FILO", flips, first)):
            if any(on <= echo <= off for on, off in windows):
                raise ValueError(f"coupling is on at the suppressed echo time {echo}; gate it "
                                 "off across both first-flip echoes for FIFO recall")
    for center, width in ((first, first_width), (second, second_width)):
        echo = echo_time(mode, flips, center)
        if echo <= flips[-1] or echo + PULSE_WIDTHS * width > t_extent:
            raise ValueError(f"{mode} echo of the pulse at t={center} would fall at {echo}; it "
                             f"must come after the last flip at {flips[-1]} and "
                             f"{PULSE_WIDTHS:g} sigma before t_extent = {t_extent}")
    return mode
