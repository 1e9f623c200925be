"""Run configuration: parsing and validation.

Grammar (normative): the file is a sequence of lines. A line is blank, a
comment (first non-space character '#'), a section header '[name]', or a
binding 'key = value'. A trailing '# ...' comment is stripped from header
and binding lines, so '#' cannot appear inside a value. Keys and section
names are case-sensitive. A section or key the scenario does not read is
an error, as are duplicate bindings.

Value syntax per declared type: int (no decimal point), float (finite),
bool ("true"/"false"), str (verbatim, trimmed), and comma-separated lists
of float/int/str. A key's range is declared with its type: a number, or
each item of a list, must lie in the key's interval, and a list must have
at least its fewest items; a value outside is an error at its line. Then
validate_config checks the rules that tie keys together, most in `rules`,
on the MediumParams the run builds (medium_params) and on the fluid scales
`medium` derives from it: this module holds no physical constant or formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace
from types import SimpleNamespace
from typing import Any

from . import plans, rules
from .medium import MediumParams
from .pfl1 import read_header

REQUIRED = object()


class ConfigError(Exception):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


@dataclass(frozen=True)
class Key:
    """Schema entry for one key: type, default (REQUIRED if mandatory), the
    interval a number or each list item lies in, such as "(0, inf)", and
    the fewest items a list takes."""

    type: str
    default: Any = REQUIRED
    within: str | None = None
    items: int = 0

    def check(self, key: str, value, line: int):
        """Raise a ConfigError at line if value lies outside this key's range."""
        values = value if isinstance(value, tuple) else (value,)
        if len(values) < self.items:
            raise ConfigError(f"{key} needs at least {self.items} value"
                              f"{'s' * (self.items > 1)}, got {len(values)}", line)
        for v in values:
            if self.within is not None and not inside(v, self.within):
                raise ConfigError(f"{key} must lie in {self.within}, got {v}", line)


def inside(value, within: str) -> bool:
    """Whether a number lies in an interval such as "(0, inf)" or "[0, 1]"."""
    lo, hi = map(float, within[1:-1].split(","))
    return ((lo < value if within[0] == "(" else lo <= value)
            and (value < hi if within[-1] == ")" else value <= hi))


@dataclass(frozen=True)
class Kinds:
    """A section whose `kind` key picks its other keys: the keys of each
    kind a scenario takes, why it takes no other, and whether the section
    may be left out."""

    keys: dict[str, dict[str, Key]]
    why: str = ""
    optional: bool = False

    def only(self, *kinds: str, why: str) -> Kinds:
        return Kinds({kind: self.keys[kind] for kind in kinds}, why)

    def section(self, kind: str) -> dict[str, Key]:
        """The keys of a section of this kind, `kind` first."""
        return {"kind": Key("str"), **self.keys[kind]}


_POSITIVE, _NON_NEGATIVE = "(0, inf)", "[0, inf)"

_RUN = {
    "scenario": Key("str"),
    "seed": Key("int", 0),
    "snapshots": Key("bool", False),
    "csv": Key("bool", True),  # parsed for INIs that set it; only true passes
    "pgm": Key("bool", False),
}

_GRID = {
    "nx": Key("int", within="[8, inf)"),
    "ny": Key("int", within="[8, inf)"),
    "dx": Key("float", within=_POSITIVE),
    "dy": Key("float", None, within=_POSITIVE),
}

_MEDIUM = {
    "lambda": Key("float", within=_POSITIVE),
    "n0": Key("float", within=_POSITIVE),
    "chi3": Key("float", None),
    "n2": Key("float", None),
    "alpha": Key("float", 0.0),  # alpha < 0 is gain
    "length": Key("float", within=_NON_NEGATIVE),
    "isat": Key("float", None, within=_POSITIVE),
}

_PLAN = {
    "n_steps": Key("int", within=_NON_NEGATIVE),
    "snapshot_every": Key("int", 0, within=_NON_NEGATIVE),
}

_SOURCE = Kinds({
    "gaussian": {"waist": Key("float", within=_POSITIVE),
                 "power": Key("float", within=_NON_NEGATIVE)},
    "plane": {"intensity": Key("float", within=_NON_NEGATIVE)},
    "speckle": {"intensity": Key("float", within=_NON_NEGATIVE),
                "correlation_length": Key("float", within=_POSITIVE)},
    "file": {"path": Key("str")},  # a PFL1 snapshot
})

_AMPLITUDE = {"amplitude_re": Key("float", 0.0), "amplitude_im": Key("float", 0.0)}
_PT = {"pt_symmetrize": Key("bool", False)}
_POTENTIAL = Kinds({
    "uniform": {"value_re": Key("float", 0.0), "value_im": Key("float", 0.0), **_PT},
    "gaussian_defect": {**_AMPLITUDE, "width": Key("float", within=_POSITIVE),
                        "center_x": Key("float", 0.0), "center_y": Key("float", 0.0), **_PT},
    "lattice": {**_AMPLITUDE, "period": Key("float", within=_POSITIVE),
                "orientation": Key("float", 0.0), **_PT},
}, optional=True)

# the memory, its schedule and its pulses, read by the gem scenario; the
# efficiency sweep takes the lattice keys
_GEM = {
    "g": Key("float"),
    "density": Key("float"),
    "eta0": Key("float"),
    "z_extent": Key("float", 2.0, within=_POSITIVE),
    "nz": Key("int", 256, within=f"[{rules.MIN_LATTICE}, inf)"),
    "t_extent": Key("float", within=_POSITIVE),
    "nt": Key("int", 1600, within=f"[{rules.MIN_LATTICE}, inf)"),
    "flip_times": Key("floats", within=_NON_NEGATIVE),
    "coupling_windows": Key("floats", ()),
    "pulse_centers": Key("floats"),
    "pulse_widths": Key("floats", within=_POSITIVE),
    "decay": Key("float", 0.0, within=_NON_NEGATIVE),
    "pulse_labels": Key("strs", ()),
}

# a probe's peak intensity over the background's, in dispersion and sound-scaling
_POWER_RATIO = Key("float", 1e-5, within=_NON_NEGATIVE)

# the [run] entries of a scenario that writes snapshots, an image and CSV
# files; the CLI sets the output directory
_RUN_SNAPSHOTS = {"run": _RUN, "run.jobs": "a run takes no thread count",
                  "run.out_dir": "use --out or $PFL_OUT for the output directory"}
_RUN_IMAGE = {**_RUN_SNAPSHOTS, "run.snapshots": "only propagate writes snapshots"}
_RUN_CSV = {**_RUN_IMAGE, "run.pgm": "only propagate, vortices and gem write an image"}
_FIELD = {"grid": _GRID, "medium": _MEDIUM, "plan": _PLAN}
_HOMOGENEOUS = "the background must be a homogeneous fluid"
_FINAL_FIELDS = "only the final field is read"

# Every section each scenario reads, in the order they are read and named in
# messages: its keys, or for a Kinds section the keys of each kind it takes.
# A string entry names a section or a 'section.key' the scenario does not
# read and says why; a 'section.key' entry takes that key out of its section.
# Any section or key the table does not give a scenario is an error.
SCENARIOS: dict[str, dict[str, Any]] = {
    "propagate": {**_RUN_SNAPSHOTS, **_FIELD, "source": _SOURCE, "potential": _POTENTIAL},
    "dispersion": {
        **_RUN_CSV,
        **_FIELD,
        # the probe packet is tracked over the snapshots
        "plan": {**_PLAN, "snapshot_every": Key("int", within="[1, inf)")},
        "source": _SOURCE.only("plane", why=_HOMOGENEOUS),
        "potential": _HOMOGENEOUS,
        "dispersion": {
            "k_perp_list": Key("floats", within=_NON_NEGATIVE, items=5),
            "probe_waist": Key("float", within=_POSITIVE),
            "power_ratio": _POWER_RATIO,
        },
    },
    "sound-scaling": {
        **_RUN_CSV,
        **_FIELD,
        "medium.length": "each density propagates over tau * z_nl of that density",
        "plan": f"each density takes ceil({plans.STEPS_PER_Z_NL} tau) steps, with a "
                "snapshot every max(1, n_steps // 50)",
        "source": "each background is a plane wave at one of sound-scaling.intensities",
        "potential": _HOMOGENEOUS,
        "sound-scaling": {
            "intensities": Key("floats", within=_POSITIVE, items=4),
            "tau": Key("float", 25.0, within=_POSITIVE),
            "k_perp_xi": Key("float", 0.2, within=_POSITIVE),
            "probe_waist_xi": Key("float", 10.0, within=_POSITIVE),
            "power_ratio": _POWER_RATIO,
        },
    },
    "precondensation": {
        **_RUN_CSV,
        **_FIELD,
        "medium.length": "each tau in tau_list propagates over tau * z_nl of the "
                         "source density",
        "plan.snapshot_every": _FINAL_FIELDS,
        "source": _SOURCE.only("plane", "speckle", why="the density is read from "
                               "source.intensity"),
        "potential": _POTENTIAL,
        "precondensation": {
            "tau_list": Key("floats", within=_NON_NEGATIVE, items=1),
            "realizations": Key("int", 4, within="[1, inf)"),
            "bins": Key("int", 64, within="[1, inf)"),
        },
    },
    "structure-factor": {
        **_RUN_CSV,
        **_FIELD,
        "plan.snapshot_every": _FINAL_FIELDS,
        "source": _SOURCE.only("plane", why="each member is a plane wave of "
                               "source.intensity plus noise"),
        "potential": _POTENTIAL,
        "structure-factor": {
            "realizations": Key("int", 200, within="[2, inf)"),
            "noise_amplitude": Key("float", 1e-3, within=_POSITIVE),
            "band_fraction": Key("float", 0.75, within="(0, 1]"),
            "nbins": Key("int", 24, within="[1, inf)"),
        },
    },
    "vortices": {
        **_RUN_IMAGE,
        **_FIELD,
        "plan.snapshot_every": _FINAL_FIELDS,
        "source": _SOURCE,
        "potential": _POTENTIAL,
        "vortices": Kinds({
            "imprint": {"charges": Key("ints", items=1), "xs": Key("floats"),
                        "ys": Key("floats"), "core_width": Key("float", None, within=_POSITIVE)},
            "stripe": {"stripe_position": Key("float", 0.0), "stripe_angle": Key("float", 0.0),
                       "stripe_contrast": Key("float", 1.0, within="[0, 1]")},
        }),
        "vortices.evolve": "set plan.n_steps = 0 for no evolution",
    },
    "gem": {**_RUN_IMAGE, "gem": _GEM},
    "gem-efficiency-sweep": {
        **_RUN_CSV,
        "gem-efficiency-sweep": {
            "ratios": Key("floats", within=_NON_NEGATIVE, items=1),
            "eta0": Key("float", 20.0),
            "z_extent": _GEM["z_extent"],
            "nz": _GEM["nz"],
            "t_extent": replace(_GEM["t_extent"], default=8.0),
            "nt": _GEM["nt"],
            "flip_time": Key("float", 3.0, within=_NON_NEGATIVE),
            "pulse_center": Key("float", 1.5),
            "pulse_width": Key("float", 0.18, within=_POSITIVE),
        },
    },
}


@dataclass
class RunConfig:
    run: dict
    grid: dict | None = None
    medium: dict | None = None
    plan: dict | None = None
    source: dict | None = None
    potential: dict | None = None
    params: dict = dc_field(default_factory=dict)

    @property
    def scenario(self) -> str:
        return self.run["scenario"]


def _parse_value(raw: str, kind: str, key: str, line: int):
    raw = raw.strip()
    try:
        if kind == "int":
            if any(c in raw for c in ".eE") and not raw.lstrip("+-").isdigit():
                raise ValueError
            return int(raw)
        if kind == "float":
            if not math.isfinite(value := float(raw)):
                raise ValueError
            return value
        if kind == "bool":
            if raw.lower() in ("true", "false"):
                return raw.lower() == "true"
            raise ValueError
        if kind == "str":
            if not raw:
                raise ValueError
            return raw
        if kind in ("floats", "ints", "strs"):  # each item as its own kind
            return tuple(_parse_value(p, kind[:-1], key, line) for p in raw.split(",")
                         if p.strip())
    except ValueError:
        pass
    finite = "finite " if kind == "float" else ""
    raise ConfigError(f"key {key!r}: cannot parse {raw!r} as {finite}{kind}", line)


def _read_sections(text: str) -> dict[str, dict[str, tuple[str, int]]]:
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current: str | None = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        stripped = raw_line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "#" in stripped:
            stripped = stripped[:stripped.index("#")].strip()
            if not stripped:
                continue
        if stripped.startswith("["):
            if not stripped.endswith("]") or len(stripped) < 3:
                raise ConfigError(f"malformed section header {stripped!r}", lineno)
            current = stripped[1:-1].strip()
            if current in sections:
                raise ConfigError(f"duplicate section [{current}]", lineno)
            sections[current] = {}
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value', got {stripped!r}", lineno)
        if current is None:
            raise ConfigError("binding outside of any [section]", lineno)
        key, _, value = stripped.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError("empty key", lineno)
        if key in sections[current]:
            raise ConfigError(f"duplicate key {key!r} in [{current}]", lineno)
        sections[current][key] = (value.strip(), lineno)
    return sections


def _read_section(scenario: str, reads: dict[str, Any], name: str,
                  bindings: dict[str, tuple[str, int]] | None) -> dict | None:
    """One section's values: its bindings parsed against what the scenario
    reads there, defaults filling the keys not bound; None for an absent
    optional section."""
    schema, context = reads[name], ""
    if isinstance(schema, Kinds):
        if bindings is None and schema.optional:
            return None
        kind = (bindings or {}).get("kind", ("",))[0]
        if kind not in schema.keys:
            kinds = " or ".join(map(repr, schema.keys))
            raise ConfigError(f"{scenario} needs a [{name}] of kind {kinds}"
                              + (f", not {kind!r}" if kind else "")
                              + (f": {schema.why}" if schema.why else ""))
        schema, context = schema.section(kind), f" for kind {kind!r}"
    schema = {key: spec for key, spec in schema.items() if f"{name}.{key}" not in reads}
    out = {}
    for key, (raw, lineno) in (bindings or {}).items():
        if key not in schema:
            why = reads.get(f"{name}.{key}")
            # a key the scenario takes out is rejected for its reason, whatever the kind
            raise ConfigError(f"{scenario} takes no {name}.{key}"
                              + (f": {why}" if why else context), lineno)
        out[key] = _parse_value(raw, schema[key].type, f"{name}.{key}", lineno)
        schema[key].check(f"{name}.{key}", out[key], lineno)
    for key, spec in schema.items():
        if key not in out:
            if spec.default is REQUIRED:
                raise ConfigError(f"{name}.{key} is required{context} in {scenario}")
            out[key] = spec.default
    return out


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration; raises ConfigError on any
    syntax error (with line number) or semantic violation (naming the key)."""
    sections = _read_sections(text)
    if "run" not in sections:
        raise ConfigError("missing [run] section")
    scenario = sections["run"].get("scenario", ("",))[0]
    if scenario not in SCENARIOS:
        raise ConfigError(
            f"unknown scenario {scenario!r}; valid scenarios: {', '.join(SCENARIOS)}")
    reads = SCENARIOS[scenario]
    for name in sections:
        if isinstance(reads.get(name), str):
            raise ConfigError(f"{scenario} takes no [{name}] section: {reads[name]}")
        if name not in reads:
            listed = ", ".join(f"[{n}]" for n, spec in reads.items() if not isinstance(spec, str))
            raise ConfigError(f"unknown section [{name}]: {scenario} reads {listed}")
    values = {name: _read_section(scenario, reads, name, sections.get(name))
              for name, spec in reads.items() if not isinstance(spec, str)}
    cfg = RunConfig(params=values.pop(scenario, {}), **values)
    validate_config(cfg)
    return cfg


def medium_params(medium: dict) -> MediumParams:
    """The MediumParams of a [medium] section, without a potential: chi3 or
    n2, alpha, isat, and length where the scenario reads it."""
    kwargs = dict(wavelength=medium["lambda"], n0=medium["n0"], alpha=medium["alpha"],
                  i_sat=medium["isat"])
    if "length" in medium:  # absent where the scenario sets the length of each run
        kwargs["length"] = medium["length"]
    if medium["chi3"] is None:
        return MediumParams.from_n2(n2=medium["n2"], **kwargs)
    return MediumParams(chi3=medium["chi3"], **kwargs)


def validate_config(cfg: RunConfig):
    """The rules that tie keys together. Each rule of `rules` gets the values
    its builder will get, the medium's scales included (from `medium`). The
    run's propagations are planned by plans.propagations, the function the
    run calls, which applies the rules on what the run steps. A ValueError
    becomes a ConfigError."""
    p, s = cfg.params, cfg.scenario
    if not cfg.run["csv"]:
        raise ConfigError("run.csv must be true: every run writes its CSV files")
    for key in ("nx", "ny"):
        if cfg.grid is not None and cfg.grid[key] % 2:
            raise ConfigError(f"grid.{key} must be even, got {cfg.grid[key]}")
    grid = cfg.grid and SimpleNamespace(**{**cfg.grid, "dy": cfg.grid["dy"] or cfg.grid["dx"]})
    if cfg.medium is not None and (cfg.medium["chi3"] is None) == (cfg.medium["n2"] is None):
        raise ConfigError("medium needs exactly one of chi3 or n2")
    medium = cfg.medium and medium_params(cfg.medium)
    if p.get("kind") == "imprint" and not len(p["charges"]) == len(p["xs"]) == len(p["ys"]):
        raise ConfigError("vortices charges/xs/ys must have equal lengths")
    source, potential = cfg.source or {}, cfg.potential or {}
    try:
        if source.get("kind") == "gaussian":
            rules.waist(source["waist"], grid)
        if source.get("kind") == "file":
            read_header(source["path"], grid)
        if source.get("kind") == "speckle":
            rules.resolved(source["correlation_length"], grid, "correlation_length")
        if potential.get("kind") == "gaussian_defect":
            rules.resolved(potential["width"], grid, "defect width")
        if potential.get("kind") == "lattice":
            rules.lattice_period(potential["period"], grid)
        plans.propagations(cfg, grid, medium)
        for charge, x, y in zip(p.get("charges", ()), p.get("xs", ()), p.get("ys", ())):
            rules.vortex(charge, x, y, grid)
        if s == "gem-efficiency-sweep":
            rules.swept(p["ratios"], "ratios")
            rules.schedule((p["flip_time"],), (), p["t_extent"])
            rules.gradient_phase(p["eta0"], p["z_extent"], p["t_extent"], p["nt"])
            rules.echo_windows(p["flip_time"], p["pulse_center"], p["pulse_width"], p["t_extent"])
            rules.pulses((p["pulse_center"],), (p["pulse_width"],), p["t_extent"])
            rules.nonzero_eta(p["eta0"])
        if s == "gem":
            pulses = len(p["pulse_centers"])
            if pulses != len(p["pulse_widths"]):
                raise ConfigError("gem.pulse_centers and pulse_widths must have equal lengths")
            windows = rules.coupling_windows(p["coupling_windows"])
            rules.schedule(p["flip_times"], windows, p["t_extent"])
            rules.gradient_phase(p["eta0"], p["z_extent"], p["t_extent"], p["nt"])
            rules.ordering(p["flip_times"], windows, p["pulse_centers"], p["pulse_widths"],
                           p["t_extent"])
            if p["pulse_labels"] and len(p["pulse_labels"]) != pulses:
                raise ConfigError("gem.pulse_labels needs one label per pulse or none")
            rules.pulses(p["pulse_centers"], p["pulse_widths"], p["t_extent"])
    except ValueError as exc:
        raise ConfigError(f"{s}: {exc}") from None
