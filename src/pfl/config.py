"""Run configuration: parsing, validation and canonical serialization.

Grammar (normative): the file is a sequence of lines. A line is blank, a
comment (first non-space character '#'), a section header '[name]', or a
binding 'key = value'. A trailing '# ...' comment is stripped from header
and binding lines, so '#' cannot appear inside a value. Keys and section
names are case-sensitive. A section or key the scenario does not read is
an error, as are duplicate bindings.

Value syntax per declared type: int (no decimal point), float (finite),
bool ("true"/"false"), str (verbatim, trimmed), and comma-separated lists
of float/int/str.

parse -> serialize -> parse is the identity: serialization writes every
resolved key (defaults included) in a canonical order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Any

REQUIRED = object()


class ConfigError(Exception):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


@dataclass(frozen=True)
class Key:
    """Schema entry for one key: type, default (REQUIRED if mandatory)."""

    type: str
    default: Any = REQUIRED


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


_RUN = {
    "scenario": Key("str"),
    "seed": Key("int", 0),
    "snapshots": Key("bool", False),
    "csv": Key("bool", True),
    "pgm": Key("bool", False),
}

_GRID = {
    "nx": Key("int"),
    "ny": Key("int"),
    "dx": Key("float"),
    "dy": Key("float", None),
}

_MEDIUM = {
    "lambda": Key("float"),
    "n0": Key("float"),
    "chi3": Key("float", None),
    "n2": Key("float", None),
    "alpha": Key("float", 0.0),
    "length": Key("float"),
    "isat": Key("float", None),
}

_PLAN = {
    "n_steps": Key("int"),
    "snapshot_every": Key("int", 0),
}

_SOURCE = Kinds({
    "gaussian": {"waist": Key("float"), "power": Key("float")},
    "plane": {"intensity": Key("float")},
    "speckle": {"intensity": Key("float"), "correlation_length": Key("float")},
    "file": {"path": Key("str")},  # a PFL1 snapshot
})

_POTENTIAL_KEYS = {
    "value_re": Key("float", 0.0),
    "value_im": Key("float", 0.0),
    "amplitude_re": Key("float", 0.0),
    "amplitude_im": Key("float", 0.0),
    "width": Key("float", None),
    "center_x": Key("float", 0.0),
    "center_y": Key("float", 0.0),
    "period": Key("float", None),
    "orientation": Key("float", 0.0),
    "pt_symmetrize": Key("bool", False),
}

_POTENTIAL = Kinds({
    "uniform": _POTENTIAL_KEYS,
    "gaussian_defect": {**_POTENTIAL_KEYS, "width": Key("float")},
    "lattice": {**_POTENTIAL_KEYS, "period": Key("float")},
}, optional=True)

# the memory and its schedule, shared by the gem and fifo-filo scenarios
_GEM = {
    "g": Key("float"),
    "density": Key("float"),
    "eta0": Key("float"),
    "z_extent": Key("float", 2.0),
    "nz": Key("int", 256),
    "t_extent": Key("float"),
    "nt": Key("int", 1600),
    "flip_times": Key("floats"),
    "coupling_windows": Key("floats", ()),
    "pulse_centers": Key("floats"),
    "pulse_widths": Key("floats"),
}

# the [run] entries of a scenario that writes snapshots, an image and CSV
# files; the CLI sets the worker count and the output directory
_RUN_SNAPSHOTS = {"run": _RUN, "run.jobs": "use --jobs for the FFT worker count",
                  "run.out_dir": "use --out or $PFL_OUT for the output directory"}
_RUN_IMAGE = {**_RUN_SNAPSHOTS, "run.snapshots": "only propagate writes snapshots"}
_RUN_CSV = {**_RUN_IMAGE, "run.pgm": "only propagate, vortices and gem write an image"}
_FIELD = {"grid": _GRID, "medium": _MEDIUM, "plan": _PLAN}
_HOMOGENEOUS = "the background must be a homogeneous fluid"
_FINAL_FIELDS = "only the final field is read"

# Every section each scenario reads, in serialization order: its keys, or
# for a Kinds section the keys of each kind it takes. A string entry names
# a section or a 'section.key' the scenario does not read and says why; a
# 'section.key' entry takes that key out of its section. Any section or key
# the table does not give a scenario is an error.
SCENARIOS: dict[str, dict[str, Any]] = {
    "propagate": {**_RUN_SNAPSHOTS, **_FIELD, "source": _SOURCE, "potential": _POTENTIAL},
    "dispersion": {
        **_RUN_CSV,
        **_FIELD,
        "source": _SOURCE.only("plane", why=_HOMOGENEOUS),
        "potential": _HOMOGENEOUS,
        "dispersion": {
            "k_perp_list": Key("floats"),
            "probe_waist": Key("float"),
            "power_ratio": Key("float", 1e-5),
        },
    },
    "sound-scaling": {
        **_RUN_CSV,
        **_FIELD,
        "medium.length": "each density propagates over tau * z_nl of that density",
        "plan": "each density takes ceil(15 tau) steps, with a snapshot every "
                "max(1, n_steps // 50)",
        "source": "each background is a plane wave at one of sound-scaling.intensities",
        "potential": _HOMOGENEOUS,
        "sound-scaling": {
            "intensities": Key("floats"),
            "tau": Key("float", 25.0),
            "k_perp_xi": Key("float", 0.2),
            "probe_waist_xi": Key("float", 10.0),
            "power_ratio": Key("float", 1e-5),
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
            "tau_list": Key("floats"),
            "realizations": Key("int", 4),
            "bins": Key("int", 64),
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
            "realizations": Key("int", 200),
            "noise_amplitude": Key("float", 1e-3),
            "band_fraction": Key("float", 0.75),
            "nbins": Key("int", 24),
        },
    },
    "vortices": {
        **_RUN_IMAGE,
        **_FIELD,
        "plan.snapshot_every": _FINAL_FIELDS,
        "source": _SOURCE,
        "potential": _POTENTIAL,
        "vortices": Kinds({
            "imprint": {"charges": Key("ints"), "xs": Key("floats"), "ys": Key("floats"),
                        "core_width": Key("float", None)},
            "stripe": {"stripe_position": Key("float", 0.0), "stripe_angle": Key("float", 0.0),
                       "stripe_contrast": Key("float", 1.0)},
        }),
        "vortices.evolve": "set plan.n_steps = 0 for no evolution",
    },
    "gem": {**_RUN_IMAGE,
            "gem": {**_GEM, "decay": Key("float", 0.0), "pulse_labels": Key("strs", ())}},
    "gem-efficiency-sweep": {
        **_RUN_CSV,
        "gem-efficiency-sweep": {
            "ratios": Key("floats"),
            "eta0": Key("float", 20.0),
            "z_extent": Key("float", 2.0),
            "nz": Key("int", 256),
            "t_extent": Key("float", 8.0),
            "nt": Key("int", 1600),
            "flip_time": Key("float", 3.0),
            "pulse_center": Key("float", 1.5),
            "pulse_width": Key("float", 0.18),
        },
    },
    "fifo-filo": {
        **_RUN_CSV,
        "fifo-filo": {**_GEM, "nt": Key("int", 2400), "pulse_labels": Key("strs", ("A", "B"))},
        "fifo-filo.mode": "the schedule sets it: one flip and no coupling windows is FILO, "
                          "two flips and at least one window FIFO",
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
        schema, context = {"kind": Key("str"), **schema.keys[kind]}, f" for kind {kind!r}"
    schema = {key: spec for key, spec in schema.items() if f"{name}.{key}" not in reads}
    out = {}
    for key, (raw, lineno) in (bindings or {}).items():
        if key not in schema:
            why = reads.get(f"{name}.{key}")
            # a key the scenario takes out is rejected for its reason, whatever the kind
            raise ConfigError(f"{scenario} takes no {name}.{key}"
                              + (f": {why}" if why else context), lineno)
        out[key] = _parse_value(raw, schema[key].type, f"{name}.{key}", lineno)
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


def validate_config(cfg: RunConfig):
    """Check physical parameters against module preconditions up front."""
    if cfg.grid is not None:
        g = cfg.grid
        for key in ("nx", "ny"):
            if g[key] < 8 or g[key] % 2:
                raise ConfigError(f"grid.{key} must be even and at least 8, got {g[key]}")
        if g["dx"] <= 0 or (g["dy"] is not None and g["dy"] <= 0):
            raise ConfigError("grid.dx and grid.dy must be positive")
    if cfg.medium is not None:
        m = cfg.medium
        if m["lambda"] <= 0:
            raise ConfigError(f"medium.lambda must be positive, got {m['lambda']}")
        if m["n0"] <= 0:
            raise ConfigError(f"medium.n0 must be positive, got {m['n0']}")
        if m.get("length", 0.0) < 0:
            raise ConfigError("medium.length must be non-negative")
        if (m["chi3"] is None) == (m["n2"] is None):
            raise ConfigError("medium needs exactly one of chi3 or n2")
        if m["isat"] is not None and m["isat"] <= 0:
            raise ConfigError("medium.isat must be positive when given")
    for key, value in (cfg.plan or {}).items():
        if value < 0:
            raise ConfigError(f"plan.{key} must be non-negative")
    _validate_scenario_params(cfg)


def _validate_scenario_params(cfg: RunConfig):
    p = cfg.params
    s = cfg.scenario
    if s == "dispersion":
        if len(p["k_perp_list"]) < 5:
            raise ConfigError("dispersion.k_perp_list needs at least 5 values")
        if p["probe_waist"] <= 0:
            raise ConfigError("dispersion.probe_waist must be positive")
        if cfg.plan["snapshot_every"] <= 0:
            raise ConfigError("dispersion requires plan.snapshot_every > 0 "
                              "to track the probe packet")
    elif s == "sound-scaling":
        if len(p["intensities"]) < 4:
            raise ConfigError("sound-scaling.intensities needs at least 4 values")
    elif s == "precondensation":
        if not p["tau_list"]:
            raise ConfigError("precondensation.tau_list must not be empty")
        if p["realizations"] < 1:
            raise ConfigError("precondensation.realizations must be at least 1")
    elif s == "structure-factor":
        if p["realizations"] < 2:
            raise ConfigError("structure-factor.realizations must be at least 2")
        if not 0 < p["band_fraction"] <= 1:
            raise ConfigError("structure-factor.band_fraction must lie in (0, 1]")
    elif s == "vortices" and p["kind"] == "imprint":
        if not (len(p["charges"]) == len(p["xs"]) == len(p["ys"])):
            raise ConfigError("vortices charges/xs/ys must have equal lengths")
        if not p["charges"]:
            raise ConfigError("vortices.charges must not be empty")
    elif s == "vortices":
        if not 0 <= p["stripe_contrast"] <= 1:
            raise ConfigError("vortices.stripe_contrast must lie in [0, 1]")
    elif s in ("gem", "fifo-filo"):
        pulses = len(p["pulse_centers"])
        if pulses != len(p["pulse_widths"]):
            raise ConfigError(f"{s}.pulse_centers and pulse_widths must have equal lengths")
        if s == "fifo-filo" and pulses != 2:
            raise ConfigError(f"fifo-filo needs exactly two pulses, got {pulses}")
        if p["pulse_labels"] and len(p["pulse_labels"]) != pulses:
            raise ConfigError(f"{s}.pulse_labels needs one label per pulse or none")
        if len(p["coupling_windows"]) % 2:
            raise ConfigError(f"{s}.coupling_windows must list (on, off) pairs")
        # the schedules of the two modes (gem.fifo_filo_experiment)
        shape = (len(p["flip_times"]), bool(p["coupling_windows"]))
        if s == "fifo-filo" and shape not in ((1, False), (2, True)):
            raise ConfigError("fifo-filo needs one flip_times value and no coupling_windows "
                              "(FILO), or two flip_times values and at least one "
                              "coupling_windows pair (FIFO)")
    elif s == "gem-efficiency-sweep":
        if not p["ratios"]:
            raise ConfigError("gem-efficiency-sweep.ratios must not be empty")


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; parse(serialize(cfg)) equals cfg."""
    values = {**vars(cfg), cfg.scenario: cfg.params}
    lines: list[str] = []
    for name, schema in SCENARIOS[cfg.scenario].items():
        data = values.get(name)
        if isinstance(schema, str) or data is None:
            continue
        if isinstance(schema, Kinds):
            schema = {"kind": Key("str"), **schema.keys[data["kind"]]}
        lines.append(f"[{name}]")
        for key, spec in schema.items():
            value = data.get(key)
            if value is None:
                continue
            lines.append(f"{key} = {_format_value(value, spec.type)}")
        lines.append("")
    return "\n".join(lines)


def _format_value(value, kind: str) -> str:
    from .fileio import fmt
    if kind == "bool":
        return "true" if value else "false"
    if kind == "int":
        return str(int(value))
    if kind == "float":
        return fmt(float(value))
    if kind == "str":
        return str(value)
    if kind in ("floats", "ints", "strs"):
        if kind == "floats":
            return ", ".join(fmt(float(v)) for v in value)
        return ", ".join(str(v) for v in value)
    raise ValueError(f"unhandled kind {kind}")
