"""Run configuration: parsing, validation and canonical serialization.

Grammar (normative): the file is a sequence of lines. A line is blank, a
comment (first non-space character '#'), a section header '[name]', or a
binding 'key = value'. A trailing '# ...' comment is stripped from header
and binding lines, so '#' cannot appear inside a value. Keys and section
names are case-sensitive. Unknown sections and unknown keys are errors, as
are duplicate bindings.

Value syntax per declared type: int (no decimal point), float, bool
("true"/"false"), str (verbatim, trimmed), and comma-separated lists of
float/int/str.

parse -> serialize -> parse is the identity: serialization writes every
resolved key (defaults included) in a canonical order.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Any

REQUIRED = object()

SCENARIOS = (
    "propagate",
    "dispersion",
    "sound-scaling",
    "precondensation",
    "structure-factor",
    "vortices",
    "gem",
    "gem-efficiency-sweep",
    "fifo-filo",
)

# scenarios that propagate a transverse field and therefore need the
# grid/medium/plan/source sections
FIELD_SCENARIOS = SCENARIOS[:6]


# what a scenario sets itself, so that its config may not bind it: a whole
# section or a section.key, with what sets the value
_SET_BY_SCENARIO = {
    "sound-scaling": {
        "medium.length": "each density propagates over tau * z_nl of that density",
        "plan": "each density takes ceil(15 tau) steps, with a snapshot every "
                "max(1, n_steps // 50)",
    },
    "precondensation": {
        "medium.length": "each tau in tau_list propagates over tau * z_nl of the "
                         "source density",
    },
}


class ConfigError(Exception):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


@dataclass(frozen=True)
class Key:
    """Schema entry for one key: type, default (REQUIRED if mandatory)."""

    type: str
    default: Any = REQUIRED


_RUN = {
    "scenario": Key("str"),
    "seed": Key("int", 0),
    "out_dir": Key("str", ""),
    "snapshots": Key("bool", False),
    "csv": Key("bool", True),
    "pgm": Key("bool", False),
    "jobs": Key("int", 1),
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

_SOURCE = {
    "kind": Key("str"),  # gaussian | plane | speckle | file
    "waist": Key("float", None),
    "power": Key("float", None),
    "intensity": Key("float", None),
    "correlation_length": Key("float", None),
    "path": Key("str", ""),  # PFL1 snapshot, kind = file
}

_POTENTIAL = {
    "kind": Key("str"),
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

_SCENARIO_SCHEMAS: dict[str, dict[str, Key]] = {
    "propagate": {},
    "dispersion": {
        "k_perp_list": Key("floats"),
        "probe_waist": Key("float"),
        "power_ratio": Key("float", 1e-5),
    },
    "sound-scaling": {
        "intensities": Key("floats"),
        "tau": Key("float", 25.0),
        "k_perp_xi": Key("float", 0.2),
        "probe_waist_xi": Key("float", 10.0),
        "power_ratio": Key("float", 1e-5),
    },
    "precondensation": {
        "tau_list": Key("floats"),
        "realizations": Key("int", 4),
        "bins": Key("int", 64),
    },
    "structure-factor": {
        "realizations": Key("int", 200),
        "noise_amplitude": Key("float", 1e-3),
        "band_fraction": Key("float", 0.75),
        "nbins": Key("int", 24),
    },
    "vortices": {
        "mode": Key("str", "imprint"),  # imprint | stripe
        "charges": Key("ints", ()),
        "xs": Key("floats", ()),
        "ys": Key("floats", ()),
        "core_width": Key("float", None),
        "stripe_position": Key("float", 0.0),
        "stripe_angle": Key("float", 0.0),
        "stripe_contrast": Key("float", 1.0),
        "evolve": Key("bool", True),
    },
    "gem": {**_GEM, "decay": Key("float", 0.0), "pulse_labels": Key("strs", ())},
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
    "fifo-filo": {"mode": Key("str"), **_GEM, "nt": Key("int", 2400),
                  "pulse_labels": Key("strs", ("A", "B"))},
}

@dataclass
class RunConfig:
    scenario: str
    seed: int
    out_dir: str
    emit_snapshots: bool
    emit_csv: bool
    emit_pgm: bool
    jobs: int
    grid: dict | None
    medium: dict | None
    plan: dict | None
    source: dict | None
    potential: dict | None
    params: dict = dc_field(default_factory=dict)


def _parse_value(raw: str, kind: str, key: str, line: int):
    raw = raw.strip()
    try:
        if kind == "int":
            if any(c in raw for c in ".eE") and not raw.lstrip("+-").isdigit():
                raise ValueError
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            if raw.lower() in ("true", "false"):
                return raw.lower() == "true"
            raise ValueError
        if kind == "str":
            if not raw:
                raise ValueError
            return raw
        if kind == "floats":
            return tuple(float(p.strip()) for p in raw.split(",") if p.strip())
        if kind == "ints":
            return tuple(int(p.strip()) for p in raw.split(",") if p.strip())
        if kind == "strs":
            return tuple(p.strip() for p in raw.split(",") if p.strip())
    except ValueError:
        pass
    raise ConfigError(f"key {key!r}: cannot parse {raw!r} as {kind}", line)


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


def _apply_schema(section: str, bindings: dict[str, tuple[str, int]],
                  schema: dict[str, Key]) -> dict:
    out = {}
    for key, (raw, lineno) in bindings.items():
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} in section [{section}]", lineno)
        out[key] = _parse_value(raw, schema[key].type, f"{section}.{key}", lineno)
    for key, spec in schema.items():
        if key in out:
            continue
        if spec.default is REQUIRED:
            raise ConfigError(f"section [{section}] is missing required key {key!r}")
        out[key] = spec.default
    return out


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration; raises ConfigError on any
    syntax error (with line number) or semantic violation (naming the key)."""
    sections = _read_sections(text)
    if "run" not in sections:
        raise ConfigError("missing [run] section")
    run = _apply_schema("run", sections.pop("run"), _RUN)
    scenario = run["scenario"]
    if not scenario:
        raise ConfigError("scenario required")
    if scenario not in SCENARIOS:
        raise ConfigError(
            f"unknown scenario {scenario!r}; valid scenarios: {', '.join(SCENARIOS)}")

    needs_field = scenario in FIELD_SCENARIOS
    grid = medium = plan = source = potential = None
    set_by_scenario = _SET_BY_SCENARIO.get(scenario, {})
    for name, what in set_by_scenario.items():
        section, _, key = name.partition(".")
        if key in sections.get(section, {}):
            raise ConfigError(f"{scenario} takes no {name}: {what}", sections[section][key][1])
        if not key and section in sections:
            raise ConfigError(f"{scenario} takes no [{section}] section: {what}")
    if needs_field:
        for name in ("grid", "medium", "plan"):
            if name not in sections and name not in set_by_scenario:
                raise ConfigError(f"scenario {scenario!r} requires a [{name}] section")
        grid = _apply_schema("grid", sections.pop("grid"), _GRID)
        medium_schema = _MEDIUM
        if "medium.length" in set_by_scenario:
            medium_schema = {**_MEDIUM, "length": Key("float", None)}
        medium = _apply_schema("medium", sections.pop("medium"), medium_schema)
        if "plan" not in set_by_scenario:
            plan = _apply_schema("plan", sections.pop("plan"), _PLAN)
        if "source" in sections:
            source = _apply_schema("source", sections.pop("source"), _SOURCE)
        if "potential" in sections:
            potential = _apply_schema("potential", sections.pop("potential"), _POTENTIAL)
    schema = _SCENARIO_SCHEMAS[scenario]
    params = {}
    if scenario in sections:
        params = _apply_schema(scenario, sections.pop(scenario), schema)
    else:
        params = _apply_schema(scenario, {}, schema)
    if sections:
        name = next(iter(sections))
        raise ConfigError(f"unknown section [{name}]")

    cfg = RunConfig(
        scenario=scenario, seed=run["seed"], out_dir=run["out_dir"],
        emit_snapshots=run["snapshots"], emit_csv=run["csv"], emit_pgm=run["pgm"],
        jobs=run["jobs"], grid=grid, medium=medium, plan=plan, source=source,
        potential=potential, params=params,
    )
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig):
    """Check physical parameters against module preconditions up front."""
    if cfg.jobs < 1:
        raise ConfigError("run.jobs must be at least 1")
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
        if m["length"] is not None and m["length"] < 0:
            raise ConfigError("medium.length must be non-negative")
        if (m["chi3"] is None) == (m["n2"] is None):
            raise ConfigError("medium needs exactly one of chi3 or n2")
        if m["isat"] is not None and m["isat"] <= 0:
            raise ConfigError("medium.isat must be positive when given")
    if cfg.plan is not None:
        if cfg.plan["n_steps"] < 0:
            raise ConfigError("plan.n_steps must be non-negative")
        if cfg.plan["snapshot_every"] < 0:
            raise ConfigError("plan.snapshot_every must be non-negative")
    if cfg.source is not None:
        kind = cfg.source["kind"]
        if kind not in ("gaussian", "plane", "speckle", "file"):
            raise ConfigError(
                f"source.kind must be gaussian, plane, speckle or file, got {kind!r}")
        needed = {"gaussian": ("waist", "power"), "plane": ("intensity",),
                  "speckle": ("correlation_length", "intensity"),
                  "file": ("path",)}[kind]
        for key in needed:
            if cfg.source[key] in (None, ""):
                raise ConfigError(f"source.{key} is required for kind {kind!r}")
    if cfg.potential is not None:
        kind = cfg.potential["kind"]
        needed = {"uniform": (), "gaussian_defect": ("width",), "lattice": ("period",)}
        if kind not in needed:
            raise ConfigError(
                f"potential.kind must be uniform, gaussian_defect or lattice, got {kind!r}")
        for key in needed[kind]:
            if cfg.potential[key] is None:
                raise ConfigError(f"potential.{key} is required for kind {kind!r}")
    _validate_scenario_params(cfg)


def _validate_scenario_params(cfg: RunConfig):
    p = cfg.params
    s = cfg.scenario
    if s == "dispersion":
        if len(p["k_perp_list"]) < 5:
            raise ConfigError("dispersion.k_perp_list needs at least 5 values")
        if p["probe_waist"] <= 0:
            raise ConfigError("dispersion.probe_waist must be positive")
        if cfg.plan is not None and cfg.plan["snapshot_every"] <= 0:
            raise ConfigError("dispersion requires plan.snapshot_every > 0 "
                              "to track the probe packet")
        # the probe rides a homogeneous fluid (see measure_group_velocity)
        if cfg.source is None or cfg.source["kind"] != "plane":
            raise ConfigError("dispersion needs a [source] of kind 'plane': the "
                              "background must be a homogeneous fluid")
        if cfg.potential is not None:
            raise ConfigError("dispersion takes no [potential] section: the "
                              "background must be a homogeneous fluid")
    elif s == "sound-scaling":
        if len(p["intensities"]) < 4:
            raise ConfigError("sound-scaling.intensities needs at least 4 values")
        if cfg.potential is not None:
            raise ConfigError("sound-scaling takes no [potential] section: the "
                              "background must be a homogeneous fluid")
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
    elif s == "vortices":
        if p["mode"] not in ("imprint", "stripe"):
            raise ConfigError("vortices.mode must be imprint or stripe")
        if p["mode"] == "imprint":
            if not (len(p["charges"]) == len(p["xs"]) == len(p["ys"])):
                raise ConfigError("vortices charges/xs/ys must have equal lengths")
            if not p["charges"]:
                raise ConfigError("vortices.charges must not be empty in imprint mode")
        if not 0 <= p["stripe_contrast"] <= 1:
            raise ConfigError("vortices.stripe_contrast must lie in [0, 1]")
    elif s in ("gem", "fifo-filo"):
        if len(p["pulse_centers"]) != len(p["pulse_widths"]):
            raise ConfigError(f"{s}.pulse_centers and pulse_widths must have equal lengths")
        if len(p["coupling_windows"]) % 2:
            raise ConfigError(f"{s}.coupling_windows must list (on, off) pairs")
        if s == "fifo-filo":
            mode = p["mode"].upper()
            if mode not in ("FIFO", "FILO"):
                raise ConfigError("fifo-filo.mode must be FIFO or FILO")
            # the flips and coupling windows each mode needs (gem.fifo_filo_experiment)
            flips, windows = len(p["flip_times"]), len(p["coupling_windows"])
            if mode == "FILO" and (flips != 1 or windows):
                raise ConfigError("fifo-filo mode FILO needs exactly one flip_times "
                                  "value and no coupling_windows")
            if mode == "FIFO" and (flips != 2 or not windows):
                raise ConfigError("fifo-filo mode FIFO needs two flip_times values "
                                  "and at least one coupling_windows pair")
    elif s == "gem-efficiency-sweep":
        if not p["ratios"]:
            raise ConfigError("gem-efficiency-sweep.ratios must not be empty")


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; parse(serialize(cfg)) equals cfg."""
    lines: list[str] = []

    def emit(section: str, data: dict, schema: dict[str, Key]):
        lines.append(f"[{section}]")
        for key, spec in schema.items():
            value = data[key]
            if value is None or (spec.type == "str" and value == ""):
                continue
            lines.append(f"{key} = {_format_value(value, spec.type)}")
        lines.append("")

    emit("run", {
        "scenario": cfg.scenario, "seed": cfg.seed, "out_dir": cfg.out_dir,
        "snapshots": cfg.emit_snapshots, "csv": cfg.emit_csv, "pgm": cfg.emit_pgm,
        "jobs": cfg.jobs,
    }, _RUN)
    if cfg.grid is not None:
        emit("grid", cfg.grid, _GRID)
    if cfg.medium is not None:
        emit("medium", cfg.medium, _MEDIUM)
    if cfg.plan is not None:
        emit("plan", cfg.plan, _PLAN)
    if cfg.source is not None:
        emit("source", cfg.source, _SOURCE)
    if cfg.potential is not None:
        emit("potential", cfg.potential, _POTENTIAL)
    schema = _SCENARIO_SCHEMAS[cfg.scenario]
    if schema:
        emit(cfg.scenario, cfg.params, schema)
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
