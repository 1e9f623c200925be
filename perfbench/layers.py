"""Per-layer metrics from the spans of one traced run (tracer.py) and the
kernel microbenchmarks (kernels.py).

A span's self time is its duration minus the time its child spans cover.
A layer's time inside a span is its self time plus, recursively, that of
children in the same module, so time spent in another module's functions
is charged to that module. A layer that does not run on a workload reads 0.
"""

from __future__ import annotations

import statistics

# the kernel microbenchmark figures passed through, and their units, by
# name prefix
KERNEL_UNITS = {"grid.fft_pair_ms.": "ms", "solver.kick_ms.": "ms",
                "solver.step_ms.": "ms", "grid.fft_gflops_computed.": "GFLOP/s",
                "solver.step_bytes_computed.": "B", "gem.step_us": "us",
                "gem.measure_s": "s"}


class Spans:
    def __init__(self, rows: list[list]):
        self.name = [r[0] for r in rows]
        self.dur = [r[2] - r[1] for r in rows]
        self.parent = [r[3] for r in rows]
        self.count = [r[4] for r in rows]
        self.children: list[list[int]] = [[] for _ in rows]
        for i, p in enumerate(self.parent):
            if p >= 0:
                self.children[p].append(i)

    def module(self, i: int) -> str:
        return self.name[i].partition(".")[0]

    def named(self, name: str) -> list[int]:
        return [i for i, n in enumerate(self.name) if n == name]

    def total(self, name: str) -> float:
        return sum(self.dur[i] for i in self.named(name))

    def own(self, i: int) -> float:
        """Time of span i charged to its own module."""
        t = self.dur[i]
        for c in self.children[i]:
            t -= self.dur[c]
            if self.module(c) == self.module(i):
                t += self.own(c)
        return t

    def outermost(self, module: str) -> list[int]:
        """Spans of a module whose parent is not in that module."""
        return [i for i in range(len(self.name)) if self.module(i) == module
                and (self.parent[i] < 0 or self.module(self.parent[i]) != module)]


def _p95(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=20)[18]


def layer_metrics(rows: list[list], kernels: dict[str, float]) -> dict[str, tuple]:
    s = Spans(rows)
    m: dict[str, tuple] = {}

    props = s.named("solver.propagate")
    per_step = [1e3 * s.dur[i] / s.count[i] for i in props if s.count[i] > 0]
    pair = kernels.get("grid.fft_pair_ms", 0.0)
    kick = kernels.get("solver.kick_ms", 0.0)
    step = statistics.median(per_step) if per_step else 0.0
    m["grid.fft_pair_ms"] = (pair, "ms")
    m["solver.kick_ms"] = (kick, "ms")
    m["solver.step_ms"] = (step, "ms")
    m["solver.step_ms_p95"] = (_p95(per_step) if per_step else 0.0, "ms")
    m["solver.overhead_ms"] = (step - pair - kick if per_step else 0.0, "ms")
    m["solver.propagate_calls"] = (len(props), "count")
    m["solver.propagate_s"] = (s.total("solver.propagate"), "s")

    probes = s.named("dispersion.measure_group_velocity")
    m["dispersion.track_s"] = (sum(s.own(i) for i in probes), "s")
    m["dispersion.fit_s"] = (s.total("dispersion.dispersion_from_group_velocity"), "s")
    m["dispersion.propagations_per_probe"] = (
        len(props) / len(probes) if probes else 0.0, "ratio")

    m["stats.structure_factor_s"] = (s.total("stats.structure_factor"), "s")
    m["scenarios.self_s"] = (sum(s.own(i) for i in s.outermost("scenarios")), "s")

    manifest = "fileio.ArtifactWriter.write_manifest"
    m["fileio.write_s"] = (sum(s.dur[i] for i in s.outermost("fileio")
                               if s.name[i] != manifest), "s")
    m["fileio.manifest_s"] = (s.total(manifest), "s")
    m["config.parse_s"] = (s.total("config.parse_config"), "s")
    m["sources.build_s"] = (sum(s.dur[i] for i in s.outermost("sources")), "s")

    for name, value in kernels.items():
        for prefix, unit in KERNEL_UNITS.items():
            if name.startswith(prefix):
                m[name] = (value, unit)
    return m
