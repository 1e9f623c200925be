"""Run one `pfl` CLI command in-process with a span around every call into a
public function of a `pfl` module.

    python3 perfbench/tracer.py SPANS.json <pfl arguments...>

Each public module-level function of every `pfl` submodule, and each public
method of `fileio.ArtifactWriter`, is replaced by a wrapper. Modules bind
each other's functions with `from .x import f`, so the wrapper is installed
under every name in every `pfl` module that refers to the original. Spans
are kept in memory and written once, after the command returns, as
`[name, start_s, end_s, parent_index, count]` rows; `count` is the number
of steps of a `solver.propagate` call and 0 otherwise. Exits with the
command's code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time

import pfl
import pfl.cli


def _propagate_steps(args, kwargs) -> int:
    """n_steps of the plan passed to propagate; 0 when the call differs."""
    plan = kwargs.get("plan", args[2] if len(args) > 2 else None)
    return getattr(plan, "n_steps", 0)


# work counts taken from the arguments of the calls that do the stepping
_COUNTS = {"solver.propagate": _propagate_steps}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn):
        count = _COUNTS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            span = [name, clock(), 0.0, parent, count(args, kwargs) if count else 0]
            self.spans.append(span)
            self.stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                self.stack.pop()

        return wrapper

    def install(self, package) -> None:
        modules = [importlib.import_module(f"{package.__name__}.{info.name}")
                   for info in pkgutil.iter_modules(package.__path__)]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, fn in inspect.getmembers(mod, inspect.isfunction):
                if fn.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[fn] = self.wrap(f"{short}.{attr}", fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
        writer = importlib.import_module(f"{package.__name__}.fileio").ArtifactWriter
        for attr, fn in list(vars(writer).items()):
            if inspect.isfunction(fn) and not attr.startswith("_"):
                setattr(writer, attr, self.wrap(f"fileio.ArtifactWriter.{attr}", fn))


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install(pfl)
    code = pfl.cli.main(cli_args)
    with open(spans_path, "w") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
