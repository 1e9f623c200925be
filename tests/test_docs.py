import re
import warnings
from pathlib import Path

from pfl.config import SCENARIOS, Kinds, parse_config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs_resolved():
    # the README's Python API example runs as written, and its plan
    # resolves the phase per step (no "step size dz" warning)
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    with warnings.catch_warnings():
        warnings.filterwarnings("error", message="step size dz")
        exec(compile(blocks[0], str(README), "exec"), {})


def test_readme_ini_example_parses():
    blocks = re.findall(r"```ini\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    cfg = parse_config(blocks[0])
    assert (cfg.scenario, cfg.source["kind"]) == ("propagate", "gaussian")


def test_readme_scenario_table_lists_the_source_kinds_of_each_scenario():
    rows = re.findall(r"^\| (`.*?) \| (.*?) \| .*? \| (.*?) \|$", README.read_text(), re.M)
    listed = set()
    for names, flags, kinds in rows:
        for name in re.findall(r"`([a-z-]+)`", names):
            reads = SCENARIOS[name]
            source = reads.get("source")
            assert kinds == (", ".join(source.keys) if isinstance(source, Kinds) else "none")
            assert flags == ", ".join(key for key, spec in reads["run"].items()
                                      if spec.type == "bool" and f"run.{key}" not in reads)
            listed.add(name)
    assert listed == set(SCENARIOS)
