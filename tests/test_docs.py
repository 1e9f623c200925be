import re
import warnings
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs_resolved():
    # the README's Python API example runs as written, and its plan
    # resolves the phase per step (no "step size dz" warning)
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    with warnings.catch_warnings():
        warnings.filterwarnings("error", message="step size dz")
        exec(compile(blocks[0], str(README), "exec"), {})
