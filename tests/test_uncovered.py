"""tools/uncovered.py: the statements a traced call never reaches, on a small
module with one branch never taken."""
import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "uncovered", Path(__file__).resolve().parents[1] / "tools" / "uncovered.py")
uncovered = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(uncovered)

SAMPLE = '''"""Module docstring."""
import math

LIMIT = 2.0


def sign(x):
    """Docstring."""
    if x > 0:
        return 1.0
    y = math.copysign(1.0, x)
    return y


class Box:
    def unused(self):
        return LIMIT


if __name__ == "__main__":
    print(sign(2.0))
'''


def _load(path):
    spec = importlib.util.spec_from_file_location("sample_module", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_statements_skip_definitions_imports_and_docstrings():
    # the __main__ test at line 20 runs at import; its body only in a script
    assert uncovered.statements(SAMPLE) == [4, 9, 10, 11, 12, 17, 20]


def test_branch_never_taken_is_listed(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    # the module runs under the tracer, so its top level counts as reached
    module, hits = uncovered.traced(tmp_path, _load, path)
    result, more = uncovered.traced(tmp_path, module.sign, 3.0)
    assert result == 1.0
    missed = uncovered.uncovered(tmp_path, hits | more)
    assert [(p.name, line, text) for p, line, text in missed] == [
        ("sample.py", 11, "y = math.copysign(1.0, x)"),
        ("sample.py", 12, "return y"),
        ("sample.py", 17, "return LIMIT"),
    ]


def test_frames_outside_root_not_traced(tmp_path):
    inner = tmp_path / "inner"
    inner.mkdir()
    (tmp_path / "outside.py").write_text(SAMPLE)
    module = _load(tmp_path / "outside.py")
    _, hits = uncovered.traced(inner, module.sign, -1.0)
    assert hits == set()
