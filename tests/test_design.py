"""Design lint: the library's defaulted function parameters are a committed
list, so a default added for one caller (or for the tests alone) shows up
as a failing test that names it, and one removed shows up as a stale entry.

Counted over ``src/sonatasim/*.py`` by the AST: every positional or keyword
parameter with a default, of every ``def`` (methods included, lambdas not).
A change that adds or removes one edits :data:`DEFAULTED` and says why.
"""

import ast
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sonatasim"

DEFAULTED = {
    "accel.tune(delta)",
    "accel.tune(T)",
    "accel.tune(K_max)",
    "accel.acc_sonata_run(observer)",
    "accel.acc_sonata_run(gap_fn)",
    "accel.acc_sonata_run(target_gap)",
    "cli._merge(path)",
    "cli._check_values(path)",
    "cli._json(indent)",
    "cli.main(argv)",
    "datagen.load_libsvm(loss)",
    "datagen.load_libsvm(lam)",
    "datagen.load_libsvm(limit)",
    "datagen.load_libsvm(seed)",
    "diagnostics.centralized_solve(delta)",
    "diagnostics.centralized_solve(Z)",
    "problems.ProblemSpec.__init__(A)",
    "problems.ProblemSpec.__init__(b)",
    "problems.ProblemSpec.__init__(reg)",
    "problems.ProblemSpec.__init__(meta)",
    "problems.ProblemSpec.__init__(n)",
    "problems.ProblemSpec.__init__(stats)",
    "problems.ProblemSpec.__init__(rows)",
}


def _defaulted(node, prefix):
    """'prefix.name(param)' of each defaulted parameter of every def in node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _defaulted(child, f"{prefix}.{child.name}")
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = child.args
            positional = a.posonlyargs + a.args
            with_default = positional[len(positional) - len(a.defaults) :]
            with_default += [arg for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            for arg in with_default:
                yield f"{prefix}.{child.name}({arg.arg})"
            yield from _defaulted(child, f"{prefix}.{child.name}")
        else:
            yield from _defaulted(child, prefix)


def defaulted_parameters() -> list[str]:
    out = []
    for path in sorted(SRC.glob("*.py")):
        out += _defaulted(ast.parse(path.read_text()), path.stem)
    return out


def test_defaulted_parameters_are_the_committed_list():
    found = defaulted_parameters()
    assert len(found) == len(set(found))
    added, removed = sorted(set(found) - DEFAULTED), sorted(DEFAULTED - set(found))
    assert not added and not removed, f"added: {added}; removed: {removed}"
    assert len(DEFAULTED) == 23


def test_a_failing_property_test_does_not_abort_the_session(tmp_path):
    # under the repo's filterwarnings = ["error"], hypothesis's report hook on
    # a failing @given test raised a DeprecationWarning from mypy_extensions,
    # and the session stopped with INTERNALERROR before running the next test
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "test_two.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert False\n"
        "\n"
        "def test_passes():\n"
        "    pass\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_two.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
