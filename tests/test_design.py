"""Design lint: the library's defaulted function parameters and settable
fields are committed lists, so a default or a field added for one caller
(or for the tests alone) shows up as a failing test that names it, and one
removed shows up as a stale entry.

Counted over ``src/sonatasim/*.py`` by the AST: every positional or keyword
parameter with a default, of every ``def`` (methods included, lambdas not),
and every init field of every dataclass and NamedTuple (an annotated class
attribute that is not ``field(init=False)``).  A change that adds or
removes one edits :data:`DEFAULTED` or :data:`FIELDS` and says why.

Every public function in ``src/sonatasim/*.py`` is referenced somewhere
else in ``src/``, by name or attribute, and every public method by
attribute, so that no library code exists for the tests alone;
:data:`UNCALLED` lists the exceptions, each with its reason.

Every module constant that README.md quotes as a backticked
``[module.]NAME = value`` holds that value, so a constant changed in the
code and not in the README fails by name.
"""

import ast
import collections
import dataclasses
import importlib
import re
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
    assert len(DEFAULTED) == 22


FIELDS = {
    "accel.AccelParams": ("mode", "delta", "T", "mu", "weight", "K_max"),
    "accel.AccelResult": ("K_done", "comms", "converged", "gaps", "subproblem_converged"),
    "datagen.SyntheticRidgeConfig": ("m", "n", "d", "mu0", "L0", "lam", "noise_std", "seed"),
    "diagnostics.Oracle": ("x_star", "u_star", "objective"),
    "diagnostics.TrajRow": (
        "k", "t", "comms", "gap", "consensus_err", "tracking_err", "g_plus_e", "P_k",
    ),
    "diagnostics.Trajectory": ("rows",),
    "network.Graph": ("m", "edges"),
    "network.GossipMatrix": ("W", "rounds_per_application"),
    "network.ChebyshevGossip": ("base", "M"),
    "problems.Regularizer": ("kind", "weight", "lo", "hi"),
    "problems.GramStats": ("H", "h", "b_sq"),
    "problems.ProblemSpec": ("loss_kind", "lam", "reg", "n", "stats", "rows"),
    "problems.Loss": ("value_into", "deriv", "cap", "ridge", "exact"),
    "problems.Curvature": ("H_bar", "H_bar_min", "H_bar_max", "lmax", "beta"),
    "problems.Constants": ("mu_hat", "L_hat", "Lmx_hat", "beta_hat"),
    "sonata.SonataState": ("X", "Y", "G", "grads", "comms"),
}


def _name(node) -> str | None:
    """The last name of a Name, an Attribute or a Call of either."""
    node = node.func if isinstance(node, ast.Call) else node
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _init_false(value) -> bool:
    return (
        isinstance(value, ast.Call)
        and _name(value) == "field"
        and any(
            kw.arg == "init" and isinstance(kw.value, ast.Constant) and kw.value.value is False
            for kw in value.keywords
        )
    )


def _settable(node, prefix):
    """('prefix.Class', init field names) of every dataclass and NamedTuple in node."""
    for child in ast.walk(node):
        if not isinstance(child, ast.ClassDef):
            continue
        if not (
            any(_name(d) == "dataclass" for d in child.decorator_list)
            or any(_name(b) == "NamedTuple" for b in child.bases)
        ):
            continue
        yield f"{prefix}.{child.name}", tuple(
            stmt.target.id
            for stmt in child.body
            if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and _name(stmt.annotation) != "ClassVar"
            and not _init_false(stmt.value)
        )


def settable_fields() -> dict[str, tuple]:
    out = {}
    for path in sorted(SRC.glob("*.py")):
        out.update(_settable(ast.parse(path.read_text()), path.stem))
    return out


def test_settable_fields_are_the_committed_set():
    found = settable_fields()
    added = sorted(
        f"{cls}.{name}" for cls, names in found.items() for name in names
        if name not in FIELDS.get(cls, ())
    )
    removed = sorted(
        f"{cls}.{name}" for cls, names in FIELDS.items() for name in names
        if name not in found.get(cls, ())
    )
    assert not added and not removed, f"added: {added}; removed: {removed}"
    assert found == FIELDS  # the order too: it is the positional signature


def test_the_ast_count_matches_the_classes():
    # a class or field the AST misses (a decorator spelled another way, say)
    # would leave the committed set blind to it
    runtime = {}
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"sonatasim.{path.stem}".removesuffix(".__init__"))
        for name, obj in vars(module).items():
            if not (isinstance(obj, type) and obj.__module__ == module.__name__):
                continue
            if dataclasses.is_dataclass(obj):
                runtime[f"{path.stem}.{name}"] = tuple(
                    f.name for f in dataclasses.fields(obj) if f.init
                )
            elif issubclass(obj, tuple) and hasattr(obj, "_fields"):
                runtime[f"{path.stem}.{name}"] = obj._fields
    assert settable_fields() == runtime


# Public functions and methods that no library code calls, each with the
# reason it stays.
UNCALLED = {
    # bench/tracing.py wraps it by name; it goes with the tracer's rework
    # (ROADMAP item 1, slice B)
    "problems.local_grad",
    # bench/workloads.py picks gossip-m1000's graph by it; it goes with item
    # 13's benchmark-scoped remainder
    "network.rounds_for_target",
}


def _public_defs(tree, module):
    """(qualified name, def node, whether a method) of each public function
    at module level and each public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item, True


def _references(node) -> tuple[collections.Counter, collections.Counter]:
    """How often each name is read as a Name, and each as an Attribute, in node."""
    names, attrs = collections.Counter(), collections.Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names[child.id] += 1
        elif isinstance(child, ast.Attribute):
            attrs[child.attr] += 1
    return names, attrs


def uncalled_definitions() -> list[str]:
    """Public functions referenced nowhere in src/ but their own body, by
    name or attribute, and public methods referenced by no attribute there."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    names, attrs = collections.Counter(), collections.Counter()
    for tree in trees.values():
        n, a = _references(tree)
        names += n
        attrs += a
    out = []
    for module, tree in trees.items():
        for qualname, node, method in _public_defs(tree, module):
            own_names, own_attrs = _references(node)
            used = attrs[node.name] - own_attrs[node.name]
            if not method:
                used += names[node.name] - own_names[node.name]
            if used == 0:
                out.append(qualname)
    return out


def test_every_public_function_has_a_library_caller():
    found = set(uncalled_definitions())
    added, stale = sorted(found - UNCALLED), sorted(UNCALLED - found)
    assert not added and not stale, f"uncalled: {added}; called or gone: {stale}"


def test_the_caller_check_sees_an_uncalled_function_and_method(tmp_path, monkeypatch):
    (tmp_path / "mod.py").write_text(
        "def used():\n"
        "    return 1\n"
        "\n"
        "def lonely():\n"
        "    return lonely()\n"
        "\n"
        "class K:\n"
        "    def called(self):\n"
        "        return used()\n"
        "\n"
        "    def lonely(self):\n"
        "        return K().called()\n"
    )
    monkeypatch.setattr(sys.modules[__name__], "SRC", tmp_path)
    # a function that only calls itself and a method named like a function
    # that is called by name only are both uncalled
    assert uncalled_definitions() == ["mod.lonely", "mod.K.lonely"]


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


# a backticked `[module.]NAME = value`, which a line break may split
QUOTED_CONSTANT = re.compile(r"`(?:(\w+)\.)?([A-Z][A-Z0-9_]*)\s*=\s*([^`]+)`")


def misquoted_constants(text: str) -> list[str]:
    """Each `[module.]NAME = value` quoted in text whose value, read by
    ast.literal_eval, is not the module constant's; an unqualified NAME
    must be assigned at the top level of exactly one module in src/."""
    owners = collections.defaultdict(list)
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        owners[target.id].append(path.stem)
    out = []
    for module, name, value in QUOTED_CONSTANT.findall(text):
        modules = [module] if module else owners[name]
        if len(modules) != 1 or modules[0] not in owners[name]:
            out.append(f"{module or '?'}.{name}: assigned in {owners[name]}")
            continue
        actual = getattr(importlib.import_module(f"sonatasim.{modules[0]}"), name)
        if ast.literal_eval(value) != actual:
            out.append(f"{modules[0]}.{name}: quoted {value}, is {actual!r}")
    return out


def test_readme_quotes_the_module_constants():
    text = (ROOT / "README.md").read_text()
    assert len(QUOTED_CONSTANT.findall(text)) >= 13  # those quoted when the check was written
    assert misquoted_constants(text) == []


def test_the_constant_check_sees_wrong_unknown_and_ambiguous_names(tmp_path, monkeypatch):
    text = (
        "`network.DENSE_MAX_M = 255`, `SUBPROBLEM_TOL =\n  1e-9`,"
        " `LANCZOS_TOL = 1e-8` and `NO_SUCH = 1`"
    )
    assert misquoted_constants(text) == [
        "network.DENSE_MAX_M: quoted 255, is 256",
        "sonata.SUBPROBLEM_TOL: quoted 1e-9, is 1e-10",
        "?.NO_SUCH: assigned in []",
    ]
    for module in ("a", "b"):
        (tmp_path / f"{module}.py").write_text("TWICE = 1\n")
    monkeypatch.setattr(sys.modules[__name__], "SRC", tmp_path)
    assert misquoted_constants("`TWICE = 1`") == ["?.TWICE: assigned in ['a', 'b']"]
