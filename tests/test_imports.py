"""Guards against dead code in the package: every name a module of
``src/neurofield`` imports is used in that module or listed in its
``__all__``, and every module-level private name is used somewhere in the
package."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "neurofield"


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = set(imported_names(tree)) - used - exported_names(tree)
    assert not unused, f"{path.name} imports {sorted(unused)} and never uses them"


def binds(node, name):
    """Whether a module-level statement defines or imports ``name``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return node.name == name
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return any((alias.asname or alias.name) == name for alias in node.names)
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == name for t in targets)


def references(tree):
    """Every name a tree reads, imports or takes as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_exported_name_is_used(path):
    """A name in a module's ``__all__`` is read by package code outside the
    statement that defines it, or by the acceptance tests: the public
    surface holds nothing that only its own definition or other tests use."""
    statements = [(other, node, set(references(node))) for other in PACKAGE.glob("*.py")
                  for node in ast.parse(other.read_text()).body]
    acceptance = set(references(ast.parse((PACKAGE.parents[1] / "tests"
                                           / "test_acceptance.py").read_text())))
    unused = [name for name in sorted(exported_names(ast.parse(path.read_text())))
              if not name.startswith("__") and name not in acceptance
              and not any(name in refs for other, node, refs in statements
                          if other != path or not binds(node, name))]
    assert not unused, f"{path.name} exports {unused} and only their definitions use them"


def calls_to(func, name):
    return [node for node in ast.walk(func) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == name]


def test_only_main_writes_or_prints_in_the_cli():
    """The commands in cli.py return their files, manifest and message and
    raise on failure; main alone writes, prints and turns errors into exit
    status 1.  The parse helpers keep their own try, for their messages."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    commands = [func for name, func in functions.items() if name.startswith("cmd_")]
    assert len(commands) == 4
    for func in commands:
        assert not any(isinstance(node, ast.Try) for node in ast.walk(func)), func.name
    for name, func in functions.items():
        if name != "main":
            assert not calls_to(func, "_write_all") + calls_to(func, "print"), name
    main = functions["main"]
    stdout_prints = [call for call in calls_to(main, "print")
                     if not any(kw.arg == "file" for kw in call.keywords)]
    assert len(calls_to(main, "_write_all")) == 1 and len(stdout_prints) == 1


def private_definitions(tree):
    """Module-level names starting with one underscore: functions, classes
    and assigned constants."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from (name for name in names if name.startswith("_") and not name.startswith("__"))


def referenced_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_private_name_is_used(path):
    used = {name for module in PACKAGE.glob("*.py")
            for name in referenced_names(ast.parse(module.read_text()))}
    unused = set(private_definitions(ast.parse(path.read_text()))) - used
    assert not unused, f"{path.name} defines {sorted(unused)} and nothing in the package uses them"


def dataclass_fields(tree, class_name):
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == class_name)
    return [node.target.id for node in cls.body
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]


@pytest.mark.parametrize("module,class_name", [("problems.py", "ProblemSpec"),
                                                ("solver.py", "SolverConfig")])
def test_every_setting_field_is_read(module, class_name):
    """A field of a problem or a run configuration that no code in the
    package reads as an attribute is a knob with no effect."""
    read = {node.attr for path in PACKAGE.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    fields = dataclass_fields(ast.parse((PACKAGE / module).read_text()), class_name)
    assert fields
    unread = [name for name in fields if name not in read]
    assert not unread, f"{class_name} declares {unread} and nothing in the package reads them"


@pytest.mark.parametrize("class_name", ["SolveResult", "StepDiagnostics"])
def test_every_result_field_is_read(class_name):
    """A field of a run's result that no code in the package, its tests or
    its benchmarks reads as an attribute is output that nobody uses."""
    root = PACKAGE.parents[1]
    read = {node.attr for folder in ("src", "tests", "benchmarks")
            for path in (root / folder).rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    fields = dataclass_fields(ast.parse((PACKAGE / "solver.py").read_text()), class_name)
    assert fields
    unread = [name for name in fields if name not in read]
    assert not unread, f"{class_name} declares {unread} and nothing reads them"


def test_only_build_delay_table_names_the_table_forms():
    """Outside their class definitions and ``__all__``, the names of the
    operator-table forms appear in solver.py only in build_delay_table, the
    one place that picks a form; every other caller goes through the
    methods the forms share."""
    forms = {"PairTable", "AxisFactors", "DelayedPairs"}
    tree = ast.parse((PACKAGE / "solver.py").read_text())
    allowed = forms | {"build_delay_table"}  # ``__all__`` holds strings, not names
    named = [(getattr(node, "name", "module level"), name.id) for node in tree.body
             if getattr(node, "name", None) not in allowed
             for name in ast.walk(node) if isinstance(name, ast.Name) and name.id in forms]
    assert not named, f"solver.py names a table form outside build_delay_table: {named}"


def kernel_calls(tree):
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute) and node.func.attr == "kernel"]


def test_only_kernel_values_calls_the_kernel():
    """Package code evaluates K only through ProblemSpec.kernel_values, the
    one place that makes its result a finite float array of the distances'
    shape."""
    trees = {path.name: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    spec = next(node for node in trees["problems.py"].body
                if isinstance(node, ast.ClassDef) and node.name == "ProblemSpec")
    method = next(node for node in spec.body
                  if isinstance(node, ast.FunctionDef) and node.name == "kernel_values")
    allowed = kernel_calls(method)
    assert len(allowed) == 1
    outside = [(name, call.lineno) for name, tree in trees.items()
               for call in kernel_calls(tree) if call not in allowed]
    assert not outside, f"package code calls .kernel( outside kernel_values: {outside}"
