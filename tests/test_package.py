"""What the package is made of: its imports and its exports."""

import ast
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import minorsum

SOURCES = sorted(Path(minorsum.__file__).parent.glob("*.py"))


def test_package_imports_only_the_standard_library_and_click():
    # click is the one runtime dependency, and the tests' oracles are not
    # importable from the package
    assert len(SOURCES) > 5
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top in sys.stdlib_module_names or top == "click", (path.name, name)


def test_every_export_resolves_and_every_public_name_is_exported():
    exported = minorsum.__all__
    assert len(set(exported)) == len(exported)
    for name in exported:
        assert getattr(minorsum, name) is not None, name
    public = {
        name for name, value in vars(minorsum).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert public <= set(exported), sorted(public - set(exported))


def test_importing_the_package_loads_only_the_checkers_modules():
    # the path, symmetric-function and command line modules load on first
    # use, and hashlib when a digest is first read, so that a run of the
    # identity checkers does not pay for importing them
    code = (
        "import sys; before = set(sys.modules); import minorsum; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(minorsum.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    loaded = done.stdout.split()
    assert [m for m in loaded if m.startswith("minorsum")] == ["minorsum"] + [
        f"minorsum.{name}" for name in ("combinat", "errors", "identities", "matrix", "ring")
    ]
    assert "hashlib" not in loaded


def references(node, shadowed=frozenset()):
    """(node, name) for every attribute and every name read under node,
    leaving out a name that a function around it binds as a parameter or
    a local, such as a parameter `identity` beside a function `identity`."""
    if isinstance(node, (ast.FunctionDef, ast.Lambda)):
        args = node.args
        shadowed = shadowed | {
            arg.arg for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                args.vararg, args.kwarg) if arg
        } | {
            inner.id for inner in ast.walk(node)
            if isinstance(inner, ast.Name) and isinstance(inner.ctx, ast.Store)
        }
    if isinstance(node, ast.Name) and node.id not in shadowed:
        yield node, node.id
    elif isinstance(node, ast.Attribute):
        yield node, node.attr
    for child in ast.iter_child_nodes(node):
        yield from references(child, shadowed)


def test_every_unexported_public_definition_has_a_caller_in_the_package():
    # a public module-level function or class that the package neither
    # exports nor registers by a decorator is there for the package's own
    # use, so code elsewhere in the package must name it
    exported = set(minorsum.__all__)
    trees = [ast.parse(path.read_text(), str(path)) for path in SOURCES]
    own = {
        node.name: {id(inner) for inner in ast.walk(node)}
        for tree in trees for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and not node.decorator_list
        and node.name not in exported
    }
    called = {
        name for tree in trees for node, name in references(tree)
        if name in own and id(node) not in own[name]
    }
    assert sorted(set(own) - called) == []
