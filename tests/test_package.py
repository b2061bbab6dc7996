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
