"""The demos under demos/ keep working as the library changes.

The three fast demos run as scripts. Every demo, the slow ones too, has each
`contractfl` import and each attribute read off an imported name resolved
against the library, without running it.
"""

import ast
import importlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")
ALL = sorted(f for f in os.listdir(DEMOS) if f.endswith(".py"))
FAST = ["01_contract_menu.py", "02_partition_and_quality.py", "05_curve_fitting.py"]


@pytest.mark.parametrize("name", FAST)
def test_fast_demo_runs(name):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([os.path.join(ROOT, "src"),
                                          os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, os.path.join(DEMOS, name)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def _bound_names(tree) -> dict:
    """Each name a demo binds by importing from contractfl, and its object."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "contractfl":
                    module = importlib.import_module(alias.name)
                    # `import contractfl.x` binds the package, `... as y` the module
                    bound[alias.asname or "contractfl"] = (
                        module if alias.asname else sys.modules["contractfl"])
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "contractfl":
            module = importlib.import_module(node.module)
            for alias in node.names:
                try:  # a submodule of a package, or a name the module defines
                    obj = importlib.import_module(f"{node.module}.{alias.name}")
                except ModuleNotFoundError:
                    assert hasattr(module, alias.name), \
                        f"{node.module} has no {alias.name}"
                    obj = getattr(module, alias.name)
                bound[alias.asname or alias.name] = obj
    return bound


@pytest.mark.parametrize("name", ALL)
def test_demo_names_resolve(name):
    with open(os.path.join(DEMOS, name)) as fh:
        tree = ast.parse(fh.read(), name)
    bound = _bound_names(tree)
    assert bound, f"{name} imports nothing from contractfl"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in bound:
            owner = bound[node.value.id]
            assert hasattr(owner, node.attr), \
                f"{name} line {node.lineno}: {node.value.id}.{node.attr} is gone"
