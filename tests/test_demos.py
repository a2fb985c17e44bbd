"""The demos call the package as it is.

No test runs demos/ (each takes up to a minute), so an API change could
leave a demo calling a function that is gone or passing arguments that no
longer bind.  Each demo is read, not run: every name it imports from
contactfbi must resolve, and every call of such a name (or of an
attribute of one, such as ContactMap.linear) must bind to the callee's
signature with placeholder arguments.
"""

import ast
import glob
import importlib
import inspect
import os

import pytest

DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "demos", "*.py")))


def package_names(tree):
    """Map each name a demo binds by importing from contactfbi to the
    object it names."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[0] == "contactfbi":
            module = importlib.import_module(node.module)
            for alias in node.names:
                obj = getattr(module, alias.name, None)
                if obj is None:
                    obj = importlib.import_module(
                        "%s.%s" % (node.module, alias.name))
                names[alias.asname or alias.name] = obj
    return names


def callee(func, names):
    """The package object a call's func expression names, or None."""
    if isinstance(func, ast.Name):
        return names.get(func.id)
    if isinstance(func, ast.Attribute):
        owner = callee(func.value, names)
        return None if owner is None else getattr(owner, func.attr)
    return None


def test_every_demo_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_calls_bind(path):
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    names = package_names(tree)
    assert names, "%s imports nothing from contactfbi" % path
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = callee(node.func, names)
        if fn is None or any(isinstance(a, ast.Starred) for a in node.args) \
                or any(k.arg is None for k in node.keywords):
            continue
        try:
            inspect.signature(fn).bind(
                *[None] * len(node.args),
                **{k.arg: None for k in node.keywords})
        except TypeError as err:
            pytest.fail("%s line %d: %s: %s" % (
                os.path.basename(path), node.lineno, ast.unparse(node.func),
                err))
