"""The size measures of tools/src_measures.py that the package holds.

python -O strips assert statements, so the package checks its inputs with
typed exceptions, and cli.main turns a ValueError, not an AssertionError,
into exit code 1.
"""

import importlib.util
import os

TOOL = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools", "src_measures.py")


def test_no_assert_statements():
    spec = importlib.util.spec_from_file_location("src_measures", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.measures()["asserts"] == 0
