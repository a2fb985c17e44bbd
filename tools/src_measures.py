"""Print the three size measures of src/contactfbi as JSON.

    python tools/src_measures.py

* lines: non-blank lines that are not comment-only lines;
* defaulted_parameters: parameters with a default value, over the
  module-level functions and the methods of module-level classes;
* asserts: assert statements.
"""

import ast
import json
import os

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src", "contactfbi")


def measures():
    lines = defaults = asserts = 0
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, name)) as fh:
            text = fh.read()
        lines += sum(1 for ln in text.splitlines()
                     if ln.strip() and not ln.strip().startswith("#"))
        tree = ast.parse(text)
        funcs = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                funcs += [n for n in cls.body
                          if isinstance(n, ast.FunctionDef)]
        for fn in funcs:
            defaults += len(fn.args.defaults)
            defaults += sum(d is not None for d in fn.args.kw_defaults)
        asserts += sum(isinstance(n, ast.Assert) for n in ast.walk(tree))
    return {"lines": lines, "defaulted_parameters": defaults,
            "asserts": asserts}


if __name__ == "__main__":
    print(json.dumps(measures()))
