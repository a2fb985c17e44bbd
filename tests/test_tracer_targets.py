"""The benchmark tracer finds every function it times.

bench/tracer.py names its targets as (module, qualified name) pairs and
reports zero calls for a name the package no longer defines, so a
deletion or rename would go unnoticed by the benchmark itself.  The file
is read, not imported.
"""

import ast
import importlib
import os

TRACER = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench", "tracer.py")


def tracer_targets():
    with open(TRACER) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no TARGETS in %s" % TRACER)


def test_every_target_resolves():
    targets = tracer_targets()
    assert len(targets) > 0
    missing = []
    for module, qualname in targets:
        obj = importlib.import_module("contactfbi." + module)
        for part in qualname.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append("%s.%s" % (module, qualname))
    assert missing == []


def test_spectra_binds_slice_forward():
    # the tracer rewraps the name wherever a module imported it
    from contactfbi import partial_fbi, spectra
    assert ("partial_fbi", "_slice_forward") in tracer_targets()
    assert spectra._slice_forward is partial_fbi._slice_forward
