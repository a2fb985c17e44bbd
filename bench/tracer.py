"""Per-layer tracing of contactfbi, installed from outside the package.

Every traced function is wrapped, and the wrapper is bound wherever a
contactfbi module holds the original: modules such as ``spectra`` import
``_slice_forward`` by name, so patching ``partial_fbi`` alone would miss
their calls.  Methods are patched on their class.  ``restore`` puts every
original back.

A span's self time is its wall time minus the wall time of the traced
calls made inside it.  Targets that a later version of the package no
longer defines report zero calls instead of failing the run.
"""

import functools
import importlib
import sys
import time

PACKAGE = "contactfbi"

# (module, qualified name) of every traced function.
TARGETS = (
    ("cli", "main"),
    ("spectra", "model_spectrum"),
    ("spectra", "conjugated_operator"),
    ("spectra", "weight_diagonal"),
    ("spectra", "CentralFrame.__init__"),
    ("spectra", "CentralBlock.apply"),
    ("spectra", "CentralBlock.apply_adjoint"),
    ("spectra", "_pair_norm"),
    ("spectra", "weighted_norm_measure"),
    ("spectra", "weighted_gram"),
    ("spectra", "lower_bound_family"),
    ("transfer_ops", "lift_kernel"),
    ("transfer_ops", "kernel_bound_audit"),
    ("transfer_ops", "kernel_entry_direct"),
    ("transfer_ops", "transfer_apply"),
    ("transfer_ops", "lambda_delta"),
    ("transfer_ops", "flow_fourier_coeffs"),
    ("partial_fbi", "_slice_forward"),
    ("partial_fbi", "_slice_adjoint"),
    ("partial_fbi", "reconstruct_slice"),
    ("partial_fbi", "scatter_slice"),
    ("partial_fbi", "_slice_axis_matrix"),
    ("partial_fbi", "pfbi_roundtrip"),
    ("partial_fbi", "sample_volume"),
    ("fbi_core", "fbi_forward"),
    ("fbi_core", "fbi_adjoint"),
    ("fbi_core", "dual_phase_grid"),
    ("fbi_core", "l0_hat_kernel"),
    ("fbi_core", "PhaseGrid.points"),
    ("aniso_norm", "sobolev_norms"),
    ("aniso_norm", "cal_w_aniso"),
    ("aniso_norm", "cutoff_triple"),
    ("aniso_norm", "q_block"),
    ("numerics", "operator_norm"),
    ("numerics", "sample"),
    ("contact_geometry", "det_on_unstable"),
    ("contact_geometry", "ContactMap.apply"),
)

SPAN_NAMES = tuple("%s.%s" % t for t in TARGETS)

# Derived per-layer counters, with their units.
DERIVED = (
    ("partial_fbi.axis_matrix.distinct", "count"),
    ("partial_fbi.axis_matrix.useful_ratio", "ratio"),
    ("spectra.central.forwards_per_apply", "count"),
    ("spectra.pair_norm.matvecs", "count"),
    ("numerics.operator_norm.matvecs", "count"),
    ("spectra.model_spectrum.rows", "count"),
    ("fbi_core.points.bytes_computed", "B"),
)


def metric_units():
    """Every metric name a traced pass reports, mapped to its unit."""
    units = {}
    for name in SPAN_NAMES:
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
    units.update(DERIVED)
    return units


def _axis_key(args, kwargs):
    ax, kappa = args[0], args[1]
    conj = kwargs.get("conj", args[2] if len(args) > 2 else None)
    return (ax.centers.tobytes(), ax.freqs.tobytes(), ax.y.tobytes(),
            float(kappa), bool(conj))


class Tracer:
    """Wraps the TARGETS of an imported contactfbi and counts per pass."""

    def __init__(self):
        self._patches = []
        self._stack = []
        self.installed = False
        self.reset()

    def reset(self):
        """Start a new pass: zero every counter."""
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.axis_keys = set()
        self.central_forwards = 0
        self.pair_norm_matvecs = 0
        self.operator_norm_matvecs = 0
        self.spectrum_rows = 0
        self.points_bytes = 0

    # -- per-target hooks ------------------------------------------------

    def _counted(self, fn, attr):
        def counted(*args, **kwargs):
            setattr(self, attr, getattr(self, attr) + 1)
            return fn(*args, **kwargs)
        return counted

    def _before(self, name, args, kwargs):
        if name == "partial_fbi._slice_axis_matrix":
            self.axis_keys.add(_axis_key(args, kwargs))
        elif name == "partial_fbi._slice_forward":
            if self._stack and \
                    self._stack[-1][0] == "spectra.CentralBlock.apply":
                self.central_forwards += 1
        elif name in ("spectra._pair_norm", "numerics.operator_norm") \
                and len(args) >= 2:
            attr = ("pair_norm_matvecs" if name == "spectra._pair_norm"
                    else "operator_norm_matvecs")
            args = (self._counted(args[0], attr),
                    self._counted(args[1], attr)) + tuple(args[2:])
        return args

    def _after(self, name, result):
        if name == "spectra.model_spectrum":
            self.spectrum_rows += sum(int(rep.refinement["rows"])
                                      for rep in result)
        elif name == "fbi_core.PhaseGrid.points":
            self.points_bytes += int(result.nbytes)

    def _wrap(self, name, fn):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            args = self._before(name, args, kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            self._after(name, result)
            return result
        return traced

    # -- install / restore -----------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every target found; return the names not found."""
        owners = {}
        for modname in dict.fromkeys(m for m, _ in TARGETS):
            try:
                owners[modname] = importlib.import_module(
                    "%s.%s" % (PACKAGE, modname))
            except ImportError:
                owners[modname] = None
        modules = [m for key, m in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        missing = []
        originals = []
        for modname, qual in TARGETS:
            name = "%s.%s" % (modname, qual)
            owner = owners[modname]
            *path, attr = qual.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = vars(owner).get(attr) if owner is not None else None
            if not callable(fn):
                missing.append(name)
                continue
            wrapper = self._wrap(name, fn)
            originals.append(fn)
            if path:
                self._set(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._set(mod, key, wrapper)
        stale = [(mod.__name__, key) for mod in modules
                 for key, val in vars(mod).items()
                 if any(val is fn for fn in originals)]
        if stale:
            self.restore()
            raise RuntimeError("tracing left unwrapped bindings: %s" % stale)
        self.installed = True
        return missing

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self.installed = False

    # -- results ---------------------------------------------------------

    def snapshot(self):
        """Metrics of the pass since the last reset, named as metric_units."""
        out = {}
        for name in SPAN_NAMES:
            out[name + ".calls"] = self.calls[name]
            out[name + ".self_s"] = self.self_s[name]
        axis_calls = self.calls["partial_fbi._slice_axis_matrix"]
        applies = self.calls["spectra.CentralBlock.apply"]
        out["partial_fbi.axis_matrix.distinct"] = len(self.axis_keys)
        out["partial_fbi.axis_matrix.useful_ratio"] = (
            len(self.axis_keys) / axis_calls if axis_calls else 0.0)
        out["spectra.central.forwards_per_apply"] = (
            self.central_forwards / applies if applies else 0.0)
        out["spectra.pair_norm.matvecs"] = self.pair_norm_matvecs
        out["numerics.operator_norm.matvecs"] = self.operator_norm_matvecs
        out["spectra.model_spectrum.rows"] = self.spectrum_rows
        out["fbi_core.points.bytes_computed"] = self.points_bytes
        return out
