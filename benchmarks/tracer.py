"""Outside-in span tracer for the spintensor pipeline.

The tracer wraps named functions and methods of the program from the
benchmark's side: each function is replaced in every `spintensor.*`
module namespace that binds it (methods on their class), and the
originals are put back on `uninstall`.  The program source is not
touched.

Each wrapped call is a span.  Spans nest on one stack (the pipeline is
single-threaded); a span's self time is its duration minus the
durations of its direct child spans.  Spans are aggregated per report
into call counts and self seconds rather than stored one by one: a
tetrad-grid report makes ~690k expression evaluations.

Connection builds are also keyed on their inputs (scenario inputs,
mode, deformation, point), so redundant rebuilds of the same
connection show as a distinct-build ratio below 1.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (module, attribute path) of every traced callable.  Metric names
# drop the dunder: MatrixField.__call__ is reported as MatrixField.call.
TARGETS = (
    ("scenarios", "expm"),
    ("scenarios", "deform_scenario"),
    ("scenarios", "random_transition"),
    ("scenarios", "chiral_scenario_from_spec"),
    ("scenarios", "dirac_scenario_from_spec"),
    ("scenarios", "coordinate_christoffel"),
    ("frames", "MatrixField.__call__"),
    ("frames", "MatrixField.partial"),
    ("frames", "lie_matrix"),
    ("frames", "structural_constants"),
    ("frames", "theta_parameters"),
    ("frames", "transform_components"),
    ("expressions", "Expression.__call__"),
    ("tetrads", "signed_cholesky"),
    ("tetrads", "signed_cholesky_partial"),
    ("tensor_core", "apply_matrix"),
    ("chiral", "metric_tangent_connection"),
    ("chiral", "build_chiral_metric_connection"),
    ("chiral", "covariant_derivative"),
    ("chiral", "verify_chiral_concordance"),
    ("chiral", "transform_connection"),
    ("dirac_connection", "build_dirac_metric_connection"),
    ("dirac_connection", "verify_dirac_concordance"),
    ("dirac_connection", "restrict_to_chiral"),
    ("dirac", "verify_dirac_identities"),
    ("cli", "run_verify_identities"),
    ("cli", "run_build_connection"),
    ("cli", "run_concordance"),
    ("cli", "run_covariance"),
    ("cli", "ResidualReport.to_json"),
)

# Calls whose result is tagged with a key built from their inputs, so
# that later builds on the result are keyed on inputs, not identity.
KEYED_CONSTRUCTORS = frozenset([
    "scenarios.random_transition",
    "scenarios.chiral_scenario_from_spec",
    "scenarios.dirac_scenario_from_spec",
    "scenarios.deform_scenario",
])
CONNECTION_BUILDS = frozenset([
    "chiral.build_chiral_metric_connection",
    "dirac_connection.build_dirac_metric_connection",
])
PARTIAL = "frames.MatrixField.partial"


def metric_name(module, path):
    return f"{module}.{path.replace('__call__', 'call')}"


@dataclasses.dataclass
class ReportStats:
    """Span aggregates of one report."""

    calls: Counter = dataclasses.field(default_factory=Counter)
    self_s: defaultdict = dataclasses.field(default_factory=lambda: defaultdict(float))
    fd_calls: int = 0
    builds: int = 0
    build_keys: set = dataclasses.field(default_factory=set)


@dataclasses.dataclass
class Patch:
    owner: object  # module or class whose attribute was replaced
    attr: str
    original: object

    def restored(self):
        current = vars(self.owner).get(self.attr)
        return current is self.original


class Tracer:
    """Installs span wrappers on TARGETS; use as a context manager."""

    def __init__(self):
        self.patches = []
        self.missing = []
        self._stack = []
        self._stats = ReportStats()
        self._keys = {}  # id(obj) -> (obj, key); obj kept alive so ids stay unique

    # --- install / restore -------------------------------------------

    def install(self):
        modules = [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "spintensor" or name.startswith("spintensor."))
        ]
        for module_name, path in TARGETS:
            name = metric_name(module_name, path)
            module = sys.modules.get(f"spintensor.{module_name}")
            head, _, method = path.partition(".")
            if module is None or head not in vars(module):
                self.missing.append(name)
                continue
            if method:
                cls = vars(module)[head]
                if method not in vars(cls):
                    self.missing.append(name)
                    continue
                original = vars(cls)[method]
                self._patch(cls, method, original, self._wrap(name, original))
            else:
                original = vars(module)[head]
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, original, wrapper)
        return self

    def _patch(self, owner, attr, original, wrapper):
        self.patches.append(Patch(owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        """Put every original back; the patch records stay for checking."""
        for patch in reversed(self.patches):
            setattr(patch.owner, patch.attr, patch.original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def all_restored(self):
        return all(patch.restored() for patch in self.patches)

    # --- per-report accounting ---------------------------------------

    @contextmanager
    def report(self):
        """Collect the spans of one report; yields its ReportStats."""
        stats = ReportStats()
        self._stats = stats
        self._keys = {}
        try:
            yield stats
        finally:
            self._stats = ReportStats()
            self._keys = {}

    def _wrap(self, name, func):
        keyed = name in KEYED_CONSTRUCTORS
        build = name in CONNECTION_BUILDS
        partial = name == PARTIAL
        signature = inspect.signature(func) if (keyed or build) else None
        stack = self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stats = self._stats
            if build:
                stats.builds += 1
                stats.build_keys.add((name, self._call_key(signature, args, kwargs)))
            elif partial and args[0].partials is None:
                stats.fd_calls += 1
            frame = [0.0]  # time covered by direct child spans
            stack.append(frame)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                stats.calls[name] += 1
                stats.self_s[name] += duration - frame[0]
            if keyed:
                self._tag(result, (name, self._call_key(signature, args, kwargs)))
            return result

        return wrapper

    # --- input keys ----------------------------------------------------

    def _tag(self, obj, key):
        self._keys[id(obj)] = (obj, key)

    def _call_key(self, signature, args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return tuple((k, self._key(v)) for k, v in bound.arguments.items())

    def _key(self, value):
        entry = self._keys.get(id(value))
        if entry is not None and entry[0] is value:
            return entry[1]
        if value is None or isinstance(value, (bool, int, float, complex, str)):
            return value
        if isinstance(value, (tuple, list)):
            return tuple(self._key(v) for v in value)
        if isinstance(value, np.ndarray):
            return (value.shape, tuple(value.ravel().tolist()))
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            return (type(value).__name__, repr(dataclasses.asdict(value)))
        # Anything else is keyed on identity; keep it alive for the report.
        key = ("object", type(value).__name__, id(value))
        self._tag(value, key)
        return key
