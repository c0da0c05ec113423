"""Spans recorded around calls into the package's public functions.

Only the traced run installs the wrappers, and they live here, in the
benchmark's own files: the package itself is not instrumented. Each span
records its name, start, end, the index of its parent span and the id of
the benchmark operation it belongs to. Spans stay in memory until the run
ends.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass

# (module, attribute) pairs; "Class.method" wraps a method or property.
TARGETS = (
    ("hss_core", "DenseFactor.__init__"),
    ("hss_core", "DenseFactor.solve"),
    ("hss_core", "solve_dense"),
    ("hss_core", "solve_steady_state"),
    ("hss_core", "solve_perturbation"),
    ("hss_core", "ToeplitzOperator.matrix"),
    ("mmc_model", "steady_state"),
    ("mmc_model", "build_openloop_perturbation"),
    ("mmc_model", "feedback_channels"),
    ("impedance_engine", "impedance_at"),
    ("impedance_engine", "circulating_impedance_at"),
    ("impedance_engine", "sweep"),
    ("impedance_engine", "find_resonances"),
    ("td_sim", "measure_impedance_many"),
    ("td_sim", "simulate"),
    ("td_sim", "extract_phasor"),
    # private, wrapped only to count the work td_sim really does: the steps
    # each kernel call integrates and the samples each schedule records
    ("td_sim", "_Runner.advance"),
    ("td_sim", "_run"),
    ("cli", "main"),
    ("cli", "parse_config"),
)


def _matrix_size(args, kwargs, result):
    """Order n of the matrix a DenseFactor factorises."""
    m = args[1] if len(args) > 1 else kwargs["m"]
    return m.shape[0]


def _rhs_columns(args, kwargs, result):
    rhs = args[1] if len(args) > 1 else kwargs["rhs"]
    return 1 if rhs.ndim == 1 else rhs.shape[1]


def _steps(args, kwargs, result):
    """Time steps one kernel call integrates."""
    return args[3] if len(args) > 3 else kwargs["n_steps"]


def _window(args, kwargs, result):
    """Samples in the analysis window a schedule returns."""
    return result.t.size


ADVANCE = "td_sim._Runner.advance"
RUN = "td_sim._run"

# what a span records beyond its times, computed from the call
_EXTRA = {
    "hss_core.DenseFactor.__init__": _matrix_size,
    "hss_core.DenseFactor.solve": _rhs_columns,
    ADVANCE: _steps,
    RUN: _window,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int     # index into Tracer.spans, -1 for a root
    op: int
    extra: object = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.enabled = False
        self.op = -1

    def _enter(self, name):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        span = Span(name, 0.0, 0.0, parent, self.op)
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _exit(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        extra = _EXTRA.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if extra is not None:
                span.extra = extra(args, kwargs, result)
            return result
        return traced

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run untraced."""
        enabled, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = enabled

    @contextlib.contextmanager
    def root(self, name, op):
        """One benchmark operation: a root span whose descendants carry
        ``op`` as their operation id."""
        self.op = op
        span = self._enter(name)
        try:
            yield span
        finally:
            self._exit(span)
            self.op = -1

    def install(self, package) -> list:
        """Wrap every target that exists; returns the ones that do not."""
        missing = []
        for module_name, attr in TARGETS:
            module = getattr(package, module_name, None)
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = (owner.__dict__.get(member) if isinstance(owner, type)
                        else getattr(owner, member, None))
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            name = f"{module_name}.{attr}"
            if isinstance(original, property):
                wrapped = property(self.wrap(name, original.fget))
                setattr(owner, member, wrapped)
            else:
                setattr(owner, member, self.wrap(name, original))
        return missing


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover.

    Calls are sequential, so children never overlap and their durations
    can simply be summed.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.seconds
    return [s.seconds - c for s, c in zip(spans, child)]


def layer_self_seconds(spans) -> dict:
    """Total self time per layer (the module a span's name starts with)."""
    out = {}
    for s, t in zip(spans, self_times(spans)):
        out[s.layer] = out.get(s.layer, 0.0) + t
    return out


def layer_call_seconds(spans, root_name: str, layer: str) -> list:
    """Per root span, the time spent in ``layer`` minus the time its calls
    spend in other layers: e.g. ``cli.main`` minus ``impedance_engine.sweep``
    for the cli layer."""
    times = self_times(spans)
    roots = {}
    for i, s in enumerate(spans):
        if s.name == root_name:
            roots[i] = 0.0
    for i, s in enumerate(spans):
        if s.layer != layer:
            continue
        j = i
        while j >= 0 and j not in roots:
            j = spans[j].parent
        if j >= 0:
            roots[j] += times[i]
    return list(roots.values())
