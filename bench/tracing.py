"""Span tracing of the beamstab layers from outside the package.

The package looks its collaborators up as module attributes at call time
(``modal_mod._mode_arrays``, ``kmod.fourier_mu``, ...), so replacing those
attributes with timing wrappers traces every layer boundary without editing
``src/``.  Each call records a span ``[name, start, end, parent]``; spans stay
in memory until the run ends, and a layer's self time is its spans' duration
minus the duration of their direct children.  A target that no longer exists
(a later refactor may rename ``_mode_arrays`` or ``_layout``) is recorded as
absent and the metrics built from it are left out instead of failing the run.
"""

import importlib
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path


def _count_modes(tracer, args, kwargs, result):
    G, W = result[0], result[1]
    n, d = G.shape[0], G.shape[1]
    tracer.counters["modes"] += n
    # computed from array sizes: the stacked generator and weight, not bytes moved
    tracer.counters["bytes"] += n * d * d * (G.itemsize + W.itemsize)


def _count_norms(tracer, args, kwargs, result):
    G = args[0]
    lam = args[3] if len(args) > 3 else kwargs["lam"]
    tracer.counters["norm_evals"] += G.shape[0]
    if getattr(lam, "ndim", 0):  # one lambda per mode: peak candidates
        tracer.counters["peak_candidates"] += G.shape[0]


def _count_output(tracer, args, kwargs, result):
    if result is not None:
        tracer.counters["output_bytes"] += Path(result).stat().st_size


# (module, attribute, span name, counter hook)
TARGETS = (
    ("beamstab.cli", "load_config", "cli.load_config", None),
    ("beamstab.cli", "_write_csv", "cli.write_csv", _count_output),
    ("beamstab.cli", "_write_json", "cli.write_json", _count_output),
    ("beamstab.cli", "_write_svg", "cli.write_svg", _count_output),
    ("beamstab.svg", "line_chart", "svg.line_chart", None),
    ("beamstab.kernels", "mu_integral", "kernels.mu_integral", None),
    ("beamstab.kernels", "fourier_mu", "kernels.fourier_mu", None),
    ("beamstab.model", "stability_numbers", "model.stability_numbers", None),
    ("beamstab.modal", "make_grid", "modal.make_grid", None),
    ("beamstab.modal", "_layout", "modal.layout", None),
    ("beamstab.modal", "_mode_arrays", "modal.mode_arrays", _count_modes),
    ("beamstab.modal", "assemble", "modal.assemble", None),
    ("beamstab.modal", "weight_sqrt", "modal.weight_sqrt", None),
    ("beamstab.resolvent", "_weight_factors", "resolvent.weight_factors", None),
    ("beamstab.resolvent", "_batched_norms", "resolvent.batched_norms", _count_norms),
    ("beamstab.resolvent", "_sweep_point", "resolvent.sweep_point", None),
    ("beamstab.resolvent", "spectral_abscissa", "resolvent.spectral_abscissa", None),
    ("beamstab.resolvent", "lower_bound", "resolvent.lower_bound", None),
    ("beamstab.resolvent", "det_check", "resolvent.det_check", None),
    ("beamstab.dynamics", "semiuniform_series", "dynamics.semiuniform_series", None),
    ("beamstab.dynamics", "propagate", "dynamics.propagate", None),
    ("beamstab.dynamics", "_propagator", "dynamics.propagator", None),
    ("scipy.linalg", "expm", "dynamics.expm", None),
)


class Tracer:
    """In-memory spans and counters for wrapped module attributes."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counters = Counter()
        self.absent = []
        self._local = threading.local()
        self._restore = []
        self.commands = set()

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, owner, key, name, hook=None):
        """Replace ``owner.key`` (or ``owner[key]`` for a dict) with a span wrapper."""
        is_dict = isinstance(owner, dict)
        fn = owner.get(key) if is_dict else getattr(owner, key, None)
        if not callable(fn):
            self.absent.append(name)
            return

        def traced(*args, **kwargs):
            stack = self._stack()
            span = [name, self.clock(), None, stack[-1] if stack else -1]
            stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        if is_dict:
            owner[key] = traced
        else:
            setattr(owner, key, traced)
        self._restore.append((owner, key, fn, is_dict))

    def install(self, targets=TARGETS):
        """Wrap every target plus each CLI command (as span ``cli.<command>``)."""
        for module, attr, name, hook in targets:
            try:
                owner = importlib.import_module(module)
            except ImportError:
                self.absent.append(name)
                continue
            self.wrap(owner, attr, name, hook)
        cli = importlib.import_module("beamstab.cli")
        for command in list(getattr(cli, "COMMANDS", {})):
            self.wrap(cli.COMMANDS, command, f"cli.{command}")
            self.commands.add(f"cli.{command}")

    def uninstall(self):
        for owner, key, fn, is_dict in reversed(self._restore):
            if is_dict:
                owner[key] = fn
            else:
                setattr(owner, key, fn)
        self._restore.clear()

    def _child_seconds(self):
        """Per span: the summed duration of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return child

    def stats(self):
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        child = self._child_seconds()
        out = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
        for i, (name, start, end, parent) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["total"] += end - start
            entry["self"] += end - start - child[i]
        return out

    def calls_under(self, name, parent_name):
        return sum(1 for n, _, _, p in self.spans
                   if n == name and p >= 0 and self.spans[p][0] == parent_name)

    def command_split(self):
        """Self seconds per module inside each CLI command span."""
        child = self._child_seconds()
        root = [None] * len(self.spans)
        split = defaultdict(Counter)
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                root[i] = root[parent]
            elif name in self.commands:
                root[i] = name[4:]
            if root[i] is not None:
                module = "cli" if parent < 0 else name.split(".")[0]
                split[root[i]][module] += end - start - child[i]
        return split


# Per-layer metric -> (span names it needs, value from a Tracer and its stats).
def _self(*names):
    return names, lambda t, s: sum(s[n]["self"] for n in names)


def _calls(*names):
    return names, lambda t, s: sum(s[n]["calls"] for n in names)


def _total(*names):
    return names, lambda t, s: sum(s[n]["total"] for n in names)


def _counter(key, *names):
    return names, lambda t, s: t.counters[key]


LAYER_METRICS = {
    "cli.load_config_s": _self("cli.load_config"),
    "modal.make_grid_s": _self("modal.make_grid"),
    "kernels.mu_integral.calls": _calls("kernels.mu_integral"),
    "kernels.mu_integral_s": _self("kernels.mu_integral"),
    "modal.layout.calls": _calls("modal.layout"),
    "modal.mode_arrays.calls": _calls("modal.mode_arrays"),
    "modal.modes_assembled": _counter("modes", "modal.mode_arrays"),
    "modal.mode_arrays_s": _self("modal.mode_arrays"),
    "modal.bytes_assembled": _counter("bytes", "modal.mode_arrays"),
    "resolvent.weight_factors_s": _self("resolvent.weight_factors"),
    "resolvent.batched_norms.calls": _calls("resolvent.batched_norms"),
    "resolvent.batched_norms_s": _self("resolvent.batched_norms"),
    "resolvent.norm_evals": _counter("norm_evals", "resolvent.batched_norms"),
    "resolvent.peak_candidates": _counter("peak_candidates", "resolvent.batched_norms"),
    "resolvent.sweep_point_s": _self("resolvent.sweep_point"),
    "resolvent.useful_eval_ratio": (
        ("resolvent.sweep_point", "resolvent.batched_norms"),
        lambda t, s: s["resolvent.sweep_point"]["calls"] / max(1, t.counters["norm_evals"])),
    "resolvent.spectral_abscissa_s": _self("resolvent.spectral_abscissa"),
    "resolvent.lower_bound_s": _self("resolvent.lower_bound"),
    "resolvent.det_check.calls": _calls("resolvent.det_check"),
    "model.stability_numbers.calls": _calls("model.stability_numbers"),
    "kernels.fourier_mu.calls": _calls("kernels.fourier_mu"),
    "kernels.fourier_mu_s": _self("kernels.fourier_mu"),
    "dynamics.semiuniform_series_s": _self("dynamics.semiuniform_series"),
    "dynamics.modes_propagated": (
        ("dynamics.semiuniform_series", "modal.assemble", "dynamics.propagator"),
        lambda t, s: (t.calls_under("modal.assemble", "dynamics.semiuniform_series")
                      + s["dynamics.propagator"]["calls"])),
    "modal.weight_sqrt_s": _self("modal.weight_sqrt"),
    "dynamics.propagate_s": _self("dynamics.propagate"),
    "dynamics.expm_fallbacks": _calls("dynamics.expm"),
    "cli.write_s": _self("cli.write_csv", "cli.write_json", "cli.write_svg"),
    "cli.output_bytes": _counter("output_bytes", "cli.write_csv", "cli.write_json",
                                 "cli.write_svg"),
    "svg.line_chart_s": _self("svg.line_chart"),
    "cli.sweep_s": _total("cli.sweep"),
    "cli.decay_s": _total("cli.decay"),
}


def layer_metrics(tracer):
    """Every per-layer metric whose spans were installed, by name."""
    stats = tracer.stats()
    return {metric: fn(tracer, stats)
            for metric, (needs, fn) in LAYER_METRICS.items()
            if not any(n in tracer.absent for n in needs)}
