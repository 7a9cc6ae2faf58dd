"""Outside-in span recorder for the cavityspectra package layers.

While a :class:`Recorder` is installed, every entry point of the traced
layers is replaced, in every package module that holds it by name, with a
wrapper that records one span: name, start, end and the span that was open
when it was called.  Nothing in ``src/`` changes; uninstalling restores the
original functions.  Spans are timed by a caller-given clock.  Self time
is derived from the spans afterwards: a span's duration minus the durations
of its direct children.

A layer's entry points are the public functions the module defines, plus
the private names other modules import directly (``cli`` imports
``_sigma_diag_values`` and ``bhd`` imports ``_sigma_yy_values``; patching
only ``spectral`` would hide all fig4 and detector density work) and
``cli._emit``, which writes every CSV row.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
from typing import Callable

LAYERS = ("cli", "spectral", "bhd", "oracle", "imagesum", "units")
EXTRA_ENTRY_POINTS = {
    "cli": ("_emit",),
    "spectral": ("_sigma_diag_values", "_sigma_yy_values"),
}
KERNELS = ("spectral.q_kernel", "spectral.w_kernel")
DENSITIES = (
    "spectral.sigma_yy",
    "spectral.sigma_yy_diag",
    "spectral._sigma_yy_values",
    "spectral._sigma_diag_values",
)
SMEAR = "bhd.smeared_density"
TRANSFORM = "oracle.sigma_via_numeric_ft"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _kernel_info(args, kwargs):
    u = _arg(args, kwargs, 0, "u")
    return getattr(u, "size", 1)


def _point_density_info(args, kwargs):
    return 1, _arg(args, kwargs, 3, "policy").n_terms


def _batch_density_info(args, kwargs):
    return _arg(args, kwargs, 0, "omegas").size, _arg(args, kwargs, 3, "policy").n_terms


def _emit_info(args, kwargs):
    return len(_arg(args, kwargs, 2, "rows"))


def _smear_key(signature):
    def info(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        # the integral depends on the pair only through x and the offset y2 - y1
        return (a["pt1"].x, a["pt2"].y - a["pt1"].y, a["kernel"], a["geometry"],
                a["policy"], a["quadrature"])
    return info


class Recorder:
    """In-memory spans plus the per-call facts the layer metrics need."""

    def __init__(self, clock: Callable[[], float]):
        self.clock = clock
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.info: dict[int, object] = {}
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, hook):
        names, parents, starts, ends, info, stack, clock = (
            self.names, self.parents, self.starts, self.ends, self.info, self._stack, self.clock)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            if hook is not None:
                info[idx] = hook(args, kwargs)
            stack.append(idx)
            starts[idx] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        layer_modules = {layer: importlib.import_module(f"cavityspectra.{layer}") for layer in LAYERS}
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "cavityspectra" or n.startswith("cavityspectra."))]
        wrappers = {}
        for layer, mod in layer_modules.items():
            names = [n for n, v in vars(mod).items()
                     if inspect.isfunction(v) and v.__module__ == mod.__name__ and not n.startswith("_")]
            for name in (*names, *EXTRA_ENTRY_POINTS.get(layer, ())):
                fn = getattr(mod, name)
                qual = f"{layer}.{name}"
                wrappers[id(fn)] = self._wrap(qual, fn, _hook(qual, fn))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def _hook(qual, fn):
    if qual in KERNELS:
        return _kernel_info
    if qual in ("spectral.sigma_yy", "spectral.sigma_yy_diag"):
        return _point_density_info
    if qual in DENSITIES:
        return _batch_density_info
    if qual == "cli._emit":
        return _emit_info
    if qual == SMEAR:
        return _smear_key(inspect.signature(fn))
    return None


def layer_metrics(rec: Recorder, traced_wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced round, derived from its spans.

    ``trace.overhead_frac`` needs an untraced run and is left to the caller.
    """
    n = len(rec.names)
    names, parents = rec.names, rec.parents
    dur = [rec.ends[i] - rec.starts[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        if parents[i] >= 0:
            child[parents[i]] += dur[i]
    self_t = [dur[i] - child[i] for i in range(n)]
    layer = [name.split(".", 1)[0] for name in names]

    # spans start in index order, so a parent's flags are known before its children's
    in_density = [False] * n
    in_smear = [False] * n
    for i in range(n):
        p = parents[i]
        if p >= 0:
            in_density[i] = in_density[p] or names[p] in DENSITIES
            in_smear[i] = in_smear[p] or names[p] == SMEAR

    layer_self = {name: 0.0 for name in LAYERS}
    for i in range(n):
        layer_self[layer[i]] += self_t[i]

    kernels = [i for i in range(n) if names[i] in KERNELS]
    densities = [i for i in range(n) if names[i] in DENSITIES]
    outer_density = [i for i in densities if not in_density[i]]
    smears = [i for i in range(n) if names[i] == SMEAR]
    transforms = [i for i in range(n) if names[i] == TRANSFORM]
    imagesum_outer = [i for i in range(n)
                      if layer[i] == "imagesum" and (parents[i] < 0 or layer[parents[i]] != "imagesum")]

    kernel_evals = sum(rec.info[i] for i in kernels)
    kernel_self = sum(self_t[i] for i in kernels)
    smear_evals = sum(rec.info[i][0] for i in outer_density if in_smear[i])
    m = {
        "spectral.kernel_calls": len(kernels),
        "spectral.kernel_evals": kernel_evals,
        "spectral.kernel_self_s": kernel_self,
        "spectral.kernel_ns_per_eval": 1e9 * kernel_self / kernel_evals if kernel_evals else 0.0,
        "spectral.density_calls": len(outer_density),
        "spectral.density_points": sum(rec.info[i][0] for i in outer_density),
        "spectral.image_terms": sum(rec.info[i][0] * (2 * rec.info[i][1] + 1) for i in outer_density),
        "spectral.density_self_s": sum(self_t[i] for i in densities),
        "spectral.self_s": layer_self["spectral"],
        "bhd.smear_calls": len(smears),
        "bhd.smear_unique_ratio": len({rec.info[i] for i in smears}) / len(smears) if smears else 0.0,
        "bhd.density_evals_per_smear": smear_evals / len(smears) if smears else 0.0,
        "bhd.smear_s_max": max((dur[i] for i in smears), default=0.0),
        "bhd.self_s": layer_self["bhd"],
        "oracle.transforms": len(transforms),
        "oracle.transform_s_p50": statistics.median(dur[i] for i in transforms) if transforms else 0.0,
        "oracle.self_s": layer_self["oracle"],
        "imagesum.calls": len(imagesum_outer),
        "imagesum.us_per_call": (1e6 * sum(dur[i] for i in imagesum_outer) / len(imagesum_outer)
                                 if imagesum_outer else 0.0),
        "imagesum.self_s": layer_self["imagesum"],
        "cli.self_s": layer_self["cli"],
        "cli.rows_out": sum(rec.info[i] for i in range(n) if names[i] == "cli._emit"),
        "units.self_s": layer_self["units"],
        "trace.coverage_frac": sum(layer_self.values()) / traced_wall,
    }
    return m
