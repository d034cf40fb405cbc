"""Span tracing of photon_darwinism, installed from outside the package.

Every function named in a layer module's ``__all__`` (public functions for
``entropy_kernels``, which has none) and ``cli.main`` is replaced by a
wrapper in every ``photon_darwinism.*`` namespace that binds it, so calls
made through re-exports (``h`` in ``information``, ``superpositions`` and
``discrete_oracle``) are caught too. ``numpy.polynomial.legendre.leggauss``
is counted where ``sky`` and ``discrete_oracle`` look it up, and the
integrand handed to ``integrate_sphere`` is counted per callback.

Each wrapper records a span (name, start, end, parent) in flat arrays.
Self time is accumulated on exit as the span's duration minus the
durations of its direct children, so the layers' self times add up to the
wall time of the outermost spans.
"""

from __future__ import annotations

import importlib
import inspect
import os
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("cli", "entropy_kernels", "information", "superpositions", "sky",
          "radiometry", "receptivity", "discrete_oracle")
MI_FUNCTIONS = ("information.mutual_information",
                "information.mutual_information_at_time")
NODE_FUNCTIONS = ("sky.region_nodes", "sky.complement_nodes", "sky.sphere_nodes")


def _targets(modules):
    """(module, name, function) for every function the tracer wraps."""
    for layer, mod in modules.items():
        if layer == "cli":
            yield layer, "main", mod.main
            continue
        names = getattr(mod, "__all__", None) or [
            n for n in vars(mod) if not n.startswith("_")]
        for name in names:
            obj = getattr(mod, name)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                yield layer, name, obj


class Tracer:
    """Wraps the package in place; ``uninstall`` restores every binding."""

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("i")
        self.parents = array("i")
        self.stack: list[list] = []
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.raised = dict.fromkeys(LAYERS, 0)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.leggauss_orders: set = set()
        self.grid_bytes = 0
        self.grid_s = 0.0
        self._root_depth = 0
        self._node_depth = 0
        self._restore: list = []

    # -- installation ------------------------------------------------------

    def install(self):
        pkg = importlib.import_module("photon_darwinism")
        modules = {layer: importlib.import_module(f"photon_darwinism.{layer}")
                   for layer in LAYERS}
        namespaces = [pkg, *modules.values()]
        hooks = self._hooks()
        for layer, name, func in _targets(modules):
            qualname = f"{layer}.{name}"
            wrapper = self._wrap(layer, qualname, func, hooks.get(qualname))
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is func:
                        self._patch(ns, attr, wrapper)
        legendre = np.polynomial.legendre
        self._patch(legendre, "leggauss",
                    self._count_leggauss(legendre.leggauss, "sky"))
        oracle = modules["discrete_oracle"]
        self._patch(oracle, "leggauss",
                    self._count_leggauss(oracle.leggauss, "discrete_oracle"))

    def uninstall(self):
        for ns, attr, value in reversed(self._restore):
            setattr(ns, attr, value)
        self._restore.clear()

    def _patch(self, ns, attr, value):
        self._restore.append((ns, attr, getattr(ns, attr)))
        setattr(ns, attr, value)

    def _count_leggauss(self, func, layer):
        def leggauss(deg):
            self.counts[f"{layer}.leggauss"] += 1
            if layer == "sky":
                self.leggauss_orders.add(int(deg))
            return func(deg)
        return leggauss

    # -- spans -------------------------------------------------------------

    def _wrap(self, layer, qualname, func, hook):
        """A span-recording wrapper; hook(args, kwargs) may return
        (args, kwargs, on_exit(duration), on_result(value))."""
        nid = len(self.names)
        self.names.append(qualname)
        stack, starts, ends = self.stack, self.starts, self.ends
        name_ids, parents, self_s = self.name_ids, self.parents, self.self_s
        names, raised, calls = self.names, self.raised, self.calls

        def wrapper(*args, **kwargs):
            on_exit = on_result = None
            if hook is not None:
                args, kwargs, on_exit, on_result = hook(args, kwargs)
            calls[qualname] += 1
            idx = len(starts)
            parent = stack[-1][0] if stack else -1
            parents.append(parent)
            name_ids.append(nid)
            ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            start = perf_counter()
            starts.append(start)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                # Counted once per layer boundary the exception crosses.
                if parent < 0 or not names[name_ids[parent]].startswith(layer + "."):
                    raised[layer] += 1
                raise
            finally:
                end = perf_counter()
                ends[idx] = end
                stack.pop()
                dur = end - start
                self_s[layer] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if on_exit is not None:
                    on_exit(dur)
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def _hooks(self):
        """Counters that need a wrapped function's arguments or result."""
        counts = self.counts

        def root(args, kwargs):
            self._root_depth += 1

            def leave(_):
                self._root_depth -= 1
            return args, kwargs, leave, None

        def mi(args, kwargs):
            if self._root_depth:
                counts["mi_in_root"] += 1
            return args, kwargs, None, None

        def nodes(args, kwargs):
            outer = self._node_depth == 0
            self._node_depth += 1

            def leave(_):
                self._node_depth -= 1

            def count(result):
                if outer:  # sphere_nodes returns its parts' nodes again
                    counts["sky.nodes"] += len(result[1])
            return args, kwargs, leave, count

        def integrate(args, kwargs):
            f = args[0] if args else kwargs.pop("f")

            def integrand(d):
                counts["sky.integrand_calls"] += 1
                return f(d)
            return (integrand, *args[1:]), kwargs, None, None

        def grid(args, kwargs):
            size = os.path.getsize(args[0] if args else kwargs["path"])

            def leave(dur):
                self.grid_bytes += size
                self.grid_s += dur
            return args, kwargs, leave, None

        def spectrum(args, kwargs):
            def count(result):
                counts["discrete_oracle.spectrum_groups"] += len(result[1]) // 2
            return args, kwargs, None, count

        def prob_grid(args, kwargs):
            def count(result):
                counts["discrete_oracle.prob_matrix_bytes"] += result.D_S ** 2 * 8
            return args, kwargs, None, count

        hooks = {
            "information.redundancy_exact": root,
            "sky.integrate_sphere": integrate,
            "sky.load_indicator_grid": grid,
            "discrete_oracle.fragment_eigenvalues": spectrum,
            "discrete_oracle.scattering_probability_grid": prob_grid,
        }
        hooks.update(dict.fromkeys(MI_FUNCTIONS, mi))
        hooks.update(dict.fromkeys(NODE_FUNCTIONS, nodes))
        return hooks

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer values, keyed by the names BENCHMARK.json lists."""
        c, k = self.calls, self.counts
        layer_calls = Counter()
        for qualname, n in c.items():
            layer_calls[qualname.split(".")[0]] += n
        roots = c["information.redundancy_exact"]
        sky_gl = k["sky.leggauss"]
        out = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}
        out.update({
            "entropy_kernels.h.calls": c["entropy_kernels.h"],
            "information.mi.calls": sum(c[n] for n in MI_FUNCTIONS),
            "information.redundancy_exact.calls": roots,
            "information.mi_evals_per_root": k["mi_in_root"] / roots if roots else 0.0,
            "superpositions.calls": layer_calls["superpositions"],
            "sky.nodes": k["sky.nodes"],
            "sky.node_bytes": k["sky.nodes"] * 32,
            "sky.leggauss_calls": sky_gl,
            "sky.leggauss_distinct_ratio":
                len(self.leggauss_orders) / sky_gl if sky_gl else 0.0,
            "sky.integrand_calls": k["sky.integrand_calls"],
            "sky.grid_load_s": self.grid_s,
            "sky.grid_mb_per_s":
                self.grid_bytes / 1e6 / self.grid_s if self.grid_s else 0.0,
            "radiometry.decoherence_rate.calls": c["radiometry.decoherence_rate"],
            "receptivity.alpha_numeric.calls": c["receptivity.alpha_numeric"],
            "discrete_oracle.spectrum_groups": k["discrete_oracle.spectrum_groups"],
            "discrete_oracle.prob_matrix_bytes": k["discrete_oracle.prob_matrix_bytes"],
        })
        out.update({f"{layer}.raised": self.raised[layer] for layer in LAYERS})
        return out

    def save(self, path):
        """Write the spans: names, start, end (perf_counter s), parent index."""
        np.savez(path, names=np.array(self.names),
                 name_id=np.array(self.name_ids, dtype=np.int32),
                 start=np.array(self.starts), end=np.array(self.ends),
                 parent=np.array(self.parents, dtype=np.int32))
