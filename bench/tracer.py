"""Outside-in layer tracer for the chaoscal benchmark.

The package's source is not touched: each traced public function is replaced,
in its defining module and in every ``chaoscal.*`` module that imported it by
name, with a wrapper that records a span (name, start, end, parent, run id)
and per-layer counters.  Intra-module calls resolve through module globals
and cross-module calls through the importer's binding, so both are captured
(``estimate_cv`` reaches ``sample_features`` through ``chaoscal.pricing``,
``path_grid`` reaches ``sample_integrals`` through ``chaoscal.model``).

Modules are looked up in ``sys.modules``: ``chaoscal/__init__.py`` rebinds
the name ``calibrate`` to the function, so ``import chaoscal.calibrate as m``
would not give the module.

Spans and counters stay in memory; ``dump`` writes them out once.
"""

import functools
import importlib
import inspect
import json
import sys
import time

# module -> traced public functions; a layer is named "<module>.<function>"
LAYERS = {
    "chaoscal.cli": ("cmd_gen_surface", "cmd_calibrate", "cmd_evaluate",
                     "cmd_exotics"),
    "chaoscal.calibrate": ("calibrate", "build_workspace", "workspace_loss",
                           "adamw_step"),
    "chaoscal.pricing": ("price_surface", "estimate_cv", "mc_call_price",
                         "quad_nodes_features"),
    "chaoscal.model": ("sample_features", "path_grid", "second_moment_coeffs"),
    "chaoscal.conditional": ("piecewise_features", "dyson_features"),
    "chaoscal.bases": ("sample_integrals",),
    "chaoscal.reference": ("lewis_call_price", "rough_heston_cf",
                           "heston_simulate", "exotic_mc_price"),
    "chaoscal.vol": ("implied_vol", "exotic_implied_vol"),
    "chaoscal.quotes": ("parse_quotes", "write_quotes"),
    "chaoscal.modelio": ("load_model", "serialize_model"),
}

_LIVE_PROBE_ROWS = 64  # rows inspected for non-zero feature columns


class LayerStats:
    __slots__ = ("calls", "incl_s", "self_s", "counters", "keys")

    def __init__(self):
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.counters = {}
        self.keys = set()  # distinct work items, for useful_ratio

    def add(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value


def _bound(sig, args, kwargs):
    ba = sig.bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


# per-layer counters, computed after the span has closed
def _count_estimate_cv(st, sig, args, kwargs, result, error):
    st.keys.add(tuple(_bound(sig, args, kwargs)["tags"]))


def _count_quad_nodes(st, sig, args, kwargs, result, error):
    a = _bound(sig, args, kwargs)
    st.keys.add((float(a["t"]), int(a["n"])))
    if result is not None:
        st.add("rows", result[1].shape[0])


def _count_sample_features(st, sig, args, kwargs, result, error):
    st.add("paths", int(_bound(sig, args, kwargs)["n_paths"]))
    if result is not None:
        feats = result.features
        st.add("live_cols", int((feats[:_LIVE_PROBE_ROWS] != 0.0).any(axis=0).sum()))
        st.add("cols", feats.shape[1])


def _count_cells(st, sig, args, kwargs, result, error):
    if result is not None:
        st.add("cells", result.size)


def _count_out_bytes(st, sig, args, kwargs, result, error):
    if result is not None:
        st.add("out_bytes", result.nbytes)


def _count_failures(st, sig, args, kwargs, result, error):
    st.add("failures", int(error is not None))


HOOKS = {
    "pricing.estimate_cv": _count_estimate_cv,
    "pricing.quad_nodes_features": _count_quad_nodes,
    "model.sample_features": _count_sample_features,
    "conditional.piecewise_features": _count_cells,
    "bases.sample_integrals": _count_out_bytes,
    "vol.implied_vol": _count_failures,
}


class Tracer:
    """Wraps the LAYERS functions; records spans only while ``active``."""

    def __init__(self):
        self.active = False
        self.run_id = None
        self.spans = []  # (name, start, end, parent index, run id, ok)
        self.stats = {}
        self._stack = []  # open span indices
        self._child = []  # per open span: time covered by its children
        self._patched = []  # (module, attribute, original)

    def install(self):
        for modname, names in LAYERS.items():
            mod = importlib.import_module(modname)
            for fname in names:
                orig = getattr(mod, fname)
                layer = f"{modname.rsplit('.', 1)[1]}.{fname}"
                self.stats[layer] = LayerStats()
                wrapper = self._wrap(layer, orig, HOOKS.get(layer))
                for m in list(sys.modules.values()):
                    mname = getattr(m, "__name__", "")
                    if mname != "chaoscal" and not mname.startswith("chaoscal."):
                        continue
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, orig))

    def uninstall(self):
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def _wrap(self, layer, fn, hook):
        stats = self.stats
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            self._child.append(0.0)
            result = error = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                inner = self._child.pop()
                self.spans[idx] = (layer, t0, t1, parent, self.run_id, error is None)
                st = stats[layer]
                st.calls += 1
                st.incl_s += t1 - t0
                st.self_s += t1 - t0 - inner
                if hook is not None:
                    hook(st, sig, args, kwargs, result, error)
                # the parent's self time excludes this span and its counting
                if self._child:
                    self._child[-1] += time.perf_counter() - t0

        return wrapper

    def dump(self, path, extra):
        payload = dict(extra)
        payload["spans"] = [list(s) for s in self.spans]
        payload["layers"] = {
            name: {"calls": st.calls, "incl_s": st.incl_s, "self_s": st.self_s,
                   "distinct": len(st.keys), **st.counters}
            for name, st in self.stats.items()
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
            handle.write("\n")
