"""Tracing of quantred from outside: wraps the public functions of every
module, and the hot methods of its scalar, class and series types, for the
length of a traced run, then puts every original back.

* A public function is a callable defined in a ``quantred`` module whose
  name has no leading underscore.  Its wrapper replaces it in *every*
  ``quantred`` namespace that holds it, so a function that another module
  bound with ``from ... import`` is traced there too.  Each call records a
  span (name, start, end, parent span, instance id) kept in memory.
* Hot per-scalar methods (``HOT_METHODS``) get a counter and a timer but no
  span, which keeps the overhead of a traced run low.

Self time: every wrapped call adds its duration to the caller's child time,
and a layer's self time is the duration of its wrapped calls minus their
child time.  Functions reached only through a container (the catalog's
builder tables) are not wrapped; they run inside the span of the function
that looks them up.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# class name -> (layer, short label, methods).  ``__radd__ = __add__``-style
# aliases are found by identity and share the wrapper of their original.
HOT_METHODS = {
    "Cyclotomic": ("exactnum", "cyclotomic", (
        "__init__", "__add__", "__neg__", "__sub__", "__rsub__", "__mul__",
        "__truediv__", "__rtruediv__", "__pow__", "__eq__", "inverse",
        "promoted", "galois",
    )),
    "CohomologyClass": ("cohomology", "class", (
        "__init__", "__add__", "__neg__", "__sub__", "__rsub__", "__mul__",
        "__truediv__", "__pow__", "exp", "todd_factor", "inverse", "integrate",
    )),
    "RingSeries": ("laurent", "series", (
        "__add__", "__mul__", "reciprocal", "truncated", "coefficient",
    )),
}


def public_functions(modules: dict) -> dict:
    """(layer, name) -> function for every public callable a module defines."""
    out = {}
    for layer, mod in modules.items():
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == mod.__name__):
                out[(layer, name)] = obj
    return out


def snapshot(namespaces) -> dict:
    """Every attribute of the given modules and of the hot classes, for
    checking that a traced run put everything back."""
    return {(ns.__name__, name): obj for ns in namespaces for name, obj in vars(ns).items()}


class Tracer:
    """Counters, self times and spans of one traced run.

    ``install`` patches, ``uninstall`` restores; ``reset`` starts a new pass.
    ``instance`` is the id of the verification in progress, set by the
    caller through ``set_instance``; every span records it.
    """

    def __init__(self, modules: dict):
        self.modules = modules
        # every namespace a wrapper may replace something in
        self.namespaces = [sys.modules["quantred"], *modules.values(), *(
            getattr(modules[layer], cls) for cls, (layer, *_) in HOT_METHODS.items())]
        self.instance = None
        self._patched = []  # (owner, attribute, original)
        self._originals = public_functions(modules)
        self._observers = {
            ("exactnum", "cyclotomic.init"): self._see_cyclotomic,
            ("exactnum", "cyclotomic.mul"): self._see_product,
            ("laurent", "expand_lefschetz_factor"): self._see_window,
            ("lefschetz", "residue_of_h"): self._see_residue,
            ("reduction", "kawasaki_residues"): self._see_root_scan,
            ("reduction", "reduced_rr"): self._see_orbits,
            ("oracle", "character_polynomial"): self._see_oracle_window,
        }
        self.reset()

    def set_instance(self, index):
        self.instance = index

    def reset(self):
        self.spans = []  # [name, start, end, parent, instance]
        self.calls = Counter()
        self.inclusive = defaultdict(float)  # outermost calls only
        self.self_s = defaultdict(float)  # per layer
        self.derived = Counter()
        self.field_degree_max = 0
        self._residue_sites = set()
        self._active = Counter()  # open calls per function
        self._stack = [[None, 0.0]]  # [enclosing span id, child time]

    # -- patching ---------------------------------------------------------------

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for (layer, name), fn in self._originals.items():
            wrappers[id(fn)] = self._span_wrapper(layer, name, fn)
        for ns in self.namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers:
                    self._patch(ns, attr, obj, wrappers[id(obj)])
        for cls_name, (layer, label, methods) in HOT_METHODS.items():
            cls = getattr(self.modules[layer], cls_name)
            for method in methods:
                fn = cls.__dict__[method]
                wrapper = self._hot_wrapper(layer, f"{label}.{method.strip('_')}", fn)
                for attr, obj in list(vars(cls).items()):
                    if obj is fn:
                        self._patch(cls, attr, obj, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- wrappers -----------------------------------------------------------------

    def _span_wrapper(self, layer, name, fn):
        key = (layer, name)
        observe = self._observers.get(key)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            span_id = len(self.spans)
            span = [f"{layer}.{name}", 0.0, 0.0, stack[-1][0], self.instance]
            self.spans.append(span)
            frame = [span_id, 0.0]
            stack.append(frame)
            self._active[key] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._active[key] -= 1
                elapsed = end - start
                stack[-1][1] += elapsed
                self.self_s[layer] += elapsed - frame[1]
                self.calls[key] += 1
                if not self._active[key]:
                    self.inclusive[key] += elapsed
                span[1], span[2] = start, end
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def _hot_wrapper(self, layer, name, fn):
        key = (layer, name)
        observe = self._observers.get(key)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            frame = [stack[-1][0], 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][1] += elapsed
                self.self_s[layer] += elapsed - frame[1]
                self.calls[key] += 1
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    # -- observers: counts read off arguments and results ----------------------------

    def _see_cyclotomic(self, args, kwargs, result):
        self.field_degree_max = max(self.field_degree_max, len(args[0].coeffs))

    def _see_product(self, args, kwargs, result):
        # computed, not measured: a schoolbook product of two vectors of
        # length phi(N) costs phi(N)^2 scalar multiplications
        if result is not NotImplemented:
            self.derived["scalar_ops"] += len(result.coeffs) ** 2

    def _see_window(self, args, kwargs, result):
        self.derived["laurent_window"] += len(result.coeffs)

    def _see_residue(self, args, kwargs, result):
        component = args[0]
        site = args[1] if len(args) > 1 else kwargs["at"]
        site = "infinity" if site == "inf" else site
        self._residue_sites.add((self.instance, component.name, site))
        if isinstance(site, int) and site and self._active[("reduction", "reduced_rr")]:
            self.derived["orbit_residues"] += 1

    def _see_root_scan(self, args, kwargs, result):
        self.derived["roots_scanned"] += args[0].conductor - 1
        self.derived["wall_roots"] += len(result)

    def _see_orbits(self, args, kwargs, result):
        self.derived["orbits"] += len(result.corrections)

    def _see_oracle_window(self, args, kwargs, result):
        # the expansion window of each component: from -moment up to the
        # checked top 2 * automatic_degree_bound + 4 (no degree bound given)
        p = args[0]
        bound = self._originals[("oracle", "automatic_degree_bound")](p)
        self.derived["oracle_window"] += sum(2 * bound + 4 + f.moment + 1 for f in p.components)

    # -- results -------------------------------------------------------------------

    def counts(self) -> dict:
        """Exact counts of the pass since the last reset."""
        c, d = self.calls, self.derived
        distinct = len(self._residue_sites)
        return {
            "exactnum.cyclotomic.init.calls": c[("exactnum", "cyclotomic.init")],
            "exactnum.cyclotomic.mul.calls": c[("exactnum", "cyclotomic.mul")],
            "exactnum.cyclotomic.inverse.calls": c[("exactnum", "cyclotomic.inverse")],
            "exactnum.scalar_ops": d["scalar_ops"],
            "exactnum.field_degree.max": self.field_degree_max,
            "cohomology.class.mul.calls": c[("cohomology", "class.mul")],
            "cohomology.class.exp.calls": c[("cohomology", "class.exp")],
            "laurent.expand_lefschetz_factor.calls": c[("laurent", "expand_lefschetz_factor")],
            "laurent.window_len.sum": d["laurent_window"],
            "lefschetz.residue_of_h.calls": c[("lefschetz", "residue_of_h")],
            "lefschetz.residue_of_h.distinct": distinct,
            "lefschetz.residue_reuse_ratio": _ratio(c[("lefschetz", "residue_of_h")], distinct),
            "reduction.roots_scanned": d["roots_scanned"],
            "reduction.wall_hit_ratio": _ratio(d["wall_roots"], d["roots_scanned"]),
            "reduction.residues_per_orbit": _ratio(d["orbit_residues"], d["orbits"]),
            "oracle.window_len": d["oracle_window"],
            "fixedpoint.validate.calls": c[("fixedpoint", "validate")],
            "fixedpoint.wall_set.calls": c[("fixedpoint", "wall_set")],
        }

    def times(self) -> dict:
        """Self and inclusive times of the pass since the last reset."""
        inc, own = self.inclusive, self.self_s
        out = {f"{layer}.self_s": own[layer] for layer in
               ("exactnum", "cohomology", "laurent", "lefschetz", "reduction",
                "oracle", "fixedpoint")}
        for layer, name in (
            ("laurent", "expand_lefschetz_factor"), ("lefschetz", "residue_of_h"),
            ("lefschetz", "rr_invariant"), ("reduction", "reduced_rr"),
            ("reduction", "residue_table"), ("oracle", "character_polynomial"),
            ("oracle", "invariant_multiplicity"), ("fixedpoint", "validate"),
            ("fixedpoint", "wall_set"), ("fixedpoint", "instance_from_dict"),
            ("cli", "report_to_json"),
        ):
            out[f"{layer}.{name}.s"] = inc[(layer, name)]
        return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0
