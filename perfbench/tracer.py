"""A tracer that times orbipar's public functions from outside.

``Tracer.install()`` replaces each traced function with a wrapper that
records a span (name, start, end, parent span, request id) and accumulates
the function's call count and self time.  The wrapper goes on the defining
module or class, and on every ``orbipar.*`` module attribute that *is* the
original function, so names bound at import (``from .linalg import
solve_linear``) are traced too.  ``uninstall()`` puts the originals back.

Three work counts ride along:

- ``kernels.coeff_mults``: coefficient products implied by the argument
  lengths of ``vec_mul``, ``vec_inverse`` and ``vec_compose`` (computed);
- ``linalg.solve_linear.cells``: rows x (cols + 1) of each augmented system
  handed to ``solve_linear`` (computed);
- ``fields.ctx_ops``: calls to ``FieldCtx.add/sub/mul/neg/inv``, counted by
  a wrapper that records no span.  The compiled backend does field
  arithmetic in C, so this counts the pure backend's calls only.
"""

import gzip
import importlib
import json
import sys
from array import array
from time import perf_counter

# layer -> qualified names of the traced functions in orbipar.<layer>
LAYERS = {
    "kernels": ["vec_compose", "vec_mul", "vec_inverse"],
    "series": ["Series.compose", "Series.__mul__", "Series.inverse",
               "Laurent.substitute", "Laurent.__mul__"],
    "linalg": ["solve_linear", "Matrix.__mul__", "Matrix.substitute", "Matrix.inverse",
               "laurent_inverse", "smith", "residue_det"],
    # rewrite_in_base is left out: no scenario command reaches it
    "local_galois": ["make_kummer", "make_artin_schreier", "kummer_tower",
                     "verify_extension", "evaluate_in_base"],
    "equivariant": ["verify_cocycle", "coboundary", "assemble_product",
                    "independence_intertwiner", "invariants", "is_induced", "trivialize"],
    "parabolic": ["random_datum", "validate_parabolic", "functor_T", "functor_S",
                  "roundtrip_check", "multipoint_map"],
    "pvect": ["find_parabolic_isomorphism", "equiv_check", "pullback_refine", "tensor",
              "dual", "dual_pairing_check", "pushforward_local", "adjunction_check",
              "extract_weights"],
    "scenario": ["load_scenario", "run_command", "canonical_report"],
}
CTX_OPS = ("add", "sub", "mul", "neg", "inv")
SPAN_FIELDS = ("id", "name", "start", "end", "parent", "request")
COUNTS = {
    "kernels.coeff_mults": "computed from argument lengths",
    "linalg.solve_linear.cells": "computed from argument sizes",
    "fields.ctx_ops": "counted at FieldCtx.add/sub/mul/neg/inv (pure backend)",
}


def traced_names():
    return [f"{layer}.{qual}" for layer, quals in LAYERS.items() for qual in quals]


def _mul_products(la, lb, n):
    """Products a[i]*b[k-i] the schoolbook truncated product makes."""
    return sum(max(0, min(k + 1, la) - max(0, k - lb + 1)) for k in range(n))


def _inverse_products(la, n):
    return sum(max(0, min(k + 1, la) - 1) for k in range(1, n))


class Tracer:
    def __init__(self):
        self.names = traced_names()
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.counts = dict.fromkeys(COUNTS, 0)
        # flat rows of SPAN_FIELDS; a float array keeps a million spans in 48 MB
        self.spans = array("d")
        self.request = -1
        self._stack = []        # [span id, time covered by children] per open span
        self._next_id = 0
        self._patches = []      # (owner, attribute, original)
        self._product_cache = {}

    # -- work counts, from argument sizes --

    def _products(self, key, compute):
        v = self._product_cache.get(key)
        if v is None:
            v = self._product_cache[key] = compute()
        return v

    def _count_vec_mul(self, args):
        _, a, b, n = args
        la, lb = len(a), len(b)
        self.counts["kernels.coeff_mults"] += self._products(
            ("mul", la, lb, n), lambda: _mul_products(la, lb, n))

    def _count_vec_inverse(self, args):
        _, a, n = args
        la = len(a)
        self.counts["kernels.coeff_mults"] += self._products(
            ("inv", la, n), lambda: _inverse_products(la, n))

    def _count_vec_compose(self, args):
        # Horner: len(f) - 1 truncated products of a length-n vector by g
        _, f, g, n = args
        lf, lg = len(f), len(g)
        self.counts["kernels.coeff_mults"] += self._products(
            ("compose", lf, lg, n), lambda: max(lf - 1, 0) * _mul_products(n, lg, n))

    def _count_solve_linear(self, args):
        rows = args[1]
        if rows:
            self.counts["linalg.solve_linear.cells"] += len(rows) * (len(rows[0]) + 1)

    # -- wrappers --

    def _wrap(self, fn, idx, count):
        tracer = self
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            if count is not None:
                count(args)
            parent = stack[-1][0] if stack else -1
            sid = tracer._next_id
            tracer._next_id = sid + 1
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                tracer.calls[idx] += 1
                tracer.self_s[idx] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                spans.extend((sid, idx, start, end, parent, tracer.request))

        traced.__wrapped__ = fn
        return traced

    def _wrap_ctx_op(self, fn):
        counts = self.counts

        def counted(*args):
            counts["fields.ctx_ops"] += 1
            return fn(*args)

        return counted

    def _patch(self, owner, attr, original, wrapper):
        """Replace ``original`` on its owner and on every orbipar module that binds it."""
        targets = [(owner, attr)]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "orbipar" or mod_name.startswith("orbipar.")):
                continue
            for name, value in list(vars(mod).items()):
                if value is original and (mod, name) != (owner, attr):
                    targets.append((mod, name))
        for obj, name in targets:
            self._patches.append((obj, name, original))
            setattr(obj, name, wrapper)

    def install(self):
        counters = {"kernels.vec_mul": self._count_vec_mul,
                    "kernels.vec_inverse": self._count_vec_inverse,
                    "kernels.vec_compose": self._count_vec_compose,
                    "linalg.solve_linear": self._count_solve_linear}
        for idx, full in enumerate(self.names):
            layer, qual = full.split(".", 1)
            owner = importlib.import_module(f"orbipar.{layer}")
            *path, attr = qual.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            self._patch(owner, attr, original, self._wrap(original, idx, counters.get(full)))
        from orbipar.fields import FieldCtx
        for op in CTX_OPS:
            original = vars(FieldCtx)[op]
            self._patch(FieldCtx, op, original, self._wrap_ctx_op(original))

    def uninstall(self):
        for obj, name, original in reversed(self._patches):
            setattr(obj, name, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results --

    def metrics(self):
        out = {}
        for idx, name in enumerate(self.names):
            out[f"{name}.calls"] = (self.calls[idx], "count")
            out[f"{name}.self_s"] = (self.self_s[idx], "s")
        for name, value in self.counts.items():
            out[name] = (value, "count")
        return out

    def span_count(self):
        return len(self.spans) // len(SPAN_FIELDS)

    def write_spans(self, path):
        """Write the spans gzipped: a JSON header line naming the fields and the
        traced functions, then one comma-separated row per span, by end time.

        ``name`` indexes the header's names; ``parent`` is -1 for a root span;
        ``request`` is the scenario index.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        width = len(SPAN_FIELDS)
        spans = self.spans
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"fields": SPAN_FIELDS, "names": self.names}) + "\n")
            fh.writelines("%d,%d,%.9f,%.9f,%d,%d\n" % tuple(spans[i:i + width])
                          for i in range(0, len(spans), width))
