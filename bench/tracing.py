"""Spans and counters recorded from outside latticesum, by wrapping its functions.

A span is (layer, function, start, end, parent span, call id).  Spans stay in
memory and are written out when the run ends.  A layer's self time is the
duration of its spans minus the part their child spans cover; the per-layer
metric ``<layer>_s`` is that self time.  ``exactnum.cyclo_mul_s`` is the one
exception: ``CyclotomicNumber.__mul__`` runs thousands of times per call as
the operator layer's own arithmetic, so it is timed inclusively and is not a
span.  Its time stays in the self time of the span that called it.

Wrapping rebinds the name in every ``latticesum`` module that holds it (for
example ``solve_rational_system`` is bound in ``exactnum``, ``emcore``,
``polytope`` and ``remainder``), and on the class for methods.

Run as a script, this module is one traced CLI process:

    python3 -X importtime bench/tracing.py SPANS_FILE CALL_ID ARGS...

It imports ``latticesum.cli`` (timed as the ``cli.import`` span, with sympy's
share read from ``-X importtime`` by the caller), runs ``cli.main(ARGS)``
under the wrappers and writes its spans and counters to SPANS_FILE.
"""

import functools
import importlib
import json
import sys
import time

perf_counter = time.perf_counter

# (module, attribute, layer, counter) for every wrapped function.  A counter
# maps (args, result) to the (key, value) pairs it adds.
SPANS = (
    ("polytope", "compute_vertices", "polytope.vertices", None),
    ("polytope", "face_lattice", "polytope.vertices", None),
    ("polytope", "choose_polarizing_vector", "polytope.polarize", None),
    ("polytope", "polarize", "polytope.polarize", None),
    ("polytope", "edge_vectors", "polytope.polarize", None),
    ("polytope", "enumerate_lattice_points", "polytope.oracle", None),
    ("polytope", "weighted_sum_bruteforce", "polytope.oracle", None),
    ("emcore", "face_group", "emcore.groups",
     lambda a, r: (("emcore.face_groups", 1), ("emcore.group_order_max", r.order))),
    ("emcore", "inclusion_map", "emcore.groups", None),
    ("emcore", "EmContext._flat_subsets", "emcore.groups",
     lambda a, r: (("emcore.flat_elements", sum(len(f.members) for f in r.values())),)),
    ("emcore", "character_angles", "emcore.characters",
     lambda a, r: (("emcore.characters", 1),)),
    ("emcore", "dilation_integral_poly", "emcore.integral",
     lambda a, r: (("emcore.integral_terms", len(r.poly.terms)),)),
    ("multipoly", "MultiPoly.substitute", "multipoly.substitute",
     lambda a, r: (("multipoly.substitute_calls", 1),)),
    ("emcore", "assemble_operator", "emcore.assemble",
     lambda a, r: (("emcore.operator_terms", len(r.terms)),)),
    ("emcore", "apply_operator", "emcore.apply",
     lambda a, r: (("emcore.operator_hits",
                    sum(1 for e in a[0].terms if a[1].coefficient(e) != 0)),)),
    ("exactnum", "solve_rational_system", "exactnum.eliminate",
     lambda a, r: (("exactnum.eliminations", 1),)),
    ("exactnum", "det_rational", "exactnum.eliminate",
     lambda a, r: (("exactnum.eliminations", 1),)),
    ("exactnum", "smith_normal_form", "exactnum.eliminate",
     lambda a, r: (("exactnum.eliminations", 1),)),
    ("bernoulli1d", "M_poly", "bernoulli1d.mpoly", None),
    ("bernoulli1d", "twisted_Q", "bernoulli1d.mpoly", None),
    ("bernoulli1d", "TwistedQ.value_float", "bernoulli1d.q_float", None),
    ("bernoulli1d", "periodic_P_float", "bernoulli1d.q_float", None),
    ("quad", "tensor_grid", "quad.grid",
     lambda a, r: (("quad.grid_points", len(r[0])),)),
    ("remainder", "SmoothFunction.directional", "remainder.derive",
     lambda a, r: (("remainder.derivs", 1),)),
    ("remainder", "SmoothFunction._fn", "remainder.lambdify", None),
    ("remainder", "SmoothFunction._eval", "remainder.deriv_eval",
     lambda a, r: (("remainder.deriv_points", _points(a[3])),)),
    ("remainder", "polytope_main_term", "remainder.main", None),
    ("remainder", "polytope_remainder", "remainder.rem", None),
    ("remainder", "weighted_sum_smooth", "remainder.lhs", None),
)
CYCLO_MUL = ("exactnum", "CyclotomicNumber.__mul__")

# Layers of the benchmark's own spans: the part of a call, a check or a
# set-up that no wrapped function covers, and the CLI's processes.
UNATTRIBUTED = "trace.unattributed"
CHECK = "trace.check"
PROBE = "trace.probe"  # the worker's speed probe between the steps of a call
CLI_LAYERS = ("cli.import", "cli.main", "cli.process")

# Counters that keep a maximum; all others are summed.
MAX_COUNTERS = (
    "emcore.group_order_max", "exactnum.cyclo_order_max", "emcore.contexts_cached",
    "bernoulli1d.cache_size", "exactnum.cache_size", "quad.cache_size",
)
COUNTERS = (
    "emcore.face_groups", "emcore.flat_elements", "emcore.characters",
    "emcore.integral_terms", "multipoly.substitute_calls", "emcore.operator_terms",
    "emcore.operator_hits", "exactnum.cyclo_muls", "exactnum.eliminations",
    "quad.grid_points", "remainder.derivs", "remainder.deriv_points",
    "cli.import_sympy_s", "exactnum.cyclo_mul_s",
    "bernoulli1d.cache_hits", "bernoulli1d.cache_misses",
    "exactnum.cache_hits", "exactnum.cache_misses",
    "quad.cache_hits", "quad.cache_misses",
) + MAX_COUNTERS
CACHE_MODULES = ("bernoulli1d", "exactnum", "quad")


def _points(pts) -> int:
    """Number of points in one point or an array of points."""
    import numpy as np  # here, so that a traced CLI process imports it in latticesum

    shape = np.shape(pts)
    return shape[0] if len(shape) == 2 else 1


def _resolve(module: str, attr: str):
    """(owner, object) of `latticesum.module.attr`, where attr may be Class.method."""
    owner = importlib.import_module(f"latticesum.{module}")
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, vars(owner)[name]


class Tracer:
    """In-memory spans and per-call counters; wrappers are installed per traced call.

    With ``wrap=False`` nothing is wrapped: the tracer only holds the spans
    of the caller's own roots and of the CLI processes it merges.
    """

    def __init__(self, wrap: bool = True):
        self.wrap = wrap
        self.active = False
        self.spans = []   # [layer, function, start, end, parent index, call id]
        self.counters = {}  # call id -> {key: value}
        self.call_id = -1
        self._stack = []
        self._undo = []
        self._mul_depth = 0
        self._caches = None

    # -- recording ---------------------------------------------------------
    def count(self, key: str, value) -> None:
        bucket = self.counters.setdefault(self.call_id, {})
        if key in MAX_COUNTERS:
            bucket[key] = max(bucket.get(key, 0), value)
        else:
            bucket[key] = bucket.get(key, 0) + value

    def add_span(self, layer, function, start, end, parent=None) -> int:
        self.spans.append([layer, function, start, end, parent, self.call_id])
        return len(self.spans) - 1

    def open(self, layer: str, function: str) -> int:
        idx = self.add_span(layer, function, perf_counter(), None,
                            self._stack[-1] if self._stack else None)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][3] = perf_counter()
        self._stack.pop()

    # -- wrapping ------------------------------------------------------------
    def _span_wrapper(self, fn, layer, function, counter):
        def wrapper(*args, **kwargs):
            idx = self.open(layer, function)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counter is not None:
                for key, value in counter(args, result):
                    self.count(key, value)
            return result
        return functools.wraps(fn)(wrapper)

    def _mul_wrapper(self, fn):
        def wrapper(a, b):
            if self._mul_depth:
                return fn(a, b)
            self._mul_depth += 1
            start = perf_counter()
            try:
                result = fn(a, b)
            finally:
                self._mul_depth -= 1
            self.count("exactnum.cyclo_mul_s", perf_counter() - start)
            self.count("exactnum.cyclo_muls", 1)
            self.count("exactnum.cyclo_order_max", getattr(result, "order", 0))
            return result
        return functools.wraps(fn)(wrapper)

    def _rebind(self, owner, original, replacement) -> None:
        """Replace `original` wherever a latticesum module (or `owner`, a class) binds it."""
        holders = [owner] if isinstance(owner, type) else [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "latticesum" or n.startswith("latticesum."))
        ]
        for holder in holders:
            for name, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, name, replacement)
                    self._undo.append((holder, name, original))

    def install(self) -> None:
        for module, attr, layer, counter in SPANS:
            owner, original = _resolve(module, attr)
            self._rebind(owner, original, self._span_wrapper(original, layer, attr, counter))
        owner, original = _resolve(*CYCLO_MUL)
        self._rebind(owner, original, self._mul_wrapper(original))

    def uninstall(self) -> None:
        while self._undo:
            holder, name, original = self._undo.pop()
            setattr(holder, name, original)

    # -- caches ----------------------------------------------------------------
    def _cache_totals(self) -> dict:
        """Summed lru_cache hits, misses and sizes per module."""
        if self._caches is None:
            self._caches = {}
            for module in CACHE_MODULES:
                mod = importlib.import_module(f"latticesum.{module}")
                self._caches[module] = [
                    obj for obj in vars(mod).values()
                    if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == mod.__name__
                ]
        out = {}
        for module, caches in self._caches.items():
            infos = [c.cache_info() for c in caches]
            out[module] = (sum(i.hits for i in infos), sum(i.misses for i in infos),
                           sum(i.currsize for i in infos))
        return out

    def begin(self, call_id: int, layer: str = UNATTRIBUTED, function: str = "call") -> int:
        """Start a traced call: install the wrappers and open its root span."""
        self.call_id = call_id
        self.active = True
        if self.wrap:
            self._before = self._cache_totals()
            self.install()
        return self.open(layer, function)

    def end(self, root: int) -> None:
        """Close the root span, remove the wrappers and count cache use."""
        self.close(root)
        self.active = False
        if not self.wrap:
            return
        self.uninstall()
        for module, (hits, misses, size) in self._cache_totals().items():
            h0, m0, _ = self._before[module]
            self.count(f"{module}.cache_hits", hits - h0)
            self.count(f"{module}.cache_misses", misses - m0)
            self.count(f"{module}.cache_size", size)
        emcore = sys.modules["latticesum.emcore"]
        self.count("emcore.contexts_cached", len(emcore._CONTEXTS))

    # -- child processes -----------------------------------------------------
    def merge(self, path: str, parent: int) -> None:
        """Add the spans and counters a traced CLI process wrote to `path`."""
        with open(path) as fh:
            child = json.load(fh)
        offset = len(self.spans)
        for layer, function, start, end, par, _ in child["spans"]:
            self.add_span(layer, function, start, end,
                          parent if par is None else par + offset)
        for bucket in child["counters"].values():
            for key, value in bucket.items():
                self.count(key, value)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": {
                str(k): v for k, v in self.counters.items()}}, fh)


def aggregate(spans, counters, call_ids, per: int) -> dict:
    """Self time per layer and counter totals over `call_ids`, divided by `per`.

    Maxima are not divided.  Every known layer and counter is present.
    """
    child = [0.0] * len(spans)
    for layer, _, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    layers = {layer for _, _, layer, _ in SPANS} | {UNATTRIBUTED, CHECK, PROBE, *CLI_LAYERS}
    out = {f"{layer}_s": 0.0 for layer in layers}
    out.update({key: 0 for key in COUNTERS})
    for i, (layer, _, start, end, _, cid) in enumerate(spans):
        if cid in call_ids:
            out[f"{layer}_s"] += (end - start) - child[i]
    for cid in call_ids:
        for key, value in counters.get(cid, {}).items():
            out[key] = max(out[key], value) if key in MAX_COUNTERS else out[key] + value
    terms, hits = out["emcore.operator_terms"], out["emcore.operator_hits"]
    out["emcore.operator_hit_ratio"] = hits / terms if terms else 0.0
    h, m = out["bernoulli1d.cache_hits"], out["bernoulli1d.cache_misses"]
    out["bernoulli1d.cache_hit_ratio"] = h / (h + m) if h + m else 0.0
    for key in out:
        if key not in MAX_COUNTERS and not key.endswith("_ratio"):
            out[key] /= per
    return out


def sympy_import_seconds(importtime_stderr: str) -> float:
    """Cumulative import time of the sympy package from `-X importtime` output."""
    for line in importtime_stderr.splitlines():
        if line.startswith("import time:"):
            fields = line[len("import time:"):].split("|")
            if len(fields) == 3 and fields[2].strip() == "sympy":
                return int(fields[1]) / 1e6
    return 0.0


def _main(argv) -> int:
    out_path, call_id, args = argv[0], int(argv[1]), argv[2:]
    sys.path.insert(0, "src")
    tracer = Tracer()
    tracer.call_id = call_id
    start = perf_counter()
    import latticesum.cli as cli
    tracer.add_span("cli.import", "import latticesum.cli", start, perf_counter())
    root = tracer.begin(call_id, "cli.main", "latticesum.cli.main")
    try:
        code = cli.main(args)
    finally:
        tracer.end(root)
        tracer.dump(out_path)
    return code


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
