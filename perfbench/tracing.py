"""Outside-in tracer for mdreps: wraps the public functions of each module,
and the RF and ExactMatrix operators, from outside the package.

Every wrapped call is timed.  Self time is a call's duration minus the time
covered by the wrapped calls nested inside it, so the layer self times of a
pass add up to the time spent inside the package.  Each call also counts
towards its name's call total.

Spans (id, parent id, name, start, end, self time) are kept in memory and
written out by ``write_spans``.  Scalar-layer calls run to hundreds of
thousands per pass, so they get no span of their own: their time and count
still go to the aggregates, and their time is still subtracted from the
enclosing span's self time.

A function is wrapped once per module namespace that binds it (for example
``embed_at`` as bound by matrix, presentations, structure, catalog and mdd),
so calls from inside a module are seen too.  Wrappers return the wrapped
result unchanged.

Besides times and calls the tracer keeps the counts behind the waste
ratios: the reports ``verify`` returns, the products ``generated_algebra``
attempts, and the ``char_poly`` calls that ``algebra_dims`` makes.
"""

import contextlib
import functools
import json
import time
import types

LAYERS = ("scalar", "matrix", "presentations", "catalog", "mdd", "clifford",
          "structure", "ccwg", "cli")

_RF_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
           "__truediv__", "__rtruediv__", "__neg__", "__pow__", "inverse")
_MATRIX_OPS = ("__add__", "__sub__", "__mul__", "__rmul__", "__neg__",
               "__eq__")


class _Agg:
    __slots__ = ("calls", "self_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0


def _count_reports(counts, args, reports):
    counts["presentations.reports"] += len(reports)
    counts["presentations.nonzero_reports"] += \
        sum(1 for r in reports if not r.is_zero)


def _count_products(counts, args, basis):
    # products attempted = the identity, each generator, and both products
    # of every basis element with every generator
    g, m = len(args[0]), len(basis)
    counts["generated_algebra.basis"] += m
    counts["generated_algebra.attempts"] += 1 + g + 2 * g * m


def _count_split_centre(counts, args, out):
    if out["center_ss"] > 1:
        counts["algebra_dims.split_center"] += 1


# traced name -> fn(counts, args, result), run after each recorded call
_RESULT_COUNTS = {
    "presentations.verify": _count_reports,
    "structure.generated_algebra": _count_products,
    "structure.algebra_dims": _count_split_centre,
}
_COUNT_KEYS = ("presentations.reports", "presentations.nonzero_reports",
               "generated_algebra.basis", "generated_algebra.attempts",
               "algebra_dims.split_center", "algebra_dims.char_poly")


class Tracer:
    """Wraps a freshly imported ``mdreps`` package; ``on`` gates recording."""

    def __init__(self):
        self.on = False
        self.aggs = {}
        self.counts = dict.fromkeys(_COUNT_KEYS, 0)
        self.spans = []
        self.names = []
        self._name_ids = {}
        # a frame is [child seconds, span id, traced name]; the base frame
        # owns span 0
        self._stack = [[0.0, 0, None]]
        self._next_id = 1
        self._installed = []

    # -- bookkeeping ------------------------------------------------------

    def _agg(self, name):
        agg = self.aggs.get(name)
        if agg is None:
            agg = self.aggs[name] = _Agg()
        return agg

    def _name_id(self, name):
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def reset(self):
        """Zero aggregates and counts (spans are kept)."""
        for agg in self.aggs.values():
            agg.calls, agg.self_s = 0, 0.0
        self.counts = dict.fromkeys(_COUNT_KEYS, 0)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name, via, keep_span):
        agg = self._agg(name)
        stack = self._stack
        clock = time.perf_counter
        result_counts = _RESULT_COUNTS.get(name)
        # char_poly as bound by structure: count the calls algebra_dims makes
        spectrum_probe = name == "matrix.char_poly" and via == "structure"
        name_id = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            if spectrum_probe and any(f[2] == "structure.algebra_dims"
                                      for f in stack):
                tracer.counts["algebra_dims.char_poly"] += 1
            parent = stack[-1]
            if keep_span:
                span_id = tracer._next_id
                tracer._next_id += 1
            else:
                span_id = parent[1]
            frame = [0.0, span_id, name]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                agg.calls += 1
                agg.self_s += dur - frame[0]
                parent[0] += dur
                if keep_span:
                    tracer.spans.append((span_id, parent[1], name_id,
                                         t0, t1, dur - frame[0]))
            if result_counts is not None:
                result_counts(tracer.counts, args, result)
            return result

        return wrapper

    def _set(self, owner, attr, new):
        self._installed.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, pkg):
        """Wrap every public mdreps function in every mdreps namespace that
        binds it, and the RF / ExactMatrix operators on their classes."""
        prefix = pkg.__name__ + "."
        namespaces = [(pkg, "mdreps")]
        namespaces += [(getattr(pkg, layer), layer) for layer in LAYERS]
        for mod, via in namespaces:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") \
                        or not isinstance(obj, types.FunctionType):
                    continue
                owner = getattr(obj, "__module__", "") or ""
                if not owner.startswith(prefix):
                    continue
                layer = owner[len(prefix):]
                if layer not in LAYERS:
                    continue
                name = "%s.%s" % (layer, obj.__name__)
                self._set(mod, attr,
                          self._wrap(obj, name, via, layer != "scalar"))
        RF = pkg.scalar.RF
        for attr in _RF_OPS:
            self._set(RF, attr, self._wrap(RF.__dict__[attr],
                                           "scalar.RF." + attr, "scalar",
                                           False))
        M = pkg.matrix.ExactMatrix
        for attr, obj in list(vars(M).items()):
            if attr.startswith("_") and attr not in _MATRIX_OPS:
                continue
            name = "matrix.ExactMatrix." + attr
            if isinstance(obj, classmethod):
                wrapped = classmethod(self._wrap(obj.__func__, name, "matrix",
                                                 True))
            elif isinstance(obj, types.FunctionType):
                wrapped = self._wrap(obj, name, "matrix", True)
            else:
                continue
            self._set(M, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []

    # -- spans ------------------------------------------------------------

    @contextlib.contextmanager
    def root(self, label):
        """Record while the body runs, under a root span for one job."""
        span_id = self._next_id
        self._next_id += 1
        frame = [0.0, span_id, None]
        self._stack.append(frame)
        self.on = True
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.on = False
            self._stack.pop()
            self.spans.append((span_id, 0, self._name_id("job:" + label),
                               t0, t1, t1 - t0 - frame[0]))

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span_id, parent, name_id, t0, t1, own in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "name": self.names[name_id],
                                     "start": t0, "end": t1,
                                     "self": own}) + "\n")

