"""Runtime spans around the public entry points of each uqsl2 layer.

Nothing in the program is edited: ``install`` replaces functions and
methods with timing wrappers at run time, from the benchmark's own files.
Each wrapped call opens a span on a stack; when it ends, its duration is
added to the layer's total and subtracted from the enclosing span's self
time. A call into a layer from directly inside the same layer (``a - b``
calling ``a + (-b)``) stays part of the outer span, so ``calls`` counts
entries into the layer.

Fine-grained layers (Laurent multiply, RatFunc operations) run millions of
times per pass, so their spans are folded into per-layer totals as they
close. Spans of the coarse layers (requests, verify suites, normalization)
are kept in memory with their parent and request id and written out at
the end of the traced pass.
"""

import functools
import sys
import time

# Layers whose individual spans are kept; the rest are only aggregated.
KEPT = {"cli.request", "bench.request", "ncore.normalize", "qexpops.verify",
        "gammamod.verify", "exprio.parse"}

# Verify-battery task functions in uqsl2.cli, grouped as in the ROADMAP split.
TASKS = {
    "_module_task": "module",
    "_operator_task": "operator",
    "_closed_form_task": "closed_form",
    "_gamma_task": "gamma",
    "verify_presentation_iso": "algebra",
    "verify_confluence": "algebra",
    "verify_n_definitions": "algebra",
    "verify_n_commutation": "algebra",
    "verify_n_preimages": "algebra",
}


class LayerStats:
    __slots__ = ("calls", "total_s", "self_s", "work", "reduced")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.work = 0      # term pairs / entry multiplies, where defined
        self.reduced = 0   # RatFunc operations off the polynomial fast path


class Tracer:
    """Span stack, per-layer totals and the kept coarse spans of one pass."""

    def __init__(self):
        self.stack = []        # open spans: [layer, child_s, span_id]
        self.stats = {}
        self.tasks = {}        # task group -> inclusive seconds
        self.spans = []        # kept spans: (id, parent, layer, start, end, request)
        self.request = None
        self._kept_open = []   # ids of open kept spans, innermost last
        self._t0 = time.perf_counter()

    def layer(self, name):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = LayerStats()
        return st

    def wrap(self, name, fn, work=None, reduced=None):
        """Return ``fn`` wrapped in a span of layer ``name``."""
        stack = self.stack
        st = self.layer(name)
        keep = name in KEPT
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            if work is not None:
                st.work += work(*args)
            if reduced is not None and reduced(*args):
                st.reduced += 1
            frame = [name, 0.0, None]
            if keep:
                frame[2] = len(self.spans)
                self.spans.append(None)
                self._kept_open.append(frame[2])
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                dt = end - start
                stack.pop()
                st.calls += 1
                st.total_s += dt
                st.self_s += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                if keep:
                    self._kept_open.pop()
                    parent = self._kept_open[-1] if self._kept_open else None
                    self.spans[frame[2]] = (frame[2], parent, name,
                                            round(start - self._t0, 6),
                                            round(end - self._t0, 6),
                                            self.request)

        return wrapper

    def wrap_task(self, group, fn):
        """Inclusive wall time per verify task group; not a layer span."""
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.tasks[group] = self.tasks.get(group, 0.0) + clock() - start

        return wrapper


def _rebind(original, replacement):
    """Point every uqsl2 module global bound to ``original`` at ``replacement``."""
    for modname, module in list(sys.modules.items()):
        if modname == "uqsl2" or modname.startswith("uqsl2."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def _patch_function(tracer, module, attr, layer):
    original = getattr(module, attr)
    _rebind(original, tracer.wrap(layer, original))


def _patch_method(tracer, cls, attr, layer, work=None, reduced=None):
    setattr(cls, attr, tracer.wrap(layer, cls.__dict__[attr], work, reduced))


def install(tracer):
    """Wrap the public entry points of every layer. Call after importing uqsl2.cli."""
    from uqsl2 import cli, exprio, gammamod, ncore, qexpops, qfield, repmod

    LaurentPoly, RatFunc = qfield.LaurentPoly, qfield.RatFunc
    one = qfield._ONE_P

    def laurent_pairs(a, b):
        return len(a.terms) * len(b.terms) if type(b) is LaurentPoly else 0

    def off_fast_path(a, b=None):
        # the polynomial fast path needs both operands with denominator 1
        return a.den != one or (type(b) is RatFunc and b.den != one)

    for attr in ("__mul__", "__rmul__"):
        _patch_method(tracer, LaurentPoly, attr, "qfield.laurent_mul",
                      work=laurent_pairs)
    for attr in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__"):
        _patch_method(tracer, RatFunc, attr, "qfield.ratfunc_op",
                      reduced=off_fast_path)
    for attr in ("__truediv__", "__rtruediv__", "inverse"):
        _patch_method(tracer, RatFunc, attr, "qfield.ratfunc_op",
                      reduced=lambda *args: True)
    for cls in (LaurentPoly, RatFunc):
        _patch_method(tracer, cls, "evaluate", "qfield.evaluate")

    _patch_function(tracer, exprio, "parse", "exprio.parse")

    Algebra = ncore.AlgebraElement

    def pbw_pairs(a, b):
        return len(a.terms) * len(b.terms) if type(b) is Algebra else 0

    _patch_method(tracer, Algebra, "__mul__", "ncore.pbw_mul", work=pbw_pairs)
    for attr in ("normalize_chevalley", "from_equitable"):
        _patch_function(tracer, ncore, attr, "ncore.normalize")

    Matrix = repmod.Matrix

    def entry_mults(a, b):
        return a.nrows * a.ncols * b.ncols if type(b) is Matrix else 0

    _patch_method(tracer, Matrix, "__mul__", "repmod.matmul", work=entry_mults)
    _patch_method(tracer, Matrix, "inverse", "repmod.inverse")

    for attr in ("verify_conjugation_suite", "verify_relation_rewrites",
                 "verify_closed_form"):
        _patch_function(tracer, qexpops, attr, "qexpops.verify")
    _patch_function(tracer, gammamod, "verify_gamma", "gammamod.verify")

    for attr, group in TASKS.items():
        setattr(cli, attr, tracer.wrap_task(group, getattr(cli, attr)))
