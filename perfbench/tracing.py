"""Spans and counters recorded from outside the program.

``Tracer.spans()`` wraps public functions and methods of kholo's modules for
the duration of a ``with`` block and puts the originals back after it, so
untraced runs pay nothing. A function imported with ``from ... import`` is
bound again in every kholo module that holds it, since the importer calls its
own binding (``kholo.cli.discriminant``, ``kholo.polynomials.terms_mul``).

A span's self time is its duration minus the durations of the spans it
encloses, so self times of all spans add up to the traced request time.
"""

import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, attribute or Class.method, span name)
SPANS = [
    ("kholo.cli", "main", "cli.main"),
    ("kholo.exprio", "parse_poly", "exprio.parse_poly"),
    ("kholo.exprio", "print_poly", "exprio.print_poly"),
    ("kholo.reports", "dumps", "reports.encode"),
    ("kholo.polynomials", "terms_mul", "polynomials.terms_mul"),
    ("kholo.polynomials", "LinearSubst.apply", "polynomials.LinearSubst.apply"),
    ("kholo.polynomials", "try_divide", "polynomials.try_divide"),
    ("kholo.cartan", "reconstruct_from_real_part", "cartan.reconstruct_from_real_part"),
    ("kholo.cartan", "check_pluriharmonic", "cartan.check_pluriharmonic"),
    ("kholo.cartan", "verify_g_holomorphic", "cartan.verify_g_holomorphic"),
    ("kholo.eliminate", "eliminate_annihilator", "eliminate.eliminate_annihilator"),
    ("kholo.eliminate", "search_basepoint", "eliminate.search_basepoint"),
    ("kholo.eliminate", "bareiss_determinant", "eliminate.bareiss_determinant"),
    ("kholo.branches", "covering_check", "branches.covering_check"),
    ("kholo.branches", "discriminant", "branches.discriminant"),
    ("kholo.branches", "fiber_count", "branches.fiber_count"),
    ("kholo.branches", "aberth_roots", "branches.aberth_roots"),
    ("kholo.branches", "locus_membership", "branches.locus_membership"),
    ("kholo.branches", "distinct_root_count_exact", "branches.distinct_root_count_exact"),
    ("kholo.simplicial", "SimplicialComplex.__init__", "simplicial.SimplicialComplex"),
    ("kholo.simplicial", "Subcomplex.__init__", "simplicial.Subcomplex"),
    ("kholo.simplicial", "route_path", "simplicial.route_path"),
    ("kholo.simplicial", "verify_avoidance", "simplicial.verify_avoidance"),
]

# counted as "calls" as well as timed
CALLS = ("polynomials.terms_mul", "polynomials.LinearSubst.apply", "polynomials.try_divide",
         "eliminate.bareiss_determinant", "branches.aberth_roots")

COUNTERS = ("polynomials.terms_mul.terms_out", "eliminate.search_basepoint.subst_calls",
            "eliminate.sylvester_size_max", "simplicial.top_pairs")

GAUSSIAN_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                "__truediv__", "__rtruediv__", "__neg__", "__pow__")


def _kholo_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "kholo" or name.startswith("kholo."))]


class Tracer:
    """Self time per span name and counters, while installed."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._active = defaultdict(int)
        self._children = []          # enclosed time, one slot per open span
        self._restore = []

    def _after(self, name, args, kwargs, result):
        # size counters read at the layer boundary
        if name == "polynomials.terms_mul":
            self.counts["polynomials.terms_mul.terms_out"] += len(result)
        elif name == "polynomials.LinearSubst.apply" and self._active["eliminate.search_basepoint"]:
            self.counts["eliminate.search_basepoint.subst_calls"] += 1
        elif name == "eliminate.bareiss_determinant":
            key = "eliminate.sylvester_size_max"
            self.counts[key] = max(self.counts[key], len(args[0]))
        elif name == "simplicial.SimplicialComplex":
            tops = len(kwargs["top"] if "top" in kwargs else args[3])
            self.counts["simplicial.top_pairs"] += tops * (tops - 1) // 2

    def _wrap(self, name, fn):
        children, active = self._children, self._active

        def span(*args, **kwargs):
            active[name] += 1
            children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self.self_s[name] += elapsed - children.pop()
                if children:
                    children[-1] += elapsed
                active[name] -= 1
            if name in CALLS:
                self.counts[name + ".calls"] += 1
            self._after(name, args, kwargs, result)
            return result

        return span

    def _replace(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _rebind(self, original, new):
        for module in _kholo_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._replace(module, attr, new)

    @contextmanager
    def spans(self):
        """Record spans and counters inside the block."""
        self._install_spans()
        try:
            yield
        finally:
            self._uninstall()

    @contextmanager
    def op_counter(self):
        """Count GaussianRational arithmetic inside the block (pure kernel only)."""
        self._install_op_counter()
        try:
            yield
        finally:
            self._uninstall()

    def _install_spans(self):
        import kholo.cli  # noqa: F401 - loads every module that holds a target
        import kholo.reports

        targets = list(SPANS) + [("kholo.reports", attr, "reports.encode")
                                 for attr in vars(kholo.reports) if attr.endswith("_to_doc")]
        for module_name, attr, name in targets:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                self._replace(cls, method, self._wrap(name, getattr(cls, method)))
            else:
                original = getattr(owner, attr)
                self._rebind(original, self._wrap(name, original))

    def _install_op_counter(self):
        # a compiled kernel's class cannot be patched; its count stays 0
        from kholo import rationals

        if rationals.COEFF_BACKEND != "python":
            return
        cls = rationals.GaussianRational
        counts = self.counts

        def counted(fn):
            def op(*args):
                counts["rationals.ops"] += 1
                return fn(*args)
            return op

        for attr in GAUSSIAN_OPS:
            self._replace(cls, attr, counted(getattr(cls, attr)))

    def _uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)
