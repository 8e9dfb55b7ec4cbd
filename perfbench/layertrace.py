"""A layer trace of the program, installed from outside its source.

`Tracer.install` wraps every public function of the program's modules,
every method of `IntPolynomial` and `RationalSeries`, and the public
methods of the other classes, then rebinds every module attribute that
refers to a wrapped function: ``lucas.jacobi`` and ``factorizer.jacobi``
are both ``numthy.jacobi`` and both get its wrapper.  Aliases such as
``IntPolynomial.__rmul__ = __mul__`` share one wrapper, so calls to one
function are counted together whatever the call site.  `disable` and
`enable` switch every binding back and forth, so that traced and
untraced calls can alternate in one process.

A wrapper records one span (function, parent span, start, end, work) in
in-memory lists; nothing is written until `dump` at the end of the run.
A span's self time is its duration minus the durations of the spans it
called directly.  Inclusive times add up every call, so they would count a
recursive function twice; none of the functions read inclusively recurses.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import types
from time import perf_counter

MODULES = ("numthy", "poly", "cyclotomic", "gauss", "lucas", "series_oracle", "factorizer", "cli")
ARITHMETIC_CLASSES = ("IntPolynomial", "RationalSeries")

# Per-layer metric -> the traced function it reads, or a module prefix
# ending in "." for a whole module.  The suffix says what is read:
# calls, self_s, incl_s, or the work counted by the wrapper.
LAYER_METRICS = {
    "factorizer.trial.self_s": "factorizer.full_factorization",
    "factorizer.prp.calls": "factorizer.is_probable_prime",
    "factorizer.prp.self_s": "factorizer.is_probable_prime",
    "factorizer.hat_f.calls": "factorizer.hat_f",
    "factorizer.hat_f.self_s": "factorizer.hat_f",
    "factorizer.rounding.incl_s": "factorizer.factor_by_rounding",
    "factorizer.polynomials.incl_s": "factorizer.factor_by_polynomials",
    "poly.evaluate.calls": "poly.IntPolynomial.evaluate",
    "poly.evaluate.self_s": "poly.IntPolynomial.evaluate",
    "poly.mul.calls": "poly.IntPolynomial.__mul__",
    "poly.mul.coeff_products": "poly.IntPolynomial.__mul__",
    "poly.mul.self_s": "poly.IntPolynomial.__mul__",
    "poly.exact_div.calls": "poly.IntPolynomial.exact_div",
    "poly.exact_div.self_s": "poly.IntPolynomial.exact_div",
    "cyclotomic.phi_moebius.calls": "cyclotomic.phi_moebius",
    "cyclotomic.phi_moebius.incl_s": "cyclotomic.phi_moebius",
    "cyclotomic.f_poly.calls": "cyclotomic.f_poly",
    "cyclotomic.f_poly.incl_s": "cyclotomic.f_poly",
    "lucas.algorithm_l.calls": "lucas.algorithm_l",
    "lucas.algorithm_l.self_s": "lucas.algorithm_l",
    "lucas.verify_lucas.incl_s": "lucas.verify_lucas",
    "lucas.polys_eval.incl_s": "lucas.aurifeuillian_polys_eval",
    "gauss.algorithm_d.calls": "gauss.algorithm_d",
    "gauss.algorithm_d.self_s": "gauss.algorithm_d",
    "gauss.verify_gauss.incl_s": "gauss.verify_gauss",
    "series_oracle.series_mul.calls": "series_oracle.RationalSeries.__mul__",
    "series_oracle.series_mul.self_s": "series_oracle.RationalSeries.__mul__",
    "series_oracle.exp_like.incl_s": "series_oracle.series_exp_like",
    "series_oracle.sqrt.incl_s": "series_oracle.series_sqrt",
    "numthy.calls": "numthy.",
    "numthy.self_s": "numthy.",
    "cli.self_s": "cli.",
}


def _coeff_products(a, b=None, *rest):
    """Work of a polynomial product: len * len of the operands' coefficients."""
    right = len(b.coeffs) if hasattr(b, "coeffs") else 1
    return len(a.coeffs) * right


WORK = {"poly.IntPolynomial.__mul__": _coeff_products}


class Tracer:
    """In-memory spans of the wrapped program functions."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_work: list[int] = []
        self._stack = [-1]
        self._bindings = []  # (owner, attribute, original, wrapped)

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        work = WORK.get(name)
        ids, parents = self.span_name, self.span_parent
        starts, ends, works, stack = self.span_start, self.span_end, self.span_work, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            amount = work(*args) if work else 0
            i = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            works.append(amount)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap the program's functions and methods and switch tracing on."""
        wrappers = {}
        for short in MODULES:
            module = importlib.import_module(f"aurifeuille.{short}")
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if isinstance(value, types.FunctionType):
                    wrappers[id(value)] = (value, self.wrap(f"{short}.{attr}", value))
                elif isinstance(value, type) and not issubclass(value, BaseException):
                    self._wrap_class(short, value)
        for name, module in list(sys.modules.items()):
            if name != "aurifeuille" and not name.startswith("aurifeuille."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._bindings.append((module, attr, value, hit[1]))
        self.enable()

    def enable(self) -> None:
        for owner, attr, _, wrapped in self._bindings:
            setattr(owner, attr, wrapped)

    def disable(self) -> None:
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    def _wrap_class(self, short: str, cls: type) -> None:
        every_method = cls.__name__ in ARITHMETIC_CLASSES
        done = {}
        for attr, value in list(vars(cls).items()):
            if not every_method and attr.startswith("_"):
                continue
            original, kind = value, None
            if isinstance(value, (classmethod, staticmethod)):
                kind, value = type(value), value.__func__
            if not isinstance(value, types.FunctionType):
                continue
            if id(value) not in done:
                done[id(value)] = self.wrap(f"{short}.{cls.__name__}.{value.__name__}", value)
            wrapper = done[id(value)]
            self._bindings.append((cls, attr, original, kind(wrapper) if kind else wrapper))

    @property
    def span_count(self) -> int:
        return len(self.span_name)

    def aggregate(self, first: int, last: int) -> dict[str, dict]:
        """Calls, self, inclusive time and work per function over spans
        first..last-1, which must be whole top-level calls."""
        child = [0.0] * (last - first)
        for i in range(first, last):
            p = self.span_parent[i]
            if p >= first:
                child[p - first] += self.span_end[i] - self.span_start[i]
        out: dict[str, dict] = {}
        for i in range(first, last):
            name = self.names[self.span_name[i]]
            entry = out.get(name)
            if entry is None:
                entry = out[name] = {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "work": 0}
            dur = self.span_end[i] - self.span_start[i]
            entry["calls"] += 1
            entry["incl_s"] += dur
            entry["self_s"] += dur - child[i - first]
            entry["work"] += self.span_work[i]
        return out

    def dump(self, path) -> None:
        """Write every span, gzip-compressed JSON, in columns."""
        data = {
            "names": self.names,
            "name": self.span_name,
            "parent": self.span_parent,
            "start": self.span_start,
            "end": self.span_end,
            "work": self.span_work,
        }
        with gzip.open(path, "wt") as out:
            json.dump(data, out)


def layer_metrics(per_function: dict[str, dict]) -> dict[str, float]:
    """The per-layer metrics named in LAYER_METRICS from `aggregate` output."""
    out = {}
    for metric, target in LAYER_METRICS.items():
        kind = metric.rsplit(".", 1)[1]
        field = "work" if kind == "coeff_products" else kind
        if target.endswith("."):
            hits = [v for k, v in per_function.items() if k.startswith(target)]
        else:
            hits = [per_function[target]] if target in per_function else []
        out[metric] = sum(v[field] for v in hits)
    return out
