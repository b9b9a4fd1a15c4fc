"""Per-layer tracing of the ztt package from outside it.

``Tracer.install()`` replaces chosen functions of each ztt module with
timing wrappers at every name through which they are reached: the module
attribute, every ``from ... import`` copy in other ztt modules (found by
identity), module-level dicts such as ``ztt.theta.ALGORITHMS`` that hold
them, and the ``Poly``/``Series`` multiplication class attributes.
``Tracer.restore()`` puts every original back.  No file under ``src/`` is
touched.

Each wrapped call is a span.  A span's inclusive time is its duration; its
self time is the duration minus the time its child spans cover.  A call
that re-enters the span already on top of the stack (recursion, or
``theta_newton`` calling ``theta_newton_ladder``, which share a span name)
is folded into that span.  Spans are aggregated by name in memory, never
written per call.
"""

from __future__ import annotations

import math
import sys
from time import perf_counter

# (span name, module, attribute).  Spans sit at the functions the per-layer
# metrics name; work in any other function is folded into its caller.
SPANS = (
    ("cli.main", "ztt.cli", "main"),
    ("exact.format_rational", "ztt.exact", "format_rational"),
    ("exact.parse_rational", "ztt.exact", "parse_rational"),
    ("exact.det_exact", "ztt.exact", "det_exact"),
    ("exact.bell_complete", "ztt.exact", "bell_complete"),
    ("weights.power_sum", "ztt.weights", "power_sum"),
    ("weights.weight_at", "ztt.weights", "weight_at"),
    ("theta.theta_newton", "ztt.theta", "theta_newton"),
    ("theta.theta_newton", "ztt.theta", "theta_newton_ladder"),
    ("theta.theta_product", "ztt.theta", "theta_product"),
    ("theta.theta_bell", "ztt.theta", "theta_bell"),
    ("theta.theta_det", "ztt.theta", "theta_det"),
    ("theta.theta_convolution", "ztt.theta", "theta_convolution"),
    ("theta.eh_sums", "ztt.theta", "elementary_symmetric"),
    ("theta.eh_sums", "ztt.theta", "complete_homogeneous"),
    ("oracle.theta_bruteforce", "ztt.oracle", "theta_bruteforce"),
    ("oracle.theta_marginal_bruteforce", "ztt.oracle", "theta_marginal_bruteforce"),
    ("distributions.s_pmf", "ztt.distributions", "s_pmf"),
    ("distributions.moments", "ztt.distributions", "moments"),
    ("distributions.limit_scan", "ztt.distributions", "limit_scan"),
    ("distributions.bernstein_pgf", "ztt.distributions", "bernstein_pgf"),
    ("distributions.s_infinity_2_pmf", "ztt.distributions", "s_infinity_2_pmf"),
    ("verify.run_suite", "ztt.verify", "run_suite"),
    ("verify.identities", "ztt.verify", "suite_identities"),
    ("verify.marginals", "ztt.verify", "suite_marginals"),
    ("verify.sumtheorem", "ztt.verify", "suite_sumtheorem"),
)

# (span name, class attribute) on ztt.exact classes
METHOD_SPANS = (
    ("exact.Poly.mul", "Poly", "__mul__"),
    ("exact.Poly.mul", "Poly", "__rmul__"),
    ("exact.Series.mul", "Series", "__mul__"),
)

THETA_ALGOS = ("theta.theta_newton", "theta.theta_product", "theta.theta_bell",
               "theta.theta_det", "theta.theta_convolution")
ORACLE_SPANS = ("oracle.theta_bruteforce", "oracle.theta_marginal_bruteforce")

# the package module comes last, so a dict it re-exports, such as
# ALGORITHMS, is labelled by the module that defines it
ZTT_MODULES = ("ztt.cli", "ztt.distributions", "ztt.exact", "ztt.oracle",
               "ztt.theta", "ztt.verify", "ztt.weights", "ztt")


def bits(x) -> int:
    """Largest of numerator and denominator bit lengths of a rational
    (or of the coefficient of a graded value); 0 for anything else."""
    num = getattr(x, "numerator", None)
    if num is None:
        coeff = getattr(x, "coeff", None)
        return bits(coeff) if coeff is not None else 0
    return max(abs(num).bit_length(), x.denominator.bit_length())


def _poly_bits(p) -> int:
    coeffs = getattr(p, "coeffs", None)
    if coeffs is None:
        return bits(p)
    return max((bits(c) for c in coeffs), default=0)


class Tracer:
    """Span aggregation plus the counters the per-layer metrics need."""

    def __init__(self):
        # name -> [calls, inclusive seconds, self seconds, active depth]
        self.stats: dict[str, list] = {}
        self.stack: list[list] = []  # frames: [name, child seconds]
        self.counters = {
            "theta.max_coeff_bits": 0,
            "exact.Poly.max_operand_bits": 0,
            "oracle.multisets_enumerated": 0,
            "oracle.budget_refusals": 0,
            "verify.checks_failed": 0,
        }
        self._patches: list[tuple] = []

    # -- spans ------------------------------------------------------------

    def wrap(self, name: str, fn, before=None, after=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self.stack
        tracer = self

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            if before is not None:
                before(tracer, args)
            frame = [name, 0.0]
            stack.append(frame)
            stats[3] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._raised(name, exc)
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stats[3] -= 1
                stats[0] += 1
                stats[2] += dt - frame[1]
                if not stats[3]:
                    stats[1] += dt
                if stack:
                    stack[-1][1] += dt
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    def _raised(self, name, exc) -> None:
        if name in ORACLE_SPANS and type(exc).__name__ == "BudgetExceededError":
            self.counters["oracle.budget_refusals"] += 1

    # -- counter hooks ------------------------------------------------------

    def _theta_result(self, args, kwargs, result) -> None:
        # theta_newton_ladder, called on its own, returns a list of Poly
        polys = result if isinstance(result, list) else [result.poly]
        b = max(_poly_bits(p) for p in polys)
        if b > self.counters["theta.max_coeff_bits"]:
            self.counters["theta.max_coeff_bits"] = b

    def _oracle_result(self, args, kwargs, result) -> None:
        n = args[1] if len(args) > 1 else kwargs["n"]
        k = args[2] if len(args) > 2 else kwargs["k"]
        self.counters["oracle.multisets_enumerated"] += math.comb(n + k - 1, k)

    def _suite_result(self, args, kwargs, result) -> None:
        self.counters["verify.checks_failed"] += sum(not r.passed for r in result)

    def _mul_operands(self, args) -> None:
        b = max(_poly_bits(args[0]), _poly_bits(args[1]))
        if b > self.counters["exact.Poly.max_operand_bits"]:
            self.counters["exact.Poly.max_operand_bits"] = b

    def _hooks(self, name):
        if name in THETA_ALGOS:
            return None, Tracer._theta_result
        if name in ORACLE_SPANS:
            return None, Tracer._oracle_result
        if name == "verify.run_suite":
            return None, Tracer._suite_result
        if name == "exact.Poly.mul":
            return Tracer._mul_operands, None
        return None, None

    # -- patching ---------------------------------------------------------

    def _set(self, label, container, key, value) -> None:
        if isinstance(container, dict):
            self._patches.append((label, container, key, container[key]))
            container[key] = value
        else:
            self._patches.append((label, container, key, vars(container)[key]))
            setattr(container, key, value)

    def install(self) -> None:
        """Wrap every span function at every name that reaches it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = [sys.modules[m] for m in ZTT_MODULES]
        for name, modname, attr in SPANS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self.wrap(name, original, *self._hooks(name))
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._set(f"{mod.__name__}.{key}", mod, key, wrapper)
                    elif isinstance(val, dict) and not key.startswith("__"):
                        for dkey, dval in list(val.items()):
                            if dval is original:
                                self._set(f"{mod.__name__}.{key}[{dkey}]",
                                          val, dkey, wrapper)
        exact = sys.modules["ztt.exact"]
        for name, cls_name, attr in METHOD_SPANS:
            cls = getattr(exact, cls_name)
            self._set(f"ztt.exact.{cls_name}.{attr}", cls, attr,
                      self.wrap(name, vars(cls)[attr], *self._hooks(name)))

    def restore(self) -> None:
        """Put back every original, newest patch first."""
        while self._patches:
            _, container, key, original = self._patches.pop()
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def patched_names(self) -> set[str]:
        """Every name currently patched, as 'module.attr', 'module.DICT[key]'
        or 'module.Class.attr'."""
        return {label for label, *_ in self._patches}
