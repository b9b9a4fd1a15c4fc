"""Weight sequences a_1, a_2, ... of positive rationals.

Four built-in families (ones, linear, reciprocal powers of order 1..1000,
q-scaled) plus finite custom lists, the Fraction power sums
sum_{m<=n} a_m^j that the tests hold the integer routes' power sums
against, and _scaled_weights, the one read of a_1..a_n as scaled integers
that the integer routes, the laws and the oracle share.  Configurations
round-trip through a small JSON schema.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .exact import _MAX_LITERAL_EXPONENT, _over_lcm, _require_int, format_rational, parse_rational

__all__ = [
    "WeightConfigError",
    "WeightSequence",
    "OnesWeights",
    "LinearWeights",
    "ZetaWeights",
    "QModifiedWeights",
    "CustomWeights",
    "weight_at",
    "power_sum",
    "parse_weight_config",
    "load_weight_config",
    "builtin_weights",
]


class WeightConfigError(ValueError):
    """Malformed or invalid weight configuration."""


class WeightSequence:
    """Base class; concrete families implement term(m) for m >= 1."""

    def term(self, m: int) -> Fraction:
        raise NotImplementedError

    def upper_index(self) -> int | None:
        """Largest valid index, or None when the sequence is unbounded."""
        return None

    def config(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class OnesWeights(WeightSequence):
    def term(self, m: int) -> Fraction:
        return Fraction(1)

    def config(self) -> dict:
        return {"kind": "ones"}


@dataclass(frozen=True)
class LinearWeights(WeightSequence):
    def term(self, m: int) -> Fraction:
        return Fraction(m)

    def config(self) -> dict:
        return {"kind": "linear"}


@dataclass(frozen=True)
class ZetaWeights(WeightSequence):
    """a_m = 1/m**order, order an integer in 1..1000; its e/h sums are truncated
    multiple zeta values and its j-th power sum up to n is H_n^(order*j)."""

    order: int

    def __post_init__(self):
        order = self.order
        if isinstance(order, bool) or not isinstance(order, int):
            shown = format_rational(order) if isinstance(order, Fraction) else repr(order)
            raise WeightConfigError(f"zeta order must be an integer, got {shown}")
        if not 1 <= order <= _MAX_LITERAL_EXPONENT:
            raise WeightConfigError(f"zeta order {order} is outside 1..{_MAX_LITERAL_EXPONENT}")

    def term(self, m: int) -> Fraction:
        return Fraction(1, m**self.order)

    def config(self) -> dict:
        return {"kind": "zeta", "m": self.order}


@dataclass(frozen=True)
class QModifiedWeights(WeightSequence):
    """a_m replaced by a_m * q**m over a base sequence."""

    base: WeightSequence
    q: Fraction

    def __post_init__(self):
        object.__setattr__(self, "q", Fraction(self.q))
        if self.q <= 0:
            raise WeightConfigError("q_modified weights need q > 0")

    def term(self, m: int) -> Fraction:
        return self.base.term(m) * self.q**m

    def upper_index(self) -> int | None:
        return self.base.upper_index()

    def config(self) -> dict:
        return {"kind": "q_modified", "q": format_rational(self.q), "base": self.base.config()}


@dataclass(frozen=True)
class CustomWeights(WeightSequence):
    """Finite explicit list; indexing past the end is an error."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        vals = tuple(Fraction(v) for v in self.values)
        if not vals:
            raise WeightConfigError("custom weights need at least one value")
        if any(v <= 0 for v in vals):
            raise WeightConfigError("weights must be positive rationals")
        object.__setattr__(self, "values", vals)

    def term(self, m: int) -> Fraction:
        if m > len(self.values):
            raise WeightConfigError(
                f"custom weight index {m} out of range (sequence has {len(self.values)} values)"
            )
        return self.values[m - 1]

    def upper_index(self) -> int | None:
        return len(self.values)

    def config(self) -> dict:
        return {"kind": "custom", "values": [format_rational(v) for v in self.values]}


def weight_at(seq: WeightSequence, m: int) -> Fraction:
    """a_m, validating the index."""
    _require_int("weight index", m, 1)
    return seq.term(m)


def _scaled_weights(seq: WeightSequence, n: int) -> tuple[int, list[int]]:
    """L and the integers L*a_1, ..., L*a_n, with L the lcm of the
    denominators of a_1..a_n; each weight is read once."""
    return _over_lcm(weight_at(seq, m) for m in range(1, n + 1))


def power_sum(seq: WeightSequence, n: int, j: int) -> Fraction:
    """sum_{m=1}^{n} a_m**j, term by term; CustomWeights refuses an n past its end."""
    _require_int("n", n, 0)
    _require_int("j", j, 1)
    return sum((weight_at(seq, m) ** j for m in range(1, n + 1)), Fraction(0))


_ALLOWED_KEYS = {
    "ones": {"kind"},
    "linear": {"kind"},
    "zeta": {"kind", "m"},
    "custom": {"kind", "values"},
    "q_modified": {"kind", "q", "base"},
}


def _config_rational(value, what: str) -> Fraction:
    """A JSON number or rational string as a Fraction; booleans and
    non-finite numbers are refused.  JSON text reaches here with its
    decimal numbers already exact (parse_weight_config)."""
    if isinstance(value, bool):
        raise WeightConfigError(f"bad {what} {value!r}")
    try:
        return parse_rational(value) if isinstance(value, str) else Fraction(value)
    except (ValueError, TypeError, OverflowError) as exc:
        raise WeightConfigError(f"bad {what} {value!r}") from exc


def _build(cfg, depth: int = 0) -> WeightSequence:
    if depth > 8:
        raise WeightConfigError("weight config nesting too deep")
    if not isinstance(cfg, dict):
        raise WeightConfigError(f"weight config must be an object, got {type(cfg).__name__}")
    kind = cfg.get("kind")
    if kind not in _ALLOWED_KEYS:
        raise WeightConfigError(
            f"unknown weight kind {kind!r}; expected one of {sorted(_ALLOWED_KEYS)}"
        )
    extra = set(cfg) - _ALLOWED_KEYS[kind]
    if extra:
        raise WeightConfigError(f"unexpected keys for kind {kind!r}: {sorted(extra)}")
    if kind == "ones":
        return OnesWeights()
    if kind == "linear":
        return LinearWeights()
    if kind == "zeta":
        if "m" not in cfg:
            raise WeightConfigError("zeta weights need the key 'm'")
        return ZetaWeights(cfg["m"])
    if kind == "custom":
        if "values" not in cfg or not isinstance(cfg["values"], list):
            raise WeightConfigError("custom weights need a list under 'values'")
        return CustomWeights(tuple(_config_rational(v, "custom weight value")
                                   for v in cfg["values"]))
    # q_modified
    if "q" not in cfg or "base" not in cfg:
        raise WeightConfigError("q_modified weights need the keys 'q' and 'base'")
    q = _config_rational(cfg["q"], "q value")
    return QModifiedWeights(_build(cfg["base"], depth + 1), q)


def parse_weight_config(source) -> WeightSequence:
    """Build a weight sequence from a JSON string or an already-parsed dict.

    In JSON text a number with a fraction or exponent is the exact decimal
    as written (0.1 is 1/10, not its nearest binary double), read by the
    length-capped parse_rational; a float in a dict keeps its binary value.
    """
    if isinstance(source, (str, bytes)):
        try:
            cfg = json.loads(source, parse_float=parse_rational)
        except json.JSONDecodeError as exc:
            raise WeightConfigError(f"weight config is not valid JSON: {exc}") from exc
        except ValueError as exc:
            raise WeightConfigError(f"bad number in weight config: {exc}") from exc
        except RecursionError as exc:
            raise WeightConfigError("weight config nesting too deep") from exc
    else:
        cfg = source
    return _build(cfg)


def load_weight_config(path: str) -> WeightSequence:
    """Read a weight configuration JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise WeightConfigError(f"cannot read weight config {path!r}: {exc}") from exc
    return parse_weight_config(text)


def builtin_weights(name: str) -> WeightSequence:
    """Resolve 'ones', 'linear', or 'zeta:<m>' to a weight sequence."""
    if name == "ones":
        return OnesWeights()
    if name == "linear":
        return LinearWeights()
    if name.startswith("zeta:"):
        try:
            order = int(name.split(":", 1)[1])
        except ValueError as exc:
            raise WeightConfigError(f"bad zeta order in {name!r}") from exc
        return ZetaWeights(order)
    raise WeightConfigError(
        f"unknown builtin weights {name!r}; expected ones, linear, or zeta:<m>"
    )
