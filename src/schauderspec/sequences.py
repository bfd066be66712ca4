"""Scalar sequence rules and strictly increasing index sequences.

Rules are lazy descriptions of infinite (or finite) sequences indexed
from 1.  Named families keep rational parameters exact, so window
equality checks elsewhere in the package stay exact rather than
floating point.  Each named family also answers, from its exact
parameters, every question the rest of the package decides with; this
module is the one place they are answered:

* ``limit()`` -- the limit of the sequence, when the family determines it;
* ``tail_abs_sum(start)`` -- an upper bound on ``sum_{n>=start} |a_n|``,
  ``math.inf`` when the tail provably diverges, ``None`` when unknown;
* ``attains_zero(skip)`` -- whether a term past the first ``skip`` is 0;
* ``value_set(skip)`` -- the values of those terms, when finitely many;
* ``is_real(skip, nonnegative)`` -- whether they are all real (and >= 0);
* ``abs_nonincreasing(skip, strict)`` -- whether ``|a_n|`` does not rise
  (strictly falls) over them.

Composite rules (scaled, affine, offset, repeated, explicit-then) derive
their answers from their inner rules.  A rule built from a bare callable
still evaluates, but answers ``None`` to all but its limit hint.  So
``deflate`` and the orbit-walk certificates refuse it, naming the premise
it leaves undecided.  The one zero decision (``spectral._zero_weight``)
reads its first weights for a witness only, and refuses it when none of
them is 0.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .errors import UnsupportedClassError
from .records import record

Scalar = Union[int, float, complex, Fraction]

#: Cap on the searches that place what a fact implies: a zero that cancels a
#: vanishing rule's base, or where weights known to rise first do.
_ZERO_SCAN_CAP = 200_000


def conjugate(z: Scalar) -> Scalar:
    """Complex conjugate that leaves exact reals exact."""
    if isinstance(z, complex):
        return z.conjugate()
    return z


def log_abs(z: Scalar) -> float:
    """log|z|, safe for exact rationals far outside float range."""
    # exact floats and complexes skip the isinstance of the Fraction ABC
    if (type(z) is not float and type(z) is not complex
            and isinstance(z, (int, Fraction))):
        if z == 0:
            raise ValueError("log of zero")
        return math.log(abs(z.numerator)) - math.log(z.denominator)
    a = abs(z)
    if a == 0.0:
        raise ValueError("log of zero")
    return math.log(a)


def _abs_exact(z: Scalar):
    """|z| staying in exact arithmetic for real inputs."""
    if isinstance(z, complex):
        return abs(z)
    return -z if z < 0 else z


def _real(v: Scalar, nonnegative: bool = False) -> bool:
    """Whether ``v`` is real, and ``>= 0`` when ``nonnegative``."""
    return not isinstance(v, complex) and (not nonnegative or v >= 0)


class ScalarRule:
    """A lazily evaluated scalar sequence ``n >= 1``.

    A fact that takes ``skip`` is about the terms past the first ``skip``; None: unknown.
    """

    def value(self, n: int) -> Scalar:
        raise NotImplementedError

    def values(self, count: int, start: int = 1) -> list:
        return [self.value(n) for n in range(start, start + count)]

    def length(self) -> Optional[int]:
        """Number of terms for finite rules, ``None`` for infinite ones."""
        return None

    def limit(self) -> Optional[Scalar]:
        return None

    def tail_abs_sum(self, start: int) -> Optional[float]:
        return None

    def attains_zero(self, skip: int = 0) -> Optional[bool]:
        """Whether some term is exactly zero."""
        return None

    def value_set(self, skip: int = 0) -> Optional[tuple]:
        """The values the terms take, when finitely many, each typed as the rule
        returns it: 3 and 3.0 may both occur, as they part under a factor 1/10."""
        return None

    def is_real(self, skip: int = 0, nonnegative: bool = False) -> Optional[bool]:
        """Whether no term is complex, and none negative when ``nonnegative``."""
        return None

    def abs_nonincreasing(self, skip: int = 0, strict: bool = False) -> Optional[bool]:
        """Whether ``|value(n)| >= |value(n + 1)|`` (``>`` if ``strict``) for all ``n > skip``."""
        return None

    def describe(self) -> str:
        return type(self).__name__


@record
class ConstantRule(ScalarRule):
    c: Scalar

    def value(self, n: int) -> Scalar:
        if n < 1:
            raise ValueError("rule index must be >= 1")
        return self.c

    def limit(self):
        return self.c

    def tail_abs_sum(self, start: int):
        return 0.0 if self.c == 0 else math.inf

    def attains_zero(self, skip=0):
        return self.c == 0

    def value_set(self, skip=0):
        return (self.c,)

    def is_real(self, skip=0, nonnegative=False):
        return _real(self.c, nonnegative)

    def abs_nonincreasing(self, skip=0, strict=False):
        return not strict

    def describe(self):
        return f"constant {self.c}"


@record
class GeometricRule(ScalarRule):
    """``a_n = scale * ratio**n``."""

    scale: Scalar
    ratio: Scalar

    def value(self, n: int) -> Scalar:
        if n < 1:
            raise ValueError("rule index must be >= 1")
        return self.scale * self.ratio ** n

    def limit(self):
        if self.scale == 0:
            return 0
        r = abs(self.ratio)
        if r < 1:
            return 0
        if self.ratio == 1:
            return self.scale
        return None

    def tail_abs_sum(self, start: int):
        if self.scale == 0:
            return 0.0
        r = abs(self.ratio)
        if r == 0:
            return 0.0
        if r >= 1:
            return math.inf
        # |scale| r^start / (1 - r), in log space to dodge underflow
        log_head = log_abs(self.scale) + start * math.log(r)
        return math.exp(log_head) / (1.0 - r)

    def attains_zero(self, skip=0):
        return self.scale == 0 or self.ratio == 0

    def value_set(self, skip=0):
        return (self.value(skip + 1),) if self.scale == 0 or self.ratio in (0, 1) else None

    def is_real(self, skip=0, nonnegative=False):
        if isinstance(self.scale, complex) or isinstance(self.ratio, complex):
            return False
        # a negative ratio alternates the sign of a nonzero scale
        return (not nonnegative or self.scale == 0 or self.ratio == 0
                or self.scale > 0 and self.ratio > 0)

    def abs_nonincreasing(self, skip=0, strict=False):
        r = abs(self.ratio)
        if self.scale == 0 or r == 0:
            return not strict
        return r < 1 if strict else r <= 1

    def describe(self):
        return f"{self.scale} * ({self.ratio})^n"


@record
class PowerLawRule(ScalarRule):
    """``a_n = scale / n**exponent`` with ``exponent >= 0``."""

    scale: Scalar
    exponent: Union[int, float] = 1

    def __post_init__(self):
        if self.exponent < 0:
            raise ValueError("exponent must be >= 0")

    def value(self, n: int) -> Scalar:
        if n < 1:
            raise ValueError("rule index must be >= 1")
        p, scale = self.exponent, self.scale
        if (isinstance(p, int) and type(scale) is not float
                and isinstance(scale, (int, Fraction))):
            # one Fraction, the value and type of scale * Fraction(1, n ** p)
            return Fraction(scale.numerator, scale.denominator * n ** p)
        try:
            return scale / n ** p
        except OverflowError:
            raise UnsupportedClassError(
                f"power-law weight at index {n} is out of float range: "
                f"{n} ** {p!r} overflows") from None

    def limit(self):
        if self.scale == 0 or self.exponent > 0:
            return 0
        return self.scale

    def tail_abs_sum(self, start: int):
        if self.scale == 0:
            return 0.0
        p = self.exponent
        if p <= 1:
            return math.inf
        s = max(start, 1)
        # sum_{n>=s} n^-p  <=  s^-p + integral_s^inf x^-p dx
        bound = s ** (-p) + s ** (1 - p) / (p - 1)
        return float(abs(self.scale)) * bound

    def attains_zero(self, skip=0):
        return self.scale == 0

    def value_set(self, skip=0):
        return (self.value(skip + 1),) if self.scale == 0 or self.exponent == 0 else None

    def is_real(self, skip=0, nonnegative=False):
        return _real(self.scale, nonnegative)

    def abs_nonincreasing(self, skip=0, strict=False):
        return not strict or self.scale != 0 and self.exponent > 0

    def describe(self):
        return f"{self.scale} / n^{self.exponent}"


@record
class AffineRule(ScalarRule):
    """``a_n = base + inner(n)``; covers rules like ``alpha (1 - r^n)``."""

    base: Scalar
    inner: ScalarRule

    def value(self, n: int) -> Scalar:
        return self.base + self.inner.value(n)

    def length(self):
        return self.inner.length()

    def limit(self):
        il = self.inner.limit()
        if il is None:
            return None
        return self.base + il

    def tail_abs_sum(self, start: int):
        if self.base == 0:
            return self.inner.tail_abs_sum(start)
        il = self.inner.limit()
        if il is not None and self.base + il != 0:
            return math.inf
        return None

    def attains_zero(self, skip=0):
        if self.base == 0:
            return self.inner.attains_zero(skip)
        if self.inner.limit() != 0 or self.inner.abs_nonincreasing(skip) is not True:
            return None
        # |inner| shrinks below |base| eventually; only finitely many
        # indices can cancel the base, and those are checked exactly.
        target = _abs_exact(self.base)
        for n in range(skip + 1, skip + _ZERO_SCAN_CAP + 1):
            v = self.inner.value(n)
            if self.base + v == 0:  # as value() sums: 1/3 + -2.0/6 is 0.0
                return True
            if _abs_exact(v) < target:
                return False
        return None

    def value_set(self, skip=0):
        inner = self.inner.value_set(skip)
        return None if inner is None else tuple(self.base + v for v in inner)

    def is_real(self, skip=0, nonnegative=False):
        if isinstance(self.base, complex):
            return False if self.length() is None else None
        real = self.inner.is_real(skip)
        if not nonnegative or not real:
            return real
        # the largest |inner| past skip is its first, when they do not increase
        if (self.length() is None and self.inner.abs_nonincreasing(skip) is True
                and self.base >= _abs_exact(self.inner.value(skip + 1))):
            return True
        return None

    def abs_nonincreasing(self, skip=0, strict=False):
        return self.inner.abs_nonincreasing(skip, strict) if self.base == 0 else None

    def describe(self):
        return f"{self.base} + {self.inner.describe()}"


@record
class ScaledRule(ScalarRule):
    factor: Scalar
    inner: ScalarRule

    def value(self, n: int) -> Scalar:
        return self.factor * self.inner.value(n)

    def length(self):
        return self.inner.length()

    def limit(self):
        if self.factor == 0:
            return 0
        il = self.inner.limit()
        if il is None:
            return None
        return self.factor * il

    def tail_abs_sum(self, start: int):
        if self.factor == 0:
            return 0.0
        it = self.inner.tail_abs_sum(start)
        if it is None:
            return None
        return float(abs(self.factor)) * it

    def attains_zero(self, skip=0):
        if self.factor == 0:
            return self.length() is None or self.length() > skip
        return self.inner.attains_zero(skip)

    def value_set(self, skip=0):
        inner = self.inner.value_set(skip)
        if inner is not None:
            return tuple(self.factor * v for v in inner)
        # a zero factor leaves one value, of the type its products take
        return (self.value(skip + 1),) if self.factor == 0 and self.length() is None else None

    def is_real(self, skip=0, nonnegative=False):
        if isinstance(self.factor, complex):
            return False if self.length() is None else None
        if not nonnegative or self.factor == 0:
            return self.inner.is_real(skip)
        return self.inner.is_real(skip, True) if self.factor > 0 else None

    def abs_nonincreasing(self, skip=0, strict=False):
        if self.factor == 0:
            return not strict or (False if self.length() is None else None)
        return self.inner.abs_nonincreasing(skip, strict)

    def describe(self):
        return f"{self.factor} * ({self.inner.describe()})"


@record
class OffsetRule(ScalarRule):
    """``a_n = inner(n + offset)`` -- drops the first ``offset`` terms."""

    inner: ScalarRule
    offset: int

    def __post_init__(self):
        if self.offset < 0:
            raise ValueError("offset must be >= 0")

    def value(self, n: int) -> Scalar:
        if n < 1:
            raise ValueError("rule index must be >= 1")
        return self.inner.value(n + self.offset)

    def length(self):
        il = self.inner.length()
        return None if il is None else max(il - self.offset, 0)

    def limit(self):
        return self.inner.limit()

    def tail_abs_sum(self, start: int):
        return self.inner.tail_abs_sum(start + self.offset)

    def attains_zero(self, skip=0):
        return self.inner.attains_zero(skip + self.offset)

    def value_set(self, skip=0):
        return self.inner.value_set(skip + self.offset)

    def is_real(self, skip=0, nonnegative=False):
        return self.inner.is_real(skip + self.offset, nonnegative)

    def abs_nonincreasing(self, skip=0, strict=False):
        return self.inner.abs_nonincreasing(skip + self.offset, strict)

    def describe(self):
        return f"({self.inner.describe()}) shifted by {self.offset}"


@record
class RepeatedRule(ScalarRule):
    """Each inner term repeated ``times`` in a row.

    Inner term ``m`` fills indices ``(m-1)*times+1 .. m*times``, so the
    terms past ``skip`` are the inner terms past ``skip // times``.
    """

    inner: ScalarRule
    times: int = 2

    def __post_init__(self):
        if self.times < 1:
            raise ValueError("times must be >= 1")

    def value(self, n: int) -> Scalar:
        if n < 1:
            raise ValueError("rule index must be >= 1")
        return self.inner.value((n + self.times - 1) // self.times)

    def length(self):
        il = self.inner.length()
        return None if il is None else il * self.times

    def limit(self):
        return self.inner.limit()

    def tail_abs_sum(self, start: int):
        it = self.inner.tail_abs_sum((start + self.times - 1) // self.times)
        if it is None:
            return None
        return self.times * it

    def attains_zero(self, skip=0):
        return self.inner.attains_zero(skip // self.times)

    def value_set(self, skip=0):
        return self.inner.value_set(skip // self.times)

    def is_real(self, skip=0, nonnegative=False):
        return self.inner.is_real(skip // self.times, nonnegative)

    def abs_nonincreasing(self, skip=0, strict=False):
        if strict and self.times > 1:
            return False if self.length() is None else None
        return self.inner.abs_nonincreasing(skip // self.times, strict)

    def describe(self):
        return f"({self.inner.describe()}) each repeated {self.times}x"


@record
class ExplicitThenRule(ScalarRule):
    """Explicit prefix, then an optional rule-based tail.

    With ``tail=None`` the rule is finite; such rules are only legal
    inside finite cells of block direct sums.
    """

    prefix: tuple
    tail: Optional[ScalarRule] = None

    def value(self, n: int) -> Scalar:
        if n < 1:
            raise ValueError("rule index must be >= 1")
        if n <= len(self.prefix):
            return self.prefix[n - 1]
        if self.tail is None:
            raise ValueError(
                f"finite rule of length {len(self.prefix)} probed at {n}"
            )
        return self.tail.value(n - len(self.prefix))

    def length(self):
        if self.tail is None:
            return len(self.prefix)
        tl = self.tail.length()
        return None if tl is None else len(self.prefix) + tl

    def limit(self):
        if self.tail is None:
            return None
        return self.tail.limit()

    def tail_abs_sum(self, start: int):
        head = sum(
            float(abs(v)) for i, v in enumerate(self.prefix, 1) if i >= start
        )
        if self.tail is None:
            return head
        rest = self.tail.tail_abs_sum(max(start - len(self.prefix), 1))
        if rest is None:
            return None
        return head + rest

    def attains_zero(self, skip=0):
        if any(v == 0 for v in self.prefix[skip:]):
            return True
        return self.tail is not None and self.tail.attains_zero(max(skip - len(self.prefix), 0))

    def value_set(self, skip=0):
        rest = () if self.tail is None else self.tail.value_set(max(skip - len(self.prefix), 0))
        return None if rest is None else tuple(self.prefix[skip:]) + rest

    def is_real(self, skip=0, nonnegative=False):
        if not all(_real(v, nonnegative) for v in self.prefix[skip:]):
            return False
        return self.tail is None or self.tail.is_real(max(skip - len(self.prefix), 0), nonnegative)

    def abs_nonincreasing(self, skip=0, strict=False):
        pre = [_abs_exact(v) for v in self.prefix[skip:]]
        if pre and self.tail is not None and self.tail.length() != 0:
            pre.append(_abs_exact(self.tail.value(1)))
        if any(a < b or strict and a == b for a, b in zip(pre, pre[1:])):
            return False
        return self.tail is None or self.tail.abs_nonincreasing(
            max(skip - len(self.prefix), 0), strict)

    def describe(self):
        tail = "end" if self.tail is None else self.tail.describe()
        return f"prefix {list(self.prefix)} then {tail}"


def _first_rise(rule: ScalarRule, strict: bool = False) -> Optional[int]:
    """The least ``n < _ZERO_SCAN_CAP`` with ``|w_n| < |w_{n+1}|`` (``<=`` when
    ``strict``), or None: where weights that a rule reports not
    |.|-nonincreasing first fail."""
    ln = rule.length()
    prev = _abs_exact(rule.value(1))
    for n in range(1, _ZERO_SCAN_CAP if ln is None else min(_ZERO_SCAN_CAP, ln)):
        cur = _abs_exact(rule.value(n + 1))
        if prev < cur or strict and prev == cur:
            return n
        prev = cur
    return None


def _ratio_deviation_tail(w: ScalarRule, v: ScalarRule, start: int) -> Optional[float]:
    """Bound on ``sum_{j>=start} |w_j/v_j - 1|`` for supported rule pairs."""
    if w == v:
        return 0.0
    if isinstance(v, ConstantRule) and v.c != 0:
        if isinstance(w, ConstantRule):
            return 0.0 if w.c == v.c else math.inf
        if isinstance(w, AffineRule) and w.base == v.c:
            t = w.inner.tail_abs_sum(start)
            return None if t is None else t / float(abs(v.c))
        if isinstance(w, ExplicitThenRule) and w.tail is not None:
            if start > len(w.prefix):
                return _ratio_deviation_tail(w.tail, v, start - len(w.prefix))
            head = sum(
                abs(complex(x) / complex(v.c) - 1.0)
                for x in w.prefix[start - 1:]
            )
            rest = _ratio_deviation_tail(w.tail, v, 1)
            return None if rest is None else head + rest
    return None


def _first_zero(rule: ScalarRule, skip: int = 0) -> Optional[int]:
    """The least ``n`` with ``rule.value(skip + n) == 0``, placed by a walk
    through explicit-then, offset and repeated rules; None when the walk
    ends on no known zero."""
    if isinstance(rule, ExplicitThenRule):
        head = rule.prefix[skip:]
        if 0 in head or rule.tail is None:
            return head.index(0) + 1 if 0 in head else None
        n = _first_zero(rule.tail, max(skip - len(rule.prefix), 0))
        return None if n is None else len(head) + n
    if isinstance(rule, OffsetRule):
        return _first_zero(rule.inner, skip + rule.offset)
    if isinstance(rule, RepeatedRule):
        # inner term k fills indices (k - 1) * times + 1 .. k * times
        done = skip // rule.times
        m = _first_zero(rule.inner, done)
        return None if m is None else max((done + m - 1) * rule.times + 1 - skip, 1)
    return 1 if isinstance(rule, ConstantRule) and rule.c == 0 else None


class CallableRule(ScalarRule):
    """Catch-all rule backed by a Python callable; no tail certificates."""

    def __init__(self, fn: Callable[[int], Scalar], description: str = "",
                 limit_hint: Optional[Scalar] = None):
        self._fn = fn
        self._description = description or "callable rule"
        self._limit_hint = limit_hint

    def value(self, n: int) -> Scalar:
        if n < 1:
            raise ValueError("rule index must be >= 1")
        return self._fn(n)

    def limit(self):
        return self._limit_hint

    def describe(self):
        return self._description


class MergedAbsDecreasingRule(ScalarRule):
    """Lazy merge of |.|-nonincreasing streams, largest magnitude first.

    Sources may be finite tuples (sorted here) or infinite rules whose
    magnitudes are nonincreasing.  The merged sequence is again
    |.|-nonincreasing; it backs the multiplicity-expansion paths.
    """

    def __init__(self, finite_parts: Sequence[Sequence[Scalar]] = (),
                 rule_parts: Sequence[ScalarRule] = ()):
        self._finite = [
            sorted(part, key=_abs_exact, reverse=True) for part in finite_parts
        ]
        for rule in rule_parts:
            if rule.abs_nonincreasing() is False:
                raise ValueError("rule source is not |.|-nonincreasing")
        self._rules = list(rule_parts)
        self._cache: list = []
        # ties go to the earlier source: finite parts first, then rules
        self._merged = heapq.merge(
            *self._finite,
            *(map(r.value, itertools.count(1) if r.length() is None
                  else range(1, r.length() + 1)) for r in self._rules),
            key=_abs_exact, reverse=True)

    def value(self, n: int) -> Scalar:
        if n < 1:
            raise ValueError("rule index must be >= 1")
        if n > len(self._cache):
            self._cache.extend(itertools.islice(self._merged, n - len(self._cache)))
        if n > len(self._cache):
            raise ValueError("merged rule exhausted: all sources finite")
        return self._cache[n - 1]

    def length(self):
        total = sum(len(part) for part in self._finite)
        for rule in self._rules:
            ln = rule.length()
            if ln is None:
                return None
            total += ln
        return total

    def limit(self):
        if self._rules and all(r.limit() == 0 for r in self._rules):
            return 0
        return None

    def attains_zero(self, skip=0):
        verdicts = [r.attains_zero() for r in self._rules]
        verdicts += [any(v == 0 for v in part) for part in self._finite]
        # where a zero falls in the merge is not tracked, nor whether an infinite
        # source holds it off for ever: past skip, or with one, only a False transfers
        if True in verdicts and not skip and self.length() is not None:
            return True
        return False if all(v is False for v in verdicts) else None

    def is_real(self, skip=0, nonnegative=False):
        verdicts = [r.is_real(0, nonnegative) for r in self._rules]
        verdicts += [all(_real(v, nonnegative) for v in part) for part in self._finite]
        # as with zeros, only a True transfers past skip or an infinite source
        if False in verdicts and not skip and self.length() is not None:
            return False
        return True if all(v is True for v in verdicts) else None

    def abs_nonincreasing(self, skip=0, strict=False):
        # merged streams that never rise never rise; a lone stream is itself
        if not all(r.abs_nonincreasing() for r in self._rules):
            return None
        if not strict:
            return True
        lone = len(self._rules) == 1 and not any(self._finite)
        return self._rules[0].abs_nonincreasing(skip, True) if lone else None

    def describe(self):
        parts = [f"explicit {part}" for part in self._finite]
        parts += [r.describe() for r in self._rules]
        return "merge(" + "; ".join(parts) + ")"


# ---------------------------------------------------------------------------
# Strictly increasing index sequences (subsets of N written in order)
# ---------------------------------------------------------------------------


class IndexSequence:
    """A strictly increasing sequence of positive integers."""

    def elem(self, n: int) -> int:
        raise NotImplementedError

    def position_of(self, value: int) -> Optional[int]:
        """The ``n`` with ``elem(n) == value``, or ``None``."""
        raise NotImplementedError

    def length(self) -> Optional[int]:
        return None

    def progression(self) -> Optional[tuple]:
        """``(finite terms, (start, step) or None)``, the terms before the
        progression that runs on, if any; None when a callable gives them."""
        return None

    def elems(self, count: int, start: int = 1) -> list:
        return [self.elem(n) for n in range(start, start + count)]

    def describe(self) -> str:
        return type(self).__name__


@record
class ArithmeticSequence(IndexSequence):
    start: int
    step: int

    def __post_init__(self):
        if self.start < 1 or self.step < 1:
            raise ValueError("arithmetic sequence needs start, step >= 1")

    def elem(self, n: int) -> int:
        if n < 1:
            raise ValueError("sequence index must be >= 1")
        return self.start + (n - 1) * self.step

    def position_of(self, value: int):
        if value < self.start:
            return None
        q, r = divmod(value - self.start, self.step)
        return q + 1 if r == 0 else None

    def progression(self):
        return (), (self.start, self.step)

    def describe(self):
        return f"{{{self.start}, {self.start + self.step}, ...}} step {self.step}"


@record
class ExplicitPrefixSequence(IndexSequence):
    """Explicit increasing prefix, then an optional rule-based tail.

    With ``tail=None`` the sequence is finite (legal for spread pieces
    recovered from a window and for finite block cells).
    """

    prefix: tuple
    tail: Optional[IndexSequence] = None

    def __post_init__(self):
        if not self.prefix and self.tail is None:
            raise ValueError("empty sequence")
        for a, b in zip(self.prefix, self.prefix[1:]):
            if b <= a:
                raise ValueError("prefix must be strictly increasing")
        if self.prefix and self.prefix[0] < 1:
            raise ValueError("sequence elements must be >= 1")
        if self.tail is not None and self.prefix:
            if self.tail.elem(1) <= self.prefix[-1]:
                raise ValueError("tail must continue increasing past prefix")

    def elem(self, n: int) -> int:
        if n < 1:
            raise ValueError("sequence index must be >= 1")
        if n <= len(self.prefix):
            return self.prefix[n - 1]
        if self.tail is None:
            raise ValueError(
                f"finite sequence of length {len(self.prefix)} probed at {n}"
            )
        return self.tail.elem(n - len(self.prefix))

    def position_of(self, value: int):
        lo = bisect.bisect_left(self.prefix, value)
        if lo < len(self.prefix) and self.prefix[lo] == value:
            return lo + 1
        if self.tail is None:
            return None
        pos = self.tail.position_of(value)
        return None if pos is None else pos + len(self.prefix)

    def length(self):
        if self.tail is None:
            return len(self.prefix)
        tl = self.tail.length()
        return None if tl is None else len(self.prefix) + tl

    def progression(self):
        rest = ((), None) if self.tail is None else self.tail.progression()
        return rest and ((*self.prefix, *rest[0]), rest[1])

    def describe(self):
        tail = "end" if self.tail is None else self.tail.describe()
        return f"{list(self.prefix)} then {tail}"


class ClosedFormSequence(IndexSequence):
    """Sequence given by a closed-form callable ``n -> elem``."""

    def __init__(self, fn: Callable[[int], int], description: str = ""):
        self._fn = fn
        self._description = description or "closed-form sequence"

    def elem(self, n: int) -> int:
        if n < 1:
            raise ValueError("sequence index must be >= 1")
        return self._fn(n)

    def position_of(self, value: int):
        # elem is strictly increasing with elem(n) >= n, so binary search
        # over [1, value] is exhaustive.
        n = bisect.bisect_left(range(1, max(value, 1) + 1), value, key=self.elem) + 1
        return n if n <= value and self.elem(n) == value else None

    def describe(self):
        return self._description


def naturals() -> ArithmeticSequence:
    return ArithmeticSequence(1, 1)


def odds() -> ArithmeticSequence:
    return ArithmeticSequence(1, 2)


def evens() -> ArithmeticSequence:
    return ArithmeticSequence(2, 2)
