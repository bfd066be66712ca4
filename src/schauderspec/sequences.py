"""Scalar sequence rules and strictly increasing index sequences.

Rules are lazy descriptions of infinite (or finite) sequences indexed
from 1.  Named families keep rational parameters exact, so window
equality checks elsewhere in the package stay exact rather than
floating point.  Every rule answers ``length()``, ``limit()`` and
``tail_abs_sum(start)``, an upper bound on ``sum_{n>=start} |a_n|``
(``math.inf`` when the tail provably diverges, ``None`` when unknown).

The facts the rest of the package decides with are about the terms past
the first ``skip``: ``attains_zero``, ``value_set`` (when finitely many),
``is_real`` (and ``nonnegative``), ``abs_nonincreasing`` (``strict``) and
``zero_index``; ``tail_index(r)`` is the least ``K`` from which
``|a_n| <= r``.  Any nesting of the grammar's rules is a finite prefix,
then ``a + b * L(ceil((n + u) / t))`` with ``L`` one monomial, ``n^-p``
or ``q^n``; every fact is decided from that form, reading each
spelled-out prefix entry once and a bounded number of terms about where
the monomial crosses a constant, never a scan.  Monotony is a fact of
the real sequence the parameters name; a zero, a sign or a tail is one
of the terms as ``value()`` computes them, whose sums and products are
monotone: the first zero of a sign class of the monomial is where the
terms' sign turns, found by bisection.  The form stops at one monomial:
zeros of a sum of two are the Skolem problem.  The length, limit and
tail sum of a nesting fold the form over its leaf's own answers.  A leaf
outside the grammar answers for itself under products alone; a bare
callable answers ``None``, so ``deflate`` and the orbit-walk
certificates refuse it, naming the premise it leaves undecided.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
from fractions import Fraction
from typing import Callable, Optional, Sequence, Tuple, Union

from .errors import UnsupportedClassError
from .records import record

Scalar = Union[int, float, complex, Fraction]


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

    A fact that takes ``skip`` is about the terms past the first ``skip``;
    None: unknown.  The grammar's rules answer each fact from their normal
    form; any other rule answers None unless it overrides the fact.
    """

    def value(self, n: int) -> Scalar:
        raise NotImplementedError

    def values(self, count: int, start: int = 1) -> list:
        return [self.value(n) for n in range(start, start + count)]

    def length(self) -> Optional[int]:
        """Number of terms for finite rules, ``None`` for infinite ones."""
        return _length(_kept_form(self)) if isinstance(self, _GRAMMAR) else None

    def limit(self) -> Optional[Scalar]:
        """The terms' limit; None for a finite rule, or when unknown."""
        return _limit(_normal_form(self)) if isinstance(self, _GRAMMAR) else None

    def tail_abs_sum(self, start: int) -> Optional[float]:
        """An upper bound on ``sum_{n>=start} |a_n|``: ``math.inf`` when the
        tail provably diverges, None when unknown."""
        return _tail_abs_sum(_normal_form(self), start) if isinstance(self, _GRAMMAR) else None

    def attains_zero(self, skip: int = 0) -> Optional[bool]:
        """Whether some term is exactly zero."""
        return _zero_fact(self, skip)[0] if isinstance(self, _GRAMMAR) else None

    def value_set(self, skip: int = 0) -> Optional[tuple]:
        """The values the terms take, when finitely many, each typed as the rule
        returns it: 3 and 3.0 may both occur, as they part under a factor 1/10."""
        return _value_set(self, skip) if isinstance(self, _GRAMMAR) else None

    def is_real(self, skip: int = 0, nonnegative: bool = False) -> Optional[bool]:
        """Whether no term is complex, and none negative when ``nonnegative``."""
        return _real_fact(self, skip, nonnegative)[0] if isinstance(self, _GRAMMAR) else None

    def abs_nonincreasing(self, skip: int = 0, strict: bool = False) -> Optional[bool]:
        """Whether ``|value(n)| >= |value(n + 1)|`` (``>`` if ``strict``) for all ``n > skip``."""
        return _monotone_fact(self, skip, strict)[0] if isinstance(self, _GRAMMAR) else None

    def zero_index(self, skip: int = 0) -> Optional[int]:
        """An index past ``skip`` whose term is 0, where one is placed; the
        grammar's rules place the first."""
        return _zero_fact(self, skip)[1] if isinstance(self, _GRAMMAR) else None

    def tail_index(self, r) -> Optional[int]:
        """The least ``K`` with ``|value(n)| <= r`` for every ``n >= K``; None
        when there is none, or it is unknown."""
        return _tail_index(self, r) if isinstance(self, _GRAMMAR) else None

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

    def describe(self):
        return f"{self.scale} / n^{self.exponent}"


@record
class AffineRule(ScalarRule):
    """``a_n = base + inner(n)``; covers rules like ``alpha (1 - r^n)``."""

    base: Scalar
    inner: ScalarRule

    def value(self, n: int) -> Scalar:
        return self.base + self.inner.value(n)

    def describe(self):
        return f"{self.base} + {self.inner.describe()}"


@record
class ScaledRule(ScalarRule):
    factor: Scalar
    inner: ScalarRule

    def value(self, n: int) -> Scalar:
        return self.factor * self.inner.value(n)

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

    def describe(self):
        tail = "end" if self.tail is None else self.tail.describe()
        return f"prefix {list(self.prefix)} then {tail}"


# ---------------------------------------------------------------------------
# The grammar's normal form, and the facts it decides
# ---------------------------------------------------------------------------

_GRAMMAR = (ConstantRule, GeometricRule, PowerLawRule, AffineRule, ScaledRule,
            OffsetRule, RepeatedRule, ExplicitThenRule)
_MONOMIALS = (PowerLawRule, GeometricRule)
_CLOSED = (ConstantRule, *_MONOMIALS)  # leaves whose terms never end
_END = object()  # the leaf of a rule whose terms end with its prefix


class _Form:
    """A prefix on ``1..end``, in runs (first index, term) of one spelled-out
    entry, then ``a + b * leaf(g(n))`` with ``g(n) = ceil((n + u) / t)``.
    ``leaf`` is ``_END``, a constant (``b = 0``), a monomial whose scale
    ``b`` leaves out, or any other rule; ``ops`` are ``value()``'s own sums
    and products on its value, innermost first.  Terms are taken through
    ``value()``'s arithmetic, as it rounds."""

    __slots__ = ("runs", "end", "leaf", "a", "b", "u", "t", "ops")

    def __init__(self, leaf=_END, b=1):
        self.runs, self.end, self.leaf, self.a, self.b = (), 0, leaf, 0, b
        self.u, self.t, self.ops = 0, 1, ()

    def g(self, n):
        return -(-(n + self.u) // self.t)

    def first(self, m, s):  # the least index past s with leaf index m
        return max(s + 1, self.t * (m - 1) - self.u + 1)

    def last(self, m):
        return self.t * m - self.u

    def term(self, n):
        return _lift(self.ops, self.leaf.value(self.g(n)))


def _lift(ops: tuple, v: Scalar) -> Scalar:
    for op, c in ops:
        v = c + v if op == "+" else c * v
    return v


def _normal_form(rule: ScalarRule) -> _Form:
    """The form of any nesting of the grammar's rules; any other rule is a leaf.
    Each call builds a new form, which the wrapping rule then changes."""
    if isinstance(rule, ConstantRule):
        return _Form(rule, 0)
    if isinstance(rule, _MONOMIALS):
        flat = rule.scale == 0 or (rule.ratio in (0, 1) if isinstance(rule, GeometricRule)
                                   else rule.exponent == 0)
        return _Form(rule, 0 if flat else 1)
    if not isinstance(rule, _GRAMMAR):
        return _Form(rule)
    if isinstance(rule, ExplicitThenRule):
        k = len(rule.prefix)
        f = _Form() if rule.tail is None else _normal_form(rule.tail)
        f.runs = (*enumerate(rule.prefix, 1), *((n + k, v) for n, v in f.runs))
        f.end, f.u = f.end + k, f.u - k
        return f
    f = _normal_form(rule.inner)
    if isinstance(rule, OffsetRule):
        k = rule.offset
        ends = [n for n, _ in f.runs[1:]] + [f.end + 1]
        f.runs = tuple((max(n - k, 1), v) for (n, v), e in zip(f.runs, ends) if e > k + 1)
        f.end, f.u = max(f.end - k, 0), f.u + k
    elif isinstance(rule, RepeatedRule):
        k = rule.times
        f.runs = tuple(((n - 1) * k + 1, v) for n, v in f.runs)
        f.end, f.u, f.t = f.end * k, f.u * k, f.t * k
    elif isinstance(rule, AffineRule):
        c = rule.base
        f.runs, f.a, f.ops = tuple((n, c + v) for n, v in f.runs), c + f.a, f.ops + (("+", c),)
    else:
        c = rule.factor
        f.runs, f.a, f.b = tuple((n, c * v) for n, v in f.runs), c * f.a, c * f.b
        f.ops += (("*", c),)
    return f


def _kept_form(rule: ScalarRule) -> _Form:
    """The form of ``rule``, with an endless constant tail kept as its term."""
    f = rule.__dict__.get("_form")
    if f is None:  # a record's form never changes: it is kept on the record once made
        f = rule.__dict__["_form"] = _normal_form(rule)
        if f.b == 0 and f.leaf is not _END and _length(f) is None:
            f.leaf, f.ops = ConstantRule(f.term(f.end + 1)), ()
    return f


def _split(rule: ScalarRule, skip: int):
    """The kept form of ``rule``; (first index past ``skip``, last index, term)
    of each prefix run past it; ``s``, after which the tail's terms start; and
    the leaf, ``_END`` where an opaque leaf's terms end by ``s``."""
    f = _kept_form(rule)
    s, leaf = max(skip, f.end), f.leaf
    if leaf is not _END and not isinstance(leaf, _CLOSED):
        ln = _length(f)
        leaf = _END if ln is not None and ln <= s else leaf
    return f, _head(f, skip), s, leaf


def _head(f: _Form, skip: int) -> list:
    """(first index past ``skip``, last index, term) of each prefix run past it."""
    ends = [n for n, _ in f.runs[1:]] + [f.end + 1]
    return [(max(n, skip + 1), e - 1, v) for (n, v), e in zip(f.runs, ends) if e - 1 > skip]


def _length(f: _Form) -> Optional[int]:
    """The prefix's length, or the last index at which the leaf has a term."""
    if f.leaf is _END:
        return f.end
    ln = None if isinstance(f.leaf, _CLOSED) else f.leaf.length()
    return None if ln is None else max(f.end, f.last(ln))


def _limit(f: _Form) -> Optional[Scalar]:
    """The leaf's limit through ``ops``; a zero factor's product is 0 whatever it
    multiplies, and a finite rule has none."""
    if _length(f) is not None:
        return None
    v = f.leaf.limit()
    for op, c in f.ops:
        if op == "*" and c == 0:
            v = 0
        elif v is not None:
            v = c + v if op == "+" else c * v
    return v


def _tail_abs_sum(f: _Form, start: int) -> Optional[float]:
    """The prefix runs' terms from ``start`` on, summed, and the tail's bound: the
    leaf's from ``g(n)`` on, each of its terms taken up to ``t`` times, under the
    factors in ``ops``.  Past a zero factor the tail is 0; a constant summed past
    it leaves a tail that diverges unless its limit is 0, when it is unknown."""
    head = sum(((e - n + 1) * float(abs(v)) for n, e, v in _head(f, start - 1)), 0.0)
    if f.leaf is _END:
        return head
    cut = max((i + 1 for i, (op, c) in enumerate(f.ops) if op == "*" and c == 0), default=0)
    ops = f.ops[cut:]
    if any(op == "+" and c != 0 for op, c in ops):
        lim = _limit(f)
        return None if lim is None or lim == 0 else math.inf
    tail = 0.0 if cut else f.leaf.tail_abs_sum(f.g(max(start - 1, f.end) + 1))
    if tail is None:
        return None
    for op, c in ops:  # no factor here is 0: an infinite tail stays so, though c's float be 0.0
        if op == "*" and tail != math.inf:
            tail = float(abs(c)) * tail
    return head + f.t * tail


def _monomial(f: _Form):
    """(a, b with the leaf's scale, q, |q|) of a monomial tail, q real where it
    has no imaginary part; a power law, whose terms decay as for 0 < q < 1, has
    q None and |q| 0."""
    b = f.leaf.scale if f.b == 1 else f.b * f.leaf.scale
    q = getattr(f.leaf, "ratio", None)
    q = q.real if isinstance(q, complex) and not q.imag else q
    return f.a, b, q, 0 if q is None else _abs_exact(q)


def _exact(x: Scalar):
    return x if isinstance(x, complex) else Fraction(x)


def _iroot(x: int, p: int) -> int:
    """floor(x ** (1/p)) for an int ``x >= 0``, by Newton's method from above."""
    if x < 2:
        return x
    r = 1 << -(-x.bit_length() // p)
    while True:
        y = ((p - 1) * r + x // r ** (p - 1)) // p
        if y >= r:
            return r
        r = y


def _cross(leaf: ScalarRule, theta) -> Optional[int]:
    """About the leaf index where ``|L(m)|`` crosses ``theta > 0``, where it
    can be found; exact for a power law of integral exponent."""
    p = getattr(leaf, "exponent", None)
    if p is None:
        return None if abs(leaf.ratio) == 1 else math.floor(log_abs(theta) / log_abs(leaf.ratio))
    if p == int(p):
        return _iroot(math.floor(1 / Fraction(theta)), int(p))
    return math.floor(math.exp(-log_abs(theta) / p)) if -log_abs(theta) < 700 * p else None


def _near(leaf: ScalarRule, m0: int, theta=None) -> list:
    """m0, m0 + 1 and the leaf indices about where ``|L(m)|`` crosses
    ``theta > 0``, past m0: where a property that turns once in each sign
    class of L turns."""
    c = _cross(leaf, theta) if theta else None
    return sorted({m0, m0 + 1, *(range(max(c - 2, m0), c + 4) if c is not None else ())})


def _spans(f: _Form, s: int, m0: int, theta=None) -> Optional[tuple]:
    """(step, [(lo, hi)]) for a real monomial tail: a span of leaf indices for
    each sign class of L (m's parity for q < 0), on which value()'s terms are
    monotone, as its real sums and products are, and past whose ``hi`` they
    keep their sign.  That is where |L| crosses |a / b| in exact arithmetic;
    with floats, where the leaf's share falls far under the rounding of each
    constant summed, for a decaying L, past which the terms are constant, or
    far over them, for a growing one; and past where |L| crosses ``theta``,
    if given.  None where that is past reach."""
    leaf, A, B, sizes = f.leaf, 0, Fraction(f.leaf.scale), []
    for op, c in f.ops:
        c = Fraction(c)
        A, B = (A + c, B) if op == "+" else (c * A, c * B)
        sizes += [abs(x / B) for x in (A, c) if op == "+" and x]
    exact = not any(isinstance(c, float) for c in [c for _, c in f.ops] + [
        leaf.scale, getattr(leaf, "ratio", 0), getattr(leaf, "exponent", 0)])
    q, mod = _monomial(f)[2:]
    if mod == 1 or not sizes or exact and A == 0:  # the sign never turns in a class
        c = m0
    else:
        c = _cross(leaf, (abs(A / B) if exact else min(sizes) / 2 ** 60) if mod < 1
                   else 4 * max(sizes))
    if theta is not None and c is not None and mod != 1:
        c2 = _cross(leaf, theta)
        c = None if c2 is None else max(c, c2)
    step = 2 if q is not None and q < 0 else 1
    return None if c is None else (step, [
        (lo, lo + step * max(0, -(-(c + 3 - lo) // step))) for lo in range(m0, m0 + step)])


def _turn(f: _Form, s: int, span: tuple, step: int, pred) -> Optional[int]:
    """The first leaf index of ``span`` whose term satisfies ``pred``, where
    those that do are its first ones or its last; by bisection."""
    lo, hi = span
    if pred(f.term(f.first(lo, s))):
        return lo
    if not pred(f.term(f.first(hi, s))):
        return None
    while hi - lo > step:
        mid = lo + (hi - lo) // step // 2 * step
        lo, hi = (lo, mid) if pred(f.term(f.first(mid, s))) else (mid, hi)
    return hi


def _complex(f: _Form) -> bool:
    return any(isinstance(c, complex) for c in [c for _, c in f.ops] + [
        getattr(f.leaf, k, 0) for k in ("scale", "ratio")])


def _zero_fact(rule: ScalarRule, skip: int = 0) -> Tuple[Optional[bool], Optional[int]]:
    """(``attains_zero``, the least index past ``skip`` of a zero, where placed)."""
    f, head, s, leaf = _split(rule, skip)
    n = next((n for n, _, v in head if v == 0), None)
    if n is not None or leaf is _END:
        return n is not None, n
    if isinstance(leaf, ConstantRule):
        return (True, s + 1) if leaf.c == 0 else (False, None)
    # with no constant summed the terms are products of the leaf's; a sum may
    # round to 0 in value() where the real term is not 0
    m0, sums = f.g(s + 1), any(op == "+" and c != 0 for op, c in f.ops)
    if not isinstance(leaf, _MONOMIALS):  # a leaf outside the grammar answers for itself
        if sums or f.b == 0:
            return None, None
        m = leaf.zero_index(m0 - 1)
        return leaf.attains_zero(m0 - 1), None if m is None else f.first(m, s)
    a, b, q, mod = _monomial(f)
    if not sums:
        return False, None
    if mod == 1 and q != -1:  # a unit ratio that is not real: a discrete logarithm
        return None, None
    if _complex(f):
        if a == 0:  # complex float sums that cancel: where they round to 0 is not tracked
            return None, None
        # a + b L(m) is 0 only where |L(m)| = |a / b|, where value() may round it to 0 too
        ms = _near(leaf, m0, None if mod == 1 else abs(a / b))
        n = next((n for n in (f.first(m, s) for m in ms) if f.term(n) == 0), None)
        return n is not None, n
    sp = _spans(f, s, m0)
    if sp is None:
        return None, None
    zeros = []
    for span in sp[1]:  # the first zero of a class is where its terms' sign turns
        t0 = f.term(f.first(span[0], s))
        m = _turn(f, s, span, sp[0], lambda t: t == 0 or (t > 0) != (t0 > 0))
        zeros += [] if m is None or f.term(f.first(m, s)) != 0 else [m]
    n = min(zeros, default=None)
    return n is not None, None if n is None else f.first(n, s)


def _real_fact(rule: ScalarRule, skip: int = 0, nonnegative: bool = False
               ) -> Tuple[Optional[bool], Optional[int]]:
    """(``is_real``, the least index past ``skip`` of a term that is complex,
    or negative when ``nonnegative``, where placed)."""
    f, head, s, leaf = _split(rule, skip)
    n = next((n for n, _, v in head if not _real(v, nonnegative)), None)
    if n is not None or leaf is _END:
        return n is None, n
    if isinstance(leaf, ConstantRule):
        return (True, None) if _real(leaf.c, nonnegative) else (False, s + 1)
    if _complex(f):  # then every tail term is
        return False, s + 1
    m0 = f.g(s + 1)
    if not isinstance(leaf, _MONOMIALS):
        known = not nonnegative or f.a == 0 and f.b > 0
        return (leaf.is_real(m0 - 1, nonnegative) if known else None), None
    a, b, q, _ = _monomial(f)
    positive = a == 0 and b > 0 and (q is None or q > 0)  # known without a term
    sp = _spans(f, s, m0) if nonnegative and not positive else (1, [])
    if sp is None:
        return None, None
    n = min(filter(None, (_turn(f, s, span, sp[0], lambda t: t < 0) for span in sp[1])),
            default=None)
    return n is None, None if n is None else f.first(n, s)


def _monotone_fact(rule: ScalarRule, skip: int = 0, strict: bool = False
                   ) -> Tuple[Optional[bool], Optional[int]]:
    """(``abs_nonincreasing``, the least index ``n`` past ``skip`` with
    ``|w_n| < |w_{n+1}|``, ``<=`` when ``strict``, where placed)."""

    def worse(x, y):
        x, y = _abs_exact(x), _abs_exact(y)
        return x < y or strict and x == y

    f, head, s, leaf = _split(rule, skip)
    after = [v for _, _, v in head[1:]] + ([f.term(s + 1)] if head and leaf is not _END else [])
    for (n, e, v), w in itertools.zip_longest(head, after):
        if strict and e > n:
            return False, n
        if w is not None and worse(v, w):
            return False, e
    if leaf is _END or isinstance(leaf, ConstantRule):
        return not strict or leaf is _END, s + 1 if strict and leaf is not _END else None
    m0 = f.g(s + 1)
    repeat = None
    if strict and f.t > 1:  # g repeats a leaf index, at s + 1 or s + 2
        repeat = s + 1 if (s + 1 + f.u) % f.t or worse(f.term(s + 1), f.term(s + 2)) else s + 2
    if not isinstance(leaf, _MONOMIALS):
        if f.a != 0 or f.b == 0 or repeat and leaf.length() is not None:
            return None, None
        return (False, repeat) if repeat else (leaf.abs_nonincreasing(m0 - 1, strict), None)
    # |a + b x| is convex in real x, least at its vertex v: a real L that decays
    # from above never rises past v <= 0, and rises below v > 0; an
    # alternating one falls only when v = 0; a growing one rises
    a, b, q, mod = _monomial(f)
    if isinstance(q, complex):
        down, theta = a == 0 and (mod < 1 or mod == 1 and not strict), None
    else:
        v = 0 if a == 0 else -(_exact(a).conjugate() * _exact(b)).real / abs(_exact(b)) ** 2
        down = v <= 0 if q is None or 0 < q < 1 else v == 0 and (
            -1 < q < 0 or q == -1 and not strict)
        # the first rise is where |L(m)| crosses |v|, or 2|v| / |1 + q| for the
        # geometric L(m + 1) = q L(m)
        theta = None if v == 0 or q == -1 else abs(v) if q is None else abs(2 * v / (1 + q))
    if down:
        return repeat is None, repeat
    n = next((n for n in map(f.last, _near(leaf, m0, theta))
              if worse(f.term(n), f.term(n + 1))), None)
    return False, min(filter(None, (n, repeat)), default=None)


def _value_set(rule: ScalarRule, skip: int = 0) -> Optional[tuple]:
    f, head, s, leaf = _split(rule, skip)
    values = tuple(v for _, _, v in head)
    if leaf is _END or isinstance(leaf, ConstantRule):
        return values + (() if leaf is _END else (leaf.c,))
    tail = None if isinstance(leaf, _MONOMIALS) else leaf.value_set(f.g(s + 1) - 1)
    return None if tail is None else values + tuple(_lift(f.ops, v) for v in tail)


def _tail_index(rule: ScalarRule, r) -> Optional[int]:
    f, head, s, leaf = _split(rule, 0)
    k = max([1] + [e + 1 for _, e, v in head if _abs_exact(v) > r])
    if leaf is _END or isinstance(leaf, ConstantRule):
        return None if leaf is not _END and _abs_exact(leaf.c) > r else k
    # a real tail that does not grow, whose limit a lies within r: past where
    # |b L| falls under r - |a| (or r, for |a| = r) a class's terms lie within
    # r or never do, and those of each class past the first within r stay so
    real = isinstance(leaf, _MONOMIALS) and not _complex(f) and _monomial(f)[3] <= 1
    a, r = _abs_exact(_exact(f.a)) if real else 0, Fraction(r)
    sp = _spans(f, s, f.g(s + 1), (r - a if a < r else r) / 2 / _abs_exact(
        _exact(_monomial(f)[1]))) if real and 0 < r and a <= r else None
    ms = [None] if sp is None else [
        _turn(f, s, span, sp[0], lambda t: _abs_exact(t) <= r) for span in sp[1]]
    if None in ms:
        return None
    return max([k] + [f.last(m - sp[0]) + 1 for m, (lo, _) in zip(ms, sp[1]) if m > lo])


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

    def zero_index(self, skip=0):
        # a finite merge holding a zero ends with its zeros
        ln = self.length() if self.attains_zero(skip) else None
        return None if ln is None else next(n for n in range(1, ln + 1) if self.value(n) == 0)

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
        # elem is strictly increasing with elem(n) >= n, so bisection over
        # [1, value] is exhaustive, for values of any size
        lo, hi = 1, max(value, 1)
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (mid + 1, hi) if self.elem(mid) < value else (lo, mid)
        return lo if self.elem(lo) == value else None

    def describe(self):
        return self._description


def naturals() -> ArithmeticSequence:
    return ArithmeticSequence(1, 1)


def odds() -> ArithmeticSequence:
    return ArithmeticSequence(1, 2)


def evens() -> ArithmeticSequence:
    return ArithmeticSequence(2, 2)
