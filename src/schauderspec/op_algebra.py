"""Lazy expression trees for structured operators on l2.

Every variant is row- and column-finite and is read a column or a row at a
time, so entries, applications to finitely supported vectors and corner
truncations are finite sums with no truncation error; exact scalars (ints,
Fractions) survive evaluation untouched.  Shift forms are recognized from
the tree's nodes alone.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cached_property, reduce
from typing import Optional, Tuple

from .errors import UnsupportedClassError
from .index_maps import (
    Permutation,
    SpreadSpec,
    compose_permutations,
    decompose_into_spreads,
    deinterleave,
    identity_permutation,
    interleave_z,
    inverse_permutation,
    opaque_permutation,
    sigma_bilateral,
    spread_sum_fault,
    z_translation_permutation,
)
from .records import record
from .sequences import (
    ArithmeticSequence,
    CallableRule,
    ConstantRule,
    ExplicitThenRule,
    IndexSequence,
    OffsetRule,
    PowerLawRule,
    RepeatedRule,
    Scalar,
    ScalarRule,
    ScaledRule,
    _abs_exact,
    conjugate,
    naturals,
)


class OperatorExpr:
    """Base class: an immutable operator description, read a line at a time.

    ``line(g, axis)`` (``column``, ``row``) maps each index that column (axis 0)
    or row (axis 1) ``g`` names to its entry, less those ``keep`` refuses; it
    asks ``keep`` before evaluating.  ``blank(i, j)`` is an entry no line names:
    0, or a typed or signed zero or nan from a scalar factor, which sums add.
    """

    def line(self, g: int, axis: int, keep=None) -> dict:
        raise NotImplementedError

    def column(self, j: int, keep=None) -> dict:
        return self.line(j, 0, keep)

    def row(self, i: int, keep=None) -> dict:
        return self.line(i, 1, keep)

    def blank(self, i: int, j: int) -> Scalar:
        return 0

    @cached_property
    def valued(self) -> bool:
        """Whether a line may evaluate a rule value; one that cannot may be read in any order."""
        return any(isinstance(v, ScalarRule) or isinstance(v, OperatorExpr) and v.valued
                   for f in self._record_values(self) for v in (f if type(f) is tuple else (f,)))

    def __matmul__(self, other: "OperatorExpr") -> "Product":
        return Product(self, other)

    def __add__(self, other: "OperatorExpr") -> "Sum":
        return Sum((self, other))


def _check_indices(i: int, j: int) -> None:
    if i < 1 or j < 1:
        raise ValueError("matrix indices must be >= 1")


def _peek(node: OperatorExpr, g: int, axis: int, keep=None):
    """Line ``g`` of ``node`` if reading it evaluates no rule, else the indices it names, as a list."""
    if not node.valued:
        return node.line(g, axis, keep)
    named: list = []
    node.line(g, axis, named.append if keep is None else lambda x: keep(x) and named.append(x))
    return named


# An int or a Fraction meeting an exact 1 in a product or an exact 0 in a sum is kept
# as it is; floats and complex numbers are not: 0 + -0.0 is 0.0, 1 * complex(1, inf) nan.
def _times(a: Scalar, b: Scalar) -> Scalar:
    if type(a) is int and a == 1 and (type(b) is int or type(b) is Fraction):
        return b
    if type(b) is int and b == 1 and (type(a) is int or type(a) is Fraction):
        return a
    return a * b


def _plus(a: Scalar, b: Scalar) -> Scalar:
    if type(a) is int and a == 0 and (type(b) is int or type(b) is Fraction):
        return b
    if type(b) is int and b == 0 and (type(a) is int or type(a) is Fraction):
        return a
    return a + b


@record
class Diagonal(OperatorExpr):
    weights: ScalarRule

    def line(self, g, axis, keep=None):
        return {g: self.weights.value(g)} if keep is None or keep(g) else {}


@record
class Spread(OperatorExpr):
    spread: SpreadSpec

    def line(self, g, axis, keep=None):
        # a row past a finite domain is empty; a column past a finite image raises
        sp = self.spread
        src, dst = (sp.image, sp.domain) if axis else (sp.domain, sp.image)
        k = src.position_of(g)
        if k is None or axis and dst.length() is not None and k > dst.length():
            return {}
        x = dst.elem(k)
        return {x: 1} if keep is None or keep(x) else {}


@record
class PermutationUnitary(OperatorExpr):
    perm: Permutation

    def line(self, g, axis, keep=None):
        x = self.perm.inverse(g) if axis else self.perm.forward(g)
        return {x: 1} if keep is None or keep(x) else {}


@record
class Sum(OperatorExpr):
    terms: Tuple[OperatorExpr, ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("empty sum")

    def line(self, g, axis, keep=None):
        # each index folds the terms in order, from the int 0: a term's value
        # where its line names the index, else its own blank if it has one; a
        # term with the base blank adds nothing off its line, so the total,
        # never a float or complex with a -0.0 part, stays as it is
        out, blanks = {}, []  # the terms so far with a blank of their own
        for t in self.terms:
            line = t.line(g, axis, keep)
            for x, v in line.items():
                out[x] = _plus(out[x] if x in out else reduce(
                    _plus, [b.blank(*((g, x) if axis else (x, g))) for b in blanks], 0), v)
            if type(t).blank is not OperatorExpr.blank:
                blanks.append(t)
                for x in out:
                    if x not in line:
                        out[x] = _plus(out[x], t.blank(*((g, x) if axis else (x, g))))
        return out

    def blank(self, i, j):
        return reduce(_plus, (t.blank(i, j) for t in self.terms), 0)


@record
class Product(OperatorExpr):
    """Composition ``left . right``.

    Entry ``(i, j)`` sums ``left[i, k] * right[k, j]`` over the ``k`` that the
    right factor's column ``j`` names, in set order, reading ``left.blank``
    where no left line names ``(i, k)``; a zero right value skips its partner.
    A row reads the right factor's columns too, so it sums each entry alike.
    """

    left: OperatorExpr
    right: OperatorExpr

    def line(self, g, axis, keep=None):
        if axis:
            return self._row(g, keep)
        left, lines, reach = self.left, {}, None
        if keep is not None and self.right.valued:  # read no right value if no row is kept
            # default values, not a closure, which would make left and lines cells
            reach = lambda k, d=lines, f=left, c=keep: bool(d.setdefault(k, _peek(f, k, 0, c)))
        right = self.right.line(g, 0, reach)
        if right and len(right) < len(lines):  # sum over every middle index, in their set order
            right = self.right.line(g, 0)
        out, parts = {}, []
        for k in set(right.keys()):
            rv, line = right[k], lines[k] if k in lines else _peek(left, k, 0, keep)
            for x in line:
                out[x] = 0
            if rv != 0:  # a zero skips its partner
                parts.append((k, rv, line if type(line) is dict else left.line(k, 0, keep)))
        for x in out:
            total = 0
            for k, rv, line in parts:
                lv = line[x] if x in line else left.blank(x, k)
                if lv != 0:
                    total = _plus(total, _times(lv, rv))
            out[x] = total
        return out

    def _row(self, i, keep):
        left, right, row = self.left, self.right, _peek(self.left, i, 1)
        columns = {x: right.line(x, 0) for x in dict.fromkeys(
            x for k in set(row) for x in _peek(right, k, 1, keep))}
        if type(row) is not dict:  # read only the left values a right value needs
            row = left.line(i, 1, {k for column in columns.values()
                                   for k, v in column.items() if v != 0}.__contains__)
        return {x: self._entry(i, row, column) for x, column in columns.items()}

    def _entry(self, i, row, column):
        """Entry ``(i, x)`` from row ``i`` of the left factor and column ``x`` of the right."""
        total = 0
        for k in set(column.keys()):
            rv = column[k]
            if rv != 0:
                lv = row[k] if k in row else self.left.blank(i, k)
                if lv != 0:
                    total = _plus(total, _times(lv, rv))
        return total

    def blank(self, i, j):
        # every left entry on the middle indices of column j is a blank
        return self._entry(i, {}, self.right.line(j, 0))


@record
class Adjoint(OperatorExpr):
    inner: OperatorExpr

    def line(self, g, axis, keep=None):
        return {x: conjugate(v) for x, v in self.inner.line(g, 1 - axis, keep).items()}

    def blank(self, i, j):
        return conjugate(self.inner.blank(j, i))


@record
class Scale(OperatorExpr):
    scalar: Scalar
    inner: OperatorExpr

    def line(self, g, axis, keep=None):
        return {x: _times(self.scalar, v) for x, v in self.inner.line(g, axis, keep).items()}

    def blank(self, i, j):
        return _times(self.scalar, self.inner.blank(i, j))


@record
class LambdaShift(OperatorExpr):
    """``lambda I - inner``."""

    lam: Scalar
    inner: OperatorExpr

    def line(self, g, axis, keep=None):
        inner, out = self.inner.line(g, axis, keep), {}
        if keep is None or keep(g):
            out[g] = self.lam - (inner[g] if g in inner else self.inner.blank(g, g))
        out.update((x, 0 - v) for x, v in inner.items() if x != g)
        return out

    def blank(self, i, j):
        return (self.lam if i == j else 0) - self.inner.blank(i, j)


@record
class BlockDirectSum(OperatorExpr):
    """Orthogonal direct sum along a partition of N into index cells."""

    blocks: Tuple[OperatorExpr, ...]
    partition: Tuple[IndexSequence, ...]

    def __post_init__(self):
        if len(self.blocks) != len(self.partition):
            raise ValueError("one partition cell per block required")

    def locate(self, g: int) -> Tuple[int, int]:
        for c, cell in enumerate(self.partition):
            pos = cell.position_of(g)
            if pos is not None:
                ln = cell.length()
                if ln is None or pos <= ln:
                    return c, pos
        raise UnsupportedClassError(f"index {g} not covered by the partition")

    def line(self, g, axis, keep=None):
        c, k = self.locate(g)
        cell = self.partition[c]
        line = self.blocks[c].line(k, axis, keep and (lambda r: keep(cell.elem(r))))
        return {cell.elem(r): line[r] for r in set(line.keys())}

    def blank(self, i, j):
        (ci, ki), (cj, kj) = self.locate(i), self.locate(j)
        return self.blocks[ci].blank(ki, kj) if ci == cj else 0


# ---------------------------------------------------------------------------
# Finitely supported vectors
# ---------------------------------------------------------------------------


@record
class FinVector:
    """Vector with finite support; entries stored sparsely and exactly."""

    entries: Tuple[Tuple[int, Scalar], ...]

    def __post_init__(self):
        seen = set()
        for i, v in self.entries:
            if i < 1:
                raise ValueError("vector indices must be >= 1")
            if i in seen:
                raise ValueError(f"duplicate index {i}")
            if v == 0:
                raise ValueError("entries must be nonzero on the support")
            seen.add(i)

    @classmethod
    def from_dict(cls, values: dict) -> "FinVector":
        return cls(tuple(sorted((i, v) for i, v in values.items() if v != 0)))

    @classmethod
    def basis(cls, k: int) -> "FinVector":
        return cls(((k, 1),))

    @classmethod
    def zero(cls) -> "FinVector":
        return cls(())

    def as_dict(self) -> dict:
        return dict(self.entries)

    @property
    def support(self) -> frozenset:
        return frozenset(i for i, _ in self.entries)

    def value(self, i: int) -> Scalar:
        return self.as_dict().get(i, 0)


def entry(T: OperatorExpr, i: int, j: int) -> Scalar:
    """Exact matrix entry of ``T`` at row ``i``, column ``j``, read from column ``j``."""
    _check_indices(i, j)
    line = T.column(j, i.__eq__)
    return line[i] if i in line else T.blank(i, j)


def apply(T: OperatorExpr, x: FinVector) -> FinVector:
    """``T x`` for finitely supported ``x``; the result is again finite."""
    acc: dict = {}
    for j, xj in x.entries:
        for i, v in T.column(j).items():
            if v == 0:
                continue
            acc[i] = acc.get(i, 0) + v * xj
    return FinVector.from_dict(acc)


def corner_entries(T: OperatorExpr, n: int) -> dict:
    """Entries of the leading ``n x n`` corner that its columns name, exact scalars.

    Keys are zero-based ``(row, column)`` positions, in column order and,
    within a column, in the order ``T.column`` names them.  Every named
    position is kept, also one that evaluates to zero, and one a zero
    factor of a product skips, which holds the int ``0``; positions the
    structure does not name are absent and stand for the int ``0``.
    """
    if n < 1:
        raise ValueError("truncation size must be >= 1")
    out, keep = {}, n.__ge__
    for j in range(1, n + 1):
        for i, v in T.line(j, 0, keep).items():
            out[i - 1, j - 1] = v
    return out


def truncate(T: OperatorExpr, n: int) -> list:
    """Leading ``n x n`` corner as nested lists, preserving exact scalars."""
    entries = corner_entries(T, n)
    M = [[0] * n for _ in range(n)]
    for (i, j), v in entries.items():
        M[i][j] = v
    return M


def corner_array(entries: dict, n: int):
    """The leading ``n x n`` part of ``corner_entries`` as complex128."""
    import numpy as np
    M = np.zeros((n, n), dtype=complex)
    for (i, j), v in entries.items():
        if i < n and j < n:
            M[i, j] = complex(v)
    return M


def truncate_complex(T: OperatorExpr, n: int):
    """Leading corner as a dense complex128 array (for numerics)."""
    return corner_array(corner_entries(T, n), n)


# ---------------------------------------------------------------------------
# Shift forms: one nonzero entry per column
# ---------------------------------------------------------------------------


@record
class ShiftForm:
    """The operator ``T e_j = w(j) e_{perm(j)}``.

    ``perm`` is a total bijection; zero weights are legal at the type
    level and rejected only where injectivity is a precondition.
    """

    perm: Permutation
    weights: ScalarRule

    def to_expr(self) -> Product:
        return Product(PermutationUnitary(self.perm), Diagonal(self.weights))

    def entry(self, i: int, j: int) -> Scalar:
        _check_indices(i, j)
        return self.weights.value(j) if self.perm.forward(j) == i else 0


@record
class ComposedWeightsRule(ScalarRule):
    """``w(n) = inner(perm(n))``, conjugated when ``conjugated``: an adjoint's
    weights, or a product's left weights seen through its right permutation;
    ``compose_weights`` builds it.  Its terms are the inner ones rearranged,
    and a bijection of N tends to infinity, so the limit transfers."""

    inner: ScalarRule
    perm: Permutation
    conjugated: bool = False

    def value(self, n: int) -> Scalar:
        v = self.inner.value(self.perm.forward(n))
        return conjugate(v) if self.conjugated else v

    def limit(self):
        il = self.inner.limit()
        return conjugate(il) if self.conjugated and il is not None else il

    def _terms(self, skip: int, ordered: bool = True) -> Optional[ScalarRule]:
        """A rule with this one's terms past ``skip``, unconjugated: a permutation
        with shift 0 lists those it moves, then leaves the inner terms as they
        are; all the terms, in any order, are the inner ones.  None otherwise."""
        p = self.perm
        if p.shift or p.maps:
            return None if skip or ordered else self.inner
        last = max([skip] + [interleave_z(j) for j, _ in p.moves])
        return ExplicitThenRule(tuple(self.inner.value(p.forward(n)) for n in range(
            skip + 1, last + 1)), OffsetRule(self.inner, last))

    def attains_zero(self, skip=0):
        terms = self._terms(skip, False)
        return None if terms is None else terms.attains_zero()

    def zero_index(self, skip=0):
        # the first zero of the terms listed past skip, or else the inner
        # rule's, where this one reads it: a witness, maybe not the first
        terms = self._terms(skip, False)
        n = None if terms is None else terms.zero_index()
        return n if n is None else self.perm.inverse(n) if terms is self.inner else skip + n

    def value_set(self, skip=0):
        terms = self._terms(skip, False)
        values = None if terms is None else terms.value_set()
        return tuple(map(conjugate, values)) if self.conjugated and values else values

    def is_real(self, skip=0, nonnegative=False):
        terms = self._terms(skip, False)
        return None if terms is None else terms.is_real(0, nonnegative)

    def abs_nonincreasing(self, skip=0, strict=False):
        terms = self._terms(skip)
        if terms is not None:
            return terms.abs_nonincreasing(0, strict)
        # a translation has a descent past every index, where falling terms rise
        return False if self.perm.shift and self.inner.abs_nonincreasing(0, True) else None

    def describe(self):
        conjugated = ", conjugated" * self.conjugated
        return f"({self.inner.describe()}) o {self.perm.description}{conjugated}"


def compose_weights(rule: ScalarRule, perm: Permutation, conjugated: bool = False) -> ScalarRule:
    """``n -> rule(perm(n))``, conjugated when ``conjugated``.  A composed
    ``rule``'s permutation is composed in, so a double adjoint cancels; the
    identity leaves ``rule`` as it is, unless it conjugates complex values."""
    if isinstance(rule, ComposedWeightsRule):
        perm = compose_permutations(rule.perm, perm)
        conjugated ^= rule.conjugated
        rule = rule.inner
    if perm.is_identity and (not conjugated or rule.is_real()):
        return rule
    return ComposedWeightsRule(rule, perm, conjugated)


@record
class ProductWeightsRule(ScalarRule):
    a: ScalarRule
    b: ScalarRule

    def value(self, n: int) -> Scalar:
        return self.a.value(n) * self.b.value(n)

    def limit(self):
        la, lb = self.a.limit(), self.b.limit()
        if la is None or lb is None:
            if la == 0 or lb == 0:
                # bounded partner turns a vanishing factor into a vanishing product
                other = self.b if la == 0 else self.a
                if other.abs_nonincreasing() is True:
                    return 0
            return None
        return la * lb

    def attains_zero(self, skip=0):
        za, zb = self.a.attains_zero(skip), self.b.attains_zero(skip)
        if za is True or zb is True:
            return True
        if za is False and zb is False:
            return False
        return None

    def zero_index(self, skip=0):
        return min(filter(None, (self.a.zero_index(skip), self.b.zero_index(skip))), default=None)

    def is_real(self, skip=0, nonnegative=False):
        # a complex factor makes a complex term, real ones a real one
        real = {self.a.is_real(skip), self.b.is_real(skip)}
        if real != {True}:
            return False if False in real else None
        return not nonnegative or self.a.is_real(skip, True) and self.b.is_real(skip, True) or None

    def abs_nonincreasing(self, skip=0, strict=False):
        # |ab| = |a| |b| falls strictly where one factor does and the other
        # neither rises nor is 0
        a, b = self.a, self.b
        if a.abs_nonincreasing(skip) is not True or b.abs_nonincreasing(skip) is not True:
            return None
        if not strict or (a.abs_nonincreasing(skip, True) and b.attains_zero(skip) is False
                          or b.abs_nonincreasing(skip, True) and a.attains_zero(skip) is False):
            return True
        return None

    def describe(self):
        return f"({self.a.describe()}) * ({self.b.describe()})"


@record
class AbsRule(ScalarRule):
    inner: ScalarRule

    def value(self, n: int) -> Scalar:
        return _abs_exact(self.inner.value(n))

    def limit(self):
        il = self.inner.limit()
        return None if il is None else _abs_exact(il)

    def attains_zero(self, skip=0):
        return self.inner.attains_zero(skip)

    def zero_index(self, skip=0):
        return self.inner.zero_index(skip)

    def is_real(self, skip=0, nonnegative=False):
        return True

    def abs_nonincreasing(self, skip=0, strict=False):
        return self.inner.abs_nonincreasing(skip, strict)

    def describe(self):
        return f"|{self.inner.describe()}|"


@record
class PhaseRule(ScalarRule):
    """Unimodular phases ``w/|w|``; exact 1/-1 for exact real weights."""

    inner: ScalarRule

    def value(self, n: int) -> Scalar:
        v = self.inner.value(n)
        if v == 0:
            raise ValueError(f"zero weight at {n} has no phase")
        if not isinstance(v, complex):
            return 1 if v > 0 else -1
        return v / abs(v)

    def attains_zero(self, skip=0):
        return False

    def is_real(self, skip=0, nonnegative=False):
        # the phase of a real weight is its sign, of a complex one complex
        real = self.inner.is_real(skip)
        return self.inner.is_real(skip, nonnegative) if real else real

    def abs_nonincreasing(self, skip=0, strict=False):
        # real phases are 1 or -1; a complex one's modulus is 1 only up to rounding
        return not strict if self.inner.is_real(skip) else None

    def describe(self):
        return f"phase of ({self.inner.describe()})"


def adjoint_shift_form(s: ShiftForm) -> ShiftForm:
    """Shift form of ``T*``: inverted permutation, conjugated reindexed weights."""
    inverse = inverse_permutation(s.perm)
    return ShiftForm(inverse, compose_weights(s.weights, inverse, True))


@record
class ShiftRecognition:
    """Exact polar factorization of a recognized shift: ``T = unitary . diagonal``."""

    unitary: OperatorExpr
    diagonal: Diagonal
    shift: ShiftForm


def _structural_shift(T) -> Optional[ShiftForm]:
    """The shift form ``T``'s nodes define exactly, or ``None``; a sum of
    spreads has one when ``spread_sum_fault`` finds its spreads a permutation."""
    if isinstance(T, ShiftForm):
        return T
    if isinstance(T, Diagonal):
        return ShiftForm(identity_permutation(), T.weights)
    if isinstance(T, PermutationUnitary):
        return ShiftForm(T.perm, ConstantRule(1))
    if isinstance(T, Scale):
        inner = _structural_shift(T.inner)
        if inner is None:
            return None
        return ShiftForm(inner.perm, ScaledRule(T.scalar, inner.weights))
    if isinstance(T, Adjoint):
        inner = _structural_shift(T.inner)
        if inner is None:
            return None
        return adjoint_shift_form(inner)
    if isinstance(T, Product):
        lf = _structural_shift(T.left)
        rf = _structural_shift(T.right)
        if lf is None or rf is None:
            return None
        perm = compose_permutations(lf.perm, rf.perm)
        left_w = lf.weights
        if left_w == ConstantRule(1):
            weights: ScalarRule = rf.weights
        else:
            composed = compose_weights(left_w, rf.perm)
            if rf.weights == ConstantRule(1):
                weights = composed
            else:
                weights = ProductWeightsRule(rf.weights, composed)
        return ShiftForm(perm, weights)
    if isinstance(T, Sum) and all(isinstance(t, Spread) for t in T.terms):
        spreads = [t.spread for t in T.terms]
        for named in (identity_permutation(), sigma_bilateral()):
            if Counter(spreads) == Counter(decompose_into_spreads(named, 1)):
                return ShiftForm(named, ConstantRule(1))
        if spread_sum_fault(spreads) is None:  # then each line of the sum names one index
            return ShiftForm(opaque_permutation(lambda j: next(iter(T.column(j))),
                                                lambda i: next(iter(T.row(i))), "sum-of-spreads"),
                             ConstantRule(1))
    return None


def unrecognized(T) -> UnsupportedClassError:
    """The refusal for ``T`` with no shift form: it names the node where
    ``_structural_shift`` stops, and of a sum of spreads, a line hit twice or never."""
    while isinstance(T, (Scale, Adjoint, Product)):
        if isinstance(T, Product):
            T = T.left if _structural_shift(T.left) is None else T.right
        else:
            T = T.inner
    if isinstance(T, Sum) and all(isinstance(t, Spread) for t in T.terms):
        what = f"a Sum of spreads: {spread_sum_fault([t.spread for t in T.terms])}"
    else:
        what = {Sum: "a Sum of non-spread terms", Spread: "a lone Spread"}.get(
            type(T), f"a {type(T).__name__}")
    return UnsupportedClassError(
        f"operator is not permutation-weighted: recognition stops at {what}")


def recognize_shift_form(T, window: int = 64) -> Optional[ShiftRecognition]:
    """Recognize ``T`` as a permutation-weighted operator and polar-factor it.

    Returns the unitary factor, the nonnegative diagonal factor, and the
    shift form ``_structural_shift(T)``, with ``T = unitary . diagonal``
    entrywise, or ``None`` (``unrecognized`` says why).  It reads the tree,
    never the matrix, so ``window`` is ignored, kept only for callers that
    still pass it.  For this class the split is the polar decomposition.
    """
    shift = _structural_shift(T)
    if shift is None:
        return None
    w = shift.weights
    if w.is_real(nonnegative=True):
        unitary: OperatorExpr = PermutationUnitary(shift.perm)
        diag = Diagonal(w)
    else:
        diag = Diagonal(AbsRule(w))
        unitary = Product(PermutationUnitary(shift.perm), Diagonal(PhaseRule(w)))
    return ShiftRecognition(unitary=unitary, diagonal=diag, shift=shift)


# ---------------------------------------------------------------------------
# Named constructions
# ---------------------------------------------------------------------------


def backward_unilateral_shift() -> Spread:
    """``S e_n = e_{n-1}`` for n >= 2, ``S e_1 = 0``: the spread {2,3,..} -> N."""
    return Spread(SpreadSpec(ArithmeticSequence(2, 1), naturals()))


def forward_unilateral_shift() -> Spread:
    """``S e_n = e_{n+1}``: the spread N -> {2,3,..}; row 1 is unreachable."""
    return Spread(SpreadSpec(naturals(), ArithmeticSequence(2, 1)))


def bilateral_backward_unitary() -> PermutationUnitary:
    """The classical backward bilateral shift in the interleaved basis."""
    return PermutationUnitary(z_translation_permutation(-1))


def cibws_weight_rule() -> ExplicitThenRule:
    """Diagonal weights of the compact injective bilateral weighted shift.

    In the interleaved basis the Z-indexed weights ``1/(1+|j|)`` read
    ``1, 1/2, 1/2, 1/3, 1/3, ...``.
    """
    inner = OffsetRule(PowerLawRule(Fraction(1), 1), 1)
    return ExplicitThenRule((Fraction(1),), RepeatedRule(inner, 2))


def cibws() -> ShiftForm:
    """Compact injective bilateral weighted shift with weights ``1/(1+|j|)``."""
    return ShiftForm(z_translation_permutation(-1), cibws_weight_rule())


def cibws_from_z_definition() -> ShiftForm:
    """The same operator assembled index-by-index from its Z description.

    Independent of :func:`cibws_weight_rule`; used to cross-check the
    interleaved weight bookkeeping.
    """
    return ShiftForm(z_translation_permutation(-1),
                     CallableRule(lambda n: Fraction(1, 1 + abs(deinterleave(n))),
                                  "1/(1+|j|) via deinterleave", limit_hint=0))
