"""Lazy expression trees for structured operators on l2.

Every variant is row- and column-finite with a structural bound on the
number of nonzero entries per line, so single entries, applications to
finitely supported vectors, and corner truncations all evaluate by
finite sums with no truncation error.  Exact scalars (ints, Fractions)
survive evaluation untouched; equality checks on windows of the named
examples are therefore exact.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Optional, Tuple

from .errors import UnsupportedClassError
from .index_maps import (
    Permutation,
    SpreadSpec,
    compose_permutations,
    decompose_into_spreads,
    deinterleave,
    identity_permutation,
    inverse_permutation,
    opaque_permutation,
    sigma_bilateral,
    z_translation_permutation,
)
from .records import record
from .sequences import (
    ArithmeticSequence,
    CallableRule,
    ConstantRule,
    ExplicitThenRule,
    GeometricRule,
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
    """Base class: an immutable, entrywise-evaluable operator description."""

    def entry(self, i: int, j: int) -> Scalar:
        raise NotImplementedError

    def column_support(self, j: int) -> Tuple[int, ...]:
        """Rows that may hold a nonzero entry of column ``j``."""
        raise NotImplementedError

    def row_support(self, i: int) -> Tuple[int, ...]:
        """Columns that may hold a nonzero entry of row ``i``."""
        raise NotImplementedError

    def __matmul__(self, other: "OperatorExpr") -> "Product":
        return Product(self, other)

    def __add__(self, other: "OperatorExpr") -> "Sum":
        return Sum((self, other))


def _check_indices(i: int, j: int) -> None:
    if i < 1 or j < 1:
        raise ValueError("matrix indices must be >= 1")


@record
class Diagonal(OperatorExpr):
    weights: ScalarRule

    def entry(self, i, j):
        _check_indices(i, j)
        return self.weights.value(i) if i == j else 0

    def column_support(self, j):
        return (j,)

    def row_support(self, i):
        return (i,)


@record
class Spread(OperatorExpr):
    spread: SpreadSpec

    def entry(self, i, j):
        _check_indices(i, j)
        k = self.spread.domain.position_of(j)
        if k is None:
            return 0
        return 1 if self.spread.image.elem(k) == i else 0

    def column_support(self, j):
        k = self.spread.domain.position_of(j)
        if k is None:
            return ()
        return (self.spread.image.elem(k),)

    def row_support(self, i):
        k = self.spread.image.position_of(i)
        if k is None:
            return ()
        ln = self.spread.domain.length()
        if ln is not None and k > ln:
            return ()
        return (self.spread.domain.elem(k),)


@record
class PermutationUnitary(OperatorExpr):
    perm: Permutation

    def entry(self, i, j):
        _check_indices(i, j)
        return 1 if self.perm.forward(j) == i else 0

    def column_support(self, j):
        return (self.perm.forward(j),)

    def row_support(self, i):
        return (self.perm.inverse(i),)


@record
class Sum(OperatorExpr):
    terms: Tuple[OperatorExpr, ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("empty sum")

    def entry(self, i, j):
        total = 0
        for t in self.terms:
            total = total + t.entry(i, j)
        return total

    def column_support(self, j):
        out: list = []
        for t in self.terms:
            out.extend(t.column_support(j))
        return tuple(out)

    def row_support(self, i):
        out: list = []
        for t in self.terms:
            out.extend(t.row_support(i))
        return tuple(out)


@record
class Product(OperatorExpr):
    """Composition ``left . right``; entries via the finite middle index set."""

    left: OperatorExpr
    right: OperatorExpr

    def entry(self, i, j):
        _check_indices(i, j)
        total = 0
        for k in set(self.right.column_support(j)):
            rv = self.right.entry(k, j)
            if rv == 0:
                continue
            lv = self.left.entry(i, k)
            if lv == 0:
                continue
            total = total + lv * rv
        return total

    def column_support(self, j):
        out: list = []
        for k in set(self.right.column_support(j)):
            out.extend(self.left.column_support(k))
        return tuple(out)

    def row_support(self, i):
        out: list = []
        for k in set(self.left.row_support(i)):
            out.extend(self.right.row_support(k))
        return tuple(out)


@record
class Adjoint(OperatorExpr):
    inner: OperatorExpr

    def entry(self, i, j):
        _check_indices(i, j)
        return conjugate(self.inner.entry(j, i))

    def column_support(self, j):
        return self.inner.row_support(j)

    def row_support(self, i):
        return self.inner.column_support(i)


@record
class Scale(OperatorExpr):
    scalar: Scalar
    inner: OperatorExpr

    def entry(self, i, j):
        return self.scalar * self.inner.entry(i, j)

    def column_support(self, j):
        return self.inner.column_support(j)

    def row_support(self, i):
        return self.inner.row_support(i)


@record
class LambdaShift(OperatorExpr):
    """``lambda I - inner``."""

    lam: Scalar
    inner: OperatorExpr

    def entry(self, i, j):
        _check_indices(i, j)
        base = self.lam if i == j else 0
        return base - self.inner.entry(i, j)

    def column_support(self, j):
        return (j,) + tuple(self.inner.column_support(j))

    def row_support(self, i):
        return (i,) + tuple(self.inner.row_support(i))


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

    def entry(self, i, j):
        _check_indices(i, j)
        ci, ki = self.locate(i)
        cj, kj = self.locate(j)
        if ci != cj:
            return 0
        return self.blocks[ci].entry(ki, kj)

    def column_support(self, j):
        c, k = self.locate(j)
        cell = self.partition[c]
        return tuple(cell.elem(r) for r in set(self.blocks[c].column_support(k)))

    def row_support(self, i):
        c, k = self.locate(i)
        cell = self.partition[c]
        return tuple(cell.elem(r) for r in set(self.blocks[c].row_support(k)))


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
    """Exact matrix entry of ``T`` at row ``i``, column ``j``."""
    return T.entry(i, j)


def apply(T: OperatorExpr, x: FinVector) -> FinVector:
    """``T x`` for finitely supported ``x``; the result is again finite."""
    acc: dict = {}
    for j, xj in x.entries:
        for i in set(T.column_support(j)):
            v = T.entry(i, j)
            if v == 0:
                continue
            acc[i] = acc.get(i, 0) + v * xj
    return FinVector.from_dict(acc)


def corner_entries(T: OperatorExpr, n: int) -> dict:
    """Supported entries of the leading ``n x n`` corner, exact scalars.

    Keys are zero-based ``(row, column)`` positions, in column order and,
    within a column, in the order ``column_support`` yields them.  Every
    supported entry is kept, also one that evaluates to zero; positions
    outside the support are absent and stand for the int ``0``.
    """
    if n < 1:
        raise ValueError("truncation size must be >= 1")
    out = {}
    for j in range(1, n + 1):
        for i in set(T.column_support(j)):
            if 1 <= i <= n:
                out[i - 1, j - 1] = T.entry(i, j)
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
class AdjointWeightsRule(ScalarRule):
    """Weights of the adjoint shift: ``w*(i) = conj(w(perm^{-1}(i)))``.

    The weight multiset is the original one reindexed by a bijection, so
    zero-freeness transfers exactly; the limit transfers for the
    bounded-displacement permutations used by the constructions here.
    """

    inner: ScalarRule
    perm: Permutation

    def value(self, n: int) -> Scalar:
        return conjugate(self.inner.value(self.perm.inverse(n)))

    def limit(self):
        il = self.inner.limit()
        return None if il is None else conjugate(il)

    def attains_zero(self):
        return self.inner.attains_zero()

    def describe(self):
        return f"adjoint weights of ({self.inner.describe()})"


@record
class ComposedWeightsRule(ScalarRule):
    """``w(j) = inner(perm(j))`` -- diagonal weights seen through a shift."""

    inner: ScalarRule
    perm: Permutation

    def value(self, n: int) -> Scalar:
        return self.inner.value(self.perm.forward(n))

    def limit(self):
        return self.inner.limit()

    def attains_zero(self):
        return self.inner.attains_zero()

    def describe(self):
        return f"({self.inner.describe()}) o perm"


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

    def attains_zero(self):
        za, zb = self.a.attains_zero(), self.b.attains_zero()
        if za is True or zb is True:
            return True
        if za is False and zb is False:
            return False
        return None

    def abs_nonincreasing(self):
        if self.a.abs_nonincreasing() is True and self.b.abs_nonincreasing() is True:
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

    def attains_zero(self):
        return self.inner.attains_zero()

    def abs_nonincreasing(self):
        return self.inner.abs_nonincreasing()

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

    def attains_zero(self):
        return False

    def describe(self):
        return f"phase of ({self.inner.describe()})"


def adjoint_shift_form(s: ShiftForm) -> ShiftForm:
    """Shift form of ``T*``: inverted permutation, conjugated reindexed weights."""
    return ShiftForm(inverse_permutation(s.perm), AdjointWeightsRule(s.weights, s.perm))


def is_real_rule_certified_nonnegative(rule: ScalarRule) -> bool:
    """True when every value of ``rule`` is certifiably a nonnegative real."""
    if isinstance(rule, ConstantRule):
        return not isinstance(rule.c, complex) and rule.c >= 0
    if isinstance(rule, PowerLawRule):
        return not isinstance(rule.scale, complex) and rule.scale >= 0
    if isinstance(rule, GeometricRule):
        return (
            not isinstance(rule.scale, complex)
            and not isinstance(rule.ratio, complex)
            and rule.scale >= 0
            and rule.ratio >= 0
        )
    if isinstance(rule, ScaledRule):
        return (
            not isinstance(rule.factor, complex)
            and rule.factor >= 0
            and is_real_rule_certified_nonnegative(rule.inner)
        )
    if isinstance(rule, (OffsetRule, RepeatedRule)):
        return is_real_rule_certified_nonnegative(rule.inner)
    if isinstance(rule, ExplicitThenRule):
        pre_ok = all(not isinstance(v, complex) and v >= 0 for v in rule.prefix)
        if rule.tail is None:
            return pre_ok
        return pre_ok and is_real_rule_certified_nonnegative(rule.tail)
    from .sequences import AffineRule

    if isinstance(rule, AffineRule):
        if isinstance(rule.base, complex) or rule.base <= 0:
            return False
        if rule.inner.abs_nonincreasing() is not True:
            return False
        first = rule.inner.value(1)
        if isinstance(first, complex):
            return False
        return rule.base - _abs_exact(first) >= 0
    return False


@record
class ShiftRecognition:
    """Exact polar factorization of a recognized shift: ``T = unitary . diagonal``."""

    unitary: OperatorExpr
    diagonal: Diagonal
    shift: ShiftForm


def _column_scan(T: OperatorExpr, j: int) -> list:
    out = []
    for i in sorted(set(T.column_support(j))):
        v = T.entry(i, j)
        if v != 0:
            out.append((i, v))
    return out


def _row_scan(T: OperatorExpr, i: int) -> list:
    out = []
    for j in sorted(set(T.row_support(i))):
        v = T.entry(i, j)
        if v != 0:
            out.append((j, v))
    return out


def _structural_shift(T) -> Optional[ShiftForm]:
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
        if isinstance(left_w, ConstantRule) and left_w.c == 1:
            weights: ScalarRule = rf.weights
        else:
            composed = ComposedWeightsRule(left_w, rf.perm)
            if isinstance(rf.weights, ConstantRule) and rf.weights.c == 1:
                weights = composed
            else:
                weights = ProductWeightsRule(rf.weights, composed)
        return ShiftForm(perm, weights)
    if isinstance(T, Sum):
        if not all(isinstance(t, Spread) for t in T.terms):
            return None
        spreads = Counter(t.spread for t in T.terms)
        for named in (identity_permutation(), sigma_bilateral()):
            if spreads == Counter(decompose_into_spreads(named, 1)):
                return ShiftForm(named, ConstantRule(1))

        def forward(j: int) -> int:
            hits = T.column_support(j)
            if len(hits) != 1:
                raise UnsupportedClassError(f"column {j} is hit by {len(hits)} spreads")
            return hits[0]

        def inverse(i: int) -> int:
            hits = T.row_support(i)
            if len(hits) != 1:
                raise UnsupportedClassError(f"row {i} is hit by {len(hits)} spreads")
            return hits[0]

        perm = opaque_permutation(forward, inverse, "sum-of-spreads")
        return ShiftForm(perm, ConstantRule(1))
    return None


def recognize_shift_form(T, window: int = 64) -> Optional[ShiftRecognition]:
    """Recognize ``T`` as a permutation-weighted operator and polar-factor it.

    Returns the unitary factor, the nonnegative diagonal factor, and the
    shift form, with ``T = unitary . diagonal`` entrywise; ``None`` when a
    column in the window fails to carry exactly one nonzero entry.  For
    this class the factorization is the polar decomposition itself.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    candidate = _structural_shift(T)
    expr = T.to_expr() if isinstance(T, ShiftForm) else T

    # the unitary factor must be a bijection: every row in the window
    # carries exactly one nonzero entry (possibly from a column beyond
    # the window), and every column exactly one
    try:
        if any(len(_row_scan(expr, i)) != 1 for i in range(1, window + 1)):
            return None
    except (ValueError, UnsupportedClassError):
        return None

    pairs = []
    rows = set()
    for j in range(1, window + 1):
        nz = _column_scan(expr, j)
        if len(nz) != 1 or nz[0][0] in rows:
            return None
        rows.add(nz[0][0])
        pairs.append(nz[0])

    verified = candidate
    if verified is not None:
        try:
            if any(r != verified.perm.forward(j) or v != verified.weights.value(j)
                   for j, (r, v) in enumerate(pairs, 1)):
                verified = None
        except (ValueError, UnsupportedClassError):
            verified = None

    if verified is None:
        def forward(j: int) -> int:
            nz = _column_scan(expr, j)
            if len(nz) != 1:
                raise UnsupportedClassError(f"column {j} has {len(nz)} nonzero entries")
            return nz[0][0]

        def inverse(i: int) -> int:
            nz = _row_scan(expr, i)
            if len(nz) != 1:
                raise UnsupportedClassError(f"row {i} has {len(nz)} nonzero entries")
            return nz[0][0]

        def weight(j: int) -> Scalar:
            nz = _column_scan(expr, j)
            if len(nz) != 1:
                raise UnsupportedClassError(f"column {j} has {len(nz)} nonzero entries")
            return nz[0][1]

        perm = opaque_permutation(forward, inverse, "scanned shift")
        verified = ShiftForm(perm, CallableRule(weight, "scanned column weights"))

    w = verified.weights
    if is_real_rule_certified_nonnegative(w):
        unitary: OperatorExpr = PermutationUnitary(verified.perm)
        diag = Diagonal(w)
    else:
        diag = Diagonal(AbsRule(w))
        unitary = Product(PermutationUnitary(verified.perm), Diagonal(PhaseRule(w)))
    return ShiftRecognition(unitary=unitary, diagonal=diag, shift=verified)


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

    def weight(n: int) -> Fraction:
        return Fraction(1, 1 + abs(deinterleave(n)))

    return ShiftForm(z_translation_permutation(-1),
                     CallableRule(weight, "1/(1+|j|) via deinterleave", limit_hint=0))
