import math
from fractions import Fraction
from itertools import pairwise

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schauderspec import (
    AffineRule,
    ArithmeticSequence,
    CallableRule,
    ClosedFormSequence,
    ConstantRule,
    ExplicitPrefixSequence,
    ExplicitThenRule,
    GeometricRule,
    MergedAbsDecreasingRule,
    MultiplicityList,
    OffsetRule,
    PowerLawRule,
    RepeatedRule,
    ScaledRule,
)
from schauderspec.index_maps import (
    identity_permutation,
    inverse_permutation,
    one_line_permutation,
    sigma_bilateral,
    z_translation_permutation,
)
from schauderspec.op_algebra import (
    AbsRule,
    ComposedWeightsRule,
    PhaseRule,
    ProductWeightsRule,
    compose_weights,
)
from schauderspec.sequences import (
    ScalarRule,
    _abs_exact,
    _monotone_fact,
    _normal_form,
    _real_fact,
    _zero_fact,
    log_abs,
)


def reference_merge(finite_parts, rule_parts, count):
    """The k-way merge as a pull loop that re-reads every source's head.

    Each pull takes the head of largest magnitude, the earliest source
    on ties (finite parts first, then rules).  Returns the first
    ``count`` merged values, or the values before exhaustion and
    ``True``.
    """
    finite = [sorted(part, key=_abs_exact, reverse=True) for part in finite_parts]
    finite_pos = [0] * len(finite)
    rule_pos = [1] * len(rule_parts)
    out = []
    while len(out) < count:
        best = None
        for kind, count_k in (("finite", len(finite)), ("rule", len(rule_parts))):
            for i in range(count_k):
                if kind == "finite":
                    if finite_pos[i] >= len(finite[i]):
                        continue
                    head = finite[i][finite_pos[i]]
                else:
                    ln = rule_parts[i].length()
                    if ln is not None and rule_pos[i] > ln:
                        continue
                    head = rule_parts[i].value(rule_pos[i])
                key = _abs_exact(head)
                if best is None or key > best[0]:
                    best = (key, kind, i, head)
        if best is None:
            return out, True
        _, kind, i, head = best
        if kind == "finite":
            finite_pos[i] += 1
        else:
            rule_pos[i] += 1
        out.append(head)
    return out, False


# Values with many equal magnitudes across types: 1 = -1 = 1j = 1.0,
# 1/2 = 0.5 = -0.5j, 1/4 = 0.25.
TIE_VALUES = st.sampled_from([
    1, -1, 1j, 1.0, Fraction(1, 2), 0.5, -0.5j, Fraction(-1, 2),
    Fraction(1, 4), 0.25, Fraction(1, 3), 2, -2.0, 0,
])


@st.composite
def merge_rules(draw):
    """A |.|-nonincreasing rule: finite, constant, geometric or power law."""
    kind = draw(st.sampled_from(["finite", "prefix-then", "constant",
                                 "geometric", "power-law"]))
    prefix = tuple(sorted(draw(st.lists(TIE_VALUES, max_size=4)),
                          key=_abs_exact, reverse=True))
    if kind == "finite":
        return ExplicitThenRule(prefix or (1,))
    if kind == "constant":
        return ConstantRule(draw(TIE_VALUES))
    if kind == "geometric":
        return GeometricRule(draw(st.sampled_from([1, 2, 1.0, -1])),
                             draw(st.sampled_from([Fraction(1, 2), 0.5])))
    tail = PowerLawRule(draw(st.sampled_from([Fraction(1, 4), 0.25, 1])), 1)
    if kind == "power-law":
        return tail
    return ExplicitThenRule(tuple(v for v in prefix if _abs_exact(v) >= 1), tail)


def same(a, b):
    return type(a) is type(b) and a == b


class TestMergedAbsDecreasingRule:
    @settings(max_examples=300, deadline=None)
    @given(finite_parts=st.lists(st.lists(TIE_VALUES, max_size=5), max_size=3),
           rule_parts=st.lists(merge_rules(), max_size=3),
           queries=st.lists(st.integers(1, 25), min_size=1, max_size=8))
    def test_matches_reference_pull_loop(self, finite_parts, rule_parts, queries):
        merged = MergedAbsDecreasingRule(finite_parts, rule_parts)
        want, exhausted = reference_merge(finite_parts, rule_parts, max(queries))
        for n in queries:
            if n <= len(want):
                assert same(merged.value(n), want[n - 1])
            else:
                assert exhausted
                with pytest.raises(ValueError, match="merged rule exhausted"):
                    merged.value(n)

    def test_ties_go_to_finite_parts_then_rules_in_order(self):
        merged = MergedAbsDecreasingRule(
            [(0.5, 1), (Fraction(1, 2),)],
            [ExplicitThenRule((1.0,)), ExplicitThenRule((-1j, 0.5j))])
        want = [1, 1.0, -1j, 0.5, Fraction(1, 2), 0.5j]
        assert all(same(merged.value(n), v) for n, v in enumerate(want, 1))
        with pytest.raises(ValueError, match="merged rule exhausted"):
            merged.value(7)

    def test_exhaustion_is_an_error(self):
        merged = MergedAbsDecreasingRule([(1, 2)], [ExplicitThenRule((3,))])
        assert [merged.value(n) for n in (3, 1, 2)] == [1, 3, 2]
        with pytest.raises(ValueError, match="merged rule exhausted"):
            merged.value(4)
        assert merged.value(2) == 2


def linear_position(seq, value):
    """``position_of`` by walking the sequence from its first element."""
    n = 1
    while seq.length() is None or n <= seq.length():
        e = seq.elem(n)
        if e == value:
            return n
        if e > value:
            return None
        n += 1
    return None


@st.composite
def index_sequences(draw):
    kind = draw(st.sampled_from(["prefix", "prefix-then-arithmetic",
                                 "prefix-then-closed-form", "closed-form"]))
    a, b = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    closed = ClosedFormSequence(lambda n: a * n * n + b * n, f"{a}n^2 + {b}n")
    if kind == "closed-form":
        return closed
    prefix = tuple(sorted(draw(st.sets(st.integers(1, 30), min_size=1, max_size=8))))
    if kind == "prefix":
        return ExplicitPrefixSequence(prefix)
    if kind == "prefix-then-arithmetic":
        return ExplicitPrefixSequence(
            prefix, ArithmeticSequence(prefix[-1] + draw(st.integers(1, 3)),
                                       draw(st.integers(1, 4))))
    shift = prefix[-1]
    return ExplicitPrefixSequence(
        prefix, ClosedFormSequence(lambda n: shift + a * n * n + b * n))


class TestPositionOf:
    @settings(max_examples=200, deadline=None)
    @given(seq=index_sequences())
    def test_matches_linear_scan(self, seq):
        for v in range(-2, 80):
            assert seq.position_of(v) == linear_position(seq, v)

    def test_every_element_found(self):
        seq = ExplicitPrefixSequence((2, 3, 7), ClosedFormSequence(lambda n: 7 + n * n))
        for n in range(1, 30):
            assert seq.position_of(seq.elem(n)) == n


def ones_with_zero_at(z):
    return ExplicitThenRule((1,) * (z - 1) + (0,), ConstantRule(1))


# rules whose zeros sit at index z (the repeated one at z and its twin)
ZERO_SHAPES = {
    "explicit-then": ones_with_zero_at,
    "in-the-tail": lambda z: ExplicitThenRule((1, 1), ones_with_zero_at(z - 2)),
    "nested-offset": lambda z: OffsetRule(ones_with_zero_at(z + 2), 2),
    "repeated": lambda z: RepeatedRule(ones_with_zero_at((z + 1) // 2), 2),
}


class TestOffsetAttainsZero:
    @pytest.mark.parametrize("zero_at", [3, 6, 7, 9],
                             ids=["before", "at", "just-past", "past"])
    @pytest.mark.parametrize("shape", sorted(ZERO_SHAPES))
    def test_zero_before_at_and_past_the_offset(self, shape, zero_at):
        rule = OffsetRule(ZERO_SHAPES[shape](zero_at), 6)
        # only a zero past the 6 dropped terms is still a term
        assert (0 in rule.values(20)) == (zero_at > 6)
        assert rule.attains_zero() is (zero_at > 6)

    @pytest.mark.parametrize("c, zero", [(0, True), (2, False)])
    def test_constant_inner_rule(self, c, zero):
        assert OffsetRule(ConstantRule(c), 5).attains_zero() is zero

    def test_scaled_rules_are_decided_past_the_offset(self):
        # a scaled rule answers for the terms past the offset: its zero at 9
        # is kept, its zero at 5 dropped
        assert OffsetRule(ScaledRule(2, ones_with_zero_at(9)), 6).attains_zero() is True
        assert OffsetRule(ScaledRule(2, ones_with_zero_at(5)), 6).attains_zero() is False
        assert OffsetRule(ScaledRule(2, PowerLawRule(1, 1)), 6).attains_zero() is False


# 1, 1/2, .., 1/70, then 1, 1/2, ..: |.| rises once, after index 70
RISE70 = ExplicitThenRule(tuple(Fraction(1, k) for k in range(1, 71)), PowerLawRule(1, 1))


class TestAbsNonincreasing:
    def test_offset_past_the_rise_does_not_rise(self):
        rule = OffsetRule(RISE70, 70)  # 1, 1/2, 1/3, ..
        assert RISE70.abs_nonincreasing() is False
        assert rule.abs_nonincreasing() is rule.abs_nonincreasing(strict=True) is True
        assert MultiplicityList((), rule).tail == rule

    def test_zero_factor_does_not_rise(self):
        rule = ScaledRule(0, RISE70)  # 0, 0, ..
        assert rule.abs_nonincreasing() is True
        assert rule.abs_nonincreasing(strict=True) is False
        assert MultiplicityList((), rule).tail == rule


@st.composite
def walked_rules(draw, depth=3):
    """Explicit-then, offset and repeated rules over leaves that are a
    constant (possibly 0), a never-zero power law, or the end of the terms."""
    kind = draw(st.sampled_from(["leaf", "explicit", "offset", "repeated"]
                                if depth else ["leaf"]))
    if kind == "leaf":
        return draw(st.sampled_from([ConstantRule(0), ConstantRule(2),
                                     PowerLawRule(1, 1)]))
    inner = draw(walked_rules(depth - 1))
    if kind == "offset":
        return OffsetRule(inner, draw(st.integers(0, 7)))
    if kind == "repeated":
        return RepeatedRule(inner, draw(st.integers(1, 4)))
    prefix = tuple(draw(st.lists(st.sampled_from([0, 1, Fraction(1, 2)]),
                                 max_size=4)))
    tail = draw(st.one_of(st.none(), st.just(inner)))
    return ExplicitThenRule(prefix or (1,), tail)


class TestFirstZero:
    @settings(max_examples=300, deadline=None)
    @given(rule=walked_rules())
    def test_matches_a_scan(self, rule):
        # every zero of these rules lies on the walk, so a None means none
        ln = rule.length()
        scanned = next((n for n in range(1, 2001 if ln is None else ln + 1)
                        if rule.value(n) == 0), None)
        assert _zero_fact(rule) == (scanned is not None, scanned)

    def test_zero_past_a_repeated_prefix(self):
        prefix = tuple(Fraction(1, k) for k in range(1, 11)) + (0,)
        inner = RepeatedRule(ExplicitThenRule(prefix, PowerLawRule(1, 1)), 100)
        assert _zero_fact(OffsetRule(inner, 0))[1] == 1001
        assert _zero_fact(OffsetRule(inner, 950))[1] == 51
        assert _zero_fact(OffsetRule(inner, 1050))[1] == 1
        assert _zero_fact(OffsetRule(inner, 1100))[1] is None

    def test_other_leaves_place_no_zero(self):
        # a zero factor's zero is placed at 1; a leaf outside the grammar
        # answers for itself past the prefix: a callable decides nothing
        assert _zero_fact(ScaledRule(0, PowerLawRule(1, 1))) == (True, 1)
        callable_leaf = CallableRule(lambda n: 0, limit_hint=0)
        assert _zero_fact(ExplicitThenRule((1,), callable_leaf)) == (None, None)

    def test_leaves_outside_the_grammar_place_their_zeros(self):
        merged = MergedAbsDecreasingRule([[0, 1]])
        assert merged.zero_index() == 2
        assert _zero_fact(ExplicitThenRule((1,), merged)) == (True, 3)
        composed = ComposedWeightsRule(ConstantRule(0), sigma_bilateral())
        assert composed.zero_index() == sigma_bilateral().inverse(1) == 2
        assert _zero_fact(ExplicitThenRule((1,), composed)) == (True, 3)
        # sums that cancel over a leaf outside the grammar may round to 0
        assert _zero_fact(AffineRule(-1, AffineRule(1, composed))) == (None, None)


# Every named family, nested under every composite: the leaves of the merge
# and walk strategies, and rising, alternating and complex ones.
FACT_RULES = st.recursive(
    st.one_of(merge_rules(), walked_rules(depth=1),
              st.builds(GeometricRule, TIE_VALUES,
                        st.sampled_from([2, -1, Fraction(-1, 2), 0, 1, 0.5j, Fraction(1, 3)])),
              st.builds(PowerLawRule, TIE_VALUES, st.sampled_from([0, 1, 2, 0.5]))),
    lambda inner: st.one_of(
        st.builds(ExplicitThenRule, st.lists(TIE_VALUES, max_size=3).map(tuple), inner),
        st.builds(OffsetRule, inner, st.integers(0, 5)),
        st.builds(RepeatedRule, inner, st.integers(1, 3)),
        st.builds(ScaledRule, TIE_VALUES, inner),
        st.builds(AffineRule, TIE_VALUES, inner)),
    max_leaves=3)


def exact_far(rule):
    """Whether ``rule``'s terms stay exact and cheap at n = 10**12: int and
    Fraction parameters only, and no geometric ratio other than 0 or +-1."""
    if isinstance(rule, GeometricRule) and rule.ratio not in (0, 1, -1):
        return False
    fields = [getattr(rule, name) for name in rule._record_fields]
    return all(exact_far(f) if isinstance(f, ScalarRule) else
               all(type(v) in (int, Fraction) for v in (f if isinstance(f, tuple) else (f,)))
               for f in fields if f is not None)


# The rules op_algebra builds from these: weights read through a permutation
# (the identity, ones that move finitely many points, sigma and z-translations,
# with and without conjugation, nested), their moduli and phases, products,
# and merges of |.|-nonincreasing streams.
INFINITE_FACT_RULES = FACT_RULES.filter(lambda r: r.length() is None)
PERMUTATIONS = st.sampled_from([
    identity_permutation(), one_line_permutation((2, 1)), one_line_permutation((3, 1, 2)),
    one_line_permutation((1, 2, 3, 5, 4)), sigma_bilateral(), z_translation_permutation(-1),
    z_translation_permutation(2)])
COMPOSED_RULES = st.recursive(
    st.builds(ComposedWeightsRule, INFINITE_FACT_RULES, PERMUTATIONS, st.booleans()),
    lambda inner: st.builds(compose_weights, inner, PERMUTATIONS, st.booleans()),
    max_leaves=2)
OP_ALGEBRA_RULES = st.one_of(
    COMPOSED_RULES,
    st.builds(AbsRule, st.one_of(INFINITE_FACT_RULES, COMPOSED_RULES)),
    st.builds(PhaseRule, INFINITE_FACT_RULES.filter(lambda r: r.attains_zero() is False)),
    st.builds(ProductWeightsRule, INFINITE_FACT_RULES, INFINITE_FACT_RULES),
    st.builds(MergedAbsDecreasingRule, st.lists(st.lists(TIE_VALUES, max_size=4), max_size=2),
              st.lists(merge_rules(), max_size=2)))


@st.composite
def grammar_rules(draw, depth=3):
    """Any nesting of the grammar's rules up to ``depth`` deep, over constant,
    geometric and power-law leaves, with nonzero affine bases."""
    kind = draw(st.sampled_from(["leaf", "explicit", "offset", "repeated", "scaled", "affine"]
                                if depth else ["leaf"]))
    if kind == "leaf":
        return draw(st.one_of(
            st.builds(ConstantRule, TIE_VALUES),
            st.builds(GeometricRule, TIE_VALUES, st.sampled_from(
                [2, -1, Fraction(-1, 2), 0, 1, 0.5j, Fraction(1, 3), 0.5, Fraction(-3, 2)])),
            st.builds(PowerLawRule, TIE_VALUES, st.sampled_from([0, 1, 2, 0.5]))))
    inner = draw(grammar_rules(depth - 1))
    if kind == "explicit":
        return ExplicitThenRule(tuple(draw(st.lists(TIE_VALUES, max_size=3))), inner)
    if kind == "offset":
        return OffsetRule(inner, draw(st.integers(0, 5)))
    if kind == "repeated":
        return RepeatedRule(inner, draw(st.integers(1, 3)))
    if kind == "scaled":
        return ScaledRule(draw(TIE_VALUES), inner)
    return AffineRule(draw(TIE_VALUES.filter(lambda v: v != 0)), inner)


def exact_terms(terms):
    return not any(isinstance(t, (float, complex)) for t in terms)


def complex_params(rule):
    """Whether ``rule`` holds a complex parameter."""
    return any(complex_params(v) if isinstance(v, ScalarRule) else any(
        isinstance(x, complex) for x in (v if isinstance(v, tuple) else (v,)))
        for v in map(rule.__getattribute__, rule._record_fields))


def complex_sums_cancel(rule):
    """Whether the constants ``rule`` sums past its prefix cancel, with complex
    parameters: where value()'s float sums then round to 0 is left unknown."""
    f = _normal_form(rule)
    return complex_params(rule) and f.a == 0 and any(op == "+" and c for op, c in f.ops)


# 1/10^7 - 1/n: 0 exactly at n = 10^7
ZERO_AT_TEN_MILLION = AffineRule(Fraction(1, 10 ** 7), ScaledRule(-1, PowerLawRule(1, 1)))
# -1 + (1 + 2^-n): no real term is 0, but value() rounds them to 0 from n = 53 on
ROUNDS_TO_ZERO = AffineRule(-1, AffineRule(1, GeometricRule(1.0, Fraction(1, 2))))


class TestRuleFacts:
    """Each fact a rule states about its terms past ``skip``, against those
    terms read one by one."""

    @settings(max_examples=400, deadline=None)
    @given(rule=st.one_of(FACT_RULES, OP_ALGEBRA_RULES), skip=st.integers(0, 8))
    @example(rule=AffineRule(Fraction(1, 4), PowerLawRule(-1, 1)), skip=0)
    @example(rule=AffineRule(Fraction(1, 4), PowerLawRule(-1, 1)), skip=3)
    @example(rule=OffsetRule(RISE70, 70), skip=0)
    @example(rule=ComposedWeightsRule(RISE70, one_line_permutation((1, 2, 3, 5, 4))), skip=2)
    @example(rule=compose_weights(compose_weights(OffsetRule(RISE70, 30), sigma_bilateral()),
                                  inverse_permutation(sigma_bilateral()), True), skip=0)
    @example(rule=ProductWeightsRule(PowerLawRule(1, 1), GeometricRule(2, Fraction(1, 2))), skip=0)
    @example(rule=MergedAbsDecreasingRule([[0]], [PowerLawRule(Fraction(1, 4), 1)]), skip=0)
    @example(rule=MergedAbsDecreasingRule([[-0.5j]], [ConstantRule(1)]), skip=0)
    @example(rule=ZERO_AT_TEN_MILLION, skip=0)
    @example(rule=AffineRule(Fraction(1, 2), PowerLawRule(1, 1)), skip=0)
    @example(rule=AffineRule(1j, GeometricRule(1, Fraction(-1, 2))), skip=0)
    @example(rule=PowerLawRule(1, 0.1), skip=0)
    @example(rule=ROUNDS_TO_ZERO, skip=0)
    def test_facts_hold_on_a_prefix(self, rule, skip):
        ln = rule.length()

        def read(count):
            return rule.values(count if ln is None else max(min(ln - skip, count), 0), skip + 1)

        terms = read(60)

        def agrees(claim, holds, fact=None):
            # that all terms do as ``holds`` checks: a True claim against the
            # prefix, a False one against a witness up to 4000 terms out, or
            # against the two terms from the index the fact places (a zero
            # that cancels an affine base may lie far past the prefix)
            at = fact and fact(rule, skip)[1]
            return claim is None or claim == holds(terms) or claim is False and (
                not holds(read(4000)) or at is not None and at > skip
                and not holds(rule.values(1 if at == ln else 2, at)))

        values = rule.value_set(skip)
        if values is not None:
            assert set(values) == set(terms)
            # each value is typed as the rule returns it
            assert all(any(same(v, t) for t in terms) for v in values)
        for nonnegative in (False, True):
            assert agrees(rule.is_real(skip, nonnegative), lambda ts: all(
                not isinstance(t, complex) and (not nonnegative or t >= 0) for t in ts),
                lambda rule, skip: _real_fact(rule, skip, nonnegative))
        zero = rule.attains_zero(skip)
        assert agrees(None if zero is None else not zero, lambda ts: 0 not in ts, _zero_fact)
        # a fact is about the real sequence the parameters name: floats that
        # round alike may stand for terms that strictly fall, and a float sum
        # may absorb a vanishing term into a constant, so inexact terms refute
        # a claim that they fall only by a tie of exact terms or a rise past
        # rounding
        def refutes(a, b, strict, claim):
            x, y = _abs_exact(a), _abs_exact(b)
            exact = claim is False or exact_terms((a, b))
            return x < y and (exact or y - x > 1e-12) or strict and x == y and exact

        for strict in (False, True):
            down = rule.abs_nonincreasing(skip, strict)
            assert agrees(down, lambda ts: not any(
                refutes(a, b, strict, down) for a, b in pairwise(ts)),
                lambda rule, skip: _monotone_fact(rule, skip, strict))

    @pytest.mark.parametrize("rule, zero, down, strict", [
        (ZERO_AT_TEN_MILLION, 10 ** 7, False, False),
        (AffineRule(Fraction(1, 2), PowerLawRule(1, 1)), None, True, True),
        (AffineRule(1j, GeometricRule(1, Fraction(-1, 2))), None, True, True),
        (OffsetRule(RISE70, 70), None, True, True),
        (PowerLawRule(1, 0.1), None, True, True),
        (ROUNDS_TO_ZERO, 53, True, True),
    ])
    def test_named_rules(self, rule, zero, down, strict):
        # the zero at 10^7 is placed without a scan, and the first term that
        # value() rounds to 0; the rest fall, strictly, though 1/n^0.1 rounds
        # alike at n = 10^15 and n + 1
        assert _zero_fact(rule) == (zero is not None, zero)
        assert rule.abs_nonincreasing() is down
        assert rule.abs_nonincreasing(strict=True) is strict

    @pytest.mark.xfail(strict=True, reason="a float term that decays underflows to 0.0, "
                       "and the zero fact reads a tail of products as zero-free")
    def test_a_float_term_that_underflows_to_zero_is_a_zero(self):
        from schauderspec import Diagonal, is_schauder

        # 2^-1074 is the least subnormal; the next term rounds to 0.0
        rule = GeometricRule(1.0, 0.5)
        assert rule.value(1074) == 5e-324 and rule.value(1075) == 0.0
        assert rule.attains_zero() is not False
        assert is_schauder(Diagonal(rule)).detail != "diagonal entries nonzero"

    @settings(max_examples=400, deadline=None)
    @given(rule=grammar_rules(), skip=st.integers(0, 8),
           r=st.sampled_from([0.3, 0.7, 1.7, Fraction(5, 7)]))
    @example(rule=ZERO_AT_TEN_MILLION, skip=0, r=Fraction(1, 10 ** 8))
    @example(rule=AffineRule(Fraction(1, 2), PowerLawRule(1, 1)), skip=0, r=0.7)
    @example(rule=AffineRule(1j, GeometricRule(1, Fraction(-1, 2))), skip=0, r=1.7)
    @example(rule=OffsetRule(RISE70, 70), skip=0, r=0.3)
    @example(rule=PowerLawRule(1, 0.1), skip=0, r=0.7)
    @example(rule=AffineRule(Fraction(1, 4), PowerLawRule(-1, 1)), skip=0, r=0.3)  # rises at 4
    @example(rule=AffineRule(Fraction(1, 20), GeometricRule(-1, Fraction(2, 3))), skip=0, r=0.3)
    @example(rule=AffineRule(Fraction(1, 4), GeometricRule(1, Fraction(-1, 2))), skip=0, r=0.3)
    @example(rule=ROUNDS_TO_ZERO, skip=0, r=0.3)
    def test_grammar_rules_decide_and_place(self, rule, skip, r):
        # every fact of a grammar rule is decided, and each index it places is
        # the first a scan of the terms finds; r is no magnitude a limit takes
        # here, where floats that round a term onto r would hide its side
        ln = rule.length()
        end = skip + 80 if ln is None else min(ln, skip + 80)
        terms = {n: rule.value(n) for n in range(skip + 1, end + 1)}

        def scan(bad):
            return next((n for n in terms if bad(n)), None)

        def placed(fact, bad):
            # a failure in the prefix is the one placed; else none is there
            holds, n = fact
            assert holds is not None
            first = scan(bad)
            assert n == first if first is not None else n is None or n > end
            return holds, n

        zero, n = _zero_fact(rule, skip)
        if zero is None:
            assert complex_sums_cancel(rule) and n is None
        else:
            assert placed((zero, n), lambda n: terms[n] == 0) == (zero, n) and zero is (n is not None)
        for nonnegative in (False, True):
            real, n = placed(_real_fact(rule, skip, nonnegative),
                             lambda n: isinstance(terms[n], complex) or nonnegative and terms[n] < 0)
            assert real is (n is None) or not real and n is None
        for strict in (False, True):
            down, n = _monotone_fact(rule, skip, strict)
            assert down is not None
            if exact_terms(terms.values()):
                placed((down, n), lambda n: n < end and (
                    _abs_exact(terms[n]) < _abs_exact(terms[n + 1])
                    or strict and _abs_exact(terms[n]) == _abs_exact(terms[n + 1])))
        k = rule.tail_index(r)
        if k is None:  # terms over r far out: seen in the prefix, or from the limit
            lim = rule.limit()
            assert complex_params(rule) or any(
                _abs_exact(v) > r for v in list(terms.values())[-8:]) or (
                lim is not None and _abs_exact(lim) > r)
        else:
            assert k == 1 or _abs_exact(rule.value(k - 1)) > r
            assert all(_abs_exact(rule.value(n)) <= r for n in range(k, k + 40)
                       if ln is None or n <= ln)

    @settings(max_examples=200, deadline=None)
    @given(rule=FACT_RULES.filter(lambda r: r.length() is None and exact_far(r)),
           skip=st.integers(0, 8))
    def test_claims_hold_far_out_in_exact_arithmetic(self, rule, skip):
        values = rule.value_set(skip)
        for n in (10 ** 6, 10 ** 12):
            a, b = rule.value(n), rule.value(n + 1)
            assert values is None or a in values and b in values
            for strict in (False, True):
                if rule.abs_nonincreasing(skip, strict):
                    assert _abs_exact(a) > _abs_exact(b) if strict else _abs_exact(a) >= _abs_exact(b)


class MyFraction(Fraction):
    pass


class TestExactPaths:
    """Exact floats and complexes skip the Fraction check; exact values,
    subclasses of Fraction and int included, keep the exact path."""

    @pytest.mark.parametrize("z, want", [
        (MyFraction(10 ** 400, 3), 400 * math.log(10) - math.log(3)),
        (Fraction(1, 10 ** 400), -400 * math.log(10)),
        (10 ** 400, 400 * math.log(10)),
        (True, 0.0),
        (-2.5, math.log(2.5)),
        (complex(3, -4), math.log(5)),
    ])
    def test_log_abs(self, z, want):
        assert math.isclose(log_abs(z), want, rel_tol=1e-12)

    @pytest.mark.parametrize("zero", [0, 0.0, -0.0, 0j, Fraction(0), MyFraction(0)])
    def test_log_abs_of_zero(self, zero):
        with pytest.raises(ValueError, match="log of zero"):
            log_abs(zero)

    def test_power_law_value(self):
        exact = PowerLawRule(MyFraction(1, 2), 2).value(3)
        assert exact == Fraction(1, 18) and isinstance(exact, Fraction)
        assert PowerLawRule(0.5, 2).value(3) == 0.5 / 9
        assert PowerLawRule(1j, 1).value(2) == 0.5j
        assert PowerLawRule(3, 0.5).value(4) == 1.5
