import hashlib
import json
import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schauderspec import (
    INFINITE,
    Adjoint,
    AffineRule,
    ArithmeticSequence,
    BlockDirectSum,
    CertificateGridConfig,
    ConstantRule,
    Diagonal,
    EigenExclusionCertificate,
    EmptySetMembers,
    ExplicitPrefixSequence,
    ExplicitThenRule,
    FiniteSetMembers,
    GeometricRule,
    MultiplicityList,
    NotCompactError,
    OffsetRule,
    PermutationUnitary,
    PowerLawRule,
    PreconditionViolatedError,
    Product,
    RepeatedRule,
    ScaledRule,
    SchauderSpectrumReport,
    SelfAdjointIntervalModel,
    ShiftForm,
    Spread,
    SpreadSpec,
    Sum,
    UnsupportedClassError,
    VanishingSequenceMembers,
    adjoint_exclusion,
    audit_deflation,
    backward_unilateral_shift,
    block_norm_blowup,
    cibws,
    classify_compact,
    deflate,
    deflate_basic,
    deflate_block_continuous,
    deflate_discrete,
    deflate_finite_spectrum,
    entry,
    forward_unilateral_shift,
    grid_certificates,
    identity_permutation,
    is_compact_structural,
    is_schauder,
    lambda_grid,
    one_line_permutation,
    recognize_shift_form,
    replay_block_certificate,
    replay_shift_certificate,
    schauder_spectrum,
    shields_similar,
    shift_eigen_exclude,
    sigma_bilateral,
    truncate,
    z_translation_permutation,
)
from schauderspec.op_algebra import corner_entries
from schauderspec.records import replace
from schauderspec.serde import certificate_to_json, sequence_to_json
from schauderspec.schauder import (NOT_INJECTIVE, RANGE_NOT_DENSE, SELF_ADJOINT_NOTE,
                                   _probe_positive_monotone)

RECIP = PowerLawRule(Fraction(1), 1)
ALPHA_TO_ONE = AffineRule(1, GeometricRule(-1, Fraction(1, 2)))
SMALL = CertificateGridConfig(moduli=4, phases=4)


def count_reads(monkeypatch, rule_class):
    """``(reads, before)``: a Counter of the indices read through
    ``rule_class.value``, and a list that gets a copy of it when the first
    orbit-walk certificate is asked for."""
    from collections import Counter

    from schauderspec import spectral

    reads, before = Counter(), []
    value, certificate = rule_class.value, spectral._ShiftCertifier.certificate

    def first(self, *args):
        if not before:
            before.append(Counter(reads))
        return certificate(self, *args)

    monkeypatch.setattr(rule_class, "value", lambda self, n: reads.update((n,)) or value(self, n))
    monkeypatch.setattr(spectral._ShiftCertifier, "certificate", first)
    return reads, before


class TestIsSchauder:
    def test_cibws_yes(self):
        assert is_schauder(cibws())

    def test_backward_shift_not_injective(self):
        v = is_schauder(backward_unilateral_shift())
        assert not v
        assert v.reason == NOT_INJECTIVE
        assert v.witness_index == 1

    def test_forward_shift_range_not_dense(self):
        v = is_schauder(forward_unilateral_shift())
        assert not v
        assert v.reason == RANGE_NOT_DENSE

    def test_spread_sum_short_of_a_permutation_is_read_by_its_lines(self):
        # a sum of spreads that misses a row has no shift form, so no check
        # of shift weights calls it Schauder; its rows decide it, row 1 of
        # the forward shift, and row 100 here, past any recognition window
        head = ExplicitPrefixSequence(tuple(range(1, 100)))
        late = Sum((Spread(SpreadSpec(head, head)),
                    Spread(SpreadSpec(ArithmeticSequence(100, 1), ArithmeticSequence(101, 1)))))
        for spreads, row in ((Sum((forward_unilateral_shift(),)), 1), (late, 100)):
            T = Product(spreads, Diagonal(RECIP))
            v = is_schauder(T)
            assert not v and v.reason == RANGE_NOT_DENSE and v.witness_index == row
            with pytest.raises(PreconditionViolatedError, match=f"^not a Schauder operator: "
                               f"range-not-dense \\(witness index {row}\\)"):
                deflate(T, SMALL)

    def test_diagonal_with_zero(self):
        rule = ExplicitThenRule((1, 0, Fraction(1, 3)), OffsetRule(RECIP, 3))
        v = is_schauder(Diagonal(rule))
        assert not v
        assert v.reason == NOT_INJECTIVE
        assert v.witness_index == 2

    def test_identity_is_schauder(self):
        assert is_schauder(PermutationUnitary(identity_permutation()))

    def test_interval_model(self):
        assert is_schauder(SelfAdjointIntervalModel(0.0, 1.0, ()))
        assert not is_schauder(SelfAdjointIntervalModel(-1.0, 1.0, (0,)))

    def test_block_sum_reports_failing_block(self):
        part = (ArithmeticSequence(1, 2), ArithmeticSequence(2, 2))
        B = BlockDirectSum((Diagonal(ConstantRule(1)),
                            Diagonal(ConstantRule(0))), part)
        v = is_schauder(B)
        assert not v
        assert v.reason == NOT_INJECTIVE


FEW_VALUES = st.sampled_from([0, 1, 2, Fraction(1, 2), 0.5, -1, 1j])


# Constants behind nested prefixes, offsets and repeats.
FINITELY_VALUED_RULES = st.recursive(
    st.builds(ConstantRule, FEW_VALUES),
    lambda inner: st.one_of(
        st.builds(ExplicitThenRule, st.lists(FEW_VALUES, max_size=4).map(tuple), inner),
        st.builds(OffsetRule, inner, st.integers(0, 6)),
        st.builds(RepeatedRule, inner, st.integers(1, 3)),
    ),
    max_leaves=4)


# Rules whose exact parameters hold them to finitely many values: constant
# power laws and geometric rules too, and scaled and affine rules over them.
CONSTANT_VALUED_RULES = st.recursive(
    st.one_of(st.builds(ConstantRule, FEW_VALUES),
              st.builds(PowerLawRule, FEW_VALUES, st.sampled_from([0, 0.0])),
              st.builds(GeometricRule, FEW_VALUES, st.sampled_from([1, 1.0, Fraction(1)]))),
    lambda inner: st.one_of(
        st.builds(ExplicitThenRule, st.lists(FEW_VALUES, max_size=4).map(tuple), inner),
        st.builds(OffsetRule, inner, st.integers(0, 6)),
        st.builds(RepeatedRule, inner, st.integers(1, 3)),
        st.builds(ScaledRule, FEW_VALUES, inner),
        st.builds(AffineRule, FEW_VALUES, inner),
    ),
    max_leaves=4)


def value_horizon(rule):
    """A count ``N``: past any number ``s`` of skipped terms, every value
    the rule still takes is among terms ``s+1 .. s+N``."""
    if isinstance(rule, (ConstantRule, PowerLawRule, GeometricRule)):
        return 1
    if isinstance(rule, ExplicitThenRule):
        return len(rule.prefix) + value_horizon(rule.tail)
    if isinstance(rule, RepeatedRule):
        return rule.times * value_horizon(rule.inner)
    return value_horizon(rule.inner)


class TestSchauderSpectrum:
    def test_reciprocal_diagonal(self):
        rep = schauder_spectrum(Diagonal(RECIP))
        assert isinstance(rep.members, VanishingSequenceMembers)
        assert rep.members.includes_zero is False
        assert rep.members.rule.values(3) == [1, Fraction(1, 2), Fraction(1, 3)]
        assert rep.classification_case == 5
        assert SELF_ADJOINT_NOTE in rep.notes
        assert rep.reasons()["*"] == NOT_INJECTIVE

    @pytest.mark.parametrize("c, values", [(2, (2,)), (2j, (-2j,))])
    def test_adjoint_of_a_constant_diagonal(self, c, values):
        # the adjoint's weights are the diagonal's, conjugated
        rep = schauder_spectrum(Adjoint(Diagonal(ConstantRule(c))))
        assert rep.members == FiniteSetMembers(values)

    def test_interval_model_without_eigenvalues_is_empty(self):
        rep = schauder_spectrum(SelfAdjointIntervalModel(0.25, 1.0, ()))
        assert isinstance(rep.members, EmptySetMembers)
        assert SELF_ADJOINT_NOTE in rep.notes

    def test_cibws_empty(self):
        rep = schauder_spectrum(cibws(), SMALL)
        assert isinstance(rep.members, EmptySetMembers)
        assert rep.classification_case == 1
        assert rep.covered_region is not None
        # every grid lambda has a direct and an adjoint certificate
        sides = {}
        for c in rep.certificates:
            sides.setdefault((c.lam.real, c.lam.imag), set()).add(c.side)
        assert len(sides) == SMALL.moduli * SMALL.phases
        assert all(v == {"direct", "adjoint"} for v in sides.values())

    def test_identity_unitary_spectrum(self):
        rep = schauder_spectrum(PermutationUnitary(identity_permutation()))
        assert isinstance(rep.members, FiniteSetMembers)
        assert rep.members.values == (1,)

    def test_constant_diagonal(self):
        rep = schauder_spectrum(Diagonal(ConstantRule(Fraction(3, 2))))
        assert rep.members == FiniteSetMembers((Fraction(3, 2),))
        assert rep.classification_case is None  # not compact

    def test_diagonal_brute_force_membership_oracle(self):
        # lambda belongs to the computed members iff some truncated
        # diagonal entry equals it exactly
        rule = RECIP
        rep = schauder_spectrum(Diagonal(rule))
        n = 64
        diag = [rule.value(k) for k in range(1, n + 1)]
        for lam in [Fraction(1, 3), Fraction(2, 3), Fraction(1, 64), 0]:
            in_members = any(lam == rep.members.rule.value(k)
                             for k in range(1, n + 1))
            if lam == 0:
                in_members = in_members or rep.members.includes_zero
            assert in_members == (min(abs(lam - d) for d in diag) == 0)

    def test_self_adjoint_sigma_s_equals_point_spectrum(self):
        # for a real diagonal the members are exactly the eigenvalues
        rule = ExplicitThenRule((Fraction(3), Fraction(2)), OffsetRule(RECIP, 1))
        rep = schauder_spectrum(Diagonal(rule))
        eigenvalues = [rule.value(k) for k in range(1, 20)]
        members = [rep.members.rule.value(k) for k in range(1, 20)]
        assert sorted(eigenvalues) == sorted(members)

    def test_imaginary_terms_past_16_get_no_self_adjoint_note(self):
        # diag(1, 1/2, .., 1/16, 0.01i/1, 0.01i/2, ..) is not self-adjoint
        rule = ExplicitThenRule(tuple(Fraction(1, k) for k in range(1, 17)),
                                PowerLawRule(0.01j, 1))
        rep = schauder_spectrum(Diagonal(rule))
        assert SELF_ADJOINT_NOTE not in rep.notes
        assert rep.members == VanishingSequenceMembers(rule, includes_zero=False)

    def test_unsupported_shape(self):
        with pytest.raises(UnsupportedClassError):
            schauder_spectrum(Diagonal(AffineRule(1, RECIP)))  # values -> 1

    @pytest.mark.parametrize("prefix, members", [((5,), (1,)), ((0,), (1,))])
    def test_offset_drops_its_skipped_terms(self, prefix, members):
        T = Diagonal(OffsetRule(ExplicitThenRule(prefix, ConstantRule(1)), 1))
        assert schauder_spectrum(T).members == FiniteSetMembers(members)
        assert is_schauder(T)

    def test_exact_members_need_no_zero_probe(self, monkeypatch):
        # the value set is exact, 0 included, so no weight is scanned for
        # a zero and no probe caveat is added
        reads = []
        value = ExplicitThenRule.value
        monkeypatch.setattr(ExplicitThenRule, "value",
                            lambda self, n: reads.append(n) or value(self, n))
        inner = ExplicitThenRule((1, Fraction(1, 2), 0), ConstantRule(1))
        rep = schauder_spectrum(Diagonal(RepeatedRule(OffsetRule(inner, 0), 5000)))
        assert rep.members == FiniteSetMembers((1, Fraction(1, 2), 0))
        assert rep.notes == (SELF_ADJOINT_NOTE,)
        assert len(reads) <= 16

    @settings(max_examples=300, deadline=None)
    @given(rule=FINITELY_VALUED_RULES)
    def test_finite_value_set_is_the_set_of_values(self, rule):
        rep = schauder_spectrum(Diagonal(rule))
        assert set(rep.members.values) == set(rule.values(value_horizon(rule)))

    @settings(max_examples=300, deadline=None)
    @given(rule=CONSTANT_VALUED_RULES)
    def test_constant_valued_rules_are_finite_valued(self, rule):
        rep = schauder_spectrum(Diagonal(rule))
        values = rule.values(value_horizon(rule))
        assert set(rep.members.values) == set(values)
        # a member is a value the rule returns, with its type, a zero
        # rule's zero included
        for m in rep.members.values:
            assert any(type(m) is type(v) and m == v for v in values)

    def test_equal_values_of_two_types_part_under_a_factor(self):
        # 3 and 3.0 are one value, but 3/10 and 0.1 * 3.0 are two
        rule = ScaledRule(Fraction(1, 10), ExplicitThenRule((3,), ConstantRule(3.0)))
        rep = schauder_spectrum(Diagonal(rule))
        assert sorted(map(repr, rep.members.values)) == ["0.30000000000000004", "Fraction(3, 10)"]


@st.composite
def perturbed_single_orbit_shifts(draw):
    """sigma or z-translation(k) composed, on either side, with a
    non-identity one-line permutation that moves some index past 16."""
    k = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
    base = draw(st.sampled_from([sigma_bilateral(), z_translation_permutation(k)]))
    n = draw(st.integers(17, 40))
    images = draw(st.permutations(list(range(1, n + 1))).filter(
        lambda im: any(im[j] != j + 1 for j in range(16, n))))
    factors = (PermutationUnitary(base), PermutationUnitary(one_line_permutation(images)))
    return factors if draw(st.booleans()) else factors[::-1]


def _orbit_of_one_covers(perm, window, steps):
    """Brute force: the orbit of 1, walked ``steps`` each way, holds [1..window]."""
    seen, f, b = {1}, 1, 1
    for _ in range(steps):
        f, b = perm.forward(f), perm.inverse(b)
        seen.update((f, b))
    return set(range(1, window + 1)) <= seen


# sigma o (18 19 20): one orbit, so the composition is certified
ONE_ORBIT = (PermutationUnitary(sigma_bilateral()),
             PermutationUnitary(one_line_permutation(list(range(1, 18)) + [19, 20, 18])))


class TestOrbitStructure:
    @settings(max_examples=60, deadline=None)
    @given(factors=perturbed_single_orbit_shifts())
    @example(factors=ONE_ORBIT)
    def test_perturbed_orbits_are_refused(self, factors):
        left, right = factors
        T = Product(left, Product(right, Diagonal(RECIP)))
        shift = recognize_shift_form(T).shift
        # the moved indices lie below 90: with more than one orbit some
        # index below 200 stays off the orbit of 1 however far it is
        # walked, and with one orbit 2000 steps each way cover them all
        if not _orbit_of_one_covers(shift.perm, 199, 2000):
            # no report, an empty member set least of all, may come back
            with pytest.raises(UnsupportedClassError, match="single-orbit"):
                schauder_spectrum(T, CertificateGridConfig(moduli=2, phases=2))
            with pytest.raises(UnsupportedClassError, match="single-orbit"):
                grid_certificates(shift, [0.5, 0.01j])
            return
        rep = schauder_spectrum(T, CertificateGridConfig(moduli=2, phases=2))
        assert rep.members == EmptySetMembers()
        for cert in rep.certificates + grid_certificates(shift, [0.5, 0.01j]):
            replayed = replay_shift_certificate(shift, cert)
            assert abs(replayed - cert.attained_magnitude) <= 1e-12 * cert.attained_magnitude
            assert replayed > cert.bound

    @pytest.mark.parametrize("T", [
        Adjoint(Diagonal(PowerLawRule(1, 1))),
        Product(PermutationUnitary(identity_permutation()), Diagonal(PowerLawRule(1, 1))),
        Product(PermutationUnitary(sigma_bilateral()),
                Product(PermutationUnitary(z_translation_permutation(-1)),
                        Diagonal(PowerLawRule(1, 1)))),
    ], ids=["adjoint", "identity-product", "cancelling-product"])
    def test_identity_factor_keeps_the_diagonal_report(self, T):
        rep = schauder_spectrum(T, SMALL)
        assert isinstance(rep.members, VanishingSequenceMembers)
        assert rep.classification_case == 5


class TestClassifyCompact:
    def test_cibws_case_1(self):
        rep = schauder_spectrum(cibws(), SMALL)
        assert classify_compact(rep, True) == 1

    def test_reciprocal_case_5(self):
        rep = schauder_spectrum(Diagonal(RECIP))
        assert classify_compact(rep, True) == 5

    def test_block_one_plus_cibws_case_3(self):
        part = (ExplicitPrefixSequence((1,)), ArithmeticSequence(2, 1))
        block = BlockDirectSum(
            (Diagonal(ExplicitThenRule((1,))), cibws().to_expr()), part)
        # oracle: both blocks are injective with dense range, so 0 stays out
        assert is_schauder(block)
        rep = schauder_spectrum(block, SMALL)
        assert rep.members == FiniteSetMembers((1,))
        assert is_compact_structural(block) is True
        assert classify_compact(rep, True) == 3

    @pytest.mark.parametrize("rule, members, case", [
        (GeometricRule(1, 0), (0,), 2),
        (PowerLawRule(0, 1), (0,), 2),
        (PowerLawRule(0.0, 0.5), (0,), 2),
        (GeometricRule(0, Fraction(1, 2)), (0,), 2),
        (ScaledRule(0, RECIP), (0,), 2),
        (ScaledRule(0, GeometricRule(1, 2)), (0,), 2),
        (ScaledRule(2, AffineRule(0, GeometricRule(0j, 3))), (0,), 2),
        (ConstantRule(0), (0,), 2),
        (ExplicitThenRule((3,), PowerLawRule(0, 1)), (3, 0), 4),
        (OffsetRule(ExplicitThenRule((3, 1), GeometricRule(1, 0)), 1), (1, 0), 4),
        # an exact scale of 10**-400 is not 0, though its float tail sum is
        (PowerLawRule(Fraction(1, 10 ** 400), 2), None, 5),
    ])
    def test_zero_rules_are_the_zero_operator(self, rule, members, case):
        rep = schauder_spectrum(Diagonal(rule))
        if members is None:
            assert rule.tail_abs_sum(1) == 0.0
            assert isinstance(rep.members, VanishingSequenceMembers)
        else:
            assert rep.members == FiniteSetMembers(members)
        assert is_compact_structural(Diagonal(rule)) is True
        assert classify_compact(rep, True) == case

    def test_not_compact_rejected(self):
        rep = schauder_spectrum(Diagonal(RECIP))
        with pytest.raises(NotCompactError):
            classify_compact(rep, False)

    @given(st.sampled_from(["empty", "zero", "finite", "finite0", "seq", "seq0"]))
    @settings(max_examples=30)
    def test_totality_over_report_shapes(self, shape):
        members = {
            "empty": EmptySetMembers(),
            "zero": FiniteSetMembers((0,)),
            "finite": FiniteSetMembers((2, 1)),
            "finite0": FiniteSetMembers((2, 1, 0)),
            "seq": VanishingSequenceMembers(RECIP, False),
            "seq0": VanishingSequenceMembers(RECIP, True),
        }[shape]
        expected = {"empty": 1, "zero": 2, "finite": 3, "finite0": 4,
                    "seq": 5, "seq0": 6}[shape]
        case = classify_compact(SchauderSpectrumReport(members), True)
        assert case == expected

    def test_cases_exclusive_and_exhaustive(self):
        shapes = [
            EmptySetMembers(),
            FiniteSetMembers((0,)),
            FiniteSetMembers((1,)),
            FiniteSetMembers((1, 0)),
            VanishingSequenceMembers(RECIP, False),
            VanishingSequenceMembers(RECIP, True),
        ]
        cases = [classify_compact(SchauderSpectrumReport(m), True)
                 for m in shapes]
        assert sorted(cases) == [1, 2, 3, 4, 5, 6]


class TestDeflateBasic:
    def test_action_table_entries(self):
        res = deflate_basic(RECIP, SMALL)
        # t2 e1 on e2; t_{2k} e_{2k-2} on e_{2k}; t_{2k-1} e_{2k+1}
        assert entry(res.deflated, 1, 2) == Fraction(1, 2)
        assert entry(res.deflated, 2, 4) == Fraction(1, 4)
        assert entry(res.deflated, 5, 3) == Fraction(1, 3)
        assert res.lemma_path == "basic"
        exact, worst = audit_deflation(res, 64)
        assert exact and worst == 0.0

    def test_geometric_weights_full_default_grid(self):
        res = deflate_basic(GeometricRule(Fraction(1), Fraction(1, 2)))
        grid_points = {(c.lam.real, c.lam.imag) for c in res.certificates}
        assert len(grid_points) == 16 * 8
        for c in res.certificates:
            assert c.attained_magnitude > c.bound

    def test_constant_rejected(self):
        with pytest.raises(PreconditionViolatedError):
            deflate_basic(ConstantRule(1), SMALL)

    def test_nonmonotone_rejected(self):
        rule = ExplicitThenRule((Fraction(1, 2), Fraction(1)), OffsetRule(RECIP, 2))
        with pytest.raises(PreconditionViolatedError):
            deflate_basic(rule, SMALL)

    def test_zero_check_certified(self):
        res = deflate_basic(RECIP, SMALL)
        assert res.zero_check.injective and res.zero_check.dense_range

    def test_spread_decomposition_attached(self):
        res = deflate_basic(RECIP, SMALL)
        assert len(res.spreads) == 2


def dense_audit(result, n):
    """Reference audit: compare every cell of both dense corners."""
    left = truncate(Product(result.unitary, result.operator), n)
    right = truncate(result.deflated, n)
    worst = 0.0
    for i in range(n):
        for j in range(n):
            d = abs(complex(left[i][j]) - complex(right[i][j]))
            if d > worst:
                worst = d
    return left == right, worst


AUDIT_ENTRIES = st.one_of(
    st.integers(-2, 2),
    st.fractions(-100, 100, max_denominator=30),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, complex(math.inf, 0.0),
                     complex(-0.0, -math.inf), complex(math.nan, 1.0), 1j, 0.5]),
    st.floats(),
    st.complex_numbers(),
)


class TestAuditDeflation:
    def test_mismatch_supported_on_both_sides(self):
        res = deflate_basic(RECIP, SMALL)
        bump = Diagonal(ExplicitThenRule((0, 0, Fraction(1, 7)), ConstantRule(0)))
        bad = replace(res, deflated=Sum((res.deflated,
                                         Product(res.deflated, bump))))
        left = corner_entries(Product(res.unitary, res.operator), 16)
        right = corner_entries(bad.deflated, 16)
        assert left[4, 2] != right[4, 2]  # entry (5, 3): 1/3 against 8/21
        assert audit_deflation(bad, 16) == dense_audit(bad, 16) == \
            (False, abs(complex(Fraction(1, 21))))

    def test_mismatch_supported_on_one_side(self):
        res = deflate_basic(RECIP, SMALL)
        extra = Diagonal(ExplicitThenRule((0, -0.25), ConstantRule(0)))
        bad = replace(res, deflated=Sum((res.deflated, extra)))
        left = corner_entries(Product(res.unitary, res.operator), 16)
        right = corner_entries(bad.deflated, 16)
        assert (1, 1) not in left and right[1, 1] == -0.25
        assert audit_deflation(bad, 16) == dense_audit(bad, 16) == (False, 0.25)

    @staticmethod
    def audit_of(left, right):
        """``audit_deflation`` of two given sparse corners."""
        from unittest import mock

        from schauderspec import schauder
        res = deflate_basic(RECIP, SMALL)
        with mock.patch.object(schauder, "corner_entries", side_effect=[left, right]):
            return audit_deflation(res, 4)

    @given(st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.tuples(AUDIT_ENTRIES, AUDIT_ENTRIES,
                  st.sampled_from(["left", "right", "both", "same", "twin"]))))
    @settings(max_examples=300, deadline=None)
    @example({(0, 0): (1.2711610061536464e+308, 1.2711610061536462e+308j, "both")})
    def test_only_unequal_entries_are_converted(self, cells):
        # equal entries differ by 0, or by nan for infinities, and neither
        # raises the worst difference; a difference past float range is inf:
        # the loop over every entry agrees
        left, right = {}, {}
        for key, (a, b, how) in cells.items():
            if how != "right":
                left[key] = a
            if how != "left":
                right[key] = {"same": a, "twin": complex(a)}.get(how, b)
        exact, worst = True, 0.0
        for key in left.keys() | right.keys():
            a, b = left.get(key, 0), right.get(key, 0)
            if a != b:
                exact = False
            try:
                d = abs(complex(a) - complex(b))
            except OverflowError:
                d = math.inf
            if d > worst:
                worst = d
        assert repr(self.audit_of(left, right)) == repr((exact, worst))

    def test_an_exact_audit_converts_no_entry(self):
        # no float holds 10**400; equal entries are not converted
        huge = Fraction(10 ** 400, 3)
        assert self.audit_of({(0, 0): huge}, {(0, 0): huge}) == (True, 0.0)

    def test_a_huge_exact_difference_is_inf(self):
        # an unequal entry past float range is reported as the worst difference
        huge = Fraction(10 ** 400, 3)
        assert self.audit_of({(0, 0): huge}, {(0, 0): huge + 1}) == (False, math.inf)
        assert self.audit_of({(1, 0): huge}, {}) == (False, math.inf)


class TestDeflateDiscrete:
    def test_tail_only_reduces_to_basic(self):
        m = MultiplicityList((), RECIP)
        res = deflate_discrete(m, SMALL)
        assert res.lemma_path == "basic"
        assert audit_deflation(res, 48) == (True, 0.0)

    def test_expanded_ordering_and_audit(self):
        entries = tuple((Fraction(1, k), 2) for k in range(1, 6))
        m = MultiplicityList(entries, OffsetRule(RECIP, 5))
        res = deflate_discrete(m, SMALL)
        assert res.lemma_path == "discrete"
        w = res.shift_form.weights
        vals = w.values(16)
        assert all(a >= b for a, b in zip(vals, vals[1:]))  # sort oracle
        assert vals[:4] == [1, 1, Fraction(1, 2), Fraction(1, 2)]
        assert audit_deflation(res, 48) == (True, 0.0)

    def test_infinite_block_with_borrowed_vector(self):
        m = MultiplicityList(((Fraction(1, 2), INFINITE), (Fraction(1, 3), 1)),
                             OffsetRule(RECIP, 3))
        res = deflate_discrete(m, SMALL)
        assert isinstance(res.deflated, BlockDirectSum)
        assert any("borrowed" in n for n in res.notes)
        # the borrowed copy of 1/2 leads the expanded block-0 weights
        first = [entry(res.operator, 2 * k - 1, 2 * k - 1) for k in range(1, 4)]
        assert first[0] == Fraction(1, 2)
        assert audit_deflation(res, 48) == (True, 0.0)
        blocks = {c.detail("block") for c in res.certificates}
        assert blocks == {0, 1}

    def test_zero_value_rejected(self):
        with pytest.raises(PreconditionViolatedError):
            deflate_discrete(MultiplicityList(((0, 2),), RECIP), SMALL)

    def test_no_tail_delegates_to_finite_machinery(self):
        with pytest.raises(PreconditionViolatedError):
            deflate_discrete(MultiplicityList(((1, 2), (2, INFINITE)),), SMALL)


class TestWalkKeys:
    """Each certificate carries the serialization key of its orbit walk: the
    certifier makes it once per walk, any other certificate from its own
    fields on first read."""

    S = ShiftForm(sigma_bilateral(), RECIP)
    CFG = CertificateGridConfig(moduli=3, phases=4, min_modulus=0.5)

    @staticmethod
    def own_key(cert):
        return EigenExclusionCertificate.walk_key.func(cert)

    def test_every_certificate_carries_the_key_of_its_own_fields(self):
        grid = lambda_grid(self.CFG, 1.0)
        certs = grid_certificates(self.S, grid, 1e30)
        # stamped by the certifier before any read, one object per walk
        assert all("walk_key" in vars(c) for c in certs)
        assert len({id(c.walk_key) for c in certs}) == len({c.walk_key for c in certs}) == len(
            {(c.side, abs(c.lam)) for c in certs})
        # block-tagged, with constant floors on the ring |lambda| = 1/2
        res = deflate_discrete(MultiplicityList(((Fraction(1, 2), INFINITE),),
                                                OffsetRule(RECIP, 3)), self.CFG)
        assert {c.detail("block") for c in res.certificates} == {0, 1}
        assert any(c.regime == "constant-floor" for c in res.certificates)
        singles = [f(self.S, lam, 1e30) for lam in (0.5j, 2, complex(-0.0, 0.25))
                   for f in (shift_eigen_exclude, adjoint_exclusion)]
        for c in (*certs, *res.certificates, *singles):
            assert c.walk_key is not None and c.walk_key == self.own_key(c)
        # each grid certificate equals its single-point twin, key and all
        twins = [f(self.S, lam, 1e30) for lam in grid
                 for f in (shift_eigen_exclude, adjoint_exclusion)]
        assert list(certs) == twins
        assert [c.walk_key for c in certs] == [c.walk_key for c in twins]

    def test_a_replaced_certificate_gets_a_key_of_its_own(self):
        cert = grid_certificates(self.S, (0.5j,), 1e30)[1]
        same, moved = replace(cert), replace(cert, witness_index=cert.witness_index + 1)
        assert "walk_key" not in vars(same) and "walk_key" not in vars(moved)
        assert same.walk_key == cert.walk_key and same.walk_key is not cert.walk_key
        assert moved.walk_key == self.own_key(moved) != cert.walk_key
        # the adjoint lambda is not part of the key; the side is
        assert replace(cert, details=(("adjoint_lambda", 3j),) + cert.details[1:]).walk_key \
            == cert.walk_key != replace(cert, side="direct").walk_key
        # fields, ==, hash and repr ignore the cached key
        assert same == cert and hash(same) == hash(cert) and repr(same) == repr(cert)
        assert "walk_key" not in repr(cert)

    def test_marshal_runs_once_per_walk_for_the_grid_and_both_writers(self, monkeypatch, tmp_path):
        import marshal
        from types import SimpleNamespace

        from schauderspec import cli, spectral
        from schauderspec.serde import WalkTable, write_report

        calls = []
        monkeypatch.setattr(spectral, "marshal", SimpleNamespace(
            dumps=lambda *args: calls.append(args) or marshal.dumps(*args)))
        grid = lambda_grid(self.CFG, 1.0)
        certs = grid_certificates(self.S, grid, 1e30)
        walks = WalkTable()
        cli._write_certificates(tmp_path / "certificates.csv", certs, walks)
        write_report(tmp_path / "report.json", {"c": list(certs)}, walks)
        assert len(calls) == len({(c.side, abs(c.lam)) for c in certs}) < len(certs)
        # the constant floors of one block and side share one key too: the
        # 8 floors on the ring |lambda| = 1/2 make 2
        calls.clear()
        res = deflate_discrete(MultiplicityList(((Fraction(1, 2), INFINITE),),
                                                OffsetRule(RECIP, 3)), self.CFG)
        floors = [c for c in res.certificates if c.regime == "constant-floor"]
        walks = WalkTable()
        cli._write_certificates(tmp_path / "floors.csv", res.certificates, walks)
        write_report(tmp_path / "floors.json", {"c": list(res.certificates)}, walks)
        assert len(floors) == 8 and len({c.walk_key for c in floors}) == 2
        assert all("walk_key" in vars(c) for c in res.certificates)
        assert len(calls) == len({c.walk_key for c in res.certificates}) == 12


class TestDeflateFiniteSpectrum:
    def test_single_infinite_value(self):
        res = deflate_finite_spectrum(MultiplicityList(((1, INFINITE),)), SMALL)
        c = res.certificates[0]
        assert c.detail("shields_c") == 1.0
        assert c.detail("shields_C") == 1.0
        assert audit_deflation(res, 48) == (True, 0.0)

    def test_finite_part_merged_with_explicit_bounds(self):
        res = deflate_finite_spectrum(
            MultiplicityList(((1, INFINITE), (2, 3))), SMALL)
        c = res.certificates[0]
        assert c.detail("via") == "shields-similarity"
        assert 0 < c.detail("shields_c") <= c.detail("shields_C") < math.inf
        assert c.detail("shields_C") == pytest.approx(8.0)  # windowed oracle: 2*2*2
        assert res.shift_form.weights.values(5) == [2, 2, 2, 1, 1]
        assert audit_deflation(res, 48) == (True, 0.0)

    def test_zero_value_rejected(self):
        with pytest.raises(PreconditionViolatedError):
            deflate_finite_spectrum(
                MultiplicityList(((1, INFINITE), (0, 1))), SMALL)

    def test_no_infinite_block_rejected(self):
        with pytest.raises(PreconditionViolatedError):
            deflate_finite_spectrum(MultiplicityList(((1, 2), (2, 3))), SMALL)

    def test_two_infinite_values_block_structure(self):
        res = deflate_finite_spectrum(
            MultiplicityList(((1, INFINITE), (Fraction(1, 2), INFINITE))), SMALL)
        assert isinstance(res.deflated, BlockDirectSum)
        assert audit_deflation(res, 48) == (True, 0.0)


# A grid whose moduli 1/2 and 1 meet the scaled-unitary circles below.
ON_CIRCLE = CertificateGridConfig(moduli=3, phases=2, min_modulus=0.5,
                                  max_modulus=2.0)
PINNED_DEFLATIONS = {
    "basic": lambda: deflate_basic(RECIP, SMALL),
    "discrete-tail-only": lambda: deflate_discrete(
        MultiplicityList((), RECIP), SMALL),
    "discrete-finite": lambda: deflate_discrete(MultiplicityList(
        tuple((Fraction(1, k), 2) for k in range(1, 6)), OffsetRule(RECIP, 5)),
        SMALL),
    "discrete-one-infinite": lambda: deflate_discrete(MultiplicityList(
        ((Fraction(1, 2), INFINITE), (Fraction(1, 3), 1)), OffsetRule(RECIP, 3)),
        ON_CIRCLE),
    "discrete-two-infinite": lambda: deflate_discrete(MultiplicityList(
        ((Fraction(1, 2), INFINITE), (Fraction(1, 3), 2),
         (Fraction(1, 4), INFINITE)), OffsetRule(RECIP, 4)), SMALL),
    "finite-one-infinite": lambda: deflate_finite_spectrum(
        MultiplicityList(((1, INFINITE), (2, 3))), ON_CIRCLE),
    "finite-two-infinite": lambda: deflate_finite_spectrum(MultiplicityList(
        ((1, INFINITE), (Fraction(1, 2), INFINITE), (2, 1))), ON_CIRCLE),
}
PINNED_DIGESTS = {
    "basic": "d7f5ccc5d732b4c0a72a7ffdad95993a788f707856d7044cc411eea5cc5c42e8",
    "discrete-finite": "ffc4c67c61a94deba0e7ae5cbc85dfdec6ad1b28afd846af307ef50b86c5a983",
    "discrete-one-infinite": "2427c7156565bf11c0bdfbd6d63d2ece57867d7e06223cbf30d8cf552de3af59",
    "discrete-tail-only": "d7f5ccc5d732b4c0a72a7ffdad95993a788f707856d7044cc411eea5cc5c42e8",
    "discrete-two-infinite": "49ddc551de8fd5bd3444469f4cf4df50038370cefe1d9e8e1dd2288c6a875fec",
    "finite-one-infinite": "5432794dac5178543cd0a3f77df9104dbee78fcfe0ba95b10ef69c4b00986348",
    "finite-two-infinite": "bf244db6fc8ef9db053a667e024bac1f0c18ee850cc9664f2aec7a69fb138bc5",
}


def deflation_digest(res) -> str:
    """SHA-256 over every observable field of a deflation result."""
    doc = {
        "certificates": [certificate_to_json(c) for c in res.certificates],
        "notes": list(res.notes),
        "lemma_path": res.lemma_path,
        "covered_region": res.covered_region,
        "zero_check": repr(res.zero_check),
        "spreads": [(sequence_to_json(s.domain), sequence_to_json(s.image))
                    for s in res.spreads],
        "shift_form_is_none": res.shift_form is None,
        "operators": [(type(op).__name__, repr(truncate(op, 48)))
                      for op in (res.unitary, res.operator, res.deflated)],
    }
    text = json.dumps(doc, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_DEFLATIONS))
def test_deflation_digest_pinned(name):
    assert deflation_digest(PINNED_DEFLATIONS[name]()) == PINNED_DIGESTS[name]


def walked_reference(shift, grid, cfg, details, check_weights=True):
    """Per-point certificates of ``shift``, each copied with ``details`` appended."""
    out = []
    for lam in grid:
        for cert in (shift_eigen_exclude(shift, lam, cfg.bound, cfg.step_cap,
                                         check_weights),
                     adjoint_exclusion(shift, lam, cfg.bound, cfg.step_cap)):
            out.append(replace(cert, details=cert.details + details))
    return out


def scaled_unitary_reference(value, grid, cfg, block, extra=()):
    """``value * sigma`` on ``block``: per point, a constant floor on its
    circle and a walk off it, each then copied with ``extra`` appended."""
    v = float(abs(value))
    shift = ShiftForm(sigma_bilateral(), ConstantRule(value))
    out = []
    for lam in grid:
        if abs(abs(lam) - v) <= 1e-12 * max(v, 1.0):
            certs = [EigenExclusionCertificate(
                lam=complex(lam), witness_index=1, attained_magnitude=1.0,
                recurrence_kind="scalar-shift", bound=0.0, regime="constant-floor",
                side=side, covered_region=f"circle |lambda| = {v!r}",
                details=(("block", block), ("scaled_unitary", v)))
                for side in ("direct", "adjoint")]
        else:
            certs = walked_reference(shift, [lam], cfg, (("block", block),), False)
        out.extend(replace(c, details=c.details + extra) for c in certs)
    return out


def grid_of(res, cfg):
    return [c.lam for c in res.certificates[:2 * cfg.moduli * cfg.phases:2]]


def assert_same_certificates(got, want):
    assert list(got) == want
    assert list(map(repr, got)) == list(map(repr, want))  # signed zeros too


class TestCertificatesBuiltInFinalForm:
    """Each grid certificate of a deflation is built once, already tagged,
    and equals the certificate of its point alone with its tags copied on."""

    @pytest.mark.parametrize("name", ["discrete-one-infinite", "discrete-two-infinite"])
    def test_discrete_blocks(self, name):
        res = PINNED_DEFLATIONS[name]()
        cfg = ON_CIRCLE if name == "discrete-one-infinite" else SMALL
        grid = grid_of(res, cfg)
        block0, *rest = res.operator.blocks
        want = walked_reference(ShiftForm(sigma_bilateral(), block0.weights), grid,
                                cfg, (("block", 0),))
        for b, block in enumerate(rest, 1):
            want += scaled_unitary_reference(block.weights.c, grid, cfg, b)
        assert (cfg is ON_CIRCLE) == any(c.regime == "constant-floor" for c in want)
        assert_same_certificates(res.certificates, want)

    @pytest.mark.parametrize("values, others", [
        (((1, INFINITE), (2, 3)), ()),
        (((1, INFINITE), (Fraction(1, 2), INFINITE), (2, 1)), (Fraction(1, 2),)),
    ])
    def test_finite_spectrum_blocks(self, values, others):
        res = deflate_finite_spectrum(MultiplicityList(values), ON_CIRCLE)
        grid = grid_of(res, ON_CIRCLE)
        block0 = res.operator.blocks[0] if others else res.operator
        verdict = shields_similar(block0.weights, ConstantRule(1), 10_000)
        shields = (("via", "shields-similarity"), ("shields_c", float(verdict.c)),
                   ("shields_C", float(verdict.C)))
        want = scaled_unitary_reference(1, grid, ON_CIRCLE, 0, shields)
        for b, v in enumerate(others, 1):
            want += scaled_unitary_reference(v, grid, ON_CIRCLE, b)
        assert {c.regime for c in want} > {"constant-floor"}
        assert_same_certificates(res.certificates, want)

    def test_block_continuous_certificates(self):
        blocks = [((0.4, 0.6), 3), ((0.5, 1.5), 3), ((0.5, 1.5), 3)]
        res = deflate_block_continuous(blocks, ALPHA_TO_ONE, 0.1, 2.0, ON_CIRCLE)
        want = []
        for lam in grid_of(res, ON_CIRCLE):
            cert = block_norm_blowup(ALPHA_TO_ONE, 0.1, 2.0, lam, ON_CIRCLE.bound,
                                     ON_CIRCLE.step_cap)
            want += [cert, replace(cert, side="adjoint")]
        assert_same_certificates(res.certificates, want)
        assert {c.regime for c in want} == {"forward", "constant-floor", "backward"}
        # the certificates the block path built before it had one constructor
        assert hashlib.sha256(repr(res.certificates).encode()).hexdigest() == (
            "380ccb8d8416dc3b9d4e10d15410295b62c02aedeec326ada7668431acadbcf2")

    @pytest.mark.parametrize("lam, step_cap", [
        (0.5, 100_000), (0.05, 100_000), (1j, 100_000), (-1.0, 3), (2.0, 100_000),
        (50.0, 100_000), (1e-14, 1), (1e-14, 0)])
    def test_block_norm_blowup_replays_exactly(self, lam, step_cap):
        # replay_block_certificate sums the same floats in the same order;
        # a forward witness at step 1 is found even with no step allowed
        cert = block_norm_blowup(ALPHA_TO_ONE, 0.1, 2.0, lam, 1e12, step_cap)
        assert replay_block_certificate(ALPHA_TO_ONE, cert) == cert.attained_magnitude
        assert cert.side == "direct" and cert.start_index == 1
        assert cert.witness_index <= max(step_cap, 1) or cert.regime == "constant-floor"


class TestDeflateBlockContinuous:
    def test_three_regimes_over_custom_grid(self):
        blocks = [((0.4, 0.6), 3), ((0.5, 1.5), 3), ((0.5, 1.5), 3)]
        res = deflate_block_continuous(blocks, ALPHA_TO_ONE, 0.1, 2.0, SMALL)
        regimes = {c.regime for c in res.certificates}
        assert "forward" in regimes and "backward" in regimes
        assert audit_deflation(res, 9) == (True, 0.0)
        assert any("eigenvalues of magnitude" in n for n in res.notes)

    def test_single_block_far_lambda(self):
        from schauderspec import block_norm_blowup
        cert = block_norm_blowup(ALPHA_TO_ONE, 0.1, 2.0, 100.0)
        assert cert.regime == "backward"
        assert cert.witness_index <= 8  # norm bound forces a fast witness

    def test_harmonic_gaps_rejected(self):
        with pytest.raises(PreconditionViolatedError):
            deflate_block_continuous([((0.5, 1.5), 2)],
                                     AffineRule(1, PowerLawRule(-1, 1)),
                                     0.1, 2.0, SMALL)

    def test_mismatched_dimensions_rejected(self):
        with pytest.raises(PreconditionViolatedError):
            deflate_block_continuous([((0.5, 1.5), 2), ((0.5, 1.5), 3)],
                                     ALPHA_TO_ONE, 0.1, 2.0, SMALL)


class TestDeflatePipeline:
    def test_reciprocal_diagonal_goes_basic(self):
        res = deflate(Diagonal(RECIP), SMALL)
        assert res.lemma_path == "recognize+basic"
        assert audit_deflation(res, 64) == (True, 0.0)
        rep = schauder_spectrum(res.deflated, SMALL)
        assert isinstance(rep.members, EmptySetMembers)

    def test_cibws_pipeline(self):
        res = deflate(cibws().to_expr(), SMALL)
        assert res.lemma_path == "recognize+discrete"
        assert audit_deflation(res, 64) == (True, 0.0)
        sides = {}
        for c in res.certificates:
            sides.setdefault((c.lam.real, c.lam.imag), set()).add(c.side)
        assert all(v == {"direct", "adjoint"} for v in sides.values())

    def test_backward_shift_rejected(self):
        with pytest.raises(PreconditionViolatedError):
            deflate(backward_unilateral_shift(), SMALL)

    def test_identity_rejected_as_unsupported(self):
        with pytest.raises(UnsupportedClassError) as err:
            deflate(PermutationUnitary(identity_permutation()), SMALL)
        assert "point spectrum {1}" in str(err.value)

    def test_negative_diagonal_folds_phase(self):
        # the polar split routes the signs into the unitary, so the
        # deflated shift carries the absolute values
        from schauderspec import ScaledRule

        res = deflate(Diagonal(ScaledRule(-1, RECIP)), SMALL)
        assert res.shift_form.weights.value(2) == Fraction(1, 2)
        assert audit_deflation(res, 48) == (True, 0.0)

    def test_scale_zero_is_degenerate_but_legal(self):
        from schauderspec import Scale, entry as entry_of

        Z = Scale(0, cibws().to_expr())
        assert all(entry_of(Z, i, j) == 0 for i in range(1, 6) for j in range(1, 6))
        v = is_schauder(Z)
        assert not v and v.reason == NOT_INJECTIVE

    def test_zero_past_the_schauder_probe_is_refused(self):
        # the offset rule decides from its prefix that the zero at 1001 is a
        # term, and places it
        prefix = tuple(Fraction(1, k) for k in range(1, 11)) + (0,)
        rule = OffsetRule(RepeatedRule(
            ExplicitThenRule(prefix, PowerLawRule(Fraction(1, 11), 1)), 100), 0)
        verdict = is_schauder(Diagonal(rule))
        assert not verdict and verdict.reason == NOT_INJECTIVE
        with pytest.raises(PreconditionViolatedError, match=(
                r"^not a Schauder operator: not-injective \(witness index "
                r"1001\); zero diagonal entry$")):
            deflate(Diagonal(rule), SMALL)

    @pytest.mark.parametrize("zero_at", [512, 513, 4096, 4097])
    @pytest.mark.parametrize("as_shift", [False, True])
    def test_a_callable_rule_is_refused_at_any_zero(self, zero_at, as_shift):
        # a callable rule decides no zero, and none of its weights stands in
        # for the fact: it is refused alike before and past any window
        from schauderspec import CallableRule, ShiftForm

        rule = CallableRule(lambda n: 0.0 if n == zero_at else 1.0 / n,
                            limit_hint=0)
        T = ShiftForm(identity_permutation(), rule) if as_shift else Diagonal(rule)
        for call in (lambda: deflate(T, SMALL), lambda: is_schauder(T)):
            with pytest.raises(PreconditionViolatedError,
                               match="^cannot certify that the weights are nonzero$"):
                call()

    @pytest.mark.parametrize("shape", ["diagonal", "shift-form", "product"])
    def test_zero_checks_read_each_weight_once(self, monkeypatch, shape):
        # an exact rule answers the Schauder check, the premises and the zero
        # checks itself: before the first certificate only w_1 is read, for the
        # grid's top, and the certificates read each orbit weight once
        reads, before = count_reads(monkeypatch, PowerLawRule)
        T = {"diagonal": Diagonal(RECIP),
             "shift-form": ShiftForm(identity_permutation(), RECIP),
             "product": Product(PermutationUnitary(sigma_bilateral()),
                                Diagonal(RECIP))}[shape]
        res = deflate(T, SMALL)
        assert res.zero_check.detail == "weights certified nonzero; permutation total"
        assert before == [{1: 1}]
        reads[1] -= 1
        assert set(reads.values()) == {1}

    @pytest.mark.parametrize("name", ["adjoint-diag-deflate", "adjoint-sigma-certify",
                                      "double-adjoint-cibws-classify"])
    def test_adjoints_read_no_weight_before_the_first_certificate(self, monkeypatch, name):
        # an adjoint's weights are its operator's reindexed, and these cancel
        # to the identity: the rule's facts answer, and only w_1 is read
        from schauderspec.spectral import lambda_grid, sup_abs_weight

        sigma = PermutationUnitary(sigma_bilateral())
        T, rule_class = {
            "adjoint-diag-deflate": (Adjoint(Diagonal(RECIP)), PowerLawRule),
            "adjoint-sigma-certify": (Adjoint(Product(
                Diagonal(GeometricRule(1, Fraction(1, 2))), sigma)), GeometricRule),
            "double-adjoint-cibws-classify": (
                Adjoint(Adjoint(cibws().to_expr())), ExplicitThenRule)}[name]
        _, before = count_reads(monkeypatch, rule_class)
        if name == "adjoint-diag-deflate":
            deflate(T, SMALL)
        elif name == "adjoint-sigma-certify":
            shift = recognize_shift_form(T).shift
            grid_certificates(shift, lambda_grid(SMALL, sup_abs_weight(shift.weights)))
        else:
            assert schauder_spectrum(T, SMALL).members == EmptySetMembers()
        assert before == [{1: 1}]

    def test_undecided_premises_are_refused_by_name(self):
        # a rule that leaves a premise undecided is refused, and no window of
        # its weights stands in for the fact
        from schauderspec import CallableRule
        from schauderspec.op_algebra import AbsRule

        class ZerosUnknown(PowerLawRule):
            def attains_zero(self, skip=0):
                return None

        unknown = CallableRule(RECIP.value, limit_hint=0)
        for call, fact in [
                (lambda: _probe_positive_monotone(unknown, strict=None), "positive reals"),
                (lambda: deflate_basic(AbsRule(unknown), SMALL), "strictly decreasing"),
                (lambda: deflate(Diagonal(unknown), SMALL), "nonzero"),
                (lambda: deflate_basic(ZerosUnknown(1, 1), SMALL), "nonzero"),
                (lambda: grid_certificates(ShiftForm(sigma_bilateral(), unknown), (1.0,)),
                 "magnitudes are nonincreasing")]:
            with pytest.raises(PreconditionViolatedError, match=f"^cannot certify that the weight(s are | )"
                                                               f"{fact}$"):
                call()

    def test_basic_refuses_a_zero_past_the_monotone_probe(self):
        # the rule's own fact sees the rise from the zero at 100 to the tail's
        # 1, where a probe of the first 64 weights saw none
        prefix = tuple(Fraction(1, k) for k in range(1, 100)) + (0,)
        with pytest.raises(PreconditionViolatedError, match=re.escape(
                "weights not strictly decreasing at index 100: 0 !> Fraction(1, 1)")):
            deflate_basic(ExplicitThenRule(prefix, RECIP), SMALL)

    def test_weights_probed_once(self, monkeypatch):
        # an exact rule answers for itself and reads no weight; a rule that
        # cannot answer is refused, and none of its weights is read
        reads = []
        value = PowerLawRule.value
        monkeypatch.setattr(PowerLawRule, "value", lambda self, n: reads.append(n) or value(self, n))
        assert _probe_positive_monotone(PowerLawRule(1, 1), strict=None) is True
        from schauderspec import CallableRule

        unknown = CallableRule(PowerLawRule(1, 1).value, limit_hint=0)
        with pytest.raises(PreconditionViolatedError,
                           match="^cannot certify that the weights are positive reals$"):
            _probe_positive_monotone(unknown, strict=None)
        assert reads == []

    def test_certificates_cover_grid_loudly(self):
        res = deflate(Diagonal(RECIP), SMALL)
        per_lam = {}
        for c in res.certificates:
            per_lam.setdefault((c.lam.real, c.lam.imag), set()).add(c.side)
        assert len(per_lam) == SMALL.moduli * SMALL.phases
        assert all(v == {"direct", "adjoint"} for v in per_lam.values())


class TestRecognizedOnce:
    @pytest.fixture
    def recognitions(self, monkeypatch):
        from schauderspec import schauder

        calls = []

        def counting(T, window=64, _recognize=schauder.recognize_shift_form):
            calls.append(window)
            return _recognize(T, window)

        monkeypatch.setattr(schauder, "recognize_shift_form", counting)
        return calls

    def test_deflate_of_a_product(self, recognitions):
        from schauderspec import sigma_bilateral

        deflate(Product(PermutationUnitary(sigma_bilateral()), Diagonal(RECIP)),
                SMALL)
        assert recognitions == [64]

    def test_classify_through_the_cli(self, recognitions, tmp_path):
        from schauderspec.cli import main

        spec = tmp_path / "cibws.json"
        spec.write_text(json.dumps({
            "version": 1, "analysis": "classify", "operator": {"op": "cibws"},
            "params": {"grid-moduli": 4, "grid-phases": 4}}))
        assert main(["run", str(spec), "--out", str(tmp_path / "o")]) == 0
        assert recognitions == [64]

    def test_block_spectrum_with_one_cibws_block(self, recognitions):
        part = (ExplicitPrefixSequence((1,)), ArithmeticSequence(2, 1))
        block = BlockDirectSum(
            (Diagonal(ExplicitThenRule((1,))), cibws().to_expr()), part)
        assert schauder_spectrum(block, SMALL).members == FiniteSetMembers((1,))
        assert recognitions == [64]


# A zero weight at index 5001 of block 0, past every weight probe
LATE_ZERO_BLOCKS = {
    "version": 1, "analysis": "schauder-spectrum",
    "params": {"grid-moduli": 2, "grid-phases": 2},
    "operator": {
        "op": "block-direct-sum",
        "blocks": [
            {"op": "diagonal", "weights": {
                "rule": "offset", "offset": 0, "inner": {
                    "rule": "repeated", "times": 5000, "inner": {
                        "rule": "explicit-then", "prefix": [1, 0],
                        "tail": {"rule": "constant", "value": 1}}}}},
            {"op": "diagonal", "weights": {
                "rule": "constant", "value": {"fraction": [1, 2]}}}],
        "partition": [{"sequence": "arithmetic", "start": 1, "step": 2},
                      {"sequence": "arithmetic", "start": 2, "step": 2}]}}


class TestBlockSumZero:
    def test_zero_of_a_block_is_a_member(self):
        from schauderspec.serde import parse_spec_document

        T = parse_spec_document(LATE_ZERO_BLOCKS).operator
        assert schauder_spectrum(T.blocks[0]).members == FiniteSetMembers((1, 0))
        rep = schauder_spectrum(T)
        assert rep.members == FiniteSetMembers((1, Fraction(1, 2), 0))
        assert rep.reasons()[0] == NOT_INJECTIVE

    def test_zero_of_a_block_through_the_cli(self, tmp_path):
        from schauderspec.cli import main

        spec = tmp_path / "late-zero-blocks.json"
        spec.write_text(json.dumps(LATE_ZERO_BLOCKS))
        assert main(["run", str(spec), "--out", str(tmp_path / "o")]) == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        got = report["results"]["report"]
        assert got["members"] == {
            "kind": "finite", "values": [1, {"fraction": [1, 2]}, 0]}
        assert got["perMemberReason"][-1] == {
            "member": 0, "reason": NOT_INJECTIVE}

    def test_zero_reason_of_a_vanishing_block(self):
        # 1/n with a 0 at 7 rises after its zero: a merge by magnitude would
        # stall at the 0, so the block is refused
        part = (ArithmeticSequence(1, 2), ArithmeticSequence(2, 2))
        late = ExplicitThenRule(tuple(1.0 / n for n in range(1, 7)) + (0.0,),
                                OffsetRule(PowerLawRule(1.0, 1), 7))
        B = BlockDirectSum((Diagonal(ConstantRule(1)), Diagonal(late)), part)
        with pytest.raises(UnsupportedClassError, match="^block 1: its members rise at index 7;"):
            schauder_spectrum(B, SMALL)

    def test_unrecognized_block_gets_the_spectrum_message(self):
        part = (ArithmeticSequence(1, 2), ArithmeticSequence(2, 2))
        two_per_column = Sum((Diagonal(ConstantRule(1)), forward_unilateral_shift()))
        B = BlockDirectSum((Diagonal(RECIP), two_per_column), part)
        with pytest.raises(UnsupportedClassError, match=(
                "^operator is not permutation-weighted: recognition stops at "
                "a Sum of non-spread terms$")):
            schauder_spectrum(B, SMALL)


class TestCompactnessFlag:
    def test_structural_verdicts(self):
        assert is_compact_structural(Diagonal(RECIP)) is True
        assert is_compact_structural(Diagonal(ConstantRule(1))) is False
        assert is_compact_structural(cibws()) is True
