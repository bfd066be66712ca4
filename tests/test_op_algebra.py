from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schauderspec import (
    Adjoint,
    ArithmeticSequence,
    BlockDirectSum,
    ConstantRule,
    Diagonal,
    ExplicitPrefixSequence,
    ExplicitThenRule,
    FinVector,
    LambdaShift,
    PermutationUnitary,
    PowerLawRule,
    Product,
    Scale,
    ShiftForm,
    Spread,
    SpreadSpec,
    Sum,
    apply,
    backward_unilateral_shift,
    bilateral_backward_unitary,
    cibws,
    cibws_from_z_definition,
    cibws_weight_rule,
    decompose_into_spreads,
    entry,
    forward_unilateral_shift,
    identity_permutation,
    interleave_z,
    naturals,
    one_line_permutation,
    recognize_shift_form,
    sigma_bilateral,
    truncate,
    truncate_complex,
)
from schauderspec import op_algebra
from schauderspec.errors import UnsupportedClassError

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6).filter(
    lambda f: f != 0
)


class TestEntry:
    def test_backward_shift_spread(self):
        S = backward_unilateral_shift()
        assert entry(S, 1, 2) == 1
        for k in range(1, 20):
            assert entry(S, k, k) == 0
        # column 1 annihilated
        assert all(entry(S, i, 1) == 0 for i in range(1, 10))

    def test_diagonal(self):
        D = Diagonal(PowerLawRule(Fraction(1), 1))
        assert entry(D, 3, 3) == Fraction(1, 3)
        assert entry(D, 3, 4) == 0

    def test_adjoint_is_conjugate_transpose(self):
        S = backward_unilateral_shift()
        A = Adjoint(S)
        for i in range(1, 12):
            for j in range(1, 12):
                assert entry(A, i, j) == entry(S, j, i)

    def test_lambda_shift(self):
        D = Diagonal(ConstantRule(Fraction(1, 2)))
        L = LambdaShift(2, D)
        assert entry(L, 1, 1) == 2 - Fraction(1, 2)
        assert entry(L, 1, 2) == 0

    def test_block_direct_sum_cross_cells_zero(self):
        part = (ArithmeticSequence(1, 2), ArithmeticSequence(2, 2))
        B = BlockDirectSum((Diagonal(ConstantRule(2)), Diagonal(ConstantRule(3))),
                           part)
        assert entry(B, 1, 1) == 2
        assert entry(B, 2, 2) == 3
        assert entry(B, 1, 2) == 0
        assert entry(B, 2, 4) == 0  # same cell, off-diagonal block entry


class TestApply:
    def test_backward_shift_kills_e1(self):
        S = backward_unilateral_shift()
        assert apply(S, FinVector.basis(1)) == FinVector.zero()
        assert apply(S, FinVector.basis(2)) == FinVector.basis(1)

    def test_diagonal_action(self):
        D = Diagonal(PowerLawRule(Fraction(1), 1))
        for k in (1, 4, 9):
            out = apply(D, FinVector.basis(k))
            assert out.as_dict() == {k: Fraction(1, k)}

    def test_cibws_action_over_z(self):
        K = cibws().to_expr()
        for j in range(-20, 21):
            out = apply(K, FinVector.basis(interleave_z(j)))
            expected = {interleave_z(j - 1): Fraction(1, 1 + abs(j))}
            assert out.as_dict() == expected


class TestTruncate:
    def test_diagonal_two(self):
        D = Diagonal(PowerLawRule(Fraction(1), 1))
        assert truncate(D, 2) == [[1, 0], [0, Fraction(1, 2)]]

    def test_identity_three(self):
        U = PermutationUnitary(identity_permutation())
        assert truncate(U, 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_product_sd_matches_direct_z_definition(self):
        S = bilateral_backward_unitary()
        D = Diagonal(cibws_weight_rule())
        direct = cibws_from_z_definition().to_expr()
        assert truncate(Product(S, D), 50) == truncate(direct, 50)

    @pytest.mark.parametrize("T", [
        Diagonal(ExplicitThenRule((1.0, -0.0, 0.0, -2.5), PowerLawRule(1, 1))),
        Product(bilateral_backward_unitary(), Diagonal(cibws_weight_rule())),
        BlockDirectSum(
            (Diagonal(ConstantRule(2)),
             Product(PermutationUnitary(one_line_permutation([2, 1])),
                     Diagonal(ConstantRule(-0.0)))),
            (ArithmeticSequence(1, 2), ArithmeticSequence(2, 2))),
        Sum((backward_unilateral_shift(), forward_unilateral_shift(),
             Spread(SpreadSpec(ArithmeticSequence(2, 2),
                               ArithmeticSequence(1, 3))))),
        Adjoint(Product(bilateral_backward_unitary(),
                        Diagonal(ExplicitThenRule((1j, -0.0, 2 - 1j),
                                                  ConstantRule(0.5))))),
        Scale(-1.0, Diagonal(ExplicitThenRule((0.0, 1.5), ConstantRule(0.0)))),
        cibws().to_expr(),
    ], ids=["diagonal", "product", "block-direct-sum", "sum-of-spreads",
            "adjoint", "scale", "cibws"])
    def test_truncate_complex_matches_dense_corner(self, T):
        for n in (1, 2, 7, 33):
            want = np.array([[complex(v) for v in row] for row in truncate(T, n)],
                            dtype=complex)
            got = truncate_complex(T, n)
            assert got.shape == want.shape and got.dtype == want.dtype
            # byte equality also tells signed zeros apart
            assert got.tobytes() == want.tobytes()


class TestRecognize:
    def test_cibws_polar_split(self):
        K = cibws().to_expr()
        rec = recognize_shift_form(K, window=100)
        assert rec is not None
        # the unitary factor is the pure permutation part: weights positive
        assert isinstance(rec.unitary, PermutationUnitary)
        d = rec.diagonal.weights
        # weights derived from the Z definition: d_1 = 1, then pairs 1/2, 1/2, ...
        assert d.value(1) == 1
        assert [d.value(n) for n in range(2, 8)] == [
            Fraction(1, 2), Fraction(1, 2), Fraction(1, 3), Fraction(1, 3),
            Fraction(1, 4), Fraction(1, 4),
        ]
        assert truncate(Product(rec.unitary, rec.diagonal), 100) == truncate(K, 100)

    def test_positive_diagonal_recognizes_as_itself(self):
        D = Diagonal(PowerLawRule(Fraction(1), 1))
        rec = recognize_shift_form(D, window=16)
        assert rec is not None
        assert rec.shift.perm.tag == ("identity",)
        assert truncate(rec.diagonal, 8) == truncate(D, 8)

    def test_negative_weights_fold_phase_into_unitary(self):
        D = Diagonal(ConstantRule(Fraction(-1, 2)))
        rec = recognize_shift_form(D, window=8)
        assert rec is not None
        assert rec.diagonal.weights.value(3) == Fraction(1, 2)
        assert truncate(Product(rec.unitary, rec.diagonal), 8) == truncate(D, 8)

    def test_two_entry_column_not_recognized(self):
        T = Sum((Diagonal(ConstantRule(1)),
                 Spread(SpreadSpec(naturals(), ArithmeticSequence(2, 1)))))
        assert recognize_shift_form(T, window=8) is None

    def test_failed_candidate_falls_back_to_the_scanned_shift(self, monkeypatch):
        # each column is hit by both spreads, so the structural candidate
        # raises; the scanned columns still form the shift 2 * identity
        twice = Spread(SpreadSpec(naturals(), naturals()))
        T = Sum((twice, twice))
        rec = recognize_shift_form(T, window=8)
        assert rec.shift.perm.description == "scanned shift"
        assert [rec.shift.perm.forward(j) for j in range(1, 9)] == list(range(1, 9))
        assert rec.shift.weights.values(8) == [2] * 8
        assert truncate(Product(rec.unitary, rec.diagonal), 8) == truncate(T, 8)
        # a candidate whose weights disagree with the columns is dropped too
        wrong = ShiftForm(identity_permutation(), ConstantRule(3))
        monkeypatch.setattr(op_algebra, "_structural_shift", lambda _: wrong)
        rec = recognize_shift_form(Diagonal(ConstantRule(2)), window=8)
        assert rec.shift.perm.description == "scanned shift"
        assert rec.shift.weights.values(8) == [2] * 8

    def test_scanned_shift_refuses_a_column_past_its_window(self):
        # diag(1/n) + the spread {100, ..} -> {101, ..}: one entry per
        # column up to 99, two from column 100 on
        late = Spread(SpreadSpec(ArithmeticSequence(100, 1), ArithmeticSequence(101, 1)))
        rec = recognize_shift_form(Sum((Diagonal(PowerLawRule(Fraction(1), 1)), late)))
        shift = rec.shift
        assert shift.perm.forward(99) == 99
        for read, index, line in ((shift.perm.forward, 100, "column 100"),
                                  (shift.weights.value, 100, "column 100"),
                                  (shift.perm.inverse, 101, "row 101")):
            with pytest.raises(UnsupportedClassError,
                               match=f"^{line} has 2 nonzero entries$"):
                read(index)
        # a wider window that reads the bad row of the embedded shift
        # answers "not recognized", as for any failed window scan
        assert recognize_shift_form(rec.unitary, window=128) is None

    @given(st.permutations(list(range(1, 13))),
           st.lists(rationals, min_size=12, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_random_shift_recomposes(self, images, weights):
        perm = one_line_permutation(images)
        rule = ExplicitThenRule(tuple(weights), ConstantRule(1))
        T = Product(PermutationUnitary(perm), Diagonal(rule))
        rec = recognize_shift_form(T, window=30)
        assert rec is not None
        assert truncate(Product(rec.unitary, rec.diagonal), 30) == truncate(T, 30)


# --- generator grammar for property tests -------------------------------


@st.composite
def leaf_exprs(draw):
    kind = draw(st.sampled_from(["diag", "perm", "spread"]))
    if kind == "diag":
        prefix = tuple(draw(st.lists(rationals, min_size=1, max_size=4)))
        return Diagonal(ExplicitThenRule(prefix, ConstantRule(draw(rationals))))
    if kind == "perm":
        n = draw(st.integers(min_value=2, max_value=6))
        images = draw(st.permutations(list(range(1, n + 1))))
        return PermutationUnitary(one_line_permutation(images))
    a = ArithmeticSequence(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    b = ArithmeticSequence(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    return Spread(SpreadSpec(a, b))


expr_trees = st.recursive(
    leaf_exprs(),
    lambda kids: st.one_of(
        st.builds(Adjoint, kids),
        st.builds(lambda x, y: Sum((x, y)), kids, kids),
        st.builds(Product, kids, kids),
        st.builds(Scale, rationals, kids),
        st.builds(LambdaShift, rationals, kids),
    ),
    max_leaves=4,
)


@st.composite
def fin_vectors(draw):
    idx = draw(st.lists(st.integers(min_value=1, max_value=12), min_size=1,
                        max_size=4, unique=True))
    return FinVector.from_dict({i: draw(rationals) for i in idx})


class TestAlgebraProperties:
    @given(expr_trees, fin_vectors())
    @settings(max_examples=120, deadline=None)
    def test_entry_apply_consistency(self, T, x):
        y = apply(T, x)
        rows = set(y.support) | set(range(1, 2 * max(x.support) + 1))
        for i in rows:
            expected = sum(entry(T, i, j) * v for j, v in x.entries)
            assert y.value(i) == expected

    @given(expr_trees)
    @settings(max_examples=60, deadline=None)
    def test_adjoint_involution(self, T):
        A = Adjoint(Adjoint(T))
        for i in range(1, 9):
            for j in range(1, 9):
                assert entry(A, i, j) == entry(T, i, j)

    @given(st.permutations(list(range(1, 9))))
    @settings(max_examples=40)
    def test_permutation_unitary_window(self, images):
        U = PermutationUnitary(one_line_permutation(images))
        n = len(images)  # the window is closed under this permutation
        M = truncate(U, n)
        for j in range(n):
            col = [M[i][j] for i in range(n)]
            assert col.count(1) == 1 and col.count(0) == n - 1
        # orthonormal columns: U^t U = I on the window
        for j in range(n):
            for k in range(n):
                dot = sum(M[i][j] * M[i][k] for i in range(n))
                assert dot == (1 if j == k else 0)

    @given(rationals, expr_trees)
    @settings(max_examples=40, deadline=None)
    def test_lambda_shift_entry(self, lam, T):
        L = LambdaShift(lam, T)
        for i in range(1, 8):
            for j in range(1, 8):
                expected = (lam if i == j else 0) - entry(T, i, j)
                assert entry(L, i, j) == expected


class TestShiftForm:
    def test_shift_form_matches_expr(self):
        s = cibws()
        e = s.to_expr()
        for i in range(1, 20):
            for j in range(1, 20):
                assert s.entry(i, j) == entry(e, i, j)

    def test_forward_shift_misses_row_one(self):
        F = forward_unilateral_shift()
        assert all(entry(F, 1, j) == 0 for j in range(1, 16))
        assert entry(F, 2, 1) == 1


class TestAdjointShiftForm:
    def test_matches_expression_adjoint(self):
        from schauderspec import adjoint_shift_form

        K = cibws()
        adj = adjoint_shift_form(K)
        A = Adjoint(K.to_expr())
        for i in range(1, 30):
            for j in range(1, 30):
                assert adj.entry(i, j) == entry(A, i, j)

    def test_complex_weights_conjugated(self):
        from schauderspec import adjoint_shift_form, sigma_bilateral
        from schauderspec.sequences import CallableRule

        w = CallableRule(lambda n: (1 + 1j) / n, "complex decay")
        s = ShiftForm(sigma_bilateral(), w)
        adj = adjoint_shift_form(s)
        A = Adjoint(s.to_expr())
        for i in range(1, 16):
            for j in range(1, 16):
                assert adj.entry(i, j) == entry(A, i, j)


class TestClosedFormSequence:
    def test_membership_binary_search(self):
        from schauderspec import ClosedFormSequence

        squares = ClosedFormSequence(lambda n: n * n, "squares")
        assert squares.elem(4) == 16
        assert squares.position_of(49) == 7
        assert squares.position_of(50) is None
        assert squares.position_of(1) == 1


@st.composite
def spread_sums(draw):
    """Sums of spreads: finite pieces, arithmetic progressions, and mixed
    finite-domain/infinite-image spreads, so lines may be hit 0, 1 or more
    times."""

    def seq(finite):
        if finite:
            return ExplicitPrefixSequence(tuple(sorted(
                draw(st.sets(st.integers(1, 24), min_size=1, max_size=6)))))
        return ArithmeticSequence(draw(st.integers(1, 6)), draw(st.integers(1, 3)))

    terms = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["finite", "infinite", "finite-domain"]))
        if kind == "finite":
            dom = seq(True)
            img = ExplicitPrefixSequence(tuple(sorted(draw(st.sets(
                st.integers(1, 24), min_size=len(dom.prefix),
                max_size=len(dom.prefix))))))
        else:
            dom, img = seq(kind == "finite-domain"), seq(False)
        terms.append(Spread(SpreadSpec(dom, img)))
    return Sum(tuple(terms))


class TestSumOfSpreadsShift:
    @settings(max_examples=200, deadline=None)
    @given(T=spread_sums())
    def test_permutation_agrees_with_supports(self, T):
        perm = op_algebra._structural_shift(T).perm
        for k in range(1, 30):
            for step, support, line in ((perm.forward, T.column_support, "column"),
                                        (perm.inverse, T.row_support, "row")):
                hits = support(k)
                if len(hits) == 1:
                    assert step(k) == hits[0]
                else:
                    with pytest.raises(UnsupportedClassError,
                                       match=f"^{line} {k} is hit by {len(hits)} spreads$"):
                        step(k)

    def test_row_beyond_a_finite_domain_is_hit_by_no_spread(self):
        T = Sum((Spread(SpreadSpec(ExplicitPrefixSequence((1, 2, 3)), naturals())),
                 Spread(SpreadSpec(ArithmeticSequence(4, 1), ArithmeticSequence(10, 1)))))
        perm = op_algebra._structural_shift(T).perm
        assert [perm.inverse(i) for i in (1, 2, 3, 10, 11)] == [1, 2, 3, 4, 5]
        assert perm.forward(5) == 11
        with pytest.raises(UnsupportedClassError, match="^row 5 is hit by 0 spreads$"):
            perm.inverse(5)

    def test_sigma_spreads_recognized(self):
        sigma = sigma_bilateral()
        T = Sum(tuple(Spread(sp) for sp in decompose_into_spreads(sigma, 64)))
        perm = op_algebra._structural_shift(T).perm
        for k in range(1, 200):
            assert perm.forward(k) == sigma.forward(k)
            assert perm.inverse(k) == sigma.inverse(k)

    @pytest.mark.parametrize("named", [sigma_bilateral(), identity_permutation()],
                             ids=repr)
    def test_named_spreads_recognize_with_their_tag(self, named):
        # in either order, so the spreads are matched as a multiset
        spreads = [Spread(sp) for sp in decompose_into_spreads(named, 1)]
        for terms in (spreads, spreads[::-1]):
            assert op_algebra._structural_shift(Sum(tuple(terms))).perm == named
        rec = recognize_shift_form(Product(Sum(tuple(spreads)), Diagonal(ConstantRule(2))))
        assert rec.shift.perm == named and rec.shift.perm.maps is None
        assert [rec.shift.perm.forward(k) for k in range(1, 65)] == [
            named.forward(k) for k in range(1, 65)]

    def test_other_spread_sums_keep_their_maps(self):
        twice = Spread(SpreadSpec(naturals(), naturals()))
        assert op_algebra._structural_shift(Sum((twice,))).perm.is_identity
        # the spread twice is not the identity's multiset: its closure
        # raises, and recognition falls back to the scanned columns
        doubled = Sum((twice, twice))
        perm = op_algebra._structural_shift(doubled).perm
        assert perm.maps is not None and perm.description == "sum-of-spreads"
        with pytest.raises(UnsupportedClassError, match="^column 3 is hit by 2 spreads$"):
            perm.forward(3)
        scanned = recognize_shift_form(doubled, window=8).shift.perm
        assert scanned.maps is not None and scanned.description == "scanned shift"
        assert [scanned.forward(k) for k in range(1, 9)] == list(range(1, 9))
