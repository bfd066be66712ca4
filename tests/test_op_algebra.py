import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
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
    evens,
    forward_unilateral_shift,
    identity_permutation,
    interleave_z,
    naturals,
    odds,
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

    def test_a_tree_with_no_shift_form_is_refused_at_its_node(self):
        # the spread twice, added to itself, agrees with 2 * identity on
        # every column read, but two spreads hit each column: no form
        twice = Spread(SpreadSpec(naturals(), naturals()))
        D = Diagonal(PowerLawRule(Fraction(1), 1))
        for T, stop in [
            (Sum((twice, twice)), "a Sum of spreads: column 1 is hit by 2 spreads"),
            (Product(D, Sum((D, twice))), "a Sum of non-spread terms"),
            (Scale(2, Adjoint(LambdaShift(1, D))), "a LambdaShift"),
            (Product(forward_unilateral_shift(), D), "a lone Spread"),
            (BlockDirectSum((D, D), (odds(), evens())), "a BlockDirectSum"),
        ]:
            assert recognize_shift_form(T) is None
            refusal = op_algebra.unrecognized(T)
            assert isinstance(refusal, UnsupportedClassError)
            assert str(refusal) == (
                f"operator is not permutation-weighted: recognition stops at {stop}")

    def test_a_column_past_any_window_is_refused(self):
        # diag(1/n) + the spread {100, ..} -> {101, ..}: one entry per
        # column up to 99, two from column 100 on; the tree decides it
        late = Spread(SpreadSpec(ArithmeticSequence(100, 1), ArithmeticSequence(101, 1)))
        T = Sum((Diagonal(PowerLawRule(Fraction(1), 1)), late))
        assert recognize_shift_form(T, window=64) is None
        assert str(op_algebra.unrecognized(T)).endswith("stops at a Sum of non-spread terms")
        # with the identity spread in place of the diagonal it is a sum of
        # spreads, and the refusal names the first line hit twice
        T = Sum((Spread(SpreadSpec(naturals(), naturals())), late))
        assert recognize_shift_form(T) is None
        assert str(op_algebra.unrecognized(T)).endswith(
            "stops at a Sum of spreads: column 100 is hit by 2 spreads")

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
    @given(expr_trees)
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    def test_structural_form_is_the_tree(self, T):
        # what recognition once confirmed on a window of rows and columns:
        # the recognized form equals T entry by entry, here on a 32 x 32 corner
        shift = op_algebra._structural_shift(T)
        assume(shift is not None)
        got = op_algebra.corner_entries(shift.to_expr(), 32)
        want = op_algebra.corner_entries(T, 32)
        for key in got.keys() | want.keys():
            assert got.get(key, 0) == want.get(key, 0), key

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
        # past 2**63 too, where a range() index overflows
        assert squares.position_of(2 ** 64 + 1) is None
        assert squares.position_of(2 ** 64) == 2 ** 32
        assert squares.position_of(2 ** 80) == 2 ** 40


@st.composite
def spread_sums(draw):
    """Sums of spreads: finite pieces, arithmetic progressions, and mixed
    finite-domain/infinite-image spreads, so lines may be hit 0, 1 or more
    times; or, half the time, a permutation: the residue classes mod m
    moved onto each other, maybe with the first two terms of one swapped."""
    if draw(st.booleans()):
        m = draw(st.integers(1, 3))
        moved = draw(st.permutations(range(1, m + 1)))
        terms = [Spread(SpreadSpec(ArithmeticSequence(r, m), ArithmeticSequence(q, m)))
                 for r, q in enumerate(moved, 1)]
        if draw(st.booleans()):
            q = moved[0]
            terms[:1] = [Spread(SpreadSpec(ExplicitPrefixSequence((a,)), ExplicitPrefixSequence((b,))))
                         for a, b in ((1, q + m), (1 + m, q))]
            terms.append(Spread(SpreadSpec(ArithmeticSequence(1 + 2 * m, m),
                                           ArithmeticSequence(q + 2 * m, m))))
        return Sum(tuple(draw(st.permutations(terms))))

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
        # the drawn sets start by 24 and repeat with a period dividing 6, so
        # lines 1..60 decide whether the spreads form a permutation
        hits = {(line, k): [x for t in T.terms for x in getattr(t, line)(k)]
                for line in ("column", "row") for k in range(1, 61)}
        faults = [f"{line} {k} is hit by {len(xs)} spreads"
                  for (line, k), xs in hits.items() if len(xs) != 1]
        shift = op_algebra._structural_shift(T)
        if faults:
            assert shift is None
            assert str(op_algebra.unrecognized(T)).endswith(
                f"stops at a Sum of spreads: {faults[0]}")
            return
        for (line, k), xs in hits.items():
            assert [(shift.perm.forward if line == "column" else shift.perm.inverse)(k)] == xs

    def test_row_beyond_a_finite_domain_is_hit_by_no_spread(self):
        # {1, 2, 3} -> N pairs only its three terms: rows 4..9 are left out
        T = Sum((Spread(SpreadSpec(ExplicitPrefixSequence((1, 2, 3)), naturals())),
                 Spread(SpreadSpec(ArithmeticSequence(4, 1), ArithmeticSequence(10, 1)))))
        assert [x for i in (1, 2, 3, 10, 11) for t in T.terms for x in t.row(i)] == [
            1, 2, 3, 4, 5]
        assert [x for t in T.terms for x in t.row(4)] == []
        assert op_algebra._structural_shift(T) is None
        assert str(op_algebra.unrecognized(T)).endswith(
            "stops at a Sum of spreads: row 4 is hit by 0 spreads")

    def test_undecided_and_ill_formed_sums_are_faults(self):
        from schauderspec import ClosedFormSequence
        from schauderspec.index_maps import spread_sum_fault

        squares = ClosedFormSequence(lambda n: n * n, "squares")
        assert spread_sum_fault([SpreadSpec(squares, squares)]) == (
            "a column set is given by a callable")
        # residue classes mod 257 and 263 leave 3 out, though they repeat
        # only after their product
        classes = [SpreadSpec(ArithmeticSequence(r, m), ArithmeticSequence(r, m))
                   for r, m in ((1, 257), (2, 263))]
        assert spread_sum_fault(classes) == "column 3 is hit by 0 spreads"
        assert spread_sum_fault([SpreadSpec(naturals(), ExplicitPrefixSequence((1, 2)))]) == (
            "column 3 lies past its spread's finite image")

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
        # odds <-> evens is a permutation but neither named one: it keeps its maps
        swap = Sum((Spread(SpreadSpec(odds(), evens())), Spread(SpreadSpec(evens(), odds()))))
        perm = op_algebra._structural_shift(swap).perm
        assert perm.maps is not None and perm.description == "sum-of-spreads"
        assert [perm.forward(k) for k in range(1, 7)] == [2, 1, 4, 3, 6, 5]
        assert [perm.inverse(k) for k in range(1, 7)] == [2, 1, 4, 3, 6, 5]
        # the spread twice is not the identity's multiset, and no permutation
        assert op_algebra._structural_shift(Sum((twice, twice))) is None


# --- an independent reference for the line evaluator ---------------------
#
# Values mix exact ones, dyadic and non-dyadic floats (whose sums depend on
# their order), signed float zeros, exact zeros, complex weights and a
# complex weight with an infinite part; scalar factors may be infinite, so
# an entry no line names may be nan.

DYADIC = st.sampled_from([Fraction(1, 2), Fraction(-3, 4), Fraction(5, 4), 2, -1])
WEIGHTS = st.one_of(DYADIC, st.just(0), st.sampled_from([0.5, -1.5, 2.0, 0.0, -0.0]),
                    st.sampled_from([0.1, 1 / 3, -0.7, 2.3e-17]),
                    st.sampled_from([1j, complex(0.5, -0.0), complex(-0.0, 2.0),
                                     complex(1.0, math.inf)]))
SCALARS = st.one_of(DYADIC, st.sampled_from([0.5, 0.3, -0.0, complex(-0.5, 0.0)]),
                    st.sampled_from([math.inf, -math.inf]))


@st.composite
def weighted_leaves(draw):
    kind = draw(st.sampled_from(["diag", "perm", "spread"]))
    if kind == "diag":
        prefix = tuple(draw(st.lists(WEIGHTS, min_size=1, max_size=4)))
        return Diagonal(ExplicitThenRule(prefix, ConstantRule(draw(WEIGHTS))))
    return draw(leaf_exprs().filter(lambda t: not isinstance(t, Diagonal)))


line_trees = st.recursive(
    weighted_leaves(),
    lambda kids: st.one_of(
        st.builds(Adjoint, kids),
        st.builds(lambda x, y: Sum((x, y)), kids, kids),
        st.builds(Product, kids, kids),
        st.builds(Scale, SCALARS, kids),
        st.builds(LambdaShift, SCALARS, kids),
        st.builds(lambda x, y: BlockDirectSum((x, y), (odds(), evens())), kids, kids),
    ),
    max_leaves=4,
)


def _cell(g):
    """The ``odds(), evens()`` cell of ``g`` and its position there."""
    return g % 2 == 0, (g + 1) // 2


def _support(T, g, axis):
    """The indices column (axis 0) or row (axis 1) ``g`` of ``T`` names, with
    repeats, in the order a product sums its middle indices by: a product's
    column walks the set of its right factor's column, a row the set of its
    left factor's row."""
    if isinstance(T, Diagonal):
        return (g,)
    if isinstance(T, PermutationUnitary):
        return (T.perm.inverse(g) if axis else T.perm.forward(g),)
    if isinstance(T, Spread):
        src, dst = (T.spread.image, T.spread.domain) if axis else (T.spread.domain, T.spread.image)
        k = src.position_of(g)
        return () if k is None or dst.length() is not None and k > dst.length() else (dst.elem(k),)
    if isinstance(T, Sum):
        return tuple(x for t in T.terms for x in _support(t, g, axis))
    if isinstance(T, Product):
        first, then = (T.left, T.right) if axis else (T.right, T.left)
        return tuple(x for k in set(_support(first, g, axis)) for x in _support(then, k, axis))
    if isinstance(T, Adjoint):
        return _support(T.inner, g, 1 - axis)
    if isinstance(T, LambdaShift):
        return (g,) + _support(T.inner, g, axis)
    if isinstance(T, BlockDirectSum):
        c, k = _cell(g)
        return tuple(T.partition[c].elem(r) for r in set(_support(T.blocks[c], k, axis)))
    return _support(T.inner, g, axis)


def _reach(T, x, memo):
    """A bound on every index that line ``x`` of ``T`` can name, from the
    parameters the generators above draw."""
    key = ("reach", id(T), x)
    if key not in memo:
        memo[key] = _reach_uncached(T, x, memo)
    return memo[key]


def _reach_uncached(T, x, memo):
    if isinstance(T, Diagonal):
        return x
    if isinstance(T, PermutationUnitary):
        return max(x, 6)
    if isinstance(T, Spread):  # starts and steps are at most 3
        return 3 * x + 3
    if isinstance(T, Product):
        return max(_reach(T.left, _reach(T.right, x, memo), memo),
                   _reach(T.right, _reach(T.left, x, memo), memo))
    if isinstance(T, (Sum, BlockDirectSum)):
        kids = T.terms if isinstance(T, Sum) else T.blocks
        return (2 if isinstance(T, BlockDirectSum) else 1) * max(_reach(t, x, memo) for t in kids)
    return _reach(T.inner, x, memo)


def _reference(T, i, j, memo):
    """``(named, value)`` at row ``i``, column ``j``: whether the structure
    names the position, and the entry there, from the leaves' definitions and
    plain arithmetic.  A product sums ``left[i, k] * right[k, j]`` over the
    middle indices ``k`` its right factor's column ``j`` names, in set order,
    skipping a zero factor's partner."""
    key = (id(T), i, j)
    if key not in memo:
        memo[key] = _reference_uncached(T, i, j, memo)
    return memo[key]


def _reference_uncached(T, i, j, memo):
    if isinstance(T, Diagonal):
        return (True, T.weights.value(i)) if i == j else (False, 0)
    if isinstance(T, PermutationUnitary):
        return (True, 1) if T.perm.forward(j) == i else (False, 0)
    if isinstance(T, Spread):
        k = T.spread.domain.position_of(j)
        return (True, 1) if k is not None and T.spread.image.elem(k) == i else (False, 0)
    if isinstance(T, Sum):
        named, total = False, 0
        for t in T.terms:
            n, v = _reference(t, i, j, memo)
            named, total = named or n, total + v
        return named, total
    if isinstance(T, Product):
        named, total = False, 0
        for k in set(_support(T.right, j, 0)):
            nl, lv = _reference(T.left, i, k, memo)
            nr, rv = _reference(T.right, k, j, memo)
            named = named or (nl and nr)
            if rv != 0 and lv != 0:
                total = total + lv * rv
        return named, total
    if isinstance(T, Adjoint):
        n, v = _reference(T.inner, j, i, memo)
        return n, v.conjugate()
    if isinstance(T, Scale):
        n, v = _reference(T.inner, i, j, memo)
        return n, T.scalar * v
    if isinstance(T, LambdaShift):
        n, v = _reference(T.inner, i, j, memo)
        return n or i == j, (T.lam if i == j else 0) - v
    (ci, ki), (cj, kj) = _cell(i), _cell(j)
    return _reference(T.blocks[ci], ki, kj, memo) if ci == cj else (False, 0)


def _scan(T, axis, g):
    """The nonzero entries ``(index, value)`` of column (axis 0) or row (axis 1)
    ``g`` of ``T``, by index."""
    return [(x, v) for x, v in sorted(T.line(g, axis).items()) if v != 0]


class TestLinesAgainstReference:
    @given(line_trees, st.integers(1, 5))
    @settings(max_examples=250, deadline=None)
    def test_corner_and_scans_match_the_reference(self, T, n):
        memo = {}
        ref = {(i, j): _reference(T, i, j, memo)
               for i in range(1, n + 1) for j in range(1, n + 1)}
        got = op_algebra.corner_entries(T, n)
        assert {key: repr(v) for key, v in got.items()} == {
            (i - 1, j - 1): repr(v) for (i, j), (named, v) in ref.items() if named}
        for g in range(1, n + 1):
            column = [(i, _reference(T, i, g, memo)) for i in range(1, _reach(T, g, memo) + 1)]
            row = [(j, _reference(T, g, j, memo)) for j in range(1, _reach(T, g, memo) + 1)]
            for axis, line in ((0, column), (1, row)):
                assert repr(_scan(T, axis, g)) == repr([(x, v) for x, (named, v) in line
                                                        if named and v != 0])
            # a row and the columns it crosses give each entry alike
            assert repr(_scan(T, 1, g)) == repr([
                (j, v) for j in range(1, _reach(T, g, memo) + 1)
                for i, v in _scan(T, 0, j) if i == g])


    @staticmethod
    def _swap(a, b, n=17):
        images = list(range(1, n + 1))
        images[a - 1], images[b - 1] = b, a
        return PermutationUnitary(one_line_permutation(images))

    def test_a_row_adds_the_blanks_a_column_adds(self):
        # the infinite factor's blank at (1, 2) is nan, and column 1 of
        # I + swap(1, 2) names the middle index 2 too
        U = PermutationUnitary(identity_permutation())
        T = Product(Scale(math.inf, U), Sum((U, self._swap(1, 2))))
        want = "[(1, nan), (2, nan)]"
        assert repr(_scan(T, 0, 1)) == repr(_scan(T, 1, 1)) == want
        assert repr(entry(T, 1, 2)) == "nan"
        # in a 3 x 3 corner, too, where the middle index 5 leads to no kept row
        T = Product(Scale(math.inf, U), Sum((Diagonal(ConstantRule(1)), self._swap(1, 5))))
        assert repr(op_algebra.corner_entries(T, 3)[0, 0]) == "nan"

    def test_a_row_sums_in_the_order_a_column_does(self):
        # entry (1, 1) adds 0.1, 0.2 and 0.3 over the middle indices 1, 9 and
        # 17, in the set order of the right column, which names them as 17, 9, 1
        U = PermutationUnitary(identity_permutation())
        left = Sum((Scale(0.1, U), Scale(0.2, self._swap(1, 9)), Scale(0.3, self._swap(1, 17))))
        T = Product(left, Sum((self._swap(1, 17), self._swap(1, 9), U)))
        assert (0.3 + 0.2) + 0.1 != (0.1 + 0.2) + 0.3
        assert _scan(T, 0, 1)[0] == (1, 0.6) == (1, (0.3 + 0.2) + 0.1)
        assert repr(_scan(T, 1, 1)) == "[(1, 0.6), (9, 0.5), (17, 0.7)]"


    def test_a_corner_evaluates_only_the_rule_values_its_entries_need(self):
        from schauderspec.sequences import CallableRule
        seen = []
        # column 1 goes to row 4, out of the 3 x 3 corner
        P = PermutationUnitary(one_line_permutation([4, 1, 2, 3]))
        op_algebra.corner_entries(Product(P, Diagonal(CallableRule(
            lambda n: seen.append(n) or Fraction(1, n)))), 3)
        assert sorted(seen) == [2, 3]
        # a zero right value skips its left partner
        seen.clear()
        L = Diagonal(CallableRule(lambda n: seen.append(n) or 1))
        op_algebra.corner_entries(Product(L, Diagonal(ExplicitThenRule((0, 5), ConstantRule(1)))), 2)
        assert seen == [2]


def _double_loop_line(S, g, axis, keep=None):
    """A sum's line the plain way: every named index tests every term, which
    adds its value there, else its own blank if it has one."""
    lines = [(t.line(g, axis, keep), type(t).blank is not op_algebra.OperatorExpr.blank, t)
             for t in S.terms]
    out = {x: 0 for line, _, _ in lines for x in line}
    for x in out:
        total = 0
        for line, own, t in lines:
            if x in line:
                total = op_algebra._plus(total, line[x])
            elif own:
                total = op_algebra._plus(total, t.blank(*((g, x) if axis else (x, g))))
        out[x] = total
    return out


@st.composite
def mixed_sums(draw):
    """Sums over spreads (hitting lines 0, 1 or more times), weighted
    diagonals, permutations, scaled terms and nested sums, so that terms
    with and without a blank of their own interleave and values carry
    signed zeros, complex parts and infinite scalars."""
    def term():
        kind = draw(st.sampled_from(["spread", "sum-spread", "leaf", "scale", "sum"]))
        if kind == "spread":
            return draw(leaf_exprs().filter(lambda t: isinstance(t, Spread)))
        if kind == "sum-spread":
            return draw(st.sampled_from(draw(spread_sums()).terms))
        if kind == "leaf":
            return draw(weighted_leaves())
        if kind == "scale":
            return Scale(draw(SCALARS | WEIGHTS), draw(weighted_leaves()))
        return Sum((draw(weighted_leaves()), Scale(draw(SCALARS), draw(weighted_leaves()))))

    return Sum(tuple(term() for _ in range(draw(st.integers(1, 4)))))


class TestSumLines:
    @given(mixed_sums(), st.integers(1, 8), st.sampled_from([None, 3, 6]))
    @settings(max_examples=300, deadline=None)
    def test_term_by_term_fold_matches_the_double_loop(self, S, g, top):
        keep = None if top is None else (lambda x: x <= top)
        for axis in (0, 1):
            # same keys in the same order, same values, types and signed zeros
            assert repr(list(S.line(g, axis, keep).items())) == repr(
                list(_double_loop_line(S, g, axis, keep).items()))

    def test_an_index_named_later_first_adds_the_blanks_before_it(self):
        # column 1: the spread names row 2 only after the scaled identity,
        # whose blank there is 0.5 * 0 = 0.0, so row 2 reads 0.0 + 1
        U = PermutationUnitary(identity_permutation())
        S = Sum((Scale(0.5, U), Spread(SpreadSpec(naturals(), ArithmeticSequence(2, 1)))))
        assert repr(S.line(1, 0)) == "{1: 0.5, 2: 1.0}" == repr(_double_loop_line(S, 1, 0))


class TestArithmeticShortcuts:
    # 1 * x and 0 + x are skipped only for ints and Fractions; anything else
    # goes through the arithmetic, which may change its bits
    @pytest.mark.parametrize("weight, want", [
        (-0.0, "0"),  # a zero factor skips its partner: the int 0
        (complex(1.0, math.inf), "(nan+infj)"),  # 1 * (1+infj) has a nan part
        (complex(-0.0, 2.0), "2j"),  # 0 + (-0+2j) is 2j
        (Fraction(3, 4), "Fraction(3, 4)"),
    ])
    def test_product_entry_keeps_the_arithmetic(self, weight, want):
        T = Product(PermutationUnitary(sigma_bilateral()), Diagonal(ConstantRule(weight)))
        corner = op_algebra.corner_entries(T, 3)
        assert [key for key in corner if key[1] == 0] == [(2, 0)]
        assert repr(corner[2, 0]) == repr(entry(T, 3, 1)) == want

    @pytest.mark.parametrize("scalar, want", [
        (-0.0, "0.0"),  # 0 + -0.0 is 0.0
        (2.0, "2.0"),
        (complex(0.0, math.inf), "infj"),  # 0 + infj keeps no -0 part
        (Fraction(1, 2), "Fraction(1, 2)"),
    ])
    def test_sum_entry_keeps_the_arithmetic(self, scalar, want):
        U = PermutationUnitary(identity_permutation())
        D = Diagonal(ConstantRule(scalar))
        assert repr(entry(Sum((D, Scale(0, U))), 1, 1)) == want
        # a term that does not name the position adds its blank: 1 + (1/2) * 0
        assert repr(entry(Sum((U, Scale(Fraction(1, 2), Spread(
            SpreadSpec(naturals(), ArithmeticSequence(2, 1)))))), 1, 1)) == "Fraction(1, 1)"

    @pytest.mark.parametrize("scale", [0, 1, -1, 7, -12, Fraction(0), Fraction(1, 10),
                                       Fraction(-3, 4), Fraction(5, 1)])
    @pytest.mark.parametrize("exponent", [0, 1, 2, 5])
    def test_power_law_value_and_type(self, scale, exponent):
        rule = PowerLawRule(scale, exponent)
        for n in (1, 2, 3, 10, 97):
            want = scale * Fraction(1, n ** exponent)
            got = rule.value(n)
            assert type(got) is type(want) is Fraction and got == want
