import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schauderspec import (
    INFINITE,
    EmptyInputError,
    MultiplicityList,
    cycles_and_chains,
    decompose_into_spreads,
    deinterleave,
    expand_multiplicities,
    identity_permutation,
    interleave_z,
    one_line_permutation,
    sigma_bilateral,
    z_translation_permutation,
)
from schauderspec.index_maps import (
    SpreadSpec,
    compose_permutations,
    inverse_permutation,
    orbit_structure,
    partition_fault,
    single_orbit,
)
from schauderspec.op_algebra import Spread, Sum, _structural_shift
from schauderspec.sequences import ArithmeticSequence, ExplicitPrefixSequence, evens, odds


class TestSigmaBilateral:
    def test_named_values(self):
        s = sigma_bilateral()
        assert s.forward(2) == 1
        assert s.forward(3) == 5  # odd rule with n=2
        assert s.forward(4) == 2  # even rule with n=2

    def test_even_odd_rules(self):
        s = sigma_bilateral()
        for n in range(2, 200):
            assert s.forward(2 * n) == 2 * (n - 1)
        for n in range(1, 200):
            assert s.forward(2 * n - 1) == 2 * n + 1

    @given(st.integers(min_value=1, max_value=10_000))
    def test_inverse_roundtrip(self, k):
        s = sigma_bilateral()
        assert s.inverse(s.forward(k)) == k
        assert s.forward(s.inverse(k)) == k

    def test_window_injectivity(self):
        s = sigma_bilateral()
        images = [s.forward(k) for k in range(1, 2_001)]
        assert min(images) >= 1 and len(set(images)) == len(images)
        assert all(s.inverse(v) == k for k, v in enumerate(images, 1))
        assert all(s.forward(s.inverse(k)) == k for k in range(1, 2_001))

    def test_is_z_translation_plus_one(self):
        s, z = sigma_bilateral(), z_translation_permutation(1)
        assert (s.shift, s.moves, s.maps) == (z.shift, z.moves, z.maps) == (1, (), None)
        assert all(s.forward(k) == z.forward(k) and s.inverse(k) == z.inverse(k)
                   for k in range(1, 20_001))


class TestInterleave:
    def test_paper_assignments(self):
        # negative indices to evens, nonnegative to odds; the would-be
        # double assignment at 0 resolves to the odd side
        assert interleave_z(0) == 1
        assert interleave_z(-1) == 2
        assert interleave_z(1) == 3

    def test_bijection_by_exhaustion(self):
        image = {interleave_z(j) for j in range(-10_000, 10_001)}
        assert image == set(range(1, 2 * 10_000 + 2))

    @given(st.integers(min_value=-10_000, max_value=10_000))
    def test_two_sided_inverse(self, j):
        assert deinterleave(interleave_z(j)) == j

    @given(st.integers(min_value=1, max_value=50_000))
    def test_inverse_other_side(self, n):
        assert interleave_z(deinterleave(n)) == n


class TestZTranslation:
    @given(st.integers(min_value=-3, max_value=3),
           st.integers(min_value=1, max_value=5_000))
    def test_roundtrip(self, step, k):
        p = z_translation_permutation(step)
        assert p.inverse(p.forward(k)) == k


def _orbit_of_one(p, steps):
    """Indices the orbit of 1 visits within ``steps`` steps each way."""
    seen, f, b = {1}, 1, 1
    for _ in range(steps):
        f, b = p.forward(f), p.inverse(b)
        seen.update((f, b))
    return seen


SWAP = one_line_permutation([2, 1])
SINGLE_ORBIT = [sigma_bilateral(), z_translation_permutation(1),
                z_translation_permutation(-1)]
SINGLE_ORBIT += [inverse_permutation(p) for p in SINGLE_ORBIT]
MULTI_ORBIT = [
    identity_permutation(), z_translation_permutation(2),
    z_translation_permutation(-3), SWAP,
    compose_permutations(sigma_bilateral(), SWAP),
    inverse_permutation(compose_permutations(SWAP, z_translation_permutation(1))),
]


class TestSingleOrbit:
    @pytest.mark.parametrize("p", SINGLE_ORBIT, ids=repr)
    def test_accepted_orbit_of_one_is_everything(self, p):
        # brute force: within W steps each way the orbit covers [1..W]
        assert single_orbit(p)
        for window in (1, 2, 17, 400):
            assert set(range(1, window + 1)) <= _orbit_of_one(p, window)

    @pytest.mark.parametrize("p", MULTI_ORBIT, ids=repr)
    def test_rejected_constructions_have_other_orbits(self, p):
        assert not single_orbit(p)
        # these really have more than one orbit: each leaves a small index
        # out of the orbit of 1, however far it is walked
        assert not set(range(1, 5)) <= _orbit_of_one(p, 400)

    def test_identity_factors_drop_and_double_inverses_unwrap(self):
        ident, sigma = identity_permutation(), sigma_bilateral()
        assert compose_permutations(ident, sigma) is sigma
        assert compose_permutations(sigma, ident) is sigma
        assert inverse_permutation(ident) is ident
        assert inverse_permutation(inverse_permutation(sigma)) == sigma
        both = compose_permutations(sigma, SWAP)
        # sigma o (1 2) is translation by 1 after swapping 0 and -1 on Z
        assert (both.shift, both.moves, both.maps) == (1, ((-1, 0), (0, -1)), None)
        assert both.description == "sigma-bilateral o one-line(2)"
        assert [both.forward(k) for k in range(1, 6)] == [1, 3, 5, 2, 7]
        back = inverse_permutation(both)
        assert back.description == "inverse of (sigma-bilateral o one-line(2))"
        assert (back.shift, back.moves) == (-1, ((0, 1), (1, 0)))
        assert all(back.forward(both.forward(k)) == k for k in range(1, 50))
        assert all(both.inverse(k) == back.forward(k) for k in range(1, 50))
        assert inverse_permutation(back).description == both.description
        assert inverse_permutation(back).moves == both.moves

    def test_inverse_descriptions_name_their_factors(self):
        sigma, inv = sigma_bilateral(), inverse_permutation
        a = compose_permutations(inv(sigma), SWAP)
        b = inv(compose_permutations(sigma, SWAP))
        c = compose_permutations(b, inv(compose_permutations(SWAP, sigma)))
        assert [p.description for p in (a, b, c)] == [
            "inverse of sigma-bilateral o one-line(2)",
            "inverse of (sigma-bilateral o one-line(2))",
            "inverse of (sigma-bilateral o one-line(2)) o "
            "inverse of (one-line(2) o sigma-bilateral)"]
        assert inv(a).description == f"inverse of ({a.description})"
        assert inv(b).description == "sigma-bilateral o one-line(2)"
        assert inv(c).description == f"inverse of ({c.description})"
        for p in (a, b, c):
            assert inv(inv(p)).description == p.description

    @pytest.mark.parametrize("p, q", [
        (z_translation_permutation(1), z_translation_permutation(-1)),
        (SWAP, SWAP),
        (sigma_bilateral(), inverse_permutation(z_translation_permutation(1))),
        (z_translation_permutation(10**12), z_translation_permutation(-10**12)),
        (one_line_permutation([1, 2, 3]), identity_permutation()),
    ], ids=repr)
    def test_cancelling_compositions_are_the_identity(self, p, q):
        assert compose_permutations(p, q).is_identity
        assert compose_permutations(p, q).tag == ("identity",)

    def test_opaque_permutations_keep_their_maps(self):
        # the odds onto the evens plus the evens onto the odds swaps 2k - 1
        # and 2k; the sum of spreads is a permutation held by its maps
        swaps = _structural_shift(Sum((Spread(SpreadSpec(odds(), evens())),
                                       Spread(SpreadSpec(evens(), odds()))))).perm
        assert swaps.maps is not None and swaps.tag != ("identity",)
        assert orbit_structure(swaps) is None and not single_orbit(swaps)
        assert [swaps.forward(k) for k in range(1, 7)] == [2, 1, 4, 3, 6, 5]
        both = compose_permutations(swaps, SWAP)
        assert both.maps is not None
        assert [both.forward(k) for k in range(1, 7)] == [swaps.forward(k) for k in (2, 1, 3, 4, 5, 6)]
        assert all(inverse_permutation(both).forward(both.forward(k)) == k
                   for k in range(1, 50))
        assert inverse_permutation(inverse_permutation(swaps)).maps == swaps.maps

    def test_huge_translation_is_held_in_constant_space(self):
        tracemalloc.start()
        try:
            far = z_translation_permutation(10**12)
            both = compose_permutations(SWAP, compose_permutations(far, SWAP))
            back = inverse_permutation(both)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16_384
        assert (far.shift, far.moves) == (10**12, ())
        assert len(both.moves) == 4 and orbit_structure(both) == (10**12, ())
        assert far.forward(1) == 2 * 10**12 + 1 and far.inverse(2 * 10**12 + 1) == 1
        assert far.forward(2) == 2 * 10**12 - 1 and far.forward(2 * 10**12 + 2) == 2
        assert all(back.forward(both.forward(k)) == k for k in (1, 2, 3, 10**12, 4 * 10**12))

    def test_reproducer_structure(self):
        images = list(range(1, 104))
        images[100], images[102] = 103, 101
        p = compose_permutations(sigma_bilateral(), one_line_permutation(images))
        assert (p.shift, p.moves) == (1, ((50, 51), (51, 50)))
        assert orbit_structure(p) == (1, ((103,),))
        # tau_2 after the swap of 0 and 6 on Z: 6 -> 2 -> 4 -> 6 passes two
        # points the swap does not move, and 0 -> 8 -> 10 -> ... leaves
        q = compose_permutations(z_translation_permutation(2), one_line_permutation(
            [13, *range(2, 13), 1]))
        assert orbit_structure(q) == (2, ((5, 9, 13),))
        assert orbit_structure(z_translation_permutation(-3)) == (3, ())
        assert orbit_structure(SWAP) == (0, ((1, 2),))


def brute_orbits(p, window):
    """(chains, cycles) of ``p`` on [1..window] by walking every index.

    A chain is a maximal walk that leaves the window; when the window is
    much wider than the moved indices, each infinite orbit crosses it in
    exactly one chain.
    """
    succ = {k: p.forward(k) for k in range(1, window + 1)}
    heads = set(succ) - set(succ.values())
    seen, chains, cycles = set(), 0, []
    for k in sorted(heads):
        chains += 1
        while k in succ and k not in seen:
            seen.add(k)
            k = succ[k]
    for k in range(1, window + 1):
        if k not in seen:
            cycle = [k]
            while succ[cycle[-1]] != k:
                cycle.append(succ[cycle[-1]])
            seen.update(cycle)
            cycles.append(tuple(cycle))
    return chains, tuple(sorted(cycles))


@st.composite
def perturbed_translations(draw):
    """sigma or z-translation(k), k in [-3, 3], composed in either order,
    possibly inverted, with a one-line permutation moving some index past 16."""
    k = draw(st.integers(-3, 3))
    base = draw(st.sampled_from([sigma_bilateral(), z_translation_permutation(k)]))
    n = draw(st.integers(17, 40))
    images = draw(st.permutations(list(range(1, n + 1))).filter(
        lambda im: any(im[j] != j + 1 for j in range(16, n))))
    other = one_line_permutation(images)
    if draw(st.booleans()):
        base = inverse_permutation(base)
    if draw(st.booleans()):
        other = inverse_permutation(other)
    p, q = (base, other) if draw(st.booleans()) else (other, base)
    return compose_permutations(p, q)


class TestOrbitOracle:
    @settings(max_examples=300, deadline=None)
    @given(p=perturbed_translations())
    def test_structure_matches_brute_force(self, p):
        # the moved points lie in [1..86]; 400 is wide enough for every
        # infinite orbit to cross it once and every finite cycle to fit
        count, cycles = orbit_structure(p)
        chains, brute_cycles = brute_orbits(p, 400)
        if count:
            assert (count, cycles) == (chains, brute_cycles)
        else:  # no infinite orbit: the cycles of the moved points, rest fixed
            assert all(len(c) > 1 for c in cycles)
            assert cycles == tuple(c for c in brute_cycles if len(c) > 1)
        assert single_orbit(p) == ((chains, brute_cycles) == (1, ()))


def _index_set(finite, run):
    """The index sequence of ``finite`` terms then the progression ``run``."""
    tail = run and ArithmeticSequence(*run)
    return ExplicitPrefixSequence(tuple(finite), tail) if finite else tail


@st.composite
def index_set_families(draw):
    """Up to four sets of finite terms and progressions drawn at random, or
    an exact residue-class partition of N, as drawn or perturbed once."""
    if draw(st.booleans()):
        sets = []
        for _ in range(draw(st.integers(1, 4))):
            finite = sorted(draw(st.sets(st.integers(1, 30), max_size=3)))
            run = draw(st.none() | st.tuples(st.integers(1, 30), st.integers(1, 8)))
            if run is not None:
                run = (max(run[0], max(finite, default=0) + 1), run[1])
            if finite or run:
                sets.append((finite, run))
        return [_index_set(*s) for s in sets or [((1,), None)]]
    modulus = draw(st.integers(1, 6))
    runs = []
    for r in range(1, modulus + 1):  # class r mod m, whole or split in k
        k = draw(st.sampled_from([1, 1, 2, 3]))
        runs += [(r + j * modulus, k * modulus) for j in range(k)]
    # a set may hold the first terms of its class as finite terms
    sets = []
    for a, d in runs:
        held = draw(st.integers(0, 2))
        sets.append(([a + d * i for i in range(held)], (a + d * held, d)))
    change = draw(st.sampled_from(["none", "drop", "add", "step", "twice"]))
    i = draw(st.integers(0, len(sets) - 1))
    finite, (a, d) = sets[i]
    if change == "drop":  # a class loses its first term
        sets[i] = (finite[1:], (a, d)) if finite else (finite, (a + d, d))
    elif change == "add":  # a finite set holds an index another set holds
        sets.append(([draw(st.integers(1, 40))], None))
    elif change == "step":
        sets[i] = (finite, (a, d + draw(st.integers(1, 3))))
    elif change == "twice":
        sets.append(sets[i])
    return [_index_set(*s) for s in sets]


class TestPartitionFault:
    @settings(max_examples=400, deadline=None)
    @given(sets=index_set_families())
    def test_matches_a_brute_force_scan(self, sets):
        # past the largest term or start membership repeats with the lcm of
        # the steps, so a scan of two periods past it sees every fault
        forms = [s.progression() for s in sets]
        runs = [run for _, run in forms if run]
        top = max([v for terms, _ in forms for v in terms] + [a for a, _ in runs])
        want = None
        for g in range(1, top + 2 * math.lcm(*(d for _, d in runs)) + 40):
            holders = tuple(i for i, s in enumerate(sets) if s.position_of(g) is not None)
            if len(holders) != 1:
                want = g, holders
                break
        assert partition_fault(forms) == want

    def test_faults_far_past_any_scan(self):
        # dyadic classes 2^(k-1) || n for k = 1..17 and the multiples of 2^17
        # repeat only after 131 072 indices, and partition N
        dyadic = [((), (1 << (k - 1), 1 << k)) for k in range(1, 18)]
        assert partition_fault(dyadic + [((), (1 << 17, 1 << 17))]) is None
        assert partition_fault(dyadic) == (1 << 17, ())
        # steps near 10**12 leave 3 out; a start at 10**30 is shared
        assert partition_fault([((), (1, 10**12)), ((), (2, 10**12 + 1))]) == (3, ())
        assert partition_fault([((), (1, 1)), ((), (10**30, 7))]) == (10**30, (0, 1))


def _reassemble(spreads, window):
    pairs = set()
    for sp in spreads:
        k = 1
        while True:
            ln = sp.domain.length()
            if ln is not None and k > ln:
                break
            a = sp.domain.elem(k)
            if a > window:
                break
            pairs.add((a, sp.image.elem(k)))
            k += 1
    return pairs


class TestDecomposeIntoSpreads:
    def test_sigma_two_spreads(self):
        spreads = decompose_into_spreads(sigma_bilateral(), 256)
        assert len(spreads) == 2
        odd, even = spreads
        assert odd.domain.elems(4) == [1, 3, 5, 7]
        assert odd.image.elems(4) == [3, 5, 7, 9]
        assert even.domain.elems(4) == [2, 4, 6, 8]
        assert even.image.elems(4) == [1, 2, 4, 6]

    def test_sigma_reassembly(self):
        s = sigma_bilateral()
        pairs = _reassemble(decompose_into_spreads(s, 256), 256)
        assert pairs == {(a, s.forward(a)) for a in range(1, 257)}

    def test_identity_single_spread(self):
        spreads = decompose_into_spreads(identity_permutation(), 64)
        assert len(spreads) == 1
        assert spreads[0].domain.elems(5) == [1, 2, 3, 4, 5]
        assert spreads[0].image.elems(5) == [1, 2, 3, 4, 5]

    def test_random_permutations_reassemble(self):
        rng = random.Random(20260810)
        for _ in range(25):
            images = list(range(1, 11))
            rng.shuffle(images)
            p = one_line_permutation(images)
            window = 16  # explicit part plus identity continuation
            spreads = decompose_into_spreads(p, window)
            assert _reassemble(spreads, window) == {
                (a, p.forward(a)) for a in range(1, window + 1)
            }

    @given(st.permutations(list(range(1, 9))))
    @settings(max_examples=60)
    def test_pieces_strictly_increasing(self, images):
        spreads = decompose_into_spreads(one_line_permutation(images), 12)
        for sp in spreads:
            n = sp.domain.length() or 12  # the identity is one infinite spread
            dom = sp.domain.elems(n)
            img = sp.image.elems(n)
            assert all(a < b for a, b in zip(dom, dom[1:]))
            assert all(a < b for a, b in zip(img, img[1:]))

    def test_domains_partition_window(self):
        rng = random.Random(7)
        images = list(range(1, 13))
        rng.shuffle(images)
        spreads = decompose_into_spreads(one_line_permutation(images), 12)
        seen = []
        for sp in spreads:
            seen.extend(sp.domain.elems(sp.domain.length()))
        assert sorted(seen) == list(range(1, 13))


@st.composite
def partial_injections(draw):
    """Nodes in a random order and an injective successor map on some of them.

    Successors may fall outside the nodes, so walks can leave the set.
    """
    universe = draw(st.integers(1, 30))
    nodes = draw(st.permutations(range(universe)))
    nodes = nodes[:draw(st.integers(0, universe))]
    sources = draw(st.lists(st.sampled_from(range(universe)), unique=True))
    targets = draw(st.permutations(range(universe + 5)))
    return nodes, dict(zip(sources, targets))


def _brute_cycle(nodes, succ, a):
    """The cycle through ``a`` inside ``nodes``, found by walking, or None."""
    members, orbit, b = set(nodes), [a], succ.get(a)
    for _ in range(len(nodes)):
        if b == a:
            return set(orbit)
        if b not in members:
            return None
        orbit.append(b)
        b = succ.get(b)
    return None


class TestCyclesAndChains:
    @settings(max_examples=300, deadline=None)
    @given(partial_injections())
    def test_against_brute_force(self, case):
        nodes, succ = case
        members = set(nodes)
        cycles, chains = cycles_and_chains(nodes, succ)
        walked = [a for part in cycles + chains for a in part]
        assert sorted(walked) == sorted(nodes)
        position = {a: k for k, a in enumerate(nodes)}
        for cycle in cycles:
            assert set(cycle) == _brute_cycle(nodes, succ, cycle[0])
            assert [succ[a] for a in cycle] == list(cycle[1:] + cycle[:1])
            assert cycle[0] == min(cycle, key=position.get)
        for chain in chains:
            assert _brute_cycle(nodes, succ, chain[0]) is None
            assert [succ[a] for a in chain[:-1]] == list(chain[1:])
            assert succ.get(chain[-1]) not in members
            assert all(succ.get(a) != chain[0] for a in nodes)
        for part in (cycles, chains):
            heads = [position[p[0]] for p in part]
            assert heads == sorted(heads)

    def test_permutations_on_a_window(self):
        window = range(1, 8)
        p = one_line_permutation([2, 3, 1, 5, 4, 6])
        cycles, chains = cycles_and_chains(window, {k: p.forward(k) for k in window})
        assert cycles == [(1, 2, 3), (4, 5), (6,), (7,)]
        assert chains == []
        s = sigma_bilateral()  # one infinite orbit: a single chain
        cycles, chains = cycles_and_chains(window, {k: s.forward(k) for k in window})
        assert cycles == []
        assert chains == [(6, 4, 2, 1, 3, 5, 7)]  # 7 -> 9 leaves the window

    def test_shared_successor_rejected(self):
        with pytest.raises(ValueError, match="share the successor 3"):
            cycles_and_chains(range(5), {0: 3, 1: 3})


class TestExpandMultiplicities:
    def test_plain_expansion(self):
        m = MultiplicityList(((3, 1), (2, 2), (1, 1)))
        out = expand_multiplicities(m)
        assert out.finite_prefix == (3, 2, 2, 1)
        assert out.infinite_values == ()

    def test_all_simple_unchanged(self):
        from fractions import Fraction

        m = MultiplicityList(tuple((Fraction(1, k), 1) for k in range(1, 7)))
        out = expand_multiplicities(m)
        assert out.finite_prefix == tuple(Fraction(1, k) for k in range(1, 7))

    def test_infinite_split(self):
        m = MultiplicityList(((5, INFINITE), (2, 3)))
        out = expand_multiplicities(m)
        assert out.finite_prefix == (2, 2, 2)
        assert out.infinite_values == (5,)

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            expand_multiplicities(MultiplicityList(()))

    def test_duplicate_values_rejected(self):
        with pytest.raises(ValueError):
            MultiplicityList(((1, 2), (1, 1)))

    def test_merged_rule_orders_decreasingly(self):
        from fractions import Fraction

        from schauderspec import OffsetRule, PowerLawRule

        m = MultiplicityList(
            tuple((Fraction(1, k), 2) for k in range(1, 6)),
            tail=OffsetRule(PowerLawRule(Fraction(1), 1), 5),
        )
        rule = expand_multiplicities(m).merged_rule()
        vals = rule.values(14)
        assert vals[:4] == [1, 1, Fraction(1, 2), Fraction(1, 2)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert vals[10] == Fraction(1, 6)


class TestIndexSequences:
    def test_arithmetic_membership(self):
        seq = ArithmeticSequence(3, 2)
        assert seq.position_of(3) == 1
        assert seq.position_of(9) == 4
        assert seq.position_of(4) is None
        assert seq.position_of(1) is None

    def test_prefix_then_rule(self):
        seq = ExplicitPrefixSequence((1,), ArithmeticSequence(2, 2))
        assert seq.elems(5) == [1, 2, 4, 6, 8]
        assert seq.position_of(6) == 4
        assert seq.position_of(3) is None

    def test_prefix_must_increase(self):
        with pytest.raises(ValueError):
            ExplicitPrefixSequence((2, 2))
        with pytest.raises(ValueError):
            ExplicitPrefixSequence((3,), ArithmeticSequence(2, 1))
