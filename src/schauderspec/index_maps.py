"""Bijections of N, spreads, and multiplicity bookkeeping.

A permutation is data, a translation of Z after a finitely supported
permutation, whose orbits are decided exactly.  A spread moves the basis
vectors indexed by one increasing set onto those indexed by another;
permutation unitaries decompose greedily into spreads with increasing
pieces, each pair ``(a, p(a))`` joining the first spread whose last pair
it dominates in both coordinates.
"""

from __future__ import annotations

import bisect
import math
from itertools import accumulate
from typing import Callable, Iterable, Mapping, Optional, Sequence, Tuple, Union

from .errors import EmptyInputError
from .records import record
from .sequences import (
    ArithmeticSequence,
    ExplicitPrefixSequence,
    IndexSequence,
    Scalar,
    ScalarRule,
    _abs_exact,
    evens,
    naturals,
    odds,
)


def interleave_z(j: int) -> int:
    """Bijection Z -> N: nonnegative j to odd 2j+1, negative j to even 2|j|."""
    return 2 * j + 1 if j >= 0 else -2 * j


def deinterleave(n: int) -> int:
    """Two-sided inverse of :func:`interleave_z`."""
    if n < 1:
        raise ValueError("index must be >= 1")
    return (n - 1) // 2 if n % 2 else -(n // 2)


@record
class Permutation:
    """A bijection of N, held as data where it can be.

    Without ``maps`` it is ``tau_shift o f`` on Z, read through
    :func:`interleave_z`: a translation by ``shift`` after the permutation
    ``f`` of Z whose moved points are ``moves``, sorted pairs ``(j, f(j))``.
    Every permutation a document builds has this form.  With ``maps =
    (forward, inverse)`` it is opaque: it composes by closure and has no
    orbit structure.
    """

    shift: int
    moves: tuple
    description: str
    maps: Optional[tuple] = None

    def __post_init__(self):
        f = dict(self.moves)
        _set = object.__setattr__
        _set(self, "_f", f)
        _set(self, "_f_inverse", {v: j for j, v in self.moves})
        # past the bound p is tau_shift alone: odd k -> k + 2s, even k -> k - 2s
        largest = max(map(interleave_z, f), default=0)
        _set(self, "_bound", math.inf if self.maps else 2 * abs(self.shift) + largest)
        _set(self, "_step", 2 * self.shift)

    def forward(self, k: int) -> int:
        if k > self._bound:
            return k + self._step if k & 1 else k - self._step
        if k < 1:
            raise ValueError("permutation argument must be >= 1")
        if self.maps:
            return self.maps[0](k)
        j = deinterleave(k)
        return interleave_z(self._f.get(j, j) + self.shift)

    def inverse(self, k: int) -> int:
        if k > self._bound:
            return k - self._step if k & 1 else k + self._step
        if k < 1:
            raise ValueError("permutation argument must be >= 1")
        if self.maps:
            return self.maps[1](k)
        j = deinterleave(k) - self.shift
        return interleave_z(self._f_inverse.get(j, j))

    @property
    def is_identity(self) -> bool:
        return not (self.shift or self.moves or self.maps)

    @property
    def tag(self) -> tuple:  # ("identity",) exactly for the identity
        return ("identity",) if self.is_identity else (self.shift, self.moves, self.maps)

    def __repr__(self):
        return f"Permutation({self.description})"


def _normal_form(shift: int, f: Mapping[int, int], description: str) -> Permutation:
    moves = tuple(sorted((j, v) for j, v in f.items() if j != v))
    return Permutation(shift, moves, description) if shift or moves else identity_permutation()


def opaque_permutation(forward: Callable[[int], int], inverse: Callable[[int], int],
                       description: str) -> Permutation:
    return Permutation(0, (), description, (forward, inverse))


def identity_permutation() -> Permutation:
    return Permutation(0, (), "identity")


def sigma_bilateral() -> Permutation:
    """2 -> 1, 2n -> 2(n-1), 2n-1 -> 2n+1: as a bijection, z-translation(+1)."""
    return Permutation(1, (), "sigma-bilateral")


def z_translation_permutation(step: int) -> Permutation:
    """Translation j -> j + step on Z, conjugated to N by interleaving."""
    return _normal_form(step, {}, f"z-translation({step:+d})")


def one_line_permutation(images: Sequence[int]) -> Permutation:
    """Permutation of [1..n] given in one-line notation, identity beyond n."""
    images = tuple(int(v) for v in images)
    n = len(images)
    if sorted(images) != list(range(1, n + 1)):
        raise ValueError("images must be a rearrangement of 1..n")
    f = {deinterleave(k): deinterleave(v) for k, v in enumerate(images, 1)}
    return _normal_form(0, f, f"one-line({n})")


def compose_permutations(p: Permutation, q: Permutation) -> Permutation:
    """``p o q`` (``q`` first), dropping an identity factor:
    ``tau_a f o tau_b g = tau_(a+b) (tau_-b f tau_b) g``."""
    if q.is_identity or p.is_identity:
        return p if q.is_identity else q
    description = f"{p.description} o {q.description}"
    if p.maps or q.maps:
        return opaque_permutation(lambda k: p.forward(q.forward(k)),
                                  lambda k: q.inverse(p.inverse(k)), description)
    b, g = q.shift, q._f
    f = {j - b: v - b for j, v in p.moves}
    h = {j: f.get(g.get(j, j), g.get(j, j)) for j in f.keys() | g.keys()}
    return _normal_form(p.shift + b, h, description)


def _inverse_text(d: str) -> str:
    """``inverse of d``, parenthesized if ``d`` is composed; a double inverse unwraps."""
    rest = d[11:] if d.startswith("inverse of ") else ""
    if rest and " o " not in rest:
        return rest
    depths = list(accumulate((c == "(") - (c == ")") for c in rest))
    if rest[:1] == "(" and depths[-1] == 0 and 0 not in depths[:-1]:
        return rest[1:-1]  # its first parenthesis closes last
    return f"inverse of ({d})" if " o " in d else "inverse of " + d


def inverse_permutation(p: Permutation) -> Permutation:
    """``p^-1``: ``(tau_s f)^-1 = tau_-s (tau_s f^-1 tau_-s)``; a double
    inverse keeps its description."""
    if p.is_identity:
        return p
    d = _inverse_text(p.description)
    if p.maps:
        return opaque_permutation(p.maps[1], p.maps[0], d)
    s = p.shift
    return Permutation(-s, tuple(sorted((v + s, j + s) for j, v in p.moves)), d)


def orbit_structure(p: Permutation) -> Optional[Tuple[int, tuple]]:
    """``(infinite orbits, finite cycles)`` of ``p``, ``None`` when opaque.

    ``tau_s f`` has ``|s|`` infinite orbits, and with ``s != 0`` each finite
    cycle meets a moved point; a walk jumps along the residue class mod
    ``s`` from one moved point to the next.  With ``s = 0`` every index
    that ``f`` does not move is fixed besides.  Cycles (of N) are sorted.
    """
    if p.maps:
        return None
    s, f = p.shift, p._f
    succ = dict(f)  # moved point -> the next moved point on its orbit
    if s:
        sign, ahead = (-1 if s < 0 else 1), {}  # residue mod s -> moved points, as walked
        for u in sorted(j * sign for j in f):
            ahead.setdefault(u * sign % s, []).append(u)
        for j, v in f.items():
            row = ahead.get((v + s) % s, ())
            i = bisect.bisect_left(row, (v + s) * sign)
            if i < len(row):
                succ[j] = row[i] * sign
            else:
                del succ[j]  # the orbit leaves every moved point behind
    cycles = []
    for cycle in cycles_and_chains(f, succ)[0]:
        members = []
        for j in cycle:  # j, then the run f(j) + s, f(j) + 2s, ... before the next
            members += map(interleave_z, (j, *(range(f[j] + s, succ[j], s) if s else ())))
        least = members.index(min(members))
        cycles.append(tuple(members[least:] + members[:least]))
    return abs(s), tuple(sorted(cycles))


def single_orbit(p: Permutation) -> bool:
    """Whether the orbit of 1 is all of N: one infinite orbit, no finite cycle."""
    return orbit_structure(p) == (1, ())


@record
class SpreadSpec:
    """The spread from ``domain`` to ``image``: e_{a_k} -> e_{b_k}."""

    domain: IndexSequence
    image: IndexSequence

    def __post_init__(self):
        dl, il = self.domain.length(), self.image.length()
        if dl is not None and il is not None and dl != il:
            raise ValueError("domain and image lengths differ")


def _greedy_spreads(pairs: Iterable[Tuple[int, int]]) -> list:
    piles: list = []
    for a, b in pairs:
        for pile in piles:
            la, lb = pile[-1]
            if a > la and b > lb:
                pile.append((a, b))
                break
        else:
            piles.append([(a, b)])
    return piles


def decompose_into_spreads(p: Permutation, window: int) -> list:
    """Split ``p`` restricted to [1..window] into spreads with increasing pieces.

    Named constructions return their closed-form spreads (rule-based
    continuations); anything else returns explicit finite pieces whose
    pairwise union reproduces ``p`` on the window.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if p.is_identity:
        return [SpreadSpec(naturals(), naturals())]
    if (p.shift, p.moves, p.maps) == (1, (), None):  # sigma, z-translation(+1)
        return [
            SpreadSpec(odds(), ArithmeticSequence(3, 2)),
            SpreadSpec(evens(), ExplicitPrefixSequence((1,), ArithmeticSequence(2, 2))),
        ]
    piles = _greedy_spreads((a, p.forward(a)) for a in range(1, window + 1))
    return [SpreadSpec(*(ExplicitPrefixSequence(part) for part in zip(*pile)))
            for pile in piles]


def _first_common(a: int, d: int, b: int, e: int) -> Optional[int]:
    """The least term that ``a + d k`` and ``b + e k`` share (CRT), or None."""
    g = math.gcd(d, e)
    if (b - a) % g:
        return None
    x = a + d * ((b - a) // g * pow(d // g, -1, e // g) % (e // g))
    return max(a, b) + (x - max(a, b)) % (d // g * e)


def partition_fault(forms: Sequence[tuple]) -> Optional[Tuple[int, tuple]]:
    """The least index that no set holds or more than one holds, with the
    positions of the sets that hold it; None when the sets partition N.

    A set is its :meth:`~IndexSequence.progression` ``(finite terms, (a, d)
    or None)``, its finite terms below ``a``.  An index held twice is a
    finite term or the first term two progressions share.  Below the least
    such index, the unheld indices up to ``x`` number ``x`` less the terms
    up to ``x``, so bisection finds the least one; past the largest term or
    start, membership repeats with the lcm of the steps: that bounds it.
    """
    finite = sorted(v for terms, _ in forms for v in terms)
    runs = [run for _, run in forms if run]
    shared = [v for v, w in zip(finite, finite[1:]) if v == w]
    shared += [v for v in finite if any(v in range(a, v + 1, d) for a, d in runs)]
    shared += [_first_common(*r, *s) for k, r in enumerate(runs) for s in runs[k + 1:]]
    twice = min((g for g in shared if g is not None), default=None)
    top = max([*finite, *(a for a, _ in runs)], default=0)
    stop = twice or top + math.lcm(*(d for _, d in runs)) + 1
    lo, hi = 0, stop
    while hi - lo > 1:  # no index up to lo is unheld; hi is one, or stop
        mid = (lo + hi) // 2
        held = bisect.bisect_right(finite, mid) + sum(
            (mid - a) // d + 1 for a, d in runs if mid >= a)
        lo, hi = (lo, mid) if held < mid else (mid, hi)
    if hi < stop:
        return hi, ()
    if twice is None:
        return None
    return twice, tuple(i for i, (terms, run) in enumerate(forms)
                        if twice in terms or run and twice in range(run[0], twice + 1, run[1]))


def spread_sum_fault(spreads: Sequence[SpreadSpec]) -> Optional[str]:
    """Why the sum of ``spreads`` is no permutation unitary, or ``None``: it is
    one when each index is a paired domain term (a spread pairs its terms up
    to its shorter side) of one spread and a paired image term of one, which
    :func:`partition_fault` decides; a callable set is a fault."""
    domains, images = [], []
    for sp in spreads:
        dl, il = sp.domain.length(), sp.image.length()
        if dl is None and il is not None:
            return f"column {sp.domain.elem(il + 1)} lies past its spread's finite image"
        domains.append(sp.domain)
        images.append(sp.image if dl is None or il is not None
                      else ExplicitPrefixSequence(tuple(sp.image.elems(dl))))
    for line, sets in (("column", domains), ("row", images)):
        forms = [s.progression() for s in sets]
        if None in forms:
            return f"a {line} set is given by a callable"
        fault = partition_fault(forms)
        if fault:
            return f"{line} {fault[0]} is hit by {len(fault[1])} spreads"
    return None


def cycles_and_chains(nodes: Iterable[int], succ: Mapping[int, int]) -> Tuple[list, list]:
    """Split a partial injection on finitely many nodes into cycles and chains.

    ``succ`` maps a node to its successor; a chain ends at a node whose
    successor is missing or not a node.  Returns ``(cycles, chains)``,
    tuples in walking order: chains ordered by head, each cycle from its
    first node in ``nodes`` order.  Two nodes sharing a successor raise
    ``ValueError``.
    """
    order = list(nodes)
    members = set(order)
    pred: dict = {}
    for a in order:
        b = succ.get(a)
        if b in members:
            if b in pred:
                raise ValueError(f"nodes {pred[b]} and {a} share the successor {b}")
            pred[b] = a
    cycles, chains, seen = [], [], set()
    # Walk the chains from their heads first; every node left is on a cycle.
    for a in [a for a in order if a not in pred] + order:
        if a not in seen:
            path, b = [a], succ.get(a)
            while b in members and b != a:
                path.append(b)
                b = succ.get(b)
            seen.update(path)
            (cycles if b == a else chains).append(tuple(path))
    return cycles, chains


# ---------------------------------------------------------------------------
# Multiplicity lists
# ---------------------------------------------------------------------------


class _Infinite:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITE"


#: Marker for infinite-dimensional eigenspaces.
INFINITE = _Infinite()

Multiplicity = Union[int, _Infinite]


@record
class MultiplicityList:
    """Distinct eigenvalues with multiplicities, plus an optional tail.

    ``tail`` is a rule of further simple (multiplicity-1) values; it is
    how an infinite discrete spectrum accumulating at 0 is written down
    with finitely many symbols.
    """

    entries: Tuple[Tuple[Scalar, Multiplicity], ...]
    tail: Optional[ScalarRule] = None

    def __post_init__(self):
        values = [v for v, _ in self.entries]
        if len(set(values)) != len(values):
            raise ValueError("values must be pairwise distinct")
        for v, m in self.entries:
            if not isinstance(m, _Infinite) and (not isinstance(m, int) or m < 1):
                raise ValueError(f"multiplicity of {v} must be >= 1 or INFINITE")
        if self.tail is not None and self.tail.abs_nonincreasing() is False:
            raise ValueError("tail values must be |.|-nonincreasing")

    def finite_entries(self) -> list:
        return [(v, m) for v, m in self.entries if not isinstance(m, _Infinite)]

    def infinite_values(self) -> list:
        return [v for v, m in self.entries if isinstance(m, _Infinite)]


@record
class ExpandedSpectrum:
    """Result of multiplicity expansion.

    ``finite_prefix`` holds each finite-multiplicity value repeated, in
    |.|-decreasing order; ``finite_tail`` continues it when the input
    had a tail rule; ``infinite_values`` collects the rest.
    """

    finite_prefix: tuple
    finite_tail: Optional[ScalarRule]
    infinite_values: tuple


def expand_multiplicities(m: MultiplicityList) -> ExpandedSpectrum:
    """Expand finite multiplicities into a |.|-decreasing listing.

    Each value of finite multiplicity ``k`` appears ``k`` times; values
    flagged INFINITE are set aside for per-block treatment.
    """
    if not m.entries and m.tail is None:
        raise EmptyInputError("multiplicity list has no entries")
    expanded = sorted((v for v, mult in m.finite_entries() for _ in range(mult)),
                      key=_abs_exact, reverse=True)
    return ExpandedSpectrum(tuple(expanded), m.tail, tuple(m.infinite_values()))
