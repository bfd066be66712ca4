"""Bijections of N, spreads, and multiplicity bookkeeping.

A spread moves the basis vectors indexed by one increasing set onto
those indexed by another and annihilates the rest; permutation
unitaries decompose into sums of spreads with increasing pieces.  The
decomposition here is a greedy patience-style scan: each pair ``(a,
p(a))`` lands on the first open spread whose last pair it dominates in
both coordinates, else opens a new spread.
"""

from __future__ import annotations

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
    if j >= 0:
        return 2 * j + 1
    return -2 * j


def deinterleave(n: int) -> int:
    """Two-sided inverse of :func:`interleave_z`."""
    if n < 1:
        raise ValueError("index must be >= 1")
    if n % 2 == 1:
        return (n - 1) // 2
    return -(n // 2)


@record
class Permutation:
    """A total bijection of N with lazily evaluated direction maps.

    ``tag`` records how it was built: a named construction such as
    ``("z-translation", step)``, ``("compose", p, q)``, ``("inverse", p)``,
    or a leaf known only by its maps, ``("sum-of-spreads",)`` or ``("scanned",)``.
    """

    forward_fn: Callable[[int], int]
    inverse_fn: Callable[[int], int]
    description: str
    tag: tuple

    def forward(self, k: int) -> int:
        if k < 1:
            raise ValueError("permutation argument must be >= 1")
        return self.forward_fn(k)

    def inverse(self, k: int) -> int:
        if k < 1:
            raise ValueError("permutation argument must be >= 1")
        return self.inverse_fn(k)

    def verify_window(self, n: int) -> None:
        """Check two-sided inverse consistency and injectivity on [1..n]."""
        seen = {}
        for k in range(1, n + 1):
            fk = self.forward(k)
            if fk < 1:
                raise ValueError(f"forward({k}) = {fk} not in N")
            if self.inverse(fk) != k:
                raise ValueError(f"inverse(forward({k})) != {k}")
            if self.forward(self.inverse(k)) != k:
                raise ValueError(f"forward(inverse({k})) != {k}")
            if fk in seen:
                raise ValueError(f"forward not injective: {seen[fk]}, {k} -> {fk}")
            seen[fk] = k

    def __repr__(self):
        return f"Permutation({self.description})"


def identity_permutation() -> Permutation:
    return Permutation(lambda k: k, lambda k: k, "identity", tag=("identity",))


def sigma_bilateral() -> Permutation:
    """The bilateral-shift permutation: 2 -> 1, 2n -> 2(n-1), 2n-1 -> 2n+1."""

    def forward(k: int) -> int:
        if k % 2 == 1:
            return k + 2
        if k == 2:
            return 1
        return k - 2

    def inverse(k: int) -> int:
        if k == 1:
            return 2
        if k % 2 == 0:
            return k + 2
        return k - 2

    return Permutation(forward, inverse, "sigma-bilateral", tag=("sigma-bilateral",))


def z_translation_permutation(step: int) -> Permutation:
    """Translation j -> j + step on Z, conjugated to N by interleaving."""
    if step == 0:
        return identity_permutation()

    def forward(k: int) -> int:
        return interleave_z(deinterleave(k) + step)

    def inverse(k: int) -> int:
        return interleave_z(deinterleave(k) - step)

    return Permutation(
        forward, inverse, f"z-translation({step:+d})", tag=("z-translation", step)
    )


def one_line_permutation(images: Sequence[int]) -> Permutation:
    """Permutation of [1..n] given in one-line notation, identity beyond n."""
    images = tuple(int(v) for v in images)
    n = len(images)
    if sorted(images) != list(range(1, n + 1)):
        raise ValueError("images must be a rearrangement of 1..n")
    inverse_table = {v: i + 1 for i, v in enumerate(images)}

    def forward(k: int) -> int:
        return images[k - 1] if k <= n else k

    def inverse(k: int) -> int:
        return inverse_table.get(k, k) if k <= n else k

    return Permutation(
        forward, inverse, f"one-line({n})", tag=("one-line", images)
    )


def block_z_shift(dim: int) -> Permutation:
    """Cell-to-next-cell permutation for contiguous cells in interleaved order."""

    def forward(g: int) -> int:
        c, k = divmod(g - 1, dim)
        n = deinterleave(c + 1)
        return (interleave_z(n + 1) - 1) * dim + k + 1

    def inverse(g: int) -> int:
        c, k = divmod(g - 1, dim)
        n = deinterleave(c + 1)
        return (interleave_z(n - 1) - 1) * dim + k + 1

    return Permutation(forward, inverse, f"block-z-shift({dim})",
                       tag=("block-z-shift", dim))


def compose_permutations(p: Permutation, q: Permutation) -> Permutation:
    """``p o q`` (``q`` first); an identity factor is dropped."""
    if q.tag == ("identity",):
        return p
    if p.tag == ("identity",):
        return q
    return Permutation(lambda k: p.forward(q.forward(k)),
                       lambda k: q.inverse(p.inverse(k)),
                       f"{p.description} o {q.description}", tag=("compose", p, q))


def inverse_permutation(p: Permutation) -> Permutation:
    """``p^-1``; the identity is its own inverse and a double inverse unwraps."""
    if p.tag == ("identity",):
        return p
    if p.tag[0] == "inverse":
        return p.tag[1]
    return Permutation(p.inverse_fn, p.forward_fn, f"inverse of {p.description}",
                       tag=("inverse", p))


def single_orbit(p: Permutation) -> bool:
    """Whether ``p`` is built as one whose orbit of 1 is all of N: sigma-bilateral,
    z-translation(+-1) or an inverse of one.  Any other tag answers False.
    """
    if p.tag[0] == "inverse":
        return single_orbit(p.tag[1])
    return p.tag in (("sigma-bilateral",), ("z-translation", 1), ("z-translation", -1))


@record
class SpreadSpec:
    """The spread from ``domain`` to ``image``: e_{a_k} -> e_{b_k}."""

    domain: IndexSequence
    image: IndexSequence

    def __post_init__(self):
        dl, il = self.domain.length(), self.image.length()
        if dl is not None and il is not None and dl != il:
            raise ValueError("domain and image lengths differ")

    def pairs(self, count: int) -> list:
        ln = self.domain.length()
        if ln is not None:
            count = min(count, ln)
        return [(self.domain.elem(k), self.image.elem(k)) for k in range(1, count + 1)]

    def length(self) -> Optional[int]:
        return self.domain.length()


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
    if p.tag == ("identity",):
        return [SpreadSpec(naturals(), naturals())]
    if p.tag == ("sigma-bilateral",):
        return [
            SpreadSpec(odds(), ArithmeticSequence(3, 2)),
            SpreadSpec(evens(), ExplicitPrefixSequence((1,), ArithmeticSequence(2, 2))),
        ]
    piles = _greedy_spreads((a, p.forward(a)) for a in range(1, window + 1))
    return [
        SpreadSpec(
            ExplicitPrefixSequence(tuple(a for a, _ in pile)),
            ExplicitPrefixSequence(tuple(b for _, b in pile)),
        )
        for pile in piles
    ]


def cycles_and_chains(nodes: Iterable[int], succ: Mapping[int, int]) -> Tuple[list, list]:
    """Split a partial injection on finitely many nodes into cycles and chains.

    ``succ`` maps a node to its successor.  A node without one, or whose
    successor is not among ``nodes``, ends a chain; a node that no node
    maps to heads one.  Every node lies on exactly one cycle or one
    maximal chain.  Returns ``(cycles, chains)`` as lists of tuples in
    walking order: chains from head to end, ordered by head; each cycle
    starts at its first node in ``nodes`` order.  Raises ``ValueError``
    when two nodes share a successor.
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
            if not isinstance(m, _Infinite):
                if not isinstance(m, int) or m < 1:
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

    def merged_rule(self) -> ScalarRule:
        from .sequences import MergedAbsDecreasingRule

        rules = [self.finite_tail] if self.finite_tail is not None else []
        return MergedAbsDecreasingRule(
            finite_parts=[self.finite_prefix] if self.finite_prefix else [],
            rule_parts=rules,
        )


def expand_multiplicities(m: MultiplicityList) -> ExpandedSpectrum:
    """Expand finite multiplicities into a |.|-decreasing listing.

    Each value of finite multiplicity ``k`` appears ``k`` times; values
    flagged INFINITE are set aside for per-block treatment.
    """
    if not m.entries and m.tail is None:
        raise EmptyInputError("multiplicity list has no entries")
    expanded: list = []
    for v, mult in m.finite_entries():
        expanded.extend([v] * mult)
    expanded.sort(key=_abs_exact, reverse=True)
    return ExpandedSpectrum(
        finite_prefix=tuple(expanded),
        finite_tail=m.tail,
        infinite_values=tuple(m.infinite_values()),
    )
