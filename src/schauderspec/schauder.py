"""Schauder predicates, spectra, classification, and deflation.

An operator is Schauder exactly when it is injective with dense range;
``lambda`` sits in the Schauder spectrum when ``lambda I - T`` fails
that test.  For the structured classes handled here the test is exact
and structural: diagonals fail precisely at their diagonal values,
permutation-weighted operators fail nowhere once their weights are
nonzero and their eigenvalues are excluded by certificates.

Deflation is the constructive half: given a vanishing positive weight
sequence, multiplying by the two-spread unitary turns the diagonal into
a weighted bilateral shift whose eigenvector recurrences blow up, so
the product has empty point spectrum on both sides.  The variants below
follow the case split of the underlying constructions: simple vanishing
spectrum, multiplicities (finite ones expanded, infinite ones split
into scaled unitary blocks), purely finite spectrum (handled through
shift similarity), and interval-block models for continuous spectrum.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple, Union

from .errors import (
    NotCompactError,
    PreconditionViolatedError,
    UnsupportedClassError,
)
from .index_maps import (
    MultiplicityList,
    SpreadSpec,
    decompose_into_spreads,
    expand_multiplicities,
    sigma_bilateral,
)
from .op_algebra import (
    Adjoint,
    BlockDirectSum,
    Diagonal,
    OperatorExpr,
    PermutationUnitary,
    Product,
    Scale,
    ShiftForm,
    Spread,
    Sum,
    corner_entries,
    recognize_shift_form,
    unrecognized,
)
from .records import record, replace
from .sequences import (
    ArithmeticSequence,
    ConstantRule,
    ExplicitPrefixSequence,
    ExplicitThenRule,
    MergedAbsDecreasingRule,
    Scalar,
    ScalarRule,
    _abs_exact,
    _monotone_fact,
    _ratio_deviation_tail,
    _real_fact,
)
from .spectral import (
    CertificateGridConfig,
    EigenExclusionCertificate,
    KernelRangeVerdict,
    _ShiftCertifier,
    _grid_top,
    _mint,
    _prototype,
    _weights_zero_check,
    _zero_weight,
    corner_eigs,
    grid_certificates,
    kernel_trivial,
    lambda_grid,
    shields_similar,
    is_bounded_verdict,
    sup_abs_weight,
)

SELF_ADJOINT_NOTE = (
    "self-adjoint input: membership is decided by the injectivity/"
    "dense-range criterion (equivalently, by the point spectrum); the "
    "resolvent-complement shortcut for self-adjoint operators disagrees "
    "with the diagonal examples and is not used"
)

NOT_INJECTIVE = "not-injective"
RANGE_NOT_DENSE = "range-not-dense"


# ---------------------------------------------------------------------------
# Reports and verdicts
# ---------------------------------------------------------------------------


@record
class EmptySetMembers:
    """The empty set."""


@record
class FiniteSetMembers:
    values: Tuple[Scalar, ...]


@record
class VanishingSequenceMembers:
    """Members form a sequence of nonzero values accumulating only at 0."""

    rule: ScalarRule
    includes_zero: bool


Members = Union[EmptySetMembers, FiniteSetMembers, VanishingSequenceMembers]


@record
class SchauderSpectrumReport:
    members: Members
    per_member_reason: Tuple[Tuple[object, str], ...] = ()
    classification_case: Optional[int] = None
    covered_region: Optional[str] = None
    notes: Tuple[str, ...] = ()
    certificates: Tuple[EigenExclusionCertificate, ...] = ()

    def reasons(self) -> dict:
        return dict(self.per_member_reason)


@record
class SchauderVerdict:
    is_schauder: bool
    reason: Optional[str] = None  # NOT_INJECTIVE | RANGE_NOT_DENSE
    witness_index: Optional[int] = None
    detail: str = ""

    def __bool__(self):
        return self.is_schauder


@record
class DeflationResult:
    """A constructed unitary, the deflated product, and its evidence."""

    unitary: OperatorExpr
    deflated: OperatorExpr
    operator: OperatorExpr
    shift_form: Optional[ShiftForm]
    certificates: Tuple[EigenExclusionCertificate, ...]
    zero_check: KernelRangeVerdict
    lemma_path: str
    spreads: tuple
    covered_region: str
    notes: Tuple[str, ...] = ()


@record
class SelfAdjointIntervalModel:
    """Declared spectral data of a self-adjoint operator.

    The spectrum is the interval [lower, upper]; ``point_spectrum``
    lists the eigenvalues.  This is the declarative form in which
    operators with continuous spectrum enter the spectrum computation.
    """

    lower: float
    upper: float
    point_spectrum: Tuple[Scalar, ...] = ()

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError("need lower <= upper")


# ---------------------------------------------------------------------------
# Schauder predicates
# ---------------------------------------------------------------------------


def is_schauder(T) -> SchauderVerdict:
    """Exact structural verdict: injective with dense range, or why not."""
    if isinstance(T, SelfAdjointIntervalModel):
        if 0 in T.point_spectrum:
            return SchauderVerdict(False, NOT_INJECTIVE, None,
                                   "0 is a declared eigenvalue")
        return SchauderVerdict(True, detail="0 is not a declared eigenvalue; "
                               "a self-adjoint operator with trivial kernel has dense range")
    if isinstance(T, Diagonal):
        hit, idx = _zero_weight(T.weights)
        if hit:
            return SchauderVerdict(False, NOT_INJECTIVE, idx,
                                   "zero diagonal entry")
        return SchauderVerdict(True, detail="diagonal entries nonzero")
    if isinstance(T, BlockDirectSum):
        for b, block in enumerate(T.blocks):
            sub = is_schauder(block)
            if not sub:
                return SchauderVerdict(False, sub.reason, sub.witness_index,
                                       f"block {b}: {sub.detail}")
        return SchauderVerdict(True, detail="every block injective with dense range")
    if isinstance(T, ShiftForm):
        return _kernel_verdict(kernel_trivial(T))
    if isinstance(T, PermutationUnitary):
        return SchauderVerdict(True, detail="permutation unitary")
    if isinstance(T, OperatorExpr):
        return _expression_verdict(T, recognize_shift_form(T))
    raise UnsupportedClassError(f"unsupported input {type(T).__name__}")


def _expression_verdict(T: OperatorExpr, rec) -> SchauderVerdict:
    """``is_schauder`` of an expression given its recognition ``rec``."""
    if rec is not None:
        return is_schauder(rec.shift)
    verdict = kernel_trivial(T)
    if not verdict.certified and verdict.injective:
        raise unrecognized(T)
    return _kernel_verdict(verdict)


def _kernel_verdict(verdict: KernelRangeVerdict) -> SchauderVerdict:
    if not verdict.injective:
        return SchauderVerdict(False, NOT_INJECTIVE, verdict.offending_index,
                               verdict.detail)
    if verdict.dense_range is False:
        return SchauderVerdict(False, RANGE_NOT_DENSE, verdict.offending_index,
                               verdict.detail)
    return SchauderVerdict(True, detail=verdict.detail)


# ---------------------------------------------------------------------------
# Schauder spectrum
# ---------------------------------------------------------------------------


def _sorted_values(values) -> tuple:
    return tuple(sorted(dict.fromkeys(values), key=lambda v: (-_abs_exact(v), repr(v))))


def _diagonal_report(rule: ScalarRule) -> SchauderSpectrumReport:
    notes = [SELF_ADJOINT_NOTE] if rule.is_real() else []
    finite_values = rule.value_set()
    vanishing = rule.limit() == 0  # never for a finite-length rule
    if finite_values is not None:
        # exact members: 0 is one exactly when the rule takes it
        members: Members = FiniteSetMembers(_sorted_values(finite_values))
        reasons = tuple((v, NOT_INJECTIVE) for v in members.values)
    elif vanishing:
        members = VanishingSequenceMembers(rule, includes_zero=_zero_weight(rule)[0])
        reasons = (("*", NOT_INJECTIVE),)
    else:
        raise UnsupportedClassError(
            "diagonal values neither finite in variety nor vanishing; the "
            "spectrum shape is outside the report vocabulary"
        )
    case = _members_case(members) if vanishing else None
    return SchauderSpectrumReport(members, reasons, case, None, tuple(notes))


def _shift_certificate_report(shift: ShiftForm, cfg: CertificateGridConfig
                              ) -> SchauderSpectrumReport:
    lim = shift.weights.limit()
    if lim != 0:
        raise UnsupportedClassError(
            "certificate path requires weights certified to vanish"
        )
    zero = kernel_trivial(shift)
    grid = lambda_grid(cfg, sup_abs_weight(shift.weights))
    certs = grid_certificates(shift, grid, cfg.bound, cfg.step_cap)
    region = (
        f"grid of {len(grid)} points: {cfg.moduli} moduli in "
        f"[{cfg.min_modulus!r}, {max(abs(l) for l in grid)!r}] x {cfg.phases} "
        "phases; each certificate covers its whole modulus circle; "
        "lambda = 0 decided structurally"
    )
    if zero.injective and zero.dense_range:
        members: Members = EmptySetMembers()
        reasons: tuple = ()
    else:
        members = FiniteSetMembers((0,))
        reasons = ((0, NOT_INJECTIVE if not zero.injective else RANGE_NOT_DENSE),)
    return SchauderSpectrumReport(members, reasons, _members_case(members),
                                  region, (), certs)


def _combine_block_reports(parts: Sequence[SchauderSpectrumReport]
                           ) -> SchauderSpectrumReport:
    """One report for a block sum: 0 is a member, with the first such
    part's reason, exactly when it is a member of some part.  Vanishing
    members are merged by magnitude, so a block whose rule does not
    certify that its members never rise is refused."""
    finite_values: list = []
    reasons: list = []
    rules: list = []
    zero_failure = None
    notes: list = []
    certs: list = []
    regions: list = []
    for b, rep in enumerate(parts):
        if zero_failure is None and _members_case(rep.members) in (2, 4, 6):
            own = rep.reasons()
            zero_failure = own.get(0, own.get("*"))
        notes.extend(rep.notes)
        certs.extend(rep.certificates)
        if rep.covered_region:
            regions.append(rep.covered_region)
        if isinstance(rep.members, FiniteSetMembers):
            finite_values.extend(v for v in rep.members.values if v != 0)
        elif isinstance(rep.members, VanishingSequenceMembers):
            rule = rep.members.rule
            if rule.abs_nonincreasing() is not True:
                n = _monotone_fact(rule)[1]
                raise UnsupportedClassError(
                    f"block {b}: " + ("cannot certify that its members never rise"
                                      if n is None else f"its members rise at index {n}")
                    + "; a block sum's members are merged only by nonincreasing magnitude")
            rules.append(rule)
        reasons.extend(kv for kv in rep.per_member_reason if kv[0] != 0)
    includes_zero = zero_failure is not None
    if includes_zero:
        reasons.append((0, zero_failure))
    region = "; ".join(dict.fromkeys(regions)) or None
    notes = tuple(dict.fromkeys(notes))
    if rules:
        merged = MergedAbsDecreasingRule(
            finite_parts=[tuple(finite_values)] if finite_values else [],
            rule_parts=tuple(rules),
        )
        members: Members = VanishingSequenceMembers(merged, includes_zero)
        return SchauderSpectrumReport(members, tuple(reasons), None, region,
                                      notes, tuple(certs))
    values = _sorted_values(finite_values)
    if includes_zero:
        values = values + (0,)
    members = FiniteSetMembers(values) if values else EmptySetMembers()
    return SchauderSpectrumReport(members, tuple(reasons), None, region,
                                  notes, tuple(certs))


def _analysed_subject(T):
    """The form in which ``T`` is analysed.

    A plain operator expression is read as its shift form, recognized
    once from its nodes (no window of the matrix is read); a diagonal, a
    shift form, a block sum or an input of any other type is read as
    given.
    """
    if not isinstance(T, OperatorExpr) or isinstance(T, (Diagonal, BlockDirectSum)):
        return T
    rec = recognize_shift_form(T)
    if rec is None:
        raise unrecognized(T)
    return rec.shift


def is_compact_structural(T) -> Optional[bool]:
    """Structural compactness: vanishing weights, or finite blocks thereof."""
    try:
        T = _analysed_subject(T)
    except UnsupportedClassError:
        return None
    if isinstance(T, Diagonal):
        if T.weights.length() is not None:
            return True
        lim = T.weights.limit()
        if lim is None:
            return None
        return lim == 0
    if isinstance(T, ShiftForm):
        return is_compact_structural(Diagonal(T.weights))
    if isinstance(T, BlockDirectSum):
        verdicts = [is_compact_structural(b) for b in T.blocks]
        if all(v is True for v in verdicts):
            return True
        if any(v is False for v in verdicts):
            return False
    return None


def schauder_spectrum(T, cfg: Optional[CertificateGridConfig] = None
                      ) -> SchauderSpectrumReport:
    """Compute the Schauder spectrum of a supported structured operator.

    Diagonals report their exact value set; certified vanishing shifts
    report emptiness over the covered grid region (0 excluded through
    the diagonal factor of the polar split); block direct sums combine
    their parts.  Self-adjoint interval models report their declared
    point spectrum.
    """
    cfg = cfg or CertificateGridConfig()
    if isinstance(T, SelfAdjointIntervalModel):
        values = _sorted_values(v for v in T.point_spectrum)
        members: Members = FiniteSetMembers(values) if values else EmptySetMembers()
        reasons = tuple((v, NOT_INJECTIVE) for v in values)
        return SchauderSpectrumReport(
            members, reasons, None, f"interval [{T.lower}, {T.upper}] by "
            "declared spectral data", (SELF_ADJOINT_NOTE,))
    T = _analysed_subject(T)
    if isinstance(T, Diagonal):
        return _diagonal_report(T.weights)
    if isinstance(T, BlockDirectSum):
        return _combine_block_reports(
            [schauder_spectrum(block, cfg) for block in T.blocks])
    if not isinstance(T, ShiftForm):
        raise UnsupportedClassError(f"unsupported input {type(T).__name__}")
    if T.perm.is_identity:
        return _diagonal_report(T.weights)
    return _shift_certificate_report(T, cfg)


def classify_compact(report: SchauderSpectrumReport, compact: bool) -> int:
    """The six-way classification of compact-operator Schauder spectra.

    1 empty; 2 exactly {0}; 3 finite without 0; 4 finite with 0;
    5 a sequence of nonzero values accumulating only at 0; 6 the same
    together with 0.  Total and single-valued over report shapes.
    """
    if not compact:
        raise NotCompactError("classification applies to compact operators only")
    return _members_case(report.members)


def _members_case(m: Members) -> int:
    if isinstance(m, EmptySetMembers):
        return 1
    if isinstance(m, FiniteSetMembers):
        if not m.values:
            return 1
        if all(v == 0 for v in m.values):
            return 2
        if any(v == 0 for v in m.values):
            return 4
        return 3
    if isinstance(m, VanishingSequenceMembers):
        return 6 if m.includes_zero else 5
    raise UnsupportedClassError(f"unknown members shape {type(m).__name__}")


# ---------------------------------------------------------------------------
# Deflation constructions
# ---------------------------------------------------------------------------


def _region_string(cfg: CertificateGridConfig, max_weight: float) -> str:
    top = _grid_top(cfg, max_weight)
    return (
        f"grid of {cfg.moduli} moduli in [{cfg.min_modulus!r}, {top!r}] x "
        f"{cfg.phases} phases (each certificate covers its modulus circle); "
        "lambda = 0 via structural kernel/range checks"
    )


def _probe_positive_monotone(rule: ScalarRule, strict: Optional[bool]) -> bool:
    """Check that the weights are positive reals decreasing to 0, strictly with
    ``strict=True``; returns ``strict``, which ``strict=None`` reads off the rule.

    The rule's facts decide, and a fact it leaves undecided is refused.
    Weights are read only to name the index that a refusal cites.
    """
    nonnegative = rule.is_real(nonnegative=True)  # a zero is left to the zero check
    if nonnegative is None:
        raise PreconditionViolatedError("cannot certify that the weights are positive reals")
    if not nonnegative:
        # the first term that is not a positive real: a zero or a negative one
        n = min(filter(None, (rule.zero_index(), _real_fact(rule, 0, True)[1])), default=None)
        if n is not None:
            raise PreconditionViolatedError(
                f"weight at index {n} is {rule.value(n)!r}; positive reals required")
        raise PreconditionViolatedError("weights are not all positive reals")
    if strict is None:  # weights not certified strictly decreasing take the discrete lemma
        strict = rule.abs_nonincreasing(strict=True) is True
    decreasing = rule.abs_nonincreasing(strict=strict)
    wanted = "strictly decreasing" if strict else "nonincreasing"
    if decreasing is None:
        raise PreconditionViolatedError(f"cannot certify that the weights are {wanted}")
    if not decreasing:
        n = _monotone_fact(rule, 0, strict)[1]
        if n is not None:
            a, b = rule.value(n), rule.value(n + 1)
            raise PreconditionViolatedError(
                f"weights not strictly decreasing at index {n}: {a!r} !> {b!r}" if strict
                else f"weights increase at index {n}: {a!r} < {b!r}")
        raise PreconditionViolatedError(f"weights are not {wanted}")
    lim = rule.limit()
    if lim is None:
        raise PreconditionViolatedError(
            "cannot certify that the weights vanish (unknown-tail rule)"
        )
    if lim != 0:
        raise PreconditionViolatedError(
            f"weights do not vanish: certified limit {lim!r}"
        )
    return strict


_RANGE_NOTE = ("range of the product equals the range of the diagonal "
              "factor, which is dense when all weights are nonzero")


def _sigma_blocks(rule: ScalarRule, values: tuple, cfg: CertificateGridConfig,
                  lemma_path: str, note: str, similar: Optional[tuple] = None
                  ) -> DeflationResult:
    """Sigma-unitary deflation of ``diag(rule)`` plus one block per value.

    Block 0 carries ``rule`` behind the two-spread unitary; each value
    ``v`` gets its own block ``v * sigma``, and the blocks interleave
    along residues mod their count.  Block 0's certificates are the grid
    walk of its weighted shift, tagged ``block 0`` when other blocks
    exist; with ``similar = (value, details)`` they are those of the
    scaled unitary ``value * sigma`` it is similar to, each ending with
    ``details``.  With no values the result is the plain shift.  Block
    0's weights must be certified nonzero before anything is built.
    """
    sigma = sigma_bilateral()
    shift = ShiftForm(sigma, rule)
    # each caller has refused the zeros a rule reports
    zero_check = _weights_zero_check(rule)
    if not zero_check.injective:
        raise PreconditionViolatedError("cannot certify that the weights are nonzero")
    if values:
        count = 1 + len(values)
        partition = tuple(ArithmeticSequence(b + 1, count) for b in range(count))
        unitary: OperatorExpr = BlockDirectSum(
            tuple(PermutationUnitary(sigma) for _ in range(count)), partition)
        operator: OperatorExpr = BlockDirectSum(
            (Diagonal(rule),) + tuple(Diagonal(ConstantRule(v)) for v in values),
            partition)
        deflated: OperatorExpr = BlockDirectSum(
            (shift.to_expr(),)
            + tuple(Scale(v, PermutationUnitary(sigma)) for v in values),
            partition)
    else:
        unitary, operator, deflated = (PermutationUnitary(sigma), Diagonal(rule),
                                       shift.to_expr())
    # block 0 of deflate_finite_spectrum takes the similar value past its prefix
    max_w = max([sup_abs_weight(rule)] + [float(_abs_exact(v))
                                          for v in values + (similar or ())[:1]])
    grid = lambda_grid(cfg, max_w)
    if similar is None:
        certs = _ShiftCertifier(shift, cfg.bound, cfg.step_cap,
                                details=(("block", 0),) if values else ()).grid(grid)
    else:
        certs = _scaled_unitary_certificates(similar[0], grid, cfg, 0, similar[1])
    for b, v in enumerate(values, 1):
        certs += _scaled_unitary_certificates(v, grid, cfg, b)
    return DeflationResult(
        unitary=unitary,
        deflated=deflated,
        operator=operator,
        shift_form=None if values else shift,
        certificates=tuple(certs),
        zero_check=zero_check,
        lemma_path=lemma_path,
        spreads=tuple(decompose_into_spreads(sigma, 64)),
        covered_region=_region_string(cfg, max_w),
        notes=(note,),
    )


def deflate_basic(t: ScalarRule,
                  cfg: Optional[CertificateGridConfig] = None) -> DeflationResult:
    """Deflate a simple vanishing positive spectrum ``t_1 > t_2 > ... -> 0``.

    The unitary is the two-spread bilateral permutation; the product is
    the weighted bilateral shift acting as ``t_2 e_1`` on ``e_2``,
    ``t_{2k} e_{2k-2}`` on ``e_{2k}``, ``t_{2k-1} e_{2k+1}`` on
    ``e_{2k-1}``.  Direct and adjoint divergence certificates cover the
    grid; ``lambda = 0`` is settled by the kernel/range structure of the
    diagonal factor.
    """
    _probe_positive_monotone(t, strict=True)
    return _sigma_blocks(t, (), cfg or CertificateGridConfig(), "basic",
                         _RANGE_NOTE)


def _scaled_unitary_certificates(value, grid, cfg: CertificateGridConfig,
                                 block: int, details: tuple = ()) -> list:
    """Certificates for ``value * (sigma unitary)`` on one block.

    Off the circle ``|lambda| = |value|`` the orbit recurrence diverges;
    on it the coefficients have constant modulus 1 along an infinite
    orbit, which no square-summable vector supports.  Each certificate
    ends with ``("block", block)`` and ``details``.
    """
    v = float(_abs_exact(value))
    certifier = _ShiftCertifier(ShiftForm(sigma_bilateral(), ConstantRule(value)),
                                cfg.bound, cfg.step_cap, False,
                                (("block", block),) + details)
    region = f"circle |lambda| = {v!r}"
    floor = (("block", block), ("scaled_unitary", v)) + details
    floors = {}  # side -> the instance dict of its first floor certificate

    def on_circle(lam, side):
        if side in floors:
            return _mint(floors[side], complex(lam))
        cert = EigenExclusionCertificate(complex(lam), 1, 1.0, "scalar-shift", 0.0,
                                         "constant-floor", 1, side, region, floor)
        floors[side] = _prototype(cert)
        return cert

    return [on_circle(lam, side) if abs(abs(lam) - v) <= 1e-12 * max(v, 1.0)
            else certifier.certificate(lam, side)
            for lam in grid for side in ("direct", "adjoint")]


def deflate_discrete(m: MultiplicityList,
                     cfg: Optional[CertificateGridConfig] = None) -> DeflationResult:
    """Deflate a discrete spectrum accumulating only at 0, multiplicities allowed.

    Finite multiplicities are expanded into repeated weights and merged
    decreasingly with the simple tail.  Each infinite-multiplicity value
    keeps its own block, where the scaled sigma unitary already has
    empty point spectrum on both sides; one unit vector per infinite
    block is borrowed into the expanded list, which keeps the block-0
    construction uniform whether or not the finite part alone is finite.
    """
    cfg = cfg or CertificateGridConfig()
    for v, _ in m.entries:
        if v == 0:
            raise PreconditionViolatedError("zero eigenvalue kills dense range")
    if m.tail is None:
        raise PreconditionViolatedError(
            "spectrum does not accumulate at 0 (no tail rule); "
            "use deflate_finite_spectrum for finitely many values"
        )
    if m.tail.attains_zero() is True:
        raise PreconditionViolatedError("zero eigenvalue in the tail")
    expanded = expand_multiplicities(m)
    if not m.entries:
        return deflate_basic(m.tail, cfg)

    infinite_values = expanded.infinite_values
    block0_rule: ScalarRule = MergedAbsDecreasingRule(
        finite_parts=[expanded.finite_prefix + infinite_values],
        rule_parts=[expanded.finite_tail] if expanded.finite_tail else [],
    )
    _probe_positive_monotone(block0_rule, strict=False)
    note = _RANGE_NOTE if not infinite_values else (
        "one unit vector borrowed from each infinite-multiplicity "
        "eigenspace into the expanded block")
    return _sigma_blocks(block0_rule, infinite_values, cfg, "discrete", note)


def deflate_finite_spectrum(values: MultiplicityList,
                            cfg: Optional[CertificateGridConfig] = None) -> DeflationResult:
    """Deflate a finite point spectrum with an infinite-multiplicity anchor.

    The finite-dimensional eigenvectors are merged into the designated
    infinite eigenspace; on that block the weighted shift differs from
    the constant-weight shift in finitely many weights, so their window
    ratio products are bounded above and away from zero and the two
    shifts are similar.  Emptiness of the point spectrum then transfers
    from the scaled unitary, whose certificates are attached.
    """
    cfg = cfg or CertificateGridConfig()
    if values.tail is not None:
        raise PreconditionViolatedError("finite spectrum must not carry a tail")
    for v, _ in values.entries:
        if v == 0:
            raise PreconditionViolatedError("zero eigenvalue kills dense range")
    expanded = expand_multiplicities(values)
    if not expanded.infinite_values:
        raise PreconditionViolatedError(
            "no INFINITE-multiplicity value: the space would be finite-dimensional"
        )
    infinite_sorted = tuple(sorted(expanded.infinite_values,
                                   key=_abs_exact, reverse=True))
    designated = infinite_sorted[0]

    block0_rule = ExplicitThenRule(expanded.finite_prefix,
                                   ConstantRule(designated))
    # past the prefix every window ratio is 1, so one index past it decides
    verdict = shields_similar(block0_rule, ConstantRule(designated),
                              len(expanded.finite_prefix) + 1)
    if not is_bounded_verdict(verdict):
        raise PreconditionViolatedError(
            f"window ratio products unbounded: {verdict}"
        )
    shields_details = (
        ("via", "shields-similarity"),
        ("shields_c", float(verdict.c)),
        ("shields_C", float(verdict.C)),
    )
    return _sigma_blocks(
        block0_rule, infinite_sorted[1:], cfg, "finite-spectrum",
        "block 0 weights differ from the constant weight in finitely "
        f"many places; window ratio products in [{verdict.c!r}, "
        f"{verdict.C!r}] certify similarity to the scaled unitary, "
        "whose point spectrum and adjoint point spectrum are empty",
        (designated, shields_details))


def deflate_block_continuous(blocks: Sequence[Tuple[Tuple[float, float], int]],
                             alpha_seq: ScalarRule, m: float, M: float,
                             cfg: Optional[CertificateGridConfig] = None
                             ) -> DeflationResult:
    """Deflate an interval-block model of continuous spectrum.

    ``blocks`` lists ``((lo, hi), dim)`` norm intervals and model
    dimensions for the cells in interleaved order (cell 0 first); all
    models must share one dimension so the cell-to-cell shift is
    unitary.  Certificates come from the three-regime norm blowup; the
    assembled finite model is additionally audited by the dense
    eigensolver on a truncation of the product.
    """
    from .spectral import block_norm_blowup

    cfg = cfg or CertificateGridConfig()
    if not blocks:
        raise PreconditionViolatedError("need at least one block")
    dims = {dim for _, dim in blocks}
    if len(dims) != 1:
        raise PreconditionViolatedError(
            "all block models must share one dimension"
        )
    dim = dims.pop()
    if dim < 1:
        raise PreconditionViolatedError("block dimension must be >= 1")
    if not (0 < m <= M):
        raise PreconditionViolatedError("need 0 < m <= M")
    for (lo, hi), _ in blocks:
        if not (m <= lo <= hi <= M):
            raise PreconditionViolatedError(
                f"norm interval [{lo}, {hi}] escapes the global bounds [{m}, {M}]"
            )
    alpha = alpha_seq.limit()
    if alpha is None or float(alpha) <= 0:
        raise PreconditionViolatedError("alpha sequence needs a positive limit")
    gaps = _ratio_deviation_tail(alpha_seq, ConstantRule(alpha), 1)
    if gaps is None or math.isinf(gaps):
        raise PreconditionViolatedError("interval gaps are not certifiably summable")

    cells = tuple(
        ExplicitPrefixSequence(tuple(range(c * dim + 1, (c + 1) * dim + 1)))
        for c in range(len(blocks))
    )
    model_blocks = []
    for (lo, hi), _ in blocks:
        if dim == 1:
            vals = ((lo + hi) / 2 if lo != hi else lo,)
        else:
            vals = tuple(lo + (hi - lo) * k / (dim - 1) for k in range(dim))
        model_blocks.append(Diagonal(ExplicitThenRule(vals)))
    operator = BlockDirectSum(tuple(model_blocks), cells)
    # z-translation(+1) of the cells in interleaved order (sigma's two spreads
    # at dim 1): even cell c (from 0) onto c + 2, odd c onto c - 2, 1 onto 0
    spreads = tuple(sp for k in range(1, dim + 1) for sp in (
        SpreadSpec(ArithmeticSequence(k, 2 * dim), ArithmeticSequence(2 * dim + k, 2 * dim)),
        SpreadSpec(ArithmeticSequence(dim + k, 2 * dim),
                   ExplicitPrefixSequence((k,), ArithmeticSequence(dim + k, 2 * dim)))))
    unitary = Sum(tuple(Spread(sp) for sp in spreads))
    deflated = Product(unitary, operator)

    grid = lambda_grid(cfg, M)
    certs: list = []
    for lam in grid:
        base = block_norm_blowup(alpha_seq, m, M, lam, cfg.bound, cfg.step_cap)
        certs.append(base)
        certs.append(replace(base, side="adjoint"))

    audit_n = min(dim * len(blocks), 64)
    eigs = corner_eigs(corner_entries(deflated, audit_n), audit_n)
    max_eig = max((abs(e) for e in eigs), default=0.0)
    min_lo = min(lo for (lo, _hi), _ in blocks)
    zero = KernelRangeVerdict(
        True, True, None, True,
        f"block norms bounded below by {min_lo}; the model is invertible"
    )
    return DeflationResult(
        unitary=unitary,
        deflated=deflated,
        operator=operator,
        shift_form=None,
        certificates=tuple(certs),
        zero_check=zero,
        lemma_path="block-continuous",
        spreads=spreads,
        covered_region=_region_string(cfg, M),
        notes=(
            f"truncation audit: {audit_n}x{audit_n} corner of the product "
            f"has all eigenvalues of magnitude <= {max_eig!r}",
        ),
    )


def deflate(T, cfg: Optional[CertificateGridConfig] = None) -> DeflationResult:
    """Full pipeline: recognize, polar-split, dispatch, certify.

    Recognition reads the operator's nodes, not a window of its matrix.
    Splits a recognized operator into unitary times nonnegative diagonal
    (exact polar decomposition for this class), deflates the diagonal
    data, and composes the constructed unitary with the recognition
    unitary, so the returned ``unitary @ T`` equals the deflated shift
    entrywise.  Constant or non-vanishing weight rules are rejected: the
    automatic dispatch covers vanishing spectra only, the multiplicity
    and block entry points cover the rest explicitly.
    """
    cfg = cfg or CertificateGridConfig()
    # is_schauder would recognize a plain expression before it reads any
    # weight, so it is handed this recognition instead
    plain = isinstance(T, OperatorExpr) and not isinstance(
        T, (Diagonal, BlockDirectSum, PermutationUnitary))
    rec = recognize_shift_form(T) if plain else None
    verdict = _expression_verdict(T, rec) if plain else is_schauder(T)
    if not verdict:
        raise PreconditionViolatedError(
            f"not a Schauder operator: {verdict.reason} "
            f"(witness index {verdict.witness_index}); {verdict.detail}"
        )
    operator: OperatorExpr = T.to_expr() if isinstance(T, ShiftForm) else T
    rec = rec or recognize_shift_form(T)  # a plain expression was recognized above
    if rec is None:
        raise unrecognized(T)
    rule = rec.diagonal.weights
    rec_unitary = None if (
        isinstance(rec.unitary, PermutationUnitary)
        and rec.unitary.perm.is_identity
    ) else rec.unitary
    lim = rule.limit()
    if lim is None:
        raise UnsupportedClassError(
            "cannot certify a vanishing spectrum rule for this operator"
        )
    if lim != 0:
        values = rule.value_set() or ()
        extra = "" if len(set(values)) != 1 else (
            f" (constant diagonal factor: point spectrum {{{values[0]!r}}})")
        raise UnsupportedClassError(
            f"no vanishing spectrum rule (weights tend to {lim!r}){extra}; "
            "use deflate_finite_spectrum or deflate_block_continuous "
            "with explicit spectral data"
        )
    strict = _probe_positive_monotone(rule, strict=None)
    base = _sigma_blocks(rule, (), cfg, "basic" if strict else "discrete", _RANGE_NOTE)
    if rec_unitary is None:
        unitary = base.unitary
    else:
        unitary = Product(base.unitary, Adjoint(rec_unitary))
    return replace(base, unitary=unitary, operator=operator,
                   lemma_path="recognize+" + base.lemma_path)


def audit_deflation(result: DeflationResult, n: int = 64) -> Tuple[bool, float]:
    """Entrywise audit ``truncate(unitary @ operator, n) == truncate(deflated, n)``.

    Returns exact equality plus the maximal absolute entry difference.
    Only positions supported on either side are compared; the rest are
    ``0`` on both.
    """
    left = corner_entries(Product(result.unitary, result.operator), n)
    right = corner_entries(result.deflated, n)
    exact = True
    worst = 0.0
    for key in left.keys() | right.keys():
        a = left.get(key, 0)
        b = right.get(key, 0)
        if a != b:  # equal entries differ by 0, or nan for infinities
            exact = False
            try:
                d = abs(complex(a) - complex(b))
            except OverflowError:  # an exact entry, or the difference, is past float range
                d = math.inf
            if d > worst:
                worst = d
    return exact, worst
