"""Eigenvalue-exclusion certificates and supporting numerics.

The deflation constructions elsewhere in the package rest on a single
mechanism: for a permutation-weighted operator ``T e_j = w_j e_{perm(j)}``
an eigenvector equation ``T x = lambda x`` propagates coordinates along
the permutation orbit,

    x_{perm(j)} = (w_j / lambda) x_j,

so the coordinate at the k-th backward orbit step carries the factor
``lambda^k / (w_1' ... w_k')`` relative to the anchor coordinate.  When
that factor provably blows past a threshold ``B``, the anchor must be 0
and the whole orbit vanishes.  A certificate freezes the witness step,
the attained magnitude, and the replay parameters, turning the "tends
to infinity" argument into a finite checkable object.

Everything here works in log space; no product is ever formed whose
magnitude could overflow before its logarithm is examined.
"""

from __future__ import annotations

import marshal
import math
from functools import cached_property
from operator import attrgetter
from typing import Optional, Sequence, Tuple, Union

from .errors import (
    ConvergenceFailureError,
    NotSummableError,
    PreconditionViolatedError,
    StepCapExceededError,
    UnsupportedClassError,
)
from .index_maps import cycles_and_chains, orbit_structure, single_orbit
from .op_algebra import (
    OperatorExpr,
    ShiftForm,
    adjoint_shift_form,
    corner_array,
)
from .records import record
from .sequences import (
    ConstantRule,
    Scalar,
    ScalarRule,
    _monotone_fact,
    _ratio_deviation_tail,
    log_abs,
)

DEFAULT_BOUND = 1e12
DEFAULT_STEP_CAP = 100_000
DEFAULT_EPSILON = 0.01


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


@record
class EigenExclusionCertificate:
    """A divergence witness excluding eigenvalues on a lambda region.

    Replaying the recorded recurrence from a unit anchor up to
    ``witness_index`` must reproduce ``attained_magnitude`` to relative
    1e-12; ``attained_magnitude > bound`` always holds (for constancy
    certificates the bound is 0 and the magnitude is the positive floor
    that contradicts square-summability).
    """

    lam: complex
    witness_index: int
    attained_magnitude: float
    recurrence_kind: str  # "scalar-shift" | "block-norm"
    bound: float
    regime: str  # "backward-orbit" | "forward-orbit" | "forward" | "backward" | "constant-floor"
    start_index: int = 1
    side: str = "direct"  # "direct" | "adjoint"
    covered_region: str = ""
    details: Tuple[Tuple[str, object], ...] = ()

    def detail(self, key: str, default=None):
        for k, v in self.details:
            if k == key:
                return v
        return default

    @cached_property
    def walk_key(self) -> Optional[bytes]:
        """The ``marshal`` bytes of all but ``lam`` and an exact complex
        ``adjoint_lambda``, with exact types and float bits: one key for every
        certificate of one orbit walk, or None if ``marshal`` refuses a value."""
        details = dict(self.details)  # the last of a repeated key, as JSON keeps it
        adjoint = type(details.get("adjoint_lambda")) is complex
        if adjoint:
            details["adjoint_lambda"] = None
        try:
            return marshal.dumps((_WALK_FIELDS(self), details, not adjoint), 2)
        except ValueError:
            return None


_WALK_FIELDS = attrgetter("witness_index", "attained_magnitude", "recurrence_kind",
                          "bound", "regime", "start_index", "side", "covered_region")


@record
class KernelRangeVerdict:
    """Structural injectivity/dense-range verdict for shift-like operators."""

    injective: bool
    dense_range: Optional[bool]
    offending_index: Optional[int]
    certified: bool
    detail: str

    def __bool__(self):
        return self.injective


def _safe_exp(x: float) -> float:
    """exp that saturates to inf instead of overflowing."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# Orbit-walk exclusions for weighted shifts
# ---------------------------------------------------------------------------


def _walk_logs(s: ShiftForm, lam: Scalar, direction: str, steps: int,
               start: int) -> float:
    """Log-magnitude of the orbit coefficient after ``steps`` steps."""
    la = log_abs(lam)
    total = 0.0
    if direction == "backward-orbit":
        idx = start
        for _ in range(steps):
            idx = s.perm.inverse(idx)
            w = s.weights.value(idx)
            if w == 0:
                raise PreconditionViolatedError(f"zero weight at index {idx}")
            total += la - log_abs(w)
    elif direction == "forward-orbit":
        idx = start
        for _ in range(steps):
            w = s.weights.value(idx)
            if w == 0:
                raise PreconditionViolatedError(f"zero weight at index {idx}")
            total += log_abs(w) - la
            idx = s.perm.forward(idx)
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return total


def _orbits_in_words(perm) -> str:
    """``": it has 1 infinite orbit and ..."``, or "" without an infinite orbit."""
    count, cycles = orbit_structure(perm) or (0, ())
    if not count:
        return ""
    listed = ", ".join("(" + " ".join(map(str, c)) + ")" for c in cycles)
    return f": it has {count} infinite orbit{'s' * (count > 1)} and " + (
        f"the finite cycle{'s' * (len(cycles) > 1)} {listed}" if cycles else "no finite cycle")


def _prototype(cert: EigenExclusionCertificate) -> dict:
    """``cert``'s instance dict, its ``walk_key`` made, for :func:`_mint` to copy."""
    cert.walk_key  # the cached property keeps it in the instance dict
    return vars(cert)


def _mint(proto: dict, lam: complex, adjoint_lambda=None) -> EigenExclusionCertificate:
    """The certificate of ``proto`` at ``lam``, with ``adjoint_lambda`` as an adjoint's
    first detail: equal, instance dict order and ``walk_key`` too, to one built anew."""
    cert, details = object.__new__(EigenExclusionCertificate), proto["details"]
    if adjoint_lambda is not None:
        details = (("adjoint_lambda", adjoint_lambda),) + details[1:]
    cert.__dict__.update(proto, lam=lam, details=details)
    return cert


class _ShiftCertifier:
    """Direct and adjoint orbit-walk certificates for one shift.

    Each side's preconditions are checked before that side's first
    certificate, so a grid walks each distinct ``log|lam|`` once for both
    sides and raises the same errors, in the same order, as certifying its
    points one by one.  Every certificate ends with ``details``.

    Both sides read the two rays ``back`` and ``fwd`` of ``log|w|`` along
    the orbit of 1, each grown only as deep as some walk read it, so each
    orbit weight is evaluated at most once.  The adjoint walks the same
    moduli, ``|conj w| = |w|``, along the inverse permutation: its
    backward step k reads ``fwd[k]`` and its forward step k ``back[k]``.
    Round to nearest is symmetric, so its partial sums are the direct
    walk's forward and backward ones negated, and one walk decides both.
    """

    def __init__(self, s: ShiftForm, bound: float, step_cap: int,
                 check_weights: bool = True, details: tuple = ()):
        self.s = s
        self.bound = bound
        self.step_cap = step_cap
        self.check_weights = check_weights
        self.details = details
        self.back: list = []  # log|w| at perm^-(k+1)(1)
        self.fwd: list = []  # log|w| at perm^k(1)
        self.back_idx = self.fwd_idx = 1
        self.sides: set = set()  # sides whose preconditions hold
        self.memo: dict = {}  # (side, exact log|lam|) -> (regime, witness step, log magnitude)
        self.paused: dict = {}  # exact log|lam| -> (steps, backward, forward sums) to resume
        self.walks: dict = {}  # (side, |lam|) -> the instance dict of its first certificate

    def _log_weight(self, idx: int, side: str) -> float:
        w = self.s.weights.value(idx)
        if w == 0:
            # each side names the zero by its own index; the adjoint
            # weight at perm(i) is conj(w_i)
            named = idx if side == "direct" else self.s.perm.forward(idx)
            raise PreconditionViolatedError(
                f"zero weight at index {named}; run kernel_trivial instead"
            )
        return log_abs(w)

    def _grow_back(self, side: str) -> None:
        idx = self.s.perm.inverse(self.back_idx)
        self.back.append(self._log_weight(idx, side))
        self.back_idx = idx

    def _grow_fwd(self, side: str) -> None:
        self.fwd.append(self._log_weight(self.fwd_idx, side))
        self.fwd_idx = self.s.perm.forward(self.fwd_idx)

    def _check(self, side: str) -> None:
        s = self.s
        # the walk kills only the orbit of 1; T* has the orbits of T
        if not self.sides and not single_orbit(s.perm):
            raise UnsupportedClassError(
                "certificate path requires a single-orbit shift "
                f"permutation, not {s.perm.description}{_orbits_in_words(s.perm)}")
        if side == "direct" and self.check_weights:
            lim = s.weights.limit()
            if lim is not None and lim != 0:
                raise PreconditionViolatedError(
                    f"weights do not vanish (limit {lim}); this exclusion "
                    "requires weights decreasing to 0"
                )
            # the rule's answer decides; one that does not know is refused
            down = s.weights.abs_nonincreasing()
            if down is None:
                raise PreconditionViolatedError(
                    "cannot certify that the weight magnitudes are nonincreasing")
            if not down:
                n = _monotone_fact(s.weights)[1]
                raise PreconditionViolatedError("weight magnitudes are not nonincreasing" + (
                    "" if n is None else f": they increase at index {n}"))
            hit, idx = _zero_weight(s.weights)
            if hit:
                raise PreconditionViolatedError(
                    f"zero weight at index {idx}; run kernel_trivial instead")
        self.log_bound = math.log(self.bound)  # a bad bound fails after the checks
        self.sides.add(side)

    def _divergence(self, lam: Scalar, side: str) -> Tuple[str, int, float]:
        """First step whose forced coefficient exceeds ``log(bound)``.

        Walks both directions in lockstep, backward first at each step;
        the cached prefix is summed in the order a fresh walk would.  Past
        each full step it checks the other side's witness on the two sums
        swapped and negated (``0.0 - x``: no sum from +0.0 is -0.0); if that
        is still open when this walk stops, it resumes from the step's sums.
        """
        la = log_abs(lam)
        memo = self.memo
        hit = memo.get((side, la))
        if hit is not None:
            return hit
        if side == "direct":
            near, far, grow_near, grow_far = self.back, self.fwd, self._grow_back, self._grow_fwd
        else:
            near, far, grow_near, grow_far = self.fwd, self.back, self._grow_fwd, self._grow_back
        other = "adjoint" if side == "direct" else "direct"
        log_bound, step_cap = self.log_bound, self.step_cap
        have_near, have_far = len(near), len(far)
        start, bwd_log, fwd_log = self.paused.pop(la, (0, 0.0, 0.0))
        watch = (other, la) not in memo
        for k in range(start, step_cap):
            if k == have_near:
                grow_near(side)
                have_near += 1
            b = bwd_log + (la - near[k])
            if b > log_bound:
                hit = ("backward-orbit", k + 1, b)
                break
            if k == have_far:
                grow_far(side)
                have_far += 1
            bwd_log, fwd_log = b, fwd_log + (far[k] - la)
            if watch and (fwd_log < -log_bound or b < -log_bound):
                memo[other, la] = (("backward-orbit", k + 1, 0.0 - fwd_log)
                                   if fwd_log < -log_bound else ("forward-orbit", k + 1, 0.0 - b))
                watch = False
            if fwd_log > log_bound:
                hit = ("forward-orbit", k + 1, fwd_log)
                break
        else:
            best = bwd_log = fwd_log = 0.0
            for b, f in zip(near, far):
                bwd_log += la - b
                fwd_log += f - la
                best = max(best, bwd_log, fwd_log)
            raise StepCapExceededError(
                f"no divergence witness within {step_cap} steps for "
                f"lambda={lam}; the best log magnitude {best:.6g} is "
                f"{log_bound - best:.6g} short of log(bound) = "
                f"{log_bound:.6g}; the bound/cap is too aggressive for "
                "these weights",
                lam=lam, steps=step_cap, best_log_magnitude=best,
                gap=log_bound - best,
            )
        if watch:  # a forward witness ends a full step, a backward one starts it
            self.paused[la] = (k + (hit[0] == "forward-orbit"), 0.0 - fwd_log, 0.0 - bwd_log)
        memo[side, la] = hit
        return hit

    def certificate(self, lam: Scalar,
                    side: str = "direct") -> EigenExclusionCertificate:
        # the adjoint side walks T* at conj(lam): the closure of the range
        # of lam I - T is the orthocomplement of ker(conj(lam) I - T*)
        walked = lam if side == "direct" else complex(lam).conjugate()
        if walked == 0:
            raise PreconditionViolatedError(
                "lambda = 0 is handled structurally; use kernel_trivial"
            )
        # by modulus, not log: moduli that share a math.log print own regions
        key = (side, abs(walked)) if type(walked) is complex else None
        proto = self.walks.get(key)
        if proto is not None:
            return _mint(proto, complex(lam), walked if side == "adjoint" else None)
        if side not in self.sides:
            self._check(side)
        regime, k, log_mag = self._divergence(walked, side)
        details = (("log_magnitude", log_mag),) + self.details
        if side == "adjoint":
            details = (("adjoint_lambda", walked),) + details
        # positional, in field order
        cert = EigenExclusionCertificate(complex(lam), k, _safe_exp(log_mag), "scalar-shift",
                                         self.bound, regime, 1, side,
                                         f"circle |lambda| = {abs(complex(walked))!r}", details)
        if key is not None:  # its walk_key is made once per walk
            self.walks[key] = _prototype(cert)
        return cert

    def grid(self, grid: Sequence[Scalar]) -> list:
        """Direct then adjoint certificate for each ``lam`` of ``grid``."""
        out = []
        walks, certificate = self.walks, self.certificate
        for lam in grid:
            m = abs(lam) if type(lam) is complex else None  # = |conj lam|, for both sides
            direct, adjoint = walks.get(("direct", m)), walks.get(("adjoint", m))
            out.append(certificate(lam) if direct is None else _mint(direct, lam))
            out.append(certificate(lam, "adjoint") if adjoint is None
                       else _mint(adjoint, lam, lam.conjugate()))
        return out


def shift_eigen_exclude(s: ShiftForm, lam: Scalar, bound: float = DEFAULT_BOUND,
                        step_cap: int = DEFAULT_STEP_CAP,
                        check_weights: bool = True) -> EigenExclusionCertificate:
    """Certify that ``lam != 0`` is not an eigenvalue of the shift ``s``.

    Walks the orbit of 1 in both directions and returns the
    first step at which the coefficient forced on an l2 eigenvector
    exceeds ``bound``; since all orbit coordinates are multiples of the
    anchor coordinate, the witness forces the anchor (and the orbit) to
    vanish.  The witness depends on ``|lam|`` only, so one certificate
    covers the whole circle of that modulus.  The orbit must be all of N,
    as ``index_maps.single_orbit`` decides from the permutation's data:
    one infinite orbit and no finite cycle.  Any other permutation, and
    one known only by its maps, raises ``UnsupportedClassError``.
    """
    return _ShiftCertifier(s, bound, step_cap, check_weights).certificate(lam)


def replay_shift_certificate(s: ShiftForm, cert: EigenExclusionCertificate) -> float:
    """Re-run a scalar-shift certificate's recurrence; returns the magnitude."""
    if cert.recurrence_kind != "scalar-shift":
        raise ValueError("not a scalar-shift certificate")
    shift = adjoint_shift_form(s) if cert.side == "adjoint" else s
    lam = cert.lam.conjugate() if cert.side == "adjoint" else cert.lam
    log_mag = _walk_logs(shift, lam, cert.regime, cert.witness_index,
                         cert.start_index)
    return _safe_exp(log_mag)


def _zero_weight(rule: ScalarRule) -> Tuple[bool, Optional[int]]:
    """(attains_zero, index of a zero) for a weight rule: its own
    ``attains_zero`` decides, a rule that decides nothing is refused, and
    one that attains a zero places it."""
    az = rule.attains_zero()
    if az is None:
        raise PreconditionViolatedError("cannot certify that the weights are nonzero")
    return az, rule.zero_index() if az else None


def _weights_zero_check(weights: ScalarRule) -> KernelRangeVerdict:
    """``kernel_trivial`` of a total shift form with these weights."""
    hit, idx = _zero_weight(weights)
    if not hit:
        return KernelRangeVerdict(True, True, None, True,
                                  "weights certified nonzero; permutation total")
    return KernelRangeVerdict(False, False, idx, True, f"weight at index {idx} is zero")


def kernel_trivial(s: Union[ShiftForm, OperatorExpr]) -> KernelRangeVerdict:
    """Structural injectivity check, with a dense-range flag.

    For a total shift form, the kernel is trivial exactly when every
    weight is nonzero; the permutation being a bijection, the range then
    contains every basis vector, so the dense-range flag coincides.  For
    column-sparse expression trees, an empty column kills injectivity
    and an empty row kills dense range.
    """
    if isinstance(s, ShiftForm):
        return _weights_zero_check(s.weights)
    # expression tree: structural column/row coverage on a window
    window = 512
    for j in range(1, window + 1):
        nz = sum(v != 0 for v in s.column(j).values())
        if nz == 0:
            return KernelRangeVerdict(
                False, None, j, True, f"column {j} is zero: e_{j} lies in the kernel"
            )
        if nz > 1:
            return KernelRangeVerdict(
                True, None, j, False,
                f"column {j} has {nz} entries; only shift-like trees are"
                " decided structurally"
            )
    for i in range(1, window + 1):
        if not any(v != 0 for v in s.row(i).values()):
            return KernelRangeVerdict(
                True, False, i, True,
                f"row {i} is unreachable: the range misses e_{i}"
            )
    return KernelRangeVerdict(True, True, None, False,
                              f"columns and rows covered on [1..{window}]")


def adjoint_exclusion(s: ShiftForm, lam: Scalar, bound: float = DEFAULT_BOUND,
                      step_cap: int = DEFAULT_STEP_CAP
                      ) -> EigenExclusionCertificate:
    """Exclusion on the adjoint shift, certifying dense range of ``lam I - s``.

    The closure of the range of ``lam I - T`` is the orthocomplement of
    ``ker(conj(lam) I - T*)``, so a divergence witness for the adjoint
    shift at ``conj(lam)`` certifies density.
    """
    return _ShiftCertifier(s, bound, step_cap, False).certificate(lam, "adjoint")


# ---------------------------------------------------------------------------
# The window-product estimate
# ---------------------------------------------------------------------------


def claim1_find_N(alpha_seq: ScalarRule, alpha, epsilon: float) -> int:
    """Smallest cutoff (within the rule's tail slack) for near-unit products.

    Returns ``N`` such that for every finite index set ``D`` contained in
    ``[N, inf)``, the product of ``alpha_n / alpha`` over ``D`` lies in
    ``[1 - epsilon, 1 + epsilon]``: it suffices that the remaining
    absolute log sum not exceed ``min(log(1+eps), -log(1-eps))``.
    """
    if not (0 < epsilon < 1):
        raise PreconditionViolatedError("epsilon must lie in (0, 1)")
    alpha_f = float(alpha)
    if alpha_f <= 0:
        raise PreconditionViolatedError("alpha must be positive")
    lim = alpha_seq.limit()
    if lim is not None and abs(float(lim) - alpha_f) > 1e-12 * alpha_f:
        raise PreconditionViolatedError(
            f"rule limit {lim} disagrees with alpha = {alpha}"
        )
    target = ConstantRule(alpha)
    total_gap = _ratio_deviation_tail(alpha_seq, target, 1)
    if total_gap is None or math.isinf(total_gap):
        raise NotSummableError(
            "sum(1 - alpha_n/alpha) has no finite certified bound"
        )
    if not (alpha_seq.is_real(nonnegative=True) and alpha_seq.attains_zero() is False
            and alpha_seq.tail_index(alpha_f * (1 + 1e-12)) == 1):
        raise PreconditionViolatedError("alpha_n must be positive and bounded by alpha")

    eta = min(math.log1p(epsilon), -math.log1p(-epsilon))

    def log_tail(start: int) -> Optional[float]:
        g = _ratio_deviation_tail(alpha_seq, target, start)
        if g is None or math.isinf(g):
            return None
        if g >= 0.5:
            return math.inf
        return g / (1.0 - g)

    cutoff = 1
    while True:
        lt = log_tail(cutoff)
        if lt is not None and lt <= eta * 1e-3:
            break
        cutoff *= 2
        if cutoff > 1 << 40:
            raise NotSummableError(
                "gap tail does not become summably small; series diverges"
            )
    slack = log_tail(cutoff)
    # absolute log terms on [1, cutoff)
    terms = []
    for n in range(1, cutoff):
        v = float(alpha_seq.value(n))
        terms.append(abs(math.log(v / alpha_f)))
    suffix = slack
    best = cutoff
    for n in range(cutoff - 1, 0, -1):
        suffix += terms[n - 1]
        if suffix <= eta:
            best = n
        else:
            break
    return best


# ---------------------------------------------------------------------------
# Window products of weight ratios (similarity of weighted shifts)
# ---------------------------------------------------------------------------


@record
class BoundedCertified:
    c: float
    C: float
    horizon: int
    tail_log_bound: float


@record
class BoundedNumerically:
    c: float
    C: float
    horizon: int


@record
class UnboundedWitness:
    window: Tuple[int, int]
    value: float
    horizon: int


ShieldsVerdict = Union[BoundedCertified, BoundedNumerically, UnboundedWitness]


def is_bounded_verdict(v: ShieldsVerdict) -> bool:
    return isinstance(v, (BoundedCertified, BoundedNumerically))


def shields_similar(w: ScalarRule, v: ScalarRule, horizon: int,
                    witness_floor: float = 1e-6) -> ShieldsVerdict:
    """Extremes of ``|prod_{j=k}^{k+l} w_j / v_j|`` over windows in [1, horizon].

    Two injective weighted shifts are similar exactly when all window
    products of their weight ratios stay bounded above and away from 0.
    A zero weight makes the ratio products degenerate and is reported
    immediately as an unbounded witness.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    cum = 0.0
    run_min, run_min_at = 0.0, 0
    run_max, run_max_at = 0.0, 0
    best_lo, best_lo_win = math.inf, (1, 1)
    best_hi, best_hi_win = -math.inf, (1, 1)
    for j in range(1, horizon + 1):
        wj, vj = w.value(j), v.value(j)
        if vj == 0:
            return UnboundedWitness((j, j), math.inf, horizon)
        if wj == 0:
            return UnboundedWitness((j, j), 0.0, horizon)
        cum += log_abs(wj) - log_abs(vj)
        lo = cum - run_max
        if lo < best_lo:
            best_lo, best_lo_win = lo, (run_max_at + 1, j)
        hi = cum - run_min
        if hi > best_hi:
            best_hi, best_hi_win = hi, (run_min_at + 1, j)
        if cum < run_min:
            run_min, run_min_at = cum, j
        if cum > run_max:
            run_max, run_max_at = cum, j

    tail_dev = _ratio_deviation_tail(w, v, horizon + 1)
    if tail_dev is None:
        tail_dev = _ratio_deviation_tail(v, w, horizon + 1)
    if tail_dev is not None and tail_dev < 0.5:
        tail_log = tail_dev / (1.0 - tail_dev)
        return BoundedCertified(
            c=math.exp(best_lo - tail_log),
            C=math.exp(best_hi + tail_log),
            horizon=horizon,
            tail_log_bound=tail_log,
        )
    c, C = math.exp(best_lo), math.exp(best_hi)
    if c < witness_floor:
        return UnboundedWitness(best_lo_win, c, horizon)
    if C > 1.0 / witness_floor:
        return UnboundedWitness(best_hi_win, C, horizon)
    return BoundedNumerically(c, C, horizon)


# ---------------------------------------------------------------------------
# Block-model norm blowup (continuous case)
# ---------------------------------------------------------------------------


def block_norm_blowup(alpha_seq: ScalarRule, m: float, M: float, lam: Scalar,
                      bound: float = DEFAULT_BOUND,
                      step_cap: int = DEFAULT_STEP_CAP,
                      epsilon: float = DEFAULT_EPSILON) -> EigenExclusionCertificate:
    """Norm blowup certificate for the block bilateral shift model.

    Cell norms sit in shrinking symmetric intervals around a limit
    ``alpha``; an eigenvector's block norms obey

        ||x^(n)||  >=  m ||x^(0)|| |lam|^{-n} prod_{k<n} alpha_{2k-1}   (n >= 1)
        ||x^(n)||  >=  ||x^(0)|| (|lam| / ((1+g_k) alpha))^{|n|}-style  (n <= -1)

    so three regimes arise: ``|lam| < alpha`` diverges forward,
    ``|lam| > alpha`` diverges backward (the correction product over the
    summable gaps ``g_k`` converges), and on ``|lam| = alpha`` the
    forward bound has a positive constant floor past the Claim-1 cutoff,
    contradicting square-summability.
    """
    if not (0 < m <= M):
        raise PreconditionViolatedError("need 0 < m <= M")
    if lam == 0:
        raise PreconditionViolatedError("lambda must be nonzero")
    alpha = alpha_seq.limit()
    if alpha is None:
        raise PreconditionViolatedError("alpha sequence has no certified limit")
    alpha_f = float(alpha)
    if alpha_f <= 0:
        raise PreconditionViolatedError("alpha must be positive")
    gap_total = _ratio_deviation_tail(alpha_seq, ConstantRule(alpha), 1)
    if gap_total is None or math.isinf(gap_total):
        raise PreconditionViolatedError(
            "interval gaps are not certifiably summable"
        )

    r = abs(complex(lam))
    details = (
        ("alpha", alpha_f), ("m", float(m)), ("M", float(M)),
        ("epsilon", float(epsilon)),
    )
    log_bound = math.log(bound)

    if abs(r - alpha_f) <= 1e-12 * alpha_f:
        k = claim1_find_N(alpha_seq, alpha, epsilon)
        total = math.log(m) + math.log1p(-epsilon) - k * math.log(r)
        for j in range(1, k):
            total += math.log(float(alpha_seq.value(2 * j - 1)))
        regime, bound, region = "constant-floor", 0.0, f"circle |lambda| = {alpha_f!r}"
        details += (("claim1_N", k),)
    else:
        # a forward step 1 reads no alpha; it is checked even when step_cap < 1
        forward, log_r, log_alpha = r < alpha_f, math.log(r), math.log(alpha_f)
        regime = "forward" if forward else "backward"
        region = f"0 < |lambda| <= {r!r}" if forward else f"|lambda| >= {r!r}"
        total, best = math.log(m) if forward else 0.0, 0.0
        for k in range(1, (max(step_cap, 1) if forward else step_cap) + 1):
            if forward:
                total += (math.log(float(alpha_seq.value(2 * k - 3)))
                          if k > 1 else 0.0) - log_r
            else:
                g = 1.0 - float(alpha_seq.value(k)) / alpha_f
                total += log_r - log_alpha - math.log1p(g)
            if total > log_bound:
                break
            best = max(best, total)
        else:
            raise StepCapExceededError(
                f"no {regime} blowup witness within {step_cap} steps for "
                f"|lambda|={r}; the best log block-norm bound {best:.6g} is "
                f"{log_bound - best:.6g} short of log(bound) = {log_bound:.6g}",
                lam=lam, steps=step_cap, best_log_magnitude=best,
                gap=log_bound - best,
            )
    return EigenExclusionCertificate(complex(lam), k, _safe_exp(total), "block-norm",
                                     bound, regime, 1, "direct", region, details)


def replay_block_certificate(alpha_seq: ScalarRule,
                             cert: EigenExclusionCertificate) -> float:
    """Re-run a block-norm certificate's recurrence; returns the magnitude."""
    if cert.recurrence_kind != "block-norm":
        raise ValueError("not a block-norm certificate")
    alpha_f = cert.detail("alpha")
    m = cert.detail("m")
    epsilon = cert.detail("epsilon")
    r = abs(cert.lam)
    if cert.regime == "constant-floor":
        N = cert.witness_index
        total = math.log(m) + math.log1p(-epsilon) - N * math.log(r)
        for k in range(1, N):
            total += math.log(float(alpha_seq.value(2 * k - 1)))
        return _safe_exp(total)
    if cert.regime == "forward":
        total = math.log(m) - math.log(r)
        for n in range(2, cert.witness_index + 1):
            total += math.log(float(alpha_seq.value(2 * (n - 1) - 1))) - math.log(r)
        return _safe_exp(total)
    if cert.regime == "backward":
        total = 0.0
        for k in range(1, cert.witness_index + 1):
            g = 1.0 - float(alpha_seq.value(k)) / alpha_f
            total += math.log(r) - math.log(alpha_f) - math.log1p(g)
        return _safe_exp(total)
    raise ValueError(f"unknown regime {cert.regime!r}")


# ---------------------------------------------------------------------------
# Dense eigensolver for truncations
# ---------------------------------------------------------------------------

_EIG_MAX_DIM = 512
_EIG_RESIDUAL_TOL = 1e-8
# Below this max|a_ij| the squares of residual norms underflow.
_EIG_TINY_TOP = 2.0 ** -512


def dense_eigs(M) -> list:
    """Eigenvalues of a general matrix through LAPACK, with a residual guarantee.

    Each returned eigenvalue comes from a pair ``(lam, x)`` with
    ``||Mx - lam x|| <= 1e-8 ||M|| ||x||``; the list is sorted by real
    part, then imaginary part, for deterministic output.  Pairs are first
    held to the largest column norm, a lower bound on ``||M||``; the
    exact 2-norm (an SVD) is computed only when some pair misses it, and
    it alone decides a rejection.  When the residual norms overflow, or
    ``max|m_ij|`` is so small that their squares underflow, both sides of
    the check are taken for ``M / max|m_ij|``, the same ratio.
    Truncation corners go through :func:`corner_eigs`; this is its
    fallback and the reference it is tested against.
    """
    import numpy as np
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise PreconditionViolatedError("matrix must be square")
    n = A.shape[0]
    if n > _EIG_MAX_DIM:
        raise PreconditionViolatedError(f"dimension {n} exceeds cap {_EIG_MAX_DIM}")
    try:
        vals, vecs = np.linalg.eig(A)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailureError(f"eigensolver failed: {exc}") from exc
    vec_norms = np.linalg.norm(vecs, axis=0)
    abs_a = np.abs(A)
    top = abs_a.max(initial=0.0)
    # Squares of residuals overflow near the top of the float range and
    # underflow near its bottom; there every norm below is taken in units
    # of max|a_ij|.
    unit = top if 0 < top < _EIG_TINY_TOP else 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = np.linalg.norm((A / unit) @ vecs - vecs * (vals / unit),
                                   axis=0)
    if not np.all(np.isfinite(residuals)):
        unit = top
        residuals = np.linalg.norm((A / unit) @ vecs - vecs * (vals / unit),
                                   axis=0)
    # The largest column norm, of |A| / max|a_ij| so squares neither
    # overflow nor round up as subnormals, shrunk so that rounding cannot
    # lift it above the computed 2-norm: whatever passes it passes below.
    floor = (top / unit) * np.linalg.norm(abs_a / (top or 1.0), axis=0).max(
        initial=0.0) * (1.0 - 1e-12)
    if not np.all(residuals <= _EIG_RESIDUAL_TOL * (floor * vec_norms)):
        norm = np.linalg.norm(A / unit, 2)
        scale = norm * vec_norms
        bad = residuals > _EIG_RESIDUAL_TOL * np.maximum(scale, 1e-300)
        if norm > 0 and np.any(bad):
            failing = int(bad.sum())
            worst = float(np.max(residuals / np.maximum(scale, 1e-300)))
            raise ConvergenceFailureError(
                f"residual guarantee violated for {failing} eigenpairs: "
                f"worst relative residual {worst:.3g} against tol "
                f"{_EIG_RESIDUAL_TOL:g}",
                failing=failing, worst_residual=worst, tol=_EIG_RESIDUAL_TOL,
            )
    return sorted((complex(v) for v in vals), key=lambda z: (z.real, z.imag))


def corner_eigs(entries: dict, n: int) -> list:
    """Eigenvalues of the leading ``n x n`` part of ``corner_entries`` output.

    The corners the package builds are partial monomial: at most one
    numerically nonzero entry per row and per column.  Then
    ``M e_j = m_ij e_i`` is a partial injection ``j -> i``, and
    :func:`~schauderspec.index_maps.cycles_and_chains` splits it.  A node
    on a chain or a 1-cycle contributes its diagonal entry as stored
    (``0`` when absent), as LAPACK returns the eigenvalues it isolates.
    A k-cycle (k >= 2) contributes the k-th roots of its weight product,
    formed as modulus ``exp(mean log|w|)`` and phase, so a long cycle of
    small weights does not underflow.  Those are exact eigenvalues of
    explicit eigenvectors; for a k-cycle root only the closing component
    of ``Mx - lam x`` is nonzero, and it is held, in scaled form, to the
    guarantee of :func:`dense_eigs` with ``||M||_2 = max|m_ij|``.  Any
    other corner, a non-finite entry, or a cycle that misses the check is
    built dense only then and goes whole to :func:`dense_eigs`, which
    alone decides a rejection.  Sorted as :func:`dense_eigs` sorts; cycle
    roots may differ from LAPACK's by ulps.
    """
    if n > _EIG_MAX_DIM:
        raise PreconditionViolatedError(f"dimension {n} exceeds cap {_EIG_MAX_DIM}")
    succ, weight, norm = {}, {}, 0.0
    for (i, j), v in entries.items():
        if i < n and j < n and (z := complex(v)):
            if j in succ or not math.isfinite(abs(z)):
                return dense_eigs(corner_array(entries, n))
            succ[j], weight[j], norm = i, z, max(norm, abs(z))
    if len(set(succ.values())) < len(succ):
        return dense_eigs(corner_array(entries, n))
    cycles, _chains = cycles_and_chains(range(n), succ)
    on_cycles, vals = set(), []
    for cycle in cycles:
        if len(cycle) > 1:
            roots = _cycle_roots([weight[j] for j in cycle], norm)
            if roots is None:
                return dense_eigs(corner_array(entries, n))
            vals.extend(roots)
            on_cycles.update(cycle)
    vals.extend(complex(entries.get((j, j), 0))
                for j in range(n) if j not in on_cycles)
    return sorted(vals, key=lambda z: (z.real, z.imag))


def _cycle_roots(w: list, norm: float) -> Optional[list]:
    """The k-th roots of ``prod(w)``, or None if one misses the residual check.

    For a root ``lam``, ``x_0 = 1`` and ``x_{t+1} = w_t x_t / lam`` give
    ``Mx - lam x`` zero off the cycle's first node, and there
    ``lam (prod(w) / lam^k - 1)``.  With ``||x|| >= max_t |x_t|`` the
    guarantee holds when ``(|lam| / norm) |prod(w) / lam^k - 1| /
    max_t |x_t| <= tol``; every factor is formed from logarithms and
    phases taken in units of ``max|w|``.
    """
    import numpy as np
    w = np.asarray(w, dtype=complex)
    k = len(w)
    mags = np.abs(w)
    big = mags.max()
    # A ratio below the float range gives -inf or nan here, and the check
    # below then fails.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        logs = np.log(mags / big)
        log_prod = math.fsum(logs)
        arg_prod = math.fsum(np.angle(w))
        phases = (arg_prod + 2 * math.pi * np.arange(k)) / k
        roots = big * np.exp(log_prod / k) * np.exp(1j * phases)
        log_mods = np.log(np.abs(roots) / big)
        turns = arg_prod - k * np.angle(roots)
        turns -= 2 * math.pi * np.round(turns / (2 * math.pi))
        closing = np.abs(np.expm1((log_prod - k * log_mods) + 1j * turns))
        log_x = np.cumsum(logs[:-1] - log_mods.max())
        ratios = (np.abs(roots) / norm * closing
                  * np.exp(-max(0.0, log_x.max(initial=0.0))))
    if not np.all(ratios <= _EIG_RESIDUAL_TOL):
        return None
    return roots.tolist()


# ---------------------------------------------------------------------------
# Lambda grids
# ---------------------------------------------------------------------------


@record
class CertificateGridConfig:
    """Grid + certificate parameters shared by the deflation pipelines."""

    moduli: int = 16
    phases: int = 8
    min_modulus: float = 1e-3
    max_modulus: Optional[float] = None
    bound: float = DEFAULT_BOUND
    step_cap: int = DEFAULT_STEP_CAP


def sup_abs_weight(rule: ScalarRule) -> float:
    """``|w_1|``: the largest magnitude of weights certified |.|-nonincreasing,
    the only ones whose grid the orbit walks certify."""
    return float(abs(rule.value(1)))


def _grid_top(cfg: CertificateGridConfig, max_weight: float) -> float:
    """The largest modulus of ``lambda_grid``."""
    if cfg.moduli == 1:
        return cfg.min_modulus
    top = cfg.max_modulus if cfg.max_modulus is not None else 10.0 * max_weight
    if top <= cfg.min_modulus:
        top = cfg.min_modulus * 10.0
    return top


def lambda_grid(cfg: CertificateGridConfig, max_weight: float) -> Tuple[complex, ...]:
    """Logarithmically spaced moduli times equally spaced phases."""
    if cfg.moduli == 1:
        radii = [cfg.min_modulus]
    else:
        lo, hi = math.log(cfg.min_modulus), math.log(_grid_top(cfg, max_weight))
        radii = [
            math.exp(lo + (hi - lo) * i / (cfg.moduli - 1))
            for i in range(cfg.moduli)
        ]
    units = [(math.cos(theta), math.sin(theta))
             for theta in [2.0 * math.pi * q / cfg.phases for q in range(cfg.phases)]]
    return tuple([complex(rr * c, rr * s) for rr in radii for c, s in units])


def grid_certificates(s: ShiftForm, grid: Sequence[Scalar],
                      bound: float = DEFAULT_BOUND,
                      step_cap: int = DEFAULT_STEP_CAP,
                      check_weights: bool = True
                      ) -> Tuple[EigenExclusionCertificate, ...]:
    """Direct and adjoint certificates for every grid point, or fail loudly.

    The certificates come interleaved, direct then adjoint for each
    ``lam`` in grid order, each equal to what ``shift_eigen_exclude`` and
    ``adjoint_exclusion`` return for that point alone; one walk of the
    orbit per distinct ``log|lam|`` decides both sides.
    """
    return tuple(_ShiftCertifier(s, bound, step_cap, check_weights).grid(grid))
