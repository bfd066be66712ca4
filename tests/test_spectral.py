import math
import warnings
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schauderspec import (
    AffineRule,
    BoundedCertified,
    BoundedNumerically,
    CallableRule,
    CertificateGridConfig,
    ConstantRule,
    ConvergenceFailureError,
    Diagonal,
    ExplicitThenRule,
    FiniteSetMembers,
    GeometricRule,
    KernelRangeVerdict,
    NotSummableError,
    OffsetRule,
    PowerLawRule,
    PreconditionViolatedError,
    RepeatedRule,
    ScaledRule,
    SchauderSpecError,
    ShiftForm,
    Spread,
    SpreadSpec,
    StepCapExceededError,
    UnboundedWitness,
    UnsupportedClassError,
    adjoint_exclusion,
    block_norm_blowup,
    cibws,
    claim1_find_N,
    corner_eigs,
    dense_eigs,
    forward_unilateral_shift,
    grid_certificates,
    identity_permutation,
    is_schauder,
    kernel_trivial,
    lambda_grid,
    naturals,
    replay_block_certificate,
    replay_shift_certificate,
    schauder_spectrum,
    shields_similar,
    shift_eigen_exclude,
    sigma_bilateral,
)
from schauderspec import spectral
from schauderspec.op_algebra import (
    adjoint_shift_form,
    corner_entries,
    truncate_complex,
)
from schauderspec.sequences import ArithmeticSequence, log_abs

RECIP = PowerLawRule(Fraction(1), 1)  # t_k = 1/k
GEO_HALF = GeometricRule(Fraction(1), Fraction(1, 2))  # 2^-k
ALPHA_TO_ONE = AffineRule(1, GeometricRule(-1, Fraction(1, 2)))  # 1 - 2^-n


def basic_shift(rule=RECIP):
    return ShiftForm(sigma_bilateral(), rule)


def oracle_backward_witness(lam_abs, bound, even_weight):
    """Smallest k with lam^k / prod_{j<=k} w(2j) > bound, by direct iteration."""
    prod = 1.0
    for k in range(1, 100_000):
        prod *= lam_abs / even_weight(k)
        if prod > bound:
            return k, prod
    raise AssertionError("oracle found no witness")


class TestShiftEigenExclude:
    def test_unit_lambda_witness(self):
        # even-branch weights t_{2j} = 1/(2j): the coefficient is 2^k k!
        k, value = oracle_backward_witness(1.0, 1e6, lambda j: 1.0 / (2 * j))
        cert = shift_eigen_exclude(basic_shift(), 1.0, bound=1e6)
        assert cert.regime == "backward-orbit"
        assert cert.witness_index == k
        assert math.isclose(cert.attained_magnitude, value, rel_tol=1e-9)

    def test_small_lambda_witness(self):
        k, value = oracle_backward_witness(0.1, 1e6, lambda j: 1.0 / (2 * j))
        cert = shift_eigen_exclude(basic_shift(), 0.1, bound=1e6)
        assert cert.witness_index == k
        assert math.isclose(cert.attained_magnitude, value, rel_tol=1e-9)

    def test_zero_lambda_rejected(self):
        with pytest.raises(PreconditionViolatedError):
            shift_eigen_exclude(basic_shift(), 0.0)

    def test_witness_depends_on_modulus_only(self):
        a = shift_eigen_exclude(basic_shift(), 0.5, bound=1e8)
        b = shift_eigen_exclude(basic_shift(), 0.5j, bound=1e8)
        assert a.witness_index == b.witness_index
        assert a.attained_magnitude == b.attained_magnitude

    def test_non_vanishing_weights_rejected(self):
        with pytest.raises(PreconditionViolatedError):
            shift_eigen_exclude(basic_shift(ConstantRule(1)), 2.0)

    def test_multi_orbit_rejected_by_default(self):
        diag_as_shift = ShiftForm(identity_permutation(), RECIP)
        with pytest.raises(UnsupportedClassError, match="single-orbit"):
            shift_eigen_exclude(diag_as_shift, 2.0)

    def test_step_cap_exceeded_is_loud(self):
        with pytest.raises(StepCapExceededError):
            shift_eigen_exclude(basic_shift(), 1.0, bound=1e12, step_cap=3)

    def test_log_space_survives_extreme_weights(self):
        # weight magnitudes race far outside float range; the log walk
        # must not overflow or underflow on the way to the witness, and
        # the magnitude saturates to inf with the log kept in details
        tiny = GeometricRule(Fraction(1), Fraction(1, 10 ** 250))
        cert = shift_eigen_exclude(basic_shift(tiny), 1e-3, bound=1e12)
        assert cert.witness_index <= 3
        assert cert.attained_magnitude > 1e12
        assert cert.detail("log_magnitude") > math.log(1e12)

    @given(st.floats(min_value=-3, max_value=1).map(lambda e: 10.0 ** e),
           st.integers(min_value=0, max_value=7))
    @settings(max_examples=60, deadline=None)
    def test_replay_invariant(self, modulus, phase_idx):
        lam = modulus * complex(math.cos(2 * math.pi * phase_idx / 8),
                                math.sin(2 * math.pi * phase_idx / 8))
        cert = shift_eigen_exclude(basic_shift(), lam)
        replayed = replay_shift_certificate(basic_shift(), cert)
        assert abs(replayed - cert.attained_magnitude) <= 1e-12 * cert.attained_magnitude
        assert cert.attained_magnitude > cert.bound


def oracle_divergence(s, lam, bound, step_cap=100_000, start=1):
    """A fresh per-lambda walk: no orbit cache, no memo, same float order."""
    la, log_bound = log_abs(lam), math.log(bound)
    fwd_idx = bwd_idx = start
    fwd_log = bwd_log = 0.0
    for k in range(1, step_cap + 1):
        bwd_idx = s.perm.inverse(bwd_idx)
        bwd_log += la - log_abs(s.weights.value(bwd_idx))
        if bwd_log > log_bound:
            return "backward-orbit", k, bwd_log
        fwd_log += log_abs(s.weights.value(fwd_idx)) - la
        fwd_idx = s.perm.forward(fwd_idx)
        if fwd_log > log_bound:
            return "forward-orbit", k, fwd_log
    raise AssertionError("oracle found no witness")


def per_lambda_certificates(s, grid, bound, step_cap=100_000,
                            check_weights=True):
    out = []
    for lam in grid:
        out.append(shift_eigen_exclude(s, lam, bound, step_cap,
                                       check_weights=check_weights))
        out.append(adjoint_exclusion(s, lam, bound, step_cap))
    return out


def first_error(fn):
    try:
        fn()
    except SchauderSpecError as exc:
        return type(exc), str(exc)
    return None


vanishing_rules = st.one_of(
    st.builds(PowerLawRule, st.floats(0.1, 10), st.floats(0.3, 2.0)),
    # complex weights: the adjoint reads |conj w| from the direct rays
    st.builds(ScaledRule,
              st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0,
                                 allow_nan=False, allow_infinity=False),
              st.builds(PowerLawRule, st.floats(0.1, 10), st.floats(0.3, 2.0))),
    st.builds(PowerLawRule, st.fractions(Fraction(1, 10), 10, max_denominator=20),
              st.integers(1, 3)),
    st.builds(GeometricRule, st.fractions(Fraction(1, 10), 10, max_denominator=20),
              st.fractions(Fraction(1, 10), Fraction(9, 10), max_denominator=10)),
)
# weights that may rise and cancel, float and exact: the adjoint walk and an
# unchecked direct walk certify them
joint_walk_rules = st.one_of(
    vanishing_rules,
    st.builds(ExplicitThenRule,
              st.lists(st.sampled_from([1.0, 0.5, 0.25, 2.0, 0.1, 1e-3, Fraction(1, 3),
                                        Fraction(3, 2), 4]), min_size=1, max_size=6).map(tuple),
              st.builds(PowerLawRule, st.sampled_from([1.0, Fraction(1, 2)]),
                        st.sampled_from([0.5, 1]))),
)
grid_configs = st.builds(
    CertificateGridConfig, moduli=st.integers(1, 6), phases=st.integers(1, 8),
    min_modulus=st.floats(1e-3, 1.0),
)
extra_lambdas = st.lists(
    st.complex_numbers(min_magnitude=1e-3, max_magnitude=20.0,
                       allow_nan=False, allow_infinity=False),
    max_size=6,
)


class TestGridCertificates:
    @given(vanishing_rules, grid_configs, extra_lambdas,
           st.sampled_from([1e6, 1e12, 1e30]))
    @settings(max_examples=60, deadline=None)
    def test_engine_matches_per_lambda_path(self, rule, cfg, extra, bound):
        s = basic_shift(rule)
        grid = lambda_grid(cfg, spectral.sup_abs_weight(rule)) + tuple(extra)
        certs = grid_certificates(s, grid, bound)
        assert list(certs) == per_lambda_certificates(s, grid, bound)
        adj = adjoint_shift_form(s)
        for lam, direct, adjoint in zip(grid, certs[::2], certs[1::2]):
            assert (direct.side, adjoint.side) == ("direct", "adjoint")
            assert (direct.regime, direct.witness_index,
                    direct.detail("log_magnitude")) == oracle_divergence(s, lam, bound)
            assert (adjoint.regime, adjoint.witness_index,
                    adjoint.detail("log_magnitude")) == oracle_divergence(
                        adj, complex(lam).conjugate(), bound)

    @given(st.builds(CertificateGridConfig, moduli=st.integers(1, 40),
                     phases=st.integers(1, 64), min_modulus=st.floats(1e-6, 10.0),
                     max_modulus=st.none() | st.floats(1e-6, 1e3)),
           st.floats(1e-6, 1e3))
    @example(CertificateGridConfig(moduli=64, phases=32), 1.0)
    @example(CertificateGridConfig(moduli=16, phases=8, max_modulus=0.5), 2.0)
    @settings(max_examples=100, deadline=None)
    def test_lambda_grid_points_are_the_per_point_formula(self, cfg, max_weight):
        # one cos and sin per phase: every grid float stays bit for bit
        if cfg.moduli == 1:
            radii = [cfg.min_modulus]
        else:
            lo = math.log(cfg.min_modulus)
            hi = math.log(spectral._grid_top(cfg, max_weight))
            radii = [math.exp(lo + (hi - lo) * i / (cfg.moduli - 1))
                     for i in range(cfg.moduli)]
        want = []
        for rr in radii:
            for q in range(cfg.phases):
                theta = 2.0 * math.pi * q / cfg.phases
                want.append(complex(rr * math.cos(theta), rr * math.sin(theta)))
        assert repr(lambda_grid(cfg, max_weight)) == repr(tuple(want))

    def test_last_ulp_moduli_are_walked_separately(self):
        # one ring of a 16 x 8 grid carries |lambda| values one ulp apart;
        # a rounded memo key would hand one of them the other's witness
        grid = lambda_grid(CertificateGridConfig(moduli=16, phases=8), 1.0)
        rings = [grid[i:i + 8] for i in range(0, len(grid), 8)]
        assert any(len({abs(lam) for lam in ring}) > 1 for ring in rings)
        s = basic_shift(PowerLawRule(1.0, 0.5))
        certifier = spectral._ShiftCertifier(s, 1e30, 100_000)
        certs = [certifier.certificate(lam, side)
                 for lam in grid for side in ("direct", "adjoint")]
        assert certs == per_lambda_certificates(s, grid, 1e30)
        assert sum(side == "direct" for side, _la in certifier.memo) == len(
            {log_abs(lam) for lam in grid})

    def test_repeated_moduli_fill_in_only_their_own_lambdas(self):
        # 0.001 and 0.0010000000000000002 share one math.log but print
        # different regions; signed zeros and repeated phases share a modulus
        tiny = 0.0010000000000000002
        assert math.log(tiny) == math.log(0.001)
        grid = [0.001, tiny * 1j, complex(-0.0, 0.001), complex(0.001, -0.0),
                complex(-0.001, 0.0), complex(-0.0, -tiny), complex(0.5, -0.0),
                0.5j, complex(-0.5, -0.0), complex(0.3, 0.4), complex(0.3, 0.4)]
        s = basic_shift(PowerLawRule(1.0, 0.5))
        certifier = spectral._ShiftCertifier(s, 1e30, 100_000)
        certs = [certifier.certificate(lam, side)
                 for lam in grid for side in ("direct", "adjoint")]
        # == sees no sign of zero; repr does
        assert list(map(repr, certs)) == list(map(repr, per_lambda_certificates(
            s, grid, 1e30)))
        assert {c.covered_region for c in certs} == {
            "circle |lambda| = 0.001", f"circle |lambda| = {tiny!r}",
            "circle |lambda| = 0.5"}
        # the float 0.001 is walked directly; every complex walk is kept once
        assert {key: walk["covered_region"] for key, walk in certifier.walks.items()} == {
            (side, m): f"circle |lambda| = {m!r}"
            for side in ("direct", "adjoint") for m in (0.001, tiny, 0.5)}
        for lam, adjoint in zip(grid, certs[1::2]):
            assert repr(adjoint.lam) == repr(complex(lam))
            assert repr(adjoint.detail("adjoint_lambda")) == repr(
                complex(lam).conjugate())

    def test_orbit_cache_grows_only_as_deep_as_the_walks(self):
        s = basic_shift(PowerLawRule(1.0, 0.2))
        grid = lambda_grid(CertificateGridConfig(moduli=8, phases=4), 1.0)
        certifier = spectral._ShiftCertifier(s, 1e40, 100_000)
        certs = [certifier.certificate(lam, side)
                 for lam in grid for side in ("direct", "adjoint")]
        # a walk reads its backward ray through the witness step and its
        # forward ray one step less when the backward walk diverged; the
        # adjoint's backward walk reads the direct forward ray and vice versa
        read = {"back": 0, "fwd": 0}
        for c in certs:
            near, far = ("back", "fwd") if c.side == "direct" else ("fwd", "back")
            k = c.witness_index
            read[near] = max(read[near], k)
            read[far] = max(read[far], k - (c.regime == "backward-orbit"))
        assert (len(certifier.back), len(certifier.fwd)) == (read["back"], read["fwd"])

    def test_grid_evaluates_each_orbit_weight_once(self):
        counts = Counter()

        def weight(n):
            counts[n] += 1
            return 1.0 / n

        s = basic_shift(CallableRule(weight))
        grid = lambda_grid(CertificateGridConfig(moduli=8, phases=4), 1.0)
        certifier = spectral._ShiftCertifier(s, 1e40, 100_000, check_weights=False)
        certs = [certifier.certificate(lam, side)
                 for lam in grid for side in ("direct", "adjoint")]
        assert certs == per_lambda_certificates(
            basic_shift(CallableRule(lambda n: 1.0 / n)), grid, 1e40,
            check_weights=False)
        sigma = sigma_bilateral()
        orbit, idx = [], 1
        for _ in certifier.back:
            idx = sigma.inverse(idx)
            orbit.append(idx)
        idx = 1
        for _ in certifier.fwd:
            orbit.append(idx)
            idx = sigma.forward(idx)
        assert len(certifier.back) > 10 and len(certifier.fwd) > 10
        assert dict(counts) == {n: 1 for n in orbit}

    @given(st.integers(1, 40), st.booleans(), st.sampled_from(["direct", "adjoint"]),
           st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_zero_weight_error_parity(self, steps, backward, side, moduli):
        # a zero weight at orbit step ``steps`` of one side's walk: moduli
        # that diverge earlier certify, the first walk that reaches it fails
        sigma = sigma_bilateral()
        step = sigma.inverse if (side == "direct") == backward else sigma.forward
        walked = 1
        for _ in range(steps if backward else steps - 1):
            walked = step(walked)
        # the adjoint weight at i is w(perm^-1(i))
        zero_at = walked if side == "direct" else sigma.inverse(walked)
        rule = CallableRule(lambda n: 0.0 if n == zero_at else 1.0 / n)
        s = basic_shift(rule)
        grid = [m * complex(math.cos(m), math.sin(m)) for m in moduli]
        engine = first_error(lambda: grid_certificates(
            s, grid, 1e12, check_weights=False))
        assert engine == first_error(lambda: per_lambda_certificates(
            s, grid, 1e12, check_weights=False))
        failed = None
        for lam in grid:
            if first_error(lambda: shift_eigen_exclude(
                    s, lam, 1e12, check_weights=False)) is not None:
                failed = lam, "direct"
                break
            if first_error(lambda: adjoint_exclusion(s, lam, 1e12)) is not None:
                failed = lam, "adjoint"
                break
        assert (engine is None) == (failed is None)
        if engine is not None:
            assert engine[0] is PreconditionViolatedError
            # the zero is one weight on both sides' walks (the direct
            # backward step k is the adjoint forward step k); each side
            # names it by its own index, as the reference walk does
            lam, failed_side = failed
            regime = ("backward-orbit" if backward == (failed_side == side)
                      else "forward-orbit")
            if failed_side == "direct":
                shift, walked_lam = s, lam
            else:
                shift, walked_lam = adjoint_shift_form(s), complex(lam).conjugate()
            with pytest.raises(PreconditionViolatedError) as ref:
                spectral._walk_logs(shift, walked_lam, regime, steps, 1)
            assert engine[1] == f"{ref.value}; run kernel_trivial instead"
            named = zero_at if failed_side == "direct" else sigma.forward(zero_at)
            assert str(ref.value) == f"zero weight at index {named}"

    @given(joint_walk_rules, st.lists(st.one_of(
               # a modulus, its next ulps up and a phase that keeps |lambda| exact
               st.tuples(st.floats(1e-3, 10.0), st.integers(0, 3), st.integers(0, 3)),
               # the modulus of a weight of the orbit, where sums cancel to 0.0
               st.tuples(st.integers(1, 5), st.just(None), st.integers(0, 3))),
               min_size=1, max_size=6),
           st.sampled_from([0.25, 0.5, 0.9, 2.0, 1e6, 1e30]), st.booleans())
    @example(ExplicitThenRule((0.25, 1.0), PowerLawRule(1.0, 0.5)), [(1, None, 0)], 0.25, False)
    @settings(max_examples=150, deadline=None)
    def test_one_walk_decides_both_sides(self, rule, points, bound, adjoint_first):
        # the adjoint's sums are the direct walk's negated: at |lambda| = |w_1|
        # and bound 1/4 the direct walk finds the adjoint's witness 0.0, not -0.0
        s = basic_shift(rule)
        grid = []
        for m, ulps, phase in points:
            if ulps is None:
                m = abs(complex(rule.value(m)))
            else:
                for _ in range(ulps):
                    m = math.nextafter(m, math.inf)
            grid.append((complex(m, 0.0), complex(0.0, m), complex(-m, -0.0),
                         complex(-0.0, -m))[phase])
        certs = spectral._ShiftCertifier(s, bound, 100_000, check_weights=False).grid(grid)
        twins = [f(s, lam, bound) for lam in grid for f in (
            lambda s, lam, bound: shift_eigen_exclude(s, lam, bound, check_weights=False),
            adjoint_exclusion)]
        assert list(map(repr, certs)) == list(map(repr, twins))
        sides = ("adjoint", "direct") if adjoint_first else ("direct", "adjoint")
        certifier = spectral._ShiftCertifier(s, bound, 100_000, check_weights=False)
        by_side = {(i, side): certifier.certificate(lam, side)
                   for i, lam in enumerate(grid) for side in sides}
        assert [repr(by_side[i, side]) for i in range(len(grid))
                for side in ("direct", "adjoint")] == list(map(repr, certs))
        adj = adjoint_shift_form(s)
        for lam, direct, adjoint in zip(grid, certs[::2], certs[1::2]):
            assert repr((direct.regime, direct.witness_index, direct.detail(
                "log_magnitude"))) == repr(oracle_divergence(s, lam, bound))
            assert repr((adjoint.regime, adjoint.witness_index, adjoint.detail(
                "log_magnitude"))) == repr(oracle_divergence(adj, lam.conjugate(), bound))
        # a certificate copied from its walk's first is the one the
        # constructor builds, down to the order of its instance dict
        for c in certs:
            built = spectral.EigenExclusionCertificate(*(getattr(c, n) for n in c._record_fields))
            assert (c == built and repr(c) == repr(built) and c.walk_key == built.walk_key
                    and list(vars(c)) == list(vars(built)))

    @given(st.integers(0, 30), st.lists(st.floats(1e-3, 10.0), min_size=1,
                                       max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_step_cap_error_parity(self, step_cap, moduli):
        s = basic_shift()
        grid = [m * complex(math.cos(m), math.sin(m)) for m in moduli]
        engine = first_error(lambda: grid_certificates(s, grid, 1e12, step_cap))
        assert engine == first_error(lambda: per_lambda_certificates(
            s, grid, 1e12, step_cap))
        if engine is not None:
            assert engine[0] is StepCapExceededError

    def test_single_orbit_error_parity(self):
        s = ShiftForm(identity_permutation(), RECIP)
        grid = [0.5, 2.0]
        engine = first_error(lambda: grid_certificates(s, grid, 1e12))
        assert engine is not None
        assert engine == first_error(lambda: per_lambda_certificates(s, grid, 1e12))

    def test_step_cap_error_reports_walk_state(self):
        s = basic_shift()
        with pytest.raises(StepCapExceededError) as info:
            shift_eigen_exclude(s, 1.0, bound=1e12, step_cap=3)
        exc = info.value
        walked = [spectral._walk_logs(s, 1.0, regime, k, 1)
                  for regime in ("backward-orbit", "forward-orbit")
                  for k in range(1, 4)]
        assert exc.lam == 1.0
        assert exc.steps == 3
        assert exc.best_log_magnitude == max([0.0] + walked)
        assert exc.gap == math.log(1e12) - exc.best_log_magnitude > 0
        assert "short of log(bound)" in str(exc)


class TestKernelTrivial:
    def test_cibws_weights_nonzero(self):
        verdict = kernel_trivial(cibws())
        assert verdict.injective and verdict.dense_range and verdict.certified

    def test_forward_shift_dense_range_flag(self):
        verdict = kernel_trivial(forward_unilateral_shift())
        assert verdict.injective
        assert verdict.dense_range is False
        assert verdict.offending_index == 1  # row 1 unreachable

    def test_backward_shift_kernel(self):
        verdict = kernel_trivial(
            Spread(SpreadSpec(ArithmeticSequence(2, 1), naturals()))
        )
        assert not verdict.injective
        assert verdict.offending_index == 1

    def test_zero_weight_reported(self):
        rule = ExplicitThenRule((Fraction(1), 0, Fraction(1, 3)), RECIP)
        verdict = kernel_trivial(ShiftForm(sigma_bilateral(), rule))
        assert not verdict.injective
        assert verdict.offending_index == 2


def reference_shift_kernel_verdict(s):
    """The shift-form zero check, written out.

    The rule's ``attains_zero`` decides, and a rule that decides nothing is
    refused.  The witness of a zero is the first one, found here by reading
    the first 4096 weights: every zero drawn below lies among them.
    """
    az = s.weights.attains_zero()
    if az is None:
        raise PreconditionViolatedError("cannot certify that the weights are nonzero")
    if az is False:
        return KernelRangeVerdict(True, True, None, True,
                                  "weights certified nonzero; permutation total")
    ln = s.weights.length()
    n = next(n for n in range(1, min(4096, ln or 4096) + 1) if s.weights.value(n) == 0)
    return KernelRangeVerdict(False, False, n, True, f"weight at index {n} is zero")


@st.composite
def zero_check_rules(draw):
    """Finite, exactly-zero, late-zero and undecided rules."""
    values = st.lists(st.sampled_from([1, Fraction(1, 2), 0.25, 0, 1j]),
                      min_size=1, max_size=50)
    late_zero = ExplicitThenRule((1, 0), ConstantRule(1))
    kind = draw(st.sampled_from(["finite", "finite-affine", "zero", "late-zero", "offset",
                                 "callable", "nonzero"]))
    if kind == "finite":
        return ExplicitThenRule(tuple(draw(values)))
    if kind == "finite-affine":
        # its normal form reads each of its terms once
        return AffineRule(1, ExplicitThenRule(tuple(draw(
            st.lists(st.sampled_from([-1, 0, 1j]), min_size=1, max_size=50)))))
    if kind == "zero":
        return draw(st.sampled_from([
            ConstantRule(0), GeometricRule(0, Fraction(1, 2)),
            ScaledRule(0, RECIP), ExplicitThenRule(tuple(draw(values)) + (0,), RECIP)]))
    if kind == "late-zero":
        return RepeatedRule(late_zero, draw(st.integers(1, 60)))
    if kind == "offset":
        return OffsetRule(RepeatedRule(late_zero, draw(st.integers(1, 60))),
                          draw(st.integers(0, 80)))
    if kind == "callable":
        return draw(st.sampled_from([
            CallableRule(lambda n: 0 if n == 37 else Fraction(1, n), limit_hint=0),
            CallableRule(lambda n: Fraction(1, n), limit_hint=0)]))
    return draw(st.sampled_from([RECIP, GEO_HALF, ExplicitThenRule((2, 1), RECIP)]))


def zero_outcome(verdict):
    """Call ``verdict``: ("zero", index), ("nonzero", None) or ("refused", message)."""
    try:
        v = verdict()
    except PreconditionViolatedError as err:
        return "refused", str(err)
    if isinstance(v, KernelRangeVerdict):
        return ("nonzero", None) if v.injective else ("zero", v.offending_index)
    return ("nonzero", None) if v else ("zero", v.witness_index)


@settings(max_examples=300, deadline=None)
@given(rule=zero_check_rules())
def test_shift_zero_check_matches_reference(rule):
    s = ShiftForm(sigma_bilateral(), rule)
    assert zero_outcome(lambda: kernel_trivial(s)) == zero_outcome(
        lambda: reference_shift_kernel_verdict(s))


# 0.5 six hundred times, 0 at index 601, then 1, 1/2, 1/3, ..: its normal
# form places the zero past the 512 weights a window once read
ZERO_AT_601 = AffineRule(1, ExplicitThenRule((-0.5,) * 600 + (-1,), AffineRule(-1, RECIP)))


@settings(max_examples=200, deadline=None)
@given(rule=zero_check_rules())
@example(rule=ZERO_AT_601)
def test_every_zero_verdict_agrees(rule):
    # the Schauder checks of a diagonal and of a weighted shift, and the
    # kernel check, find the same zero or make the same refusal; so does
    # the spectrum of a vanishing diagonal on whether 0 is a member
    shift = ShiftForm(sigma_bilateral(), rule)
    outcomes = {zero_outcome(lambda: is_schauder(Diagonal(rule))),
                zero_outcome(lambda: is_schauder(shift)),
                zero_outcome(lambda: kernel_trivial(shift))}
    assert len(outcomes) == 1
    (kind, _index), = outcomes
    if rule.limit() == 0:
        try:
            members = schauder_spectrum(Diagonal(rule)).members
        except PreconditionViolatedError as err:
            assert ("refused", str(err)) in outcomes
        else:
            zero = (0 in members.values if isinstance(members, FiniteSetMembers)
                    else members.includes_zero)
            assert kind == ("zero" if zero else "nonzero")
    if rule is ZERO_AT_601:
        assert outcomes == {("zero", 601)}


class TestAdjointExclusion:
    def test_basic_lemma_adjoint_witness(self):
        cert = adjoint_exclusion(basic_shift(), 1.0, bound=1e6)
        assert cert.side == "adjoint"
        assert cert.attained_magnitude > 1e6
        replayed = replay_shift_certificate(basic_shift(), cert)
        assert abs(replayed - cert.attained_magnitude) <= 1e-12 * cert.attained_magnitude

    def test_self_adjoint_diagonal_coincides(self):
        # identity permutation, real weights: the adjoint shift is the
        # operator itself, so both sides walk the same recurrence
        diag_as_shift = ShiftForm(identity_permutation(), RECIP)
        adj = adjoint_shift_form(diag_as_shift)
        for direction in ("backward-orbit", "forward-orbit"):
            for start in (1, 2, 7):
                for steps in (1, 5, 40):
                    assert spectral._walk_logs(
                        diag_as_shift, 2.0, direction, steps, start
                    ) == spectral._walk_logs(adj, 2.0, direction, steps, start)
        # every index is its own orbit, so neither side certifies
        for exclude in (shift_eigen_exclude, adjoint_exclusion):
            with pytest.raises(UnsupportedClassError, match="single-orbit"):
                exclude(diag_as_shift, 2.0)

    def test_grid_of_moduli_and_phases(self):
        for e in (-3, -2, -1, 0, 1):
            for q in range(8):
                lam = (10.0 ** e) * complex(math.cos(math.pi * q / 4),
                                            math.sin(math.pi * q / 4))
                cert = adjoint_exclusion(basic_shift(), lam)
                assert cert.attained_magnitude > cert.bound


def subset_product_range(factors, max_size):
    """Exact (min, max) of products over all subsets of size <= max_size.

    All factors are positive, so the size-k minimum is the product of
    the k smallest factors and the maximum the product of the k largest;
    this covers every subset without enumerating them.
    """
    inc = sorted(factors)
    lo, hi = 1.0, 1.0
    best_lo, best_hi = 1.0, 1.0
    for k in range(1, max_size + 1):
        lo *= inc[k - 1]
        hi *= inc[-k]
        best_lo = min(best_lo, lo)
        best_hi = max(best_hi, hi)
    return best_lo, best_hi


class TestClaim1:
    def test_geometric_alpha_cutoff(self):
        N = claim1_find_N(ALPHA_TO_ONE, 1, 0.01)
        factors = [1.0 - 2.0 ** -n for n in range(N, N + 31)]
        lo, hi = subset_product_range(factors, 10)
        assert 0.99 <= lo <= hi <= 1.01

    def test_extremes_oracle_agrees_with_enumeration(self):
        # validate the sorted-extremes reduction by brute force on a
        # small window: every subset of size <= 4 enumerated directly
        factors = [1.0 - 2.0 ** -n for n in range(3, 12)]
        lo, hi = subset_product_range(factors, 4)
        brute = [1.0]
        for k in range(1, 5):
            for combo in combinations(factors, k):
                p = 1.0
                for f in combo:
                    p *= f
                brute.append(p)
        assert math.isclose(lo, min(brute), rel_tol=1e-12)
        assert math.isclose(hi, max(brute), rel_tol=1e-12)

    def test_minimality_within_slack(self):
        # one step earlier must break the guarantee (allowing the rule's
        # tail slack of one index)
        N = claim1_find_N(ALPHA_TO_ONE, 1, 0.01)
        assert N >= 2
        bad = [1.0 - 2.0 ** -n for n in range(N - 1, N + 30)]
        lo, _ = subset_product_range(bad, 10)
        assert lo < 0.99

    def test_constant_alpha(self):
        assert claim1_find_N(ConstantRule(Fraction(3, 2)), Fraction(3, 2), 0.01) == 1

    def test_harmonic_not_summable(self):
        with pytest.raises(NotSummableError):
            claim1_find_N(AffineRule(1, PowerLawRule(-1, 1)), 1, 0.01)

    def test_bad_epsilon(self):
        with pytest.raises(PreconditionViolatedError):
            claim1_find_N(ALPHA_TO_ONE, 1, 1.5)

    @pytest.mark.parametrize("halves", [15, 16])
    def test_a_term_above_alpha_is_refused_wherever_it_lies(self, halves):
        # 1/2 (halves times), 2, then 1: the 2 exceeds alpha = 1, inside the
        # first 16 terms a probe once read and just past them
        rule = ExplicitThenRule((Fraction(1, 2),) * halves + (2,), ConstantRule(1))
        with pytest.raises(PreconditionViolatedError,
                           match="^alpha_n must be positive and bounded by alpha$"):
            claim1_find_N(rule, 1, 0.01)


def reference_gap_tail_sum(alpha_seq, alpha, start):
    """Bound on ``sum_{n>=start} (1 - alpha_n/alpha)``, written out per rule."""
    if isinstance(alpha_seq, ConstantRule):
        return 0.0 if alpha_seq.c == alpha else None
    if isinstance(alpha_seq, AffineRule) and alpha_seq.base == alpha:
        inner_tail = alpha_seq.inner.tail_abs_sum(start)
        if inner_tail is None:
            return None
        return inner_tail / float(abs(alpha))
    if isinstance(alpha_seq, ExplicitThenRule) and alpha_seq.tail is not None:
        if start <= len(alpha_seq.prefix):
            head = sum(abs(1.0 - float(v) / float(alpha))
                       for v in alpha_seq.prefix[start - 1:])
            rest = reference_gap_tail_sum(alpha_seq.tail, alpha, 1)
        else:
            head = 0.0
            rest = reference_gap_tail_sum(alpha_seq.tail, alpha,
                                          start - len(alpha_seq.prefix))
        return None if rest is None else head + rest
    return None


gap_values = st.one_of(
    st.fractions(min_value=Fraction(1, 100), max_value=4, max_denominator=100),
    st.integers(1, 5),
    st.floats(0.01, 4.0),
)


@st.composite
def gap_rules(draw, alpha):
    tail = draw(st.sampled_from(["constant", "wrong-constant", "affine",
                                 "affine-off", "power-law"]))
    rule = {
        "constant": ConstantRule(alpha),
        "wrong-constant": ConstantRule(alpha + 1),
        "affine": AffineRule(alpha, GeometricRule(-1, Fraction(1, 3))),
        "affine-off": AffineRule(alpha + 1, GeometricRule(-1, Fraction(1, 3))),
        "power-law": AffineRule(alpha, PowerLawRule(draw(gap_values),
                                                    draw(st.sampled_from([1, 2, 3])))),
    }[tail]
    for _ in range(draw(st.integers(0, 2))):
        rule = ExplicitThenRule(tuple(draw(st.lists(gap_values, max_size=5))), rule)
    return rule


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_gap_tail_bound_matches_reference(data):
    alpha = data.draw(gap_values)
    rule = data.draw(gap_rules(alpha))
    start = data.draw(st.integers(1, 12))
    want = reference_gap_tail_sum(rule, alpha, start)
    got = spectral._ratio_deviation_tail(rule, ConstantRule(alpha), start)
    if want is None or math.isinf(want):
        # both spellings of "not summable" that every caller accepts
        assert got is None or math.isinf(got)
    else:
        assert got == want


class TestShieldsSimilar:
    def test_equal_rules_certified_unit(self):
        v = shields_similar(RECIP, RECIP, 100)
        assert isinstance(v, BoundedCertified)
        assert v.c == 1.0 and v.C == 1.0

    def test_geometric_perturbation_bounded(self):
        w = AffineRule(1, GeometricRule(-1, Fraction(1, 2)))  # 1 - 2^-j
        v = shields_similar(w, ConstantRule(1), 10_000)
        assert isinstance(v, BoundedCertified)
        assert 0 < v.c <= v.C < math.inf
        # oracle: the full product prod (1 - 2^-j) is the worst window
        oracle = 1.0
        for j in range(1, 200):
            oracle *= 1.0 - 0.5 ** j
        assert v.c <= oracle * (1 + 1e-9)
        assert oracle <= v.C * (1 + 1e-9)

    def test_harmonic_perturbation_unbounded(self):
        w = AffineRule(1, PowerLawRule(-1, 1))  # 1 - 1/j, zero at j = 1
        v = shields_similar(w, ConstantRule(1), 10_000)
        assert isinstance(v, UnboundedWitness)
        assert v.value < 1e-6

    def test_harmonic_without_zero_stays_numeric(self):
        # dropping the zero weight: windowed products (k-1)/(k+l) stay
        # above 1e-4 on this horizon, so no witness yet, and the tail
        # is not certifiable
        w = OffsetRule(AffineRule(1, PowerLawRule(-1, 1)), 1)
        v = shields_similar(w, ConstantRule(1), 10_000)
        assert isinstance(v, BoundedNumerically)

    def test_monotone_consistency(self):
        w = AffineRule(1, PowerLawRule(-1, 1))
        small = shields_similar(w, ConstantRule(1), 100)
        large = shields_similar(w, ConstantRule(1), 5_000)
        assert isinstance(small, UnboundedWitness)
        assert isinstance(large, UnboundedWitness)
        assert large.value <= small.value


class TestBlockNormBlowup:
    def test_forward_regime(self):
        cert = block_norm_blowup(ALPHA_TO_ONE, 0.1, 2.0, 0.5, bound=1e12)
        assert cert.regime == "forward"
        assert cert.attained_magnitude > 1e12
        # oracle: direct iteration of m lambda^-n prod alpha_{2k-1}
        total = 0.1 / 0.5
        n = 1
        while total <= 1e12:
            n += 1
            total *= (1.0 - 2.0 ** -(2 * (n - 1) - 1)) / 0.5
        assert cert.witness_index == n
        assert math.isclose(cert.attained_magnitude, total, rel_tol=1e-9)

    def test_backward_regime(self):
        cert = block_norm_blowup(ALPHA_TO_ONE, 0.1, 2.0, 2.0, bound=1e12)
        assert cert.regime == "backward"
        total = 1.0
        k = 0
        while total <= 1e12:
            k += 1
            total *= 2.0 / (1.0 + 2.0 ** -k)
        assert cert.witness_index == k
        assert math.isclose(cert.attained_magnitude, total, rel_tol=1e-9)

    def test_constancy_regime_on_the_circle(self):
        cert = block_norm_blowup(ALPHA_TO_ONE, 0.1, 2.0, 1.0)
        assert cert.regime == "constant-floor"
        assert cert.bound == 0.0
        assert cert.attained_magnitude > 0
        assert cert.witness_index == claim1_find_N(ALPHA_TO_ONE, 1, 0.01)

    def test_replay(self):
        for lam in (0.5, 2.0, 1.0, 1j):
            cert = block_norm_blowup(ALPHA_TO_ONE, 0.1, 2.0, lam)
            replayed = replay_block_certificate(ALPHA_TO_ONE, cert)
            assert abs(replayed - cert.attained_magnitude) <= \
                1e-12 * cert.attained_magnitude

    def test_step_cap_error_reports_walk_state(self):
        log_bound = math.log(1e12)
        # forward: log(m/r), then + log(alpha_{2n-3}/r) per further step
        forward = [math.log(1.5 / 0.5), math.log(1.5 / 0.5),
                   math.log(1.5 / 0.5 * 0.875 / 0.5)]
        # backward: + log(r / (1 + g_k)) per step, g_k = 2^-k
        backward = [sum(math.log(2.0 / (1.0 + 2.0 ** -i)) for i in range(1, k + 1))
                    for k in range(1, 4)]
        for lam, totals in ((0.5, forward), (2.0, backward)):
            with pytest.raises(StepCapExceededError) as info:
                block_norm_blowup(ALPHA_TO_ONE, 1.5, 2.0, lam, bound=1e12,
                                  step_cap=3)
            exc = info.value
            assert exc.lam == lam
            assert exc.steps == 3
            assert math.isclose(exc.best_log_magnitude, max(totals),
                                rel_tol=1e-12)
            assert exc.gap == log_bound - exc.best_log_magnitude > 0
            assert "short of log(bound)" in str(exc)

    def test_harmonic_gaps_rejected(self):
        with pytest.raises(PreconditionViolatedError):
            block_norm_blowup(AffineRule(1, PowerLawRule(-1, 1)), 0.1, 2.0, 0.5)

    def test_zero_lambda_rejected(self):
        with pytest.raises(PreconditionViolatedError):
            block_norm_blowup(ALPHA_TO_ONE, 0.1, 2.0, 0)


def _svd_always_eigs(A, tol):
    """The residual check held to the exact 2-norm for every matrix.

    Matrices with max|a_ij| below 2**-512 are checked in units of it.

    Returns the sorted eigenvalues, or ``(failing, worst_residual)`` where
    ``dense_eigs`` must raise.
    """
    vals, vecs = np.linalg.eig(A)
    top = np.abs(A).max(initial=0.0)
    unit = top if 0 < top < 2.0 ** -512 else 1.0  # squares would underflow
    norm = np.linalg.norm(A / unit, 2)
    residuals = np.linalg.norm(A / unit @ vecs - vecs * (vals / unit), axis=0)
    scale = norm * np.linalg.norm(vecs, axis=0)
    bad = residuals > tol * np.maximum(scale, 1e-300)
    if norm > 0 and np.any(bad):
        return int(bad.sum()), float(np.max(residuals / np.maximum(scale, 1e-300)))
    return sorted((complex(v) for v in vals), key=lambda z: (z.real, z.imag))


def _residual_test_matrix(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "monomial":  # at most one nonzero per row and per column
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        w[rng.random(n) < 0.3] = 0
        A = np.zeros((n, n), dtype=complex)
        A[rng.permutation(n), np.arange(n)] = w
        return A
    if kind == "dense":
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if kind == "jordan":
        return np.eye(n, k=1, dtype=complex)
    if kind == "zero":
        return np.zeros((n, n), dtype=complex)
    return np.ones((n, n), dtype=complex)


def _spy_two_norms(monkeypatch):
    """Record every ``np.linalg.norm(A, 2)`` call made while the test runs."""
    calls = []
    norm = np.linalg.norm

    def spy(x, ord=None, axis=None, keepdims=False):
        if ord == 2 and axis is None:
            calls.append(np.shape(x))
        return norm(x, ord, axis, keepdims)

    monkeypatch.setattr(np.linalg, "norm", spy)
    return calls


class TestDenseEigs:
    def test_diagonal_matrix(self):
        vals = dense_eigs(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(vals, [1, 2, 3])

    def test_nilpotent(self):
        vals = dense_eigs([[0, 1], [0, 0]])
        assert vals == [0j, 0j]

    def test_random_hermitian_residuals_and_trace(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            A = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
            H = (A + A.conj().T) / 2
            vals = dense_eigs(H)
            assert max(abs(v.imag) for v in vals) <= 1e-8
            assert abs(sum(vals) - np.trace(H)) <= 1e-8 * max(
                1.0, np.linalg.norm(H, 2))

    def test_dimension_cap(self):
        with pytest.raises(PreconditionViolatedError):
            dense_eigs(np.eye(513))

    def test_residual_failure_reports_count_and_worst(self, monkeypatch):
        tol = 1e-300  # below any float residual, so the check must fail
        monkeypatch.setattr(spectral, "_EIG_RESIDUAL_TOL", tol)
        A = np.random.default_rng(7).standard_normal((6, 6)).astype(complex)
        with pytest.raises(ConvergenceFailureError) as err:
            dense_eigs(A)
        exc = err.value
        vals, vecs = np.linalg.eig(A)
        ratios = (np.linalg.norm(A @ vecs - vecs * vals, axis=0)
                  / (np.linalg.norm(A, 2) * np.linalg.norm(vecs, axis=0)))
        assert exc.failing == int((ratios > tol).sum()) >= 1
        assert math.isclose(exc.worst_residual, ratios.max(), rel_tol=1e-12)
        assert exc.tol == tol
        assert f"for {exc.failing} eigenpairs" in str(exc)
        assert f"{exc.worst_residual:.3g}" in str(exc)

    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(["monomial", "dense", "jordan", "zero", "ones"]),
           n=st.integers(1, 24), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1.0, 1e150, 1e-150, 1e160, 1e-160]),
           tol=st.sampled_from([1e-8, 1e-14, 1e-15, 1e-16, 1e-300]))
    def test_matches_svd_always_check(self, kind, n, seed, scale, tol):
        A = _residual_test_matrix(kind, n, seed) * scale
        want = _svd_always_eigs(A, tol)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral, "_EIG_RESIDUAL_TOL", tol)
            try:
                got = dense_eigs(A)
            except ConvergenceFailureError as exc:
                got = (exc.failing, exc.worst_residual)
                assert exc.tol == tol
        assert got == want

    def test_exact_norm_accepts_what_the_floor_misses(self, monkeypatch):
        n = 16
        A = np.ones((n, n), dtype=complex)  # floor sqrt(n), 2-norm n
        vals, vecs = np.linalg.eig(A)
        ratio = np.max(np.linalg.norm(A @ vecs - vecs * vals, axis=0)
                       / np.linalg.norm(vecs, axis=0))
        assert ratio > 0
        # Above the worst residual against n, below it against sqrt(n).
        tol = ratio / n * n ** 0.25
        monkeypatch.setattr(spectral, "_EIG_RESIDUAL_TOL", tol)
        calls = _spy_two_norms(monkeypatch)
        assert dense_eigs(A) == sorted((complex(v) for v in vals),
                                       key=lambda z: (z.real, z.imag))
        assert calls == [(n, n)]

    def test_diagonal_skips_exact_norm(self, monkeypatch):
        weights = np.arange(1, 513) ** -0.1
        calls = _spy_two_norms(monkeypatch)
        vals = dense_eigs(np.diag(weights.astype(complex)))
        assert calls == []
        assert vals == [complex(w) for w in weights[::-1]]

    @pytest.mark.parametrize("scale", [1.0, 1e-150, 1e-160, 1e-200])
    def test_perturbed_pair_rejected_at_every_scale(self, scale, monkeypatch):
        # One eigenvalue off by relative 1e-4: its residual squared must
        # not underflow to an accepted 0 on tiny matrices.
        eig = np.linalg.eig

        def perturbed(a):
            vals, vecs = eig(a)
            vals = vals.copy()
            vals[0] *= 1 + 1e-4
            return vals, vecs

        monkeypatch.setattr(np.linalg, "eig", perturbed)
        A = np.random.default_rng(5).standard_normal((4, 4)) * scale
        with pytest.raises(ConvergenceFailureError) as err:
            dense_eigs(A)
        assert err.value.failing == 1
        assert 1e-6 < err.value.worst_residual < 1e-3

    @pytest.mark.parametrize("scale", [1e300, 1e-300])
    def test_extreme_scales_accept(self, scale):
        # Squares of residuals near 1e300 overflow unless taken in units
        # of max|a_ij|; near 1e-300 the check must still pass.
        A = np.random.default_rng(3).standard_normal((4, 4)) * scale
        vals = np.linalg.eig(A.astype(complex))[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = dense_eigs(A)
        assert got == sorted((complex(v) for v in vals),
                             key=lambda z: (z.real, z.imag))


def _spy_eig(monkeypatch):
    """Count the ``np.linalg.eig`` calls made while the test runs."""
    calls = []
    eig = np.linalg.eig

    def spy(a):
        calls.append(np.shape(a))
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", spy)
    return calls


@st.composite
def partial_monomial(draw):
    """Cycles and chains with complex or real weights, numeric and signed zeros."""
    n = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 1e150, 1e-150]))
    w = rng.standard_normal(n)
    if draw(st.booleans()):
        w = w + 1j * rng.standard_normal(n)
    w = w * scale
    w[rng.random(n) < draw(st.sampled_from([0.0, 0.2, 0.5]))] = 0
    A = np.zeros((n, n), dtype=complex)
    A[rng.permutation(n), np.arange(n)] = w
    signed = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
    for i, j in zip(rng.integers(0, n, size=n), rng.integers(0, n, size=n)):
        if A[i, j] == 0 and rng.random() < 0.5:
            A[i, j] = signed[rng.integers(3)]
    return A


def _stored(A):
    """A dense test matrix as ``corner_eigs`` arguments: all n^2 entries
    stored, so its signed zeros stay as stored."""
    A = np.asarray(A, dtype=complex)
    n = A.shape[0]
    return {(i, j): complex(A[i, j]) for j in range(n) for i in range(n)}, n


def _assert_same_multiset(got, want, tol):
    assert len(got) == len(want)
    left = list(want)
    for z in got:
        k = min(range(len(left)), key=lambda i: abs(left[i] - z))
        assert abs(left[k] - z) <= tol, (z, left[k])
        left.pop(k)


class TestCornerEigs:
    @settings(max_examples=200, deadline=None)
    @given(A=partial_monomial())
    def test_matches_lapack(self, A):
        want = dense_eigs(A)
        with pytest.MonkeyPatch.context() as mp:
            calls = _spy_eig(mp)
            got = corner_eigs(*_stored(A))
        assert calls == []
        _assert_same_multiset(got, want, 1e-12 * np.linalg.norm(A, 2))
        assert got == sorted(got, key=lambda z: (z.real, z.imag))

    def test_long_cycle_of_small_weights(self):
        n = 512
        A = np.zeros((n, n), dtype=complex)
        A[(np.arange(n) + 1) % n, np.arange(n)] = 1e-3
        assert np.prod(np.full(n, 1e-3)) == 0  # the product underflows
        vals = corner_eigs(*_stored(A))
        assert len(vals) == n
        for z in vals:
            assert math.isclose(abs(z), 1e-3, rel_tol=1e-15)
        turns = sorted(np.angle(vals) % (2 * math.pi))
        assert np.allclose(np.diff(turns), 2 * math.pi / n, atol=1e-12)

    @pytest.mark.parametrize("operator", [
        Diagonal(PowerLawRule(1.0, 0.1)), cibws().to_expr()],
        ids=["diag-slowdecay", "cibws"])
    def test_production_corners_skip_lapack(self, operator, monkeypatch):
        want = dense_eigs(truncate_complex(operator, 512))
        calls = _spy_eig(monkeypatch)
        got = corner_eigs(corner_entries(operator, 512), 512)
        assert calls == []
        assert [repr(z) for z in got] == [repr(z) for z in want]

    def test_signed_zeros_kept_as_stored(self, monkeypatch):
        A = np.zeros((4, 4), dtype=complex)
        A[1, 0], A[2, 1] = 2.0, 3.0  # the chain 0 -> 1 -> 2
        A[0, 0], A[1, 1] = complex(-0.0, 0.0), complex(0.0, -0.0)
        A[3, 3] = complex(-0.0, -0.0)  # an isolated zero entry
        want = sorted(repr(z) for z in dense_eigs(A))
        calls = _spy_eig(monkeypatch)
        assert sorted(repr(z) for z in corner_eigs(*_stored(A))) == want
        assert calls == []

    def test_reads_only_the_leading_corner_of_exact_entries(self, monkeypatch):
        # a 2-cycle of Fractions, and entries past n that would make the
        # corner dense if they were read
        entries = {(1, 0): Fraction(1, 4), (0, 1): 1, (2, 2): Fraction(1, 3),
                   (0, 3): 5.0, (3, 1): 7.0}
        calls = _spy_eig(monkeypatch)
        _assert_same_multiset(corner_eigs(entries, 3), [-0.5, 1 / 3, 0.5], 1e-15)
        assert calls == []

    def test_over_the_cap_is_refused_before_lapack(self, monkeypatch):
        calls = _spy_eig(monkeypatch)
        with pytest.raises(PreconditionViolatedError, match="exceeds cap 512"):
            corner_eigs({(0, 0): 1.0}, 513)
        assert calls == []

    def test_dense_matrix_goes_through_lapack(self, monkeypatch):
        A = _residual_test_matrix("dense", 8, 11)
        want = dense_eigs(A)
        calls = _spy_eig(monkeypatch)
        assert corner_eigs(*_stored(A)) == want
        assert calls == [(8, 8)]

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_entry_goes_through_lapack(self, bad, monkeypatch):
        A = np.diag([1.0, bad, 2.0]).astype(complex)
        calls = _spy_eig(monkeypatch)
        with pytest.raises(ConvergenceFailureError):
            corner_eigs(*_stored(A))
        assert calls == [(3, 3)]

    def test_cycle_missing_the_check_goes_through_lapack(self, monkeypatch):
        A = np.zeros((3, 3), dtype=complex)
        A[[1, 2, 0], [0, 1, 2]] = [0.3 + 0.7j, -1.9 + 0.2j, 0.6 - 1.1j]
        monkeypatch.setattr(spectral, "_EIG_RESIDUAL_TOL", 1e-300)
        with pytest.raises(ConvergenceFailureError) as want:
            dense_eigs(A)
        calls = _spy_eig(monkeypatch)
        with pytest.raises(ConvergenceFailureError) as got:
            corner_eigs(*_stored(A))
        assert calls == [(3, 3)]
        assert (got.value.failing, got.value.worst_residual) == \
            (want.value.failing, want.value.worst_residual)

