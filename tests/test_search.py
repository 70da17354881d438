import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlcavity import (
    ns_tau_candidates,
    pattern_error,
    qudit_theta_search,
    sign_pattern,
    two_atom_amplitudes,
    two_atom_search,
)
from nlcavity.search import NoThetaFoundError, ns_merit, sqrt2_convergents

SQRT2 = math.sqrt(2.0)


class TestConvergents:
    def test_known_prefix(self):
        conv = sqrt2_convergents(500)
        assert conv[:6] == [(1, 1), (3, 2), (7, 5), (17, 12), (41, 29), (99, 70)]

    def test_quality_improves(self):
        errs = [abs(SQRT2 - p / q) for p, q in sqrt2_convergents(10**6)]
        assert all(a > b for a, b in zip(errs, errs[1:]))


class TestNsTauCandidates:
    def test_first_solution(self):
        sols = ns_tau_candidates(10.0)
        assert len(sols) == 1
        s = sols[0]
        assert abs(s.taus[0] - 6.5064) < 1e-3
        assert abs(s.amplitudes[1] - 0.97519) < 1e-4
        assert abs(s.amplitudes[2] - (-0.97516)) < 1e-4

    def test_second_solution_present(self):
        taus = [s.taus[0] for s in ns_tau_candidates(50.0)]
        assert any(abs(t - 37.73742) < 1e-4 for t in taus)

    def test_third_solution_and_merit(self):
        sols = ns_tau_candidates(250.0)
        match = [s for s in sols if abs(s.taus[0] - 219.918) < 1e-2]
        assert match and match[0].merit <= 2.2e-5

    def test_empty_below_first_solution(self):
        assert ns_tau_candidates(5.0) == []

    def test_merit_recomputable(self):
        for s in ns_tau_candidates(250.0):
            redo = max(
                abs(1.0 - math.cos(s.taus[0])),
                abs(1.0 + math.cos(SQRT2 * s.taus[0])),
            )
            assert abs(s.merit - redo) < 1e-12
            assert s.taus[0] > 0

    def test_merit_decreases_along_family(self):
        sols = sorted(ns_tau_candidates(250.0), key=lambda s: s.taus[0])
        merits = [s.merit for s in sols]
        assert len(merits) >= 3
        assert all(a > b for a, b in zip(merits, merits[1:]))

    def test_errors_balanced_at_every_time(self):
        # The merit's minimum is where |1 - A1| and |1 + A2| are equal.
        sols = ns_tau_candidates(5000.0)
        assert len(sols) == 4
        for s in sols:
            tau = s.taus[0]
            gap = abs(1.0 - math.cos(tau)) - abs(1.0 + math.cos(SQRT2 * tau))
            assert abs(gap) < 1e-12

    def test_refinement_never_worse_than_seed(self):
        for s in ns_tau_candidates(250.0):
            q = round(s.taus[0] / math.pi)
            assert ns_merit(s.taus[0]) <= ns_merit(math.pi * q) + 1e-15


class TestTwoAtomSearch:
    QUOTED = (37.79300921, 197.78109842)

    def test_direct_evaluation_at_quoted_point(self):
        b = two_atom_amplitudes(*self.QUOTED)
        mags = np.abs(b)
        assert mags.max() - mags.min() < 1e-6
        assert np.max(np.abs(mags - 0.990321935)) < 1e-6
        assert list(np.sign(b)) == [-1.0, -1.0, 1.0]

    def test_search_recovers_quoted_solution(self):
        sols = two_atom_search((35.0, 40.0), (195.0, 200.0), target_merit=1e-6, step=0.05)
        assert sols
        best = sols[0]
        mags = np.abs(np.array(best.amplitudes))
        assert np.max(np.abs(mags - 0.990321935)) < 1e-4
        s = np.sign(np.array(best.amplitudes))
        assert s[0] == s[1] == -s[2]

    def test_merit_recomputable_and_taus_positive(self):
        sols = two_atom_search((35.0, 40.0), (195.0, 200.0), target_merit=1e-6, step=0.05)
        for s in sols:
            b = two_atom_amplitudes(*s.taus)
            redo = np.max(np.abs(b - np.array(s.target)))
            assert abs(s.merit - redo) < 1e-12
            assert all(t > 0 for t in s.taus)

    def test_empty_result_when_out_of_range(self):
        sols = two_atom_search((1.0, 2.0), (1.0, 2.0), target_merit=1e-8, step=0.05)
        assert sols == []

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            two_atom_search((-1.0, 2.0), (1.0, 5.0))
        with pytest.raises(ValueError):
            two_atom_search((1.0, 2.0), (1.0, 5.0), target_merit=2.0)


class TestSignPattern:
    def test_qutrit(self):
        assert list(sign_pattern(2).signs) == [1.0, 1.0, -1.0]

    def test_flips_up_to_twenty(self):
        p = sign_pattern(20)
        flips = [n for n in range(21) if p.signs[n] == -1.0]
        assert flips == [2, 18]

    def test_all_plus_below_first_flip(self):
        assert np.all(sign_pattern(1).signs == 1.0)

    def test_flip_rule_up_to_200(self):
        p = sign_pattern(200)
        expected = {2 * (2 * m + 1) ** 2 for m in range(10) if 2 * (2 * m + 1) ** 2 <= 200}
        flips = {n for n in range(201) if p.signs[n] == -1.0}
        assert flips == expected


class TestQuditThetaSearch:
    def test_qutrit(self):
        theta, worst = qudit_theta_search(sign_pattern(2), 0.01)
        assert worst <= 0.01
        assert math.cos(theta * SQRT2) <= -0.99
        assert math.cos(theta) >= 0.99

    def test_qutrit_matches_kerr_action(self):
        # on |0>,|1>,|2> the map must look like diag(1, 1, -1)
        theta, _ = qudit_theta_search(sign_pattern(2), 0.01)
        diag = np.cos(theta * np.sqrt(np.arange(3)))
        assert np.max(np.abs(diag - np.array([1.0, 1.0, -1.0]))) <= 0.01

    def test_lowest_interval_at_tolerance_005(self):
        # A dense scan (step 1e-5) meets tolerance 0.05 first on
        # [6.43978, 6.60074]; the theta family's first hit is 37.7645.
        theta, worst = qudit_theta_search(sign_pattern(2), 0.05)
        assert 6.4397 <= theta <= 6.6008
        assert worst <= 0.05

    def test_lowest_interval_at_tolerance_001(self):
        # The dense scan meets tolerance 0.01 first on [37.66443, 37.84065].
        theta, worst = qudit_theta_search(sign_pattern(2), 0.01)
        assert 37.6644 <= theta <= 37.8407
        assert worst <= 0.01

    def test_result_satisfies_own_contract(self):
        for n_max, tol in ((2, 0.01), (3, 0.05), (5, 0.1)):
            pattern = sign_pattern(n_max)
            theta, worst = qudit_theta_search(pattern, tol)
            n = np.arange(n_max + 1)
            redo = float(np.max(np.abs(np.cos(theta * np.sqrt(n)) - pattern.signs)))
            assert abs(redo - worst) < 1e-12
            assert worst <= tol

    def test_all_plus_pattern_returns_zero(self):
        theta, worst = qudit_theta_search(sign_pattern(1), 0.01)
        assert theta == 0.0 and worst == 0.0

    def test_exhaustion_raises_with_diagnostics(self):
        with pytest.raises(NoThetaFoundError) as err:
            qudit_theta_search(sign_pattern(2), 1e-4, theta_bound=10.0)
        assert err.value.best_theta is not None
        assert err.value.best_error > 1e-4


def _scan_hits(pattern, tol, stop):
    """Angles of a dense scan on (0, stop) that meet the tolerance, with a
    step of a quarter of the half-width of the narrowest level's arcs."""
    step = math.acos(1.0 - tol) / (4.0 * math.sqrt(pattern.cutoff))
    roots = np.sqrt(np.arange(pattern.cutoff + 1))
    hits = []
    for start in np.arange(step, stop, 4096 * step):
        thetas = np.arange(start, min(start + 4096 * step, stop), step)
        errs = np.max(np.abs(np.cos(np.multiply.outer(thetas, roots)) - pattern.signs), axis=1)
        hits.extend(thetas[errs <= tol])
    return hits


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    n_max=st.integers(2, 5),
    tol=st.floats(0.02, 0.3),
    theta_bound=st.floats(5.0, 3000.0),
)
def test_sieve_meets_tolerance_at_lowest_interval(n_max, tol, theta_bound):
    pattern = sign_pattern(n_max)
    try:
        theta, worst = qudit_theta_search(pattern, tol, theta_bound=theta_bound)
    except NoThetaFoundError as exc:
        assert exc.best_error > tol
        assert exc.best_error == pattern_error(exc.best_theta, pattern)
        assert not _scan_hits(pattern, tol, theta_bound)
        return
    assert 0.0 < theta <= theta_bound
    assert worst == pattern_error(theta, pattern) <= tol
    # The lowest interval lies inside one arc of level n_max, 2a/sqrt(n_max) wide.
    assert not _scan_hits(pattern, tol, theta - 2.0 * math.acos(1.0 - tol) / math.sqrt(n_max))
