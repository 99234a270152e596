import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from conftest import (
    dark_count_oracle, fd_scores, lowloss_three_outcome, mixture_pnd, series_pnd
)
from scipy.stats import binom, poisson

from twinloss import (
    PARAM_NAMES,
    JointPND,
    NumericError,
    ParamSet,
    apply_dark_counts,
    default_cutoff,
    lossy_tmsv_pnd,
    model_pnd,
    qfim_inverse_analytic,
    qfim_lowloss_tmsv,
)


@pytest.mark.parametrize("r", [0.5, 1.0, 1.3])
def test_lossless_distribution_is_diagonal_geometric(r):
    pnd = lossy_tmsv_pnd(1.0, 1.0, r, 10)
    n = np.arange(11)
    expected = np.tanh(r) ** (2 * n) / np.cosh(r) ** 2
    assert np.abs(np.diag(pnd.probs) - expected).max() < 1e-10
    off = pnd.probs - np.diag(np.diag(pnd.probs))
    assert np.abs(off).max() < 1e-14


def test_vacuum_limit():
    pnd = lossy_tmsv_pnd(0.7, 0.9, 0.0, 4)
    expected = np.zeros((5, 5))
    expected[0, 0] = 1.0
    assert np.array_equal(pnd.probs, expected)
    assert pnd.tail_mass == 0.0


@pytest.mark.parametrize(
    "eta1,eta2,r,nu1,nu2,cutoff",
    [
        (0.7, 0.55, 0.8, 0.0, 0.0, 6),
        (1.0, 0.6, 0.9, 0.0, 0.0, 6),
        (0.4, 0.9, 1.2, 0.05, 0.1, (3, 6)),
        (0.392, 0.382, 1.3, 0.034, 0.066, 8),
        (0.99, 0.98, 0.3, 0.0, 0.2, 5),
        (0.25, 0.95, 1.4, 0.15, 0.0, (6, 3)),
    ],
)
def test_series_matches_direct_summation(eta1, eta2, r, nu1, nu2, cutoff):
    theta = ParamSet(eta1=eta1, eta2=eta2, r=r, nu1=nu1, nu2=nu2)
    pnd = model_pnd(theta, cutoff)
    oracle = mixture_pnd(eta1, eta2, r, cutoff, nu1, nu2)
    assert np.abs(pnd.probs - oracle).max() < 1e-12


eta_domain = st.one_of(st.just(1.0), st.floats(0.05, 1.0))


@given(
    eta1=eta_domain,
    eta2=eta_domain,
    r=st.floats(0.0, 2.5, exclude_min=True),
    ca=st.integers(0, 12),
    cb=st.integers(0, 12),
    nu1=st.floats(0.0, 3.0),
    nu2=st.floats(0.0, 3.0),
)
def test_matrix_product_matches_series(eta1, eta2, r, ca, cb, nu1, nu2):
    # eta starts at 0.05: below it, near r = 2.5, the log-space series itself
    # drifts ~1e-13 from the closed form; the column test below covers that corner
    theta = ParamSet(eta1=eta1, eta2=eta2, r=r, nu1=nu1, nu2=nu2)
    pnd = model_pnd(theta, (ca, cb))
    want = dark_count_oracle(series_pnd(eta1, eta2, r, (ca, cb)), nu1, nu2)
    big = want > 1e-250
    assert np.all(np.abs(pnd.probs - want)[big] <= 1e-11 * want[big])
    assert np.abs(pnd.probs - want).max() <= 1e-13
    assert abs(pnd.probs.sum() + pnd.tail_mass - 1.0) <= 1e-12
    swapped = model_pnd(ParamSet(eta1=eta2, eta2=eta1, r=r, nu1=nu2, nu2=nu1), (cb, ca))
    assert np.abs(swapped.probs.T - pnd.probs).max() <= 1e-14


def test_matrix_product_matches_series_in_far_corner():
    # rho = 0.88 and a wide grid: the certified sum needs far more than
    # 2 * cutoff pair numbers before the corner bins settle
    got = lossy_tmsv_pnd(0.1, 0.2, 2.0, 40).probs
    want = series_pnd(0.1, 0.2, 2.0, 40)
    big = want > 1e-250
    assert np.all(np.abs(got - want)[big] <= 1e-11 * want[big])
    assert np.abs(got - want).max() <= 1e-13


@given(
    eta1=st.floats(0.0, 1.0, exclude_min=True),
    eta2=st.floats(0.0, 1.0, exclude_min=True),
    r=st.floats(0.0, 2.5, exclude_min=True),
)
def test_first_column_matches_closed_form(eta1, eta2, r):
    # p(k, 0) = (q1 t2 (1 - q2))^k / (cosh^2 r * D^(k + 1)),
    # D = 1 / cosh^2 r + t2 (q1 + q2 - q1 q2), t2 = tanh^2 r, q_i = eta_i^2
    q1, q2, t2 = eta1**2, eta2**2, np.tanh(r) ** 2
    denom = 1.0 / np.cosh(r) ** 2 + t2 * (q1 + q2 - q1 * q2)
    k = np.arange(13)
    want = (q1 * t2 * (1.0 - q2)) ** k / denom ** (k + 1) / np.cosh(r) ** 2
    got = lossy_tmsv_pnd(eta1, eta2, r, (12, 0)).probs[:, 0]
    big = want > 1e-250
    assert np.all(np.abs(got - want)[big] <= 1e-11 * want[big])
    assert np.abs(got - want).max() <= 1e-13


@given(
    eta1=st.floats(0.05, 0.99),
    eta2=st.floats(0.05, 0.99),
    r=st.floats(0.05, 2.0),
    ca=st.integers(0, 12),
    cb=st.integers(0, 12),
    nu1=st.floats(1e-6, 3.0),
    nu2=st.floats(1e-6, 3.0),
)
def test_scores_match_central_differences(eta1, eta2, r, ca, cb, nu1, nu2):
    # nu starts at 1e-6: closer to 0 the oracle's step shrinks to nu / 2 and
    # its roundoff, not the score, sets the difference
    theta = ParamSet(eta1=eta1, eta2=eta2, r=r, nu1=nu1, nu2=nu2)
    pnd = model_pnd(theta, (ca, cb), wrt=PARAM_NAMES)
    # Richardson extrapolation of two central differences: where a score is
    # ~1e-4 of p (eta and r near 0.05), a single difference small enough to
    # be accurate is swamped by roundoff; a tight oracle tolerance keeps
    # truncation noise out
    coarse, _ = fd_scores(theta, PARAM_NAMES, (ca, cb), step=2e-3, tol=1e-18)
    fine, _ = fd_scores(theta, PARAM_NAMES, (ca, cb), step=1e-3, tol=1e-18)
    for name, c, f in zip(PARAM_NAMES, coarse, fine):
        got, want = pnd.scores[name], (4.0 * f - c) / 3.0
        assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()
        assert abs(pnd.tail_scores[name] + got.sum()) <= 1e-13


def test_scores_match_fixed_sum_in_far_corner():
    # rho = 0.88 on a wide grid: the score terms peak near N ~ 700 and the
    # certified sum runs to about 2000 pair numbers
    eta1, eta2, r = 0.1, 0.2, 2.0
    got = lossy_tmsv_pnd(eta1, eta2, r, 40, wrt=("eta1", "eta2", "r")).scores
    n = np.arange(4001)[:, None]
    k = np.arange(41)[None, :]
    w = np.tanh(r) ** (2 * n) / np.cosh(r) ** 2
    b1 = binom.pmf(k, n, eta1**2)
    b2 = binom.pmf(k, n, eta2**2)
    g1 = 2 * k / eta1 - 2 * eta1 * (n - k) / (1 - eta1**2)
    g2 = 2 * k / eta2 - 2 * eta2 * (n - k) / (1 - eta2**2)
    gr = 2 * n / (np.sinh(r) * np.cosh(r)) - 2 * np.tanh(r)
    # each score against its fixed-N sum, per bin, on the scale of the sum of |terms|
    for name, (left, right) in {
        "eta1": (b1 * g1, w * b2),
        "eta2": (b1, w * b2 * g2),
        "r": (b1, w * gr * b2),
    }.items():
        want = left.T @ right
        scale = np.abs(left).T @ np.abs(right)
        big = scale > 1e-250
        assert np.all(np.abs(got[name] - want)[big] <= 1e-11 * scale[big])


@pytest.mark.parametrize(
    "changes,name",
    [
        ({"eta1": 1.0}, "eta1"),
        ({"eta2": 1.0}, "eta2"),
        ({"r": 0.0}, "r"),
        ({"nu1": 0.0}, "nu1"),
        ({"nu2": 0.0}, "nu2"),
    ],
)
def test_scores_on_domain_boundary_rejected(theta_a, changes, name):
    theta = theta_a.replace(**changes)
    with pytest.raises(NumericError, match=name):
        model_pnd(theta, 6, wrt=(name,))
    # the same point is fine when that parameter is not differentiated
    others = tuple(other for other in PARAM_NAMES if other not in changes)
    assert set(model_pnd(theta, 6, wrt=others).scores) == set(others)


def test_scores_follow_wrt_and_reject_unknown_names(theta_a):
    assert model_pnd(theta_a, 6).scores == {}
    pnd = model_pnd(theta_a, 6, wrt=("nu2", "r"))
    assert set(pnd.scores) == {"nu2", "r"}
    assert set(pnd.tail_scores) == {"nu2", "r"}
    with pytest.raises(ValueError, match="phi"):
        model_pnd(theta_a, 6, wrt=("phi",))
    with pytest.raises(ValueError):
        lossy_tmsv_pnd(0.5, 0.5, 1.0, 6, wrt=("nu1",))


def test_vacuum_scores_in_transmission_vanish():
    pnd = lossy_tmsv_pnd(0.7, 0.9, 0.0, 4, wrt=("eta1", "eta2"))
    assert not pnd.scores["eta1"].any() and not pnd.scores["eta2"].any()


def test_terms_near_smallest_certified_count(theta_a):
    # 166 (cutoff 16) and 264 (default cutoff 34) pair-number terms are the
    # fewest that certify both values and scores at point A
    for cutoff, smallest in ((16, 166), (default_cutoff(theta_a), 264)):
        for wrt in ((), ("eta1", "eta2", "r")):
            terms = lossy_tmsv_pnd(theta_a.eta1, theta_a.eta2, theta_a.r, cutoff, wrt=wrt).terms
            assert smallest <= terms <= 1.1 * smallest


def test_terms_exceed_cutoff_and_grow_with_squeezing():
    terms = [lossy_tmsv_pnd(0.5, 0.6, r, 10).terms for r in (0.25, 0.5, 1.0, 2.0)]
    assert terms[0] > 10
    assert all(t0 < t1 for t0, t1 in zip(terms, terms[1:]))
    theta = ParamSet(eta1=0.5, eta2=0.6, r=1.0, nu1=0.1, nu2=0.2)
    assert model_pnd(theta, 10).terms == terms[2]
    assert lossy_tmsv_pnd(0.5, 0.6, 0.0, 10).terms == 0


def test_dark_counts_zero_rates_is_identity():
    pnd = lossy_tmsv_pnd(0.6, 0.8, 0.9, 6)
    assert apply_dark_counts(pnd, 0.0, 0.0) is pnd


def test_dark_counts_on_vacuum_gives_poisson_grid():
    pnd = model_pnd(ParamSet(eta1=0.5, eta2=0.5, r=0.0, nu1=0.5, nu2=0.25), 10)
    expected = np.outer(
        poisson.pmf(np.arange(11), 0.5), poisson.pmf(np.arange(11), 0.25)
    )
    assert np.abs(pnd.probs - expected).max() < 1e-14


@given(
    eta1=st.floats(0.05, 1.0),
    eta2=st.floats(0.05, 1.0),
    r=st.floats(0.0, 2.0),
    nu1=st.floats(0.0, 3.0),
    nu2=st.floats(0.0, 3.0),
)
def test_marginals_are_thermal_convolved_with_poisson(eta1, eta2, r, nu1, nu2):
    # before dark counts each arm is thermal with mean eta^2 sinh^2 r; the
    # default cutoff leaves at most 1e-12 of the other arm's mass off the grid
    theta = ParamSet(eta1=eta1, eta2=eta2, r=r, nu1=nu1, nu2=nu2)
    probs = model_pnd(theta).probs
    for eta, nu, marginal in ((eta1, nu1, probs.sum(axis=1)), (eta2, nu2, probs.sum(axis=0))):
        nbar = eta**2 * np.sinh(r) ** 2
        k = np.arange(marginal.size)
        thermal = (nbar / (1.0 + nbar)) ** k / (1.0 + nbar)
        expected = np.convolve(thermal, poisson.pmf(k, nu))[: marginal.size]
        assert np.abs(marginal - expected).max() <= 2e-12


def test_tail_mass_small_at_moderate_cutoff(theta_a):
    assert model_pnd(theta_a, 25).tail_mass < 1e-9


def test_swapping_arms_transposes_grid():
    theta = ParamSet(eta1=0.42, eta2=0.77, r=1.1, nu1=0.02, nu2=0.09)
    swapped = ParamSet(eta1=0.77, eta2=0.42, r=1.1, nu1=0.09, nu2=0.02)
    a = model_pnd(theta, (5, 9))
    b = model_pnd(swapped, (9, 5))
    assert np.abs(a.probs - b.probs.T).max() < 1e-14


@given(
    eta1=st.floats(0.2, 1.0),
    eta2=st.floats(0.2, 1.0),
    r=st.floats(0.0, 1.2),
    nu=st.floats(0.0, 0.1),
)
def test_default_cutoff_captures_all_mass(eta1, eta2, r, nu):
    theta = ParamSet(eta1=eta1, eta2=eta2, r=r, nu1=nu, nu2=nu)
    pnd = model_pnd(theta)
    assert pnd.probs.min() >= 0.0
    total = pnd.probs.sum()
    assert total <= 1.0 + 1e-12
    assert total >= 1.0 - 1e-10
    assert pnd.tail_mass <= 1e-10


def test_tail_mass_decreases_with_cutoff(theta_a):
    tails = [model_pnd(theta_a, c).tail_mass for c in (4, 6, 8, 10, 12)]
    assert all(t0 >= t1 for t0, t1 in zip(tails, tails[1:]))


def test_truncation_is_stable_against_larger_grids(theta_a):
    small = model_pnd(theta_a, 6).probs
    large = model_pnd(theta_a, 14).probs
    assert np.abs(small - large[:7, :7]).max() < 1e-13


def test_default_cutoff_bounds_tail(theta_a):
    pnd = model_pnd(theta_a, default_cutoff(theta_a))
    assert pnd.tail_mass <= 1e-12


def test_lowloss_weights_lossless_limit():
    assert lowloss_three_outcome(1.0, 1.0, 0.8) == pytest.approx((1.0, 0.0, 0.0))


def test_lowloss_weights_match_photon_loss_sums():
    eta1, eta2, r = 0.95, 0.90, 1.0
    n = np.arange(300)
    pair_weights = np.tanh(r) ** (2 * n) / np.cosh(r) ** 2
    keep_all = (eta1**2 * eta2**2) ** n
    drop_one_1 = binom.pmf(n - 1, n, eta1**2) * eta2 ** (2 * n)
    drop_one_2 = eta1 ** (2 * n) * binom.pmf(n - 1, n, eta2**2)
    expected = (
        float(pair_weights @ keep_all),
        float(pair_weights @ drop_one_1),
        float(pair_weights @ drop_one_2),
    )
    assert lowloss_three_outcome(eta1, eta2, r) == pytest.approx(expected, abs=1e-12)


def test_lowloss_weights_symmetric_under_swap():
    p00, p10, p01 = lowloss_three_outcome(0.9, 0.8, 0.6)
    q00, q10, q01 = lowloss_three_outcome(0.8, 0.9, 0.6)
    assert p00 == pytest.approx(q00, abs=1e-15)
    assert p10 == pytest.approx(q01, abs=1e-15)
    assert p01 == pytest.approx(q10, abs=1e-15)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"eta1": 0.0, "eta2": 0.5, "r": 1.0},
        {"eta1": 1.2, "eta2": 0.5, "r": 1.0},
        {"eta1": 0.5, "eta2": -0.1, "r": 1.0},
        {"eta1": 0.5, "eta2": 0.5, "r": -0.2},
        {"eta1": 0.5, "eta2": 0.5, "r": 1.0, "nu1": -0.01},
    ],
)
def test_out_of_domain_parameters_rejected(kwargs):
    with pytest.raises(ValueError):
        ParamSet(**kwargs)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize(
    "call",
    [
        lambda v: ParamSet(eta1=0.4, eta2=0.4, r=v),
        lambda v: ParamSet(eta1=0.4, eta2=0.4, r=1.0, nu1=v),
        lambda v: lossy_tmsv_pnd(0.4, 0.4, v, 8),
        lambda v: qfim_inverse_analytic(0.5, 0.5, v),
        lambda v: qfim_lowloss_tmsv(0.99, 0.99, v),
    ],
    ids=[
        "ParamSet-r",
        "ParamSet-nu1",
        "lossy_tmsv_pnd",
        "qfim_inverse_analytic",
        "qfim_lowloss_tmsv",
    ],
)
def test_non_finite_parameters_rejected(call, bad):
    with pytest.raises(ValueError, match="must lie in"):
        call(bad)


def test_bad_cutoff_rejected():
    theta = ParamSet(eta1=0.5, eta2=0.5, r=1.0)
    with pytest.raises(ValueError):
        model_pnd(theta, -1)
    with pytest.raises(ValueError):
        model_pnd(theta, (4, 5, 6))


def test_joint_pnd_rejects_bad_grids():
    with pytest.raises(ValueError):
        JointPND(probs=np.array([0.5, 0.5]), tail_mass=0.0)
    with pytest.raises(ValueError):
        JointPND(probs=np.full((2, 2), 0.5), tail_mass=-0.5)


def test_param_set_round_trip(theta_a):
    assert ParamSet.from_dict(theta_a.to_dict()) == theta_a
    assert all(type(v) is float for v in ParamSet(eta1=1, eta2=1, r=0).to_dict().values())
    assert tuple(theta_a.values(("r", "eta2"))) == (theta_a.r, theta_a.eta2)
    bumped = theta_a.replace(r=1.5)
    assert bumped.r == 1.5 and bumped.eta1 == theta_a.eta1


def test_param_set_from_dict_rejects_unknown_and_missing_keys():
    with pytest.raises(ValueError, match=r"unknown keys \['gamma'\]"):
        ParamSet.from_dict({"eta1": 0.5, "eta2": 0.6, "r": 1.0, "gamma": 2})
    with pytest.raises(ValueError, match=r"unknown keys \['phi'\]"):
        ParamSet.from_dict({"eta1": 0.5, "eta2": 0.6, "r": 1.0, "phi": 0.0})
    with pytest.raises(ValueError, match=r"missing keys \['r'\]"):
        ParamSet.from_dict({"eta1": 0.5, "eta2": 0.6})
