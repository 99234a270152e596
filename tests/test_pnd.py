import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from conftest import (
    dark_count_oracle,
    fd_scores,
    hypergeometric_pnd,
    lowloss_three_outcome,
    mixture_pnd,
    series_pnd,
)
from scipy.stats import binom, poisson

from twinloss import (
    PARAM_NAMES,
    Histogram,
    JointPND,
    NumericError,
    ParamSet,
    apply_dark_counts,
    classical_fim,
    default_cutoff,
    fit,
    lossy_tmsv_pnd,
    model_pnd,
    observed_fim,
    qfim_inverse_analytic,
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
    # rho = 0.88 and a wide grid: the oracle's series needs far more than
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
    # be accurate is swamped by roundoff
    coarse, _ = fd_scores(theta, PARAM_NAMES, (ca, cb), step=2e-3)
    fine, _ = fd_scores(theta, PARAM_NAMES, (ca, cb), step=1e-3)
    for name, c, f in zip(PARAM_NAMES, coarse, fine):
        got, want = pnd.scores[name], (4.0 * f - c) / 3.0
        assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()
        assert abs(pnd.tail_scores[name] + got.sum()) <= 1e-13


def test_scores_match_fixed_sum_in_far_corner():
    # rho = 0.88 on a wide grid: the score terms of the pair-number series
    # peak near N ~ 700, well inside the 4001 terms summed here
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


@pytest.mark.parametrize(
    "call",
    [
        lambda theta, names: model_pnd(theta, 4, wrt=names),
        lambda theta, names: classical_fim(theta, params=names, cutoff=4),
        lambda theta, names: observed_fim(np.ones((5, 5)), theta, params=names),
        lambda theta, names: fit(Histogram(counts=np.ones((5, 5))), theta, free=names),
    ],
    ids=["model_pnd", "classical_fim", "observed_fim", "fit"],
)
def test_repeated_parameter_names_rejected(theta_a, call):
    with pytest.raises(ValueError, match="repeat"):
        call(theta_a, ("eta1", "r", "eta1"))


@pytest.mark.parametrize(
    "eta, r",
    # the truncated series refused all three: rho rounds to 1 at the first, and
    # the others needed 100 000 or more pair-number terms
    [(1e-9, 20.0), (0.01, 6.0), (0.017, 6.0)],
)
def test_far_points_match_hypergeometric_form(eta, r):
    probs = lossy_tmsv_pnd(eta, 1.1 * eta, r, 4).probs
    euler = hypergeometric_pnd(eta, 1.1 * eta, r, (4, 4), euler=True)
    assert np.all(np.abs(probs - euler) <= 1e-12 * euler)
    if (1.0 - eta**2) ** 2 * np.tanh(r) ** 2 < 1.0:
        # near rho = 1 the series form amplifies the roundoff of rho by
        # (k + l + 1) / (1 - rho), about 4e4 here
        series = hypergeometric_pnd(eta, 1.1 * eta, r, (4, 4), euler=False)
        assert np.all(np.abs(probs - series) <= 1e-10 * series)


@given(
    eta1=eta_domain,
    eta2=eta_domain,
    r=st.floats(0.0, 2.5, exclude_min=True),
    ca=st.integers(0, 39),
    cb=st.integers(0, 39),
)
def test_finite_sum_matches_series_bin_by_bin(eta1, eta2, r, ca, cb):
    got = lossy_tmsv_pnd(eta1, eta2, r, (ca, cb)).probs
    want = series_pnd(eta1, eta2, r, (ca, cb))
    big = want > 1e-250
    assert np.all(np.abs(got - want)[big] <= 1e-12 * want[big])


@given(
    eta1=eta_domain,
    eta2=eta_domain,
    r=st.floats(0.0, 2.5, exclude_min=True),
    ca=st.integers(0, 39),
    cb=st.integers(0, 39),
)
def test_finite_sum_matches_hypergeometric_form(eta1, eta2, r, ca, cb):
    got = lossy_tmsv_pnd(eta1, eta2, r, (ca, cb)).probs
    want = hypergeometric_pnd(eta1, eta2, r, (ca, cb), euler=True)
    big = want > 1e-250
    assert np.all(np.abs(got - want)[big] <= 1e-12 * want[big])


@pytest.mark.parametrize(
    "eta1, eta2, r, cutoff",
    [
        # the truncated series refused the first (0.3-1.3 s, 357 MB) and took
        # 2-3 s and 1.3 GB on the second (None: the default cutoff)
        (0.02, 0.026, 4.5, None),
        (0.05, 0.065, 4.5, None),
        # C(k, m) tanh^(2(k - m)) r overflows here unless each factor row is
        # scaled to its largest entry
        (0.99, 0.1, 2.0, (1100, 600)),
    ],
)
def test_wide_grids_evaluate_within_a_second(eta1, eta2, r, cutoff):
    cutoff = cutoff or default_cutoff(ParamSet(eta1=eta1, eta2=eta2, r=r))
    start = time.perf_counter()
    probs = lossy_tmsv_pnd(eta1, eta2, r, cutoff).probs
    assert time.perf_counter() - start < 1.0
    assert np.isfinite(probs).all()
    for eta, marginal in ((eta1, probs.sum(axis=1)), (eta2, probs.sum(axis=0))):
        nbar = eta**2 * np.sinh(r) ** 2
        thermal = (nbar / (1.0 + nbar)) ** np.arange(marginal.size) / (1.0 + nbar)
        assert np.abs(marginal - thermal).max() <= 1e-12


@pytest.mark.parametrize(
    "call",
    [
        # D = q1 + q2 - q1 q2 + (1 - q1)(1 - q2) / cosh^2 r underflows to 0
        lambda: lossy_tmsv_pnd(1e-200, 1e-200, 400.0, 4),
        lambda: model_pnd(ParamSet(eta1=1e-200, eta2=1e-200, r=400.0, nu1=0.1), 4),
        # 2 / (sinh r cosh r) overflows at a subnormal r
        lambda: lossy_tmsv_pnd(0.5, 0.5, 1e-310, 4, wrt=("r",)),
    ],
    ids=["lossy_tmsv_pnd", "model_pnd", "subnormal-r-score"],
)
def test_unrepresentable_points_raise_numeric_error(call):
    with pytest.raises(NumericError, match="cannot be represented at eta1="):
        call()


def test_squeezing_score_keeps_its_first_order_term_at_tiny_r():
    # at r = 1e-200 bin (0, 0) is 1 / (cosh^2 r D), whose r-derivative is
    # -2 r (1 - (1 - q1)(1 - q2)); the truncated series lost it with tanh^2 r
    r = 1e-200
    score = lossy_tmsv_pnd(0.5, 0.5, r, 2, wrt=("r",)).scores["r"][0, 0]
    assert score == pytest.approx(-2.0 * r * (1.0 - 0.75**2), rel=1e-12, abs=0.0)


def test_vacuum_scores_in_transmission_vanish():
    pnd = lossy_tmsv_pnd(0.7, 0.9, 0.0, 4, wrt=("eta1", "eta2"))
    assert not pnd.scores["eta1"].any() and not pnd.scores["eta2"].any()


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
    ],
    ids=[
        "ParamSet-r",
        "ParamSet-nu1",
        "lossy_tmsv_pnd",
        "qfim_inverse_analytic",
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
