import numpy as np
import pytest
from conftest import OMEGA, gaussian_qfim, lossy_tmsv_covariance
from hypothesis import given
from hypothesis import strategies as st

from twinloss import qfim_inverse_analytic, qfim_tmsv


def test_variance_bound_reference_values(theta_a, theta_b):
    inv = qfim_inverse_analytic(theta_a.eta1, theta_a.eta2, theta_a.r)
    assert np.diag(inv) == pytest.approx(
        [1.7404032483, 1.6574383888, 8.3050528021], abs=1e-9
    )
    assert inv[0, 1] == pytest.approx(1.624698042722, abs=1e-11)
    assert inv[0, 2] == pytest.approx(-3.664450427433, abs=1e-11)
    assert inv[1, 2] == pytest.approx(-3.571348222807, abs=1e-11)

    inv_b = qfim_inverse_analytic(theta_b.eta1, theta_b.eta2, theta_b.r)
    assert np.diag(inv_b) == pytest.approx(
        [3.45068477, 3.42514613, 31.39354304], abs=1e-7
    )


def test_variance_bound_positive_definite_on_grid():
    for eta1 in (0.15, 0.5, 0.9):
        for eta2 in (0.2, 0.65, 0.95):
            for r in (0.1, 0.8, 1.5):
                inv = qfim_inverse_analytic(eta1, eta2, r)
                assert np.linalg.eigvalsh(inv).min() > 0.0


def test_variance_bound_heralded_limit():
    # a lossless partner arm pins the pair number, leaving a number-probe bound
    eta1, r = 0.6, 0.9
    inv = qfim_inverse_analytic(eta1, 1.0 - 1e-9, r)
    energy = 2.0 * np.sinh(r) ** 2
    assert inv[0, 0] == pytest.approx((1.0 - eta1**2) / (2.0 * energy), rel=1e-6)


@pytest.mark.parametrize(
    "eta1,eta2,r",
    [(1.0, 0.5, 1.0), (0.5, 1.1, 1.0), (0.0, 0.5, 1.0), (0.5, 0.5, 0.0), (0.5, 0.5, -1.0)],
)
def test_variance_bound_domain(eta1, eta2, r):
    with pytest.raises(ValueError):
        qfim_inverse_analytic(eta1, eta2, r)


def test_three_param_qfim_inverts_the_analytic_bound(theta_a):
    fim = qfim_tmsv(theta_a.eta1, theta_a.eta2, theta_a.r)
    inv = qfim_inverse_analytic(theta_a.eta1, theta_a.eta2, theta_a.r)
    assert fim.labels == ("eta1", "eta2", "r")
    assert np.abs(np.linalg.inv(fim.entries) - inv).max() < 1e-9 * np.abs(inv).max()


@given(
    eta1=st.floats(0.05, 0.99),
    eta2=st.floats(0.05, 0.99),
    r=st.floats(0.05, 2.0),
)
def test_analytic_qfim_matches_gaussian_state_oracle(eta1, eta2, r):
    sigma, _ = lossy_tmsv_covariance(eta1, eta2, r)
    assert np.linalg.eigvalsh(sigma + 1j * OMEGA).min() >= -1e-10 * np.abs(sigma).max()
    oracle = gaussian_qfim(eta1, eta2, r)
    fim = qfim_tmsv(eta1, eta2, r).entries
    assert np.abs(oracle - fim).max() <= 1e-9 * np.abs(oracle).max()
