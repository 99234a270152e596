import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from twinloss import (
    CovarianceMatrix,
    apply_loss,
    beamsplitter_symplectic,
    model_pnd,
    qfim_inverse_analytic,
    qfim_tmsv,
    symplectic_form,
    tmsv_covariance,
)


def test_symplectic_form_squares_to_minus_identity():
    omega = symplectic_form(3)
    assert np.array_equal(omega @ omega, -np.eye(6))
    assert np.array_equal(omega.T, -omega)


def test_vacuum_covariance():
    assert np.array_equal(tmsv_covariance(0.0).entries, 0.5 * np.eye(4))


def test_tmsv_covariance_blocks():
    cov = tmsv_covariance(1.0).entries
    diag = 1.8810978455418157  # cosh(2)/2
    off = -1.8134302039235093  # -sinh(2)/2
    assert cov[0, 0] == pytest.approx(diag, abs=1e-15)
    assert cov[3, 3] == pytest.approx(diag, abs=1e-15)
    assert cov[0, 2] == pytest.approx(off, abs=1e-15)
    assert cov[1, 3] == pytest.approx(-off, abs=1e-15)
    assert cov[0, 3] == 0.0 and cov[1, 2] == 0.0


def test_tmsv_phase_rotates_cross_block():
    phi = 0.7
    cov = tmsv_covariance(0.9, phi).entries
    scale = -np.sinh(1.8) / 2.0
    expected = scale * np.array(
        [[np.cos(phi), np.sin(phi)], [np.sin(phi), -np.cos(phi)]]
    )
    assert np.abs(cov[:2, 2:] - expected).max() < 1e-14


def test_beamsplitter_limits():
    assert np.array_equal(beamsplitter_symplectic(1.0), np.eye(4))
    full = beamsplitter_symplectic(0.0)
    assert np.array_equal(full[:2, 2:], np.eye(2))
    assert np.array_equal(full[2:, :2], -np.eye(2))


@pytest.mark.parametrize("eta", [0.0, 0.3, 0.78, 1.0])
def test_beamsplitter_is_symplectic_and_orthogonal(eta):
    mat = beamsplitter_symplectic(eta)
    omega = symplectic_form(2)
    assert np.abs(mat @ omega @ mat.T - omega).max() < 1e-14
    assert np.abs(mat.T @ mat - np.eye(4)).max() < 1e-14


def test_apply_loss_identity_channels():
    cov = tmsv_covariance(1.2, 0.4)
    out = apply_loss(cov, 1.0, 1.0)
    assert np.abs(out.entries - cov.entries).max() < 1e-15


def test_apply_loss_keeps_vacuum_fixed():
    vac = CovarianceMatrix(entries=0.5 * np.eye(4))
    out = apply_loss(vac, 0.6, 0.3)
    assert np.abs(out.entries - vac.entries).max() < 1e-15


def test_lossy_covariance_frozen_entry():
    out = apply_loss(tmsv_covariance(1.0), 0.5, 0.7)
    assert out.entries[0, 0] == pytest.approx(0.8452744613854539, abs=1e-15)


@given(
    eta1=st.floats(0.05, 1.0),
    eta2=st.floats(0.05, 1.0),
    r=st.floats(0.0, 1.5),
    phi=st.floats(-3.0, 3.0),
)
def test_lossy_covariance_closed_form(eta1, eta2, r, phi):
    out = apply_loss(tmsv_covariance(r, phi), eta1, eta2).entries
    diag_a = (eta1**2 * np.cosh(2 * r) + 1.0 - eta1**2) / 2.0
    diag_b = (eta2**2 * np.cosh(2 * r) + 1.0 - eta2**2) / 2.0
    cross = (
        -eta1
        * eta2
        * np.sinh(2 * r)
        / 2.0
        * np.array([[np.cos(phi), np.sin(phi)], [np.sin(phi), -np.cos(phi)]])
    )
    expected = np.block(
        [[diag_a * np.eye(2), cross], [cross.T, diag_b * np.eye(2)]]
    )
    assert np.abs(out - expected).max() < 1e-13


def test_unphysical_covariance_rejected():
    with pytest.raises(ValueError):
        CovarianceMatrix(entries=0.4 * np.eye(4))
    with pytest.raises(ValueError):
        CovarianceMatrix(entries=np.array([[0.5, 0.1], [0.2, 0.5]]))
    with pytest.raises(ValueError):
        CovarianceMatrix(entries=np.eye(3))


def test_covariance_and_count_model_agree_on_means(theta_a):
    cov = apply_loss(tmsv_covariance(theta_a.r), theta_a.eta1, theta_a.eta2).entries
    mean_a = (cov[0, 0] + cov[1, 1] - 1.0) / 2.0
    mean_b = (cov[2, 2] + cov[3, 3] - 1.0) / 2.0
    bare = theta_a.replace(nu1=0.0, nu2=0.0)
    counted = model_pnd(bare, 40).marginal_means()
    assert mean_a == pytest.approx(counted[0], abs=1e-8)
    assert mean_b == pytest.approx(counted[1], abs=1e-8)


def test_variance_bound_reference_values(theta_a, theta_b):
    inv = qfim_inverse_analytic(theta_a.eta1, theta_a.eta2, theta_a.r)
    assert inv.variance_bounds() == pytest.approx(
        [1.7404032483, 1.6574383888, 8.3050528021], abs=1e-9
    )
    assert inv.entries[0, 1] == pytest.approx(1.624698042722, abs=1e-11)
    assert inv.entries[0, 2] == pytest.approx(-3.664450427433, abs=1e-11)
    assert inv.entries[1, 2] == pytest.approx(-3.571348222807, abs=1e-11)

    inv_b = qfim_inverse_analytic(theta_b.eta1, theta_b.eta2, theta_b.r)
    assert inv_b.variance_bounds() == pytest.approx(
        [3.45068477, 3.42514613, 31.39354304], abs=1e-7
    )


def test_variance_bound_positive_definite_on_grid():
    for eta1 in (0.15, 0.5, 0.9):
        for eta2 in (0.2, 0.65, 0.95):
            for r in (0.1, 0.8, 1.5):
                inv = qfim_inverse_analytic(eta1, eta2, r)
                assert np.linalg.eigvalsh(inv.entries).min() > 0.0


def test_variance_bound_heralded_limit():
    # a lossless partner arm pins the pair number, leaving a number-probe bound
    eta1, r = 0.6, 0.9
    inv = qfim_inverse_analytic(eta1, 1.0 - 1e-9, r)
    energy = 2.0 * np.sinh(r) ** 2
    assert inv.entries[0, 0] == pytest.approx((1.0 - eta1**2) / (2.0 * energy), rel=1e-6)


@pytest.mark.parametrize(
    "eta1,eta2,r",
    [(1.0, 0.5, 1.0), (0.5, 1.1, 1.0), (0.0, 0.5, 1.0), (0.5, 0.5, 0.0), (0.5, 0.5, -1.0)],
)
def test_variance_bound_domain(eta1, eta2, r):
    with pytest.raises(ValueError):
        qfim_inverse_analytic(eta1, eta2, r)


def test_three_param_qfim_inverts_the_analytic_bound(theta_a):
    fim = qfim_tmsv(theta_a.eta1, theta_a.eta2, theta_a.r)
    inv = qfim_inverse_analytic(theta_a.eta1, theta_a.eta2, theta_a.r).entries
    assert fim.labels == ("eta1", "eta2", "r")
    assert np.abs(np.linalg.inv(fim.entries) - inv).max() < 1e-9 * np.abs(inv).max()
