import numpy as np
import pytest
from conftest import fd_scores, lowloss_three_outcome

from twinloss import (
    PARAM_NAMES,
    FisherMatrix,
    LowLossValidityWarning,
    NumericError,
    ParamSet,
    classical_fim,
    crossover_curve,
    model_pnd,
    observed_fim,
    qfim_coherent,
    qfim_fock,
    qfim_inverse_analytic,
    qfim_lowloss_tmsv,
    qfim_tmsv,
    reparametrize_fim,
    sensitivity,
    total_variance,
)
from twinloss import fisher


def kl_between_models(theta_ref, theta, cutoff):
    q = model_pnd(theta_ref, cutoff)
    p = model_pnd(theta, cutoff)
    value = float(np.sum(q.probs * (np.log(q.probs) - np.log(p.probs))))
    if q.tail_mass > 0.0 and p.tail_mass > 0.0:
        value += q.tail_mass * (np.log(q.tail_mass) - np.log(p.tail_mass))
    return value


def test_classical_fim_shape_and_positivity(theta_a):
    fim = classical_fim(theta_a)
    assert fim.labels == ("eta1", "eta2", "r", "nu1", "nu2")
    assert fim.entries.shape == (5, 5)
    assert fim.smallest_eigenvalue() > 0.0


def test_classical_fim_matches_kl_curvature(theta_a):
    # information is the Hessian of the KL divergence at its minimum
    params = ("eta1", "r")
    fim = classical_fim(theta_a, params=params, cutoff=10)
    h = 1e-3
    curvature = np.empty((2, 2))
    for i, name_i in enumerate(params):
        for j, name_j in enumerate(params):

            def shifted(si, sj):
                theta = theta_a.replace(
                    **{name_i: getattr(theta_a, name_i) + si * h}
                )
                return theta.replace(**{name_j: getattr(theta, name_j) + sj * h})

            curvature[i, j] = (
                kl_between_models(theta_a, shifted(1, 1), 10)
                - kl_between_models(theta_a, shifted(1, -1), 10)
                - kl_between_models(theta_a, shifted(-1, 1), 10)
                + kl_between_models(theta_a, shifted(-1, -1), 10)
            ) / (4.0 * h * h)
    scale = np.abs(fim.entries).max()
    assert np.abs(curvature - fim.entries).max() < 5e-5 * scale


def test_classical_fim_matches_central_differences(theta_a):
    exact = classical_fim(theta_a, cutoff=12).entries
    base = model_pnd(theta_a, 12)
    mask = base.probs >= 1e-300
    use_tail = base.tail_mass >= 1e-9
    for step in (1e-5, 5e-6):
        dprobs, dtails = fd_scores(theta_a, PARAM_NAMES, 12, step=step)
        oracle = np.array(
            [
                [
                    np.sum(di[mask] * dj[mask] / base.probs[mask])
                    + (ti * tj / base.tail_mass if use_tail else 0.0)
                    for dj, tj in zip(dprobs, dtails)
                ]
                for di, ti in zip(dprobs, dtails)
            ]
        )
        assert np.abs(exact - oracle).max() < 1e-4 * np.abs(exact).max()


def test_information_matrices_evaluate_the_model_once(theta_a, monkeypatch):
    calls = []
    original = fisher.model_pnd

    def counting(*args, **kwargs):
        calls.append(kwargs.get("wrt"))
        return original(*args, **kwargs)

    monkeypatch.setattr(fisher, "model_pnd", counting)
    classical_fim(theta_a, cutoff=8)
    observed_fim(np.ones((9, 9)), theta_a, params=("eta1", "r"))
    assert calls == [PARAM_NAMES, ("eta1", "r")]


def test_classical_fim_diag_grows_with_cutoff(theta_a):
    # refining outcomes never loses information
    diags = [np.diag(classical_fim(theta_a, cutoff=c).entries) for c in (6, 9, 12, 15)]
    for lo, hi in zip(diags, diags[1:]):
        assert (hi - lo).min() > -1e-9


def test_classical_fim_boundary_point_rejected(theta_a):
    with pytest.raises(NumericError):
        classical_fim(theta_a.replace(eta1=1.0), cutoff=8)


def test_classical_fim_unknown_parameter(theta_a):
    with pytest.raises(ValueError):
        classical_fim(theta_a, params=("eta1", "phi"))


def test_observed_fim_exact_model_identity(theta_a):
    mu = 1e6
    probs = model_pnd(theta_a).probs
    observed = observed_fim(mu * probs, theta_a)
    per_shot = classical_fim(theta_a)
    scale = np.abs(per_shot.entries).max()
    assert np.abs(observed.entries / mu - per_shot.entries).max() < 1e-8 * scale


def test_observed_fim_single_bin_is_rank_deficient(theta_a):
    counts = np.zeros((9, 9))
    counts[1, 1] = 50
    fim = observed_fim(counts, theta_a)
    assert np.linalg.matrix_rank(fim.entries) == 1


def test_observed_fim_names_unexplained_bin():
    counts = np.zeros((4, 4))
    counts[2, 2] = 10
    counts[2, 0] = 3
    lossless = ParamSet(eta1=1.0, eta2=1.0, r=0.8)
    with pytest.raises(NumericError, match=r"\(2, 0\)"):
        observed_fim(counts, lossless, params=("r",))


def test_observed_fim_rejects_empty_grid(theta_a):
    with pytest.raises(ValueError):
        observed_fim(np.zeros((5, 5)), theta_a)


def test_reparametrize_identity(theta_a):
    fim = classical_fim(theta_a, params=("eta1", "eta2"), cutoff=10)
    again = reparametrize_fim(fim, np.eye(2))
    assert np.array_equal(again.entries, fim.entries)


def test_reparametrize_power_transmission_scalar(theta_a):
    # q = eta^2, so F_q = F_eta / (4 q)
    fim = classical_fim(theta_a, params=("eta1",), cutoff=10)
    jac = np.array([[1.0 / (2.0 * theta_a.eta1)]])
    fim_q = reparametrize_fim(fim, jac, labels=("q1",))
    expected = fim.entries[0, 0] / (4.0 * theta_a.eta1**2)
    assert fim_q.entries[0, 0] == pytest.approx(expected, rel=1e-14)
    assert fim_q.labels == ("q1",)


def test_reparametrize_round_trip(theta_a):
    fim = classical_fim(theta_a, params=("eta1", "r"), cutoff=10)
    jac = np.array([[2.0, 0.3], [-0.4, 1.5]])
    back = reparametrize_fim(reparametrize_fim(fim, jac), np.linalg.inv(jac))
    assert np.abs(back.entries - fim.entries).max() < 1e-10 * np.abs(fim.entries).max()


def test_reparametrize_rejects_singular_jacobian(theta_a):
    fim = classical_fim(theta_a, params=("eta1", "r"), cutoff=8)
    with pytest.raises(ValueError):
        reparametrize_fim(fim, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        reparametrize_fim(fim, np.eye(3))


def test_coherent_probe_information():
    fim = qfim_coherent(2.0, 3.0)
    assert np.array_equal(fim.entries, np.diag([8.0, 12.0]))
    assert fim.labels == ("eta1", "eta2")
    with pytest.raises(ValueError):
        qfim_coherent(-1.0, 1.0)


def test_coherent_sensitivity_equals_split_energy():
    energy = 2.0 * np.sinh(1.3) ** 2
    fim = qfim_coherent(energy / 2.0, energy / 2.0)
    assert sensitivity(fim) == pytest.approx(energy, rel=1e-12)


def test_fock_probe_information(theta_a):
    energy = 2.0 * np.sinh(theta_a.r) ** 2
    fim = qfim_fock(energy / 2.0, energy / 2.0, theta_a.eta1, theta_a.eta2)
    assert fim.entries[0, 0] == pytest.approx(13.633149702, abs=1e-6)
    assert fim.entries[1, 1] == pytest.approx(13.510075173, abs=1e-6)
    with pytest.raises(ValueError):
        qfim_fock(1.0, 1.0, 1.0, 0.5)


def test_fock_zero_photons_gives_singular_information():
    fim = qfim_fock(0.0, 1.0, 0.5, 0.5)
    with pytest.raises(NumericError, match="direction"):
        sensitivity(fim)


def test_lowloss_qfim_structure():
    fim = qfim_lowloss_tmsv(0.99, 0.995, 0.5)
    assert fim.shape == (2, 2)
    assert np.array_equal(fim, fim.T)
    energy = 2.0 * np.sinh(0.5) ** 2
    assert fim[0, 1] == pytest.approx(energy * (-4.0 - 3.0 * energy), rel=1e-12)


def test_lowloss_qfim_warns_far_from_validity():
    with pytest.warns(LowLossValidityWarning):
        qfim_lowloss_tmsv(0.5, 0.99, 0.5)
    with pytest.raises(ValueError):
        qfim_lowloss_tmsv(1.0, 0.99, 0.5)
    with pytest.raises(ValueError):
        qfim_lowloss_tmsv(0.99, 0.99, 0.0)


@pytest.mark.parametrize("eta,budget", [(0.99, 0.1), (0.999, 0.01)])
def test_lowloss_qfim_matches_three_outcome_information(eta, budget):
    # the three leading loss events carry the information at first order
    r = 0.5
    h = 1e-7

    def probe(e1, e2):
        return np.array(lowloss_three_outcome(e1, e2, r))

    p = probe(eta, eta)
    grads = [
        (probe(eta + h, eta) - probe(eta - h, eta)) / (2.0 * h),
        (probe(eta, eta + h) - probe(eta, eta - h)) / (2.0 * h),
    ]
    triple = np.array(
        [[np.sum(grads[i] * grads[j] / p) for j in range(2)] for i in range(2)]
    )
    fim = qfim_lowloss_tmsv(eta, eta, r)
    assert np.abs(fim - triple).max() < budget * np.abs(triple).max()


def test_exact_twin_beam_qfim_consistent_with_bound(theta_a):
    fim = qfim_tmsv(theta_a.eta1, theta_a.eta2, theta_a.r)
    bounds = qfim_inverse_analytic(theta_a.eta1, theta_a.eta2, theta_a.r)
    assert total_variance(fim) == pytest.approx(bounds[0, 0] + bounds[1, 1], rel=1e-9)


def test_total_variance_grows_with_nuisance_parameters(theta_a):
    three = classical_fim(theta_a, params=("eta1", "eta2", "r"))
    five = classical_fim(theta_a)
    assert 0.0 < total_variance(three) < total_variance(five)


def test_total_variance_requires_transmission_labels(theta_a):
    fim = classical_fim(theta_a, params=("eta1", "r"))
    with pytest.raises(KeyError):
        total_variance(fim)


def test_fisher_matrix_validates_input():
    with pytest.raises(ValueError):
        FisherMatrix(labels=("a", "b"), entries=np.array([[1.0, 0.5], [0.4, 1.0]]))
    with pytest.raises(ValueError):
        FisherMatrix(labels=("a", "b"), entries=np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ValueError):
        FisherMatrix(labels=("a",), entries=np.eye(2))


@pytest.mark.parametrize(
    "build",
    [
        lambda: FisherMatrix(labels=("a",), entries=np.array([[np.nan]])),
        lambda: FisherMatrix(labels=("a",), entries=np.array([[np.inf]])),
        lambda: qfim_coherent(np.nan, 1.0),
        lambda: qfim_coherent(np.inf, 1.0),
        lambda: qfim_fock(np.nan, 1.0, 0.5, 0.5),
        lambda: qfim_fock(1.0, 1.0, 0.5, np.nan),
        lambda: qfim_inverse_analytic(np.nan, 0.5, 1.0),
        lambda: qfim_inverse_analytic(0.5, 0.5, np.inf),
        lambda: qfim_tmsv(0.5, np.nan, 1.0),
    ],
)
def test_non_finite_inputs_rejected(build):
    with pytest.raises(ValueError):
        build()


def test_crossover_diagonal_reference_points():
    quarter = crossover_curve(0.25, n_rays=1)
    assert quarter.diagonal_point() == pytest.approx(0.45441185, abs=5e-4)
    unit = crossover_curve(1.0, n_rays=1)
    assert unit.diagonal_point() == pytest.approx(0.77871681, abs=5e-4)


def test_crossover_points_sit_on_the_frontier():
    energy = 2.0 * np.sinh(0.25) ** 2
    curve = crossover_curve(0.25, n_rays=9)
    assert curve.points.shape[0] >= 3
    for eta1, eta2 in curve.points:
        fim = classical_fim(
            ParamSet(eta1=eta1, eta2=eta2, r=0.25), params=("eta1", "eta2")
        )
        assert sensitivity(fim) == pytest.approx(energy, rel=1e-5)


@pytest.mark.parametrize(
    "r, source", [(0.25, "pnrd-fim"), (0.5, "three-param-qfim"), (0.05, "lowloss-qfim")]
)
def test_crossover_roots_are_precise(r, source):
    energy = 2.0 * np.sinh(r) ** 2
    curve = crossover_curve(r, source=source, n_rays=9)
    assert curve.points.shape[0] >= 1
    for point in curve.points:
        below = fisher._sensitivity_for_source(source, *((1.0 - 1e-9) * point), r)
        above = fisher._sensitivity_for_source(source, *((1.0 + 1e-9) * point), r)
        assert below < energy < above


def test_crossover_curve_is_swap_symmetric():
    curve = crossover_curve(0.25, n_rays=9)
    mirrored = curve.points[::-1, ::-1]
    assert np.abs(curve.points - mirrored).max() < 1e-6


def test_crossover_lowloss_source():
    curve = crossover_curve(1.0, source="lowloss-qfim", n_rays=1)
    assert curve.diagonal_point() == pytest.approx(0.9650816, abs=1e-4)


def test_crossover_quantum_bound_source():
    curve = crossover_curve(0.5, source="three-param-qfim", n_rays=1)
    assert curve.diagonal_point() == pytest.approx(0.72800589, abs=1e-4)


def test_crossover_validation():
    with pytest.raises(ValueError):
        crossover_curve(0.0)
    with pytest.raises(ValueError):
        crossover_curve(0.5, source="other")
    with pytest.raises(ValueError):
        crossover_curve(0.5, n_rays=0)
