import numpy as np
import pytest
from conftest import crossover_full_solve, fd_scores, lowloss_qfim, lowloss_three_outcome

from twinloss import (
    PARAM_NAMES,
    FisherMatrix,
    NumericError,
    ParamSet,
    classical_fim,
    crossover_curve,
    model_pnd,
    observed_fim,
    qfim_coherent,
    qfim_fock,
    qfim_inverse_analytic,
    qfim_tmsv,
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
    assert np.linalg.eigvalsh(fim.entries).min() > 0


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
    fim = lowloss_qfim(0.99, 0.995, 0.5)
    assert fim.shape == (2, 2)
    assert np.array_equal(fim, fim.T)
    energy = 2.0 * np.sinh(0.5) ** 2
    assert fim[0, 1] == pytest.approx(energy * (-4.0 - 3.0 * energy), rel=1e-12)


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
    fim = lowloss_qfim(eta, eta, r)
    assert np.abs(fim - triple).max() < budget * np.abs(triple).max()


@pytest.mark.parametrize("r", [0.25, 0.5, 1.0])
@pytest.mark.parametrize("eta", [0.99, 0.999, 0.9999])
def test_exact_twin_beam_qfim_matches_lowloss_expansion(eta, r):
    # the expansion is first order in 1 - eta, so the relative gap is O(1 - eta)
    block = qfim_tmsv(eta, eta, r).entries[:2, :2]
    gap = np.abs(lowloss_qfim(eta, eta, r) - block).max() / np.abs(block).max()
    assert gap <= 15.0 * (1.0 - eta)


def test_exact_twin_beam_qfim_consistent_with_bound(theta_a):
    fim = qfim_tmsv(theta_a.eta1, theta_a.eta2, theta_a.r)
    bounds = qfim_inverse_analytic(theta_a.eta1, theta_a.eta2, theta_a.r)
    assert total_variance(fim) == pytest.approx(bounds[0, 0] + bounds[1, 1], rel=1e-9)


def test_exact_twin_beam_qfim_rejects_singular_bound():
    with pytest.raises(NumericError, match="direction"):
        qfim_tmsv(0.5, 0.5, 1e-9)
    # at tiny amplitudes the bound overflows
    with pytest.raises(NumericError, match="non-finite"):
        qfim_tmsv(1e-80, 1e-80, 1.0)


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


@pytest.mark.parametrize("r, source", [(0.25, "pnrd-fim"), (0.5, "three-param-qfim")])
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


@pytest.mark.parametrize("source", ["pnrd-fim", "three-param-qfim"])
@pytest.mark.parametrize("n_rays", [1, 2, 8, 9, 17])
def test_mirrored_crossover_matches_full_solve(source, n_rays):
    for r in (1 / 16, 1 / 4, 1 / 2, 1.0):
        curve = crossover_curve(r, source=source, n_rays=n_rays)
        full = crossover_full_solve(r, source, n_rays)
        assert curve.points.shape == full.shape
        if full.size:
            assert np.abs(curve.points - full).max() <= 1e-12
        # the end rays pass through the corners of the square and yield no point
        assert curve.points.shape[0] <= max(n_rays - 2, 1)
        if n_rays % 2:
            # the middle ray is solved, not mirrored, and lies on the diagonal
            assert curve.diagonal_point() == fisher.CrossoverCurve(r, source, full).diagonal_point()


def test_crossover_evaluates_no_point_twice(monkeypatch):
    points = []

    def counted(theta, *args, **kwargs):
        points.append((theta.eta1, theta.eta2))
        return classical_fim(theta, *args, **kwargs)

    monkeypatch.setattr(fisher, "classical_fim", counted)
    crossover_curve(0.25, n_rays=9)
    assert points and len(set(points)) == len(points)


def test_crossover_quantum_bound_source():
    curve = crossover_curve(0.5, source="three-param-qfim", n_rays=1)
    assert curve.diagonal_point() == pytest.approx(0.72800589, abs=1e-4)


def test_crossover_validation():
    with pytest.raises(ValueError):
        crossover_curve(0.0)
    with pytest.raises(ValueError):
        crossover_curve(0.5, source="other")
    with pytest.raises(ValueError, match="unknown information source"):
        crossover_curve(0.5, source="lowloss-qfim")
    with pytest.raises(ValueError):
        crossover_curve(0.5, n_rays=0)
