"""Generator contracts: shapes, determinism, frozen-dynamics limits, truth
bookkeeping, and distributional frequency checks."""
import re

import numpy as np
import pytest

from fusionshrink import simulate as simulate_module
from fusionshrink.dataio import save_dataset
from fusionshrink.simulate import (
    gen_case1,
    gen_case2_network,
    gen_case3_tensor,
    gen_cluster_case,
    gen_two_movers,
)


def test_case1_shapes_and_truth_consistency():
    data = gen_case1(n=5, p=4, T=6, d=2, seed=3)
    assert data.observations.kind == "gaussian-matrix"
    assert data.observations.values.shape == (6, 5, 4)
    U, V = data.truth_factors
    assert U.shape == (5, 6, 2) and V.shape == (4, 6, 2)
    for t in range(6):
        np.testing.assert_allclose(
            data.truth_means[t], U[:, t] @ V[:, t].T, atol=1e-12
        )


def test_case1_deterministic_and_seed_sensitive():
    a = gen_case1(4, 4, 5, seed=11)
    b = gen_case1(4, 4, 5, seed=11)
    c = gen_case1(4, 4, 5, seed=12)
    np.testing.assert_array_equal(a.observations.values, b.observations.values)
    np.testing.assert_array_equal(a.truth_factors[0], b.truth_factors[0])
    assert not np.array_equal(a.observations.values, c.observations.values)


def test_case1_rho_one_freezes_factors():
    data = gen_case1(4, 3, 7, rho=1.0, seed=0)
    for F in data.truth_factors:
        np.testing.assert_array_equal(F, np.repeat(F[:, :1], 7, axis=1))


def test_case1_jump_frequency_and_shape():
    # Jumps are +-(1,1) with probability 1-rho per subject-step.
    data = gen_case1(30, 30, 80, rho=0.9, seed=5, sigma=0.0)
    jumps = 0
    for F in data.truth_factors:
        diff = F[:, 1:] - F[:, :-1]
        moved = np.any(diff != 0, axis=-1)
        # both components always jump together by the same +-1 (cumsum paths
        # reconstruct the jumps only to rounding)
        np.testing.assert_allclose(diff[moved][:, 0], diff[moved][:, 1], atol=1e-9)
        np.testing.assert_allclose(np.abs(diff[moved][:, 0]), 1.0, atol=1e-9)
        jumps += moved.sum()
    n_trials = 2 * 30 * 79
    expect = 0.1 * n_trials
    sigma3 = 3 * np.sqrt(n_trials * 0.1 * 0.9)
    assert abs(jumps - expect) < sigma3


def test_case2_network_structure():
    data = gen_case2_network(n=8, T=5, seed=2)
    Y = data.observations.values
    assert data.observations.kind == "bernoulli-network"
    assert Y.shape == (5, 8, 8)
    assert set(np.unique(Y)) <= {0.0, 1.0}
    np.testing.assert_array_equal(Y, np.swapaxes(Y, 1, 2))
    assert np.all(Y[:, np.arange(8), np.arange(8)] == 0)
    (U,) = data.truth_factors
    logits = np.einsum("itd,jtd->tij", U, U)
    probs = 1.0 / (1.0 + np.exp(-logits))
    probs[:, np.arange(8), np.arange(8)] = 0.0
    np.testing.assert_allclose(data.truth_means, probs, atol=1e-12)


def test_case2_edge_frequency_tracks_probs():
    data = gen_case2_network(n=25, T=40, rho=0.9, seed=7)
    iu = np.triu_indices(25, k=1)
    p = data.truth_means[:, iu[0], iu[1]]
    y = data.observations.values[:, iu[0], iu[1]]
    total = y.sum()
    mean = p.sum()
    sigma = np.sqrt((p * (1 - p)).sum())
    assert abs(total - mean) < 4 * sigma


def test_case3_tensor_truth_consistency():
    dims = (4, 3, 3)
    data = gen_case3_tensor(dims, T=5, seed=1)
    assert data.observations.kind == "gaussian-tensor"
    assert data.observations.values.shape == (5,) + dims
    assert len(data.truth_factors) == 3
    ref = np.einsum("itl,jtl,ktl->tijk", *data.truth_factors)
    np.testing.assert_allclose(data.truth_means, ref, atol=1e-12)
    frozen = gen_case3_tensor(dims, T=4, rho=1.0, seed=1)
    np.testing.assert_array_equal(
        frozen.truth_means, np.repeat(frozen.truth_means[:1], 4, axis=0)
    )


def test_cluster_case_corners_and_labels():
    data = gen_cluster_case(n=12, T=30, p_stay=0.9, seed=4)
    (U,) = data.truth_factors
    corners = {(-2.0, -2.0), (-2.0, 2.0), (2.0, -2.0), (2.0, 2.0)}
    seen = {tuple(row) for row in U.reshape(-1, 2)}
    assert seen <= corners
    labels = data.truth_labels
    assert labels.shape == (30, 12)
    # labels index the corner the subject occupies
    static = gen_cluster_case(n=6, T=10, p_stay=1.0, seed=0)
    assert np.all(static.truth_labels == static.truth_labels[0])


def test_cluster_membership_change_rate():
    n, T, p_stay = 40, 100, 0.95
    data = gen_cluster_case(n=n, T=T, p_stay=p_stay, seed=8)
    changes = int((data.truth_labels[1:] != data.truth_labels[:-1]).sum())
    trials = n * (T - 1)
    expect = (1 - p_stay) * trials
    sigma3 = 3 * np.sqrt(trials * p_stay * (1 - p_stay))
    assert abs(changes - expect) < sigma3


def test_cluster_intercept_in_probs():
    # all-same-corner dyad: logit = -2 + 8 = 6; opposite corners: -2 - 8
    data = gen_cluster_case(n=10, T=5, p_stay=0.9, seed=9)
    (U,) = data.truth_factors
    inner = np.einsum("itd,jtd->tij", U, U)
    expected = 1.0 / (1.0 + np.exp(-(inner - 2.0)))
    expected[:, np.arange(10), np.arange(10)] = 0.0
    np.testing.assert_allclose(data.truth_means, expected, atol=1e-12)


def test_two_movers_only_first_two_move():
    data = gen_two_movers(n=10, T=100, seed=0)
    (U,) = data.truth_factors
    diffs = np.linalg.norm(U[:, 1:] - U[:, :-1], axis=-1)
    assert np.all(diffs[2:] == 0.0)
    assert diffs[:2].sum() > 0.0  # this seed makes the movers move
    corners = {(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)}
    assert {tuple(row) for row in U.reshape(-1, 2)} <= corners
    # probabilities use the doubled inner product, no intercept
    inner = np.einsum("itd,jtd->tij", U, U)
    expected = 1.0 / (1.0 + np.exp(-2.0 * inner))
    expected[:, np.arange(10), np.arange(10)] = 0.0
    np.testing.assert_allclose(data.truth_means, expected, atol=1e-12)


def test_two_movers_transit_frequency():
    data = gen_two_movers(n=5, T=2000, transit_prob=0.05, seed=3)
    moves = int((data.truth_labels[1:, :2] != data.truth_labels[:-1, :2]).sum())
    trials = 2 * 1999
    expect = 0.05 * trials
    sigma3 = 3 * np.sqrt(trials * 0.05 * 0.95)
    assert abs(moves - expect) < sigma3


# ----- invalid arguments are rejected with the argument's name -----------------


def assert_rejects(gen, name, **kwargs):
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must"):
        gen(**kwargs)


@pytest.mark.parametrize(
    "name, kwargs",
    [
        ("rho", {"rho": 1.5}),
        ("rho", {"rho": -0.1}),
        ("rho", {"rho": np.nan}),
        ("sigma", {"sigma": -1.0}),
        ("sigma", {"sigma": np.inf}),
        ("sigma", {"sigma": np.nan}),
        ("n", {"n": 0}),
        ("p", {"p": 0}),
        ("T", {"T": 0}),
        ("d", {"d": 0}),
    ],
)
def test_case1_rejects_bad_arguments(name, kwargs):
    assert_rejects(gen_case1, name, **{"n": 3, "p": 3, "T": 4, **kwargs})


@pytest.mark.parametrize(
    "name, kwargs",
    [("rho", {"rho": 2.0}), ("rho", {"rho": -1.0}), ("n", {"n": 0}), ("T", {"T": -1})],
)
def test_case2_rejects_bad_arguments(name, kwargs):
    assert_rejects(gen_case2_network, name, **{"n": 3, "T": 4, **kwargs})


@pytest.mark.parametrize(
    "name, kwargs",
    [
        ("rho", {"rho": 1.01}),
        ("sigma", {"sigma": -0.3}),
        ("dims[1]", {"dims": (3, 0, 3)}),
        ("T", {"T": 0}),
    ],
)
def test_case3_rejects_bad_arguments(name, kwargs):
    assert_rejects(gen_case3_tensor, name, **{"dims": (3, 3, 3), "T": 4, **kwargs})


@pytest.mark.parametrize(
    "name, kwargs",
    [("p_stay", {"p_stay": 1.2}), ("p_stay", {"p_stay": -0.5}), ("n", {"n": 0}), ("T", {"T": 0})],
)
def test_cluster_case_rejects_bad_arguments(name, kwargs):
    assert_rejects(gen_cluster_case, name, **{"n": 4, "T": 4, **kwargs})


@pytest.mark.parametrize(
    "name, kwargs",
    [
        ("transit_prob", {"transit_prob": 1.5}),
        ("transit_prob", {"transit_prob": -0.05}),
        ("n", {"n": 0}),
        ("T", {"T": 0}),
    ],
)
def test_two_movers_rejects_bad_arguments(name, kwargs):
    assert_rejects(gen_two_movers, name, **{"n": 4, "T": 4, **kwargs})


def test_boundary_arguments_are_accepted():
    gen_case1(1, 1, 1, d=1, rho=0.0, sigma=0.0)
    gen_case2_network(1, 1, rho=1.0)
    gen_case3_tensor((1, 1, 1), 1, rho=0.0, sigma=0.0)
    gen_cluster_case(1, 1, p_stay=0.0)
    gen_two_movers(1, 1, transit_prob=1.0)


def cp_mean_stack_per_time(factors):
    """The reconstruction the generators used before cp_stack: per time,
    mode 0 against Khatri-Rao rows built from the highest mode down, then
    a Fortran reshape of the mode-0 unfolding."""
    sizes = tuple(f.shape[0] for f in factors)
    d = factors[0].shape[-1]
    slices = []
    for t in range(factors[0].shape[1]):
        rows = np.ones((1, d))
        for f in factors[:0:-1]:
            rows = (rows[:, None, :] * f[:, t][None, :, :]).reshape(-1, d)
        slices.append((factors[0][:, t] @ rows.T).reshape(sizes, order="F"))
    return np.stack(slices)


def test_generators_write_the_bytes_of_the_per_time_reconstruction(
    tmp_path, monkeypatch
):
    def write_both(root):
        one = gen_case1(n=7, p=5, T=12, seed=3)
        three = gen_case3_tensor((4, 3, 5), T=9, seed=3)
        save_dataset(root / "case1", one.observations, seed=3)
        save_dataset(root / "case3", three.observations, seed=3)
        return one.truth_means, three.truth_means

    new = write_both(tmp_path / "new")
    monkeypatch.setattr(simulate_module, "cp_stack", cp_mean_stack_per_time)
    old = write_both(tmp_path / "old")
    for a, b in zip(new, old):
        np.testing.assert_array_equal(a, b)
    for case in ("case1", "case3"):
        files = sorted(p.name for p in (tmp_path / "old" / case).iterdir())
        assert files == sorted(p.name for p in (tmp_path / "new" / case).iterdir())
        for name in files:
            old_bytes = (tmp_path / "old" / case / name).read_bytes()
            assert (tmp_path / "new" / case / name).read_bytes() == old_bytes, name
