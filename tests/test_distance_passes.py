"""How often the solvers build distance matrices, and what seeding picks.

A fit centres each view once and builds each view's (n, c) distance matrix
once at initialization; each iteration then builds one per view still alive
after its pruning step. A pruning step that removes columns adds one
re-centring per surviving view. Seeding
ranks its candidates by a Gram expansion and recomputes only the winner's
distances exactly, which must not change a single pick.
"""

import numpy as np
import pytest

import support
from mvclust import amvfcm, fit_full, fit_pruning
from mvclust.amvfcm import init_centers
from mvclust.snr import compute_delta
from mvclust.synth import NoiseSpec, append_noise, default_benchmark_spec, generate


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(amvfcm, name)

    def counting(*args):
        calls.append(args[0].shape[1])
        return real(*args)

    monkeypatch.setattr(amvfcm, name, counting)
    return calls


@pytest.fixture
def distance_calls(monkeypatch):
    return _count_calls(monkeypatch, "_distances")


@pytest.fixture
def centring_calls(monkeypatch):
    return _count_calls(monkeypatch, "_centred")


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_full_fit_builds_one_distance_matrix_per_view_per_iteration(
        distance_calls, centring_calls):
    rng = np.random.default_rng(7)
    for _ in range(30):
        ds, params = support.random_instance(rng, n_max=120)
        distance_calls.clear()
        centring_calls.clear()
        res = fit_full(ds, params)
        assert len(distance_calls) == ds.n_views * (1 + res.iterations)
        assert len(centring_calls) == ds.n_views


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_pruning_fit_builds_distances_for_surviving_views_only(
        distance_calls, centring_calls):
    rng = np.random.default_rng(8)
    pruned = 0
    for _ in range(30):
        ds, params = support.random_instance(rng, n_max=120)
        distance_calls.clear()
        centring_calls.clear()
        res = fit_pruning(ds, params)
        view_removals = [e.iteration for e in res.mask.removals if e.kind == "view"]
        expected = centred = ds.n_views
        for t in range(1, res.iterations + 1):
            # one build per view alive after iteration t's pruning step
            survivors = ds.n_views - sum(r <= t for r in view_removals)
            expected += survivors
            if t in res.pruning_iterations:
                centred += survivors
        assert len(distance_calls) == expected
        assert len(centring_calls) == centred
        pruned += bool(res.pruning_iterations)
    assert pruned >= 5


# row indices of the seeds on the noisy benchmark (4 noise columns per view,
# c = 5), keyed by (n, data seed, seeding seed); recorded with a separate
# exact-distance seeding in the delta metric
RECORDED_SEEDS = {
    (1500, 0, 0): [1275, 390, 48, 990, 1098],
    (1500, 0, 1): [709, 1136, 688, 834, 181],
    (1500, 0, 2): [1256, 1223, 585, 472, 633],
    (1500, 0, 3): [1217, 126, 439, 1037, 150],
    (1500, 1, 0): [1275, 57, 824, 995, 437],
    (1500, 1, 1): [709, 650, 289, 397, 184],
    (1500, 1, 2): [1256, 460, 237, 166, 1025],
    (1500, 1, 3): [1217, 169, 420, 432, 1396],
    (15000, 0, 0): [12759, 8180, 33, 14706, 4716],
    (15000, 0, 1): [7097, 12405, 3969, 7274, 13673],
    (15000, 0, 2): [12563, 10976, 10103, 7224, 6652],
    (15000, 0, 3): [12172, 1427, 9745, 4437, 3197],
}


@pytest.mark.parametrize("data_seed", [0, 1])
def test_init_centers_matches_recorded_rows(data_seed):
    for n in sorted({n for n, d, _ in RECORDED_SEEDS if d == data_seed}):
        ds = append_noise(generate(default_benchmark_spec(n, seed=data_seed)),
                          NoiseSpec(features_per_view=4), seed=data_seed)
        delta = compute_delta(ds)
        for seed in range(4):
            centers = init_centers(ds, 5, seed, delta)
            want = RECORDED_SEEDS[n, data_seed, seed]
            for X, A in zip(ds.views, centers, strict=True):
                np.testing.assert_array_equal(A, X[want])
