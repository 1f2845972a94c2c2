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
# c = 5), keyed by (n, data seed, seeding seed)
RECORDED_SEEDS = {
    (1500, 0, 0): [1469, 601, 1292, 849, 154],
    (1500, 0, 1): [778, 229, 7, 171, 503],
    (1500, 0, 2): [1140, 1465, 825, 341, 1231],
    (1500, 0, 3): [472, 827, 270, 829, 712],
    (1500, 1, 0): [1469, 390, 1286, 88, 86],
    (1500, 1, 1): [1238, 1303, 1486, 1117, 609],
    (1500, 1, 2): [312, 600, 305, 19, 463],
    (1500, 1, 3): [35, 1043, 640, 19, 680],
    (15000, 0, 0): [10446, 9177, 11336, 11944, 3370],
    (15000, 0, 1): [11667, 5140, 13927, 6457, 2902],
    (15000, 0, 2): [3122, 3286, 10757, 10974, 11879],
    (15000, 0, 3): [6318, 4940, 11838, 12831, 5298],
}


@pytest.mark.parametrize("data_seed", [0, 1])
def test_init_centers_matches_recorded_rows(data_seed):
    for n in sorted({n for n, d, _ in RECORDED_SEEDS if d == data_seed}):
        ds = append_noise(generate(default_benchmark_spec(n, seed=data_seed)),
                          NoiseSpec(features_per_view=4), seed=data_seed)
        for seed in range(4):
            centers = init_centers(ds, 5, seed)
            want = RECORDED_SEEDS[n, data_seed, seed]
            for X, A in zip(ds.views, centers, strict=True):
                np.testing.assert_array_equal(A, X[want])
