"""How often the solvers build squared-difference tensors, and what seeding picks.

A fit builds each view's (n, c, d) tensor once at initialization and once per
iteration; a pruning step that removes columns adds one rebuild per surviving
view. Seeding keeps the distances of the candidate it picks instead of
recomputing them, which must not change a single pick.
"""

import numpy as np
import pytest

import support
from mvclust import amvfcm, fit_full, fit_pruning
from mvclust.amvfcm import init_centers
from mvclust.synth import NoiseSpec, append_noise, default_benchmark_spec, generate


@pytest.fixture
def sq_diff_calls(monkeypatch):
    calls = []
    real = amvfcm._sq_diff

    def counting(X, A):
        calls.append(X.shape[1])
        return real(X, A)

    monkeypatch.setattr(amvfcm, "_sq_diff", counting)
    return calls


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_full_fit_builds_one_tensor_per_view_per_iteration(sq_diff_calls):
    rng = np.random.default_rng(7)
    for _ in range(30):
        ds, params = support.random_instance(rng, n_max=120)
        sq_diff_calls.clear()
        res = fit_full(ds, params)
        assert len(sq_diff_calls) == ds.n_views * (1 + res.iterations)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_pruning_fit_rebuilds_only_after_removals(sq_diff_calls):
    rng = np.random.default_rng(8)
    pruned = 0
    for i in range(30):
        ds, params = support.random_instance(rng, n_max=120)
        sq_diff_calls.clear()
        res = fit_pruning(ds, params, prune_warmup=i % 3)
        view_removals = [e.iteration for e in res.mask.removals if e.kind == "view"]
        expected = ds.n_views
        for t in range(1, res.iterations + 1):
            # views alive when iteration t starts, and after its pruning step
            expected += ds.n_views - sum(r < t for r in view_removals)
            if t in res.pruning_iterations:
                expected += ds.n_views - sum(r <= t for r in view_removals)
        assert len(sq_diff_calls) == expected
        pruned += bool(res.pruning_iterations)
    assert pruned >= 5


# row indices of the seeds on the noisy benchmark (n = 1500, 4 noise columns
# per view, c = 5), keyed by (data seed, seeding seed)
RECORDED_SEEDS = {
    (0, 0): [1469, 601, 1292, 849, 154],
    (0, 1): [778, 229, 7, 171, 503],
    (0, 2): [1140, 1465, 825, 341, 1231],
    (0, 3): [472, 827, 270, 829, 712],
    (1, 0): [1469, 390, 1286, 88, 86],
    (1, 1): [1238, 1303, 1486, 1117, 609],
    (1, 2): [312, 600, 305, 19, 463],
    (1, 3): [35, 1043, 640, 19, 680],
}


@pytest.mark.parametrize("data_seed", [0, 1])
def test_init_centers_matches_recorded_rows(data_seed):
    ds = append_noise(generate(default_benchmark_spec(1500, seed=data_seed)),
                      NoiseSpec(features_per_view=4), seed=data_seed)
    for seed in range(4):
        centers = init_centers(ds, 5, seed)
        want = RECORDED_SEEDS[data_seed, seed]
        for X, A in zip(ds.views, centers, strict=True):
            np.testing.assert_array_equal(A, X[want])
