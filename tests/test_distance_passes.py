"""How often the solvers pass over the data and stack the views, and what seeding picks.

A fit stacks all views into one centred array once and takes the logits,
memberships and cluster sums of all views from one pass at initialization;
each iteration then takes one more, whatever the view count. A pass walks
the samples in blocks sized from one cell budget and matches a whole-array
computation. A pruning step that removes columns restricts the stacked
arrays instead of stacking again. Seeding ranks its candidates by a
Gram expansion and recomputes only the winner's distances exactly, which
must not change a single pick.
"""

import numpy as np
import pytest

import support
from support import init_centers
from mvclust import amvfcm, fit_full, fit_pruning
from mvclust.snr import compute_delta
from mvclust.synth import NoiseSpec, append_noise, default_benchmark_spec, generate


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(amvfcm, name)

    def counting(*args):
        calls.append(name)
        return real(*args)

    monkeypatch.setattr(amvfcm, name, counting)
    return calls


@pytest.fixture
def sweep_calls(monkeypatch):
    return _count_calls(monkeypatch, "_sweep")


@pytest.fixture
def stack_calls(monkeypatch):
    return _count_calls(monkeypatch, "_stack")


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_full_fit_takes_one_logits_product_per_iteration(sweep_calls, stack_calls):
    rng = np.random.default_rng(7)
    views = set()
    for _ in range(30):
        ds, params = support.random_instance(rng, n_max=120)
        sweep_calls.clear()
        stack_calls.clear()
        res = fit_full(ds, params)
        assert len(sweep_calls) == 1 + res.iterations
        assert len(stack_calls) == 1
        views.add(ds.n_views)
    assert views == {1, 2, 3}


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_pruning_fit_stacks_once_per_fit(sweep_calls, stack_calls):
    rng = np.random.default_rng(8)
    pruned = 0
    for _ in range(30):
        ds, params = support.random_instance(rng, n_max=120)
        sweep_calls.clear()
        stack_calls.clear()
        res = fit_pruning(ds, params)
        assert len(sweep_calls) == 1 + res.iterations
        assert len(stack_calls) == 1
        pruned += bool(res.pruning_iterations)
    assert pruned >= 5


@pytest.mark.parametrize("c, width", [(5, 12), (20, 30)])
def test_sweep_blocks_match_a_whole_array_pass(c, width):
    # BLOCK_CELLS / (c D) samples per block, two whole blocks and a ragged one
    rng = np.random.default_rng(12)
    block = amvfcm.BLOCK_CELLS // (c * width)
    n = 2 * block + 3
    XcT = rng.normal(size=(width, n))
    Ac, S = rng.normal(size=(c, width)), rng.uniform(0.1, 2.0, width)
    L = (Ac * (2.0 * S)) @ XcT - ((Ac * Ac) @ S)[:, None]
    want_peak = L.max(axis=0)
    L -= want_peak
    want_U = np.exp(L)
    total = want_U.sum(axis=0)
    want_U /= total
    want_entropy = float((want_U * L).sum() - np.log(total).sum())

    U, peak, buf = np.empty((c, n)), np.empty(n), amvfcm._logit_buffer(c, XcT)
    assert buf.shape == (c, block)
    G, mass, entropy = amvfcm._sweep(Ac, S, XcT, U, peak, buf)
    np.testing.assert_allclose(U, want_U, rtol=1e-12, atol=0)
    np.testing.assert_allclose(peak, want_peak, rtol=1e-12, atol=0)
    np.testing.assert_allclose(G, want_U @ XcT.T, rtol=1e-12, atol=0)
    np.testing.assert_allclose(mass, want_U.sum(axis=1), rtol=1e-12, atol=0)
    assert entropy == pytest.approx(want_entropy, rel=1e-12, abs=0)


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
