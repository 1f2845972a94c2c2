"""Seeding against the exact-distance oracle, its units, memory and quality.

``init_centers`` ranks the candidates of each greedy step by the Gram
expansion of their squared distances; ``support.init_centers_exact`` ranks
them by the distances themselves. Both must pick the same rows.
"""

import tracemalloc

import numpy as np
import pytest

import support
from support import init_centers
from mvclust import fit_pruning
from mvclust.amvfcm import HyperParams
from mvclust.metrics import adjusted_rand, contingency_table
from mvclust.synth import NoiseSpec, append_noise, default_benchmark_spec, generate


GRID = np.array([[i, j] for i in range(1, 5) for j in range(1, 5)], dtype=float)


def assert_same_seeds(views, c, seed):
    delta = support.deltas_of(views)
    got = init_centers(views, c, seed, delta)
    want = support.init_centers_exact(views, c, seed, delta)
    for A, B in zip(got, want, strict=True):
        assert A.tobytes() == B.tobytes()


def noisy_benchmark(n):
    return append_noise(generate(default_benchmark_spec(n, seed=0)),
                        NoiseSpec(features_per_view=4), seed=0)


def test_init_centers_matches_exact_ranking_on_random_instances():
    rng = np.random.default_rng(31)
    for _ in range(100):
        ds, params = support.random_instance(rng)
        assert_same_seeds(ds.views, params.c, params.seed)


@pytest.mark.parametrize("case", [
    "all_duplicates", "two_distinct_rows", "c_equals_n", "grid", "constant_view",
    "huge_scale",
])
def test_init_centers_matches_exact_ranking_on_degenerate_inputs(case):
    rng = np.random.default_rng(32)
    for seed in range(10):
        if case == "all_duplicates":
            views, c = [np.full((9, 3), 2.5)], 4
        elif case == "two_distinct_rows":
            views, c = [np.array([[1.0, 1.0], [4.0, 4.0]] * 5)], 4
        elif case == "c_equals_n":
            views, c = [rng.uniform(1, 5, (7, 2)), rng.uniform(1, 5, (7, 3))], 7
        elif case == "grid":
            # a 4 x 4 lattice, c = n: candidates tie exactly, and the Gram
            # expansion alone breaks some of those ties the other way
            views, c = [GRID[rng.permutation(16)]], 16
        elif case == "constant_view":
            views, c = [rng.uniform(1, 5, (40, 3)), np.full((40, 2), 3.0)], 4
        else:
            ds, params = support.random_instance(rng)
            views, c = [X * 1e6 for X in ds.views], params.c
        assert_same_seeds(views, c, seed)


def test_init_centers_picks_do_not_depend_on_units():
    # scaling by 4^k is exact: x - mean scales by 4^k and delta by 4^-k, so
    # sqrt(delta) scales by 2^-k and every seeding coordinate by 2^k
    rng = np.random.default_rng(34)
    cases = [(ds.views, params.c, params.seed)
             for ds, params in (support.random_instance(rng) for _ in range(100))]
    cases += [(noisy_benchmark(1500).views, 5, seed) for seed in range(3)]
    for views, c, seed in cases:
        base = init_centers(views, c, seed, support.deltas_of(views))
        for scale in (1024.0, 1 / 1024):
            scaled = [X * scale for X in views]
            got = init_centers(scaled, c, seed, support.deltas_of(scaled))
            for A, B in zip(got, base, strict=True):
                assert A.tobytes() == (B * scale).tobytes()


def test_init_centers_needs_no_candidate_tensor():
    # one (n, trials, D) float64 tensor: 20,000 x 10 x 12 x 8 bytes = 19.2 MB;
    # one (n, D) copy of the stacked views is 1.92 MB
    n, c, trials, width = 20_000, 5, 10, 12
    rng = np.random.default_rng(33)
    views = [rng.uniform(0.5, 9.0, (n, 6)), rng.uniform(0.5, 9.0, (n, 6))]
    delta = support.deltas_of(views)
    tracemalloc.start()
    try:
        init_centers(views, c, 0, delta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * trials * width * 8
    # the stacked views, their scaled copy, one (trials, block) Gram and a
    # few (n,) buffers, not three copies at once
    assert peak < 3 * n * width * 8


@pytest.mark.parametrize("n", [1500, 15000])
def test_pruning_fit_recovers_benchmark_under_four_noise_columns(n):
    # 8 of the 12 columns are noise: a seeding metric that weighs them like
    # the signal columns can put two seeds in one cluster and none in another
    ds = noisy_benchmark(n)
    for seed in range(20 if n == 1500 else 5):
        res = fit_pruning(ds, HyperParams(c=5, seed=seed))
        ari = adjusted_rand(contingency_table(ds.labels, res.hard_labels))
        assert ari >= 0.99, (seed, ari)
