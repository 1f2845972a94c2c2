"""Seeding against the exact-distance oracle, and its temporary memory.

``init_centers`` ranks the candidates of each greedy step by the Gram
expansion of their squared distances; ``support.init_centers_exact`` ranks
them by the distances themselves. Both must pick the same rows.
"""

import tracemalloc

import numpy as np
import pytest

import support
from mvclust.amvfcm import init_centers


def assert_same_seeds(views, c, seed):
    got = init_centers(views, c, seed)
    want = support.init_centers_exact(views, c, seed)
    for A, B in zip(got, want, strict=True):
        assert A.tobytes() == B.tobytes()


def test_init_centers_matches_exact_ranking_on_random_instances():
    rng = np.random.default_rng(31)
    for _ in range(100):
        ds, params = support.random_instance(rng)
        assert_same_seeds(ds.views, params.c, params.seed)


@pytest.mark.parametrize("case", [
    "all_duplicates", "two_distinct_rows", "c_equals_n", "constant_view", "huge_scale",
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
        elif case == "constant_view":
            views, c = [rng.uniform(1, 5, (40, 3)), np.full((40, 2), 3.0)], 4
        else:
            ds, params = support.random_instance(rng)
            views, c = [X * 1e6 for X in ds.views], params.c
        assert_same_seeds(views, c, seed)


def test_init_centers_needs_no_candidate_tensor():
    # one (n, trials, D) float64 tensor: 20,000 x 10 x 12 x 8 bytes = 19.2 MB;
    # one (n, D) copy of the stacked views is 1.92 MB
    n, c, trials, width = 20_000, 5, 10, 12
    rng = np.random.default_rng(33)
    views = [rng.uniform(0.5, 9.0, (n, 6)), rng.uniform(0.5, 9.0, (n, 6))]
    tracemalloc.start()
    try:
        init_centers(views, c, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * trials * width * 8
    # standardizing in place: the stacked views and np.std's temporary, not
    # three copies at once (measured 4.33 MB in place, 6.25 MB with copies)
    assert peak < 3 * n * width * 8
