"""Synthetic mixture generator tests: geometry, determinism, noise padding."""

import numpy as np
import pytest

from mvclust.synth import GmmSpec, NoiseSpec, append_noise, default_benchmark_spec, generate
from mvclust.data import validate


# ----------------------------------------------------------------------- spec


def test_default_benchmark_geometry():
    spec = default_benchmark_spec(1500, seed=3)
    assert spec.n == 1500
    assert spec.n_clusters == 5 and spec.n_views == 2
    assert spec.covariance_scale == 0.5
    np.testing.assert_allclose(spec.mixing, 0.2)
    np.testing.assert_array_equal(
        spec.means[0], [(8, 2), (8, 8), (5, 13), (14, 2), (20, 2)]
    )
    np.testing.assert_array_equal(
        spec.means[1], [(2, 2), (6, 6), (11, 2), (6, 12), (17, 2)]
    )


def test_default_benchmark_scales_sample_count_only():
    small = default_benchmark_spec(1500)
    large = default_benchmark_spec(15000)
    assert large.n == 15000
    np.testing.assert_array_equal(small.means[0], large.means[0])
    np.testing.assert_array_equal(small.means[1], large.means[1])


def test_default_benchmark_rejects_too_few_samples():
    with pytest.raises(ValueError):
        default_benchmark_spec(3)


def test_spec_validation():
    means = (np.zeros((2, 2)),)
    with pytest.raises(ValueError):
        GmmSpec(n=0, mixing=(0.5, 0.5), means=means, covariance_scale=1.0)
    with pytest.raises(ValueError):
        GmmSpec(n=5, mixing=(0.6, 0.6), means=means, covariance_scale=1.0)
    with pytest.raises(ValueError):
        GmmSpec(n=5, mixing=(0.5, 0.5), means=means, covariance_scale=-1.0)
    with pytest.raises(ValueError):
        # view 1 lists three clusters, view 0 two
        GmmSpec(
            n=5,
            mixing=(0.5, 0.5),
            means=(np.zeros((2, 2)), np.zeros((3, 2))),
            covariance_scale=1.0,
        )


@pytest.mark.parametrize("mixing, means, message", [
    ((1.0,), (), "at least one view of means"),
    ((0.5, 0.5), (np.zeros((3, 2)),), "mixing length must equal the cluster count"),
], ids=["no-means", "mixing-length"])
def test_spec_rejects_missing_means_and_mismatched_mixing(mixing, means, message):
    # the mixing is checked first, so each case's mixing sums to 1
    with pytest.raises(ValueError, match=message):
        GmmSpec(n=5, mixing=mixing, means=means, covariance_scale=1.0)


# ------------------------------------------------------------------- generate


def test_generate_shapes_labels_and_names():
    ds = generate(default_benchmark_spec(200, seed=1))
    validate(ds)
    assert ds.n_samples == 200 and ds.dims == [2, 2]
    assert ds.labels is not None and set(np.unique(ds.labels)) == set(range(5))
    assert ds.view_names == ("view_1", "view_2")


def test_generate_is_deterministic():
    spec = default_benchmark_spec(300, seed=11)
    a, b = generate(spec), generate(spec)
    for va, vb in zip(a.views, b.views):
        np.testing.assert_array_equal(va, vb)
    np.testing.assert_array_equal(a.labels, b.labels)
    c = generate(default_benchmark_spec(300, seed=12))
    assert not np.array_equal(a.views[0], c.views[0])


def test_generate_zero_variance_hits_cluster_means_exactly():
    spec = default_benchmark_spec(100, seed=5)
    spec = GmmSpec(spec.n, spec.mixing, spec.means, covariance_scale=0.0, seed=5)
    ds = generate(spec)
    for h, X in enumerate(ds.views):
        np.testing.assert_array_equal(X, spec.means[h][ds.labels])


def test_generate_empirical_means_near_spec_means():
    spec = default_benchmark_spec(15000, seed=2)
    ds = generate(spec)
    sigma = np.sqrt(spec.covariance_scale)
    for h, X in enumerate(ds.views):
        for k in range(5):
            members = X[ds.labels == k]
            tol = 3 * sigma / np.sqrt(members.shape[0])
            assert np.abs(members.mean(axis=0) - spec.means[h][k]).max() < tol


def test_generate_cluster_sizes_near_uniform_mixing():
    # multinomial 3-sigma bound holds for at least 97 of 100 fixed seeds
    # (the bound is a probability-0.99 statement, not a per-seed guarantee)
    n = 15000
    slack = 3 * np.sqrt(n * 0.2 * 0.8)
    hits = 0
    for seed in range(100):
        sizes = np.bincount(generate(default_benchmark_spec(n, seed=seed)).labels, minlength=5)
        hits += bool((np.abs(sizes - n * 0.2) < slack).all())
    assert hits >= 97


def test_generate_shares_assignment_across_views():
    # sigma 0: row i sits on the same cluster's mean in both views
    spec = default_benchmark_spec(50, seed=9)
    spec = GmmSpec(spec.n, spec.mixing, spec.means, 0.0, seed=9)
    ds = generate(spec)
    for i in range(50):
        k1 = np.argmin(np.abs(spec.means[0] - ds.views[0][i]).sum(axis=1))
        k2 = np.argmin(np.abs(spec.means[1] - ds.views[1][i]).sum(axis=1))
        assert k1 == k2 == ds.labels[i]


# --------------------------------------------------------------- append_noise


def test_append_noise_pads_right_and_keeps_signal():
    base = generate(default_benchmark_spec(100, seed=4))
    ds = append_noise(base, NoiseSpec(), seed=4)
    assert ds.dims == [3, 3]
    for raw, padded in zip(base.views, ds.views):
        np.testing.assert_array_equal(padded[:, :2], raw)
        z = padded[:, 2]
        assert z.min() >= 0.02 and z.max() < 0.05
    np.testing.assert_array_equal(ds.labels, base.labels)


def test_append_noise_zero_features_is_identity():
    base = generate(default_benchmark_spec(20, seed=1))
    assert append_noise(base, NoiseSpec(features_per_view=0), seed=1) is base


def test_append_noise_multiple_features():
    base = generate(default_benchmark_spec(30, seed=1))
    ds = append_noise(base, NoiseSpec(features_per_view=4), seed=1)
    assert ds.dims == [6, 6]


def test_append_noise_is_deterministic():
    base = generate(default_benchmark_spec(40, seed=6))
    a = append_noise(base, NoiseSpec(), seed=6)
    b = append_noise(base, NoiseSpec(), seed=6)
    np.testing.assert_array_equal(a.views[0], b.views[0])
    c = append_noise(base, NoiseSpec(), seed=7)
    assert not np.array_equal(a.views[0], c.views[0])


def test_noise_columns_carry_no_cluster_signal():
    # point-biserial correlation with every one-vs-rest indicator stays small,
    # including when the noise seed equals the generator seed (the two streams
    # must not collide); at n=15000 the 0.05 bound is a six-sigma margin
    for seed in (0, 7, 123):
        base = generate(default_benchmark_spec(15000, seed=seed))
        ds = append_noise(base, NoiseSpec(), seed=seed)
        for X in ds.views:
            z = X[:, -1]
            for k in range(5):
                indicator = (ds.labels == k).astype(float)
                corr = np.corrcoef(z, indicator)[0, 1]
                assert abs(corr) < 0.05


def test_noise_stream_does_not_replay_assignment_draws():
    # regression: seeding the noise stream identically to the assignment draw
    # would make the padding column a deterministic function of the label,
    # collapsing its within-cluster variance to nearly zero
    base = generate(default_benchmark_spec(1500, seed=7))
    ds = append_noise(base, NoiseSpec(), seed=7)
    for X in ds.views:
        z = X[:, -1]
        within = np.mean([z[ds.labels == k].var() for k in range(5)])
        assert within / z.var() > 0.9


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(features_per_view=-1)
