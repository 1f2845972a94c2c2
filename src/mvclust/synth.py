"""Deterministic synthetic benchmark: a two-view Gaussian mixture plus noise columns.

The default geometry is a five-cluster, two-view layout with isotropic
covariance and a shared latent assignment per sample, so the same row belongs
to the same cluster in every view. ``append_noise`` pads views on the right
with uniform columns that carry no cluster signal, which is the standard way
to probe feature selection behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .data import MultiViewDataset, _require_numbers

MIXING_TOL = 1e-12
NOISE_LOW, NOISE_HIGH = 0.02, 0.05  # noise columns are uniform on [NOISE_LOW, NOISE_HIGH)


@dataclass(frozen=True)
class GmmSpec:
    """Spherical Gaussian mixture over several views with one shared assignment.

    Parameters
    ----------
    n : int
        Number of samples.
    mixing : (c,) array
        Cluster prior; nonnegative, sums to 1 within 1e-12.
    means : tuple of (c, d_h) arrays
        Per-view cluster means; every view must list the same cluster count.
    covariance_scale : float
        Shared isotropic variance (sigma squared), >= 0.
    seed : int
        Seed for the generator stream.
    """

    n: int
    mixing: tuple
    means: tuple
    covariance_scale: float
    seed: int = 0

    def __post_init__(self):
        _require_numbers(self, Integral, "n", "seed")
        mixing = np.array(self.mixing, dtype=float)
        mixing.flags.writeable = False
        object.__setattr__(self, "mixing", mixing)
        means = tuple(np.array(m, dtype=float) for m in self.means)
        for m in means:
            m.flags.writeable = False
        object.__setattr__(self, "means", means)
        if self.n < 1:
            raise ValueError("n must be positive")
        if (mixing < 0).any() or abs(mixing.sum() - 1.0) > MIXING_TOL:
            raise ValueError("mixing must be nonnegative and sum to 1")
        if not means:
            raise ValueError("at least one view of means is required")
        c = means[0].shape[0]
        if mixing.shape != (c,):
            raise ValueError("mixing length must equal the cluster count")
        for h, m in enumerate(means):
            if m.ndim != 2 or m.shape[0] != c:
                raise ValueError(f"view {h} means must be (c, d_h) with c={c}")
        if self.covariance_scale < 0:
            raise ValueError("covariance_scale must be >= 0")

    @property
    def n_clusters(self):
        return self.means[0].shape[0]

    @property
    def n_views(self):
        return len(self.means)


@dataclass(frozen=True)
class NoiseSpec:
    """Uniform noise padding: ``features_per_view`` columns on [NOISE_LOW, NOISE_HIGH)."""

    features_per_view: int = 1

    def __post_init__(self):
        _require_numbers(self, Integral, "features_per_view")
        if self.features_per_view < 0:
            raise ValueError("features_per_view must be >= 0")


def default_benchmark_spec(n, seed=0) -> GmmSpec:
    """Reference two-view, five-cluster benchmark geometry.

    View 1 means: (8,2), (8,8), (5,13), (14,2), (20,2).
    View 2 means: (2,2), (6,6), (11,2), (6,12), (17,2).
    Isotropic variance 0.5, uniform mixing 1/5.
    """
    if n < 5:
        raise ValueError(f"need n >= 5 samples for 5 clusters, got {n}")
    view1 = [(8, 2), (8, 8), (5, 13), (14, 2), (20, 2)]
    view2 = [(2, 2), (6, 6), (11, 2), (6, 12), (17, 2)]
    return GmmSpec(
        n=n,
        mixing=(0.2,) * 5,
        means=(np.asarray(view1, float), np.asarray(view2, float)),
        covariance_scale=0.5,
        seed=seed,
    )


def generate(spec: GmmSpec) -> MultiViewDataset:
    """Draw a dataset from the mixture; bit-identical for the same spec.

    One latent assignment is drawn per sample and reused by every view; the
    returned labels are those assignments.
    """
    rng = np.random.default_rng(spec.seed)
    assign = rng.choice(spec.n_clusters, size=spec.n, p=spec.mixing)
    sigma = float(np.sqrt(spec.covariance_scale))
    views = []
    for m in spec.means:
        X = rng.standard_normal((spec.n, m.shape[1]))
        X *= sigma
        X += m[assign]
        X.flags.writeable = False  # handed over without a defensive copy
        views.append(X)
    names = tuple(f"view_{h + 1}" for h in range(spec.n_views))
    return MultiViewDataset(views, labels=assign, view_names=names)


def append_noise(dataset: MultiViewDataset, noise: NoiseSpec, seed=0) -> MultiViewDataset:
    """Append i.i.d. uniform [NOISE_LOW, NOISE_HIGH) columns to the right of every view.

    Labels and existing columns are untouched; zero features per view returns
    the dataset unchanged.
    """
    if noise.features_per_view == 0:
        return dataset
    # separate stream key: sharing a seed with generate() must not replay the
    # assignment draws, which would leak the labels into the padding columns
    rng = np.random.default_rng([seed, 1])
    padded = []
    for X in dataset.views:
        z = rng.uniform(NOISE_LOW, NOISE_HIGH, size=(X.shape[0], noise.features_per_view))
        out = np.hstack([X, z])
        out.flags.writeable = False  # handed over without a defensive copy
        padded.append(out)
    return MultiViewDataset(padded, dataset.labels, dataset.view_names)
