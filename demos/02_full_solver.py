"""Fit the full multi-view solver and inspect what it learned.

The solver alternates exact minimizers for four blocks: soft memberships,
cluster centers, per-view feature weights, and view weights. Entropy terms
keep each weight simplex soft; the objective never increases.
"""

import numpy as np

from mvclust import HyperParams, default_benchmark_spec, fit_full, generate, score_all
from mvclust.synth import NoiseSpec, append_noise

dataset = append_noise(
    generate(default_benchmark_spec(n=2000, seed=0)),
    NoiseSpec(features_per_view=1), seed=0,
)
params = HyperParams(c=5, seed=0)
result = fit_full(dataset, params)

trace = result.objective_trace
print(f"converged: {result.converged} after {result.iterations} iterations")
print(f"objective head: {np.array2string(trace[:4], precision=2)}")
print(f"objective tail: {np.array2string(trace[-3:], precision=6)}")
drops = np.diff(trace)
print(f"monotone descent: max increase {drops.max():.3e} (never above zero)")

scores = score_all(dataset.labels, result.hard_labels)
print("\nagreement with the generating assignment:")
print("  " + "  ".join(f"{k}={v:.4f}" for k, v in scores.items()))

print("\nlearned view weights:", np.round(result.model.view_weights, 4))
for h, w in enumerate(result.model.feature_weights):
    print(f"view {h} feature weights {np.round(w, 4)}  "
          f"(column 2 is the noise feature)")
print("the noise column keeps a near-zero weight without being removed; "
      "removal is the pruning solver's job")

print("\nsame data, five solver seeds:")
for seed in range(5):
    r = fit_full(dataset, HyperParams(c=5, seed=seed))
    s = score_all(dataset.labels, r.hard_labels)
    print(f"  seed {seed}: RI {s['ri']:.4f}  NMI {s['nmi']:.4f}  "
          f"iters {r.iterations}")
