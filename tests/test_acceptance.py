"""Acceptance gate: one test per release criterion, run with ``pytest -v``.

Each test prints a single measured-values line so the run log shows the
numbers behind every verdict. Thresholds are fixed here and nowhere else;
loosening any of them is a release decision, not a test fix.

Criteria summary:
  1  benchmark clustering quality, plain solver, 10 seeds
  2  noise-feature elimination plus quality, pruning solver, 20 seeds
  3  seed-to-seed stability of the quality score
  4  monotone objective descent on randomized instances
  5  per-block stationarity under random feasible perturbations
  6  membership-gradient closed form versus central differences
  7  external metrics versus brute-force and direct-formula oracles
  8  exact recovery on the zero-variance benchmark, both solvers
  9  per-iteration cost drops after pruning on a wide noisy benchmark
  10 machine-readable bench reports are identical modulo timing
"""

import dataclasses
import warnings

import numpy as np
import pytest

from support import (
    _centers_with_reseed,
    _softmax_rows,
    _views_of,
    aggregate_distances,
    assert_trace_non_increasing,
    init_centers,
    objective,
    perturb_simplex,
    random_instance,
    trace_segments,
    update_feature_weights,
    view_costs,
)
from test_metrics import brute_pair_counts, direct_ari, direct_nmi, random_label_pair

from mvclust import aamvfcm, amvfcm
from mvclust.amvfcm import (
    EMPTY_CLUSTER_TOL,
    ClusterModel,
    HyperParams,
    _temperatures,
    entropic_simplex_argmin,
)
from mvclust.cli import EXIT_OK, main
from mvclust.harness import (
    SEED_ENV_VAR,
    ExperimentConfig,
    SynthSource,
    parse_records,
    run_experiment,
    strip_timing,
)
from mvclust.metrics import pair_counts, score_all
from mvclust.snr import compute_delta
from mvclust.synth import NoiseSpec, append_noise, default_benchmark_spec, generate

BENCH_PARAMS = dict(c=5)


@pytest.fixture(autouse=True)
def _no_seed_override(monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)


@pytest.fixture(scope="module")
def plain_solver_report():
    config = ExperimentConfig(
        algorithm="amvfcm",
        params=HyperParams(**BENCH_PARAMS),
        trials=10,
        seed_base=0,
        synth=SynthSource(n=1500, seed=0, noise_features=1),
    )
    return run_experiment(config)


def test_criterion_01_benchmark_quality_plain_solver(plain_solver_report):
    report = plain_solver_report
    avg_ri = report.aggregates["ri"]["avg"]
    avg_nmi = report.aggregates["nmi"]["avg"]
    print(f"criterion 1: avg RI {avg_ri:.4f} (>=0.90) avg NMI {avg_nmi:.4f} "
          f"(>=0.80) wall {report.total_seconds:.1f}s (<60)")
    assert avg_ri >= 0.90
    assert avg_nmi >= 0.80
    assert report.total_seconds < 60.0


def test_criterion_02_noise_elimination_pruning_solver():
    config = ExperimentConfig(
        algorithm="aamvfcm",
        params=HyperParams(**BENCH_PARAMS),
        trials=20,
        seed_base=0,
        synth=SynthSource(n=1500, seed=0, noise_features=1),
    )
    report = run_experiment(config)
    eliminated = sum(rec.final_dims == [2, 2] for rec in report.trials)
    avg_ri = report.aggregates["ri"]["avg"]
    print(f"criterion 2: noise eliminated {eliminated}/20 (>=19) avg RI "
          f"{avg_ri:.4f} (>=0.90) wall {report.total_seconds:.1f}s (<90)")
    assert eliminated >= 19
    assert avg_ri >= 0.90
    assert report.total_seconds < 90.0


def test_criterion_03_seed_stability(plain_solver_report):
    agg = plain_solver_report.aggregates["ri"]
    spread = agg["max"] - agg["min"]
    print(f"criterion 3: RI spread over 10 seeds {spread:.4f} (<=0.05)")
    assert spread <= 0.05


@pytest.mark.filterwarnings("ignore")
def test_criterion_04_monotone_descent_random_instances():
    rng = np.random.default_rng(404)
    checked = 0
    for _ in range(50):
        dataset, params = random_instance(rng)
        plain = amvfcm.fit(dataset, params)
        assert_trace_non_increasing(plain.objective_trace, rel_slack=1e-9)
        pruned = aamvfcm.fit(dataset, params)
        for segment in trace_segments(pruned.objective_trace,
                                      pruned.pruning_iterations):
            assert_trace_non_increasing(segment, rel_slack=1e-9)
        checked += 1
    print(f"criterion 4: {checked}/50 instances monotone within 1e-9 "
          "relative slack, both solvers")
    assert checked == 50


def _worst_block_decrease(dataset, params, rng, sweeps, n_pert=200):
    """Largest objective drop any feasible block perturbation achieves."""
    views = _views_of(dataset)
    n, s = views[0].shape[0], len(views)
    dims = [X.shape[1] for X in views]
    delta = compute_delta(dataset)
    beta, eta = _temperatures(dims, n)
    model = ClusterModel(
        membership=np.empty((n, params.c)),
        centers=init_centers(views, params.c, params.seed, delta),
        feature_weights=[np.full(d, 1.0 / d) for d in dims],
        view_weights=np.full(s, 1.0 / s),
    )
    agg = aggregate_distances(views, model, delta)
    model.membership = _softmax_rows(-agg)
    worst = 0.0

    def check(make_model):
        nonlocal worst
        J0 = objective(views, model, delta, beta, eta)
        for _ in range(n_pert):
            worst = max(worst, J0 - objective(views, make_model(), delta, beta, eta))

    for _ in range(sweeps):
        agg = aggregate_distances(views, model, delta)
        model.membership = _softmax_rows(-agg)
        check(lambda: ClusterModel(perturb_simplex(model.membership, rng),
                                   model.centers, model.feature_weights,
                                   model.view_weights))
        reseeded = bool((model.membership.sum(axis=0) <= EMPTY_CLUSTER_TOL).any())
        model.centers = _centers_with_reseed(views, model.membership, agg)
        if not reseeded:
            # centers are unconstrained, so plain bounded steps apply
            check(lambda: ClusterModel(
                model.membership,
                [A + rng.uniform(-1e-3, 1e-3, size=A.shape) for A in model.centers],
                model.feature_weights, model.view_weights))
        model.feature_weights = update_feature_weights(views, model, delta, eta)
        check(lambda: ClusterModel(
            model.membership, model.centers,
            [perturb_simplex(w, rng) for w in model.feature_weights],
            model.view_weights))
        costs = view_costs(views, model, delta)
        model.view_weights = entropic_simplex_argmin(costs, beta)
        check(lambda: ClusterModel(model.membership, model.centers,
                                   model.feature_weights,
                                   perturb_simplex(model.view_weights, rng)))
    return worst


@pytest.mark.filterwarnings("ignore")
def test_criterion_05_block_stationarity():
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(10):
        dataset, params = random_instance(rng)
        sweeps = min(params.t_max, 6)
        worst = max(worst, _worst_block_decrease(dataset, params, rng, sweeps))
    print(f"criterion 5: worst objective decrease {worst:.3e} (<=1e-10) "
          "over 200 perturbations per block update, 10 instances")
    assert worst <= 1e-10


def test_criterion_06_membership_gradient_closed_form():
    dataset = generate(default_benchmark_spec(200, seed=0))
    params = HyperParams(**BENCH_PARAMS, seed=0)
    result = amvfcm.fit(dataset, params)
    views = _views_of(dataset)
    beta, eta = _temperatures(dataset.dims, dataset.n_samples)
    U = result.model.membership
    closed = (aggregate_distances(views, result.model, result.delta)
              + np.log(np.clip(U, 1e-300, None)) + 1.0)
    interior = np.argwhere(U >= 1e-3)
    assert len(interior) >= 100
    rng = np.random.default_rng(606)
    picks = interior[rng.choice(len(interior), size=100, replace=False)]
    step = 1e-6
    worst = 0.0
    for i, k in picks:
        up, down = U.copy(), U.copy()
        up[i, k] += step
        down[i, k] -= step
        plus = ClusterModel(up, result.model.centers,
                            result.model.feature_weights, result.model.view_weights)
        minus = ClusterModel(down, result.model.centers,
                             result.model.feature_weights, result.model.view_weights)
        fd = (objective(views, plus, result.delta, beta, eta)
              - objective(views, minus, result.delta, beta, eta)) / (2 * step)
        worst = max(worst, abs(fd - closed[i, k]))
    print(f"criterion 6: worst |central difference - closed form| {worst:.3e} "
          "(<=1e-5) over 100 interior points")
    assert worst <= 1e-5


def test_criterion_07_metrics_oracle_equivalence():
    rng = np.random.default_rng(707)
    for _ in range(200):
        truth, pred = random_label_pair(rng, n_max=50)
        assert pair_counts(truth, pred) == brute_pair_counts(truth, pred)
        forward = score_all(truth, pred)
        assert abs(forward["ari"] - direct_ari(truth, pred)) <= 1e-12
        assert abs(forward["nmi"] - direct_nmi(truth, pred)) <= 1e-12
        backward = score_all(pred, truth)
        relabel = rng.permutation(truth.max() + 1)[truth]
        permuted = score_all(relabel, pred)
        for key in forward:
            assert abs(forward[key] - backward[key]) <= 1e-12
            assert abs(forward[key] - permuted[key]) <= 1e-12
    print("criterion 7: 200/200 pairs match brute-force counts exactly and "
          "oracle ARI/NMI within 1e-12; swap and relabel invariant")


def test_criterion_08_exact_recovery_zero_variance():
    spec = dataclasses.replace(default_benchmark_spec(400, seed=0),
                               covariance_scale=0.0)
    dataset = generate(spec)
    exact = 0
    for seed in range(10):
        params = HyperParams(**BENCH_PARAMS, seed=seed)
        for solver in (amvfcm, aamvfcm):
            result = solver.fit(dataset, params)
            assert score_all(dataset.labels, result.hard_labels)["ari"] == 1.0
        exact += 1
    print(f"criterion 8: ARI exactly 1.0 for {exact}/10 seeds, both solvers")
    assert exact == 10


def test_criterion_09_pruning_reduces_iteration_cost():
    base = generate(default_benchmark_spec(15000, seed=0))
    wide = append_noise(base, NoiseSpec(features_per_view=4), seed=0)
    result = aamvfcm.fit(wide, HyperParams(**BENCH_PARAMS, seed=0))
    events = result.pruning_iterations
    assert events, "no pruning event occurred"
    before = result.iter_seconds[:events[0]]
    after = result.iter_seconds[events[-1]:]
    assert before and after
    mean_before = sum(before) / len(before)
    mean_after = sum(after) / len(after)
    print(f"criterion 9: per-iteration mean {1e3 * mean_before:.2f}ms at full "
          f"width vs {1e3 * mean_after:.2f}ms after pruning "
          f"(events at {events}, final dims {result.mask.active_dims})")
    assert mean_after < mean_before


def test_criterion_10_bench_reports_deterministic(tmp_path, capsys):
    argv = ["bench", "--algo", "aamvfcm", "--synth-n", "300",
            "--noise-features", "1", "--clusters", "5", "--trials", "3",
            "--seed-base", "0", "--format", "records"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(argv + ["--out-dir", str(out_a)]) == EXIT_OK
    assert main(argv + ["--out-dir", str(out_b)]) == EXIT_OK
    capsys.readouterr()
    first = strip_timing(parse_records(out_a / "report.jsonl"))
    second = strip_timing(parse_records(out_b / "report.jsonl"))
    assert first == second
    print("criterion 10: two bench runs agree record for record with timing "
          "stripped")
