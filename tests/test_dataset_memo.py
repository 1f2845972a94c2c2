"""What a dataset keeps between fits, and that keeping it changes no fit.

A dataset's first fit validates it (unless its loader or the harness already
did), computes its column moments, dispersion ratios and seeding norms, and
keeps them on the dataset; later fits only centre the views. A later fit must
be bitwise the fit of a fresh, equal dataset, in either order of the two
solvers and with two harness threads filling one memo at once, and the memo
must hold O(n + D) numbers, never a copy of the data.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import support
from mvclust import amvfcm, fit_full, fit_pruning
from mvclust.amvfcm import HyperParams
from mvclust.data import MultiViewDataset, validate
from mvclust.harness import (
    ExperimentConfig,
    SynthSource,
    report_records,
    run_experiment,
    strip_timing,
)
from mvclust.synth import NoiseSpec, append_noise, default_benchmark_spec, generate


def _fresh(ds):
    return MultiViewDataset([np.array(X) for X in ds.views], ds.labels, ds.view_names)


def _bits(res):
    # everything a fit returns but its timings, as bytes
    m = res.model
    arrays = [res.objective_trace, res.hard_labels, m.membership, *m.centers,
              *m.feature_weights, m.view_weights, *res.delta]
    return ([a.dtype.str + a.tobytes().hex() for a in arrays], res.iterations,
            res.converged, res.mask.removals)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("first, second", [(fit_full, fit_pruning), (fit_pruning, fit_full)])
def test_a_later_fit_is_the_fit_of_a_fresh_dataset(first, second):
    rng = np.random.default_rng(51)
    pruned = 0
    for _ in range(25):
        ds, params = support.random_instance(rng, n_max=120)
        earlier = first(ds, params)
        assert _bits(earlier) == _bits(first(_fresh(ds), params))
        assert "moments" in ds._memo
        later = second(ds, params)
        assert _bits(later) == _bits(second(_fresh(ds), params))
        assert _bits(first(ds, params)) == _bits(earlier)
        pruned += bool(earlier.mask.removals or later.mask.removals)
    assert pruned >= 3


def test_two_threads_filling_one_memo_fit_as_one_thread():
    def run(jobs):
        # each run builds its own dataset, so its first trials fill the memo
        report = run_experiment(ExperimentConfig(
            algorithm="aamvfcm", params=HyperParams(c=5), trials=8, seed_base=3,
            synth=SynthSource(n=300, seed=4, noise_features=2), jobs=jobs,
            dump_weights=True))
        records = strip_timing(report_records(report))
        assert records[0]["config"].pop("jobs") == jobs
        return records, [_bits(res) for res in report.fit_results]

    assert run(2) == run(1)


def _count(monkeypatch, names):
    counts = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(amvfcm, name)

        def counting(*args, _real=real, _name=name):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(amvfcm, name, counting)
    return counts


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_validation_moments_and_norms_run_once_per_dataset(monkeypatch):
    counts = _count(monkeypatch, ("validate", "_stack", "_seeding_norms"))
    rng = np.random.default_rng(52)
    for _ in range(5):
        ds, params = support.random_instance(rng, n_max=120)
        for fit in (fit_full, fit_pruning, fit_full, fit_pruning):
            fit(ds, params)
    assert counts == {"validate": 5, "_stack": 5, "_seeding_norms": 5}
    # a dataset its loader or the harness validated is not validated again
    ds, params = support.random_instance(rng, n_max=120)
    validate(ds)
    fit_full(ds, params)
    fit_pruning(ds, params)
    assert counts == {"validate": 5, "_stack": 6, "_seeding_norms": 6}


def test_the_memo_keeps_no_copy_of_the_data():
    ds = append_noise(generate(default_benchmark_spec(1500, seed=0)),
                      NoiseSpec(features_per_view=4), seed=0)
    n, width = ds.n_samples, sum(ds.dims)
    fit_pruning(ds, HyperParams(c=5))
    assert set(ds._memo) == {"valid", "moments"}
    arrays = ds._memo["moments"]
    assert all(a.size <= n and not a.flags.writeable for a in arrays)
    assert sum(a.size for a in arrays) == n + 4 * width
    # a new instance over the same arrays starts afresh
    assert dataclasses.replace(ds)._memo == {}


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("solver", [fit_full, fit_pruning])
def test_a_later_fit_holds_no_more_memory_than_the_first(solver):
    # n = 30k, D = 12: the (D, n) stack is 2.88 MB. The first fit stacks the
    # views and keeps their moments, a later one centres them again; either
    # frees its stack before the (n, c) membership copy and the result build
    ds = append_noise(generate(default_benchmark_spec(30_000, seed=0)),
                      NoiseSpec(features_per_view=4), seed=0)
    params = HyperParams(c=5, t_max=5)
    # a first fit also imports numpy's lazily loaded modules
    solver(MultiViewDataset([X[:500] for X in ds.views], ds.labels[:500]), params)
    peaks = []
    for _ in ("first", "later"):
        tracemalloc.start()
        try:
            solver(ds, params)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    first, later = peaks
    assert later <= first, f"later fit peaks at {later / 1e6:.2f} MB, first at {first / 1e6:.2f} MB"
