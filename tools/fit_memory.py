"""Trace the memory a fit holds, phase by phase, for one version of ``mvclust``.

    python tools/fit_memory.py SRC

It fits the bundled benchmark with 4 uniform noise columns per view (data
and solver seed 0, c = 5) at n = 15k and 150k, by both solvers, in one
process with one BLAS thread, importing ``mvclust`` from ``SRC`` (a ``src/``
directory). Each solver gets a fresh dataset over the same arrays and fits
it twice: the ``first`` fit stacks the views and computes what the dataset
keeps, the ``later`` one only centres the views again. For each fit it
prints the ``tracemalloc`` peak, in MB, of four phases: building the stack
(``_stack``, or the centring function ``_centre`` in a tree that has one),
seeding (``init_centers``), the iterations (from the end of seeding to the
last objective, ``_objective_given_costs``, or the last view-weight update,
``entropic_simplex_argmin``, in a tree without it) and the result build
(from there to the ``FitResult``); then the whole fit's peak. A tree whose
later fits centre inline reads 0.00 for that phase, and its stack counts in
seeding. Tracing starts after the data is built and after one untraced small
fit by each solver, so each figure counts only what the fit allocates, not
numpy's one-time lazy imports, and every phase's figure includes what
earlier phases still hold. The phases are found by rebinding those names in
``mvclust.amvfcm``, which every version since the stacked descent has.
"""

from __future__ import annotations

import os
import sys
import tracemalloc
import warnings

# before numpy is imported, so its BLAS starts with one thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# phase -> (the ``mvclust.amvfcm`` names whose calls end it, whether a call
# also opens it); a name that a tree does not have is skipped
PHASES = {
    "stack": (("_stack", "_centre"), True),
    "seed": (("init_centers",), True),
    "iterations": (("entropic_simplex_argmin", "_objective_given_costs"), False),
    "result": (("FitResult",), False),
}


def _trace(amvfcm):
    # rebind the phase boundaries; returns the dict the phase peaks land in
    peaks = dict.fromkeys(PHASES, 0)

    def close(phase):
        peaks[phase] = max(peaks[phase], tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()

    def phase(name, attr, opens=False):
        fn = getattr(amvfcm, attr)

        def traced(*args, **kwargs):
            if opens:
                tracemalloc.reset_peak()
            out = fn(*args, **kwargs)
            close(name)
            return out
        setattr(amvfcm, attr, traced)

    for name, (attrs, opens) in PHASES.items():
        for attr in attrs:
            if hasattr(amvfcm, attr):
                phase(name, attr, opens)
    return peaks


def main(argv):
    if len(argv) != 1:
        sys.exit("usage: python tools/fit_memory.py SRC")
    sys.path.insert(0, os.path.abspath(argv[0]))
    import numpy as np
    from mvclust import aamvfcm, amvfcm
    from mvclust.data import MultiViewDataset
    from mvclust.synth import NoiseSpec, append_noise, default_benchmark_spec, generate

    print(f"mvclust from {os.path.dirname(amvfcm.__file__)}, numpy {np.__version__}")
    print("n       solver   fit    " + "".join(f"{p:>12}" for p in PHASES) + "         fit  (MB)")
    with warnings.catch_warnings():
        # a first fit imports numpy's lazily loaded modules; that is not the fit's
        warnings.simplefilter("ignore")
        small = generate(default_benchmark_spec(300, seed=0))
        amvfcm.fit(small, amvfcm.HyperParams(c=5))
        aamvfcm.fit(small, amvfcm.HyperParams(c=5))
    peaks = _trace(amvfcm)
    for n in (15_000, 150_000):
        data = append_noise(generate(default_benchmark_spec(n, seed=0)),
                            NoiseSpec(features_per_view=4), seed=0)
        for name, solver in (("full", amvfcm.fit), ("pruning", aamvfcm.fit)):
            ds = MultiViewDataset(data.views, data.labels)
            for which in ("first", "later"):
                peaks.update(dict.fromkeys(PHASES, 0))
                tracemalloc.start()
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    solver(ds, amvfcm.HyperParams(c=5, seed=0))
                tracemalloc.stop()
                print(f"{n:<8}{name:<9}{which:<7}"
                      + "".join(f"{peaks[p] / 1e6:12.2f}" for p in PHASES)
                      + f"{max(peaks.values()) / 1e6:12.2f}")


if __name__ == "__main__":
    main(sys.argv[1:])
