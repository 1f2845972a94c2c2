"""Command line front end: ``synth``, ``fit``, ``score``, and ``bench``.

Exit codes are category-coded: 0 success, 2 usage errors (bad flags or
missing arguments, raised by the parser), 3 data or configuration errors
(unreadable or inconsistent dataset files, invalid hyperparameters), 4 trial
failures inside a run, 1 anything unexpected.

The solver names come from :data:`mvclust.harness.SOLVERS`, and every flag
default is the default of the field it sets in :class:`HyperParams`,
:class:`ExperimentConfig` or :class:`SynthSource`.

``fit --algo aamvfcm`` writes the surviving data to ``filtered/`` through
:func:`mvclust.data.save_dataset`: the labels and each view that kept every
column are the arrays the load read, so their files are copied while they
are unchanged since the read; other views print as %.17g.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .amvfcm import HyperParams
from .data import DatasetError, _read_labels, _write_labels, save_dataset
from .harness import (
    SOLVERS,
    ExperimentConfig,
    SynthSource,
    TrialError,
    _synth_dataset,
    emit_report,
    render_table,
    report_records,
    run_experiment,
)
from .metrics import score_all

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_TRIAL = 4
EXIT_UNEXPECTED = 1


def _model_flags(parser):
    # solver, hyperparameter and output flags shared by ``fit`` and ``bench``
    parser.add_argument("--algo", choices=tuple(SOLVERS), required=True)
    parser.add_argument("--clusters", required=True, type=int)
    parser.add_argument("--max-iters", type=int, default=HyperParams.t_max)
    parser.add_argument("--epsilon", type=float, default=HyperParams.epsilon)
    parser.add_argument("--dump-weights", action="store_true",
                        help="include dispersion ratios and learned weights in the report")
    parser.add_argument("--out-dir", type=Path,
                        help="directory for report and dataset files")
    parser.add_argument("--format", choices=("table", "records"), default="table",
                        help="stdout format for run summaries")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mvclust",
        description="Entropy-regularized multi-view fuzzy clustering toolkit",
    )
    parser.add_argument("--version", action="version", version=f"mvclust {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate the synthetic benchmark")
    p_synth.set_defaults(run=_cmd_synth)
    p_synth.add_argument("--n", required=True, type=int)
    p_synth.add_argument("--seed", type=int, default=SynthSource.seed)
    p_synth.add_argument("--noise-features", type=int, default=SynthSource.noise_features)
    p_synth.add_argument("--out-dir", type=Path, required=True,
                         help="directory for the dataset files")

    p_fit = sub.add_parser("fit", help="fit one model on a dataset manifest")
    p_fit.set_defaults(run=_cmd_fit)
    p_fit.add_argument("--config", required=True, type=Path,
                       help="dataset manifest path")
    p_fit.add_argument("--seed", type=int, default=HyperParams.seed)
    _model_flags(p_fit)

    p_score = sub.add_parser("score", help="compare two label files")
    p_score.set_defaults(run=_cmd_score)
    p_score.add_argument("--truth", required=True, type=Path)
    p_score.add_argument("--pred", required=True, type=Path)

    p_bench = sub.add_parser("bench", help="multi-trial benchmark run")
    p_bench.set_defaults(run=_cmd_bench)
    source = p_bench.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", type=Path, help="dataset manifest path")
    source.add_argument("--synth-n", type=int,
                        help="use the synthetic benchmark with this sample count")
    p_bench.add_argument("--synth-seed", type=int, default=SynthSource.seed)
    p_bench.add_argument("--noise-features", type=int, default=SynthSource.noise_features)
    p_bench.add_argument("--trials", type=int, default=ExperimentConfig.trials)
    p_bench.add_argument("--seed-base", type=int, default=ExperimentConfig.seed_base)
    _model_flags(p_bench)
    p_bench.add_argument("--jobs", type=int, default=ExperimentConfig.jobs,
                         help="at most this many trial threads; small runs use one")
    return parser


def _cmd_synth(args):
    source = SynthSource(n=args.n, seed=args.seed, noise_features=args.noise_features)
    dataset = _synth_dataset(source)
    manifest = save_dataset(dataset, args.out_dir)
    print(f"wrote {dataset.n_samples} samples, {dataset.n_views} views "
          f"({'x'.join(str(d) for d in dataset.dims)} columns) to {manifest}")
    return EXIT_OK


def _run(args, **run):
    # the one run path of ``fit`` and ``bench``: build, run, print, write;
    # ``run`` holds the trial count, seed base, jobs and synthetic source
    config = ExperimentConfig(
        algorithm=args.algo,
        params=HyperParams(c=args.clusters, t_max=args.max_iters, epsilon=args.epsilon),
        manifest=str(args.config) if args.config is not None else None,
        dump_weights=args.dump_weights,
        **run,
    )
    report = run_experiment(config)
    if args.format == "table":
        print(render_table(report), end="")
    else:
        for line in report_records(report):
            print(json.dumps(line))
    if args.out_dir is not None:
        table_path, records_path = emit_report(report, args.out_dir)
        print(f"wrote {table_path} and {records_path}", file=sys.stderr)
    return report


def _cmd_fit(args):
    result = _run(args, trials=1, seed_base=args.seed).fit_results[0]
    if args.out_dir is not None:  # created by the report write
        _write_labels(args.out_dir / "predicted_labels.txt", result.hard_labels)
        if args.algo == "aamvfcm":
            _write_filtered(result, args.out_dir / "filtered")
    return EXIT_OK


def _write_filtered(result, out_dir):
    # surviving data plus a sidecar mapping kept columns to original positions
    mask = result.mask
    save_dataset(result.reduced_dataset, out_dir)
    mapping = {
        "views": [
            {
                "original_view": h,
                "columns": [int(j) for j in mask.active_columns(h)],
            }
            for h in mask.active_views()
        ]
    }
    (Path(out_dir) / "column_map.json").write_text(
        json.dumps(mapping, indent=2) + "\n", encoding="utf-8"
    )


def _cmd_score(args):
    # the dataset reader: errors name file and line, and the 1-based shift
    # cannot move a score, since every metric ignores how classes are named
    scores = score_all(_read_labels(args.truth), _read_labels(args.pred))
    for key, value in scores.items():
        print(f"{key}={value:.12g}")
    print(json.dumps(scores))
    return EXIT_OK


def _cmd_bench(args):
    synth = None
    if args.synth_n is not None:
        synth = SynthSource(n=args.synth_n, seed=args.synth_seed,
                            noise_features=args.noise_features)
    _run(args, trials=args.trials, seed_base=args.seed_base, jobs=args.jobs, synth=synth)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.run(args)
    except TrialError as exc:
        print(f"error: {exc}: {exc.__cause__}", file=sys.stderr)
        return EXIT_TRIAL
    except (DatasetError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # pragma: no cover
        print(f"unexpected error: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
