"""Command line front end: ``synth``, ``fit``, ``score``, and ``bench``.

Exit codes are category-coded: 0 success, 2 usage errors (bad flags or
missing arguments, raised by the parser), 3 data or configuration errors
(unreadable or inconsistent dataset files, invalid hyperparameters), 4 trial
failures inside a run, 1 anything unexpected.

``fit --algo aamvfcm`` writes the surviving data to ``filtered/``: the label
file and each view that kept every column are copied from their input files
if those and the manifest keep the stamps they had before the load (see
``data._file_stamp``); other views print as %.17g, other labels as %d.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .amvfcm import HyperParams
from .data import (DatasetError, _file_stamp, _read_labels, _write_labels,
                   parse_manifest, save_dataset)
from .harness import (
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
    # hyperparameter and output flags shared by ``fit`` and ``bench``
    parser.add_argument("--clusters", required=True, type=int)
    parser.add_argument("--max-iters", type=int, default=100)
    parser.add_argument("--epsilon", type=float, default=1e-6)
    parser.add_argument("--dump-weights", action="store_true",
                        help="include dispersion ratios and learned weights in the report")
    parser.add_argument("--out-dir", type=Path, default=None,
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
    p_synth.add_argument("--n", required=True, type=int)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--noise-features", type=int, default=0)
    p_synth.add_argument("--out-dir", type=Path, required=True,
                         help="directory for the dataset files")

    p_fit = sub.add_parser("fit", help="fit one model on a dataset manifest")
    p_fit.add_argument("--algo", choices=("amvfcm", "aamvfcm"), required=True)
    p_fit.add_argument("--config", required=True, type=Path,
                       help="dataset manifest path")
    p_fit.add_argument("--seed", type=int, default=0)
    _model_flags(p_fit)

    p_score = sub.add_parser("score", help="compare two label files")
    p_score.add_argument("--truth", required=True, type=Path)
    p_score.add_argument("--pred", required=True, type=Path)

    p_bench = sub.add_parser("bench", help="multi-trial benchmark run")
    p_bench.add_argument("--algo", choices=("amvfcm", "aamvfcm"), required=True)
    source = p_bench.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", type=Path, default=None,
                        help="dataset manifest path")
    source.add_argument("--synth-n", type=int, default=None,
                        help="use the synthetic benchmark with this sample count")
    p_bench.add_argument("--synth-seed", type=int, default=0)
    p_bench.add_argument("--noise-features", type=int, default=0)
    p_bench.add_argument("--trials", type=int, default=1)
    p_bench.add_argument("--seed-base", type=int, default=0)
    _model_flags(p_bench)
    p_bench.add_argument("--jobs", type=int, default=1,
                         help="parallel trials (threads)")
    return parser


def _cmd_synth(args):
    source = SynthSource(n=args.n, seed=args.seed, noise_features=args.noise_features)
    dataset = _synth_dataset(source)
    manifest = save_dataset(dataset, args.out_dir)
    print(f"wrote {dataset.n_samples} samples, {dataset.n_views} views "
          f"({'x'.join(str(d) for d in dataset.dims)} columns) to {manifest}")
    return EXIT_OK


def _run(args, trials, seed_base, jobs=1, synth=None):
    # the one run path of ``fit`` and ``bench``: build, run, print, write
    config = ExperimentConfig(
        algorithm=args.algo,
        params=HyperParams(
            c=args.clusters,
            t_max=args.max_iters,
            epsilon=args.epsilon,
            seed=seed_base,
        ),
        trials=trials,
        seed_base=seed_base,
        manifest=str(args.config) if args.config is not None else None,
        synth=synth,
        jobs=jobs,
        dump_weights=args.dump_weights,
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
    filtered = args.out_dir is not None and args.algo == "aamvfcm"
    inputs = _input_stamps(args.config) if filtered else []
    result = _run(args, trials=1, seed_base=args.seed).fit_results[0]
    if args.out_dir is not None:  # created by the report write
        _write_labels(args.out_dir / "predicted_labels.txt", result.hard_labels)
        if filtered:
            _write_filtered(result, args.out_dir / "filtered", inputs)
    return EXIT_OK


def _input_stamps(manifest):
    # (path, stamp) of the manifest, of each view file it lists and of its
    # label file (None without one), taken before the load; [] for a manifest
    # that cannot be read (the load says why)
    stamp = _file_stamp(manifest)
    try:
        spec = parse_manifest(manifest)
    except DatasetError:
        return []
    paths = [manifest.parent / rel if rel else None for rel in spec["views"] + [spec["labels"]]]
    return [(manifest, stamp)] + [(p, _file_stamp(p)) if p else None for p in paths]


def _write_filtered(result, out_dir, inputs):
    # surviving data plus a sidecar mapping kept columns to original positions;
    # the labels and an intact view may be copied from their files in
    # ``inputs`` (_input_stamps)
    mask, sources, label_source = result.mask, None, None
    if inputs and _file_stamp(inputs[0][0]) == inputs[0][1]:
        sources = [inputs[1 + h] if mask.active_dims[h] == mask.original_dims[h] else None
                   for h in mask.active_views()]
        label_source = inputs[-1]
    save_dataset(result.reduced_dataset, out_dir, sources, label_source)
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
    _run(args, args.trials, args.seed_base, args.jobs, synth)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    handlers = {
        "synth": _cmd_synth,
        "fit": _cmd_fit,
        "score": _cmd_score,
        "bench": _cmd_bench,
    }
    try:
        return handlers[args.command](args)
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
