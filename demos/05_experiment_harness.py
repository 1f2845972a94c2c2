"""Run a seeded multi-trial experiment and emit its report artifacts.

One config fixes the data source, the algorithm, and the hyperparameters;
trials differ only in the solver seed (seed_base + trial index). Reports
come in two forms: an aligned table for reading and one JSON record per
line for machines. Everything except wall-clock timing is reproducible.
"""

import tempfile
from pathlib import Path

from mvclust import ExperimentConfig, HyperParams, SynthSource, emit_report, run_experiment
from mvclust.harness import parse_records, render_table, report_records, strip_timing

config = ExperimentConfig(
    algorithm="aamvfcm",
    params=HyperParams(c=5),
    trials=5,
    seed_base=0,
    synth=SynthSource(n=1500, seed=0, noise_features=1),
)
report = run_experiment(config)
print(render_table(report))

with tempfile.TemporaryDirectory() as tmp:
    table_path, records_path = emit_report(report, Path(tmp) / "run")
    print(f"wrote {table_path.name} and {records_path.name}")
    lines = parse_records(records_path)
    kinds = [rec["kind"] for rec in lines]
    print(f"record kinds on disk: {kinds}")

again = run_experiment(config)
same = strip_timing(report_records(report)) == strip_timing(report_records(again))
print(f"\nsecond run of the same config, records equal modulo timing: {same}")

print("\nthe command line front end drives the same machinery:")
print("  mvclust bench --algo aamvfcm --synth-n 1500 --noise-features 1 \\")
print("      --clusters 5 --trials 5 --out-dir runs/bench01")
print("  mvclust synth --n 2000 --noise-features 1 --out-dir data/bench")
print("  mvclust fit --algo aamvfcm --config data/bench/manifest.cfg \\")
print("      --clusters 5 --out-dir runs/fit01")
print("  mvclust score --truth data/bench/labels.txt "
      "--pred runs/fit01/predicted_labels.txt")
