"""Command-line entry point: ``python -m repro``.

Subcommands:

* ``info``       — package, configuration and preset overview;
* ``stats``      — Table II: statistics of the three paper presets (or one);
* ``demo``       — build a miniature LC-Rec and print one recommendation;
* ``experiment`` — run a config-driven scenario-matrix experiment
  (``experiment run <config.json>``) or list the available
  scenarios and backends (``experiment scenarios``).
"""

from __future__ import annotations

import argparse
import sys


def _cmd_info(_args) -> int:
    import repro
    from repro.data import PRESETS

    print(f"repro {repro.__version__} — LC-Rec (ICDE 2024) reproduction")
    print("presets:", ", ".join(sorted(PRESETS)))
    print(
        "subpackages: tensor, text, data, llm, quantization, core, "
        "baselines, eval, analysis, bench"
    )
    return 0


def _cmd_stats(args) -> int:
    from repro.data import build_dataset, dataset_statistics, format_table2_row, preset_config

    print(
        f"{'dataset':<12} {'#users':>8} {'#items':>8} "
        f"{'#interactions':>13} {'sparsity':>8} {'avg.len':>8}"
    )
    for preset in [args.preset] if args.preset else ["instruments", "arts", "games"]:
        dataset = build_dataset(preset_config(preset, scale=args.scale))
        print(format_table2_row(dataset_statistics(dataset)))
    return 0


def _cmd_demo(args) -> int:
    from repro.core import LCRec, LCRecConfig
    from repro.core.indexer import SemanticIndexerConfig
    from repro.core.tasks import AlignmentTaskConfig
    from repro.data import build_dataset, preset_config
    from repro.llm import PretrainConfig, TuningConfig
    from repro.quantization import RQVAEConfig, RQVAETrainerConfig

    dataset = build_dataset(preset_config(args.preset, scale=0.15))
    config = LCRecConfig(
        pretrain=PretrainConfig(steps=120, batch_size=8),
        indexer=SemanticIndexerConfig(
            rqvae=RQVAEConfig(latent_dim=16, hidden_dims=(48,), codebook_size=12),
            trainer=RQVAETrainerConfig(epochs=80, batch_size=256),
        ),
        tasks=AlignmentTaskConfig(seq_per_user=2, max_history=6),
        tuning=TuningConfig(epochs=2, batch_size=8),
        beam_size=10,
    )
    model = LCRec(dataset, config).build()
    history = dataset.split.test_histories[0]
    print("history:")
    for item_id in history[-4:]:
        print("  -", dataset.catalog[item_id].title, model.index_set.index_text(item_id))
    print("recommendations:")
    for item_id in model.recommend(history, top_k=5):
        print("  *", dataset.catalog[item_id].title)
    return 0


def _cmd_experiment_run(args) -> int:
    from repro.experiments import (
        ExperimentConfig,
        ExperimentConfigError,
        ExperimentError,
        ExperimentRunner,
    )

    try:
        config = ExperimentConfig.from_file(args.config)
        if args.scale:
            config = ExperimentConfig.from_dict({**config.to_dict(), "scale": args.scale})
    except ExperimentConfigError as exc:
        print(exc)
        return 2
    runner = ExperimentRunner(config, write=not args.no_write)
    try:
        result = runner.run()
    except ExperimentError as exc:
        print(exc)
        return 1
    for record in result["records"]:
        if not record["supported"]:
            print(f"{record['name']:<36} skipped: {record['reason']}")
            continue
        quality = record["quality"]
        metrics = " ".join(
            f"{key}={quality[key]:.4f}" for key in sorted(quality) if key != "evaluated"
        )
        print(
            f"{record['name']:<36} served={record['served']} shed={record['shed']} "
            f"degraded={record['degraded']} cold={record['cold_start']} {metrics}"
        )
    if result["path"]:
        print(f"wrote {result['path']}")
    return 0


def _cmd_experiment_scenarios(_args) -> int:
    from repro.experiments import known_backends, known_scenarios

    print("scenarios (kind: default parameters):")
    for kind, defaults in sorted(known_scenarios().items()):
        rendered = ", ".join(f"{key}={value}" for key, value in sorted(defaults.items()))
        print(f"  {kind:<16} {rendered}")
    print("backends:", ", ".join(known_backends()))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description="LC-Rec reproduction command line")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("info", help="package overview").set_defaults(func=_cmd_info)
    stats = sub.add_parser("stats", help="dataset statistics (Table II)")
    stats.add_argument("preset", nargs="?", choices=["instruments", "arts", "games", "tiny"])
    stats.add_argument("--scale", type=float, default=1.0)
    stats.set_defaults(func=_cmd_stats)
    demo = sub.add_parser("demo", help="tiny end-to-end demonstration")
    demo.add_argument(
        "preset", nargs="?", default="tiny", choices=["instruments", "arts", "games", "tiny"]
    )
    demo.set_defaults(func=_cmd_demo)
    experiment = sub.add_parser("experiment", help="config-driven experiment harness")
    experiment_sub = experiment.add_subparsers(dest="experiment_command", required=True)
    run = experiment_sub.add_parser("run", help="execute a scenario-matrix config")
    run.add_argument("config", help="path to a .json config")
    run.add_argument(
        "--scale", choices=["tiny", "small", "full"], help="override the config's scale"
    )
    run.add_argument("--no-write", action="store_true", help="skip benchmark_results/ output")
    run.set_defaults(func=_cmd_experiment_run)
    scenarios = experiment_sub.add_parser("scenarios", help="list scenarios and backends")
    scenarios.set_defaults(func=_cmd_experiment_scenarios)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
