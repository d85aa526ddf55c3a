"""Command-line interface.

Subcommands mirror the pipeline stages so each can be run and inspected
on its own; ``run`` chains all of them. Exit codes: 0 success, 2 config
error, 3 zero usable windows, 1 any other failure.
"""

import argparse
import dataclasses
import json
import os
import sys

from . import dataio, pipeline
from .errors import ConfigError, FwaveError, NoUsableWindowsError


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fwave",
        description="Single-lead f-wave extraction, DAF estimation and AF classification",
    )
    sub = p.add_subparsers(dest="command", required=True)

    base = argparse.ArgumentParser(add_help=False)
    base.add_argument("--config", help="pipeline config JSON file")
    base.add_argument("--out", help="output directory (overrides config)")
    seeded = argparse.ArgumentParser(add_help=False, parents=[base])
    seeded.add_argument("--seed", type=int, help="master RNG seed (overrides config)")
    windowed = argparse.ArgumentParser(add_help=False, parents=[seeded])
    windowed.add_argument("--workers", type=int, help="parallel window workers")
    windowed.add_argument("--dump-beats", action="store_true", help="write per-window beat maps")

    sub.add_parser("run", parents=[windowed], help="run the full pipeline")

    syn = sub.add_parser("synth", parents=[seeded], help="generate the synthetic corpus")
    syn.add_argument("--n-af", type=int, help="number of AF records")
    syn.add_argument("--n-sinus", type=int, help="number of sinus records")
    syn.add_argument("--f0-min", type=float, help="lower f-wave fundamental bound (Hz)")
    syn.add_argument("--f0-max", type=float, help="upper f-wave fundamental bound (Hz)")
    syn.add_argument("--format", choices=tuple(dataio.FORMATS), help="record file format")

    ext = sub.add_parser("extract", parents=[windowed],
                         help="quality-gate windows and extract f-waves")
    ext.add_argument("--method", action="append", help="restrict to this extractor (repeatable)")

    sub.add_parser("daf", parents=[base], help="estimate the DAF of extracted residuals")

    ev = sub.add_parser("eval", parents=[seeded], help="train/evaluate the DAF classifiers")
    ev.add_argument("--features", help="evaluate a ready-made feature table CSV instead of daf.csv")

    return p


def _config(args) -> pipeline.PipelineConfig:
    """The config file plus the flags, checked once by the constructor."""
    flags = {
        "out_dir": args.out,
        "seed": getattr(args, "seed", None),
        "workers": getattr(args, "workers", None),
        "dump_beats": getattr(args, "dump_beats", False) or None,
        "extractors": tuple(args.method) if getattr(args, "method", None) else None,
        "record_format": getattr(args, "format", None),
    }
    flags = {k: v for k, v in flags.items() if v is not None}
    if args.config:
        cfg = pipeline.PipelineConfig.from_file(args.config, **flags)
    elif args.command == "synth" or getattr(args, "features", None):
        # synth has usable defaults; eval on a ready-made table needs no inputs
        cfg = pipeline.PipelineConfig.from_dict(flags)
    else:
        raise ConfigError("--config is required for this command")
    if args.command == "synth":
        if cfg.synth is None:  # the synth command generates the default corpus
            cfg = dataclasses.replace(cfg, synth={})
        lo, hi = cfg.synth["f0_range"]
        spec = {"n_af": args.n_af, "n_sinus": args.n_sinus,
                "f0_range": (lo if args.f0_min is None else args.f0_min,
                             hi if args.f0_max is None else args.f0_max)}
        cfg = dataclasses.replace(
            cfg, synth={**cfg.synth, **{k: v for k, v in spec.items() if v is not None}}
        )
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config(args)
        if args.command == "run":
            report = pipeline.run_pipeline(cfg)
            print(json.dumps({"voting_set": report["voting_set"], "out_dir": cfg.out_dir}))
        elif args.command == "synth":
            manifest = pipeline.stage_synth(cfg)
            print(f"wrote {len(manifest)} records to {cfg.out_dir}/records")
        elif args.command == "extract":
            res = pipeline.stage_extract(cfg)
            n_excl = len(res["exclusions"]["windows"])
            print(f"{len(res['windows'])} usable windows, {n_excl} excluded")
            if not res["windows"]:
                raise NoUsableWindowsError("all windows excluded")
        elif args.command == "daf":
            table = pipeline.stage_daf(cfg)
            print(f"estimated {len(table)} DAF values -> {cfg.out_dir}/daf.csv")
        else:  # eval
            table = None
            if args.features:
                if not os.path.isfile(args.features):
                    raise ConfigError(f"feature table {args.features} is not a file")
                table = pipeline.FeatureTable.from_csv(args.features)
            report = pipeline.stage_eval(cfg, table=table)
            print(json.dumps({m: report[m] for m in report["ranking"] + ["vote"]}, indent=1))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NoUsableWindowsError as exc:
        print(f"no usable windows: {exc}", file=sys.stderr)
        return 3
    except FwaveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
