"""Command-line harness.

    restr gen       --seed N --count N --size N --out DIR
    restr train     --data DIR --out DIR [--config FILE] [--resume CKPT] [--key value]...
    restr eval      --ckpt FILE --data DIR [--buckets SPEC] [--out DIR]
    restr gradcheck --scope {ops,model}
    restr ablate    --what {variant,layers,lambda,tau} --data DIR --out DIR [--key value]...
    restr profile   [--config FILE] [--key value]...
    restr render    --ckpt FILE --data DIR --ids 0,3,7 --out DIR

Any run-config key (see ``restr.runconfig.ALL_KEYS``) can be overridden with
a flag of the same name. Exit codes: 0 success, 1 validation error,
2 runtime or data error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import data as dsmod
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .decoder import attention_probe, init_model
from .encoders import ModelConfig
from .fusion import FusionVariant, profile_all
from .gradcheck import check_all_ops, check_model_gradients
from .metrics import DEFAULT_BUCKETS, evaluate_model
from .render import render_sample
from .runconfig import (ALL_KEYS, UsageError, build_configs, load_config_file,
                        parse_config_text, serialize_model_config)
from .training import AdamW, NonFiniteLossError, TrainConfig, check_stop_settings, train
from .transformer import ConfigError

LAMBDA_GRID = (0.01, 0.05, 0.1, 0.5, 1.0)
TAU_GRID = (0.5, 0.6, 0.7, 0.8, 0.9)
LAYERS_GRID = (2, 4)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); our contract says 1
        raise UsageError(message)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    for key in ALL_KEYS:
        parser.add_argument(f"--{key}", metavar="V", dest=f"cfg_{key}")


def _collect_overrides(args) -> dict[str, str]:
    overrides: dict[str, str] = {}
    if getattr(args, "config", None):
        overrides.update(load_config_file(args.config))
    for key in ALL_KEYS:
        value = getattr(args, f"cfg_{key}", None)
        if value is not None:
            overrides[key] = value
    return overrides


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="restr", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--size", type=int, default=64, help="square canvas side")
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--stop-at-iou", type=float, default=None)
    p.add_argument("--stop-after", type=int, default=None,
                   help="interrupt at this iteration, keeping the schedule")
    p.add_argument("--quiet", action="store_true")
    _add_config_flags(p)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--buckets", default=DEFAULT_BUCKETS)
    p.add_argument("--out", help="directory for report.csv / report.txt")

    p = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    p.add_argument("--scope", choices=("ops", "model"), default="ops")

    p = sub.add_parser("ablate", help="train/eval sweeps at toy scale")
    p.add_argument("--what", choices=("variant", "layers", "lambda", "tau"),
                   required=True)
    p.add_argument("--config")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)

    p = sub.add_parser("profile", help="fusion params/MACs per variant")
    p.add_argument("--config")
    p.add_argument("--probe-samples", type=int, default=0,
                   help="also probe seed attention on N random samples")
    _add_config_flags(p)

    p = sub.add_parser("render", help="render predictions as PGM/PPM")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--ids", required=True, help="comma-separated sample ids")
    p.add_argument("--out", required=True)
    return parser


def _fixed_keys(dataset: dsmod.Dataset,
                ckpt_cfg: ModelConfig | None = None) -> tuple[dict[str, str], str]:
    """The model keys a run may not change, as config text, and what fixed
    them. The dataset fixes the vocabulary and image shape; a checkpoint
    fixes every model key, and must itself fit the dataset."""
    h, w, c = (str(n) for n in dataset.samples[0].image.shape)
    fixed = {"vocab_size": str(len(dataset.vocab)), "image_h": h, "image_w": w, "channels": c}
    if ckpt_cfg is None:
        return fixed, "dataset's"
    have = parse_config_text(serialize_model_config(ckpt_cfg))
    for key, value in fixed.items():
        if value != have[key]:
            raise UsageError(f"dataset {key} {value} does not match the checkpoint's "
                             f"{key} {have[key]}")
    return have, "checkpoint's"


def _configs_for_dataset(overrides: dict[str, str], dataset: dsmod.Dataset,
                         ckpt_cfg: ModelConfig | None = None
                         ) -> tuple[ModelConfig, TrainConfig]:
    """Configs from the fixed keys, then the overrides; an override that
    changes a fixed key is a usage error naming the key."""
    fixed, source = _fixed_keys(dataset, ckpt_cfg)
    model_cfg, train_cfg = build_configs({**fixed, **overrides})
    want = parse_config_text(serialize_model_config(model_cfg))
    for key, have in fixed.items():
        if want[key] != have:
            raise UsageError(f"--{key} {want[key]} does not match the {source} {key} {have}")
    return model_cfg, train_cfg


def cmd_gen(args) -> int:
    if args.count < 1:
        raise UsageError(f"--count must be >= 1, got {args.count}")
    if args.size < dsmod.MIN_CANVAS:
        raise UsageError(f"--size must be >= {dsmod.MIN_CANVAS}, got {args.size}")
    dataset = dsmod.generate(seed=args.seed, count=args.count,
                             h=args.size, w=args.size)
    dsmod.save(dataset, args.out)
    hist = dsmod.length_histogram(dataset)
    print(f"wrote {len(dataset)} samples to {args.out}")
    print(f"vocabulary: {len(dataset.vocab)} tokens")
    print("expression length histogram: "
          + ", ".join(f"{k}: {v}" for k, v in hist.items()))
    return 0


def cmd_train(args) -> int:
    dataset = dsmod.load(args.data)
    overrides = _collect_overrides(args)
    ckpt_cfg = params = opt_state = None
    if args.resume:
        ckpt_cfg, params, opt_state = load_checkpoint(args.resume)
    model_cfg, train_cfg = _configs_for_dataset(overrides, dataset, ckpt_cfg)
    if params is None:
        params = init_model(np.random.default_rng(train_cfg.seed), model_cfg)
    optimizer = AdamW(params.named_parameters(), train_cfg)
    if opt_state is not None:
        optimizer.load_state(opt_state)
    check_stop_settings(args.stop_at_iou, args.stop_after, train_cfg)
    out = Path(args.out)  # made only once the input is accepted
    out.mkdir(parents=True, exist_ok=True)

    def report(row):
        if not args.quiet:
            iou = "" if row.eval_iou is None else f" iou {row.eval_iou:.4f}"
            print(f"iter {row.iteration:6d} lr {row.lr:<10.4g} "
                  f"loss {row.loss_total:.5f} grad_norm {row.grad_norm:.4g} "
                  f"{row.samples_per_s:.1f} samples/s{iou}", flush=True)

    result = train(params, model_cfg, train_cfg, dataset.samples,
                   stop_at_iou=args.stop_at_iou, stop_after=args.stop_after,
                   optimizer=optimizer, on_log=report)
    save_checkpoint(out / "checkpoint.rstr", model_cfg, params, optimizer.state())
    result.write_csv(out / "train_log.csv")
    result.write_timing_csv(out / "train_timing.csv")
    print(f"checkpoint: {out / 'checkpoint.rstr'}")
    print(f"log: {out / 'train_log.csv'}")
    if result.final_iou is not None:
        print(f"final cumulative IoU: {result.final_iou:.4f}")
    return 0


def cmd_eval(args) -> int:
    model_cfg, params, _ = load_checkpoint(args.ckpt)
    dataset = dsmod.load(args.data)
    _fixed_keys(dataset, model_cfg)
    report = evaluate_model(params, model_cfg, dataset.samples, buckets=args.buckets)
    print(report.text_table())
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        files = {"report.csv": "\n".join(report.csv_rows()),
                 "report.txt": report.text_table(),
                 "ious.csv": "\n".join(report.iou_csv_rows())}
        for name, text in files.items():
            (out / name).write_text(text + "\n", encoding="utf-8")
        print(f"wrote {', '.join(str(out / name) for name in files)}")
    return 0


def cmd_gradcheck(args) -> int:
    if args.scope == "ops":
        report = check_all_ops()
    else:
        report = check_model_gradients()
    print(report)
    return 0 if report.passed else 1


def _ablate_rows(args, dataset: dsmod.Dataset) -> list[str]:
    overrides = _collect_overrides(args)
    rows = ["sweep,setting,cumulative_iou,prec@0.5"]

    def run(setting: str, extra: dict[str, str], use_decoder: bool = True) -> None:
        model_cfg, train_cfg = _configs_for_dataset({**overrides, **extra}, dataset)
        params = init_model(np.random.default_rng(train_cfg.seed), model_cfg)
        train(params, model_cfg, train_cfg, dataset.samples, use_decoder=use_decoder)
        report = evaluate_model(params, model_cfg, dataset.samples,
                                use_decoder=use_decoder)
        rows.append(f"{args.what},{setting},{report.cumulative_iou:.6f},"
                    f"{report.prec[0.5]:.6f}")
        print(rows[-1], flush=True)

    if args.what == "variant":
        for variant in FusionVariant:
            run(variant.value, {"fusion_variant": variant.value})
    elif args.what == "layers":
        for layers in LAYERS_GRID:
            for use_decoder in (True, False):
                tag = f"layers={layers}/decoder={'on' if use_decoder else 'off'}"
                run(tag, {"fusion_layers": str(layers)}, use_decoder=use_decoder)
    elif args.what == "lambda":
        for lam in LAMBDA_GRID:
            run(str(lam), {"lam": str(lam)})
    else:
        for tau in TAU_GRID:
            run(str(tau), {"tau": str(tau)})
    return rows


def cmd_ablate(args) -> int:
    dataset = dsmod.load(args.data)
    rows = _ablate_rows(args, dataset)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"ablate_{args.what}.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


def cmd_profile(args) -> int:
    if args.probe_samples < 0:
        raise UsageError(f"--probe-samples must be >= 0, got {args.probe_samples}")
    overrides = _collect_overrides(args)
    model_cfg, _ = build_configs(overrides)
    print("variant,params,macs")
    for result in profile_all(model_cfg):
        print(result.csv_row())
    if args.probe_samples > 0:
        rng = np.random.default_rng(0)
        params = init_model(rng, model_cfg)
        shape = (model_cfg.image_h, model_cfg.image_w, model_cfg.channels)
        samples = ((rng.uniform(0.0, 1.0, shape),
                    [int(v) for v in rng.integers(2, model_cfg.vocab_size, size=4)])
                   for _ in range(args.probe_samples))
        stats = attention_probe(params, model_cfg, samples)
        print(f"# seed attention, variant={model_cfg.fusion_variant.value}")
        print(stats)
    return 0


def cmd_render(args) -> int:
    model_cfg, params, _ = load_checkpoint(args.ckpt)
    dataset = dsmod.load(args.data)
    _fixed_keys(dataset, model_cfg)
    try:
        ids = [int(part) for part in args.ids.split(",") if part.strip()]
    except ValueError as exc:
        raise UsageError(f"--ids must be comma-separated integers: {exc}") from exc
    if not ids:
        raise UsageError("--ids selected no samples")
    for sid in ids:  # all checked before the first render writes a file
        if not 0 <= sid < len(dataset):
            raise UsageError(f"sample id {sid} outside dataset of {len(dataset)}")
    for sid in ids:
        paths = render_sample(params, model_cfg, dataset[sid], args.out, sid)
        print(f"sample {sid}: " + ", ".join(str(p) for p in paths.values()))
    return 0


_COMMANDS = {
    "gen": cmd_gen,
    "train": cmd_train,
    "eval": cmd_eval,
    "gradcheck": cmd_gradcheck,
    "ablate": cmd_ablate,
    "profile": cmd_profile,
    "render": cmd_render,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (UsageError, ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (dsmod.DataFormatError, dsmod.GenerationError, CheckpointError,
            NonFiniteLossError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
