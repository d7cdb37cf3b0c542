"""Command line front end.

Subcommands: ``synth`` (write a synthetic dataset), ``train``, ``eval``,
``retrieve``, ``lr-curve``, and ``grad-check``. Exit codes: 0 on success,
1 when a validation or check fails or an output path cannot be written,
2 for usage errors (argparse's own convention), including missing files.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .config import load_config
from .consensus import export_adjacency_csv, export_concepts_csv
from .data import generate_synthetic, load_dataset
from .evaluation import (RETRIEVAL_LEVELS, evaluate, rank_candidates, similarity_matrix,
                         write_eval_report)
from .gradcheck import TOLERANCE, run_suite
from .model import load_model, model_for, save_model
from .training import LrSchedule, fit, write_lr_curve, write_train_log

USAGE_ERROR = 2
CHECK_ERROR = 1


def _seed(text: str) -> int:
    """A generator seed: a non-negative integer, refused at parse time."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use; each parse
    fills a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="mhcvse",
        description="Image-text matching: train, evaluate, and inspect.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic paired dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--pairs", type=int, default=96)
    p.add_argument("--regions", type=int, default=6)
    p.add_argument("--feature-dim", type=int, default=64)
    p.add_argument("--length", type=int, default=6)
    p.add_argument("--vocab", type=int, default=60)
    p.add_argument("--noise", type=float, default=0.03)
    p.add_argument("--separation", type=float, default=2.5)
    p.add_argument("--seed", type=_seed, default=7)

    p = sub.add_parser("train", help="train and write a checkpoint")
    p.add_argument("--config", help="key=value config file (defaults apply if omitted)")
    p.add_argument("--train", required=True, help="training split manifest")
    p.add_argument("--val", required=True, help="validation split manifest")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("eval", help="retrieval metrics for a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default="eval_report.csv")
    p.add_argument("--level", choices=RETRIEVAL_LEVELS)

    p = sub.add_parser("retrieve", help="rank captions for one image")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--image-id", type=int, required=True)
    p.add_argument("--k", type=int, default=10)

    p = sub.add_parser("lr-curve", help="write the lr schedule as CSV")
    p.add_argument("--config", help="config file supplying eta0/eta_min")
    p.add_argument("--eta0", type=float, help="override peak lr")
    p.add_argument("--eta-min", type=float, help="override floor lr")
    p.add_argument("--period", type=int, required=True, help="period in steps")
    p.add_argument("--steps", type=int, required=True, help="rows to emit")
    p.add_argument("--out", default="lr_curve.csv")

    p = sub.add_parser("grad-check", help="finite-difference check of every block and op")
    p.add_argument("--seed", type=_seed, default=0)
    return parser


def _require_files(*paths) -> None:
    for path in paths:
        if path is not None and not Path(path).exists():
            raise FileNotFoundError(path)


def _cmd_synth(args) -> int:
    manifests = generate_synthetic(
        args.out, n_pairs=args.pairs, m=args.regions, f=args.feature_dim,
        l=args.length, vocab=args.vocab, noise=args.noise,
        separation=args.separation, seed=args.seed)
    for manifest in manifests:
        print(manifest)
    return 0


def _cmd_train(args) -> int:
    _require_files(args.config, args.train, args.val)
    cfg = load_config(args.config)
    train_ds = load_dataset(args.train, feature_dim=cfg.feature_dim)
    val_ds = load_dataset(args.val, vocab=train_ds.vocab, feature_dim=cfg.feature_dim)
    model = model_for(cfg, train_ds)
    # an unusable output path fails before the fit, not after it
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = fit(model, train_ds, val_ds)

    save_model(out_dir / "checkpoint.mhcv", model)
    write_train_log(out_dir / "train_log.csv", result.history)
    export_concepts_csv(model.graph, out_dir / "concepts.csv")
    export_adjacency_csv(model.graph, out_dir / "adjacency.csv")
    print(f"best epoch {result.best_epoch} with validation mR "
          f"{result.best_mr:.4f} after {len(result.history)} epochs")
    print(out_dir / "checkpoint.mhcv")
    return 0


def _cmd_eval(args) -> int:
    _require_files(args.checkpoint, f"{args.checkpoint}.meta.json", args.manifest)
    model = load_model(args.checkpoint)
    dataset = load_dataset(args.manifest, vocab=model.vocab,
                           feature_dim=model.config.feature_dim)
    result = evaluate(model, dataset, args.level)
    write_eval_report(args.out, result)
    for direction, k, value in result.as_rows():
        print(f"{direction} R@{k}: {value:.4f}")
    print(f"mR: {result.mr:.4f}")
    return 0


def _cmd_retrieve(args) -> int:
    _require_files(args.checkpoint, f"{args.checkpoint}.meta.json", args.manifest)
    if args.k < 1:
        raise ValueError(f"k must be >= 1, got {args.k}")
    model = load_model(args.checkpoint)
    dataset = load_dataset(args.manifest, vocab=model.vocab,
                           feature_dim=model.config.feature_dim)
    if args.image_id not in dataset.images:
        raise ValueError(f"image id {args.image_id} not in split '{dataset.split}'")
    img, txt = model.embed([dataset.images[args.image_id]],
                           [model.vocab.encode(tokens) for _, _, tokens in dataset.captions])
    scores = similarity_matrix(img, txt)[0]
    order = rank_candidates(scores[None, :])[0][:args.k]
    for col in order:
        caption_id = dataset.captions[col][0]
        print(f"{caption_id}\t{scores[col]:.6f}")
    return 0


def _cmd_lr_curve(args) -> int:
    _require_files(args.config)
    if args.steps < 0:
        raise ValueError(f"--steps must be >= 0, got {args.steps}")
    cfg = load_config(args.config)
    eta0 = cfg.eta0 if args.eta0 is None else args.eta0
    eta_min = cfg.eta_min if args.eta_min is None else args.eta_min
    write_lr_curve(args.out, LrSchedule(eta0, eta_min, args.period), args.steps)
    print(args.out)
    return 0


def _cmd_grad_check(args) -> int:
    results = run_suite(args.seed)
    failed = False
    for block, err in results.items():
        ok = err < TOLERANCE
        failed = failed or not ok
        print(f"{block}: max relative error {err:.3e} "
              f"({'ok' if ok else 'FAIL'})")
    return CHECK_ERROR if failed else 0


_COMMANDS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "retrieve": _cmd_retrieve,
    "lr-curve": _cmd_lr_curve,
    "grad-check": _cmd_grad_check,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except FileNotFoundError as err:
        print(f"error: no such file: {err}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return USAGE_ERROR
    except (ValueError, RuntimeError, FloatingPointError, OSError) as err:
        # an OSError's text names its path, e.g. an --out that is a file
        print(f"error: {err}", file=sys.stderr)
        return CHECK_ERROR
    except MemoryError as err:
        # numpy's message names the size and shape it could not allocate
        print(f"error: out of memory: {err}".rstrip(": "), file=sys.stderr)
        return CHECK_ERROR


if __name__ == "__main__":
    sys.exit(main())
