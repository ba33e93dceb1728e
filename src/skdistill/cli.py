"""Command-line entry point for reproduction runs.

Subcommands: synth, train-teacher, distill, eval, count, gradcheck.
Exit codes: 0 success, 1 runtime failure, 2 usage error, 3 training
aborted on a non-finite value (train-teacher and distill still write the
parameters to --out, with `"aborted": true` in the meta).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, load_run_config, read_json_file
from .configdict import from_dict
from .data import CorpusSpec, Sample, make_samples, read_image, write_image
from .errors import ConfigError, SkdError
from .gradsuite import DEFAULT_TOL, run_gradcheck_suite, total_trials
from .models import count_params_flops, reduction_percentages
from .trainer import distill, evaluate, make_train_heldout, train_teacher

EXIT_ABORTED = 3
# a manifest is CorpusSpec's dict form; these keys must be written out, the
# rest may take their defaults
_MANIFEST_KEYS = ("task", "count", "channels", "patch_size", "base_seed")


def _apply_seed(run: RunConfig, seed: int | None) -> RunConfig:
    if seed is None:
        return run
    return replace(run, train=replace(run.train, seed=seed),
                   data=replace(run.data, base_seed=seed))


def _image_name(index: int, kind: str, channels: int) -> str:
    ext = "pgm" if channels == 1 else "ppm"
    return f"{index:05d}_{kind}.{ext}"


def cmd_synth(args) -> int:
    run = _apply_seed(load_run_config(args.spec), args.seed)
    spec = replace(run.data, task=args.task) if args.task else run.data
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    samples = make_samples(spec)
    for i, sample in enumerate(samples):
        write_image(out / _image_name(i, "clean", spec.channels), sample.clean)
        write_image(out / _image_name(i, "degraded", spec.channels), sample.degraded)
    (out / "manifest.json").write_text(
        json.dumps(asdict(spec), sort_keys=True, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(samples)} {spec.task} pairs to {out}")
    return 0


def _read_manifest(root: Path) -> CorpusSpec:
    path = root / "manifest.json"
    manifest = read_json_file(path)
    try:
        spec = from_dict(CorpusSpec, manifest)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    missing = [k for k in _MANIFEST_KEYS if k not in manifest]
    if missing:
        raise ConfigError(f"{path} lacks {missing}")
    return spec


def _load_dataset(path: str) -> list[Sample]:
    root = Path(path)
    spec = _read_manifest(root)
    shape = (spec.channels, spec.patch_size, spec.patch_size)

    def read(i: int, kind: str):
        path = root / _image_name(i, kind, spec.channels)
        image = read_image(path)
        if image.shape != shape:
            raise ConfigError(f"{path} is {image.shape}, the manifest says {shape}")
        return image

    return [Sample(clean=read(i, "clean"), degraded=read(i, "degraded"), task=spec.task)
            for i in range(spec.count)]


def cmd_train(args) -> int:
    """train-teacher, or distill against --teacher."""
    run = _apply_seed(load_run_config(args.config), args.seed)
    teacher = load_checkpoint(args.teacher) if args.command == "distill" else None
    samples, heldout = make_train_heldout(run)
    result = (train_teacher(run, samples, heldout) if teacher is None
              else distill(run, teacher, samples, heldout))
    save_checkpoint(result.checkpoint, args.out)
    nan = float("nan")
    last = result.history[-1] if result.history else {}
    evals = result.eval_history[-1] if result.eval_history else {}
    terms = ", ".join(f"{k} {last.get(k, nan):.5f}" for k in ("rec", "gk", "cl"))
    status = f"aborted ({result.abort_reason})" if result.aborted else "done"
    print(f"{status}: {result.checkpoint.step} steps, loss {last.get('loss', nan):.5f} "
          f"({terms}), heldout psnr {evals.get('psnr_restored', nan):.2f} dB "
          f"(degraded {evals.get('psnr_degraded', nan):.2f} dB)")
    print(f"checkpoint -> {args.out}")
    return EXIT_ABORTED if result.aborted else 0


def cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.ckpt)
    samples = _load_dataset(args.data)
    report = evaluate(ckpt, samples)
    blob = json.dumps(report, sort_keys=True, indent=2) + "\n"
    Path(args.report).write_text(blob, encoding="utf-8")
    print(blob, end="")
    return 0


def cmd_count(args) -> int:
    run = load_run_config(args.config)
    size = args.size
    params, flops = count_params_flops(run.model, size, size)
    print(f"config: params={params} flops={flops} (at {size}x{size})")
    if args.baseline:
        base = load_run_config(args.baseline)
        b_params, b_flops = count_params_flops(base.model, size, size)
        print(f"baseline: params={b_params} flops={b_flops}")
        p_red, f_red = reduction_percentages(run.model, base.model, size, size)
        print(f"reduction: params={p_red:.1f}% flops={f_red:.1f}%")
    return 0


def cmd_gradcheck(args) -> int:
    seed = args.seed if args.seed is not None else 0
    t0 = time.perf_counter()
    results = run_gradcheck_suite(seed)
    elapsed = time.perf_counter() - t0
    failures = 0
    for r in results:
        status = "ok  " if r.passed() else "FAIL"
        failures += 0 if r.passed() else 1
        print(f"{status} {r.name:40} trials={r.trials:3} max_rel_err={r.max_rel_err:.3e}")
    print(f"{total_trials(results)} trials in {elapsed:.1f}s, "
          f"{failures} failing checks at seed {seed} (tolerance {DEFAULT_TOL:g})")
    return 0 if failures == 0 else 1


def _seed(text: str) -> int:
    """argparse type for --seed: numpy seeds are non-negative integers."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skdistill",
        description="Distill compact image-restoration networks on synthetic tasks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a clean/degraded image folder")
    p.add_argument("--task", choices=["denoise", "deblur", "derain"])
    p.add_argument("--spec", required=True, help="run config JSON (data section is used)")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_seed)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train-teacher", help="train the reference network")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_seed)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("distill", help="distill the compact student")
    p.add_argument("--config", required=True)
    p.add_argument("--teacher", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_seed)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="metrics report for a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("count", help="parameter/FLOP accounting")
    p.add_argument("--config", required=True)
    p.add_argument("--baseline")
    p.add_argument("--size", type=int, default=128)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p.add_argument("--seed", type=_seed)
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # a MemoryError comes from sizes in a config that cannot be allocated
    except (SkdError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
