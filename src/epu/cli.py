"""Command-line entry point: synth, pfm, train, explain, global-explain.

Exit codes are stable API: 0 ok, 2 config/usage problems (a failed allocation
is one: the settings asked for more than there is), 3 I/O or parse failures,
including an evaluation or training worker process that died and a worker
process the OS refuses to fork, 4 training divergence. No output carries
timestamps, so reruns with the same inputs and seed produce byte-identical
artifacts.
"""

from __future__ import annotations

import ctypes
import os


def _cap_threads() -> None:
    value = os.environ.get("EPU_THREADS")
    if value:
        for var in (
            "OPENBLAS_NUM_THREADS",
            "OMP_NUM_THREADS",
            "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS",
        ):
            os.environ[var] = value


# must run before numpy first loads its threading backends
_cap_threads()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

from .config import SCHEMA, load_config_file, resolve_settings  # noqa: E402
from .data import (  # noqa: E402
    MANIFEST_NAME,
    SynthConfig,
    encode_pgm,
    encode_ppm,
    load_dataset,
    load_images,
    read_image,
    synth_generate,
)
from .errors import (  # noqa: E402
    ConfigError,
    ContractError,
    DegenerateInputError,
    IngestionError,
    MetricError,
    ParseError,
    TrainingDivergedError,
)
from .interpret import (  # noqa: E402
    build_prms,
    global_rss_stats,
    overlay_prm,
    render_global_chart,
    render_local_chart,
    rss_sidecar,
)
from .model import predict  # noqa: E402
from .pfm import PFM_LABELS, PFM_SLUGS, build_pfm_stack, resize_rgb  # noqa: E402
from .train import (  # noqa: E402
    check_val_splits,
    cross_validate,
    evaluate,
    fit,
    kfold_split,
    load_checkpoint,
    save_checkpoint,
    summarize_folds,
)


def _write_bytes(path: str, blob: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(blob)


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _overrides_from_args(args) -> dict:
    """{section: {key: value}} of the settings flags given on the command line.

    Each setting's flag has its key as dest; `output.dir` is `--out`.
    """
    overrides: dict = {}
    for section, keys in SCHEMA.items():
        for key in keys:
            value = getattr(args, "out" if section == "output" else key, None)
            if value is not None:
                overrides.setdefault(section, {})[key] = value
    return overrides


def _settings(args):
    file_values = load_config_file(args.config) if getattr(args, "config", None) else None
    return resolve_settings(file_values, _overrides_from_args(args))


def _stem(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args) -> int:
    config = SynthConfig(count=args.count, side=args.side, seed=args.seed)
    synth_generate(config, args.out)
    print(os.path.join(args.out, MANIFEST_NAME))
    return 0


def cmd_pfm(args) -> int:
    settings = _settings(args)
    image = read_image(args.image)
    stack = build_pfm_stack(image, settings.pfm_side)
    out_dir = settings.out_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    stem = _stem(args.image)
    for slug, plane in zip(PFM_SLUGS, stack.maps):
        gray = np.clip(np.rint((plane.astype(np.float64) + 1.0) * 0.5 * 255.0), 0, 255)
        path = os.path.join(out_dir, f"{stem}.pfm-{slug}.pgm")
        _write_bytes(path, encode_pgm(gray.astype(np.uint8)))
        print(path)
    return 0


def _holdout_split(labels, holdout: float, seed: int):
    folds = max(2, round(1.0 / holdout))
    return kfold_split(labels, folds, seed)[0]


def cmd_train(args) -> int:
    settings = _settings(args)
    out_dir = settings.out_dir
    # cross-validation only reports; the holdout run writes its artifacts
    if out_dir is None and not settings.use_folds:
        raise ConfigError("no output directory; pass --out or set [output] dir")
    manifest = load_dataset(args.data)
    images, labels = load_images(manifest)

    if settings.use_folds:
        reports = cross_validate(
            images,
            labels,
            settings.arch,
            settings.train,
            class_names=manifest.class_names,
            log=lambda fold, rep: print(
                f"fold {fold}: auc={rep.auc:.4f} accuracy={rep.accuracy:.4f}"
                f" a_int={rep.interp_accuracy:.4f}"
            ),
        )
        summary = summarize_folds(reports)
        for key, label in (("auc", "auc"), ("accuracy", "accuracy"), ("interp_accuracy", "a_int")):
            mean, std = summary[key]
            print(f"{label} mean={mean:.4f} std={std:.4f}")
        return 0

    train_idx, val_idx = _holdout_split(labels, settings.holdout, settings.train.seed)
    check_val_splits(labels, [(train_idx, val_idx)], manifest.class_names)
    epoch_lines: list = []

    def log(epoch, stats):
        line = f"epoch {epoch} loss={stats.loss!r} accuracy={stats.accuracy!r}"
        epoch_lines.append(line)
        print(line)

    result = fit(
        [images[i] for i in train_idx],
        labels[train_idx],
        settings.arch,
        settings.train,
        class_names=manifest.class_names,
        log=log,
    )
    report = evaluate(result.model, [images[i] for i in val_idx], labels[val_idx])
    val_line = (
        f"val auc={report.auc!r} accuracy={report.accuracy!r}"
        f" a_int={report.interp_accuracy!r}"
    )
    print(val_line)

    # made only now, so a run that fails in training leaves no directory
    os.makedirs(out_dir, exist_ok=True)
    ckpt_path = os.path.join(out_dir, "checkpoint.epu")
    save_checkpoint(result.model, ckpt_path, epoch=settings.train.epochs, seed=settings.train.seed)
    _write_text(os.path.join(out_dir, "metrics.txt"), "\n".join(epoch_lines + [val_line]) + "\n")
    rows = [
        {"epoch": i, "loss": h.loss, "accuracy": h.accuracy}
        for i, h in enumerate(result.history)
    ]
    rows.append(
        {
            "split": "val",
            "auc": report.auc,
            "accuracy": report.accuracy,
            "a_int": report.interp_accuracy,
        }
    )
    _write_text(
        os.path.join(out_dir, "metrics.jsonl"),
        "\n".join(json.dumps(r) for r in rows) + "\n",
    )
    print(ckpt_path)
    return 0


def cmd_explain(args) -> int:
    settings = _settings(args)
    model = load_checkpoint(args.model)
    side = model.arch.input_side
    resized = resize_rgb(read_image(args.image), side, side)
    stack = build_pfm_stack(resized, side)
    prob, scores, acts = predict(model, stack.maps[None], layer=settings.layer)
    p = float(prob[0])
    if not (np.isfinite(p) and np.isfinite(scores).all()):
        raise MetricError(
            f"the model's output is not finite (probability={p!r}); its weights overflow the forward pass"
        )
    names = model.class_names or ("class0", "class1")
    stem = _stem(args.image)
    # every artifact is built before the first is written, so a failure leaves none
    files = [(f"{stem}.chart.svg", render_local_chart(scores[0], names).encode("utf-8"))]
    for slug, prm in zip(PFM_SLUGS, build_prms(acts[:, 0], side, side)):
        files.append((f"{stem}.prm-{slug}.ppm", encode_ppm(overlay_prm(resized, prm))))
    files.append((f"{stem}.rss.jsonl", rss_sidecar(scores[0]).encode("utf-8")))
    print(
        f"predicted={names[int(p >= 0.5)]}"
        f" probability={p!r} beta={float(model.beta.data[0])!r}"
    )
    out_dir = settings.out_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    for name, blob in files:
        path = os.path.join(out_dir, name)
        _write_bytes(path, blob)
        print(path)
    return 0


def cmd_global_explain(args) -> int:
    settings = _settings(args)
    model = load_checkpoint(args.model)
    manifest = load_dataset(args.data)
    if model.class_names and tuple(model.class_names) != tuple(manifest.class_names):
        raise ConfigError(
            f"checkpoint classes {model.class_names} do not match dataset"
            f" classes {manifest.class_names}"
        )
    images, labels = load_images(manifest)
    report = evaluate(model, images, labels)
    rss_rows = np.stack([r.rss for r in report.records])
    names = model.class_names or manifest.class_names
    stats = global_rss_stats(rss_rows, labels, names)

    out_dir = settings.out_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    lines = []
    for c, cls in enumerate(stats.class_names):
        for p, pfm in enumerate(PFM_LABELS):
            lines.append(
                f"class={cls} pfm={pfm}"
                f" mean={float(stats.means[c, p])!r} std={float(stats.stds[c, p])!r}"
            )
    table_path = os.path.join(out_dir, "global-stats.txt")
    _write_text(table_path, "\n".join(lines) + "\n")
    chart_path = os.path.join(out_dir, "global.chart.svg")
    _write_text(chart_path, render_global_chart(stats))
    print(f"auc={report.auc!r} accuracy={report.accuracy!r} a_int={report.interp_accuracy!r}")
    print(table_path)
    print(chart_path)
    return 0


# ---------------------------------------------------------------------------
# parser and dispatch


def _add_setting(sub, section: str, key: str, help=None) -> None:
    """Add the flag of one setting: `--kernel-size` for `arch.kernel_size`."""
    sub.add_argument("--" + key.replace("_", "-"), type=SCHEMA[section][key], help=help)


def _add_config_flags(sub):
    sub.add_argument("--config", help="sectioned key = value config file")
    sub.add_argument("--out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="epu", description=__doc__)
    subs = parser.add_subparsers(dest="command")

    p = subs.add_parser("synth", help="generate the synthetic crescent/disk dataset")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--count", type=int, default=100, help="images per class")
    p.add_argument("--side", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)

    p = subs.add_parser("pfm", help="emit the four perceptual feature maps as PGM")
    p.add_argument("--image", required=True, help="input PPM image")
    _add_setting(p, "pfm", "side", "feature map side (default: arch input side)")
    _add_config_flags(p)

    p = subs.add_parser("train", help="train a binary model on a class-per-directory dataset")
    p.add_argument("--data", required=True, help="dataset root")
    for key in ("batch_size", "lr", "epochs", "seed"):
        _add_setting(p, "train", key)
    _add_setting(p, "train", "augment", "true/false (default true)")
    _add_setting(p, "train", "folds", "run k-fold cross-validation instead of holdout")
    _add_setting(
        p,
        "train",
        "holdout",
        "held-out fraction, at most 0.5 (default 0.2); rounded to 1/k, e.g. 0.4 -> 1/2",
    )
    _add_config_flags(p)
    _add_setting(p, "arch", "preset", "architecture preset name")
    _add_setting(p, "arch", "blocks", "conv blocks, e.g. 2x8,2x16,3x32")
    for key in ("kernel_size", "fc_width", "input_side"):
        _add_setting(p, "arch", key)

    p = subs.add_parser("explain", help="per-image prediction, score chart, relevance overlays")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--image", required=True, help="input PPM image")
    _add_setting(p, "interpret", "layer", "1-based conv layer for relevance maps")
    _add_config_flags(p)

    p = subs.add_parser("global-explain", help="dataset-wide per-class score statistics")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, help="labeled dataset root")
    _add_config_flags(p)

    return parser


_PARSER = None
_ALLOCATOR_SET = False

# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8


def _keep_heap_mapped() -> None:
    """Let glibc keep freed memory mapped for the rest of the process.

    By default glibc serves large arrays from fresh mappings and hands freed
    heap tops back to the kernel, so each numpy temporary of a forward or
    backward pass is page-faulted in again. One arena for all threads, arrays
    up to 32 MiB from the heap and no trimming let them reuse the same pages.
    Runs once per process; does nothing where the C library has no `mallopt`.
    """
    global _ALLOCATOR_SET
    if _ALLOCATOR_SET:
        return
    _ALLOCATOR_SET = True
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_ARENA_MAX, 1)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


def main(argv=None) -> int:
    global _PARSER
    _keep_heap_mapped()
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    if args.command is None:
        _PARSER.print_usage(sys.stderr)
        return 2
    # looked up at call time, so a replaced or wrapped command is the one run
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except TrainingDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ConfigError, ContractError, IngestionError, MetricError, DegenerateInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        detail = str(exc) or "MemoryError"
        print(f"error: {args.command} needs more memory than there is: {detail}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
