"""One binary, many subcommands: rescue, ensemble, fit-pc-model,
calibrate-spikiness, features, noise-score, inject-noise, evaluate.

Exit codes: 0 success, 1 validation or configuration error, 2 I/O error.
Output files are written to temporary sibling paths and renamed into
place only once the command has written all of them, so a failure leaves
no partial output and no temporary file behind, and each earlier output
as it was. A target that is itself a directory is refused before the
first rename, so no target is replaced. Only a failure inside the final
`os.replace` calls, one per file (two for `rescue --trace` and `evaluate
--confusion`, one per copy for `inject-noise`), can leave some new files
beside old ones. A failed `inject-noise` also removes the directories it
made.
"""

from __future__ import annotations

import argparse
import ctypes
import errno
import os
import stat
import sys
import zlib
from contextlib import contextmanager, suppress
from pathlib import Path

from .core import (
    Phase,
    RescueConfig,
    ValidationError,
    default_label_set,
    errors_in,
    load_label_file,
    parse_config_file,
    write_csv,
)
from .ingest import (
    DirectorySampleSource,
    SampleNotFoundError,
    average_prob_tables,
    find_image,
    list_image_ids,
    parse_class_counts,
    parse_prob_table,
    read_image_rgb,
    write_prob_table,
)
from .metrics import evaluate, format_report, write_confusion_csv
from .netpbm import write_pnm
from .morphology import (
    calibrate_spikiness_threshold,
    fit_gaussian_gate,
    load_gate,
    morph_vector,
    read_features_csv,
    save_gate,
    spikiness,
    trace_contour,
    write_features_csv,
)
from .noise import check_salt_pepper_rates, inject_salt_pepper, noise_score
from .rescue import PHASES, parallel_map, rescue_batch, write_predictions_csv, write_trace_csv
from . import rescue


def __getattr__(name: str):
    """`rescue.ThreadPoolExecutor`, a name here for perfbench/tracing.py to patch."""
    if name != "ThreadPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return rescue.ThreadPoolExecutor


# glibc's mallopt(3) parameters and the values run() gives them. A freed
# block below the mmap threshold stays in the heap, and the heap's top is
# returned to the kernel only past the trim threshold, so each image's
# temporaries reuse pages that are already resident instead of faulting in
# zeroed ones; a whole-table array (5.2 MB for 50k x 13) is still mapped on
# its own. Setting either value turns glibc's dynamic mmap threshold off, so
# both are set. A 32 MiB mmap threshold raised the own peak memory of the
# 50k-row table commands by 5-6 MiB; 4 MiB did not raise it.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 4 << 20
_TRIM_THRESHOLD = 64 << 20


def _keep_freed_heap() -> None:
    """Tune glibc's allocator to keep freed heap; a no-op on other C libraries."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (ValueError, OSError, AttributeError):  # not glibc, or no mallopt to call
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


@contextmanager
def _atomic(*paths):
    """Yield a temporary path for each of `paths`, or the path itself where it
    is None or empty. They replace their targets one after another only once
    the block has written them all and no target is a directory; on any
    failure each one is removed."""
    targets = [path and Path(path) for path in paths]
    tmps = [target and target.with_name(f"{target.name}.tmp{os.getpid()}") for target in targets]
    try:
        yield tmps
        for target in filter(None, targets):
            with suppress(FileNotFoundError):  # a new file
                # lstat: os.replace replaces a symlink, even one to a directory.
                if stat.S_ISDIR(os.lstat(target).st_mode):
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
        for tmp, target in zip(tmps, targets):
            if target:
                os.replace(tmp, target)
    except BaseException:
        for tmp in filter(None, tmps):
            tmp.unlink(missing_ok=True)
        raise


def _refuse_one_file(args, first: str, second: str) -> None:
    """Refuse, before any work, two outputs that name one file."""
    a, b = getattr(args, first), getattr(args, second)
    with suppress(OSError):  # a file that does not exist yet is no hard link
        if b and (os.path.realpath(a) == os.path.realpath(b) or os.path.samefile(a, b)):
            raise ValidationError(f"--{first} and --{second} name the same file {b}")


def _info(args, message: str) -> None:
    """Write a progress line to stderr, only under --verbose."""
    if args.verbose:
        print(f"INFO wbcrescue: {message}", file=sys.stderr)


def _thread_count(text: str) -> int:
    try:
        threads = int(text)
    except ValueError:
        threads = -1
    if threads < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return threads


def _load_labels(args):
    if args.labels:
        return load_label_file(args.labels)
    return default_label_set()


def _derive_seed(base_seed: int, image_id: str) -> int:
    # Stable per-image stream regardless of processing order.
    return (base_seed * 1_000_003 + zlib.crc32(image_id.encode("utf-8"))) % 2**63


def _no_sample_dirs(image_id: str):
    raise SampleNotFoundError(
        f"sample {image_id!r} needed for morphological filtering, "
        "but --images/--masks were not given"
    )


def _cmd_rescue(args) -> int:
    _refuse_one_file(args, "out", "trace")
    if bool(args.images) != bool(args.masks):
        given, missing = ("--images", "--masks") if args.images else ("--masks", "--images")
        raise ValidationError(f"{given} was given without {missing}")
    label_set = _load_labels(args)
    if args.config:
        config = parse_config_file(args.config, label_set)
    else:
        config = RescueConfig()
        with errors_in(args.labels):  # the default catalog holds every default rare class
            config.validate_against(label_set)
    counts = parse_class_counts(args.counts, label_set)
    swin = parse_prob_table(args.swin, label_set)
    med = parse_prob_table(args.med, label_set)
    gate = load_gate(args.gate) if args.gate else None
    if args.images:
        source = DirectorySampleSource(args.images, args.masks)
    else:
        source = _no_sample_dirs
    decisions = rescue_batch(swin, med, source, counts, gate, config,
                             skip_missing=args.skip_missing, threads=args.threads)
    rescued = (decisions.phase == PHASES.index(Phase.RESCUED)).sum()
    _info(args, f"decided {len(decisions)} images, rescued {rescued}")
    with _atomic(args.out, args.trace) as (out, trace):
        write_predictions_csv(out, decisions, label_set)
        if trace:
            write_trace_csv(trace, decisions, label_set)
    return 0


def _cmd_ensemble(args) -> int:
    label_set = _load_labels(args)
    tables = [parse_prob_table(path, label_set) for path in args.inputs]
    merged = average_prob_tables(tables)
    with _atomic(args.out) as (tmp,):
        write_prob_table(tmp, merged)
    return 0


def _cmd_fit_pc_model(args) -> int:
    rows = read_features_csv(args.features)
    gate = fit_gaussian_gate([vector for _, vector, _ in rows], args.ridge_scale)
    with _atomic(args.out) as (tmp,):
        save_gate(tmp, gate)
    _info(args, f"fitted gate from {gate.sample_count} samples (ridge {gate.ridge:g})")
    return 0


def _cmd_calibrate_spikiness(args) -> int:
    rows = read_features_csv(args.features)
    threshold = calibrate_spikiness_threshold([spike for _, _, spike in rows], args.k)
    line = f"tau_s = {threshold:.9g}"
    if args.out:  # written before printing, so a failed write prints nothing
        with _atomic(args.out) as (tmp,):
            tmp.write_text(line + "\n", encoding="utf-8")
    print(line)
    return 0


def _cmd_features(args) -> int:
    source = DirectorySampleSource(args.images, args.masks)
    ids = list_image_ids(args.images)

    def extract(image_id: str):
        sample = source(image_id)
        with errors_in(source.mask_path(image_id)):  # an unmeasurable cell: name its mask
            return image_id, morph_vector(sample), spikiness(trace_contour(sample.mask))

    rows = parallel_map(extract, ids, args.threads)
    with _atomic(args.out) as (tmp,):
        write_features_csv(tmp, rows)
    return 0


def _cmd_noise_score(args) -> int:
    ids = list_image_ids(args.images)

    def score(image_id: str):
        return image_id, noise_score(read_image_rgb(find_image(args.images, image_id)))

    rows = parallel_map(score, ids, args.threads)
    with _atomic(args.out) as (tmp,):
        write_csv(tmp, ["image_id", "residual"], ((i, f"{r:.6f}") for i, r in rows))
    return 0


def _cmd_inject_noise(args) -> int:
    check_salt_pepper_rates(args.density, args.salt_ratio)
    out_dir = Path(args.out)
    ids = list_image_ids(args.images)
    if out_dir.exists() and os.path.samefile(out_dir, args.images):
        raise ValidationError(
            f"--out {args.out} is the --images directory; the noisy copies would "
            "overwrite the originals"
        )
    created = [d for d in (out_dir, *out_dir.parents) if not d.exists()]  # deepest first
    out_dir.mkdir(parents=True, exist_ok=True)

    def corrupt(item):
        image_id, tmp = item
        pixels = read_image_rgb(find_image(args.images, image_id))
        noisy = inject_salt_pepper(
            pixels, args.density, args.salt_ratio, _derive_seed(args.seed, image_id)
        )
        write_pnm(tmp, noisy)

    try:
        with _atomic(*(out_dir / (i + ".ppm") for i in ids)) as tmps:
            # The pool has finished every image by the time an error surfaces
            # here, so `_atomic` unlinks every temporary copy.
            parallel_map(corrupt, list(zip(ids, tmps)), args.threads)
    except BaseException:
        with suppress(OSError):  # a directory someone else wrote to stays
            for directory in created:
                directory.rmdir()
        raise
    return 0


def _cmd_evaluate(args) -> int:
    _refuse_one_file(args, "out", "confusion")
    label_set = _load_labels(args)
    report, confusion = evaluate(args.pred, args.truth, label_set)
    text = format_report(report, label_set)
    with _atomic(args.out, args.confusion) as (out, matrix):
        out.write_text(text, encoding="utf-8")
        if matrix:
            write_confusion_csv(matrix, confusion, label_set)
    _info(args, f"macro_f1 {report.macro_f1:.6f} over {report.total} samples")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="wbcrescue", description=__doc__)
    parser.add_argument("--verbose", action="store_true", help="log progress to stderr")
    parser.add_argument(
        "--threads",
        type=_thread_count,
        default=1,
        help="worker threads for per-image stages (0 = all usable cores)",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add(name, func, help_text):
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(func=func)
        return cmd

    cmd = add("rescue", _cmd_rescue, "refine predictions with the full pipeline")
    cmd.add_argument("--swin", required=True, help="primary-branch probability CSV")
    cmd.add_argument("--med", required=True, help="verifier-branch probability CSV")
    cmd.add_argument("--counts", required=True, help="class,count training census CSV")
    cmd.add_argument("--images", help="directory of cell images (.ppm/.pgm)")
    cmd.add_argument("--masks", help="directory of cell masks (.pgm)")
    cmd.add_argument("--gate", help="fitted gate model file")
    cmd.add_argument("--config", help="key=value config file")
    cmd.add_argument("--labels", help="catalog file, one class name per line")
    cmd.add_argument("--out", required=True, help="output predictions CSV")
    cmd.add_argument("--trace", help="output decision-trace CSV")
    cmd.add_argument(
        "--skip-missing",
        action="store_true",
        help="deny rescue instead of aborting when a sample file is missing or unreadable",
    )

    cmd = add("ensemble", _cmd_ensemble, "average probability CSVs element-wise")
    cmd.add_argument("inputs", nargs="+", help="probability CSVs to fuse")
    cmd.add_argument("--labels", help="catalog file")
    cmd.add_argument("--out", required=True, help="output probability CSV")

    cmd = add("fit-pc-model", _cmd_fit_pc_model, "fit the gate from a features CSV")
    cmd.add_argument("--features", required=True, help="features CSV of calibration cells")
    cmd.add_argument("--ridge-scale", type=float, default=1e-6)
    cmd.add_argument("--out", required=True, help="output gate model file")

    cmd = add(
        "calibrate-spikiness",
        _cmd_calibrate_spikiness,
        "derive the spikiness threshold from reference scores",
    )
    cmd.add_argument("--features", required=True, help="features CSV of reference cells")
    cmd.add_argument("--k", type=float, default=2.0, help="standard deviations above the mean")
    cmd.add_argument("--out", help="also write the threshold to this file")

    cmd = add("features", _cmd_features, "dump shape features per image")
    cmd.add_argument("--images", required=True)
    cmd.add_argument("--masks", required=True)
    cmd.add_argument("--out", required=True, help="output features CSV")

    cmd = add("noise-score", _cmd_noise_score, "median-residual score per image")
    cmd.add_argument("--images", required=True)
    cmd.add_argument("--out", required=True, help="output image_id,residual CSV")

    cmd = add("inject-noise", _cmd_inject_noise, "write salt-and-pepper corrupted copies")
    cmd.add_argument("--images", required=True)
    cmd.add_argument("--out", required=True, help="output directory")
    cmd.add_argument("--density", type=float, required=True, help="corruption probability")
    cmd.add_argument("--salt-ratio", type=float, default=0.5)
    cmd.add_argument("--seed", type=int, default=0)

    cmd = add("evaluate", _cmd_evaluate, "score predictions against ground truth")
    cmd.add_argument("--pred", required=True, help="image_id,label predictions CSV")
    cmd.add_argument("--truth", required=True, help="image_id,label ground-truth CSV")
    cmd.add_argument("--labels", help="catalog file")
    cmd.add_argument("--out", required=True, help="output report text file")
    cmd.add_argument("--confusion", help="also write the confusion matrix CSV")

    return parser


def run(argv) -> int:
    _keep_freed_heap()
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
