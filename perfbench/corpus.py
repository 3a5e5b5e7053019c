"""Seeded input corpora for the benchmark workloads.

A corpus is a pure function of (workload, seed). The number of rows of each
kind is fixed per workload, so the labels the rescue must produce, and with
them macro F1, do not depend on the seed. The seed moves row order,
probability noise, shape jitter, pixel texture, debris and impulse noise.

The raster and table builders come from ``tests/synth.py``; this module adds
RGB-textured cells (thousands of distinct luminance values per cell),
detached debris blobs in some masks, and pre-corrupted images for the noise
split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from synth import disc_mask, perturbed_probs, star_mask, write_csv, write_label_file
from wbcrescue.core import default_label_set
from wbcrescue.ingest import CellSample
from wbcrescue.morphology import fit_gaussian_gate, mahalanobis, morph_vector, save_gate
from wbcrescue.netpbm import write_pnm

LABELS = default_label_set()
COUNTS = {name: 1000 for name in LABELS}
COUNTS.update({"SNE": 17354, "LY": 5000, "PLY": 14, "PC": 90})

# Stars score >= 0.43 and discs <= 0.06 at 32, 128 and 360 px, so this
# threshold splits true prolymphocytes from their round decoys at every size.
TAU_S = 0.25
TAU = 0.5
# Residual threshold of the noise split: textured clean cells score about 4,
# cells with NOISE_DENSITY impulse noise well above 12.
NOISE_THRESHOLD = 8.0
NOISE_DENSITY = 0.08
INJECT_ARGS = ("--density", "0.1", "--salt-ratio", "0.5", "--seed", "7")


@dataclass(frozen=True, eq=False)
class Kind:
    """One row recipe: what the classifiers say and what the engine must do."""

    truth: str
    final: str
    phase: str  # Phase value the decision trace must report
    swin: dict
    med: dict
    shape: str | None  # cell builder, for rows that reach the shape filters


def _common(label: str) -> Kind:
    return Kind(label, label, "NoCandidate", {label: 0.85}, {label: 0.8}, None)


def _confused(truth: str, predicted: str) -> Kind:
    return Kind(truth, predicted, "NoCandidate", {predicted: 0.8}, {predicted: 0.75}, None)


SEMANTIC_PLY = Kind("LY", "LY", "FailedSemantic", {"LY": 0.55, "PLY": 0.25}, {"LY": 0.8}, None)
SEMANTIC_PC = Kind("LY", "LY", "FailedSemantic", {"LY": 0.5, "PC": 0.3}, {"LY": 0.8}, None)
TRUE_PLY = Kind("PLY", "PLY", "Rescued", {"LY": 0.55, "PLY": 0.25}, {"PLY": 0.7}, "star")
DECOY_PLY = Kind("LY", "LY", "FailedMorphology", {"LY": 0.5, "PLY": 0.25}, {"PLY": 0.7}, "round")
TRUE_PC = Kind("PC", "PC", "Rescued", {"LY": 0.5, "PC": 0.3}, {"PC": 0.7}, "eccentric")
DECOY_PC = Kind("LY", "LY", "FailedMorphology", {"LY": 0.5, "PC": 0.3}, {"PC": 0.7}, "pale")

_OTHERS = [name for name in LABELS if name not in ("SNE", "LY", "VLY", "PLY", "PC")]

TABLE_MIX = {
    TRUE_PLY: 150, DECOY_PLY: 150, TRUE_PC: 100, DECOY_PC: 100,
    SEMANTIC_PLY: 250, SEMANTIC_PC: 250,
    _confused("VLY", "LY"): 400, _confused("WBC07", "WBC08"): 300, _confused("SNE", "WBC06"): 300,
    _common("SNE"): 16000, _common("LY"): 10000, _common("VLY"): 4000,
    **{_common(name): 2250 for name in _OTHERS},
}
CELL_MIX = {
    TRUE_PLY: 20, DECOY_PLY: 20, TRUE_PC: 20, DECOY_PC: 20,
    SEMANTIC_PLY: 5, SEMANTIC_PC: 5, _common("SNE"): 5, _common("LY"): 5,
}
SCAN_SHAPES = {"star": 75, "round": 75, "eccentric": 75, "pale": 75}

# (background, cytoplasm, nucleus) RGB per cell builder.
_PALETTES = {
    "star": ((250, 245, 248), (205, 170, 200), (80, 40, 110)),
    "round": ((250, 245, 248), (205, 170, 200), (80, 40, 110)),
    "eccentric": ((248, 244, 250), (150, 120, 180), (60, 30, 90)),
    "pale": ((250, 246, 244), (230, 215, 230), (150, 120, 170)),
}
_TEXTURE = 14  # per-channel uniform texture amplitude


def textured_cell(
    rng: np.random.Generator, shape: str, size: int, jitter: tuple[float, float],
    debris: bool, image_id: str,
) -> CellSample:
    """A cell drawn on the 32 px geometry of ``tests/synth.py``, scaled to
    `size`, with per-pixel RGB texture and an optional detached debris blob.

    `jitter` in [0, 1) x [0, 1) sets the shape parameters within their ranges.
    """
    s = size / 32.0
    c = (size - 1) / 2.0
    u, v = jitter
    if shape == "star":
        mask = star_mask(size, 8, 8.0 * s, (5.0 + 1.5 * u) * s)
        nucleus = disc_mask(size, 5.0 * s)
    elif shape == "round":
        mask = disc_mask(size, (9.0 + 2.0 * u) * s)
        nucleus = disc_mask(size, 6.0 * s)
    elif shape == "eccentric":
        mask = disc_mask(size, 11.0 * s)
        nucleus = disc_mask(size, (5.5 + u) * s, (c + (2.5 + v) * s, c))
    elif shape == "pale":
        mask = disc_mask(size, 11.0 * s)
        nucleus = disc_mask(size, 3.0 * s)
    else:
        raise ValueError(f"unknown cell shape {shape!r}")
    background, cytoplasm, nucleus_rgb = _PALETTES[shape]
    if debris:
        # A corner blob, more than one pixel away from any cell outline.
        corner = 2.0 * s if rng.random() < 0.5 else size - 1 - 2.0 * s
        mask = mask | disc_mask(size, 1.5 * s, (corner, 2.0 * s))
    base = np.empty((size, size, 3), dtype=np.int16)
    base[:] = background
    base[mask] = cytoplasm
    base[mask & nucleus] = nucleus_rgb
    texture = rng.integers(-_TEXTURE, _TEXTURE + 1, size=base.shape, dtype=np.int16)
    pixels = np.clip(base + texture, 0, 255).astype(np.uint8)
    return CellSample(image_id, pixels, mask)


def stratified_cells(rng: np.random.Generator, shapes: list[str]) -> list[tuple]:
    """(jitter, debris) per cell. Each shape's jitter values and debris count
    are the same for every seed; the seed only deals them out, so the work a
    corpus asks for does not drift with the seed."""
    dealt: list[tuple] = [None] * len(shapes)
    for shape in sorted(set(shapes)):
        slots = [i for i, name in enumerate(shapes) if name == shape]
        n = len(slots)
        u = (rng.permutation(n) + 0.5) / n
        v = (rng.permutation(n) + 0.5) / n
        debris = rng.permutation(n) < n // 4
        for k, slot in enumerate(slots):
            dealt[slot] = ((float(u[k]), float(v[k])), bool(debris[k]))
    return dealt


def salt_pepper(rng: np.random.Generator, pixels: np.ndarray, density: float) -> np.ndarray:
    """Impulse noise drawn independently of the engine's own injector."""
    hit = rng.random(pixels.shape[:2]) < density
    salt = rng.random(pixels.shape[:2]) < 0.5
    out = pixels.copy()
    out[hit & salt] = 255
    out[hit & ~salt] = 0
    return out


def _write_cell(root: Path, sample: CellSample, pixels: np.ndarray | None = None) -> None:
    write_pnm(root / "images" / f"{sample.image_id}.ppm", sample.pixels if pixels is None else pixels)
    write_pnm(root / "masks" / f"{sample.image_id}.pgm", np.where(sample.mask, 255, 0).astype(np.uint8))


@dataclass
class Corpus:
    """Paths of one generated corpus plus what its outputs must be."""

    root: Path
    rows: list  # (image_id, Kind) in table order; empty for the scan corpus
    image_ids: list
    noisy: dict  # image_id -> pre-corrupted, scan corpus only
    shapes: dict  # image_id -> cell builder, scan corpus only
    morphology_share: float  # rows reaching phase 3; every image for the scan corpus
    folds: list

    @property
    def images(self) -> Path:
        return self.root / "images"

    @property
    def masks(self) -> Path:
        return self.root / "masks"

    def path(self, name: str) -> Path:
        return self.root / name


def _prob_row(image_id: str, probs: np.ndarray) -> list:
    return [image_id, *(f"{value:.9f}" for value in probs)]


def _fit_gate(root: Path, rows, samples: dict) -> float:
    """Fit the gate on the corpus's own plasma cells; return a tau_m that
    splits them from the plasma-cell decoys (geometric midpoint)."""
    true_ids = [i for i, kind in rows if kind is TRUE_PC]
    decoy_ids = [i for i, kind in rows if kind is DECOY_PC]
    gate = fit_gaussian_gate([morph_vector(samples[i]) for i in true_ids])
    save_gate(root / "pc.gate", gate)
    inside = max(mahalanobis(gate, morph_vector(samples[i])) for i in true_ids)
    outside = min(mahalanobis(gate, morph_vector(samples[i])) for i in decoy_ids)
    if not outside > 2.0 * inside:
        raise RuntimeError(f"plasma-cell decoys not separable: {inside} vs {outside}")
    return math.sqrt(inside * outside)


def build_table_corpus(root, seed: int, mix: dict, size: int, folds: int, prefix: str) -> Corpus:
    """Probability tables, labels, counts, config and gate for `rescue`.

    Images and masks are written only for rows whose candidate reaches the
    shape filters; the engine loads samples lazily, so others are never read.
    """
    root = Path(root)
    rng = np.random.default_rng(seed)
    (root / "images").mkdir(parents=True)
    (root / "masks").mkdir()
    k = len(LABELS)
    kinds = [kind for kind, count in mix.items() for _ in range(count)]
    order = rng.permutation(len(kinds))
    rows = [(f"{prefix}{i:05d}", kinds[j]) for i, j in enumerate(order)]

    shaped = [(image_id, kind) for image_id, kind in rows if kind.shape]
    dealt = stratified_cells(rng, [kind.shape for _, kind in shaped])
    samples = {}
    for (image_id, kind), (jitter, debris) in zip(shaped, dealt):
        samples[image_id] = textured_cell(rng, kind.shape, size, jitter, debris, image_id)
        _write_cell(root, samples[image_id])

    header = ["image_id", *LABELS.names]
    index = {name: LABELS.index_of(name) for name in LABELS}
    fold_paths = []
    for fold in range(folds):
        path = root / f"swin_fold{fold}.csv"
        write_csv(path, header, [
            _prob_row(i, perturbed_probs(rng, {index[c]: m for c, m in kind.swin.items()}, k))
            for i, kind in rows
        ])
        fold_paths.append(path)
    write_csv(root / "med.csv", header, [
        _prob_row(i, perturbed_probs(rng, {index[c]: m for c, m in kind.med.items()}, k))
        for i, kind in rows
    ])
    write_csv(root / "truth.csv", ["image_id", "label"], [[i, kind.truth] for i, kind in rows])
    write_label_file(root / "labels.txt", LABELS)
    write_csv(root / "counts.csv", ["class", "count"], [[name, COUNTS[name]] for name in LABELS])
    tau_m = _fit_gate(root, rows, samples)
    (root / "rescue.conf").write_text(
        f"rare_classes = PLY,PC\ntau = {TAU}\ntau_s = {TAU_S}\ntau_m = {tau_m:.9g}\n",
        encoding="utf-8",
    )
    return Corpus(root, rows, [i for i, _ in rows], {}, {}, len(shaped) / len(rows), fold_paths)


def build_scan_corpus(root, seed: int, shapes: dict, size: int) -> Corpus:
    """A directory of textured cells for `features`, `noise-score` and
    `inject-noise`; a quarter of the cells, from every shape, carry impulse noise."""
    root = Path(root)
    rng = np.random.default_rng(seed)
    (root / "images").mkdir(parents=True)
    (root / "masks").mkdir()
    kinds = [shape for shape, count in shapes.items() for _ in range(count)]
    order = rng.permutation(len(kinds))
    dealt = stratified_cells(rng, kinds)
    noisy, cell_shapes = {}, {}
    for i, j in enumerate(order):
        image_id = f"s{i:04d}"
        cell_shapes[image_id] = kinds[j]
        jitter, debris = dealt[j]
        sample = textured_cell(rng, kinds[j], size, jitter, debris, image_id)
        noisy[image_id] = j % 4 == 0
        pixels = salt_pepper(rng, sample.pixels, NOISE_DENSITY) if noisy[image_id] else None
        _write_cell(root, sample, pixels)
    return Corpus(root, [], sorted(noisy), noisy, cell_shapes, 1.0, [])
