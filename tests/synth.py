"""Synthetic raster and corpus builders shared by the test modules."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from wbcrescue import core
from wbcrescue.core import LabelSet, default_label_set
from wbcrescue.ingest import CellSample
from wbcrescue.netpbm import write_pnm


def disc_mask(size: int, radius: float, center: tuple[float, float] | None = None) -> np.ndarray:
    if center is None:
        center = ((size - 1) / 2.0, (size - 1) / 2.0)
    cx, cy = center
    yy, xx = np.mgrid[0:size, 0:size]
    return (xx - cx) ** 2 + (yy - cy) ** 2 <= radius**2


def star_mask(
    size: int,
    spikes: int,
    base_radius: float,
    amplitude: float,
    center: tuple[float, float] | None = None,
) -> np.ndarray:
    """Rasterized star: radius oscillates with angle, sharper with amplitude."""
    if center is None:
        center = ((size - 1) / 2.0, (size - 1) / 2.0)
    cx, cy = center
    yy, xx = np.mgrid[0:size, 0:size]
    dx = xx - cx
    dy = yy - cy
    angle = np.arctan2(dy, dx)
    boundary = base_radius + amplitude * (0.5 + 0.5 * np.cos(spikes * angle))
    return dx**2 + dy**2 <= boundary**2


def gray_sample(gray: np.ndarray, mask: np.ndarray, image_id: str = "cell") -> CellSample:
    """CellSample whose three channels all equal the given gray raster."""
    gray = np.asarray(gray, dtype=np.uint8)
    pixels = np.repeat(gray[:, :, None], 3, axis=2)
    return CellSample(image_id, pixels, np.asarray(mask, dtype=bool))


def cell_sample(
    mask: np.ndarray,
    nucleus: np.ndarray,
    nucleus_gray: int = 60,
    cytoplasm_gray: int = 200,
    background_gray: int = 255,
    image_id: str = "cell",
) -> CellSample:
    """Two-tone cell: dark nucleus region inside a brighter cytoplasm."""
    gray = np.full(mask.shape, background_gray, dtype=np.uint8)
    gray[mask] = cytoplasm_gray
    gray[nucleus & mask] = nucleus_gray
    return gray_sample(gray, mask, image_id)


def eccentric_cell(
    size: int = 32,
    cell_radius: float = 11.0,
    nucleus_radius: float = 6.0,
    nucleus_shift: float = 3.0,
    nucleus_gray: int = 50,
    cytoplasm_gray: int = 150,
    image_id: str = "cell",
) -> CellSample:
    """Round cell with the nucleus displaced along +x."""
    center = ((size - 1) / 2.0, (size - 1) / 2.0)
    mask = disc_mask(size, cell_radius, center)
    nucleus = disc_mask(size, nucleus_radius, (center[0] + nucleus_shift, center[1]))
    return cell_sample(mask, nucleus, nucleus_gray, cytoplasm_gray, image_id=image_id)


def write_label_file(path, label_set: LabelSet) -> Path:
    path = Path(path)
    path.write_text("".join(name + "\n" for name in label_set), encoding="utf-8")
    return path


def write_csv(path, header: list[str], rows: list[list]) -> Path:
    path = Path(path)
    core.write_csv(path, header, rows)
    return path


def perturbed_probs(rng: np.random.Generator, pattern: dict[int, float], k: int) -> np.ndarray:
    """Probability row close to `pattern`, with leftover mass spread thinly."""
    probs = np.full(k, 0.0)
    for index, mass in pattern.items():
        probs[index] = mass
    leftover = 1.0 - probs.sum()
    assert leftover >= 0
    noise = rng.random(k) * (probs == 0)
    if noise.sum() > 0:
        probs += noise / noise.sum() * leftover
    return probs / probs.sum()


class CorpusPaths:
    def __init__(self, root: Path):
        self.root = root
        self.images = root / "images"
        self.masks = root / "masks"
        self.labels = root / "labels.txt"
        self.swin = root / "swin.csv"
        self.med = root / "med.csv"
        self.counts = root / "counts.csv"
        self.truth = root / "truth.csv"
        self.features = root / "pc_features.csv"


def build_corpus(
    root,
    *,
    n_common: int = 100,
    n_rare_each: int = 20,
    n_decoys_each: int = 10,
    seed: int = 7,
) -> CorpusPaths:
    """Write a full synthetic corpus for the end-to-end pipeline.

    Common cells are round with concentric nuclei and are predicted
    confidently. True rare cells carry distinctive shapes (spiky boundary
    for PLY, eccentric dark nucleus for PC) but their primary-branch
    probabilities are suppressed below a common class. Decoys look rare to
    both classifier branches but have common morphology, so only the shape
    filters can reject them.
    """
    rng = np.random.default_rng(seed)
    paths = CorpusPaths(Path(root))
    paths.images.mkdir(parents=True, exist_ok=True)
    paths.masks.mkdir(parents=True, exist_ok=True)
    label_set = default_label_set()
    k = len(label_set)
    sne, ly, ply, pc = (label_set.index_of(name) for name in ("SNE", "LY", "PLY", "PC"))

    write_label_file(paths.labels, label_set)
    counts = {name: 1000 for name in label_set}
    counts.update({"SNE": 17354, "LY": 5000, "PLY": 14, "PC": 90})
    write_csv(paths.counts, ["class", "count"], [[name, counts[name]] for name in label_set])

    truth_rows: list[list] = []
    swin_rows: list[list] = []
    med_rows: list[list] = []

    def emit(image_id: str, sample: CellSample, truth_label: int,
             swin_pattern: dict[int, float], med_pattern: dict[int, float]) -> None:
        write_pnm(paths.images / f"{image_id}.ppm", np.asarray(sample.pixels))
        write_pnm(paths.masks / f"{image_id}.pgm",
                  np.where(sample.mask, 255, 0).astype(np.uint8))
        truth_rows.append([image_id, label_set.name_at(truth_label)])
        swin = perturbed_probs(rng, swin_pattern, k)
        med = perturbed_probs(rng, med_pattern, k)
        swin_rows.append([image_id, *(f"{v:.9f}" for v in swin)])
        med_rows.append([image_id, *(f"{v:.9f}" for v in med)])

    index = 0
    for _ in range(n_common):
        image_id = f"img{index:04d}"
        index += 1
        if index % 2:
            sample = eccentric_cell(nucleus_shift=0.0, image_id=image_id,
                                    cell_radius=float(rng.uniform(9, 11)))
            emit(image_id, sample, ly, {ly: 0.85}, {ly: 0.8})
        else:
            sample = eccentric_cell(nucleus_shift=0.0, image_id=image_id,
                                    nucleus_gray=80, cytoplasm_gray=220)
            emit(image_id, sample, sne, {sne: 0.9}, {sne: 0.85})

    pc_feature_sample_ids = []
    for i in range(n_rare_each):
        image_id = f"img{index:04d}"
        index += 1
        mask = star_mask(32, 8, 8.0, 5.0 + float(rng.uniform(0, 1.5)))
        nucleus = disc_mask(32, 5.0)
        sample = cell_sample(mask, nucleus, image_id=image_id)
        emit(image_id, sample, ply, {ly: 0.55, ply: 0.25}, {ply: 0.7})

        image_id = f"img{index:04d}"
        index += 1
        sample = eccentric_cell(
            nucleus_shift=3.0 + float(rng.uniform(-0.5, 0.5)),
            nucleus_radius=6.0 + float(rng.uniform(-0.5, 0.5)),
            image_id=image_id,
        )
        pc_feature_sample_ids.append(image_id)
        emit(image_id, sample, pc, {ly: 0.5, pc: 0.3}, {pc: 0.7})

    for _ in range(n_decoys_each):
        image_id = f"img{index:04d}"
        index += 1
        sample = eccentric_cell(nucleus_shift=0.0, image_id=image_id)
        emit(image_id, sample, ly, {ly: 0.5, ply: 0.25}, {ply: 0.7})

        image_id = f"img{index:04d}"
        index += 1
        # Concentric, small bright nucleus: far from the plasma-cell cloud.
        sample = eccentric_cell(nucleus_shift=0.0, nucleus_radius=3.0,
                                nucleus_gray=120, cytoplasm_gray=230,
                                image_id=image_id)
        emit(image_id, sample, ly, {ly: 0.5, pc: 0.3}, {pc: 0.7})

    write_csv(paths.truth, ["image_id", "label"], truth_rows)
    write_csv(paths.swin, ["image_id", *label_set.names], swin_rows)
    write_csv(paths.med, ["image_id", *label_set.names], med_rows)
    return paths
