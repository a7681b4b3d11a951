"""Coordinate embeddings into max-norm spaces.

Evaluating an ordered subset A of representative functionals sends x to
(f_1(x), ..., f_k(x)). The map never expands distances, and with the full
family the max coordinate recovers the norm exactly, so the embedding is
then an isometry onto its image.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud
from .errors import DimensionMismatch
from .space import Space, _check_vector, _first_rows, builtin, space_to_json


@dataclass(frozen=True, eq=False)
class Embedding:
    source: Space
    indices: np.ndarray
    target: Space

    def __post_init__(self) -> None:
        idx = np.asarray(self.indices, dtype=int)
        if idx.ndim != 1 or idx.size == 0:
            raise DimensionMismatch("an embedding needs at least one functional index")
        if idx.min() < 0 or idx.max() >= self.source.n_pairs:
            raise DimensionMismatch(
                f"functional indices out of range 0..{self.source.n_pairs - 1}"
            )
        if np.unique(idx).size != idx.size:
            raise DimensionMismatch("functional indices must be distinct")
        object.__setattr__(self, "indices", idx)
        idx.setflags(write=False)

    @property
    def selected(self) -> np.ndarray:
        return self.source.representatives[self.indices]

    def to_json(self) -> dict:
        return {"source": space_to_json(self.source), "indices": [int(i) for i in self.indices]}


def make_embedding(source: Space, indices=None) -> Embedding:
    """Embedding for an ordered subset of representatives (default: all, in
    canonical order)."""
    idx = np.arange(source.n_pairs) if indices is None else np.asarray(indices, dtype=int)
    return Embedding(source=source, indices=idx, target=builtin("linf", int(idx.size)))


def embed_point(e: Embedding, x) -> np.ndarray:
    return e.selected @ _check_vector(e.source, x)


@dataclass(frozen=True, eq=False)
class EmbedResult:
    """Embedded cloud with exact duplicates collapsed.

    preimages[i] is the index in the source cloud of the first point that
    mapped to row i; multiplicities[i] counts how many source points did.
    """

    cloud: PointCloud
    preimages: list[int]
    multiplicities: list[int]

    def to_json(self) -> dict:
        return {
            "points": [list(p) for p in self.cloud.points],
            "preimages": self.preimages,
            "multiplicities": self.multiplicities,
        }


def embed_cloud(e: Embedding, cloud: PointCloud) -> EmbedResult:
    if cloud.dim != e.source.dim:
        raise DimensionMismatch(
            f"cloud dimension {cloud.dim} does not match source dimension {e.source.dim}"
        )
    imgs = cloud.points @ e.selected.T
    first = _first_rows(imgs)
    kept = np.flatnonzero(first == np.arange(len(first)))
    pts = imgs[kept]
    return EmbedResult(
        cloud=PointCloud(np.where(pts == 0.0, 0.0, pts)),
        preimages=kept.tolist(),
        multiplicities=np.bincount(first, minlength=len(first))[kept].tolist(),
    )
