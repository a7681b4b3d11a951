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
from .space import Space, _check_vector, _first_rows, builtin, norm, space_from_json, space_to_json


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


def embedding_from_json(data: dict) -> Embedding:
    return make_embedding(space_from_json(data["source"]), data.get("indices"))


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


@dataclass(frozen=True)
class OrderingReport:
    order: list[int]
    prefix_norms: list[float]
    nondecreasing: bool
    exact_at_full: bool


@dataclass(frozen=True)
class NormConvReport:
    norm: float
    orderings: list[OrderingReport]
    passed: bool


def norm_convergence_check(s: Space, orderings: int, x, seed: int = 0) -> NormConvReport:
    """Prefix norms under several orderings of the representative family.

    Ordering 0 is the canonical order; the rest are seeded shuffles. Each
    prefix norm is the running max of |f(x)|, so the sequence must be
    nondecreasing and hit the true norm exactly at the full family.
    """
    vx = _check_vector(s, x)
    if not vx.any():
        raise ValueError("norm convergence is only meaningful for nonzero x")
    if orderings < 1:
        raise ValueError("need at least one ordering")
    vals = np.abs(s.representatives @ vx)
    full = norm(s, vx)
    rng = np.random.default_rng(seed)
    reports = []
    for k in range(orderings):
        order = np.arange(s.n_pairs) if k == 0 else rng.permutation(s.n_pairs)
        prefix = np.maximum.accumulate(vals[order])
        nd = bool(np.all(np.diff(prefix) >= 0.0))
        exact = bool(prefix[-1] == full)
        reports.append(
            OrderingReport(
                order=[int(i) for i in order],
                prefix_norms=[float(v) for v in prefix],
                nondecreasing=nd,
                exact_at_full=exact,
            )
        )
    return NormConvReport(
        norm=full,
        orderings=reports,
        passed=all(r.nondecreasing and r.exact_at_full for r in reports),
    )
