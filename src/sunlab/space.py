"""Polyhedral normed spaces.

A space is described by a finite symmetric family F of linear functionals
(rows of a matrix). The norm of x is max_{f in F} f(x); symmetry makes this
the maximum of |f(x)| over one representative per antipodal pair. The family
plays the role of the extreme points of the dual unit sphere, so every other
object in the package (intervals, hulls, the associated norm, embeddings) is
phrased in terms of it.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import Degenerate, DimensionMismatch, NotSymmetric, TooLarge

DEFAULT_BUDGET = 2**20


def _canonical(rows: np.ndarray) -> np.ndarray:
    """Normalize -0.0 to +0.0 and sort rows lexicographically."""
    rows = np.where(rows == 0.0, 0.0, rows)
    order = np.lexsort(rows.T[::-1])
    return rows[order]


def _first_rows(rows: np.ndarray) -> np.ndarray:
    """For each row, the index of the first row with the same bytes, with
    -0.0 read as 0.0.

    Rows are compared by their bytes, not by float ==, so NaN rows with one
    bit pattern match each other. Each folded row is viewed as one void
    scalar; np.unique sorts stably when asked for indices, so it returns
    first occurrences.
    """
    m, width = rows.shape
    if width == 0:  # no void view of zero bytes; every empty row matches row 0
        return np.zeros(m, dtype=np.intp)
    folded = np.where(rows == 0.0, 0.0, rows)
    keys = folded.view(np.dtype((np.void, folded.itemsize * width))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first[inverse]


@dataclass(frozen=True, eq=False)
class Space:
    """A finite-dimensional space with a polyhedral norm.

    Attributes:
        dim: ambient dimension n.
        functionals: (k, n) array, canonically ordered, closed under negation.
        name: optional label used in reports.
        representatives: (k/2, n) array with one functional per antipodal
            pair (the member whose first nonzero entry is positive), in
            canonical order. Weight vectors and slab polytopes index these.
    """

    dim: int
    functionals: np.ndarray
    name: str = ""
    representatives: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        reps = self.functionals[_rep_mask(self.functionals)]
        object.__setattr__(self, "representatives", reps)
        self.functionals.setflags(write=False)
        reps.setflags(write=False)

    @property
    def n_pairs(self) -> int:
        return self.representatives.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or f"{self.functionals.shape[0]} functionals"
        return f"Space(dim={self.dim}, {label})"


def _rep_mask(rows: np.ndarray) -> np.ndarray:
    """Rows whose first nonzero entry is positive (pair representatives)."""
    first_nz = (rows != 0.0).argmax(axis=1)
    lead = rows[np.arange(rows.shape[0]), first_nz]
    return lead > 0


def _float_rows(rows, error: type[Exception], what: str) -> np.ndarray:
    """`rows` as a float array. Rows of unequal length raise `error`, naming
    the first row whose length differs from row 0's; numpy's own message
    names neither."""
    try:
        return np.asarray(rows, dtype=float)
    except ValueError:
        lengths = [np.size(row) for row in rows]
        for i, length in enumerate(lengths):
            if length != lengths[0]:
                raise error(
                    f"{what} rows have inconsistent lengths: row 0 has {lengths[0]} entries, "
                    f"row {i} has {length}"
                ) from None
        raise


def make_space(functionals, name: str = "") -> Space:
    """Validate a functional family and build a Space.

    Raises NotSymmetric if the family is not closed under negation (or
    contains duplicates after canonical normalization), Degenerate if it does
    not span (equivalently, if the induced expression is not a norm),
    DimensionMismatch for ragged rows and for an array that is not 2d or has
    no rows or no columns, and ValueError for NaN or infinite entries.
    """
    arr = _float_rows(functionals, DimensionMismatch, "functional")
    if arr.ndim != 2 or 0 in arr.shape:
        raise DimensionMismatch("functionals must form a nonempty 2d array")
    if not np.isfinite(arr).all():
        raise ValueError("functional entries must be finite")
    arr = _canonical(arr)
    k, n = arr.shape

    # Row k + i of the stack is the negation of row i; it is in the family
    # exactly when its first match lies among the first k rows.
    first = _first_rows(np.vstack([arr, -arr]))
    dup = np.flatnonzero(first[:k] != np.arange(k))
    if dup.size:
        i = dup[0]
        raise NotSymmetric(f"duplicate functional at rows {first[i]} and {i}")
    zero = ~arr.any(axis=1)
    bad = np.flatnonzero(zero | (first[k:] >= k))
    if bad.size:
        i = bad[0]
        if zero[i]:
            raise Degenerate("zero functional in family")
        raise NotSymmetric(f"family lacks the negation of {arr[i].tolist()}")

    if np.linalg.matrix_rank(arr) < n:
        raise Degenerate("family does not positively span the dual space")
    return Space(dim=n, functionals=arr, name=name)


def builtin(name: str, n: int) -> Space:
    """Construct a standard space: 'linf' (coordinate functionals) or 'l1'
    (all sign vectors, 2**n functionals, at most DEFAULT_BUDGET of them)."""
    if n < 1:
        raise DimensionMismatch("dimension must be positive")
    if name == "linf":
        if 2 * n > DEFAULT_BUDGET:
            raise TooLarge(f"linf({n}) needs {2 * n} functionals, budget {DEFAULT_BUDGET}")
        eye = np.eye(n)
        fam = np.vstack([eye, -eye])
        return make_space(fam, name=f"linf({n})")
    if name == "l1":
        count = 2**n
        if count > DEFAULT_BUDGET:
            raise TooLarge(f"l1({n}) needs 2**{n} functionals, budget {DEFAULT_BUDGET}")
        fam = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
        return make_space(fam, name=f"l1({n})")
    raise ValueError(f"unknown builtin space {name!r}")


def random_space(dim: int, pairs: int, seed: int) -> Space:
    """A validated random polyhedral space.

    Directions are unit Euclidean vectors, so every functional is an extreme
    point of the dual ball (finite subsets of a sphere are in convex
    position) and the family is the genuine extreme set of its norm.
    """
    if pairs < dim:
        raise Degenerate(f"{pairs} pairs cannot span dimension {dim}")
    rng = np.random.default_rng(seed)
    while True:
        dirs = rng.normal(size=(pairs, dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        fam = np.vstack([dirs, -dirs])
        if np.linalg.matrix_rank(fam) == dim:
            return make_space(fam, name=f"random(dim={dim},pairs={pairs},seed={seed})")


def _check_slack(name: str, value: float) -> None:
    """A tolerance or slack must be a finite number >= 0."""
    if not 0.0 <= value < np.inf:
        raise ValueError(f"{name} must be finite and nonnegative, got {value}")


def _check_vector(s: Space, x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.shape != (s.dim,):
        raise DimensionMismatch(f"expected vector of length {s.dim}, got shape {arr.shape}")
    return arr


def norm(s: Space, x) -> float:
    """The polyhedral norm max_f f(x)."""
    return float(np.max(s.functionals @ _check_vector(s, x)))


def norms(s: Space, points: np.ndarray) -> np.ndarray:
    """Vectorized norm over the rows of `points`."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != s.dim:
        raise DimensionMismatch(f"expected (m, {s.dim}) array, got shape {pts.shape}")
    return np.max(np.abs(pts @ s.representatives.T), axis=1)


def space_to_json(s: Space) -> dict:
    return {
        "dim": s.dim,
        "functionals": [list(row) for row in s.functionals],
        "name": s.name,
    }


def space_from_json(data: dict) -> Space:
    try:
        fam = data["functionals"]
    except (KeyError, TypeError) as exc:
        raise DimensionMismatch("space JSON needs a 'functionals' array") from exc
    s = make_space(fam, name=str(data.get("name", "")))
    if "dim" in data and int(data["dim"]) != s.dim:
        raise DimensionMismatch(
            f"declared dim {data['dim']} does not match functionals of length {s.dim}"
        )
    return s


_BUILTIN_RE = re.compile(r"^(linf|l1)\(?(\d+)\)?$")


def space_from_name(text: str) -> Space:
    """Parse shorthand like 'linf2', 'l1(3)' into a builtin space."""
    m = _BUILTIN_RE.match(text.strip())
    if not m:
        raise ValueError(f"not a builtin space name: {text!r}")
    return builtin(m.group(1), int(m.group(2)))


def unit_ball_extents(s: Space) -> np.ndarray:
    """Per-axis extent of the unit ball: R_i = max { |v_i| : ||v|| <= 1 }.

    Exact, with no solver. By LP duality R_i is the least l1 norm of a y
    with A^T y = e_i, A the (p, n) representatives, and some optimum is a
    basic solution (Dantzig 1963): for a basis B of n linearly independent
    representatives, y is zero off B and row i of B^-1 on it. So R_i is the
    minimum of that row's l1 norm over all C(p, n) bases, inverted in stacks
    of at most 2**18 matrix entries. A basis counts as singular when |det B|
    is at most n * eps times the Hadamard bound prod ||row||, a test that
    scaling the family leaves alone. The cost is C(p, n) small inverses;
    above DEFAULT_BUDGET of them it raises TooLarge (a 3-d family with 185
    pairs is the largest that fits).
    Used to size report grids and rejection boxes, cached per space.
    """
    cached = getattr(s, "_extents", None)
    if cached is not None:
        return cached
    reps = s.representatives
    p, n = reps.shape
    count = math.comb(p, n)
    if count > DEFAULT_BUDGET:
        raise TooLarge(
            f"unit ball extents need {count} bases of {n} among {p} functional pairs, "
            f"budget {DEFAULT_BUDGET}"
        )
    bases = itertools.combinations(range(p), n)
    per_block = max(1, 2**18 // (n * n))
    tol = n * np.finfo(float).eps
    ext = np.full(n, np.inf)
    for _ in range(0, count, per_block):
        flat = itertools.chain.from_iterable(itertools.islice(bases, per_block))
        block = reps[np.fromiter(flat, dtype=np.intp).reshape(-1, n)]
        hadamard = np.prod(np.linalg.norm(block, axis=2), axis=1)
        regular = np.abs(np.linalg.det(block)) > tol * hadamard
        rows = np.abs(np.linalg.inv(block[regular])).sum(axis=2)
        ext = np.minimum(ext, rows.min(axis=0, initial=np.inf))
    if not np.isfinite(ext).all():
        raise Degenerate("every basis of representatives is numerically singular")
    ext.setflags(write=False)
    object.__setattr__(s, "_extents", ext)
    return ext
