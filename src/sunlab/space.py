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

from .errors import Degenerate, DimensionMismatch, NotSymmetric, ParseError, TooLarge

DEFAULT_BUDGET = 2**20


def _canonical(rows: np.ndarray) -> np.ndarray:
    """Normalize -0.0 to +0.0 and sort rows lexicographically."""
    rows = np.where(rows == 0.0, 0.0, rows)
    order = np.lexsort(rows.T[::-1])
    return rows[order]


# The finaliser of splitmix64 (Steele, Lea and Flood 2014), a bijection of
# uint64 in which every output bit depends on every input bit, and a salt
# per column, _SALT * (k + 1) for column k. Every constant is a np.uint64,
# so no step of the mix is promoted to float64.
_SALT = np.uint64(0x9E3779B97F4A7C15)
_MIX_SHIFTS = (np.uint64(30), np.uint64(27), np.uint64(31))
_MIX_MULTS = (np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB))


def _row_hashes(words: np.ndarray) -> np.ndarray:
    """One uint64 per row of the (m, w) uint64 array words: the sum, mod
    2**64, over the columns k of the finaliser of words[:, k] ^ salt_k.
    The finaliser is a bijection, so width-1 rows never collide."""
    m, w = words.shape
    h = np.empty((w, m), dtype=np.uint64)
    np.bitwise_xor(words.T, _SALT * np.arange(1, w + 1, dtype=np.uint64)[:, None], out=h)
    t = np.empty_like(h)
    for shift, mult in zip(_MIX_SHIFTS, _MIX_MULTS):
        np.right_shift(h, shift, out=t)
        h ^= t
        h *= mult
    np.right_shift(h, _MIX_SHIFTS[2], out=t)
    h ^= t
    return np.add.reduce(h, axis=0)


def _first_by_bytes(words: np.ndarray, idx: np.ndarray) -> list[int]:
    """For each row i of words, i in the increasing indices idx, the first
    of idx whose row has the same bytes. _first_rows runs it on a run of
    equal hashes that holds two different rows, a true collision."""
    seen: dict[bytes, int] = {}
    return [seen.setdefault(words[i].tobytes(), i) for i in idx.tolist()]


def _first_rows(rows: np.ndarray) -> np.ndarray:
    """For each row of the float64 (m, w) array rows, the index of the
    first row with the same bytes, with -0.0 read as 0.0.

    Rows are compared by their bits, not by float ==, so NaN rows with one
    bit pattern match each other, and other NaN payloads do not. Each
    folded row's words, viewed as uint64, get one hash (_row_hashes), and
    one unstable integer sort groups equal hashes into runs. The result is
    exact whatever the hashes: equal rows have equal words, so equal
    hashes, so they lie in one run. A run whose neighbouring rows are bit
    for bit equal holds one row, and the least original index in it
    (np.minimum.reduceat over the sorted order) is each member's first
    occurrence, however the sort ordered the run. A run with two different
    rows is a collision of the hash, and _first_by_bytes settles that run
    alone by the rows' bytes. A hash only groups rows; the bits decide,
    and the order of the sort within a run never shows. Width-0 rows all
    hash to 0, so each matches row 0.
    """
    m = rows.shape[0]
    words = np.where(rows == 0.0, 0.0, rows).view(np.uint64)
    hashes = _row_hashes(words)
    order = np.argsort(hashes)
    ranked = hashes[order]
    tied = ranked[1:] == ranked[:-1]
    if not tied.any():
        return np.arange(m)
    starts = np.concatenate(([True], ~tied))
    bounds = np.append(np.flatnonzero(starts), m)
    run = np.cumsum(starts) - 1
    first = np.empty(m, dtype=np.intp)
    first[order] = np.minimum.reduceat(order, bounds[:-1])[run]
    k = np.flatnonzero(tied)
    split = (words[order[k]] != words[order[k + 1]]).any(axis=1)
    for r in np.unique(run[k[split]]).tolist():
        idx = np.sort(order[bounds[r] : bounds[r + 1]])
        first[idx] = _first_by_bytes(words, idx)
    return first


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


# The types of JSON strings, booleans and null, which np.asarray reads as
# numbers (null as NaN).
_NOT_NUMBERS = frozenset({str, bool, type(None)})


def _holds_non_numbers(values) -> bool:
    """Whether a list or tuple holds a string, boolean or null entry. Types
    are matched exactly, so numpy scalars and arrays pass unchecked."""
    return isinstance(values, (list, tuple)) and not _NOT_NUMBERS.isdisjoint(map(type, values))


def _float_rows(rows, error: type[Exception], what: str) -> np.ndarray:
    """`rows` as a float array. Rows of unequal length raise `error`, naming
    the first row whose length differs from row 0's; failing that, an entry
    that is not a number, a string, a boolean or null included, raises
    `error` naming the first row holding one. numpy's own messages name
    neither, and it reads "1" and true as 1.0 and null as NaN. An ndarray is
    taken as it is."""
    try:
        arr = np.asarray(rows, dtype=float)
    except (TypeError, ValueError):
        lengths = []
        for row in rows:
            try:
                lengths.append(np.size(row))
            except ValueError:  # a row holding a ragged list, named below
                break
        for i, length in enumerate(lengths):
            if length != lengths[0]:
                raise error(
                    f"{what} rows have inconsistent lengths: row 0 has {lengths[0]} entries, "
                    f"row {i} has {length}"
                ) from None
        _name_non_number_row(rows, error, what)
        raise
    if arr.ndim == 2 and not isinstance(rows, np.ndarray):
        if not _NOT_NUMBERS.isdisjoint(map(type, itertools.chain.from_iterable(rows))):
            _name_non_number_row(rows, error, what)
    return arr


def _name_non_number_row(rows, error: type[Exception], what: str) -> None:
    """Raise `error` naming the first row that does not read as floats or
    holds a string, boolean or null."""
    for i, row in enumerate(rows):
        try:
            np.asarray(row, dtype=float)
        except (TypeError, ValueError):
            pass
        else:
            if not _holds_non_numbers(row):
                continue
        raise error(f"{what} row {i} holds an entry that is not a number: {row!r}") from None


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
    # math.isfinite per entry: five times faster than np.isfinite on the
    # short vectors that per-pair loops pass here.
    if not all(map(math.isfinite, arr.tolist())):
        raise ValueError("vector coordinates must be finite")
    return arr


def _check_points(s: Space, rows, what: str) -> np.ndarray:
    """`rows` as a nonempty (m, dim) float array of finite values; `what`
    names the input in the dimension errors."""
    arr = np.asarray(rows, dtype=float)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise DimensionMismatch(f"{what} points must form a nonempty (m, {s.dim}) array")
    if arr.shape[1] != s.dim:
        raise DimensionMismatch(
            f"{what} dimension {arr.shape[1]} does not match space dimension {s.dim}"
        )
    if not np.isfinite(arr).all():
        raise ValueError("vector coordinates must be finite")
    return arr


def _values(s: Space, points: np.ndarray) -> np.ndarray:
    """The functional values of the rows of an (m, n) array: the C-order
    (p, m) product reps @ points.T, row i holding f_i at every point. Each
    driver forms the values of a cloud, a grid, a ray, a path or a set of
    ball centres here, once per call, and every kernel reads this layout, so
    that a pass over one functional runs along a contiguous row; only
    embed_cloud keeps the row form, as _first_rows and its report read rows.
    BLAS sums each entry over the n coordinates in the same order, with the
    same fused multiply-adds, as the row form points times reps.T, so the
    block is its transpose bit for bit (tests/test_properties.py checks this
    in dimensions 1 to 5, up to 13824 points).

    A caller that builds its points may pass points as the transpose of a
    C-order (n, m) block, as the gap grid does (hull._grid_block): the
    product then reads a contiguous operand, where rows give it a
    transposed one, and it gives the same bits in less time (21 against 35
    us for the 24**3 linf3 grid, best of 7, one BLAS thread)."""
    return s.representatives @ points.T


def _max_abs(columns) -> np.ndarray:
    """max_j |c_j| over an iterable of equal-shape arrays, accumulated in
    place one array at a time. Reducing a short innermost or middle axis
    (2 to 4 functional values) is the slowest way to reduce in numpy; an
    elementwise maximum over long arrays is not. Max and abs are exact, so
    the result equals np.max(np.abs(...)) along that axis bit for bit."""
    it = iter(columns)
    d = np.abs(next(it))
    for c in it:
        np.maximum(d, np.abs(c), out=d)
    return d


def _differences(q_cols: np.ndarray, cols: np.ndarray):
    """The query x point block of each functional, q_i[:, None] - c_i, one
    functional at a time, for k queries and m points given by their (p, k)
    and (p, m) values; _max_abs of them is the (k, m) block of max-norm
    distances."""
    return (q[:, None] - c for q, c in zip(q_cols, cols))


# Point pairs per block of _window_blocks, and the pairs a block may add
# outside its rows' own windows: about what one more block costs in numpy
# calls.
_WINDOW_BUDGET = 2**17
_WINDOW_WASTE = 2**12
_ULP = np.finfo(float).eps
_TINY = np.finfo(float).smallest_subnormal


def _window_blocks(start, stop):
    """Split rows 0..n-1, row r holding the window [start[r], stop[r]) of
    offsets, into blocks (r0, r1, lo, hi) of consecutive rows, in order:
    [lo, hi) is the union of the block's windows, and the rectangle of its
    rows by [lo, hi) holds at most _WINDOW_BUDGET pairs, at most
    _WINDOW_WASTE of them outside the rows' own windows, or is one row. Both
    counts grow with each row added, so a block is the longest prefix of
    the rows left that keeps within them, and rows that all fit are one
    block, found without the prefix counts."""
    widths = stop - start
    lo, hi = start.min(), stop.max()
    cost = (hi - lo) * widths.size
    if cost <= _WINDOW_BUDGET and cost - widths.sum() <= _WINDOW_WASTE:
        yield 0, widths.size, lo, hi
        return
    r0 = 0
    while r0 < widths.size:
        end = r0 + max(1, _WINDOW_BUDGET // max(1, int(widths[r0])))
        lo = np.minimum.accumulate(start[r0:end])
        hi = np.maximum.accumulate(stop[r0:end])
        cost = (hi - lo) * np.arange(1, hi.size + 1)
        waste = cost - np.cumsum(widths[r0:end])
        n = max(1, np.count_nonzero((cost <= _WINDOW_BUDGET) & (waste <= _WINDOW_WASTE)))
        yield r0, r0 + n, lo[n - 1], hi[n - 1]
        r0 += n


def _sorted_bands(cols, key):
    """Sort the m points of a cloud with (p, m) values cols by key, stably,
    and read windows of that order as bands. Returns (order, key[order],
    sub, bands), where sub = cols[:, order] is taken straight into one copy
    padded with m inf columns on each side. bands(lo, hi) takes the window
    [lo[r], hi[r]) of offsets relative to each row r of sub, -m <= lo[r] <=
    hi[r] <= m, and yields (r0, r1, a, band) in the blocks of
    _window_blocks, rows in order: [a, b) is the union of the block's
    windows, and band is a strided (p, r1 - r0, b - a) view of the copy
    whose entry [:, i, t] is sub[:, r0 + i + a + t], inf where that column
    lies before 0 or past m - 1. A band thus holds each row's window and,
    beside it, only other points of the cloud or inf. sub comes back before
    any window is read, as a caller's windows may depend on it."""
    p, m = cols.shape
    order = np.argsort(key, kind="stable")
    pad = np.full((p, 3 * m), np.inf)
    sub = cols.take(order, axis=1, out=pad[:, m : 2 * m])
    strides = (*pad.strides, pad.itemsize)

    def bands(lo, hi):
        for r0, r1, a, b in _window_blocks(lo, hi):
            at = (m + r0 + a) * pad.itemsize
            yield r0, r1, a, np.ndarray((p, r1 - r0, b - a), buffer=pad, offset=at, strides=strides)

    return order, key[order], sub, bands


def norm(s: Space, x) -> float:
    """The polyhedral norm max_f f(x), that is max |f(x)| over the
    representatives."""
    return float(np.max(np.abs(s.representatives @ _check_vector(s, x))))


def norms(s: Space, points: np.ndarray) -> np.ndarray:
    """Vectorized norm over the rows of `points`: _max_abs over the p
    contiguous rows of the (p, m) block _values. The row form, pts times
    reps.T, gives BLAS a product with only p output columns and leaves
    _max_abs strided columns; the norms are the row form's bit for bit."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != s.dim:
        raise DimensionMismatch(f"expected (m, {s.dim}) array, got shape {pts.shape}")
    return _max_abs(_values(s, pts))


def _distances(s: Space, points: np.ndarray, x: np.ndarray) -> np.ndarray:
    """norms(s, points - x) bit for bit, for (m, n) points and a vector x:
    the distance from x to each point.

    The differences are formed in column form: one C-order (n, m) copy of
    points.T, from which x is subtracted one coordinate row at a time, in
    place, then one (p, n) x (n, m) product and _max_abs over its p
    contiguous rows. The row form, points - x, broadcasts over a trailing
    axis of n entries, which numpy does several times slower than a
    subtraction along long contiguous rows, and its product has only p
    output columns. The differences are the same IEEE subtractions in
    either layout, and each product entry is the same sum as in norms, so
    the bits are those of norms(s, points - x). np.array copies even when
    points.T is already contiguous (n = 1), so neither a read-only cloud
    buffer nor the caller's points are written."""
    d = np.array(points.T, order="C")
    for row, xk in zip(d, x.tolist()):
        row -= xk
    return _max_abs(s.representatives @ d)


def space_to_json(s: Space) -> dict:
    return {
        "dim": s.dim,
        "functionals": s.functionals.tolist(),
        "name": s.name,
    }


def space_from_json(data: dict) -> Space:
    try:
        fam = data["functionals"]
    except (KeyError, TypeError) as exc:
        raise DimensionMismatch("space JSON needs a 'functionals' array") from exc
    name = data.get("name", "")
    s = make_space(fam, name=name)
    if not isinstance(name, str):
        raise ParseError(f"space JSON 'name' must be a string, got {name!r}")
    if "dim" not in data:
        return s
    dim = data["dim"]
    # int() would truncate 2.5 to 2 and read "2" and true as integers.
    integral = isinstance(dim, int) or (isinstance(dim, float) and dim.is_integer())
    if isinstance(dim, bool) or not integral:
        raise DimensionMismatch(f"space JSON 'dim' must be an integer, got {dim!r}")
    if dim != s.dim:
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
