"""Voxel manifolds: unions of axis-aligned boxes, their strata, and grids.

Each voxel v spans the closed box prod_d [v_d - delta_d/2, v_d + delta_d/2].
The union of these boxes is the continuous analysis domain.  Its boundary
decomposes into faces, (in 3D) edges of three kinds, and vertices.  Every
stratum is read off one source, the occupancy pattern of the boxes incident
to each cell of the cubical complex (``VoxelManifold._cell_patterns``).  From
it this module builds the quadrature tables of the refined evaluation grids,
the boundary census, and the Euler characteristic of the box union.

All lattice combinatorics run on adjacency-preserving integer indices, so
shared grid points deduplicate exactly regardless of floating-point
coordinates.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property

import numpy as np

from .lattice import _INDEX_SPACE_CAP, VoxelSet, _check_count

__all__ = [
    "EdgeType",
    "VoxelManifold",
    "RefinedGrid",
    "StratumCensus",
    "refined_grid",
    "classify_boundary",
    "euler_characteristic",
]

_GRID_BYTES_CAP = 4 << 30  # refuse grids whose build is estimated above this


class EdgeType(IntEnum):
    CONVEX = 0
    DOUBLE_CONVEX = 1
    CONCAVE = 2


def _edge_luts() -> tuple[np.ndarray, np.ndarray]:
    """Edge type (-1: no edge) and canonical reflections per quadrant pattern.

    Bit ``sp + 2 sq`` of a pattern marks the box on side (sp, sq) of the two
    transverse planes (1: above).  The reflections bring the solid quadrant
    of a convex edge to (-, -), the solid pair of a double-convex edge to
    {(-, -), (+, +)}, and the missing quadrant of a concave edge to (+, +).
    """
    types = np.full(16, -1, dtype=np.int8)
    refl = np.ones((16, 2), dtype=np.int8)
    for bits in range(16):
        sides = [(c & 1, c >> 1) for c in range(4) if (bits >> c) & 1]
        if len(sides) == 1:
            types[bits] = EdgeType.CONVEX
            refl[bits] = [-1 if s else 1 for s in sides[0]]
        elif bits in (0b0110, 0b1001):
            types[bits] = EdgeType.DOUBLE_CONVEX
            refl[bits, 0] = -1 if bits == 0b0110 else 1
        elif len(sides) == 3:
            types[bits] = EdgeType.CONCAVE
            missing = next(s for s in itertools.product((0, 1), repeat=2) if s not in sides)
            refl[bits] = [1 if s else -1 for s in missing]
    return types, refl


_EDGE_TYPE, _EDGE_REFL = _edge_luts()


# ---------------------------------------------------------------------------
# Voxel manifold
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VoxelManifold:
    """Union of voxel boxes, with dense integer-lattice occupancy."""

    domain: VoxelSet

    def __post_init__(self):
        extent = np.prod(self._extents)
        if extent > _INDEX_SPACE_CAP:
            raise ValueError(
                f"index space of {extent} cells exceeds the supported cap; "
                "the voxel set is too sparse/spread for dense occupancy"
            )

    @property
    def dimension(self) -> int:
        return self.domain.dimension

    @cached_property
    def _origin(self) -> np.ndarray:
        return self.domain.axis_index.min(axis=0)

    @cached_property
    def _extents(self) -> np.ndarray:
        return self.domain.axis_index.max(axis=0) - self._origin + 1

    @cached_property
    def occupancy(self) -> np.ndarray:
        """Dense boolean array over the index bounding box."""
        occ = np.zeros(tuple(self._extents), dtype=bool)
        rel = self.domain.axis_index - self._origin
        occ[tuple(rel.T)] = True
        occ.setflags(write=False)
        return occ

    @cached_property
    def _padded(self) -> np.ndarray:
        pad = np.pad(self.occupancy, 1)
        pad.setflags(write=False)
        return pad

    def _cell_patterns(self, S: tuple[int, ...]) -> np.ndarray:
        """Presence of the 2^|S| boxes incident to each cell on the planes of S.

        A cell lies on a box-boundary plane along every axis in ``S`` and
        spans one box extent along every other axis.  Returns a boolean array
        (2^|S|, *cells): entry ``code`` holds the box on the upper side of the
        plane of axis ``S[a]`` where bit a of ``code`` is set, on the lower
        side otherwise.
        """
        O = self._padded
        shape = tuple(n - 1 if d in S else n - 2 for d, n in enumerate(O.shape))
        out = np.empty((1 << len(S),) + shape, dtype=bool)
        for code in range(1 << len(S)):
            sl = [slice(1, -1)] * self.dimension
            for a, d in enumerate(S):
                up = (code >> a) & 1
                sl[d] = slice(up, O.shape[d] - 1 + up)
            out[code] = O[tuple(sl)]
        return out

    def box_bounds(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper corners of the boxes with the given index vectors."""
        idx = np.atleast_2d(np.asarray(idx))
        center = np.empty(idx.shape, dtype=np.float64)
        for d in range(self.dimension):
            pos = np.searchsorted(self.domain.axis_index_values[d], idx[:, d])
            center[:, d] = self.domain.axis_values[d][pos]
        half = self.domain.spacing / 2.0
        return center - half, center + half


# ---------------------------------------------------------------------------
# Refined grids
# ---------------------------------------------------------------------------


class RefinedGrid:
    """Deduplicated evaluation grid with its quadrature tables.

    ``r`` is the added resolution: each box contributes the (r+2)^D lattice
    with per-axis step delta/(r+1), including the box boundary (hence r must
    be odd).  ``r = 0`` is the compatibility mode that returns the voxel
    lattice itself.

    Every grid table comes from one count over the dense key box: for each
    key, the occupied boxes incident to it, each counted once per choice of
    the lower or upper box along every axis (the two coincide off the
    box-boundary planes).  A point on j planes counts each of its boxes
    2^(D-j) times, so count / 2^D is its share of occupied incident boxes.

    Attributes
    ----------
    keys : (P, D) int32 exact grid keys (box index * (r+1) + sub-step),
        the keys of positive count in C order (axis 0 slowest)
    points : (P, D) float64 coordinates, derived from the keys on first use
    vol_weight : (P,) float64 tensor-trapezoid multiplicity for volume sums
    id_map : dense int32 key-box -> point id map (-1 where no grid point);
        entry ``keys[i] - key_min`` holds i
    key_min : (D,) int64 key at the id map's origin
    axis_keys, axis_coords : per axis, the sorted grid keys and their coordinates
    face_tables, edge_tables : boundary quadrature tables (empty at r = 0): per face
        normal axis m, int32 "ids" and "weights"; in 3D, per
        edge tangent axis k, "ids", "weights", "types", "refl" and "tangent"
    """

    def __init__(self, manifold: VoxelManifold, r: int):
        self.manifold = manifold
        self.r = _added_resolution(r)
        D = manifold.dimension
        self.dimension = D
        dom = manifold.domain
        _check_grid_size(manifold, self.r)
        h = (self.r + 1) // 2
        step = self.r + 1
        z = np.arange(-h, h + 1)

        # per-axis key -> coordinate maps, from the generating boxes
        self.axis_keys = []
        self.axis_coords = []
        for d in range(D):
            ak = (dom.axis_index_values[d][:, None] * step + z[None, :]).ravel()
            ac = (
                dom.axis_values[d][:, None] + z[None, :] * (dom.spacing[d] / step)
            ).ravel()
            uk, first = np.unique(ak, return_index=True)
            self.axis_keys.append(uk)
            self.axis_coords.append(ac[first])
        spans = [np.arange(k[0], k[-1] + 1, dtype=np.int32) for k in self.axis_keys]
        self._key_positions = [np.searchsorted(k, s) for k, s in zip(self.axis_keys, spans)]

        # occupied incident boxes per key of the dense key box, one axis at a
        # time: the sum of the lower- and upper-box slices of the padded
        # occupancy (its index 0 is the box below the origin)
        self.key_min = np.array([a[0] for a in self.axis_keys])
        count = manifold._padded.astype(np.uint8)
        for d, span in enumerate(spans):
            lower, upper = self._sides(span) - (manifold._origin[d] - 1)
            count = count.take(lower, axis=d) + count.take(upper, axis=d)
        present = count > 0
        self.vol_weight = count[present] / (1 << D)
        # keys and ids fit int32: _check_grid_size caps the key box far below 2^31
        self.keys = np.empty((len(self.vol_weight), D), dtype=np.int32)
        for d, span in enumerate(np.ix_(*spans)):
            self.keys[:, d] = np.broadcast_to(span, present.shape)[present]
        self.id_map = np.full(present.shape, -1, dtype=np.int32)
        self.id_map[present] = np.arange(len(self.keys), dtype=np.int32)
        for a in (self.keys, self.vol_weight, self.id_map):
            a.setflags(write=False)
        self.face_tables: dict[int, dict[str, np.ndarray]] = {}
        self.edge_tables: list[dict[str, np.ndarray]] = []
        self._partitions: dict[int, tuple] = {}  # slabs(limit) by limit
        if self.r:
            self._build_boundary_tables(h, step)

    # -- construction helpers -------------------------------------------------

    def _sides(self, keys: np.ndarray) -> np.ndarray:
        """Index of the lower and upper box incident to integer keys along
        their axis, stacked (2, ...); they differ only on the box-boundary
        planes, and never at r = 0."""
        h, step = (self.r + 1) // 2, self.r + 1
        return np.stack([-((h - keys) // step), (keys + h) // step])

    def _build_boundary_tables(self, h: int, step: int):
        """Quadrature tables for boundary strata, one entry per (unit cell of
        the stratum, grid point on it).

        A cell on the planes of the axes S holds the points at the plane key
        on each axis of S and at every sub-step of its box on each spanned
        axis; entries run over the cells in ``argwhere`` order, then over the
        sub-steps with axis 0 slowest.  Edges add their type and the
        reflections to the canonical orientation.
        """
        man = self.manifold
        D = self.dimension
        zw = np.ones(self.r + 2)
        zw[0] = zw[-1] = 0.5

        def table(S: list[int], cells: np.ndarray, **columns) -> dict:
            """Ids and weights of ``cells`` on the planes of S, plus per-cell ``columns``."""
            spanned = [d for d in range(D) if d not in S]
            npt = (self.r + 2) ** len(spanned)
            sub = np.indices((self.r + 2,) * len(spanned)).reshape(len(spanned), npt).T
            # the spanned box, or along an axis of S the box below the plane
            box = cells + man._origin
            box[:, S] -= 1
            keys = np.empty((len(cells), npt, D), dtype=np.int64)
            keys[:, :, S] = box[:, None, S] * step + h
            keys[:, :, spanned] = box[:, None, spanned] * step + sub - h
            return {
                "ids": self._lookup_ids(keys.reshape(-1, D)),
                "weights": np.tile(zw[sub].prod(axis=1), len(cells)),
                **{name: np.repeat(v, npt, axis=0) for name, v in columns.items()},
            }

        for m in range(D):
            self.face_tables[m] = table([m], _exterior_faces(man, m))
        for k in range(3 if D == 3 else 0):
            cells, codes = _edge_cells(man, k)
            transverse = [d for d in range(3) if d != k]
            tab = table(transverse, cells, types=_EDGE_TYPE[codes], refl=_EDGE_REFL[codes])
            self.edge_tables.append(dict(tab, tangent=k))

    # -- lookups ---------------------------------------------------------------

    def _lookup_ids(self, keys: np.ndarray) -> np.ndarray:
        rel = keys - self.key_min
        if np.all((rel >= 0) & (rel < self.id_map.shape)):
            ids = self.id_map[tuple(rel.T)]
            if np.all(ids >= 0):
                return ids
        raise AssertionError("boundary table key not present in grid")

    def slabs(self, limit: int) -> tuple[np.ndarray, dict]:
        """The partition into slabs that ``lkc`` streams, cached per ``limit``:
        the slab bounds, runs of whole axis-0 rows, a row opening a run where
        the open one would pass ``limit`` points with it; and the boundary
        tables merged for them (``_strata``)."""
        part = self._partitions.get(limit)
        if part is None:
            rows = self.rows[0]
            bounds = [rows[0]]
            for start, stop in zip(rows[1:-1], rows[2:]):
                if stop - bounds[-1] > limit:
                    bounds.append(start)
            bounds = np.array(bounds + [rows[-1]])
            part = self._partitions[limit] = (bounds, _strata(self, bounds))
        return part

    @cached_property
    def rows(self) -> tuple[np.ndarray, np.ndarray, list[list[tuple] | None], list[np.ndarray | None]]:
        """The axis-0 rows as the grid engine writes them: per row its first id
        (the point count appended); the first row of each run of rows with one
        key pattern (the row count appended); per run its rectangles
        (``_rectangles``); and per run the flat positions of its keys in a
        row's key block of every further axis, None where it is whole."""
        present = self.id_map >= 0
        for d, keys in enumerate(self.axis_keys):  # the key box's planes of no axis key hold no point
            if len(keys) < present.shape[d]:
                present = present.take(keys - keys[0], axis=d)
        flat = present.reshape(len(present), -1)
        starts = np.append(0, np.cumsum(np.count_nonzero(flat, axis=1)))
        runs = np.array([0] + [j for j in range(1, len(flat)) if not np.array_equal(flat[j], flat[j - 1])]
                        + [len(flat)])
        rects = [_rectangles(row) if self.dimension > 1 else None for row in present[runs[:-1]]]
        return starts, runs, rects, [None if row.all() else np.flatnonzero(row) for row in flat[runs[:-1]]]

    def axis_positions(self, ids=None):
        """Per axis, the positions of the points ``ids`` (all when None) in ``axis_coords``."""
        keys = self.keys if ids is None else self.keys.take(ids, axis=0)
        for d, positions in enumerate(self._key_positions):
            yield positions[keys[:, d] - self.key_min[d]]

    @cached_property
    def neighbours(self) -> np.ndarray:
        """(3^D - 1, P) int32 key-stencil neighbour ids, a row per nonzero offset, -1 where none."""
        lut = np.pad(self.id_map, 1, constant_values=-1)
        base = np.ravel_multi_index(tuple((self.keys - self.key_min + 1).T), lut.shape)
        offsets = [off for off in itertools.product((-1, 0, 1), repeat=self.dimension) if any(off)]
        nbrs = lut.ravel()[base + np.dot(offsets, np.asarray(lut.strides) // lut.itemsize)[:, None]]
        nbrs.setflags(write=False)
        return nbrs

    @cached_property
    def points(self) -> np.ndarray:
        pts = np.empty(self.keys.shape, dtype=np.float64)
        for d, pos in enumerate(self.axis_positions()):
            pts[:, d] = self.axis_coords[d][pos]
        pts.setflags(write=False)
        return pts

    @property
    def n_points(self) -> int:
        return len(self.keys)

    def incident_boxes(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Occupied boxes containing the grid points ``ids``: (owner, boxes),
        where ``boxes[j]`` is the index vector of a box that holds point
        ``ids[owner[j]]``.  Ordered by position in ``ids``, then with axis 0
        slowest and the lower box first."""
        D = self.dimension
        lower, upper = self._sides(self.keys[np.atleast_1d(ids)])
        bits = np.indices((2,) * D).reshape(D, -1).T == 1
        boxes = np.where(bits, upper[:, None], lower[:, None])
        distinct = np.all(~bits | (upper != lower)[:, None], axis=-1)
        man = self.manifold
        occupied = man._padded[tuple(np.moveaxis(boxes - man._origin + 1, -1, 0))]
        owner, choice = np.nonzero(distinct & occupied)
        return owner, boxes[owner, choice]


def _strata(grid: RefinedGrid, bounds: np.ndarray) -> dict:
    """The face tables (by normal axis), then the edge tables (by tangent axis), merged for the slabs
    ``bounds``: per table its columns but the ids, rows in slab order (a stable sort), the "axes" whose
    metric it reads (all for an edge), "cuts" (the slabs' bounds in its rows) and the "start" of its
    block of a per-call array of "size" entries: the upper triangle of the (k, k, n) metric on its k
    axes at its n rows, components first.  Per slab, int32 "take" and "put": the flat positions of
    those entries in the slab's components-first metric, and their positions in the array."""
    D, n_slabs = grid.dimension, len(bounds) - 1
    tables, take, put, start = [], [[] for _ in range(n_slabs)], [[] for _ in range(n_slabs)], 0
    faces = [([d for d in range(D) if d != m], t) for m, t in grid.face_tables.items()]
    for axes, table in faces + [(list(range(D)), t) for t in grid.edge_tables]:
        slab = np.searchsorted(bounds, table["ids"], side="right") - 1
        order = np.argsort(slab, kind="stable")
        slab, (k, n) = slab[order], (len(axes), len(order))
        cuts = np.searchsorted(slab, np.arange(n_slabs + 1))
        upper = [(a, b) for a in range(k) for b in range(a, k)]
        src = np.array([axes[a] * D + axes[b] for a, b in upper], dtype=int)[:, None] * np.diff(bounds)[slab]
        src += table["ids"][order] - bounds[slab]
        dst = start + np.array([a * k + b for a, b in upper], dtype=int)[:, None] * n + np.arange(n)
        for j, (lo, hi) in enumerate(zip(cuts[:-1], cuts[1:])):
            take[j].append(src[:, lo:hi].ravel())
            put[j].append(dst[:, lo:hi].ravel())
        cols = {name: v[order] if isinstance(v, np.ndarray) else v for name, v in table.items() if name != "ids"}
        tables.append(dict(cols, axes=tuple(axes), start=start, cuts=cuts))
        start += k * k * n
    return {"tables": tables, "size": start, "take": [np.concatenate(t, dtype=np.int32) for t in take],
            "put": [np.concatenate(t, dtype=np.int32) for t in put]}


def _rectangles(row: np.ndarray) -> list[tuple] | None:
    """The present keys of an axis-0 row (a 1-D or 2-D mask over the further
    axes' keys) as rectangles in id order, (axis-1 slice, last-axis positions,
    offset, size): in 3-D a run of axis-1 keys with one set of axis-2 keys, in
    2-D (slice None) the row's keys; the positions a slice where contiguous,
    with their first id and point count in the row.  None where a rectangle is
    one key wide on an axis: its product would be a matrix-vector one, which
    rounds unlike the GEMM of the row's whole key block."""
    sets = [np.flatnonzero(keys) for keys in (row if row.ndim == 2 else row[None])]
    out, j = [], 0
    while j < len(sets):
        b = j + 1
        while b < len(sets) and np.array_equal(sets[b], sets[j]):
            b += 1
        S = sets[j]
        if len(S) == 1 or (len(S) and row.ndim == 2 and b - j == 1):
            return None
        if len(S):
            last = slice(S[0], S[-1] + 1) if S[-1] - S[0] + 1 == len(S) else S
            offset = out[-1][2] + out[-1][3] if out else 0
            out.append((slice(j, b) if row.ndim == 2 else None, last, offset, (b - j) * len(S)))
        j = b
    return out


def _added_resolution(r, name: str = "added resolution", lattice: bool = True) -> int:
    """``r`` as an int: odd and positive, or 0 (the voxel lattice) where ``lattice``."""
    r = _check_count(name, r, -np.inf)  # its type; its range is the rule below
    if r < 0 or (r % 2 == 0 and not (r == 0 and lattice)):
        raise ValueError(f"{name} must be odd and positive{' (or 0 for the lattice)' if lattice else ''}, got {r}")
    return r


def _check_grid_size(manifold: VoxelManifold, r: int) -> tuple[int, int]:
    """Estimated points and bytes of a grid build; refuse, before allocating,
    a grid whose build would exceed ``_GRID_BYTES_CAP``.  Every key of the
    dense key box (index box x (r+1) per axis, plus the closing plane) costs
    its id (int32), its count and mask and the count's partial sums; each
    point its int32 keys, the per-axis buffer that builds them and its
    float64 volume weight (coordinates are made only on use).  Points are
    bounded by (r+1)^D per box plus the (r+2)^(D-1) points of each upper box
    face with no box above it, one per run of boxes along each axis."""
    D = manifold.dimension
    extents = manifold._extents
    cells = int(np.prod((extents - 1) * (r + 1) + (r + 1) // 2 * 2 + 1))
    points = manifold.domain.n_voxels * (r + 1) ** D
    if r and 12 * cells + (4 * D + 12) * points <= _GRID_BYTES_CAP:
        runs = sum(np.count_nonzero(np.diff(manifold._padded, axis=d)) for d in range(D)) // 2
        points += runs * (r + 2) ** (D - 1)
    nbytes = 12 * cells + (4 * D + 12) * points
    if nbytes > _GRID_BYTES_CAP:
        raise ValueError(
            f"refined grid at r = {r} spans a key box of {cells:,} cells with about "
            f"{points:,} points and needs about {nbytes / 2**30:.1f} GiB to build, above the "
            f"{_GRID_BYTES_CAP / 2**30:.0f} GiB cap; use a smaller added resolution"
        )
    return points, nbytes


def refined_grid(manifold: VoxelManifold, r: int) -> RefinedGrid:
    """Build the evaluation grid with added resolution ``r`` (odd, or 0)."""
    return RefinedGrid(manifold, r)


# ---------------------------------------------------------------------------
# Strata, census and Euler characteristic
# ---------------------------------------------------------------------------
#
# All three read the cells of the cubical complex through
# ``VoxelManifold._cell_patterns``: a cell on the boundary planes of the axes
# S has 2^|S| incident boxes, and which of them exist decides its stratum.


def _exterior_faces(manifold: VoxelManifold, m: int) -> np.ndarray:
    """Cell positions of the unit faces normal to axis m with exactly one
    incident box."""
    below, above = manifold._cell_patterns((m,))
    return np.argwhere(below ^ above)


def _edge_cells(manifold: VoxelManifold, k: int) -> tuple[np.ndarray, np.ndarray]:
    """3-D unit edge segments along axis k: cell positions and quadrant
    patterns (indices into ``_EDGE_TYPE`` / ``_EDGE_REFL``)."""
    p, q = [d for d in range(3) if d != k]
    pat = manifold._cell_patterns((p, q))
    bits = sum(pat[code].astype(np.int8) << code for code in range(4))
    cells = np.argwhere(_EDGE_TYPE[bits] >= 0)
    return cells, bits[tuple(cells.T)]


def _vertex_count(manifold: VoxelManifold) -> int:
    """0-cells whose pattern is non-empty and changes under every axis flip
    (a flip-invariant axis makes the point locally a face or edge point)."""
    D = manifold.dimension
    pat = manifold._cell_patterns(tuple(range(D)))
    codes = np.arange(1 << D)
    symmetric = np.zeros(pat.shape[1:], dtype=bool)
    for a in range(D):
        symmetric |= np.all(pat == pat[codes ^ (1 << a)], axis=0)
    return int(np.count_nonzero(pat.any(axis=0) & ~symmetric))


@dataclass(frozen=True)
class StratumCensus:
    """Counts of boundary unit cells by stratum."""

    faces: dict
    edges: dict
    vertices: int

    def to_dict(self) -> dict:
        return {
            "faces": {"+".join(f"x{d}" for d in I) or "point": n for I, n in self.faces.items()},
            "edges": {
                f"tangent x{k} {EdgeType(t).name.lower()}": n for (k, t), n in self.edges.items()
            },
            "vertices": self.vertices,
        }


def classify_boundary(manifold: VoxelManifold) -> StratumCensus:
    """Count exterior unit faces per varying-axes subset, unit edge segments
    per (tangent axis, type), and stratification vertices."""
    D = manifold.dimension
    faces = {
        tuple(d for d in range(D) if d != m): len(_exterior_faces(manifold, m))
        for m in range(D)
    }
    edges = {}
    if D == 3:
        for k in range(3):
            types = _EDGE_TYPE[_edge_cells(manifold, k)[1]]
            for t in EdgeType:
                edges[(k, t)] = int(np.count_nonzero(types == t))
    return StratumCensus(faces=faces, edges=edges, vertices=_vertex_count(manifold))


def euler_characteristic(manifold: VoxelManifold) -> int:
    """Alternating cell-count sum of the closed box union.

    A cell on the boundary planes of the axes S has dimension D - |S| and
    belongs to the union when any of its incident boxes is occupied, so
    chi = sum over S of (-1)^(D - |S|) times the number of such cells.
    """
    D = manifold.dimension
    chi = 0
    for j in range(D + 1):
        for S in itertools.combinations(range(D), j):
            n = np.count_nonzero(manifold._cell_patterns(S).any(axis=0))
            chi += (-1) ** (D - j) * int(n)
    return chi
