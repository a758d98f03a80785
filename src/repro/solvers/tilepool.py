"""Pooled tile arena: per-shape-class 3-D tile storage for the engine.

The numeric engine used to keep every factor tile as a separate
dict-keyed ndarray, so each kernel paid a dict lookup per operand and
the batched execution path would have had to gather tiles with Python
loops.  The arena instead groups the structurally-nonzero factor tiles
by shape class and stores each class as one ``(count, m, n)`` pool:

* gathering a kernel group's operands is one fancy-index read of the
  pool (``pool[slots]``), scattering results back one fancy-index write;
* zeroing and re-stamping input values (``reset_values`` — the
  circuit-simulation Newton loop) is a handful of vectorized scatters
  instead of a per-tile Python loop;
* a slice ``pool[slot]`` is an ordinary C-contiguous ``(m, n)`` view
  with exactly the layout a standalone tile would have, so the per-task
  kernels (the differential-testing oracle) run on pool storage
  unchanged and bit-identically.

:class:`TileViews` wraps the arena in a read-only mapping with the old
``{(bi, bj): ndarray}`` interface so factor extraction and the per-task
kernels need no change.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.sparse import CSRMatrix
from repro.sparse.blocking import Partition


class TileArena:
    """Per-shape-class pooled storage for one factorisation's tiles.

    Parameters
    ----------
    part:
        The tile partition.
    bfill:
        Boolean ``nb × nb`` block-fill map; one pool slot is allocated
        per true entry.

    Attributes
    ----------
    pools:
        ``pools[c]`` is the ``(count_c, m_c, n_c)`` float64 stack of
        every tile with shape class ``c``.
    shapes:
        ``shapes[c] == (m_c, n_c)``.
    pool_bi, pool_bj:
        Per-class arrays of the tile coordinates occupying each slot.
    """

    def __init__(self, part: Partition, bfill: np.ndarray):
        self.part = part
        nb = part.nblocks
        self.nb = nb
        sizes = part.sizes()
        bfill = np.asarray(bfill, dtype=bool)
        bi, bj = np.nonzero(bfill)
        bi = bi.astype(np.int64)
        bj = bj.astype(np.int64)
        self.tile_bi = bi
        self.tile_bj = bj
        self.n_tiles = int(bi.size)
        if self.n_tiles:
            dims = np.stack([sizes[bi], sizes[bj]], axis=1)
            shape_rows, class_of = np.unique(dims, axis=0,
                                             return_inverse=True)
        else:
            shape_rows = np.empty((0, 2), dtype=np.int64)
            class_of = np.empty(0, dtype=np.int64)
        self.shapes = [(int(m), int(n)) for m, n in shape_rows]
        self.pools: list[np.ndarray] = []
        self.pool_bi: list[np.ndarray] = []
        self.pool_bj: list[np.ndarray] = []
        slot = np.empty(self.n_tiles, dtype=np.int64)
        for c, (m, n) in enumerate(self.shapes):
            members = np.flatnonzero(class_of == c)
            slot[members] = np.arange(members.size)
            self.pools.append(np.zeros((members.size, m, n)))
            self.pool_bi.append(bi[members])
            self.pool_bj.append(bj[members])
        # flat (bi, bj) → (class, slot) index map; -1 marks structural zero
        self._class = np.full(nb * nb, -1, dtype=np.int32)
        self._slot = np.full(nb * nb, -1, dtype=np.int64)
        flat = bi * nb + bj
        self._class[flat] = class_of.astype(np.int32)
        self._slot[flat] = slot
        self._stamp_idx: list[tuple] | None = None

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def has_tile(self, bi: int, bj: int) -> bool:
        """Whether tile ``(bi, bj)`` is structurally nonzero."""
        if not (0 <= bi < self.nb and 0 <= bj < self.nb):
            return False
        return self._class[bi * self.nb + bj] >= 0

    def slot_of(self, bi: int, bj: int) -> tuple[int, int]:
        """``(class, slot)`` of one structurally nonzero tile."""
        flat = bi * self.nb + bj
        c = int(self._class[flat])
        if c < 0:
            raise KeyError((bi, bj))
        return c, int(self._slot[flat])

    def view(self, bi: int, bj: int) -> np.ndarray:
        """Writable ``(m, n)`` view of one tile's pool slot."""
        c = int(self._class[bi * self.nb + bj])
        if c < 0:
            raise KeyError((bi, bj))
        return self.pools[c][int(self._slot[bi * self.nb + bj])]

    def locate(self, bi: np.ndarray, bj: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized ``(class, slot)`` lookup for tile coordinate arrays."""
        flat = np.asarray(bi, dtype=np.int64) * self.nb \
            + np.asarray(bj, dtype=np.int64)
        cls = self._class[flat]
        if cls.size and int(cls.min()) < 0:
            bad = int(np.flatnonzero(cls < 0)[0])
            raise KeyError((int(np.asarray(bi).ravel()[bad]),
                            int(np.asarray(bj).ravel()[bad])))
        return cls.astype(np.int64), self._slot[flat]

    # ------------------------------------------------------------------
    # bulk value operations
    # ------------------------------------------------------------------
    def zero_all(self) -> None:
        """Clear every pool (one memset-style store per shape class)."""
        for pool in self.pools:
            pool[...] = 0.0

    def stamp(self, a: CSRMatrix) -> None:
        """Zero all tiles and scatter ``a``'s values into their slots.

        The nonzero→(class, slot, row, col) index arrays are computed on
        the first call and reused afterwards, so re-stamping a
        same-pattern matrix (``NumericEngine.reset_values``) is one
        fancy-index write per shape class.  The caller is responsible
        for only re-stamping matrices with the pattern of the first one
        (the engine validates this).
        """
        if self._stamp_idx is None:
            self._stamp_idx = self._build_stamp_index(a)
        self.zero_all()
        data = a.data
        for c, slots, rr, cc, sel in self._stamp_idx:
            self.pools[c][slots, rr, cc] = data[sel]

    def _build_stamp_index(self, a: CSRMatrix) -> list[tuple]:
        part = self.part
        rows = np.repeat(np.arange(a.nrows, dtype=np.int64),
                         a.row_lengths())
        cols = a.indices
        brow = part.block_of(rows)
        bcol = part.block_of(cols)
        flat = brow * self.nb + bcol
        cls = self._class[flat]
        if cls.size and int(cls.min()) < 0:
            bad = int(np.flatnonzero(cls < 0)[0])
            raise AssertionError(
                f"input tile {(int(brow[bad]), int(bcol[bad]))} outside "
                "predicted block fill"
            )
        slots = self._slot[flat]
        local_r = rows - part.boundaries[brow]
        local_c = cols - part.boundaries[bcol]
        index = []
        for c in range(len(self.pools)):
            sel = np.flatnonzero(cls == c)
            if sel.size:
                index.append((c, slots[sel], local_r[sel], local_c[sel], sel))
        return index


class TileViews(Mapping):
    """Read-only ``{(bi, bj): ndarray}`` mapping over a :class:`TileArena`.

    Values are writable pool views, so in-place kernel arithmetic through
    this mapping mutates the arena directly — the per-task oracle path
    and the batched path share one storage.
    """

    def __init__(self, arena: TileArena):
        self._arena = arena

    def __getitem__(self, key: tuple[int, int]) -> np.ndarray:
        bi, bj = key
        return self._arena.view(int(bi), int(bj))

    def __iter__(self):
        for bi, bj in zip(self._arena.tile_bi, self._arena.tile_bj):
            yield (int(bi), int(bj))

    def __len__(self) -> int:
        return self._arena.n_tiles

    def __contains__(self, key) -> bool:
        try:
            bi, bj = key
        except (TypeError, ValueError):
            return False
        return self._arena.has_tile(int(bi), int(bj))
