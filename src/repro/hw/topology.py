"""On-chip mesh topology.

Fig. 6 places manager and worker tiles on a 2-D mesh (the T0..T15 tile
grid).  The NoC model needs hop counts between tiles; everything else
(routing, virtual networks) is folded into the per-hop latency and the
message model in :mod:`repro.hw.noc`.
"""

from __future__ import annotations

import math
from typing import Tuple


class MeshTopology:
    """A 2-D mesh of ``n_tiles`` tiles with XY (dimension-ordered) routing.

    The mesh is the smallest square (or near-square rectangle) that fits
    the tile count, matching how tiled manycores are laid out.  XY routing
    is deterministic -- which is precisely why the paper chooses it for
    Altocumulus messages (Sec. V-B, Message Ordering).
    """

    def __init__(self, n_tiles: int) -> None:
        if n_tiles <= 0:
            raise ValueError(f"need at least one tile, got {n_tiles}")
        self.n_tiles = int(n_tiles)
        self.width = int(math.ceil(math.sqrt(n_tiles)))
        self.height = int(math.ceil(n_tiles / self.width))
        #: Hop-count memo: pairs recur constantly (the NoC asks for the
        #: same manager<->manager and manager<->worker distances on every
        #: message), and the mesh is small enough that the table of all
        #: ordered pairs is negligible.
        self._hops_cache: dict = {}

    def coords(self, tile: int) -> Tuple[int, int]:
        """(x, y) position of a tile in the mesh."""
        self._check(tile)
        return tile % self.width, tile // self.width

    def hops(self, src: int, dst: int) -> int:
        """Manhattan hop count between two tiles under XY routing."""
        key = (src, dst)
        cached = self._hops_cache.get(key)
        if cached is not None:
            return cached
        sx, sy = self.coords(src)
        dx, dy = self.coords(dst)
        result = abs(sx - dx) + abs(sy - dy)
        self._hops_cache[key] = result
        return result

    def route(self, src: int, dst: int) -> "list[int]":
        """The XY (dimension-ordered) route as a tile sequence, source
        included.  Deterministic -- the ordering guarantee Altocumulus
        messages rely on (Sec. V-B)."""
        self._check(src)
        self._check(dst)
        x, y = self.coords(src)
        dx, dy = self.coords(dst)
        path = [src]
        while x != dx:
            x += 1 if dx > x else -1
            path.append(y * self.width + x)
        while y != dy:
            y += 1 if dy > y else -1
            path.append(y * self.width + x)
        return path

    def route_links(self, src: int, dst: int) -> "list[tuple[int, int]]":
        """Directed links traversed by the XY route."""
        path = self.route(src, dst)
        return list(zip(path, path[1:]))

    def _check(self, tile: int) -> None:
        if not 0 <= tile < self.n_tiles:
            raise ValueError(f"tile {tile} out of range [0, {self.n_tiles})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MeshTopology {self.width}x{self.height} tiles={self.n_tiles}>"
