"""Description of the attacked layer, from the weight attacker's view.

Table 1: the weight attack *knows the network structure* (obtained, for
example, by first running the Section 3 structure attack).  This module
captures exactly the structural facts the attack consumes, and derives
the connection geometry of Figure 6: which filter weights a given input
pixel touches, which conv outputs it influences, and which pooled
windows those outputs land in.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.errors import AttackError, ConfigError
from repro.nn.shapes import conv_output_width, pool_output_width
from repro.nn.spec import LayerGeometry

__all__ = ["AttackTarget"]


@dataclass(frozen=True)
class AttackTarget:
    """Structural knowledge of the attacked CONV(+POOL) stage.

    The iterative corner-pixel strategy of Section 4.1 (Figure 6) relies
    on unpadded corners — pixel (0,0) connecting only to weight (0,0) —
    so ``p_conv`` must be zero (the paper's analysis makes the same
    assumption; a padded first layer is attacked through its unpadded
    canonical equivalent).
    """

    w_ifm: int
    d_ifm: int
    d_ofm: int
    f_conv: int
    s_conv: int
    has_pool: bool = False
    f_pool: int = 0
    s_pool: int = 0

    def __post_init__(self) -> None:
        if min(self.w_ifm, self.d_ifm, self.d_ofm, self.f_conv, self.s_conv) <= 0:
            raise ConfigError(f"non-positive dimension in {self}")
        if self.f_conv > self.w_ifm:
            raise ConfigError("filter larger than input")
        if self.has_pool and (self.f_pool <= 0 or self.s_pool <= 0):
            raise ConfigError("pooled target needs f_pool and s_pool")

    @staticmethod
    def from_geometry(geom: LayerGeometry) -> "AttackTarget":
        if geom.p_conv != 0:
            canonical = geom.canonical()
            if canonical.p_conv != 0:
                raise AttackError(
                    "the weight attack requires an unpadded convolution "
                    f"(corner-pixel isolation); got p_conv={geom.p_conv}"
                )
            geom = canonical
        return AttackTarget(
            w_ifm=geom.w_ifm, d_ifm=geom.d_ifm, d_ofm=geom.d_ofm,
            f_conv=geom.f_conv, s_conv=geom.s_conv,
            has_pool=geom.has_pool, f_pool=geom.f_pool, s_pool=geom.s_pool,
        )

    # -- derived geometry ---------------------------------------------------
    @cached_property
    def w_conv(self) -> int:
        return conv_output_width(self.w_ifm, self.f_conv, self.s_conv, 0)

    @cached_property
    def w_pool(self) -> int:
        if not self.has_pool:
            raise AttackError("target has no pooling stage")
        return pool_output_width(self.w_conv, self.f_pool, self.s_pool, 0)

    def outputs_seeing_pixel(self, i: int, j: int) -> list[tuple[int, int, int, int]]:
        """Conv outputs influenced by input pixel (i, j).

        Returns ``(a, b, wi, wj)`` tuples: output coordinate and the
        filter-weight coordinate through which the pixel contributes
        (Figure 6's connection counts).
        """
        result = []
        for a in self._coords(i):
            for b in self._coords(j):
                result.append((a, b, i - a * self.s_conv, j - b * self.s_conv))
        return result

    def _coords(self, pixel: int) -> list[int]:
        lo = -(-(pixel - self.f_conv + 1) // self.s_conv)
        hi = pixel // self.s_conv
        return list(range(max(0, lo), min(self.w_conv - 1, hi) + 1))

    def windows_of_output(self, a: int, b: int) -> list[tuple[int, int]]:
        """Pooled windows containing conv output (a, b)."""
        if not self.has_pool:
            raise AttackError("target has no pooling stage")
        return [
            (pa, pb)
            for pa in self._pool_coords(a)
            for pb in self._pool_coords(b)
        ]

    def _pool_coords(self, out: int) -> list[int]:
        lo = -(-(out - self.f_pool + 1) // self.s_pool)
        hi = out // self.s_pool
        return list(range(max(0, lo), min(self.w_pool - 1, hi) + 1))

    def window_members(self, pa: int, pb: int) -> list[tuple[int, int]]:
        """Conv outputs inside pooled window (pa, pb)."""
        if not self.has_pool:
            raise AttackError("target has no pooling stage")
        rows = range(
            pa * self.s_pool, min(pa * self.s_pool + self.f_pool, self.w_conv)
        )
        cols = range(
            pb * self.s_pool, min(pb * self.s_pool + self.f_pool, self.w_conv)
        )
        return [(a, b) for a in rows for b in cols]
