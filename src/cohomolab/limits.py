"""Resource caps for the exact computation pipeline.

Cochain complexes over the normalized standard resolution grow like
(|G| - 1)^n, so runaway requests are rejected up front instead of thrashing.
Caps are configurable per call and via COHOMOLAB_MAX_CELLS.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

DEFAULT_MAX_CELLS = 4_000_000

ENV_MAX_CELLS = "COHOMOLAB_MAX_CELLS"


class ResourceCapExceeded(Exception):
    """A requested computation exceeds the configured size caps."""

    def __init__(self, message: str, cells: int | None = None, cap: int | None = None):
        super().__init__(message)
        self.cells = cells
        self.cap = cap


@dataclass(frozen=True)
class EngineLimits:
    """Hard ceilings the engine enforces before allocating anything big.

    max_cells bounds rows*cols of any single matrix the pipeline builds.
    """

    max_cells: int = DEFAULT_MAX_CELLS
    max_group_order: int = 36
    min_tate_degree: int = -6
    max_tate_degree: int = 6
    bar_degree_max: int = 3

    @staticmethod
    def from_env() -> "EngineLimits":
        raw = os.environ.get(ENV_MAX_CELLS)
        if raw is None:
            return EngineLimits()
        try:
            cells = int(raw)
        except ValueError as exc:
            raise ValueError(f"{ENV_MAX_CELLS} must be an integer, got {raw!r}") from exc
        if cells < 1:
            raise ValueError(f"{ENV_MAX_CELLS} must be positive")
        return EngineLimits(max_cells=cells)

    def check_group_order(self, order: int) -> None:
        if order > self.max_group_order:
            raise ResourceCapExceeded(
                f"group order {order} exceeds the configured maximum "
                f"{self.max_group_order} (raise --max-group-order to override)"
            )

    def check_bar_degree(self, n: int) -> None:
        """Cap the standard-resolution differential leaving degree n: cochains
        live up to bar_degree_max, and their cocycle conditions need the
        differential one degree above that."""
        if n > self.bar_degree_max + 1:
            raise ResourceCapExceeded(
                f"standard-resolution degree {n} exceeds the configured maximum "
                f"{self.bar_degree_max + 1}"
            )

    def check_cells(self, rows: int, cols: int, what: str) -> None:
        cells = rows * cols
        if cells > self.max_cells:
            raise ResourceCapExceeded(
                f"{what} needs a {rows} x {cols} matrix ({cells} cells), "
                f"cap is {self.max_cells}",
                cells=cells,
                cap=self.max_cells,
            )
