"""Numeric convolution of latency densities.

§3.2 derives the overall-latency pdf as the convolution of the on-hold
and processing densities.  For two exponentials the closed form is the
hypoexponential (see :class:`repro.stats.distributions.Hypoexponential`);
for longer chains (e.g. a task's full multi-repetition life, or
deterministic requester-side post-processing) we convolve numerically
on a uniform grid with a direct ``np.convolve`` (O(n²) in the grid
size).
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ModelError

__all__ = [
    "grid_for",
    "convolve_pdf",
    "convolve_cdf",
    "convolve_densities",
    "grid_cdf",
    "interp_on_grid",
]


def grid_for(components, grid_points: int = 4096) -> np.ndarray:
    """Build a uniform time grid wide enough for the sum of *components*.

    The grid spans ``[0, Σ means + 10·sqrt(Σ vars)]`` which captures all
    but a negligible sliver of the sum's mass for the light-tailed
    distributions used in this library.
    """
    components = list(components)
    if not components:
        raise ModelError("need at least one component")
    if grid_points < 16:
        raise ModelError(f"grid_points too small: {grid_points}")
    total_mean = sum(float(c.mean()) for c in components)
    total_var = 0.0
    for c in components:
        try:
            total_var += float(c.var())
        except NotImplementedError:
            total_var += float(c.mean()) ** 2
    upper = total_mean + 10.0 * math.sqrt(total_var) + 1e-9
    return np.linspace(0.0, upper, grid_points)


def convolve_densities(components, grid_points: int = 4096):
    """Convolve component pdfs on a shared grid.

    Returns ``(grid, pdf_values)`` where ``pdf_values`` integrates to ~1.
    Each pairwise ``np.convolve`` is truncated back to the grid length,
    and the running density is renormalized to control accumulated
    truncation error.
    """
    components = list(components)
    grid = grid_for(components, grid_points)
    dt = grid[1] - grid[0]
    pdf = np.asarray(components[0].pdf(grid), dtype=float)
    for comp in components[1:]:
        other = np.asarray(comp.pdf(grid), dtype=float)
        full = np.convolve(pdf, other) * dt
        pdf = full[: len(grid)]
        mass = np.trapezoid(pdf, grid)
        if mass > 0:
            pdf = pdf / mass
    return grid, pdf


def grid_cdf(grid: np.ndarray, pdf: np.ndarray) -> np.ndarray:
    """Running cdf of a density sampled on the uniform *grid*."""
    dt = grid[1] - grid[0]
    return np.clip(np.cumsum(pdf) * dt, 0.0, 1.0)


def interp_on_grid(grid: np.ndarray, values: np.ndarray, t, right: float):
    """*values* on *grid* interpolated at *t* (0 left of the grid)."""
    t_arr = np.asarray(t, dtype=float)
    out = np.interp(t_arr, grid, values, left=0.0, right=right)
    return out if out.ndim else float(out)


def convolve_pdf(components, t, grid_points: int = 4096):
    """pdf of the sum of *components* evaluated at *t* (interpolated)."""
    grid, pdf = convolve_densities(components, grid_points)
    return interp_on_grid(grid, pdf, t, right=0.0)


def convolve_cdf(components, t, grid_points: int = 4096):
    """cdf of the sum of *components* evaluated at *t*."""
    grid, pdf = convolve_densities(components, grid_points)
    return interp_on_grid(grid, grid_cdf(grid, pdf), t, right=1.0)
