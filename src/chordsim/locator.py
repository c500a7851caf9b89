"""Near-field localization as a stack of layers.

The hologram kernel scores the similarity exp(-j(phi - theta)) of one
channel's measured propagation phase phi against the phase theta a candidate
location would produce; layers combine it across carriers and antennas.  The
basic hologram sums the kernel over the whole grid; the multipath-suppression
pipeline inserts a time-of-flight layer, direct-path identification against
prior range bounds, and a direct-path enhancement before the final summation.

Phase convention: every layer reads the channel phase angle(h), which is
minus the propagation phase phi (see ``model``), so the kernel
exp(-j(phi - theta)) is evaluated as exp(j(angle(h) + theta)).

Hologram cost: the basic hologram and the summation layer weight one
full-grid steering row exp(j 2 pi f_l (|cell - tx| + |cell - rx_k|) / c) by
exp(j angle(h_kl)) for every unmasked (antenna k, carrier l) and sum the rows,
K * L * cells complex multiply-adds per call.  A row depends only on the
grid, the transmit and receive antenna positions and the carrier, so it is
built once and stored: the rows of one (grid, tx, rx) sit in one read-only,
append-only slab, in the order their carriers were first asked for, so
carrier and antenna subsets of a plan and geometry reuse the full set's rows.
Antenna k adds its rows by one BLAS gemv over the run of its slab that covers
its observed carriers, with zero weights in the gaps; a carrier masked at
every antenna thus gives the same run and weights, and the same sum bit for
bit, as the plan without it.  The gemv reads each row once: about 1 ms per
call for the full 8 x 16 array on the default grid (one thread, shared
2-vCPU x86 VM), where a multiply then add per row takes twice that.  On the
default grid (64 x 120 cells, complex128) a row takes 123 KB and the default
8 x 16 array 15.7 MB; the store holds at most 256 rows (31.5 MB on the
default grid) and drops the least recently used slabs past that.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .model import (ArrayGeometry, CarrierPlan, ChannelMatrix, ModelError,
                    C_M_PER_S, subset_plan, wrap_phase)


@dataclass(frozen=True)
class GridSpec:
    """Planar search grid at a fixed height, row-major over (y, x) cells."""

    x_extent_m: tuple[float, float] = (-1.6, 1.6)
    y_extent_m: tuple[float, float] = (0.5, 6.5)
    cell_m: float = 0.05
    z_m: float = 1.11

    def __post_init__(self):
        # tuples keep the grid hashable, so it can key the steering-row cache
        for name in ("x_extent_m", "y_extent_m"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if self.cell_m <= 0:
            raise ModelError("cell size must be positive")
        if self.x_extent_m[1] <= self.x_extent_m[0] or self.y_extent_m[1] <= self.y_extent_m[0]:
            raise ModelError("grid extents are degenerate")

    @property
    def nx(self) -> int:
        return max(int(round((self.x_extent_m[1] - self.x_extent_m[0]) / self.cell_m)), 1)

    @property
    def ny(self) -> int:
        return max(int(round((self.y_extent_m[1] - self.y_extent_m[0]) / self.cell_m)), 1)

    def x_centers(self) -> np.ndarray:
        return self.x_extent_m[0] + (np.arange(self.nx) + 0.5) * self.cell_m

    def y_centers(self) -> np.ndarray:
        return self.y_extent_m[0] + (np.arange(self.ny) + 0.5) * self.cell_m

    def cell_position(self, iy: int, ix: int) -> tuple[float, float, float]:
        return (float(self.x_centers()[ix]), float(self.y_centers()[iy]), self.z_m)


@dataclass(frozen=True, eq=False)
class HologramResult:
    heatmap: np.ndarray
    argmax_iy: int
    argmax_ix: int
    position_m: tuple[float, float, float]
    likelihood: float


@dataclass(frozen=True, eq=False)
class TofProfile:
    distances_m: np.ndarray
    magnitude: np.ndarray
    complex_values: np.ndarray


@dataclass(frozen=True)
class PriorROI:
    """Prior knowledge of the scanning area.

    ``path_bounds_m`` bounds the total Tx->tag->Rx path length scanned for the
    direct path (the ToF profile axis).  ``region_xy`` optionally gives a
    polygon in the grid plane for inside/outside classification; without it,
    classification falls back to the path-length band.
    """

    path_bounds_m: tuple[float, float]
    region_xy: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "path_bounds_m", tuple(self.path_bounds_m))
        if self.region_xy is not None:
            object.__setattr__(self, "region_xy", tuple(tuple(p) for p in self.region_xy))
            if len(self.region_xy) < 3:
                raise ModelError("region polygon needs at least 3 vertices")
        a, b = self.path_bounds_m
        if not 0 <= a < b:
            raise ModelError("path bounds must satisfy 0 <= a < b")


@dataclass(frozen=True, eq=False)
class LocationEstimate:
    position_m: tuple[float, float, float]
    likelihood: float
    heatmap: np.ndarray | None = None
    d0_rough_m: float | None = None
    enhancement_applied: bool = False
    fallback: str | None = None


# Bounds on the per-point distance cache, the steering-row store and the
# per-(grid, geometry, carriers) slab positions; 256 rows hold two full
# 8 x 16 arrays.
_DISTANCE_CACHE_SIZE = 64
_STEERING_CACHE_SIZE = 256
_LAYOUT_CACHE_SIZE = 64


def _point_key(position_m) -> tuple[float, float, float]:
    return tuple(float(v) for v in position_m)


@functools.lru_cache(maxsize=_DISTANCE_CACHE_SIZE)
def _cell_distances(grid: GridSpec, point_m: tuple[float, float, float]) -> np.ndarray:
    """|cell - point| for every grid cell, row-major over (y, x); read-only."""
    xs, ys = np.meshgrid(grid.x_centers(), grid.y_centers())
    cells = np.column_stack([xs.ravel(), ys.ravel(), np.full(xs.size, grid.z_m)])
    d = np.linalg.norm(cells - np.asarray(point_m), axis=1)
    d.flags.writeable = False
    return d


def _steering_row(grid: GridSpec, tx_m: tuple[float, float, float],
                  rx_m: tuple[float, float, float], carrier_hz: float) -> np.ndarray:
    """exp(j 2 pi f (|cell - tx| + |cell - rx|) / c) for every grid cell."""
    theta = (2 * math.pi * carrier_hz / C_M_PER_S) * (_cell_distances(grid, tx_m)
                                                      + _cell_distances(grid, rx_m))
    return np.exp(1j * theta)


class _RowStore:
    """Steering rows, one read-only slab per (grid, tx, rx), each slab's rows
    in the order their carriers were first asked for.  A slab only grows (a
    new array, the old rows first), so a row keeps its position; past
    ``max_rows`` rows the least recently used slabs are dropped (a geometry
    and plan that alone need more rows keep theirs through ``_row_layout``)."""

    def __init__(self, max_rows: int):
        self.max_rows = max_rows
        self.built = 0
        # (grid, tx, rx) -> (rows, {carrier_hz: position}), least recently used first
        self.slabs: dict[tuple, tuple[np.ndarray, dict[float, int]]] = {}

    @property
    def n_rows(self) -> int:
        return sum(rows.shape[0] for rows, _ in self.slabs.values())

    def clear(self) -> None:
        self.slabs.clear()
        self.built = 0
        _row_layout.cache_clear()

    def slab(self, grid: GridSpec, tx_m, rx_m, carriers_hz) -> tuple[np.ndarray, np.ndarray]:
        """The slab of (grid, tx, rx) holding every carrier's row, and each
        carrier's position in it."""
        key = (grid, tx_m, rx_m)
        rows, at = self.slabs.pop(key, (None, {}))
        new = [f for f in dict.fromkeys(carriers_hz) if f not in at]
        if new:
            built = [_steering_row(grid, tx_m, rx_m, f) for f in new]
            rows = np.stack(built if rows is None else [*rows, *built])
            rows.flags.writeable = False
            at = {**at, **{f: len(at) + i for i, f in enumerate(new)}}
            self.built += len(new)
            # cached positions may hold the slab this one replaces
            _row_layout.cache_clear()
            while self.slabs and self.n_rows + rows.shape[0] > self.max_rows:
                del self.slabs[next(iter(self.slabs))]
        self.slabs[key] = rows, at
        return rows, np.array([at[f] for f in carriers_hz])


_ROWS = _RowStore(_STEERING_CACHE_SIZE)


@functools.lru_cache(maxsize=_LAYOUT_CACHE_SIZE)
def _row_layout(grid: GridSpec, geom: ArrayGeometry, carriers_hz: tuple[float, ...]) -> tuple:
    """Per receive antenna: its slab and each carrier's position in it."""
    tx = _point_key(geom.tx_wideband_position_m)
    return tuple(_ROWS.slab(grid, tx, _point_key(rx), carriers_hz)
                 for rx in geom.rx_positions_m)


def _phase_hologram(phases: np.ndarray, mask: np.ndarray,
                    grid: GridSpec, geom: ArrayGeometry, plan: CarrierPlan) -> HologramResult:
    k_n, l_n = phases.shape
    if k_n != geom.n_antennas or l_n != plan.n_carriers:
        raise ModelError("phase matrix does not match geometry/plan")
    if grid.nx * grid.ny == 0:
        raise ModelError("empty grid")
    if np.shape(mask) != phases.shape:
        raise ModelError("hologram: mask shape differs from the phase matrix")
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ModelError("hologram: every channel entry is masked")
    weights = np.exp(1j * phases)
    acc = np.zeros(grid.nx * grid.ny, dtype=complex)
    for (rows, at), w_k, seen in zip(_row_layout(grid, geom, plan.carriers_hz), weights, mask):
        if seen.any():
            # one gemv over the slab run covering the observed rows; the
            # rows between them get weight 0
            pos = at[seen]
            lo = pos.min()
            w = np.zeros(pos.max() + 1 - lo, dtype=complex)
            w[pos - lo] = w_k[seen]
            acc += w @ rows[lo:lo + w.size]
    heat = np.abs(acc).reshape(grid.ny, grid.nx)
    flat_idx = int(np.argmax(heat))
    iy, ix = divmod(flat_idx, grid.nx)
    return HologramResult(heatmap=heat, argmax_iy=iy, argmax_ix=ix,
                          position_m=grid.cell_position(iy, ix),
                          likelihood=float(heat[iy, ix]))


def basic_hologram(ch: ChannelMatrix, grid: GridSpec, geom: ArrayGeometry,
                   plan: CarrierPlan) -> HologramResult:
    """Likelihood surface |sum_kl exp(j(angle(h_kl) + theta(g,k,l)))| over the grid.

    Ties break to the lowest row-major cell index.
    """
    return _phase_hologram(np.angle(ch.h), ch.mask, grid, geom, plan)


def summation_layer(enhanced_phases: np.ndarray, grid: GridSpec, geom: ArrayGeometry,
                    plan: CarrierPlan, mask: np.ndarray) -> HologramResult:
    """Final layer: the basic hologram's sum over the enhanced angle(h) phases ``mask`` keeps."""
    return _phase_hologram(np.asarray(enhanced_phases, dtype=float), mask, grid, geom, plan)


def peak_find_2d(heatmap: np.ndarray, rel_threshold: float) -> list[tuple[int, int, float]]:
    """Local maxima over 8-neighborhoods above rel_threshold * global max,
    sorted by magnitude descending."""
    heat = np.asarray(heatmap, dtype=float)
    if heat.size == 0:
        raise ModelError("empty heatmap")
    limit = rel_threshold * float(heat.max())
    # the 3 x 3 maximum with the edges repeated (ndimage.maximum_filter,
    # mode "nearest"): shifted maxima over rows, then over columns
    pad = np.pad(heat, 1, mode="edge")
    rows = np.maximum(np.maximum(pad[:-2], pad[1:-1]), pad[2:])
    local_max = heat >= np.maximum(np.maximum(rows[:, :-2], rows[:, 1:-1]), rows[:, 2:])
    iy, ix = np.nonzero(local_max & (heat >= limit) & (heat > 0))
    peaks = sorted(((int(y), int(x), float(heat[y, x])) for y, x in zip(iy, ix)),
                   key=lambda p: -p[2])
    return peaks


def tof_profile(ch_row, plan: CarrierPlan, d_max_m: float = 20.0,
                spacing_m: float = 0.05) -> TofProfile:
    """Time-of-flight layer: S(d) = sum_l exp(j(angle(h_l) + 2 pi f_l d / c))
    on a total-path-length axis, the nonuniform inverse transform of the
    measured per-carrier phases."""
    h = np.asarray(ch_row, dtype=complex).ravel()
    if h.size < 2:
        raise ModelError("time resolution needs at least two carriers")
    if spacing_m <= 0 or spacing_m > 0.1:
        raise ModelError("profile spacing must be positive and at most 0.1 m")
    freqs = np.asarray(plan.carriers_hz, dtype=float)
    if freqs.size != h.size:
        raise ModelError("carrier count does not match the channel row")
    d = np.arange(0.0, d_max_m + spacing_m / 2, spacing_m)
    s = np.exp(1j * (2 * math.pi / C_M_PER_S) * np.outer(d, freqs)
               + 1j * np.angle(h)[None, :]).sum(axis=1)
    return TofProfile(distances_m=d, magnitude=np.abs(s), complex_values=s)


def tof_spectrum(ch_row, plan: CarrierPlan, d_max_m: float = 20.0,
                 spacing_m: float = 0.05) -> TofProfile:
    """``tof_profile`` on a one-way distance axis (total path / 2)."""
    prof = tof_profile(ch_row, plan, d_max_m=2 * d_max_m, spacing_m=2 * spacing_m)
    return replace(prof, distances_m=prof.distances_m / 2)


def identify_direct_path(profile: TofProfile, prior: PriorROI) -> float | None:
    """Direct-path identification: crop the profile to the prior bounds and
    return the first (nearest) local maximum above ``DIRECT_PEAK_FRAC`` of the
    cropped maximum; None when no peak qualifies."""
    d = profile.distances_m
    a, b = prior.path_bounds_m
    if a > d[-1] or b < d[0]:
        raise ModelError("prior bounds outside the profile axis")
    left = int(np.argmin(np.abs(d - a)))
    right = int(np.argmin(np.abs(d - b)))
    if right - left < 2:
        raise ModelError("prior bounds crop the profile to fewer than three samples")
    mag = profile.magnitude[left:right + 1]
    limit = DIRECT_PEAK_FRAC * float(mag.max())
    diff = np.diff(mag)
    spacing = float(d[1] - d[0])
    for i in range(1, mag.size - 1):
        if diff[i - 1] > 0 and diff[i] < 0 and mag[i] > limit:
            # climb to the top of this lobe (the scan can stop on a shoulder)
            half_width = max(int(0.4 / spacing), 1)
            lo = max(i - half_width, 0)
            hi = min(i + half_width + 1, mag.size)
            j = lo + int(np.argmax(mag[lo:hi]))
            # sub-sample parabolic refinement
            delta = 0.0
            if 0 < j < mag.size - 1:
                denom = mag[j - 1] - 2 * mag[j] + mag[j + 1]
                if abs(denom) > 1e-12:
                    delta = float(np.clip(0.5 * (mag[j - 1] - mag[j + 1]) / denom, -1, 1))
            return float(d[left + j] + delta * spacing)
    return None


def enhance_direct_path(ch_row, plan: CarrierPlan, d0_rough_m: float) -> np.ndarray:
    """Direct-path enhancement: phi~_l = angle(sum_i e^{j phi_i}
    e^{j 2 pi (f_i - f_l) d0 / c}), operating on angle(h) phases."""
    h = np.asarray(ch_row, dtype=complex).ravel()
    phi = np.angle(h)
    freqs = np.asarray(plan.carriers_hz, dtype=float)
    if freqs.size != h.size:
        raise ModelError("carrier count does not match the channel row")
    k = 2 * math.pi * d0_rough_m / C_M_PER_S
    combined = np.exp(1j * (phi + k * freqs)).sum()
    return wrap_phase(np.angle(combined) - k * freqs)


def combined_carrier_channel(ch: ChannelMatrix) -> np.ndarray:
    """Quality-weighted average of the channel rows across antennas, feeding
    the ToF layer a single row per carrier.  Masked entries contribute
    nothing: neither to their antenna's weight nor to the sum."""
    h = ch.h
    mask = ch.mask
    if ch.quality is None:
        weights = np.ones(h.shape[0])
    else:
        weights = 10.0 ** (np.asarray(ch.quality, dtype=float) / 10.0)
        weights = np.where(mask, weights, 0.0).sum(axis=1) / np.maximum(mask.sum(axis=1), 1)
        total = weights.sum()
        weights = weights / total if total > 0 else np.ones(h.shape[0]) / h.shape[0]
    return np.einsum("k,kl->l", weights, np.where(mask, h, 0.0))


# The direct path is the nearest ToF peak reaching this fraction of the cropped maximum.
DIRECT_PEAK_FRAC = 0.55
# Conditional enhancement: the basic hologram is ambiguous when a second peak
# reaches this fraction of the maximum at least this far from it.
AMBIGUOUS_PEAK_FRAC = 0.6
AMBIGUOUS_SEPARATION_M = 0.75
# The enhanced pick must keep this fraction of the basic hologram's maximum.
CONSISTENCY_FRAC = 0.8


@dataclass(frozen=True)
class LocalizePolicy:
    """When to run the multipath-suppression layers.

    ``conditional`` (default) enhances only when the basic hologram is
    genuinely ambiguous: a second peak at least ``AMBIGUOUS_PEAK_FRAC`` of
    the maximum and at least ``AMBIGUOUS_SEPARATION_M`` away (sub-resolution
    multipath merges into the main lobe, where re-pinning the range cannot
    help).  ``always`` and ``never`` are for ablations.
    """

    mode: str = "conditional"

    def __post_init__(self):
        if self.mode not in ("conditional", "always", "never"):
            raise ModelError("policy mode must be conditional/always/never")


DEFAULT_POLICY = LocalizePolicy()


def _observed_carriers(ch: ChannelMatrix, plan: CarrierPlan) -> tuple[ChannelMatrix, CarrierPlan]:
    """The channel and plan restricted to the carriers with at least one
    observed entry."""
    observed = ch.mask.any(axis=0)
    if observed.all():
        return ch, plan
    seen = np.flatnonzero(observed)
    sub = subset_plan(plan, seen)
    return ChannelMatrix(h=ch.h[:, seen], carriers_hz=sub.carriers_hz, geometry=ch.geometry,
                         quality=None if ch.quality is None else ch.quality[:, seen],
                         mask=ch.mask[:, seen]), sub


def localize(ch: ChannelMatrix, grid: GridSpec, geom: ArrayGeometry, plan: CarrierPlan,
             prior: PriorROI | None = None, policy: LocalizePolicy = DEFAULT_POLICY,
             keep_heatmap: bool = False) -> LocationEstimate:
    """Full localization pipeline.

    Basic hologram first; when the policy calls for it (and a prior is given),
    identify the direct path on the combined ToF profile, enhance every
    antenna row and re-run the summation layer.  Falls back to the basic
    result (flagged) when no direct path qualifies.  Masked entries
    contribute nothing to any layer: the ToF and enhancement layers see only
    the observed carriers, so a carrier masked at every antenna gives the
    same result as a plan without it.
    """
    def estimate(result: HologramResult, **flags) -> LocationEstimate:
        return LocationEstimate(position_m=result.position_m, likelihood=result.likelihood,
                                heatmap=result.heatmap if keep_heatmap else None, **flags)

    base = basic_hologram(ch, grid, geom, plan)
    want_enhance = policy.mode == "always"
    if policy.mode == "conditional":
        peaks = peak_find_2d(base.heatmap, AMBIGUOUS_PEAK_FRAC)
        for iy, ix, _ in peaks[1:]:
            dist = math.hypot((ix - base.argmax_ix) * grid.cell_m,
                              (iy - base.argmax_iy) * grid.cell_m)
            if dist >= AMBIGUOUS_SEPARATION_M:
                want_enhance = True
                break
    if not want_enhance or prior is None:
        return estimate(base, fallback="no prior" if want_enhance else None)

    sub, sub_plan = _observed_carriers(ch, plan)
    d_max = max(prior.path_bounds_m[1] * 1.25, 1.0)
    profile = tof_profile(combined_carrier_channel(sub), sub_plan, d_max_m=d_max)
    d0 = identify_direct_path(profile, prior)
    if d0 is None:
        return estimate(base, fallback="no direct path")
    enhanced = np.zeros(sub.shape)
    for k, seen in enumerate(sub.mask):
        if seen.any():
            enhanced[k, seen] = enhance_direct_path(
                sub.h[k, seen], subset_plan(sub_plan, np.flatnonzero(seen)), d0)
    final = summation_layer(enhanced, grid, geom, sub_plan, mask=sub.mask)
    # The enhanced pick must still explain the raw phases: among the basic
    # hologram's ambiguous peaks it selects one, but a bad range pin would
    # land somewhere that is no peak at all.  Fall back in that case.
    raw_score = base.heatmap[final.argmax_iy, final.argmax_ix]
    if raw_score < CONSISTENCY_FRAC * base.likelihood:
        return estimate(base, d0_rough_m=d0,
                        fallback="enhanced estimate inconsistent with raw phases")
    return estimate(final, d0_rough_m=d0, enhancement_applied=True)


AOA_STEP_DEG = 0.25


def aoa_spectrum(ch_column, geom: ArrayGeometry, plan: CarrierPlan,
                 carrier: int) -> tuple[np.ndarray, np.ndarray]:
    """Angle-of-arrival layer at one carrier: S(psi) = sum_k e^{-j angle(h_k)}
    e^{j 2 pi f x_k sin(psi) / c} over psi in [-90, 90] degrees in steps of
    AOA_STEP_DEG, using the exact per-element positions (the co-prime gap
    needs no uniform-spacing idealization).  Returns (psi_deg, S)."""
    h = np.asarray(ch_column, dtype=complex).ravel()
    if h.size < 2:
        raise ModelError("angle estimation needs at least two antennas")
    if h.size != geom.n_antennas:
        raise ModelError("channel column does not match the geometry")
    if not 0 <= carrier < plan.n_carriers:
        raise ModelError("carrier index out of range")
    x_k = geom.rx_array()[:, 0]
    psi = np.arange(-90.0, 90.0 + AOA_STEP_DEG / 2, AOA_STEP_DEG)
    f = plan.carriers_hz[carrier]
    steer = np.exp(1j * (2 * math.pi * f / C_M_PER_S)
                   * np.outer(np.sin(np.deg2rad(psi)), x_k))
    s = steer @ np.exp(-1j * np.angle(h))
    return psi, s


def _point_in_polygon(x: float, y: float, poly) -> bool:
    """Ray casting with boundary points counted inside."""
    pts = list(poly)
    n = len(pts)
    inside = False
    for i in range(n):
        x1, y1 = pts[i]
        x2, y2 = pts[(i + 1) % n]
        # on-segment check
        cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
        if abs(cross) < 1e-12 and min(x1, x2) - 1e-12 <= x <= max(x1, x2) + 1e-12 \
                and min(y1, y2) - 1e-12 <= y <= max(y1, y2) + 1e-12:
            return True
        if (y1 > y) != (y2 > y):
            x_int = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x < x_int:
                inside = not inside
    return inside


def classify_roi(estimate: LocationEstimate, prior: PriorROI,
                 geom: ArrayGeometry | None = None) -> str:
    """inside/outside decision for an estimate; boundary points classify
    inside (recall is favored).  Uses the polygon when present, otherwise the
    total-path-length band (which needs the geometry)."""
    x, y = estimate.position_m[0], estimate.position_m[1]
    if prior.region_xy is not None:
        return "inside" if _point_in_polygon(x, y, prior.region_xy) else "outside"
    if geom is None:
        raise ModelError("path-band classification needs the geometry")
    pos = np.asarray(estimate.position_m)
    tx = np.asarray(geom.tx_wideband_position_m)
    centroid = geom.rx_array().mean(axis=0)
    total = float(np.linalg.norm(pos - tx) + np.linalg.norm(centroid - pos))
    a, b = prior.path_bounds_m
    return "inside" if a <= total <= b else "outside"
