//! HMM trajectory decoding (§3.5, Eqs. 8–11).
//!
//! The whiteboard is discretized into equal cells; the hidden state is
//! the cell containing the pen. Transitions (Eq. 8) are uniform over the
//! feasible annulus — displacement between `max_j |Δl_j|` and
//! `v_max·Δt`. Emissions (Eq. 11) weight a candidate cell by (a) how
//! well its theoretical inter-antenna phase difference matches the
//! measurement (the hyperbola constraint, Fig. 12(c)) and (b) how close
//! it lies to the ray from the previous cell along the estimated moving
//! direction (Fig. 12(b)). Viterbi then extracts the most likely cell
//! sequence; complexity is linear in steps × cells × annulus size, which
//! is what lets the paper claim real-time decoding on a mini PC.
//!
//! Implementation note: the paper multiplies two `1 − x/…` factors; we
//! score in log-space with fixed sharpness weights ([`HYPERBOLA_WEIGHT`],
//! [`DIRECTION_WEIGHT`], [`BACKWARD_PENALTY`], [`DISTANCE_WEIGHT`],
//! [`DISTANCE_WEIGHT_STILL`]), which preserves the ranking the paper's
//! product induces (see DESIGN.md).
//!
//! ## Decoder performance
//!
//! The beam decoder is the dominant cost of the whole reproduction
//! (every accuracy experiment runs thousands of decodes), so its inner
//! loop is built around precomputation and flat memory:
//!
//! * [`EmissionTable`] caches `expected_dtheta21` per cell — it depends
//!   only on the cell centre, the antennas, and the wavelength, so one
//!   table (two 3-D norms per cell, built once) serves every
//!   (frontier × candidate) pair of every step of every decode on the
//!   same rig. [`DecodeArtifacts`] lifts the table (and the stencil
//!   store) to a process-wide `Arc` cache keyed by the rig fingerprint,
//!   so N concurrent sessions on one rig pay one row-parallel build and
//!   one table's memory (see DESIGN.md "Multi-session serving").
//! * [`AnnulusStencil`] replaces the per-frontier-cell
//!   [`Grid::neighbourhood`] `Vec` allocation with a radius-keyed table
//!   of `(dx, dy, ideal distance)` offsets; boundary clipping is pure
//!   index arithmetic.
//! * A centre-distance memo takes libm out of the exact kernel's
//!   per-candidate path. Cell centres sit on a lattice, so along each
//!   axis the differences `c[i + k] − c[i]` for one offset `k` take only
//!   a few distinct values (a few ULPs apart); the memo stores each
//!   axis's distinct values per offset, which one every column and row
//!   sees, and `Vec2::norm` of every (offset, x value, y value) pair.
//!   That is the same call on the same difference bits the reference
//!   makes per candidate, so a candidate's distance is a table read
//!   with the reference's bits — on still steps too, where the distance
//!   term reads it directly. It is built on the first exact step that
//!   needs it and rebuilt wider when a step's stencil outgrows it.
//! * Backpointers live in flat per-step [`BeamFrame`]s instead of a
//!   per-step `HashMap`, beam truncation uses `select_nth_unstable_by`
//!   instead of a full sort, and the dense per-cell lanes live in the
//!   decoder and are reset through a touched list, so once they have
//!   grown a step allocates nothing but its frame (recycled from a pool
//!   once the lag starts committing).
//!
//! There is one driver, [`FixedLagDecoder`]; the batch entry [`decode`]
//! is that decoder run with unbounded lag. It is kept *exactly*
//! output-equivalent to the retained naive implementation,
//! [`viterbi_reference`]: every score it
//! computes carries the reference's bits (work the reference repeats per
//! candidate is done once where its result cannot differ — see
//! `expand_f64`), and both share one canonical beam total order (score
//! descending, cell index ascending), so `tests/decoder_equivalence.rs`
//! can assert bit-for-bit identical tracks. `cargo bench -p polardraw-bench
//! --bench decode` (or `scripts/bench.sh`) measures the speedup;
//! DESIGN.md's "Decoder performance" section keeps the numbers.
//!
//! Beyond the bit-exact default, [`KernelOptions`] opts into two
//! throughput levers: a fused `f32` inner loop driven by a per-step
//! transition plan and a cast [`EmissionTableF32`]
//! ([`KernelPrecision::F32Tolerance`]), and a frontier-adaptive beam
//! that shrinks the kept beam on steps where the score mass
//! concentrates ([`AdaptiveBeam`]). A step runs on one thread:
//! parallelism lives a level up, in trial fan-out and the serving
//! pool. The frontier itself is stored structure-of-arrays (cell and
//! score vectors, not candidate tuples) so the hot loops stream over
//! flat `u32`/score lanes. The f64 path is bit-identical to
//! [`viterbi_reference`]; the f32/adaptive paths are instead gated by
//! the quantitative tolerance oracle in `tests/kernel_equivalence.rs`.

use crate::distance::{expected_dtheta21, DthetaRowKernel, FeasibleRegion};
use rf_core::{wrap_pi, Vec2, Vec3};
use std::cmp::Ordering;
use std::sync::{Arc, Mutex, OnceLock};

/// A uniform cell grid over the board region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Grid {
    /// Minimum corner of the board region, metres.
    pub min: Vec2,
    /// Cell edge, metres.
    pub cell_m: f64,
    /// Cells along X.
    pub nx: usize,
    /// Cells along Y.
    pub ny: usize,
}

impl Grid {
    /// Build a grid covering `[min, max]` with the given cell size.
    pub fn covering(min: Vec2, max: Vec2, cell_m: f64) -> Grid {
        assert!(cell_m > 0.0, "cell size must be positive");
        assert!(max.x > min.x && max.y > min.y, "degenerate board region");
        let nx = ((max.x - min.x) / cell_m).ceil() as usize + 1;
        let ny = ((max.y - min.y) / cell_m).ceil() as usize + 1;
        Grid { min, cell_m, nx, ny }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.nx * self.ny
    }

    /// Whether the grid is empty (never true for `covering`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Centre of cell `idx`.
    pub fn center(&self, idx: usize) -> Vec2 {
        let ix = idx % self.nx;
        let iy = idx / self.nx;
        Vec2::new(
            self.min.x + (ix as f64 + 0.5) * self.cell_m,
            self.min.y + (iy as f64 + 0.5) * self.cell_m,
        )
    }

    /// Cell index containing a point (clamped to the grid).
    pub fn index_of(&self, p: Vec2) -> usize {
        let ix = (((p.x - self.min.x) / self.cell_m).floor() as isize)
            .clamp(0, self.nx as isize - 1) as usize;
        let iy = (((p.y - self.min.y) / self.cell_m).floor() as isize)
            .clamp(0, self.ny as isize - 1) as usize;
        iy * self.nx + ix
    }

    /// Radius in whole cells a stencil must span to cover `radius`
    /// metres, clamped to the grid diagonal (no in-bounds pair of cells
    /// is farther apart, so a larger stencil could never match more).
    fn radius_cells(&self, radius: f64) -> i32 {
        let cap = f64::hypot(self.nx as f64, self.ny as f64).ceil();
        (radius / self.cell_m).ceil().clamp(0.0, cap) as i32
    }

    /// Indices of cells whose centres lie within `radius` of cell
    /// `from`'s centre.
    ///
    /// Implemented on [`AnnulusStencil`]: the scan covers exactly the
    /// `ceil(radius / cell)` square (the historical version visited one
    /// extra ring that could never pass the distance check), in the same
    /// row-major order, with the same `≤ radius + 1e-12` membership
    /// rule — so results are identical, minus the redundant ring. The
    /// decoder hot path reads [`shared_stencil`]s instead of this
    /// allocating convenience method.
    pub fn neighbourhood(&self, from: usize, radius: f64) -> Vec<usize> {
        let stencil = AnnulusStencil::new(self.cell_m, self.radius_cells(radius));
        let c = self.center(from);
        let ix0 = (from % self.nx) as i64;
        let iy0 = (from / self.nx) as i64;
        let mut out = Vec::new();
        for off in stencil.offsets() {
            if off.ideal_dist_m > radius + 1e-12 + STENCIL_MARGIN_M {
                continue;
            }
            let ix = ix0 + off.dx as i64;
            let iy = iy0 + off.dy as i64;
            if ix < 0 || iy < 0 || ix >= self.nx as i64 || iy >= self.ny as i64 {
                continue;
            }
            let idx = iy as usize * self.nx + ix as usize;
            if self.center(idx).distance(c) <= radius + 1e-12 {
                out.push(idx);
            }
        }
        out
    }
}

/// Per-step observation fed to the decoder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepObservation {
    /// Feasible displacement annulus (Eq. 8's bounds).
    pub region: FeasibleRegion,
    /// Estimated moving direction (unit), if any.
    pub direction: Option<Vec2>,
    /// Calibrated inter-antenna phase difference measurement, radians
    /// wrapped to `(−π, π]`, if both antennas reported.
    pub dtheta21: Option<f64>,
    /// Displacement estimate along the direction line, metres — the
    /// Fig. 12(b)×(c) intersection: each antenna's range change divided
    /// by the projection of its line-of-sight onto the moving direction.
    /// Falls back to the annulus lower bound when no direction is known.
    pub target_dist: f64,
}

/// Decoder tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HmmConfig {
    /// Cell edge, metres (accuracy/runtime trade-off).
    pub cell_m: f64,
    /// Carrier wavelength λ, metres: the one λ the whole tracker uses
    /// (emission table, distance bounds, Δθ²¹ calibration).
    pub wavelength_m: f64,
}

/// Log-score weight of the hyperbola term.
pub const HYPERBOLA_WEIGHT: f64 = 10.0;
/// Log-score weight of the direction-line term.
pub const DIRECTION_WEIGHT: f64 = 6.0;
/// Multiplicative log-penalty for candidates *behind* the moving
/// direction (Fig. 12(b) keeps only forward candidates).
pub const BACKWARD_PENALTY: f64 = 4.0;
/// Log-score weight pulling the decoded displacement toward the
/// phase-measured amount (the annulus lower bound). This is what keeps
/// a still pen still and a moving pen moving at its measured speed
/// despite cell quantization.
pub const DISTANCE_WEIGHT: f64 = 5.0;
/// Distance weight used when *no* direction estimate exists for the
/// step. Horizontal pen motion is nearly tangential to both antennas —
/// per-antenna phases stay flat and the step classifies as "still" —
/// but the inter-antenna difference Δθ^{2,1} still moves (its iso-lines
/// run mostly vertically). A softer anchor lets the hyperbola term drag
/// the track sideways in that regime.
pub const DISTANCE_WEIGHT_STILL: f64 = 1.5;

/// Beam width for the sparse Viterbi frontier (see [`decode`]).
pub const DEFAULT_BEAM_WIDTH: usize = 2500;

impl Default for HmmConfig {
    fn default() -> Self {
        HmmConfig { cell_m: 0.0025, wavelength_m: 0.3276 }
    }
}

/// ULP guard added on top of the exact `≤ radius + 1e-12` membership
/// epsilon when pre-filtering candidates on the *ideal* centre distance
/// `hypot(dx, dy)·cell`: actual centre differences deviate from the
/// ideal by a few ULPs of the board coordinates (≪ 1e-12 m), never by
/// this much. Offsets admitted by the prefilter still face the exact
/// per-cell check, so the stencil only ever over-approximates. The
/// exact kernel also skips that check for offsets whose ideal distance
/// clears every bound by more than this margin (see [`StepOffset`]).
const STENCIL_MARGIN_M: f64 = 1e-9;

/// One candidate offset of an [`AnnulusStencil`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StencilOffset {
    /// Cell offset along X.
    pub dx: i32,
    /// Cell offset along Y.
    pub dy: i32,
    /// Ideal centre-to-centre distance `hypot(dx, dy)·cell`, metres.
    pub ideal_dist_m: f64,
}

/// A radius-keyed table of candidate cell offsets: every `(dx, dy)`
/// whose ideal centre distance can pass the `≤ r_cells·cell` membership
/// check, in the row-major `(dy, dx)` order the historical
/// [`Grid::neighbourhood`] scan used. Replaces a per-frontier-cell
/// `Vec<usize>` allocation (plus one `sqrt` per visited cell) with a
/// reusable flat table; boundary clipping happens by index arithmetic
/// at use time.
#[derive(Debug, Clone)]
pub struct AnnulusStencil {
    cell_m: f64,
    r_cells: i32,
    offsets: Vec<StencilOffset>,
}

impl AnnulusStencil {
    /// Build the stencil for `r_cells` whole cells of reach on a grid
    /// with `cell_m` cell edge.
    pub fn new(cell_m: f64, r_cells: i32) -> AnnulusStencil {
        assert!(cell_m > 0.0, "cell size must be positive");
        let r_cells = r_cells.max(0);
        let reach = r_cells as f64 * cell_m + 1e-12 + STENCIL_MARGIN_M;
        let mut offsets = Vec::new();
        for dy in -r_cells..=r_cells {
            for dx in -r_cells..=r_cells {
                let ideal = f64::hypot(dx as f64, dy as f64) * cell_m;
                if ideal <= reach {
                    offsets.push(StencilOffset { dx, dy, ideal_dist_m: ideal });
                }
            }
        }
        AnnulusStencil { cell_m, r_cells, offsets }
    }

    /// The candidate offsets, row-major by `(dy, dx)`.
    pub fn offsets(&self) -> &[StencilOffset] {
        &self.offsets
    }

    /// Cell edge this stencil was built for, metres.
    pub fn cell_m(&self) -> f64 {
        self.cell_m
    }

    /// Reach in whole cells.
    pub fn r_cells(&self) -> i32 {
        self.r_cells
    }
}

/// Per-cell cache of [`expected_dtheta21`]: the emission's hyperbola
/// term depends only on the cell centre, the antenna positions, and the
/// wavelength, so one table (two 3-D norms per cell, built once) serves
/// every (frontier × candidate) pair of every decode on the same rig.
/// Values are the *exact* bits `expected_dtheta21` returns. The rig key
/// lives in the [`DecodeArtifacts`] entry that owns the table.
#[derive(Debug, Clone)]
pub struct EmissionTable {
    values: Vec<f64>,
}

impl EmissionTable {
    /// Precompute the expected Δθ²¹ for every cell of `grid`, on
    /// `workers` contiguous row bands (clamped to `1..=ny`).
    ///
    /// Runs row-batched over the SoA distance kernels
    /// ([`DthetaRowKernel`]): the cell-centre x coordinates are
    /// materialized once, each row hoists its `Δy²`/`Δz²` terms, and
    /// the per-cell `idx → (ix, iy)` divmod of [`Grid::center`]
    /// disappears entirely. Bands are disjoint `&mut` slices of one
    /// buffer — no per-row `Vec`, no merge copy. Every cell's value is
    /// **bit-identical** to `expected_dtheta21(grid.center(idx), …)` at
    /// any worker count — the row kernel's contract, pinned by
    /// `emission_table_matches_direct_computation` below and
    /// `tests/channel_batch.rs`.
    pub fn build(
        grid: &Grid,
        antennas: [Vec3; 2],
        wavelength_m: f64,
        workers: usize,
    ) -> EmissionTable {
        let nx = grid.nx;
        let mut values = vec![0.0; grid.len()];
        if nx == 0 {
            return EmissionTable { values };
        }
        let xs: Vec<f64> = centre_coords(grid.min.x, nx, grid.cell_m).collect();
        let fill = |lo: usize, band: &mut [f64]| {
            let mut kernel = DthetaRowKernel::new();
            for (r, row) in band.chunks_mut(nx).enumerate() {
                let y = grid.min.y + ((lo + r) as f64 + 0.5) * grid.cell_m;
                kernel.row(&xs, y, antennas, wavelength_m, row);
            }
        };
        let workers = workers.clamp(1, grid.ny.max(1));
        if workers == 1 {
            fill(0, &mut values);
        } else {
            std::thread::scope(|scope| {
                let mut rest = values.as_mut_slice();
                for w in 0..workers {
                    let (lo, hi) = rf_core::chunk_bounds(grid.ny, workers, w);
                    let (band, tail) = std::mem::take(&mut rest).split_at_mut((hi - lo) * nx);
                    rest = tail;
                    let fill = &fill;
                    scope.spawn(move || fill(lo, band));
                }
            });
        }
        EmissionTable { values }
    }

    /// The cached `expected_dtheta21` of a cell.
    #[inline]
    pub fn expected(&self, cell: usize) -> f64 {
        self.values[cell]
    }

    /// Number of cached cells.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// [`EmissionTable`] cast to `f32` for the tolerance kernel: same grid,
/// same per-cell expected Δθ²¹, one rounding per cell. Always derived
/// from the exact table — the cast *is* the spec
/// (`table32[c] == table64[c] as f32`), so the f32 kernel's emission
/// error is exactly one rounding, never a different computation.
#[derive(Debug, Clone)]
pub struct EmissionTableF32 {
    values: Vec<f32>,
}

impl EmissionTableF32 {
    /// Cast every cell of an exact table.
    pub fn from_table(table: &EmissionTable) -> EmissionTableF32 {
        EmissionTableF32 { values: table.values.iter().map(|&v| v as f32).collect() }
    }

    /// The cast `expected_dtheta21` of a cell.
    #[inline]
    pub fn expected(&self, cell: usize) -> f32 {
        self.values[cell]
    }

    /// Number of cached cells.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Shared decode artifacts for one rig — the process-wide unit of
/// sharing behind multi-session serving.
///
/// Keyed by the config fingerprint that determines every cached value:
/// the grid (board extent + cell size), the two antenna positions, and
/// the wavelength — exactly the fields [`matches`](Self::matches)
/// checks, and a subset of the fingerprint `polardraw.online.checkpoint.v1`
/// stores, so any checkpoint that restores against a config resolves to
/// the same artifact entry the original session used. The emission
/// table itself is built lazily (first step that carries a Δθ²¹
/// measurement) via `OnceLock`, row-parallel, and then shared by every
/// decoder on the rig through `Arc` — N sessions pay one build and one
/// table's memory instead of N.
#[derive(Debug)]
pub struct DecodeArtifacts {
    grid: Grid,
    antennas: [Vec3; 2],
    wavelength_m: f64,
    emission: OnceLock<Arc<EmissionTable>>,
    emission32: OnceLock<Arc<EmissionTableF32>>,
}

impl DecodeArtifacts {
    /// Whether this entry was built for exactly this rig.
    pub fn matches(&self, grid: &Grid, antennas: [Vec3; 2], wavelength_m: f64) -> bool {
        self.grid == *grid && self.antennas == antennas && self.wavelength_m == wavelength_m
    }

    /// The shared emission table, building it (row-parallel, bit-identical
    /// to the sequential build) on first use. Concurrent first callers
    /// race benignly: `OnceLock` keeps exactly one winner's table.
    ///
    /// The build uses up to 8 workers — it is a few ms of trig, more
    /// workers is all spawn overhead — clamped to the host, and runs
    /// sequentially below `PARALLEL_BUILD_MIN_CELLS`. Fanning out past
    /// the hardware only adds spawn cost: before this clamp the 8-worker
    /// build ran at 0.62× sequential on a 1-core host.
    pub fn emission(&self) -> &Arc<EmissionTable> {
        self.emission.get_or_init(|| {
            let available =
                std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
            let workers =
                if self.grid.len() < PARALLEL_BUILD_MIN_CELLS { 1 } else { available.min(8) };
            Arc::new(EmissionTable::build(&self.grid, self.antennas, self.wavelength_m, workers))
        })
    }

    /// The shared emission table if some decoder already built it.
    pub fn emission_if_built(&self) -> Option<&Arc<EmissionTable>> {
        self.emission.get()
    }

    /// The shared f32 cast of the emission table (the tolerance
    /// kernel's lookup), building the exact table first if needed.
    /// Cast once process-wide, shared by `Arc` like the exact table.
    pub fn emission_f32(&self) -> &Arc<EmissionTableF32> {
        self.emission32.get_or_init(|| Arc::new(EmissionTableF32::from_table(self.emission())))
    }

    /// Force-build everything this entry serves lazily — the exact
    /// emission table and its `f32` cast — right now, on the calling
    /// thread. The fleet front door invokes this when a *new* rig
    /// fingerprint first appears, so the cold-start build happens at
    /// session-admission time instead of on the first session's first
    /// measurement-bearing drain.
    pub fn prewarm(&self) {
        let _ = self.emission_f32();
    }

    /// The grid this entry is keyed on.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }
}

/// Cell-centre coordinates along one axis (`min` that axis's board
/// minimum, `n` its cell count), exactly as [`Grid::center`] computes
/// them.
fn centre_coords(min: f64, n: usize, cell_m: f64) -> impl Iterator<Item = f64> {
    (0..n).map(move |i| min + (i as f64 + 0.5) * cell_m)
}

/// Cells below which the row-parallel emission build cannot amortize
/// its scoped thread spawns: a ~33k-cell letter-rig table builds in
/// well under a millisecond sequentially, the same order as spawning a
/// worker.
const PARALLEL_BUILD_MIN_CELLS: usize = 32_768;

/// Cap on distinct rigs retained by the process-wide artifact cache.
/// Real deployments see one rig (or a handful); experiment sweeps churn
/// through reduced-fidelity grids, so eviction first drops entries no
/// session holds anymore.
const ARTIFACT_CACHE_CAP: usize = 32;

fn artifact_cache() -> &'static Mutex<Vec<Arc<DecodeArtifacts>>> {
    static CACHE: OnceLock<Mutex<Vec<Arc<DecodeArtifacts>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(Vec::new()))
}

/// The process-wide [`DecodeArtifacts`] entry for a rig, creating it on
/// first sight. Every [`FixedLagDecoder`] (so every batch [`decode`]
/// and every served fleet session) resolves its rig through here, so all of
/// them end up holding the *same* `Arc` — `Arc::strong_count` on the
/// returned entry counts the sessions sharing it (plus the cache's own
/// reference), which is what `tests/serve.rs` asserts for the
/// memory-sublinearity guarantee.
pub fn artifacts_for(grid: &Grid, antennas: [Vec3; 2], wavelength_m: f64) -> Arc<DecodeArtifacts> {
    let mut cache = artifact_cache().lock().expect("artifact cache poisoned");
    if let Some(entry) = cache.iter().find(|a| a.matches(grid, antennas, wavelength_m)) {
        return Arc::clone(entry);
    }
    if cache.len() >= ARTIFACT_CACHE_CAP {
        // Drop rigs nobody references anymore; live sessions keep their
        // entries alive through their own Arcs either way.
        cache.retain(|a| Arc::strong_count(a) > 1);
        if cache.len() >= ARTIFACT_CACHE_CAP {
            cache.remove(0);
        }
    }
    let entry = Arc::new(DecodeArtifacts {
        grid: *grid,
        antennas,
        wavelength_m,
        emission: OnceLock::new(),
        emission32: OnceLock::new(),
    });
    cache.push(Arc::clone(&entry));
    entry
}

fn stencil_store() -> &'static Mutex<Vec<Arc<AnnulusStencil>>> {
    static STORE: OnceLock<Mutex<Vec<Arc<AnnulusStencil>>>> = OnceLock::new();
    STORE.get_or_init(|| Mutex::new(Vec::new()))
}

/// The process-wide shared stencil for `(cell_m, r_cells)`, building it
/// on first sight. Stencils are pure functions of their key, so every
/// decoder on every thread shares one copy per radius key instead of
/// rebuilding (and separately storing) it per decoder.
pub fn shared_stencil(cell_m: f64, r_cells: i32) -> Arc<AnnulusStencil> {
    let r_cells = r_cells.max(0);
    let mut store = stencil_store().lock().expect("stencil store poisoned");
    if let Some(s) = store.iter().find(|s| s.cell_m() == cell_m && s.r_cells() == r_cells) {
        return Arc::clone(s);
    }
    if store.len() >= STENCIL_CACHE_CAP {
        store.retain(|s| Arc::strong_count(s) > 1);
        if store.len() >= STENCIL_CACHE_CAP {
            store.remove(0);
        }
    }
    let s = Arc::new(AnnulusStencil::new(cell_m, r_cells));
    store.push(Arc::clone(&s));
    s
}

/// Work counters from one decode, returned by [`decode`] and
/// [`FixedLagDecoder::stats`]:
/// how much the decoder actually did, not just how long it took.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DecodeStats {
    /// Observations decoded.
    pub steps: usize,
    /// Steps carried through unchanged because no candidate was
    /// feasible (inconsistent annulus / frontier collapse).
    pub carried_steps: usize,
    /// Candidate (frontier × annulus) pairs that entered scoring.
    pub expansions: u64,
    /// Candidates rejected by the hard annulus lower bound.
    pub pruned_below_min: u64,
    /// Scored cells dropped by beam truncation, summed over steps.
    pub pruned_beam: u64,
    /// Distinct cells scored, summed over steps.
    pub touched_cells: u64,
    /// Largest frontier entering any step.
    pub max_frontier: usize,
    /// Frontier sizes entering each step, summed.
    pub total_frontier: u64,
    /// Steps where the frontier-adaptive beam kept fewer cells than the
    /// plain beam truncation would have (0 unless [`AdaptiveBeam`] is
    /// enabled and actually engaged).
    pub adaptive_shrunk_steps: usize,
}

impl DecodeStats {
    /// Mean frontier size entering a step.
    pub fn mean_frontier(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.total_frontier as f64 / self.steps as f64
        }
    }
}

/// Cap on the process-wide shared stencil store (and on each decoder's
/// local memo of `Arc`s into it); decodes see a handful of distinct
/// radii, so this is only a guard against pathological inputs.
const STENCIL_CACHE_CAP: usize = 64;

/// Numeric precision of the beam kernel's inner loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelPrecision {
    /// The bit-exact kernel: every per-candidate `f64` score and work
    /// counter identical to [`viterbi_reference`]'s; the per-cell
    /// hyperbola term is computed once per step, distance tests the
    /// stencil already decides skip the distance, and every other
    /// candidate reads its distance from a memo of the same `hypot`s.
    /// The default.
    F64Exact,
    /// The fused `f32` kernel: per-step transition scores are
    /// precomputed per stencil offset in `f64` and cast once (they
    /// depend only on the offset, not on the frontier cell), emissions
    /// come from a cast [`EmissionTableF32`], and the inner loop is
    /// pure `f32` adds/compares — no `hypot`, no division, no exact
    /// angle wrap. Output is *not* bitwise-comparable to the reference;
    /// `tests/kernel_equivalence.rs` gates it with a quantitative
    /// tolerance oracle instead.
    F32Tolerance,
}

/// Frontier-adaptive beam: shrink the kept beam below the configured
/// width on steps where the score mass concentrates.
///
/// After scoring, only cells within `margin` of the step's best score
/// are kept (never fewer than `min_keep`, never more than the
/// configured beam). On well-conditioned steps the posterior is sharply
/// unimodal — the surviving path rides near the top of the beam and the
/// tail the full beam drags along is pure decode cost; `margin` is the
/// log-score deficit at which a cell is considered unrecoverable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveBeam {
    /// Keep cells scoring within this log-score distance of the best.
    pub margin: f64,
    /// Never shrink the kept beam below this many cells.
    pub min_keep: usize,
}

impl Default for AdaptiveBeam {
    fn default() -> Self {
        AdaptiveBeam { margin: 8.0, min_keep: 128 }
    }
}

/// Beam-kernel configuration: inner-loop precision and adaptive beam.
/// The default is the bit-exact contract (`F64Exact`, no adaptive
/// shrink); every other combination is an explicit opt-in that trades
/// bitwise reproducibility or beam completeness for speed, gated by the
/// tolerance harness in `tests/kernel_equivalence.rs`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelOptions {
    /// Inner-loop precision.
    pub precision: KernelPrecision,
    /// Frontier-adaptive beam shrink, off by default.
    pub adaptive: Option<AdaptiveBeam>,
}

impl Default for KernelOptions {
    fn default() -> Self {
        KernelOptions { precision: KernelPrecision::F64Exact, adaptive: None }
    }
}

impl KernelOptions {
    /// The bit-exact default kernel.
    pub fn exact() -> KernelOptions {
        KernelOptions::default()
    }

    /// The tolerance-gated fast kernel: `f32` inner loop plus the
    /// default adaptive beam.
    pub fn fast() -> KernelOptions {
        KernelOptions {
            precision: KernelPrecision::F32Tolerance,
            adaptive: Some(AdaptiveBeam::default()),
        }
    }

    /// This kernel with the given adaptive-beam setting.
    pub fn with_adaptive(mut self, adaptive: Option<AdaptiveBeam>) -> KernelOptions {
        self.adaptive = adaptive;
        self
    }
}

/// Where a stencil offset falls against one step's distance bounds:
/// beyond the exact reach, inside the annulus hard lower bound, or
/// scored. The order of the two tests is the kernels' order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OffsetClass {
    Beyond,
    BelowMin,
    Scored,
}

impl OffsetClass {
    #[inline]
    fn of(d: f64, exact_reach: f64, hard_min: f64) -> OffsetClass {
        if d > exact_reach {
            OffsetClass::Beyond
        } else if d < hard_min {
            OffsetClass::BelowMin
        } else {
            OffsetClass::Scored
        }
    }
}

/// One prefilter-trimmed stencil offset, classified once per step on
/// its ideal distance. Both precisions read the class: the f32 plan
/// takes it as the answer, and the exact kernel takes it whenever
/// `settled` says the actual centre distance must land in the same
/// class.
#[derive(Debug, Clone, Copy)]
struct StepOffset {
    dx: i32,
    dy: i32,
    ideal_dist_m: f64,
    class: OffsetClass,
    /// The ideal distance lies more than [`STENCIL_MARGIN_M`] from both
    /// bounds and from the `d > 1e-12` direction-term threshold (or is
    /// exactly 0, the zero offset, whose actual distance is exactly 0
    /// too), and the step is directional, so nothing else reads `d`.
    /// Actual centre distances deviate from the ideal by far less than
    /// the margin, so every test on the actual `d` is already decided
    /// and the exact kernel skips the memo read.
    settled: bool,
    /// Where this offset's actual centre distances sit in the exact
    /// kernel's [`DistanceMemo`]; filled on steps that read it.
    memo: MemoRef,
}

/// Trim `stencil` to the step's `prefilter_reach` and classify each
/// surviving offset against `exact_reach`/`hard_min` (see
/// [`StepOffset`]). Offsets settle only when `settle` is set: the
/// step is directional (on still steps `d` is the distance term
/// itself) and the board is small enough for the margin argument.
fn classify_offsets(
    stencil: &AnnulusStencil,
    prefilter_reach: f64,
    exact_reach: f64,
    hard_min: f64,
    settle: bool,
    out: &mut Vec<StepOffset>,
) {
    out.clear();
    out.extend(stencil.offsets().iter().filter(|o| o.ideal_dist_m <= prefilter_reach).map(|o| {
        let d = o.ideal_dist_m;
        let clear = |bound: f64| (d - bound).abs() > STENCIL_MARGIN_M;
        StepOffset {
            dx: o.dx,
            dy: o.dy,
            ideal_dist_m: d,
            class: OffsetClass::of(d, exact_reach, hard_min),
            settled: settle
                && clear(exact_reach)
                && clear(hard_min)
                && (d == 0.0 || d > 1e-12 + STENCIL_MARGIN_M),
            memo: MemoRef::default(),
        }
    }));
}

/// One stencil offset of the f32 kernel's per-step plan: everything
/// about the transition score that does not depend on the frontier cell
/// — the distance-consistency term, the direction-line term, and the
/// backward penalty are all functions of `(dx, dy)` alone — collapsed
/// into one fused `f32` addend computed once per step in `f64`.
#[derive(Debug, Clone, Copy)]
struct TransOffset32 {
    dx: i32,
    dy: i32,
    trans: f32,
}

/// `wrap_pi` for the f32 kernel: valid for inputs in `(−2π, 2π)` — the
/// range a difference of two wrapped angles can reach — using one
/// compare-and-subtract per side instead of the exact path's
/// `rem_euclid`. Maps onto `(−π, π]` like the exact wrap.
#[inline]
fn wrap_pi_f32(mut w: f32) -> f32 {
    if w > std::f32::consts::PI {
        w -= std::f32::consts::TAU;
    }
    if w <= -std::f32::consts::PI {
        w += std::f32::consts::TAU;
    }
    w
}

/// The distinct centre differences along one axis: for every cell
/// offset `k` in `−r..=r`, the values `c[i + k] − c[i]` takes over the
/// axis's centre coordinates `c`, and which of them each cell `i` sees.
/// Centres sit on a regular lattice, so an offset's differences agree
/// up to a few ULPs of the coordinates and take a handful of distinct
/// values — how many depends on the axis and the offset, so the count
/// is per offset and unbounded.
#[derive(Debug, Default)]
struct AxisDeltas {
    n: usize,
    r: i32,
    /// `classes[(k + r)·n + i]` is the index, within offset `k`'s
    /// values, of `c[i + k] − c[i]` (0 where `i + k` is off the axis).
    classes: Vec<u32>,
    /// Offset `k`'s distinct differences, in first-seen order, are
    /// `values[starts[k + r]..starts[k + r + 1]]`.
    values: Vec<f64>,
    starts: Vec<usize>,
}

impl AxisDeltas {
    fn build(coords: &[f64], r: i32) -> AxisDeltas {
        let n = coords.len();
        let mut classes = vec![0u32; (2 * r as usize + 1) * n];
        let mut values = Vec::new();
        let mut starts = vec![0];
        for k in -r..=r {
            let (row, first) = ((k + r) as usize * n, values.len());
            for (i, &c) in coords.iter().enumerate() {
                let Some(&to) = i.checked_add_signed(k as isize).and_then(|j| coords.get(j)) else {
                    continue;
                };
                let v = to - c;
                let seen = values[first..].iter().position(|u: &f64| u.to_bits() == v.to_bits());
                classes[row + i] = seen.unwrap_or_else(|| {
                    values.push(v);
                    values.len() - 1 - first
                }) as u32;
            }
            starts.push(values.len());
        }
        AxisDeltas { n, r, classes, values, starts }
    }

    /// Offset `k`'s distinct differences.
    fn values(&self, k: i32) -> &[f64] {
        let k = (k + self.r) as usize;
        &self.values[self.starts[k]..self.starts[k + 1]]
    }

    /// Start of offset `k`'s row in `classes`.
    fn row(&self, k: i32) -> usize {
        (k + self.r) as usize * self.n
    }
}

/// Where one stencil offset's distances sit in a [`DistanceMemo`].
#[derive(Debug, Clone, Copy, Default)]
struct MemoRef {
    /// Start of the offset's `dx` row in the x classes.
    x_row: usize,
    /// Start of the offset's `dy` row in the y classes.
    y_row: usize,
    /// Start of the offset's block in [`DistanceMemo::dist`].
    block: usize,
    /// Distinct y differences at `dy` (the block's row stride).
    y_count: usize,
}

/// The exact kernel's centre-distance memo. A candidate's distance is
/// `Vec2::norm` of its actual centre differences, and along each axis
/// those take only a few distinct values per offset ([`AxisDeltas`]),
/// so the memo holds that `norm` once per (offset, x value, y value):
/// the same call on the same difference bits the reference makes per
/// candidate, so a lookup returns the reference's `d` bit for bit.
/// Built for offsets up to `r` cells on each axis the first time a
/// step reads it, and rebuilt wider when a step's stencil outgrows it.
#[derive(Debug, Default)]
struct DistanceMemo {
    r: i32,
    x: AxisDeltas,
    y: AxisDeltas,
    /// Start in `dist` of offset `(dx, dy)`'s block, at
    /// `(dy + r)·(2r + 1) + dx + r`. A block holds the distance of every
    /// (x value, y value) pair of the offset, x value major.
    blocks: Vec<usize>,
    dist: Vec<f64>,
}

impl DistanceMemo {
    /// Make the memo cover offsets up to `r` cells on a grid whose
    /// centre coordinates are `xs` and `ys` (fixed for a decoder).
    fn cover(&mut self, xs: &[f64], ys: &[f64], r: i32) {
        if !self.blocks.is_empty() && self.r >= r {
            return;
        }
        let (x, y) = (AxisDeltas::build(xs, r), AxisDeltas::build(ys, r));
        let mut blocks = Vec::with_capacity((2 * r as usize + 1).pow(2));
        let mut dist = Vec::new();
        for dy in -r..=r {
            for dx in -r..=r {
                blocks.push(dist.len());
                for &vx in x.values(dx) {
                    dist.extend(y.values(dy).iter().map(|&vy| Vec2::new(vx, vy).norm()));
                }
            }
        }
        *self = DistanceMemo { r, x, y, blocks, dist };
    }

    /// Point `off` at its block.
    fn resolve(&self, off: &mut StepOffset) {
        let side = 2 * self.r + 1;
        off.memo = MemoRef {
            x_row: self.x.row(off.dx),
            y_row: self.y.row(off.dy),
            block: self.blocks[((off.dy + self.r) * side + off.dx + self.r) as usize],
            y_count: self.y.values(off.dy).len(),
        };
    }

    /// `‖c_to − c_from‖` for the candidate at the offset `m` points at,
    /// from the cell in column `ix0`, row `iy0`.
    #[inline]
    fn distance(&self, m: &MemoRef, ix0: usize, iy0: usize) -> f64 {
        let cx = self.x.classes[m.x_row + ix0] as usize;
        let cy = self.y.classes[m.y_row + iy0] as usize;
        self.dist[m.block + cx * m.y_count + cy]
    }
}

/// Buffers of one beam step, owned by the decoder. Split out so the
/// step functions can borrow the whole kit in one piece alongside the
/// decoder's frontier and the frame it fills.
#[derive(Debug, Default)]
struct KernelScratch {
    /// Dense per-cell best score this step (`F64Exact`), reset via
    /// `touched`.
    scores: Vec<f64>,
    /// Dense per-cell best score this step (`F32Tolerance`).
    scores32: Vec<f32>,
    /// Dense per-cell best predecessor this step, written when a cell
    /// is first scored; read only for beam cells, so it needs no reset.
    preds: Vec<u32>,
    /// Dense per-cell hyperbola term this step (`F64Exact`), written
    /// when a cell is first scored; valid exactly where `scores` is not
    /// `NEG_INFINITY`, so the `scores` reset retires it too.
    hyper: Vec<f64>,
    /// The same memo for `F32Tolerance`, valid where `scores32` is not
    /// `NEG_INFINITY`.
    hyper32: Vec<f32>,
    /// Cells written this step (the reset list).
    touched: Vec<u32>,
    /// Stencil offsets trimmed to the current step's radius and
    /// classified against its bounds.
    step_offsets: Vec<StepOffset>,
    /// Cell-centre x of every column and y of every row (the
    /// [`Grid::center`] formula, evaluated once per step instead of
    /// twice per candidate).
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Actual centre distances by offset and delta class (exact
    /// kernel, built on the first step with an unsettled offset).
    memo: DistanceMemo,
    /// Fused per-offset transition scores of the f32 step plan.
    trans32: Vec<TransOffset32>,
    /// Offsets inside the annulus hard lower bound (f32 plan), kept so
    /// the work counters keep the exact kernel's meaning.
    rejected32: Vec<(i32, i32)>,
    /// Packed beam keys of the scored cells ([`ScoreLane::key`]), one
    /// buffer per lane width: the beam cut sorts these plain integers.
    keys32: Vec<u64>,
    keys64: Vec<u128>,
    /// Radius-keyed local memo of [`shared_stencil`] handles — the hot
    /// loop resolves a radius without touching the global mutex.
    stencils: Vec<Arc<AnnulusStencil>>,
}

/// Find the locally memoized handle for `(cell_m, r_cells)`, going to
/// the process-wide [`shared_stencil`] store on a local miss — repeated
/// radius keys across sessions and trials are deduplicated once, not
/// per decoder.
fn cached_stencil(stencils: &mut Vec<Arc<AnnulusStencil>>, cell_m: f64, r_cells: i32) -> usize {
    if let Some(i) =
        stencils.iter().position(|s| s.cell_m() == cell_m && s.r_cells() == r_cells)
    {
        return i;
    }
    if stencils.len() >= STENCIL_CACHE_CAP {
        stencils.clear();
    }
    stencils.push(shared_stencil(cell_m, r_cells));
    stencils.len() - 1
}

/// The canonical beam total order the decoder and the reference share:
/// score descending, cell index ascending. Cell indices are unique, so this
/// is a strict total order — beam truncation and frontier iteration are
/// deterministic and implementation-independent.
fn beam_order(a: &(u32, f64), b: &(u32, f64)) -> Ordering {
    b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0))
}

/// Viterbi decoding of the cell sequence, with a sparse beam frontier.
///
/// * `grid` — the state space.
/// * `antennas` — the two antenna positions.
/// * `start` — initial position estimate (the paper bootstraps from an
///   arbitrary point on a measured hyperbola; relative trajectories are
///   evaluated Procrustes-style so the translation washes out).
/// * `steps` — one observation per window transition.
/// * `beam_width` — cells kept per step (clamped to ≥ 8).
/// * `kernel` — inner-loop precision and adaptive beam.
///
/// Exact Viterbi over the full grid would cost `steps × cells ×
/// annulus`; since the posterior is sharply unimodal (the pen is one
/// object), we keep only the best `beam_width` cells per step
/// ([`DEFAULT_BEAM_WIDTH`] in the pipeline). This is the standard beam
/// approximation; the paper's linear-time claim (§3.5) corresponds to
/// the same pruned regime.
///
/// Runs a [`FixedLagDecoder`] with unbounded lag and backtracks once at
/// the end. Returns one position per step (the position *after* each
/// step) and the decode's work counters.
pub fn decode(
    grid: &Grid,
    antennas: [Vec3; 2],
    start: Vec2,
    steps: &[StepObservation],
    config: &HmmConfig,
    beam_width: usize,
    kernel: KernelOptions,
) -> (Vec<Vec2>, DecodeStats) {
    let mut decoder = FixedLagDecoder::new(*grid, antennas, start, *config, beam_width, usize::MAX);
    decoder.set_kernel(kernel);
    for obs in steps {
        decoder.step(obs);
    }
    let stats = decoder.stats();
    (decoder.finish(), stats)
}

/// The backtrack root: the frontier cell with the maximal score,
/// resolving exact score ties to the *last* entry in canonical order —
/// the element `Iterator::max_by` returned on the historical
/// `(cell, score)` pair representation, preserved bit-for-bit.
fn best_frontier_cell(cells: &[u32], scores: &[f64]) -> u32 {
    let mut best: Option<(u32, f64)> = None;
    for (i, &c) in cells.iter().enumerate() {
        let s = scores[i];
        match best {
            Some((_, bs)) if bs.total_cmp(&s) == Ordering::Greater => {}
            _ => best = Some((c, s)),
        }
    }
    best.map(|(c, _)| c).unwrap_or(0)
}

/// Read-only scoring context of one exact-kernel step.
struct StepCtx<'a> {
    grid: &'a Grid,
    obs: &'a StepObservation,
    /// The step's Δθ²¹ measurement and the rig's emission table, on
    /// hyperbola steps.
    emission: Option<(f64, &'a EmissionTable)>,
    exact_reach: f64,
    hard_min: f64,
    target: f64,
    dmax: f64,
}

/// The bit-exact `f64` expansion of the frontier, writing dense maps
/// under the first-wins strict-improvement rule.
///
/// Every score and counter has the bits [`viterbi_reference`] computes,
/// but no candidate calls libm:
///
/// * the hyperbola term `w·|wrap_pi(meas − expected(to))|/π` depends on
///   the target cell alone, so it is evaluated once, when `to` is first
///   scored this step, into the `hyper` lane; later candidates for `to`
///   read the same value back instead of redoing the `fmod`;
/// * the distance tests take the step's per-offset classification
///   whenever it has [`settled`](StepOffset::settled) the offset: an
///   actual centre distance differs from the ideal one by far less than
///   [`STENCIL_MARGIN_M`], so an ideal distance farther than that from
///   every threshold decides each test the actual `d` would, and on
///   directional steps nothing else reads `d`;
/// * every other candidate — all of a still step's, where `d` is the
///   distance term itself, and those of offsets near a bound — reads
///   `d` from the [`DistanceMemo`]: `Vec2::norm` of the candidate's own
///   centre differences, evaluated once per distinct pair of difference
///   bits instead of once per candidate, so the value is the one the
///   reference's `hypot` returns.
///
/// All other arithmetic is the reference's, operation for operation.
///
/// Kept out of line, like [`expand_f32`]: inlined into its one caller,
/// `advance_frontier`, each expansion loop ran 10–15% slower.
#[inline(never)]
fn expand_f64(
    ctx: &StepCtx<'_>,
    ks: &mut KernelScratch,
    frontier_cells: &[u32],
    frontier_scores: &[f64],
    stats: &mut DecodeStats,
) {
    let KernelScratch { scores, preds, hyper, touched, step_offsets, xs, ys, memo, .. } = ks;
    let (scores, preds, hyper) = (&mut scores[..], &mut preds[..], &mut hyper[..]);
    let (step_offsets, xs, ys) = (&step_offsets[..], &xs[..], &ys[..]);
    let grid = ctx.grid;
    let obs = ctx.obs;
    let nx = grid.nx as i64;
    let ny = grid.ny as i64;
    for (i, &from) in frontier_cells.iter().enumerate() {
        let s_from = frontier_scores[i];
        let from_us = from as usize;
        let ix0 = from_us % grid.nx;
        let iy0 = from_us / grid.nx;
        let (x0, y0) = (xs[ix0], ys[iy0]);
        for off in step_offsets.iter() {
            let ix = ix0 as i64 + off.dx as i64;
            let iy = iy0 as i64 + off.dy as i64;
            if ix < 0 || iy < 0 || ix >= nx || iy >= ny {
                continue;
            }
            let (ix, iy) = (ix as usize, iy as usize);
            let to = iy * grid.nx + ix;
            // `c_to − c_from` on the centre bits `Grid::center` gives.
            let delta = Vec2::new(xs[ix] - x0, ys[iy] - y0);
            let (d, class) = if off.settled {
                (off.ideal_dist_m, off.class)
            } else {
                let d = memo.distance(&off.memo, ix0, iy0);
                (d, OffsetClass::of(d, ctx.exact_reach, ctx.hard_min))
            };
            match class {
                OffsetClass::Beyond => continue,
                OffsetClass::BelowMin => {
                    stats.expansions += 1;
                    stats.pruned_below_min += 1;
                    continue;
                }
                OffsetClass::Scored => stats.expansions += 1,
            }
            // Scores are always finite, so NEG_INFINITY marks
            // "untouched" on its own (same outcome as the
            // reference's joint (score, pred) sentinel check).
            let first = scores[to] == f64::NEG_INFINITY;
            if first {
                touched.push(to as u32);
            }
            let mut s = s_from;
            // Hyperbola term (Fig. 12(c)).
            if let Some((meas, table)) = ctx.emission {
                if first {
                    let err = wrap_pi(meas - table.expected(to)).abs() / std::f64::consts::PI;
                    hyper[to] = HYPERBOLA_WEIGHT * err;
                }
                s -= hyper[to];
            }
            // Distance-consistency term: decoded step length should
            // match the phase-measured displacement.
            let (d_along, w_dist) = match obs.direction {
                Some(dir) => (dir.dot(delta), DISTANCE_WEIGHT),
                None => (d, DISTANCE_WEIGHT_STILL),
            };
            s -= w_dist * ((d_along - ctx.target).abs() / ctx.dmax).min(2.0);
            // Direction-line term (Fig. 12(b)).
            if let Some(dir) = obs.direction {
                if d > 1e-12 {
                    let perp = dir.cross(delta).abs();
                    s -= DIRECTION_WEIGHT * (perp / ctx.dmax).min(2.0);
                    if dir.dot(delta) < 0.0 {
                        s -= BACKWARD_PENALTY;
                    }
                }
            }
            let best = &mut scores[to];
            if s > *best {
                *best = s;
                preds[to] = from;
            }
        }
    }
}

/// Build the f32 kernel's per-step plan from the step's offset
/// classification: each scored offset gets its fused transition score
/// (distance + direction + backward terms, none of which depend on the
/// frontier cell — computed once in `f64` on the *ideal* offset
/// geometry, cast once), each offset inside the annulus hard lower
/// bound a rejection entry, and offsets beyond the step's reach are
/// dropped, mirroring the exact kernel's pre-count skip.
fn build_f32_plan(
    obs: &StepObservation,
    cell_m: f64,
    step_offsets: &[StepOffset],
    target: f64,
    dmax: f64,
    trans32: &mut Vec<TransOffset32>,
    rejected32: &mut Vec<(i32, i32)>,
) {
    trans32.clear();
    rejected32.clear();
    for off in step_offsets.iter() {
        match off.class {
            OffsetClass::Beyond => continue,
            OffsetClass::BelowMin => {
                rejected32.push((off.dx, off.dy));
                continue;
            }
            OffsetClass::Scored => {}
        }
        let d = off.ideal_dist_m;
        let delta = Vec2::new(off.dx as f64 * cell_m, off.dy as f64 * cell_m);
        let mut s = 0.0f64;
        let (d_along, w_dist) = match obs.direction {
            Some(dir) => (dir.dot(delta), DISTANCE_WEIGHT),
            None => (d, DISTANCE_WEIGHT_STILL),
        };
        s -= w_dist * ((d_along - target).abs() / dmax).min(2.0);
        if let Some(dir) = obs.direction {
            if d > 1e-12 {
                let perp = dir.cross(delta).abs();
                s -= DIRECTION_WEIGHT * (perp / dmax).min(2.0);
                if dir.dot(delta) < 0.0 {
                    s -= BACKWARD_PENALTY;
                }
            }
        }
        trans32.push(TransOffset32 { dx: off.dx, dy: off.dy, trans: s as f32 });
    }
}

/// The fused `f32` expansion of the frontier: per candidate, a bounds
/// check, one add of the offset's fused transition score, and (for
/// hyperbola steps) one subtraction of the target's hyperbola term —
/// no `hypot`, no division, no per-candidate geometry. Like the exact
/// kernel's, the term `w·|wrap_pi_f32(meas − expected(to))|/π` depends
/// on the target alone: it is evaluated from the cast table, with the
/// cheap `f32` wrap, when `to` is first scored this step, into the
/// `hyper32` lane, and every later candidate for `to` subtracts the
/// stored product, so each score keeps its bits. The rejected-offset
/// pass keeps `expansions`/`pruned_below_min` meaning what they mean in
/// the exact kernel: in-bounds candidates seen, in-bounds candidates
/// under the hard annulus bound.
#[inline(never)]
fn expand_f32(
    grid: &Grid,
    hyper: Option<(f32, f32, &EmissionTableF32)>,
    ks: &mut KernelScratch,
    frontier_cells: &[u32],
    frontier_scores: &[f64],
    stats: &mut DecodeStats,
) {
    let KernelScratch { scores32, preds, hyper32, touched, trans32, rejected32, .. } = ks;
    let (scores32, preds, hyper32) = (&mut scores32[..], &mut preds[..], &mut hyper32[..]);
    let (trans32, rejected32) = (&trans32[..], &rejected32[..]);
    let nx = grid.nx as i64;
    let ny = grid.ny as i64;
    let nxu = grid.nx;
    for (i, &from) in frontier_cells.iter().enumerate() {
        let from_us = from as usize;
        let ix0 = (from_us % nxu) as i64;
        let iy0 = (from_us / nxu) as i64;
        let s_from = frontier_scores[i] as f32;
        let mut seen = 0u64;
        for t in trans32.iter() {
            let ix = ix0 + t.dx as i64;
            let iy = iy0 + t.dy as i64;
            if ix < 0 || iy < 0 || ix >= nx || iy >= ny {
                continue;
            }
            seen += 1;
            let to = iy as usize * nxu + ix as usize;
            let best = &mut scores32[to];
            if *best == f32::NEG_INFINITY {
                touched.push(to as u32);
                if let Some((meas, weight, table)) = hyper {
                    let err = wrap_pi_f32(meas - table.expected(to)).abs()
                        * std::f32::consts::FRAC_1_PI;
                    hyper32[to] = weight * err;
                }
            }
            let mut s = s_from + t.trans;
            if hyper.is_some() {
                s -= hyper32[to];
            }
            if s > *best {
                *best = s;
                preds[to] = from;
            }
        }
        stats.expansions += seen;
        for &(dx, dy) in rejected32.iter() {
            let ix = ix0 + dx as i64;
            let iy = iy0 + dy as i64;
            if ix >= 0 && iy >= 0 && ix < nx && iy < ny {
                stats.expansions += 1;
                stats.pruned_below_min += 1;
            }
        }
    }
}

/// Grow a first-touch lane (the hyperbola memos, `preds`) to `n` cells.
/// An entry is only read after the same step wrote it, so the lane
/// needs no initial value: a fresh zeroed allocation leaves its pages
/// untouched until cells are scored.
fn grow_memo_lane<T: Copy + Default>(lane: &mut Vec<T>, n: usize) {
    if lane.len() < n {
        *lane = vec![T::default(); n];
    }
}

/// Grow a dense per-cell lane to `n` cells, new entries `fill`.
fn grow_lane<T: Copy>(lane: &mut Vec<T>, n: usize, fill: T) {
    if lane.len() < n {
        lane.resize(n, fill);
    }
}

/// One step's kernel precision with its resolved hyperbola input: the
/// Δθ²¹ measurement and the rig's emission table at that precision, or
/// `None` on steps without a measurement.
enum StepEmission<'a> {
    F64(Option<(f64, &'a EmissionTable)>),
    /// Measurement, hyperbola weight and cast table — `expand_f32`'s
    /// `hyper`.
    F32(Option<(f32, f32, &'a EmissionTableF32)>),
}

/// A dense per-cell score lane: `f64` for the exact kernel, `f32` for
/// the tolerance kernel. The beam selection after expansion is written
/// once over this trait, and every comparison and subtraction in it
/// runs at the lane's own type.
trait ScoreLane: Copy + PartialOrd {
    /// The packed beam key: an unsigned integer one lane width plus 32
    /// bits wide.
    type Key: Copy + Ord;
    /// The "not scored this step" marker; real scores are finite.
    const UNSCORED: Self;
    fn max(self, other: Self) -> Self;
    /// `self − margin`, the margin cast to the lane type first.
    fn minus(self, margin: f64) -> Self;
    /// The exact `f64` embedding the frontier stores.
    fn widen(self) -> f64;
    /// `(self, cell)` packed so that ascending keys are exactly
    /// [`beam_order`]: the score's order-preserving bits (the order
    /// `total_cmp` uses), inverted so higher scores come first, above
    /// the cell index.
    fn key(self, cell: u32) -> Self::Key;
    /// The cell index of a packed key.
    fn key_cell(key: Self::Key) -> u32;
    /// This lane's dense score map in `ks`, alongside the predecessor
    /// map, the touched list and the lane's key buffer.
    #[allow(clippy::type_complexity)]
    fn split(
        ks: &mut KernelScratch,
    ) -> (&mut [Self], &mut [u32], &mut Vec<u32>, &mut Vec<Self::Key>);
}

// One body for both lanes: `margin as $t` and `self as f64` are the
// identity on `f64`, so each lane does exactly its kernel's arithmetic.
macro_rules! score_lane {
    ($($t:ty => $field:ident, $keys:ident: $k:ty),*) => {$(
        impl ScoreLane for $t {
            type Key = $k;
            const UNSCORED: $t = <$t>::NEG_INFINITY;
            fn max(self, other: $t) -> $t {
                <$t>::max(self, other)
            }
            fn minus(self, margin: f64) -> $t {
                self - margin as $t
            }
            fn widen(self) -> f64 {
                self as f64
            }
            fn key(self, cell: u32) -> $k {
                // −0.0 is the sign bit alone. Flipping every bit of a
                // negative and setting the sign bit of a positive orders
                // the bits as unsigned integers the way `total_cmp`
                // orders the floats.
                let (bits, sign) = (self.to_bits(), <$t>::to_bits(-0.0));
                let ordered = if bits & sign != 0 { !bits } else { bits | sign };
                ((!ordered as $k) << 32) | cell as $k
            }
            fn key_cell(key: $k) -> u32 {
                key as u32
            }
            fn split(
                ks: &mut KernelScratch,
            ) -> (&mut [$t], &mut [u32], &mut Vec<u32>, &mut Vec<$k>) {
                (&mut ks.$field, &mut ks.preds, &mut ks.touched, &mut ks.$keys)
            }
        }
    )*};
}
score_lane!(f32 => scores32, keys32: u64, f64 => scores, keys64: u128);

/// One Viterbi step over the sparse beam frontier: scores every
/// (frontier × stencil) candidate at the step's precision, truncates
/// to the (possibly adaptive) beam under the canonical order, writes
/// the step's backpointers into `frame` (overwriting whatever a
/// recycled frame held), and installs the new frontier into the SoA
/// `frontier_cells`/`frontier_scores` pair. This is *the* hot loop of
/// [`FixedLagDecoder::step`].
///
/// Does not touch `stats.steps` — callers own the step count.
#[allow(clippy::too_many_arguments)]
fn advance_frontier(
    grid: &Grid,
    beam_width: usize,
    adaptive: Option<AdaptiveBeam>,
    obs: &StepObservation,
    emission: StepEmission<'_>,
    ks: &mut KernelScratch,
    frontier_cells: &mut Vec<u32>,
    frontier_scores: &mut Vec<f64>,
    frame: &mut BeamFrame,
    stats: &mut DecodeStats,
) {
    let n = grid.len();
    frame.cells.clear();
    frame.prevs.clear();
    stats.total_frontier += frontier_cells.len() as u64;
    stats.max_frontier = stats.max_frontier.max(frontier_cells.len());

    let max_r = obs.region.max_dist.max(grid.cell_m);
    let dmax = max_r;
    let target = obs.target_dist.min(obs.region.max_dist);
    // Outlier suppression: a candidate well below the (already
    // noise-compensated) lower bound is rejected outright — Eq. 8's
    // hard annulus with generous quantization slack.
    let hard_min = obs.region.min_dist - 2.0 * grid.cell_m;
    // The exact membership rule `neighbourhood` applies, plus the
    // ULP-safe prefilter bound on the ideal offset distance.
    let exact_reach = max_r + 1e-12;
    let prefilter_reach = exact_reach + STENCIL_MARGIN_M;

    let si = cached_stencil(&mut ks.stencils, grid.cell_m, grid.radius_cells(max_r));
    // Trim the stencil to this step's radius and classify it once, so
    // the per-pair loop carries no prefilter branch and both precisions
    // read one classification.
    // Settling trusts actual centre distances to stay within the margin
    // of the ideal ones. Their error is a few ULPs of the board
    // coordinates, so this holds for any board within tens of
    // kilometres of the origin; checked here rather than assumed.
    let coord_scale = grid.min.x.abs().max(grid.min.y.abs())
        + (grid.nx.max(grid.ny) as f64 + 1.0) * grid.cell_m;
    let settle = obs.direction.is_some()
        && coord_scale * 64.0 * f64::EPSILON < STENCIL_MARGIN_M;
    let (stencil, offsets) = (&ks.stencils[si], &mut ks.step_offsets);
    classify_offsets(stencil, prefilter_reach, exact_reach, hard_min, settle, offsets);

    grow_memo_lane(&mut ks.preds, n);
    match emission {
        StepEmission::F64(emission) => {
            ks.xs.clear();
            ks.xs.extend(centre_coords(grid.min.x, grid.nx, grid.cell_m));
            ks.ys.clear();
            ks.ys.extend(centre_coords(grid.min.y, grid.ny, grid.cell_m));
            if ks.step_offsets.iter().any(|o| !o.settled) {
                ks.memo.cover(&ks.xs, &ks.ys, ks.stencils[si].r_cells());
                for off in ks.step_offsets.iter_mut() {
                    ks.memo.resolve(off);
                }
            }
            grow_lane(&mut ks.scores, n, f64::NEG_INFINITY);
            if emission.is_some() {
                grow_memo_lane(&mut ks.hyper, n);
            }
            let ctx = StepCtx { grid, obs, emission, exact_reach, hard_min, target, dmax };
            expand_f64(&ctx, ks, frontier_cells, frontier_scores, stats);
            select_beam::<f64>(
                ks, beam_width, adaptive, frontier_cells, frontier_scores, frame, stats,
            );
        }
        StepEmission::F32(hyper) => {
            let KernelScratch { step_offsets, trans32, rejected32, .. } = ks;
            let cell_m = grid.cell_m;
            build_f32_plan(obs, cell_m, step_offsets, target, dmax, trans32, rejected32);
            grow_lane(&mut ks.scores32, n, f32::NEG_INFINITY);
            if hyper.is_some() {
                grow_memo_lane(&mut ks.hyper32, n);
            }
            expand_f32(grid, hyper, ks, frontier_cells, frontier_scores, stats);
            select_beam::<f32>(
                ks, beam_width, adaptive, frontier_cells, frontier_scores, frame, stats,
            );
        }
    }
}

/// The lane-generic tail of a beam step. Keeps the scored (`touched`)
/// cells' top `eff_beam` under the canonical order — score descending
/// via the `L` lane, cell index ascending — where `eff_beam` is the
/// configured width, shrunk to the within-margin set when the adaptive
/// beam is on and the score mass concentrates. Writes them with their
/// predecessors into `frame`, installs them as the new SoA frontier,
/// and resets the score lane through `touched`. A step that
/// scored nothing carries the frontier through unchanged.
fn select_beam<L: ScoreLane>(
    ks: &mut KernelScratch,
    beam_width: usize,
    adaptive: Option<AdaptiveBeam>,
    frontier_cells: &mut Vec<u32>,
    frontier_scores: &mut Vec<f64>,
    frame: &mut BeamFrame,
    stats: &mut DecodeStats,
) {
    let (lane, preds, touched, keys) = L::split(ks);
    if touched.is_empty() {
        // Inconsistent step: carry the frontier through unchanged.
        stats.carried_steps += 1;
        frame.cells.extend_from_slice(frontier_cells);
        frame.prevs.extend_from_slice(frontier_cells);
        return;
    }
    stats.touched_cells += touched.len() as u64;

    let mut eff_beam = beam_width;
    if let Some(adaptive) = adaptive {
        let best = touched.iter().map(|&c| lane[c as usize]).fold(L::UNSCORED, L::max);
        let floor = best.minus(adaptive.margin);
        let within = touched.iter().filter(|&&c| lane[c as usize] >= floor).count();
        let kept = within.max(adaptive.min_keep).min(beam_width);
        if kept < touched.len().min(beam_width) {
            stats.adaptive_shrunk_steps += 1;
        }
        eff_beam = kept;
    }

    // An O(n) partition plus a sort of the kept beam, both on packed
    // keys, whose integer order is the canonical order. For f32 the keys
    // carry the f32 lane's bits (`total_cmp` over the cast scores orders
    // identically to comparing their exact f64 embeddings).
    keys.clear();
    keys.extend(touched.iter().map(|&c| lane[c as usize].key(c)));
    if keys.len() > eff_beam {
        stats.pruned_beam += (keys.len() - eff_beam) as u64;
        keys.select_nth_unstable(eff_beam - 1);
        keys.truncate(eff_beam);
    }
    keys.sort_unstable();

    // Backpointer frame in canonical beam order (sized exactly: a batch
    // decode retains every frame); install the new SoA frontier from the
    // dense lanes, then reset the score lane.
    frame.cells.extend(keys.iter().map(|&k| L::key_cell(k)));
    frame.prevs.extend(frame.cells.iter().map(|&c| preds[c as usize]));
    frontier_cells.clear();
    frontier_cells.extend_from_slice(&frame.cells);
    frontier_scores.clear();
    frontier_scores.extend(frame.cells.iter().map(|&c| lane[c as usize].widen()));
    for &c in touched.iter() {
        lane[c as usize] = L::UNSCORED;
    }
    touched.clear();
}

/// One retained backpointer frame of a [`FixedLagDecoder`]: the beam
/// cells of one step (canonically ordered) and, parallel to them, each
/// cell's best-predecessor *grid cell* in the previous frame (for
/// carried frames, the identity).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BeamFrame {
    /// Beam cells after this step.
    pub cells: Vec<u32>,
    /// Best predecessor cell of each beam cell.
    pub prevs: Vec<u32>,
}

/// Streaming Viterbi with a fixed decision lag and bounded memory.
///
/// Feed one [`StepObservation`] at a time with [`step`](Self::step);
/// the decoder retains at most `lag` backpointer frames. Whenever a
/// step would exceed the lag, the *oldest* frame is resolved — the
/// current best path is traced back to it and its cell centre is
/// committed — and the frame is freed (recycled into an internal
/// pool). [`finish`](Self::finish) backtracks over the still-retained
/// frames and appends that tail to the committed prefix.
///
/// This is the only Viterbi driver: [`decode`] runs it with
/// `lag = usize::MAX`, where nothing commits early and the output is
/// **bit-for-bit identical** to [`viterbi_reference`] (same scores,
/// same canonical beam order, same backtrack). With a finite lag the
/// decoder trades a bounded amount of hindsight for O(lag × beam)
/// memory — the online operating mode.
#[derive(Debug)]
pub struct FixedLagDecoder {
    grid: Grid,
    antennas: [Vec3; 2],
    config: HmmConfig,
    beam_width: usize,
    lag: usize,
    kernel: KernelOptions,
    // Logical (checkpointed) state: the SoA frontier …
    frontier_cells: Vec<u32>,
    frontier_scores: Vec<f64>,
    frames: std::collections::VecDeque<BeamFrame>,
    committed: Vec<Vec2>,
    stats: DecodeStats,
    // Scratch (reconstructible) state.
    ks: KernelScratch,
    pool: Vec<BeamFrame>,
    artifacts: Option<Arc<DecodeArtifacts>>,
}

impl FixedLagDecoder {
    /// New decoder starting at `start`, with `lag` retained frames
    /// (`usize::MAX` = never commit early, i.e. exact batch behaviour).
    pub fn new(
        grid: Grid,
        antennas: [Vec3; 2],
        start: Vec2,
        config: HmmConfig,
        beam_width: usize,
        lag: usize,
    ) -> FixedLagDecoder {
        let frontier = vec![(grid.index_of(start) as u32, 0.0)];
        FixedLagDecoder::from_parts(
            grid,
            antennas,
            config,
            beam_width,
            lag,
            frontier,
            Vec::new(),
            Vec::new(),
            DecodeStats::default(),
        )
    }

    /// Rebuild a decoder from checkpointed logical state (scratch state
    /// is reconstructed lazily, bit-identically, on the next step).
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        grid: Grid,
        antennas: [Vec3; 2],
        config: HmmConfig,
        beam_width: usize,
        lag: usize,
        frontier: Vec<(u32, f64)>,
        frames: Vec<BeamFrame>,
        committed: Vec<Vec2>,
        stats: DecodeStats,
    ) -> FixedLagDecoder {
        let (frontier_cells, frontier_scores) = frontier.into_iter().unzip();
        FixedLagDecoder {
            grid,
            antennas,
            config,
            beam_width: beam_width.max(8),
            lag: lag.max(1),
            kernel: KernelOptions::default(),
            frontier_cells,
            frontier_scores,
            frames: frames.into(),
            committed,
            stats,
            ks: KernelScratch::default(),
            pool: Vec::new(),
            artifacts: None,
        }
    }

    /// Consume one observation; returns how many points were committed
    /// (0 while within the lag, 1 once the pipeline is full).
    pub fn step(&mut self, obs: &StepObservation) -> usize {
        // Resolve the rig's shared emission table, at the kernel's
        // precision, only when a step carries a hyperbola measurement.
        // The rig never changes, so the first such step resolves the
        // entry for good; N concurrent sessions on one rig resolve to
        // one process-wide table.
        let arts = obs.dtheta21.map(|meas| {
            let arts: &DecodeArtifacts = self.artifacts.get_or_insert_with(|| {
                artifacts_for(&self.grid, self.antennas, self.config.wavelength_m)
            });
            (meas, arts)
        });
        let emission = match self.kernel.precision {
            KernelPrecision::F64Exact => {
                StepEmission::F64(arts.map(|(meas, a)| (meas, a.emission().as_ref())))
            }
            KernelPrecision::F32Tolerance => StepEmission::F32(arts.map(|(meas, a)| {
                (meas as f32, HYPERBOLA_WEIGHT as f32, a.emission_f32().as_ref())
            })),
        };

        self.stats.steps += 1;
        let mut frame = self.pool.pop().unwrap_or_default();
        advance_frontier(
            &self.grid,
            self.beam_width,
            self.kernel.adaptive,
            obs,
            emission,
            &mut self.ks,
            &mut self.frontier_cells,
            &mut self.frontier_scores,
            &mut frame,
            &mut self.stats,
        );
        self.frames.push_back(frame);

        let mut newly_committed = 0;
        while self.frames.len() > self.lag {
            self.commit_oldest();
            newly_committed += 1;
        }
        newly_committed
    }

    /// Resolve and free the oldest retained frame: trace the current
    /// best path back to it and commit its cell centre. Mirrors one
    /// ring of [`finish`](Self::finish)'s backtrack; the `None` arm
    /// matches its `break` (which silently truncates the earliest
    /// points) and is unreachable for frames this decoder built itself.
    fn commit_oldest(&mut self) {
        let mut idx = best_frontier_cell(&self.frontier_cells, &self.frontier_scores);
        let mut reached = true;
        for f in (1..self.frames.len()).rev() {
            match self.frames[f].cells.iter().position(|&c| c == idx) {
                Some(k) => idx = self.frames[f].prevs[k],
                None => {
                    reached = false;
                    break;
                }
            }
        }
        if reached {
            self.committed.push(self.grid.center(idx as usize));
        }
        if let Some(frame) = self.frames.pop_front() {
            self.pool.push(frame);
        }
    }

    /// Backtrack the retained frames (the same walk as
    /// [`viterbi_reference`]'s) and return `committed ++ tail`; the
    /// decoder is left empty. With `lag ≥ steps` this is the whole
    /// batch output.
    pub fn finish(&mut self) -> Vec<Vec2> {
        let mut idx = best_frontier_cell(&self.frontier_cells, &self.frontier_scores);
        let mut rev = Vec::with_capacity(self.frames.len());
        for f in (0..self.frames.len()).rev() {
            rev.push(self.grid.center(idx as usize));
            match self.frames[f].cells.iter().position(|&c| c == idx) {
                Some(k) => idx = self.frames[f].prevs[k],
                None => break,
            }
        }
        rev.reverse();
        let mut out = std::mem::take(&mut self.committed);
        out.extend(rev);
        self.frames.clear();
        out
    }

    /// Work counters so far.
    pub fn stats(&self) -> DecodeStats {
        self.stats
    }

    /// Points already committed (beyond the lag horizon).
    pub fn committed(&self) -> &[Vec2] {
        &self.committed
    }

    /// Current frontier, canonically ordered, assembled from the SoA
    /// lanes as `(cell, score)` pairs (the checkpoint shape).
    pub fn frontier(&self) -> Vec<(u32, f64)> {
        self.frontier_cells
            .iter()
            .copied()
            .zip(self.frontier_scores.iter().copied())
            .collect()
    }

    /// The kernel this decoder steps with.
    pub fn kernel(&self) -> KernelOptions {
        self.kernel
    }

    /// Select the kernel for subsequent steps. Safe at any step
    /// boundary: the dense lanes are reset between steps, and the
    /// frontier scores carry across precisions (f32 scores embed
    /// exactly in the f64 lane).
    pub fn set_kernel(&mut self, kernel: KernelOptions) {
        self.kernel = kernel;
    }

    /// Change the decision lag for subsequent steps (clamped to ≥ 1).
    /// Safe at any step boundary: shrinking resolves the now-over-lag
    /// oldest frames immediately — exactly the commits the next `step`
    /// calls would have produced — and returns how many points that
    /// committed; growing simply lets more frames accumulate before
    /// commits resume.
    pub fn set_lag(&mut self, lag: usize) -> usize {
        self.lag = lag.max(1);
        let mut newly_committed = 0;
        while self.frames.len() > self.lag {
            self.commit_oldest();
            newly_committed += 1;
        }
        newly_committed
    }

    /// Retained (uncommitted) backpointer frames, oldest first.
    pub fn frames(&self) -> impl Iterator<Item = &BeamFrame> {
        self.frames.iter()
    }

    /// Number of retained frames (≤ lag).
    pub fn retained(&self) -> usize {
        self.frames.len()
    }

    /// The decision lag, in steps.
    pub fn lag(&self) -> usize {
        self.lag
    }

    /// The beam width.
    pub fn beam_width(&self) -> usize {
        self.beam_width
    }

    /// The shared rig artifacts this decoder resolved, if any step has
    /// needed them yet (tests use this to assert N sessions share one
    /// entry).
    pub fn artifacts(&self) -> Option<&Arc<DecodeArtifacts>> {
        self.artifacts.as_ref()
    }

    /// The shared emission table this decoder decodes against, if built.
    pub fn emission_table(&self) -> Option<&Arc<EmissionTable>> {
        self.artifacts.as_ref().and_then(|a| a.emission_if_built())
    }
}

/// The retained naive reference decoder: per-frontier-cell
/// [`Grid::neighbourhood`] allocation, per-candidate
/// [`expected_dtheta21`] recomputation, `HashMap` backpointers, and a
/// full frontier sort — the seed implementation, kept verbatim except
/// that beam truncation uses the same canonical total order (score
/// descending, cell ascending) as the optimized decoder, making the two
/// comparable state-for-state. `tests/decoder_equivalence.rs` asserts
/// [`decode`] matches this function bit-for-bit; the `decode` bench
/// suite measures the speedup over it.
pub fn viterbi_reference(
    grid: &Grid,
    antennas: [Vec3; 2],
    start: Vec2,
    steps: &[StepObservation],
    config: &HmmConfig,
    beam_width: usize,
) -> Vec<Vec2> {
    if steps.is_empty() {
        return Vec::new();
    }
    let beam_width = beam_width.max(8);
    let n = grid.len();
    // Frontier: (cell, score) pairs; backpointer log per step.
    let mut frontier: Vec<(u32, f64)> = vec![(grid.index_of(start) as u32, 0.0)];
    let mut backptr: Vec<std::collections::HashMap<u32, u32>> = Vec::with_capacity(steps.len());
    // Dense scratch (score, backpointer) reused across steps; `touched`
    // tracks which entries to reset, keeping each step O(frontier ×
    // annulus) instead of O(cells).
    let mut dense: Vec<(f64, u32)> = vec![(f64::NEG_INFINITY, u32::MAX); n];
    let mut touched: Vec<u32> = Vec::new();

    for obs in steps {
        let max_r = obs.region.max_dist.max(grid.cell_m);
        let dmax = max_r;
        let target = obs.target_dist.min(obs.region.max_dist);
        // Outlier suppression: a candidate well below the (already
        // noise-compensated) lower bound is rejected outright — Eq. 8's
        // hard annulus with generous quantization slack.
        let hard_min = obs.region.min_dist - 2.0 * grid.cell_m;

        for &(from, s_from) in &frontier {
            let c_from = grid.center(from as usize);
            for to in grid.neighbourhood(from as usize, max_r) {
                let c_to = grid.center(to);
                let delta = c_to - c_from;
                let d = delta.norm();
                if d < hard_min {
                    continue;
                }
                let mut s = s_from;
                // Hyperbola term (Fig. 12(c)).
                if let Some(meas) = obs.dtheta21 {
                    let expected = expected_dtheta21(c_to, antennas, config.wavelength_m);
                    let err = wrap_pi(meas - expected).abs() / std::f64::consts::PI;
                    s -= HYPERBOLA_WEIGHT * err;
                }
                // Distance-consistency term: decoded step length should
                // match the phase-measured displacement.
                let (d_along, w_dist) = match obs.direction {
                    Some(dir) => (dir.dot(delta), DISTANCE_WEIGHT),
                    None => (d, DISTANCE_WEIGHT_STILL),
                };
                s -= w_dist * ((d_along - target).abs() / dmax).min(2.0);
                // Direction-line term (Fig. 12(b)).
                if let Some(dir) = obs.direction {
                    if d > 1e-12 {
                        let perp = dir.cross(delta).abs();
                        s -= DIRECTION_WEIGHT * (perp / dmax).min(2.0);
                        if dir.dot(delta) < 0.0 {
                            s -= BACKWARD_PENALTY;
                        }
                    }
                }
                let entry = &mut dense[to];
                if entry.0 == f64::NEG_INFINITY && entry.1 == u32::MAX {
                    touched.push(to as u32);
                }
                if s > entry.0 {
                    *entry = (s, from);
                }
            }
        }

        if touched.is_empty() {
            // Inconsistent step: carry the frontier through unchanged.
            let bp: std::collections::HashMap<u32, u32> =
                frontier.iter().map(|&(c, _)| (c, c)).collect();
            backptr.push(bp);
            continue;
        }

        let mut next: Vec<(u32, f64)> =
            touched.iter().map(|&c| (c, dense[c as usize].0)).collect();
        // Keep the top `beam_width` states (canonical order).
        next.sort_unstable_by(beam_order);
        next.truncate(beam_width);
        let bp: std::collections::HashMap<u32, u32> = next
            .iter()
            .map(|&(c, _)| (c, dense[c as usize].1))
            .collect();
        backptr.push(bp);
        for &c in &touched {
            dense[c as usize] = (f64::NEG_INFINITY, u32::MAX);
        }
        touched.clear();
        frontier = next;
    }

    // Backtrack from the best final state.
    let mut idx = frontier
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map(|&(c, _)| c)
        .unwrap_or(0);
    let mut rev = Vec::with_capacity(steps.len());
    for bp in backptr.iter().rev() {
        rev.push(grid.center(idx as usize));
        match bp.get(&idx) {
            Some(&prev) => idx = prev,
            None => break,
        }
    }
    rev.reverse();
    rev
}

/// Eq. 10: rotate a trajectory about its first point by `−error_rad`
/// to undo the residual initial-azimuth error.
pub fn rotate_trajectory(points: &[Vec2], error_rad: f64) -> Vec<Vec2> {
    let pivot = match points.first() {
        Some(&p) => p,
        None => return Vec::new(),
    };
    let rot = rf_core::Mat2::rotation(-error_rad);
    points.iter().map(|&p| pivot + rot.apply(p - pivot)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_grid() -> Grid {
        Grid::covering(Vec2::new(0.0, 0.0), Vec2::new(0.2, 0.1), 0.01)
    }

    fn rig() -> [Vec3; 2] {
        [Vec3::new(-0.28, 0.15, 0.65), Vec3::new(0.28, 0.15, 0.65)]
    }

    #[test]
    fn grid_indexing_round_trips() {
        let g = small_grid();
        for idx in [0, 5, g.len() - 1, g.nx + 3] {
            let c = g.center(idx);
            assert_eq!(g.index_of(c), idx);
        }
    }

    #[test]
    fn grid_clamps_out_of_range_points() {
        let g = small_grid();
        let idx = g.index_of(Vec2::new(-5.0, -5.0));
        assert_eq!(idx, 0);
        let idx = g.index_of(Vec2::new(5.0, 5.0));
        assert_eq!(idx, g.len() - 1);
    }

    #[test]
    fn neighbourhood_radius_is_respected() {
        let g = small_grid();
        let from = g.index_of(Vec2::new(0.1, 0.05));
        let hood = g.neighbourhood(from, 0.02);
        assert!(hood.contains(&from));
        for &idx in &hood {
            assert!(g.center(idx).distance(g.center(from)) <= 0.02 + 1e-9);
        }
        // 2-cell radius: at most a 5×5 patch.
        assert!(hood.len() <= 25);
    }

    #[test]
    fn neighbourhood_clips_at_edges() {
        let g = small_grid();
        let hood = g.neighbourhood(0, 0.02);
        assert!(!hood.is_empty());
        assert!(hood.iter().all(|&i| i < g.len()));
    }

    /// The stencil-backed `neighbourhood` must reproduce the historical
    /// brute-force scan (which visited one extra, always-empty ring)
    /// exactly — same cells, same row-major order.
    #[test]
    fn neighbourhood_matches_bruteforce_scan() {
        let g = small_grid();
        for radius in [0.0, 0.004, 0.01, 0.0173, 0.02, 0.033, 0.5] {
            for from in [0, 7, g.nx - 1, g.len() / 2, g.len() - 1] {
                let c = g.center(from);
                let r_cells = (radius / g.cell_m).ceil() as isize + 1;
                let ix0 = (from % g.nx) as isize;
                let iy0 = (from / g.nx) as isize;
                let mut want = Vec::new();
                for dy in -r_cells..=r_cells {
                    for dx in -r_cells..=r_cells {
                        let ix = ix0 + dx;
                        let iy = iy0 + dy;
                        if ix < 0 || iy < 0 || ix >= g.nx as isize || iy >= g.ny as isize {
                            continue;
                        }
                        let idx = iy as usize * g.nx + ix as usize;
                        if g.center(idx).distance(c) <= radius + 1e-12 {
                            want.push(idx);
                        }
                    }
                }
                assert_eq!(
                    g.neighbourhood(from, radius),
                    want,
                    "radius {radius} from {from}"
                );
            }
        }
    }

    #[test]
    fn stencil_covers_square_and_trims_corners() {
        let st = AnnulusStencil::new(0.01, 4);
        // Full square is 81; the four far corners (|dx|=|dy|=4,
        // distance 4√2 ≈ 5.66 cells) must be trimmed.
        assert!(st.offsets().len() < 81);
        assert!(st.offsets().iter().any(|o| o.dx == 0 && o.dy == -4));
        assert!(!st.offsets().iter().any(|o| o.dx == 4 && o.dy == 4));
        // Row-major order: dy strictly non-decreasing.
        for w in st.offsets().windows(2) {
            assert!(w[0].dy <= w[1].dy);
        }
    }

    #[test]
    fn emission_table_matches_direct_computation() {
        let g = small_grid();
        let table = EmissionTable::build(&g, rig(), 0.3276, 1);
        assert_eq!(table.len(), g.len());
        assert!(!table.is_empty());
        for idx in [0, 3, g.len() / 2, g.len() - 1] {
            let direct = expected_dtheta21(g.center(idx), rig(), 0.3276);
            assert_eq!(table.expected(idx).to_bits(), direct.to_bits(), "cell {idx}");
        }
    }

    #[test]
    fn parallel_table_build_is_bit_identical() {
        let g = small_grid();
        let seq = EmissionTable::build(&g, rig(), 0.3276, 1);
        for workers in [1, 2, 3, 8] {
            let par = EmissionTable::build(&g, rig(), 0.3276, workers);
            assert_eq!(par.len(), seq.len(), "workers={workers}");
            for idx in 0..g.len() {
                assert_eq!(
                    par.expected(idx).to_bits(),
                    seq.expected(idx).to_bits(),
                    "cell {idx}, workers={workers}"
                );
            }
        }
    }

    #[test]
    fn emission_table_f32_is_the_cast_of_the_f64_table() {
        let g = small_grid();
        let table = EmissionTable::build(&g, rig(), 0.3276, 1);
        let t32 = EmissionTableF32::from_table(&table);
        assert_eq!(t32.len(), table.len());
        assert!(!t32.is_empty());
        for idx in 0..g.len() {
            assert_eq!(t32.expected(idx).to_bits(), (table.expected(idx) as f32).to_bits());
        }
    }

    #[test]
    fn f32_kernel_stays_on_the_board_and_near_the_exact_track() {
        let g = small_grid();
        let start = Vec2::new(0.02, 0.05);
        let cfg = HmmConfig::default();
        let steps = mixed_steps();
        let (exact, _) = decode(&g, rig(), start, &steps, &cfg, 256, KernelOptions::exact());
        let kernel = KernelOptions { precision: KernelPrecision::F32Tolerance, adaptive: None };
        let (got, stats) = decode(&g, rig(), start, &steps, &cfg, 256, kernel);
        assert_eq!(got.len(), exact.len());
        assert_eq!(stats.steps, steps.len());
        // Smoke-level closeness; the quantitative oracle lives in
        // tests/kernel_equivalence.rs.
        for (a, b) in got.iter().zip(&exact) {
            assert!(a.distance(*b) < 0.03, "f32 drifted: {a:?} vs {b:?}");
        }
    }

    #[test]
    fn adaptive_beam_shrinks_concentrated_frontiers_and_reports_it() {
        let g = small_grid();
        let start = Vec2::new(0.02, 0.05);
        let cfg = HmmConfig::default();
        let steps: Vec<StepObservation> =
            (0..10).map(|_| moving_step(0.008, 0.012, Some(Vec2::new(1.0, 0.0)))).collect();
        let (want, base) = decode(&g, rig(), start, &steps, &cfg, 2500, KernelOptions::exact());
        let kernel = KernelOptions::exact()
            .with_adaptive(Some(AdaptiveBeam { margin: 0.25, min_keep: 4 }));
        let (got, stats) = decode(&g, rig(), start, &steps, &cfg, 2500, kernel);
        assert!(stats.adaptive_shrunk_steps > 0, "tight margin must shrink: {stats:?}");
        assert!(stats.max_frontier <= 2500);
        assert!(stats.max_frontier < base.max_frontier, "shrink must be visible");
        // A strong direction prior concentrates mass on the true path,
        // so even an aggressive margin keeps the same track end.
        assert_eq!(got.len(), want.len());
        assert!(got.last().unwrap().distance(*want.last().unwrap()) < 0.02);
    }

    #[test]
    fn artifacts_cache_shares_one_entry_per_rig() {
        let g = small_grid();
        let a = artifacts_for(&g, rig(), 0.3276);
        let b = artifacts_for(&g, rig(), 0.3276);
        assert!(Arc::ptr_eq(&a, &b), "same rig resolves to the same entry");
        // The emission table is built once and shared by pointer.
        assert!(Arc::ptr_eq(a.emission(), b.emission()));
        assert_eq!(
            a.emission().expected(3).to_bits(),
            expected_dtheta21(g.center(3), rig(), 0.3276).to_bits()
        );
        // A different rig gets its own entry.
        let other = artifacts_for(&g, rig(), 0.33);
        assert!(!Arc::ptr_eq(&a, &other));
        assert!(other.matches(&g, rig(), 0.33) && !other.matches(&g, rig(), 0.3276));
    }

    #[test]
    fn shared_stencils_deduplicate_across_callers() {
        let a = shared_stencil(0.01, 3);
        let b = shared_stencil(0.01, 3);
        assert!(Arc::ptr_eq(&a, &b), "same key resolves to the same stencil");
        assert_eq!(a.offsets(), AnnulusStencil::new(0.01, 3).offsets());
        let c = shared_stencil(0.01, 4);
        assert!(!Arc::ptr_eq(&a, &c));
    }

    /// Exact decode at the pipeline's default beam and config.
    fn decode_default(
        g: &Grid,
        rig: [Vec3; 2],
        start: Vec2,
        steps: &[StepObservation],
    ) -> Vec<Vec2> {
        let cfg = HmmConfig::default();
        decode(g, rig, start, steps, &cfg, DEFAULT_BEAM_WIDTH, KernelOptions::exact()).0
    }

    fn moving_step(min_dist: f64, max_dist: f64, dir: Option<Vec2>) -> StepObservation {
        StepObservation {
            region: FeasibleRegion { min_dist, max_dist },
            direction: dir,
            dtheta21: None,
            target_dist: min_dist,
        }
    }

    #[test]
    fn direction_prior_drives_a_straight_track() {
        let g = small_grid();
        let start = Vec2::new(0.02, 0.05);
        let dir = Vec2::new(1.0, 0.0);
        // Phase measures ~8 mm of motion per step along `dir`.
        let steps: Vec<StepObservation> =
            (0..10).map(|_| moving_step(0.008, 0.012, Some(dir))).collect();
        let track = decode_default(&g, rig(), start, &steps);
        assert_eq!(track.len(), 10);
        let end = track.last().unwrap();
        assert!(end.x > start.x + 0.05, "track must progress rightward, got {end:?}");
        assert!((end.y - start.y).abs() < 0.02, "and stay level");
    }

    #[test]
    fn annulus_lower_bound_forces_motion() {
        let g = small_grid();
        let start = Vec2::new(0.02, 0.05);
        let steps: Vec<StepObservation> = (0..5)
            .map(|_| StepObservation {
                region: FeasibleRegion { min_dist: 0.009, max_dist: 0.012 },
                direction: Some(Vec2::new(1.0, 0.0)),
                dtheta21: None,
                target_dist: 0.009,
            })
            .collect();
        let track = decode_default(&g, rig(), start, &steps);
        for w in track.windows(2) {
            let d = w[0].distance(w[1]);
            assert!(d > 0.004, "lower bound must prevent standing still, step {d}");
        }
    }

    #[test]
    fn hyperbola_term_pulls_toward_consistent_cells() {
        let g = Grid::covering(Vec2::new(-0.1, 0.55), Vec2::new(0.1, 0.75), 0.01);
        let rig = rig();
        let cfg = HmmConfig::default();
        let target = Vec2::new(0.06, 0.65);
        let meas = expected_dtheta21(target, rig, cfg.wavelength_m);
        // No direction prior; generous annulus; repeated consistent
        // measurements should walk the track onto the target hyperbola.
        let steps: Vec<StepObservation> = (0..12)
            .map(|_| StepObservation {
                region: FeasibleRegion { min_dist: 0.01, max_dist: 0.015 },
                direction: None,
                dtheta21: Some(meas),
                target_dist: 0.01,
            })
            .collect();
        let track = decode_default(&g, rig, Vec2::new(-0.05, 0.65), &steps);
        let end = *track.last().unwrap();
        let end_err = wrap_pi(expected_dtheta21(end, rig, cfg.wavelength_m) - meas).abs();
        let start_err =
            wrap_pi(expected_dtheta21(Vec2::new(-0.05, 0.65), rig, cfg.wavelength_m) - meas)
                .abs();
        assert!(
            end_err < start_err * 0.5,
            "end phase error {end_err} should beat start {start_err}"
        );
    }

    #[test]
    fn empty_steps_give_empty_track() {
        let g = small_grid();
        assert!(decode_default(&g, rig(), Vec2::ZERO, &[]).is_empty());
        let (track, stats) =
            decode(&g, rig(), Vec2::ZERO, &[], &HmmConfig::default(), 64, KernelOptions::exact());
        assert!(track.is_empty());
        assert_eq!(stats, DecodeStats::default());
    }

    #[test]
    fn inconsistent_annulus_does_not_derail_decoding() {
        let g = small_grid();
        let start = Vec2::new(0.05, 0.05);
        let mut steps: Vec<StepObservation> =
            (0..4).map(|_| moving_step(0.006, 0.012, Some(Vec2::new(1.0, 0.0)))).collect();
        // Impossible step: min > max (a spurious reading survived).
        steps.insert(
            2,
            StepObservation {
                region: FeasibleRegion { min_dist: 0.08, max_dist: 0.012 },
                direction: None,
                dtheta21: None,
                target_dist: 0.012,
            },
        );
        let track = decode_default(&g, rig(), start, &steps);
        assert_eq!(track.len(), steps.len(), "decoder must survive the bad step");
        // The carried-through step is visible in the work counters.
        let (_, stats) =
            decode(&g, rig(), start, &steps, &HmmConfig::default(), 64, KernelOptions::exact());
        assert_eq!(stats.steps, steps.len());
        assert_eq!(stats.carried_steps, 1);
    }

    #[test]
    fn optimized_matches_reference_on_scenarios() {
        let g = small_grid();
        let rig = rig();
        let cfg = HmmConfig::default();
        let meas = expected_dtheta21(Vec2::new(0.06, 0.05), rig, cfg.wavelength_m);
        let scenarios: Vec<(Vec<StepObservation>, usize)> = vec![
            ((0..10).map(|_| moving_step(0.008, 0.012, Some(Vec2::new(1.0, 0.0)))).collect(), 2500),
            ((0..6).map(|_| moving_step(0.0, 0.02, None)).collect(), 16),
            (
                (0..8)
                    .map(|i| StepObservation {
                        region: FeasibleRegion { min_dist: 0.004, max_dist: 0.015 },
                        direction: if i % 2 == 0 { Some(Vec2::from_angle(i as f64)) } else { None },
                        dtheta21: Some(meas),
                        target_dist: 0.006,
                    })
                    .collect(),
                1, // exercises the beam_width < 8 clamp
            ),
        ];
        for (steps, beam) in scenarios {
            let start = Vec2::new(0.02, 0.05);
            let (fast, _) = decode(&g, rig, start, &steps, &cfg, beam, KernelOptions::exact());
            let slow = viterbi_reference(&g, rig, Vec2::new(0.02, 0.05), &steps, &cfg, beam);
            assert_eq!(fast.len(), slow.len());
            for (a, b) in fast.iter().zip(&slow) {
                assert!(
                    a.x.to_bits() == b.x.to_bits() && a.y.to_bits() == b.y.to_bits(),
                    "beam {beam}: {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn stats_count_decoder_work() {
        let g = small_grid();
        let steps: Vec<StepObservation> =
            (0..10).map(|_| moving_step(0.008, 0.012, Some(Vec2::new(1.0, 0.0)))).collect();
        let cfg = HmmConfig::default();
        let (track, stats) =
            decode(&g, rig(), Vec2::new(0.02, 0.05), &steps, &cfg, 64, KernelOptions::exact());
        assert_eq!(track.len(), 10);
        assert_eq!(stats.steps, 10);
        assert_eq!(stats.carried_steps, 0);
        assert!(stats.expansions > 0);
        assert!(stats.touched_cells > 0);
        assert!(stats.max_frontier >= 1 && stats.max_frontier <= 64);
        assert!(stats.mean_frontier() >= 1.0);
        // Every scored candidate either survived or was pruned.
        assert!(stats.expansions >= stats.pruned_below_min + stats.touched_cells);
    }

    /// Mixed scenario steps for streaming tests: direction priors,
    /// hyperbola measurements, a still step, and an impossible annulus.
    fn mixed_steps() -> Vec<StepObservation> {
        let g = small_grid();
        let meas = expected_dtheta21(Vec2::new(0.06, 0.05), rig(), 0.3276);
        let mut steps: Vec<StepObservation> = (0..9)
            .map(|i| StepObservation {
                region: FeasibleRegion { min_dist: 0.004, max_dist: 0.014 },
                direction: if i % 3 == 0 { Some(Vec2::from_angle(i as f64 * 0.7)) } else { None },
                dtheta21: if i % 2 == 0 { Some(meas) } else { None },
                target_dist: 0.006,
            })
            .collect();
        steps.insert(
            4,
            StepObservation {
                region: FeasibleRegion { min_dist: 0.09, max_dist: 0.01 },
                direction: None,
                dtheta21: None,
                target_dist: 0.01,
            },
        );
        let _ = g;
        steps
    }

    #[test]
    fn fixed_lag_with_infinite_lag_matches_reference_bitwise() {
        let g = small_grid();
        let start = Vec2::new(0.02, 0.05);
        let cfg = HmmConfig::default();
        let steps = mixed_steps();
        for beam in [4usize, 64, 2500] {
            let batch = viterbi_reference(&g, rig(), start, &steps, &cfg, beam);
            let (_, batch_stats) =
                decode(&g, rig(), start, &steps, &cfg, beam, KernelOptions::exact());
            let mut dec = FixedLagDecoder::new(g, rig(), start, cfg, beam, usize::MAX);
            for obs in &steps {
                assert_eq!(dec.step(obs), 0, "infinite lag must never commit early");
            }
            let stream_stats = dec.stats();
            let stream = dec.finish();
            assert_eq!(stream.len(), batch.len());
            for (a, b) in stream.iter().zip(&batch) {
                assert!(
                    a.x.to_bits() == b.x.to_bits() && a.y.to_bits() == b.y.to_bits(),
                    "beam {beam}: {a:?} vs {b:?}"
                );
            }
            assert_eq!(stream_stats, batch_stats, "work counters must agree");
        }
    }

    #[test]
    fn fixed_lag_commits_incrementally_with_bounded_frames() {
        let g = small_grid();
        let start = Vec2::new(0.02, 0.05);
        let cfg = HmmConfig::default();
        let steps = mixed_steps();
        let lag = 3;
        let mut dec = FixedLagDecoder::new(g, rig(), start, cfg, 64, lag);
        let mut committed = 0;
        for (i, obs) in steps.iter().enumerate() {
            committed += dec.step(obs);
            assert!(dec.retained() <= lag, "frames bounded by lag");
            let expect = (i + 1).saturating_sub(lag);
            assert_eq!(committed, expect, "one commit per step past the lag");
            assert_eq!(dec.committed().len(), committed);
        }
        let track = dec.finish();
        assert_eq!(track.len(), steps.len());
        // The committed prefix is frozen: finish() must not rewrite it.
        let (batch, _) = decode(&g, rig(), start, &steps, &cfg, 64, KernelOptions::exact());
        assert_eq!(track.len(), batch.len());
    }

    /// A score from one of four families: the edge values, any bit
    /// pattern, an `f32` widened to the `f64` the frontier stores, or a
    /// plain log-likelihood-sized value.
    fn edge_case_score(rng: &mut rf_core::rng::Rng64, specials: &[f64]) -> f64 {
        match rng.gen_index(4) {
            0 => specials[rng.gen_index(specials.len())],
            1 => f64::from_bits(rng.next_u64()),
            2 => f32::from_bits(rng.next_u64() as u32) as f64,
            _ => rng.gaussian(50.0),
        }
    }

    /// The packed beam key orders `(cell, score)` exactly as
    /// `beam_order` does, on both lanes: random bit patterns, ±0,
    /// subnormals, ±∞, f32 scores widened to f64, and scores drawn from a
    /// small pool so ties are broken by cell. NaN never reaches a lane
    /// (scores are finite) but the f64 key still agrees with
    /// `total_cmp` there; the f32 comparison against the widened order
    /// skips it, because widening quiets a signalling NaN.
    #[test]
    fn packed_beam_keys_order_exactly_like_beam_order() {
        let mut rng = rf_core::rng::Rng64::from_seed(0x6b65_7973);
        let tiny64 = f64::from_bits(1);
        let tiny32 = f32::from_bits(1);
        let specials = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            tiny64,
            -tiny64,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::MIN_POSITIVE - tiny64,
            f64::MAX,
            f64::MIN,
            tiny32 as f64,
            -(tiny32 as f64),
            f32::MIN_POSITIVE as f64,
            f32::MAX as f64,
            f32::MIN as f64,
            1.0,
            -1.0,
        ];
        let cells = |rng: &mut rf_core::rng::Rng64| match rng.gen_index(4) {
            0 => 0,
            1 => u32::MAX,
            2 => rng.gen_index(64) as u32,
            _ => rng.next_u64() as u32,
        };
        for _ in 0..200 {
            let pool: Vec<f64> = (0..12).map(|_| edge_case_score(&mut rng, &specials)).collect();
            let pairs: Vec<(u32, f64)> =
                (0..48).map(|_| (cells(&mut rng), pool[rng.gen_index(pool.len())])).collect();
            for a in &pairs {
                let a32 = (a.0, a.1 as f32);
                assert_eq!(f64::key_cell(a.1.key(a.0)), a.0);
                assert_eq!(f32::key_cell(a32.1.key(a32.0)), a32.0);
                for b in &pairs {
                    let want = beam_order(a, b);
                    let got = a.1.key(a.0).cmp(&b.1.key(b.0));
                    assert_eq!(got, want, "f64 lane: {a:?} vs {b:?}");

                    let b32 = (b.0, b.1 as f32);
                    let got = a32.1.key(a32.0).cmp(&b32.1.key(b32.0));
                    let want = b32.1.total_cmp(&a32.1).then(a32.0.cmp(&b32.0));
                    assert_eq!(got, want, "f32 lane: {a32:?} vs {b32:?}");
                    if !a32.1.is_nan() && !b32.1.is_nan() {
                        let widened = beam_order(&(a32.0, a32.1 as f64), &(b32.0, b32.1 as f64));
                        assert_eq!(got, widened, "f32 lane, widened: {a32:?} vs {b32:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn fixed_lag_restores_from_parts_and_continues_bitwise() {
        let g = small_grid();
        let start = Vec2::new(0.02, 0.05);
        let cfg = HmmConfig::default();
        let steps = mixed_steps();
        let lag = 4;
        // Uninterrupted run.
        let mut full = FixedLagDecoder::new(g, rig(), start, cfg, 32, lag);
        for obs in &steps {
            full.step(obs);
        }
        let want = full.finish();
        // Cut at every point, clone logical state through from_parts.
        for cut in 0..=steps.len() {
            let mut a = FixedLagDecoder::new(g, rig(), start, cfg, 32, lag);
            for obs in &steps[..cut] {
                a.step(obs);
            }
            let mut b = FixedLagDecoder::from_parts(
                g,
                rig(),
                cfg,
                32,
                lag,
                a.frontier().to_vec(),
                a.frames().cloned().collect(),
                a.committed().to_vec(),
                a.stats(),
            );
            for obs in &steps[cut..] {
                b.step(obs);
            }
            let got = b.finish();
            assert_eq!(got.len(), want.len(), "cut {cut}");
            for (p, q) in got.iter().zip(&want) {
                assert!(
                    p.x.to_bits() == q.x.to_bits() && p.y.to_bits() == q.y.to_bits(),
                    "cut {cut}: {p:?} vs {q:?}"
                );
            }
        }
    }

    #[test]
    fn rotate_trajectory_pivots_on_first_point() {
        let pts = vec![Vec2::new(1.0, 1.0), Vec2::new(2.0, 1.0)];
        let rot = rotate_trajectory(&pts, std::f64::consts::FRAC_PI_2);
        assert_eq!(rot[0], pts[0], "pivot is fixed");
        // Rotating by −π/2 (cw on screen) maps +X offset to −Y... in our
        // y-down convention: (x=0, y=−1) offset.
        assert!((rot[1].x - 1.0).abs() < 1e-12);
        assert!((rot[1].y - 0.0).abs() < 1e-12);
    }

    #[test]
    fn rotate_empty_trajectory() {
        assert!(rotate_trajectory(&[], 1.0).is_empty());
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn degenerate_grid_panics() {
        Grid::covering(Vec2::new(0.0, 0.0), Vec2::new(-1.0, 1.0), 0.01);
    }
}
