//! The conflict grid ([`crate::config::ScanMode::Grid`]) and the persistent detect engine
//! built on it.
//!
//! Between consecutive radar cycles only a fraction of the fleet actually
//! crosses a grid cell or changes its scan-relevant state, so the grid is
//! kept *alive* across rescans:
//!
//! * [`IncrementalGrid`] buckets aircraft into `(spatial cell, altitude
//!   bucket)` slots, persists per-aircraft slot assignments and moves
//!   aircraft between slots as they drift, marking the slots they leave and
//!   enter **dirty** under a monotone clock. Cells are sized from the
//!   *measured* per-rescan fleet envelope (the min/max x/y/altitude
//!   observed during the update pass); when the measured geometry changes
//!   (envelope drift, fleet growth, collapse) the grid rebuilds in place
//!   and every slot goes dirty. A stateless caller's fresh
//!   [`IncrementalGrid::build`] is exactly that all-dirty case.
//! * [`IncrementalEngine`] adds a **clean-pair replay cache** on top: for
//!   each aircraft whose first scan of a rescan came back clear, it stores
//!   the scan's check count and recorded cost-booking totals
//!   ([`ScanOps`]). On a later rescan the cached result may be *replayed* —
//!   the cascade's mutations re-applied and the recorded totals re-booked —
//!   iff every slot in the aircraft's current 3×3-cell × ±1-bucket
//!   neighborhood has stayed clean since the entry was stored.
//!
//! # Why the grid covers every gate-passer
//!
//! Cell width is the critical-reach envelope
//! ([`AtmConfig::critical_reach_nm`]) padded by a relative 1e-6 — strictly
//! wider than any separation the range gate's inclusive `<=` compare can
//! accept — and the bucket height is the vertical separation, which the
//! altitude gate's strict `<` compare can never reach. A gate-passing pair
//! therefore sits at most one cell apart per axis and one bucket apart in
//! altitude (the f64 floor-division error is ≪ both margins under
//! [`MAX_BUCKET_MAGNITUDE`]), so a scan that visits the track's 3×3 cell ×
//! ±1-bucket neighborhood sees every pair the naive scan's gates accept.
//! Positions and altitudes never change during Tasks 2+3, so one grid
//! state stays valid through every rotation rescan.
//!
//! # Why replay is byte-identical (DESIGN.md §12)
//!
//! The scan kernel's contract makes this sound: results are the
//! lexicographic minimum over gate-passers (order-free), `checks` counts
//! gate-passers only, and every pruning source books the identical
//! aggregate mix plus per-gate-passer window costs (DESIGN.md §8, §10).
//! An aircraft's first scan therefore depends only on (a) its own scan key
//! — position, altitude, velocity — and (b) the scan keys of the aircraft
//! inside its cell neighborhood (everything outside fails the gates and
//! contributes only the n-dependent aggregate mix). Any change to either
//! dirties a neighborhood slot: the update pass marks the slots an aircraft
//! leaves *and* enters whenever its key bits change, and mid-execution
//! velocity commits bump the clock and mark the committer's slot. A cached
//! clear scan whose neighborhood is clean since it was stored is thus
//! bit-for-bit the scan a fresh build would produce, and a clear first
//! scan is exactly the cascade's no-op path (reset, scan, no commit), so
//! replaying `reset stores → recorded scan totals → exit branch` books and
//! mutates precisely what the live path would.

use crate::config::AtmConfig;
use crate::detect::kernel::{check_collision_path_scanned, scan_candidates};
use crate::detect::stats::{DetectStats, ScanActivity, ScanResult};
use crate::shard::ShardedIncremental;
use crate::types::Aircraft;
use sim_clock::{CostSink, NullSink, OpClass, ALL_OP_CLASSES, OP_CLASS_COUNT};
use std::ops::Range;

/// Recorded cost-booking totals of one scan: a [`CostSink`] that tallies
/// the aggregate a scan books so the identical totals can be re-booked
/// later without re-running the scan. Sinks are purely accumulative —
/// totals, not call sequences, determine modeled time (DESIGN.md §8) — so
/// replaying per-class totals is exact.
///
/// The scan path provably books only op-classes, branches and
/// group-uniform record reads of one fixed width; a recording that sees
/// anything else (raw loads/stores, mixed shared-read widths) flags itself
/// [`ScanOps::irregular`] and is never cached.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScanOps {
    /// Per-class totals from `op()` calls (branch() / branches() are kept
    /// separate to preserve their divergence hints).
    ops: [u64; OP_CLASS_COUNT],
    /// Branches booked with `diverged == false`.
    branches_uniform: u64,
    /// Branches booked with `diverged == true`.
    branches_divergent: u64,
    /// Group-uniform shared reads (requests, not bytes).
    shared_loads: u64,
    /// Uniform width of every shared read (valid while `shared_loads > 0`).
    shared_load_bytes: u64,
    /// The recording saw a booking shape replay cannot reproduce.
    irregular: bool,
}

impl ScanOps {
    /// Whether the recording saw a booking replay cannot reproduce.
    pub fn irregular(&self) -> bool {
        self.irregular
    }

    fn note_shared(&mut self, count: u64, bytes_each: u64) {
        if count == 0 {
            return;
        }
        if self.shared_loads == 0 {
            self.shared_load_bytes = bytes_each;
        } else if self.shared_load_bytes != bytes_each {
            self.irregular = true;
        }
        self.shared_loads += count;
    }

    /// Re-book the recorded totals into `sink`. Tallies exactly what the
    /// recorded calls did on any contract-conforming sink.
    pub fn replay(&self, sink: &mut impl CostSink) {
        for (class, &count) in ALL_OP_CLASSES.iter().zip(self.ops.iter()) {
            if count > 0 {
                sink.op(*class, count);
            }
        }
        if self.branches_uniform > 0 {
            sink.branches(self.branches_uniform, false);
        }
        if self.branches_divergent > 0 {
            sink.branches(self.branches_divergent, true);
        }
        if self.shared_loads > 0 {
            sink.loads_shared(self.shared_loads, self.shared_load_bytes);
        }
    }
}

impl CostSink for ScanOps {
    fn op(&mut self, class: OpClass, count: u64) {
        self.ops[class as usize] += count;
    }
    fn load(&mut self, _bytes: u64) {
        self.irregular = true;
    }
    fn load_shared(&mut self, bytes: u64) {
        self.note_shared(1, bytes);
    }
    fn store(&mut self, _bytes: u64) {
        self.irregular = true;
    }
    fn branch(&mut self, diverged: bool) {
        if diverged {
            self.branches_divergent += 1;
        } else {
            self.branches_uniform += 1;
        }
    }
    fn branches(&mut self, count: u64, diverged: bool) {
        if diverged {
            self.branches_divergent += count;
        } else {
            self.branches_uniform += count;
        }
    }
    fn loads_shared(&mut self, count: u64, bytes_each: u64) {
        self.note_shared(count, bytes_each);
    }
}

/// A sink that forwards every booking to a real sink *and* a [`ScanOps`]
/// recorder: how the engine's live first scans capture their totals without
/// perturbing what the real sink tallies.
pub struct TeeSink<'a, S: CostSink> {
    sink: &'a mut S,
    rec: &'a mut ScanOps,
}

impl<'a, S: CostSink> TeeSink<'a, S> {
    /// Tee `sink`, also recording into `rec`.
    pub fn new(sink: &'a mut S, rec: &'a mut ScanOps) -> TeeSink<'a, S> {
        TeeSink { sink, rec }
    }
}

impl<S: CostSink> CostSink for TeeSink<'_, S> {
    fn op(&mut self, class: OpClass, count: u64) {
        self.sink.op(class, count);
        self.rec.op(class, count);
    }
    fn load(&mut self, bytes: u64) {
        self.sink.load(bytes);
        self.rec.load(bytes);
    }
    fn load_shared(&mut self, bytes: u64) {
        self.sink.load_shared(bytes);
        self.rec.load_shared(bytes);
    }
    fn store(&mut self, bytes: u64) {
        self.sink.store(bytes);
        self.rec.store(bytes);
    }
    fn branch(&mut self, diverged: bool) {
        self.sink.branch(diverged);
        self.rec.branch(diverged);
    }
    fn branches(&mut self, count: u64, diverged: bool) {
        self.sink.branches(count, diverged);
        self.rec.branches(count, diverged);
    }
    fn loads_shared(&mut self, count: u64, bytes_each: u64) {
        self.sink.loads_shared(count, bytes_each);
        self.rec.loads_shared(count, bytes_each);
    }
}

/// Largest bucket index magnitude the grid will use. Beyond this the f64
/// rounding slack in `v / width` is no longer provably below the margins
/// of the f32 gates, so [`GridGeometry::measure`] falls back to a single
/// catch-all cell or bucket (still correct, no pruning). Real
/// configurations sit around |bucket| ≤ 40.
const MAX_BUCKET_MAGNITUDE: f64 = (1u64 << 24) as f64;

/// Bucket index of one coordinate under `width`, or `None` when the
/// assignment is not provably gate-consistent (non-finite value or huge
/// quotient).
fn bucket_for(v: f32, width: f64) -> Option<i64> {
    let q = (v as f64 / width).floor();
    if q.is_finite() && q.abs() <= MAX_BUCKET_MAGNITUDE {
        Some(q as i64)
    } else {
        None
    }
}

/// The measured-envelope grid geometry of one rescan: cell width from the
/// critical reach, spatial extent and altitude-bucket span from the
/// min/max actually observed over the fleet. Degenerate inputs (empty
/// fleet, non-finite reach, width or coordinates, or a span so wide the
/// slot table would waste memory) fall back to a single catch-all cell or
/// bucket — correct at reduced pruning either way.
#[derive(Clone, Copy, Debug, PartialEq)]
struct GridGeometry {
    /// Cell width in nm (0.0 marks the degenerate single cell).
    cell_nm: f64,
    min_cx: i64,
    min_cy: i64,
    cols: usize,
    rows: usize,
    /// Altitude bucket width in ft (0.0 marks the degenerate single bucket).
    band_width: f64,
    min_b: i64,
    nb: usize,
}

impl GridGeometry {
    /// Measure the fleet envelope and derive this rescan's geometry.
    fn measure(aircraft: &[Aircraft], cfg: &AtmConfig) -> GridGeometry {
        let cap = (4 * aircraft.len() as i128).max(4_096);

        // Altitude buckets.
        let width = cfg.alt_separation_ft as f64;
        let (band_width, min_b, nb) = match bucket_range(aircraft.iter().map(|a| a.alt), width) {
            Some((min_b, span)) if span <= cap => (width, min_b, span as usize),
            _ => (0.0, 0, 1),
        };

        // Spatial cells, envelope measured from the aircraft actually
        // present this rescan. The pad restores a strict inequality margin
        // over the range gate's inclusive `<=` compare.
        let cell = cfg.critical_reach_nm() as f64 * 1.000_001;
        let xs = bucket_range(aircraft.iter().map(|a| a.x), cell);
        let ys = bucket_range(aircraft.iter().map(|a| a.y), cell);
        let (cell_nm, min_cx, min_cy, cols, rows) = match xs.zip(ys) {
            Some(((min_cx, cols), (min_cy, rows)))
                if cols * rows <= cap && cols * rows * nb as i128 <= 2 * cap =>
            {
                (cell, min_cx, min_cy, cols as usize, rows as usize)
            }
            _ => (0.0, 0, 0, 1, 1),
        };

        GridGeometry {
            cell_nm,
            min_cx,
            min_cy,
            cols,
            rows,
            band_width,
            min_b,
            nb,
        }
    }

    fn slot_count(&self) -> usize {
        self.cols * self.rows * self.nb
    }

    /// Slot of one aircraft; `None` cannot occur for aircraft the geometry
    /// was measured from (unbucketable fleets degrade to the single slot).
    fn slot_of(&self, a: &Aircraft) -> usize {
        let spatial = if self.cell_nm > 0.0 {
            let cx = bucket_for(a.x, self.cell_nm).expect("measured above");
            let cy = bucket_for(a.y, self.cell_nm).expect("measured above");
            (cy - self.min_cy) as usize * self.cols + (cx - self.min_cx) as usize
        } else {
            0
        };
        let b = if self.band_width > 0.0 {
            match bucket_for(a.alt, self.band_width) {
                Some(b) => (b - self.min_b) as usize,
                None => 0,
            }
        } else {
            0
        };
        spatial * self.nb + b
    }

    /// Slot ranges of `track`'s 3×3-cell × ±1-bucket neighborhood, cells
    /// y-major: one contiguous range per cell, since the bucket dimension
    /// varies fastest.
    fn neighborhood(&self, track: &Aircraft) -> impl Iterator<Item = Range<usize>> {
        let (x_lo, x_hi) = neighbor_span(track.x, self.cell_nm, self.min_cx, self.cols);
        let (y_lo, y_hi) = neighbor_span(track.y, self.cell_nm, self.min_cy, self.rows);
        let (b_lo, b_hi) = neighbor_span(track.alt, self.band_width, self.min_b, self.nb);
        let (cols, nb) = (self.cols, self.nb);
        (y_lo..y_hi).flat_map(move |cy| {
            (x_lo..x_hi).map(move |cx| {
                let base = (cy * cols + cx) * nb;
                base + b_lo..base + b_hi
            })
        })
    }
}

/// `(first bucket, bucket count)` spanned by `values` under `width`, or
/// `None` for a degenerate width, an unbucketable value or no values.
fn bucket_range(values: impl Iterator<Item = f32>, width: f64) -> Option<(i64, i128)> {
    if !(width.is_finite() && width > 0.0) {
        return None;
    }
    let (mut lo, mut hi) = (i64::MAX, i64::MIN);
    for v in values {
        let b = bucket_for(v, width)?;
        lo = lo.min(b);
        hi = hi.max(b);
    }
    (lo <= hi).then_some((lo, hi as i128 - lo as i128 + 1))
}

/// Half-open span of the `len` buckets starting at index `min` that
/// covers `bucket(v) ± 1` under `width` — every bucket for a degenerate
/// width (≤ 0) or an unbucketable `v`.
fn neighbor_span(v: f32, width: f64, min: i64, len: usize) -> (usize, usize) {
    match bucket_for(v, width).filter(|_| width > 0.0) {
        Some(b) => {
            let lo = (b - 1 - min).clamp(0, len as i64);
            let hi = (b + 2 - min).clamp(0, len as i64);
            (lo as usize, hi.max(lo) as usize)
        }
        None => (0, len),
    }
}

/// Bits of every scan-relevant field of one aircraft: position, altitude
/// and velocity. Exact-bit comparison — the only changes a rescan may
/// ignore are *no* changes.
fn scan_key(a: &Aircraft) -> [u32; 5] {
    [
        a.x.to_bits(),
        a.y.to_bits(),
        a.alt.to_bits(),
        a.dx.to_bits(),
        a.dy.to_bits(),
    ]
}

/// A conflict grid that persists across rescans: slot membership is moved
/// incrementally as aircraft drift, and every slot an aircraft leaves,
/// enters or changes inside carries a dirty clock that validity checks
/// compare against.
#[derive(Clone, Debug, Default)]
pub struct IncrementalGrid {
    geo: Option<GridGeometry>,
    /// Aircraft indices per slot, ascending within each slot.
    slots: Vec<Vec<u32>>,
    /// Per-slot dirty clock: the last [`IncrementalGrid::clock`] value at
    /// which the slot's scan-relevant contents changed.
    dirty: Vec<u64>,
    /// Aircraft index → slot.
    assign: Vec<u32>,
    /// Aircraft index → scan-key bits at last sighting.
    keys: Vec<[u32; 5]>,
    /// Monotone change clock: bumped once per update pass and once per
    /// mid-execution velocity commit.
    clock: u64,
    /// Slots marked dirty since the last [`IncrementalGrid::take_cells_dirty`].
    cells_dirty: u64,
}

impl IncrementalGrid {
    /// An empty grid; the first [`IncrementalGrid::update`] populates it.
    pub fn new() -> IncrementalGrid {
        IncrementalGrid::default()
    }

    /// Build a grid for one fleet snapshot (a fresh, all-dirty update) —
    /// the stateless entry [`ScanIndex::for_config`] and the shard indexes
    /// use.
    ///
    /// [`ScanIndex::for_config`]: crate::detect::ScanIndex::for_config
    pub fn build(aircraft: &[Aircraft], cfg: &AtmConfig) -> IncrementalGrid {
        let mut g = IncrementalGrid::new();
        g.update(aircraft, cfg);
        g
    }

    /// The change clock's current value.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Tracked fleet size.
    pub fn len(&self) -> usize {
        self.assign.len()
    }

    /// True before the first update.
    pub fn is_empty(&self) -> bool {
        self.assign.is_empty()
    }

    /// Number of slots (spatial cells × altitude buckets).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Drain the dirty-slot counter accumulated since the last call.
    pub fn take_cells_dirty(&mut self) -> u64 {
        std::mem::take(&mut self.cells_dirty)
    }

    fn mark_dirty(&mut self, slot: usize) {
        if self.dirty[slot] != self.clock {
            self.dirty[slot] = self.clock;
            self.cells_dirty += 1;
        }
    }

    /// One update pass: advance the clock, re-measure the fleet envelope,
    /// and bring slot membership up to date. Aircraft whose scan key
    /// changed dirty the slots they leave and enter (or sit in, for
    /// sub-cell moves and velocity changes). A geometry change — envelope
    /// drift past a cell edge, fleet size change, collapse to a point —
    /// rebuilds in place with every slot dirty. Returns whether a full
    /// rebuild happened.
    pub fn update(&mut self, aircraft: &[Aircraft], cfg: &AtmConfig) -> bool {
        self.clock += 1;
        let geo = GridGeometry::measure(aircraft, cfg);
        if self.geo != Some(geo) || aircraft.len() != self.assign.len() {
            self.rebuild(aircraft, geo);
            return true;
        }
        for (i, a) in aircraft.iter().enumerate() {
            let key = scan_key(a);
            if key == self.keys[i] {
                continue;
            }
            let old = self.assign[i] as usize;
            let new = geo.slot_of(a);
            if new != old {
                let members = &mut self.slots[old];
                let at = members
                    .binary_search(&(i as u32))
                    .expect("assignment tracks membership");
                members.remove(at);
                let members = &mut self.slots[new];
                let at = members.binary_search(&(i as u32)).unwrap_err();
                members.insert(at, i as u32);
                self.assign[i] = new as u32;
                self.mark_dirty(old);
                self.mark_dirty(new);
            } else {
                self.mark_dirty(old);
            }
            self.keys[i] = key;
        }
        false
    }

    /// Rebuild membership from scratch under `geo`, reusing the slot
    /// allocations; every slot comes out dirty at the current clock.
    fn rebuild(&mut self, aircraft: &[Aircraft], geo: GridGeometry) {
        self.geo = Some(geo);
        let slots = geo.slot_count();
        for s in &mut self.slots {
            s.clear();
        }
        self.slots.resize_with(slots, Vec::new);
        self.dirty.clear();
        self.dirty.resize(slots, self.clock);
        self.cells_dirty += slots as u64;
        self.assign.clear();
        self.keys.clear();
        for (i, a) in aircraft.iter().enumerate() {
            let s = geo.slot_of(a);
            self.slots[s].push(i as u32);
            self.assign.push(s as u32);
            self.keys.push(scan_key(a));
        }
    }

    /// Record a mid-execution velocity commit of aircraft `i`: bump the
    /// clock, dirty the aircraft's slot (invalidating every cached scan
    /// whose neighborhood contains it, including its own) and refresh its
    /// key mirror so the next update pass does not re-mark it.
    pub fn note_commit(&mut self, i: usize, a: &Aircraft) {
        self.clock += 1;
        let slot = self.assign[i] as usize;
        self.mark_dirty(slot);
        self.keys[i] = scan_key(a);
    }

    /// Whether every slot in `track`'s current 3×3-cell × ±1-bucket
    /// neighborhood has stayed clean since clock value `since`: the replay
    /// validity test. The track's own slot is always inside its own
    /// neighborhood, so its own changes are covered.
    pub fn clean_since(&self, track: &Aircraft, since: u64) -> bool {
        self.geo.is_some_and(|geo| {
            geo.neighborhood(track)
                .all(|slots| self.dirty[slots].iter().all(|&d| d <= since))
        })
    }

    /// Gather the candidate superset of `track`'s gate-passers into `out`
    /// (cleared first): the 3×3 cell neighborhood intersected with altitude
    /// bucket ±1 (see the module docs for the coverage argument), cells
    /// y-major, indices ascending within each slot. Callers re-check the
    /// real f32 gates.
    pub fn candidates_into(&self, track: &Aircraft, out: &mut Vec<u32>) {
        out.clear();
        for slots in self.geo.iter().flat_map(|geo| geo.neighborhood(track)) {
            for slot in &self.slots[slots] {
                out.extend_from_slice(slot);
            }
        }
    }
}

/// One cached clear first scan.
#[derive(Clone, Debug)]
struct CacheEntry {
    /// Grid clock when the scan ran (validity horizon).
    stored_at: u64,
    /// Gate-passers the scan counted.
    checks: u64,
    /// The scan's recorded cost-booking totals.
    ops: ScanOps,
}

/// Which driver populated the cache: booked entries carry recorded cost
/// totals, unbooked (measured-path) entries book nothing. The two must
/// never replay each other's entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DriverKind {
    Booked,
    Unbooked,
}

/// The persistent incremental detect engine: a dirty-cell grid plus the
/// clean-pair replay cache, with the sharded enumerator layered on when
/// the config shards the airfield. Backends own one and call
/// [`IncrementalEngine::detect_resolve`] (modeled cost paths) or
/// [`IncrementalEngine::detect_resolve_unbooked`] (measured paths) per
/// rescan; outputs are bit-identical to
/// [`crate::detect::detect_resolve_all`] under either scan mode — fleet
/// bytes, stats and booked sink totals alike.
#[derive(Debug, Default)]
pub struct IncrementalEngine {
    grid: IncrementalGrid,
    sharded: Option<ShardedIncremental>,
    cache: Vec<Option<CacheEntry>>,
    activity: ScanActivity,
    total_activity: ScanActivity,
    cands: Vec<u32>,
    last_cfg: Option<AtmConfig>,
    driver: Option<DriverKind>,
}

impl IncrementalEngine {
    /// A fresh engine with no history.
    pub fn new() -> IncrementalEngine {
        IncrementalEngine::default()
    }

    /// Dirty-cell hit-rate counters of the most recent rescan.
    pub fn activity(&self) -> &ScanActivity {
        &self.activity
    }

    /// Counters accumulated over the engine's lifetime.
    pub fn total_activity(&self) -> &ScanActivity {
        &self.total_activity
    }

    /// Drop every cached scan and start from scratch on the next rescan.
    pub fn reset(&mut self) {
        *self = IncrementalEngine::new();
    }

    /// Bring the grid (and sharded enumerator, when configured) up to date
    /// for this rescan; any config or driver change resets the engine.
    fn prepare(&mut self, aircraft: &[Aircraft], cfg: &AtmConfig, kind: DriverKind) {
        if self.last_cfg.as_ref() != Some(cfg) || self.driver != Some(kind) {
            self.reset();
            self.last_cfg = Some(cfg.clone());
            self.driver = Some(kind);
        }
        self.activity = ScanActivity::default();
        let rebuilt = self.grid.update(aircraft, cfg);
        if rebuilt {
            self.cache.clear();
        }
        self.cache.resize(aircraft.len(), None);
        if cfg.shards > 1 {
            self.sharded
                .get_or_insert_with(ShardedIncremental::new)
                .update(aircraft, cfg);
        } else {
            self.sharded = None;
        }
    }

    /// Gather track `i`'s candidate superset into the reusable buffer.
    fn gather(&mut self, aircraft: &[Aircraft], i: usize) {
        match &self.sharded {
            Some(sh) => sh.candidates_into(i, &aircraft[i], &mut self.cands),
            None => self.grid.candidates_into(&aircraft[i], &mut self.cands),
        }
    }

    /// Replay aircraft `i`'s cached clear scan if its neighborhood is
    /// provably unchanged: re-apply the cascade's no-op-path mutations and
    /// re-book the recorded totals. Returns the replayed check count.
    fn try_replay(
        &mut self,
        aircraft: &mut [Aircraft],
        i: usize,
        cfg: &AtmConfig,
        sink: &mut impl CostSink,
    ) -> Option<u64> {
        let entry = self.cache[i].as_ref()?;
        if !self.grid.clean_since(&aircraft[i], entry.stored_at) {
            return None;
        }
        // The cascade's clear path verbatim: reset stores, the recorded
        // scan, the loop-exit branch, no commit (chk == 0).
        aircraft[i].time_till = cfg.critical_periods;
        aircraft[i].batx = aircraft[i].dx;
        aircraft[i].baty = aircraft[i].dy;
        sink.store(12);
        entry.ops.replay(sink);
        sink.branch(false);
        self.activity.scans_replayed += 1;
        self.activity.pairs_replayed += entry.checks;
        Some(entry.checks)
    }

    /// One booked rescan: bit-identical fleet mutations, stats and sink
    /// totals to `detect_resolve_all`.
    pub fn detect_resolve(
        &mut self,
        aircraft: &mut [Aircraft],
        cfg: &AtmConfig,
        sink: &mut impl CostSink,
    ) -> DetectStats {
        self.prepare(aircraft, cfg, DriverKind::Booked);
        let mut total = DetectStats::default();
        for i in 0..aircraft.len() {
            if let Some(checks) = self.try_replay(aircraft, i, cfg, sink) {
                total.pair_checks += checks;
                continue;
            }
            self.gather(aircraft, i);
            let vel_before = (aircraft[i].dx.to_bits(), aircraft[i].dy.to_bits());
            let cands: &[u32] = &self.cands;
            let mut first: Option<(u64, ScanOps, bool)> = None;
            let stats = check_collision_path_scanned(aircraft, i, cfg, sink, |ac, i, vel, sink| {
                if first.is_none() {
                    let mut rec = ScanOps::default();
                    let r = {
                        let mut tee = TeeSink::new(sink, &mut rec);
                        scan_candidates(
                            ac,
                            None,
                            i,
                            ac.len(),
                            vel,
                            cfg,
                            cands.iter().map(|&p| p as usize),
                            &mut tee,
                        )
                    };
                    first = Some((r.checks, rec, r.critical.is_none()));
                    r
                } else {
                    scan_candidates(
                        ac,
                        None,
                        i,
                        ac.len(),
                        vel,
                        cfg,
                        cands.iter().map(|&p| p as usize),
                        sink,
                    )
                }
            });
            total.absorb(&stats);
            self.activity.scans_live += 1;
            self.activity.pairs_rescanned += stats.pair_checks;
            let (checks, rec, clear) = first.expect("cascade always scans at least once");
            if clear && !rec.irregular() {
                self.cache[i] = Some(CacheEntry {
                    stored_at: self.grid.clock(),
                    checks,
                    ops: rec,
                });
            }
            if (aircraft[i].dx.to_bits(), aircraft[i].dy.to_bits()) != vel_before {
                self.grid.note_commit(i, &aircraft[i]);
            }
        }
        self.finish();
        total
    }

    /// One unbooked rescan for measured backends: the caller supplies the
    /// live scan (thread-pool chunks, SoA kernel — anything
    /// result-identical to the booked scan over the same candidates) and
    /// an `after_each(aircraft, i)` hook that runs after each live
    /// aircraft (the SoA backend mirrors committed velocities there).
    /// Nothing is booked; outputs stay bit-identical.
    pub fn detect_resolve_unbooked<F, G>(
        &mut self,
        aircraft: &mut [Aircraft],
        cfg: &AtmConfig,
        mut scan: F,
        mut after_each: G,
    ) -> DetectStats
    where
        F: FnMut(&[Aircraft], usize, (f32, f32), &[u32]) -> ScanResult,
        G: FnMut(&[Aircraft], usize),
    {
        self.prepare(aircraft, cfg, DriverKind::Unbooked);
        let mut total = DetectStats::default();
        for i in 0..aircraft.len() {
            if let Some(checks) = self.try_replay(aircraft, i, cfg, &mut NullSink) {
                total.pair_checks += checks;
                continue;
            }
            self.gather(aircraft, i);
            let vel_before = (aircraft[i].dx.to_bits(), aircraft[i].dy.to_bits());
            let cands: &[u32] = &self.cands;
            let mut first: Option<(u64, bool)> = None;
            let stats =
                check_collision_path_scanned(aircraft, i, cfg, &mut NullSink, |ac, i, vel, _| {
                    let r = scan(ac, i, vel, cands);
                    if first.is_none() {
                        first = Some((r.checks, r.critical.is_none()));
                    }
                    r
                });
            total.absorb(&stats);
            self.activity.scans_live += 1;
            self.activity.pairs_rescanned += stats.pair_checks;
            let (checks, clear) = first.expect("cascade always scans at least once");
            if clear {
                self.cache[i] = Some(CacheEntry {
                    stored_at: self.grid.clock(),
                    checks,
                    ops: ScanOps::default(),
                });
            }
            if (aircraft[i].dx.to_bits(), aircraft[i].dy.to_bits()) != vel_before {
                self.grid.note_commit(i, &aircraft[i]);
            }
            after_each(aircraft, i);
        }
        self.finish();
        total
    }

    /// Close out one rescan's counters.
    fn finish(&mut self) {
        self.activity.cells_dirty = self.grid.take_cells_dirty();
        self.total_activity.absorb(&self.activity);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::airfield::Airfield;
    use crate::config::ScanMode;
    use crate::detect::kernel::detect_resolve_all;
    use sim_clock::OpCounter;

    fn fleet(n: usize, seed: u64) -> (Vec<Aircraft>, AtmConfig) {
        let field = Airfield::with_seed(n, seed);
        let mut cfg = field.config().clone();
        cfg.scan = ScanMode::Grid;
        (field.aircraft, cfg)
    }

    /// The oracle run every engine test compares against: the naive scan,
    /// from scratch, every cycle.
    fn naive_detect(
        aircraft: &mut [Aircraft],
        cfg: &AtmConfig,
        sink: &mut impl CostSink,
    ) -> DetectStats {
        let naive = AtmConfig {
            scan: ScanMode::Naive,
            ..cfg.clone()
        };
        detect_resolve_all(aircraft, &naive, sink)
    }

    /// A grid's gathered candidates for `track`, sorted.
    fn sorted_candidates(grid: &IncrementalGrid, track: &Aircraft) -> Vec<usize> {
        let mut buf = Vec::new();
        grid.candidates_into(track, &mut buf);
        let mut out: Vec<usize> = buf.iter().map(|&p| p as usize).collect();
        out.sort_unstable();
        out
    }

    /// Deterministic xorshift for displacement patterns.
    fn rng(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn displace(aircraft: &mut [Aircraft], frac: f64, seed: &mut u64) {
        let n = aircraft.len();
        let moves = ((n as f64) * frac).ceil() as usize;
        for _ in 0..moves {
            let i = (rng(seed) % n as u64) as usize;
            let a = &mut aircraft[i];
            a.x += ((rng(seed) % 200) as f32 - 100.0) * 0.3;
            a.y += ((rng(seed) % 200) as f32 - 100.0) * 0.3;
            if rng(seed).is_multiple_of(4) {
                a.alt += ((rng(seed) % 20) as f32 - 10.0) * 100.0;
            }
        }
    }

    #[test]
    fn candidates_cover_every_gate_passer() {
        let (ac, cfg) = fleet(600, 21);
        let grid = IncrementalGrid::build(&ac, &cfg);
        let reach = cfg.critical_reach_nm();
        for i in (0..ac.len()).step_by(13) {
            let a = sorted_candidates(&grid, &ac[i]);
            assert!(a.len() < ac.len(), "the grid should prune track {i}");
            for (p, other) in ac.iter().enumerate() {
                let gates = (ac[i].alt - other.alt).abs() < cfg.alt_separation_ft
                    && (ac[i].x - other.x).abs() <= reach
                    && (ac[i].y - other.y).abs() <= reach;
                if p != i && gates {
                    assert!(a.binary_search(&p).is_ok(), "gate pair ({i},{p}) missed");
                }
            }
        }
    }

    #[test]
    fn updated_grid_equals_a_fresh_build_after_moves() {
        let (mut ac, cfg) = fleet(400, 5);
        let mut inc = IncrementalGrid::build(&ac, &cfg);
        let mut seed = 0xfeed_f00d_u64;
        for cycle in 0..6 {
            displace(&mut ac, 0.1, &mut seed);
            inc.update(&ac, &cfg);
            let fresh = IncrementalGrid::build(&ac, &cfg);
            for i in (0..ac.len()).step_by(7) {
                assert_eq!(
                    sorted_candidates(&inc, &ac[i]),
                    sorted_candidates(&fresh, &ac[i]),
                    "cycle {cycle} track {i}"
                );
            }
        }
    }

    #[test]
    fn scan_ops_replay_books_identical_totals() {
        let (ac, cfg) = fleet(300, 8);
        let inc = IncrementalGrid::build(&ac, &cfg);
        let mut cands = Vec::new();
        let n = ac.len();
        for i in [0usize, 37, 150, 299] {
            inc.candidates_into(&ac[i], &mut cands);
            let ids = || cands.iter().map(|&p| p as usize);
            let vel = (ac[i].dx, ac[i].dy);
            let mut direct = OpCounter::new();
            scan_candidates(&ac, None, i, n, vel, &cfg, ids(), &mut direct);
            let mut live = OpCounter::new();
            let mut rec = ScanOps::default();
            {
                let mut tee = TeeSink::new(&mut live, &mut rec);
                scan_candidates(&ac, None, i, n, vel, &cfg, ids(), &mut tee);
            }
            assert_eq!(live, direct, "tee must not perturb the real sink");
            assert!(!rec.irregular(), "scan path books no raw loads/stores");
            let mut replayed = OpCounter::new();
            rec.replay(&mut replayed);
            assert_eq!(replayed, direct, "replay totals diverged for track {i}");
        }
    }

    /// The core differential: a persistent engine over many rescans of a
    /// drifting fleet stays bit-identical — fleet bytes, stats and booked
    /// sink totals — to the naive scan every cycle.
    #[test]
    fn engine_matches_naive_over_many_cycles() {
        for (n, seed, frac) in [(300usize, 11u64, 0.02f64), (500, 77, 0.25)] {
            let (ac0, cfg) = fleet(n, seed);
            let mut reference = ac0.clone();
            let mut incremental = ac0;
            let mut engine = IncrementalEngine::new();
            let mut seed = seed | 1;
            for cycle in 0..8 {
                displace(&mut reference, frac, &mut seed.clone());
                displace(&mut incremental, frac, &mut seed);
                let mut ref_ops = OpCounter::new();
                let ref_stats = naive_detect(&mut reference, &cfg, &mut ref_ops);
                let mut inc_ops = OpCounter::new();
                let inc_stats = engine.detect_resolve(&mut incremental, &cfg, &mut inc_ops);
                assert_eq!(incremental, reference, "fleet diverged, cycle {cycle}");
                assert_eq!(inc_stats, ref_stats, "stats diverged, cycle {cycle}");
                assert_eq!(inc_ops, ref_ops, "sink totals diverged, cycle {cycle}");
            }
            let act = engine.total_activity();
            assert_eq!(
                act.scans_live + act.scans_replayed,
                8 * n as u64,
                "every aircraft's scan must be either live or replayed"
            );
        }
    }

    #[test]
    fn static_fleet_replays_the_clear_scans_once_settled() {
        let (ac0, cfg) = fleet(250, 3);
        let mut reference = ac0.clone();
        let mut incremental = ac0;
        let mut engine = IncrementalEngine::new();
        let mut settled_live = None;
        for cycle in 0..5 {
            let ref_stats = naive_detect(&mut reference, &cfg, &mut NullSink);
            let inc_stats = engine.detect_resolve(&mut incremental, &cfg, &mut NullSink);
            assert_eq!(incremental, reference, "cycle {cycle}");
            assert_eq!(inc_stats, ref_stats, "cycle {cycle}");
            let act = *engine.activity();
            assert_eq!(act.scans_live + act.scans_replayed, 250, "cycle {cycle}");
            if cycle >= 2 {
                // Once resolutions from the first cycles have committed, a
                // static fleet reaches a fixed point: only aircraft stuck
                // with an unresolvable conflict (whose first scan is never
                // clear, hence never cacheable) still scan live, and their
                // count stops changing.
                match settled_live {
                    None => settled_live = Some(act.scans_live),
                    Some(prev) => assert_eq!(act.scans_live, prev, "cycle {cycle} ({act:?})"),
                }
                assert!(
                    act.scans_replayed > 125,
                    "most of a settled static fleet must replay, cycle {cycle} ({act:?})"
                );
            }
        }
    }

    #[test]
    fn envelope_collapse_rebuilds_and_stays_identical() {
        let (ac0, cfg) = fleet(200, 13);
        let mut reference = ac0.clone();
        let mut incremental = ac0;
        let mut engine = IncrementalEngine::new();
        engine.detect_resolve(&mut incremental, &cfg, &mut NullSink);
        naive_detect(&mut reference, &cfg, &mut NullSink);
        // Collapse the measured envelope to (nearly) a point.
        for (r, i) in reference.iter_mut().zip(incremental.iter_mut()) {
            r.x = 1.0;
            r.y = -2.0;
            i.x = 1.0;
            i.y = -2.0;
        }
        let mut ref_ops = OpCounter::new();
        let ref_stats = naive_detect(&mut reference, &cfg, &mut ref_ops);
        let mut inc_ops = OpCounter::new();
        let inc_stats = engine.detect_resolve(&mut incremental, &cfg, &mut inc_ops);
        assert_eq!(incremental, reference, "fleet diverged after collapse");
        assert_eq!(inc_stats, ref_stats);
        assert_eq!(inc_ops, ref_ops);
    }

    #[test]
    fn fleet_size_change_resets_cleanly() {
        let (ac0, cfg) = fleet(180, 9);
        let mut engine = IncrementalEngine::new();
        let mut incremental = ac0.clone();
        engine.detect_resolve(&mut incremental, &cfg, &mut NullSink);
        // Shrink the fleet: the engine must rebuild, not index out of range.
        let (smaller, _) = fleet(60, 9);
        let mut reference = smaller.clone();
        let mut incremental = smaller;
        naive_detect(&mut reference, &cfg, &mut NullSink);
        engine.detect_resolve(&mut incremental, &cfg, &mut NullSink);
        assert_eq!(incremental, reference);
    }

    #[test]
    fn unbooked_driver_matches_the_booked_one() {
        let (ac0, cfg) = fleet(350, 17);
        let mut booked = ac0.clone();
        let mut unbooked = ac0;
        let mut eng_a = IncrementalEngine::new();
        let mut eng_b = IncrementalEngine::new();
        let mut seed = 0x5eed_u64;
        for cycle in 0..5 {
            displace(&mut booked, 0.1, &mut seed.clone());
            displace(&mut unbooked, 0.1, &mut seed);
            let a = eng_a.detect_resolve(&mut booked, &cfg, &mut NullSink);
            let b = eng_b.detect_resolve_unbooked(
                &mut unbooked,
                &cfg,
                |ac, i, vel, cands| {
                    let ids = cands.iter().map(|&p| p as usize);
                    scan_candidates(ac, None, i, ac.len(), vel, &cfg, ids, &mut NullSink)
                },
                |_, _| {},
            );
            assert_eq!(unbooked, booked, "cycle {cycle}");
            assert_eq!(a, b, "cycle {cycle}");
        }
    }
}
