//! The single scan kernel and the fused Tasks 2+3 routines built on it.
//!
//! [`scan_pairs`] is the one place gate checks, cost booking and earliest-
//! conflict selection happen; every candidate source ([`ScanIndex`]) feeds
//! it. The naive source books per pair inline (the reference mix); every
//! pruning source books the identical mix in aggregate up front and
//! re-checks the real f32 gates per candidate against a null sink, so the
//! sink's totals — and therefore every backend's modeled time — are
//! bit-identical to the naive scan's (DESIGN.md §8, §10).

use crate::batcher::{conflict_window, same_altitude_band, within_critical_reach};
use crate::config::AtmConfig;
use crate::types::{Aircraft, NO_COLLISION};
use sim_clock::{CostSink, NullSink};

use super::index::ScanIndex;
use super::stats::{DetectStats, ScanResult};

/// Book the aggregate operation mix the naive scan accrues unconditionally
/// over a fleet of `n`: n iterations of `ialu(1); branch(false)` plus, for
/// the n−1 non-self pairs, one shared record read, the altitude gate's
/// `fadd(2); branch(false)` and the range gate's `fadd(4); branch(false)`.
/// All three sinks are purely accumulative, so totals — not call sequences
/// — determine modeled time (DESIGN.md §8).
fn book_unconditional_mix(n: u64, sink: &mut impl CostSink) {
    sink.ialu(n);
    sink.branches(3 * n - 2, false);
    sink.loads_shared(n - 1, Aircraft::RECORD_BYTES);
    sink.fadd(6 * (n - 1));
}

/// Fold candidate `p`'s conflict window into the running earliest-critical
/// selection: the conditional tail every visited pair shares, after the
/// gates passed. Books the window itself and the hit branch to `sink`.
///
/// Selection is the lexicographic minimum over `(tmin, p)`. The naive scan
/// historically kept the *first* pair at a tied `tmin` (`best <= tmin`
/// keeps the incumbent), but under its ascending index order the first pair
/// at a tie is exactly the smallest `p` — so the explicit lexicographic
/// rule picks the identical pair for every enumeration order, which is what
/// lets one kernel serve sources that visit candidates bucket-by-bucket or
/// cell-by-cell instead of in index order.
#[inline]
fn fold_window(
    track: &Aircraft,
    vel: (f32, f32),
    trial: &Aircraft,
    p: usize,
    cfg: &AtmConfig,
    sink: &mut impl CostSink,
    earliest: &mut Option<(usize, f32)>,
) {
    if let Some((tmin, _tmax)) = conflict_window(
        track,
        vel,
        trial,
        cfg.separation_nm,
        cfg.horizon_periods,
        sink,
    ) {
        sink.branch(true);
        if tmin < cfg.critical_periods {
            match *earliest {
                Some((bp, bt)) if bt < tmin || (bt == tmin && bp < p) => {}
                _ => *earliest = Some((p, tmin)),
            }
        }
    }
}

/// One full scan of aircraft `i` (with trial velocity `vel`) against the
/// fleet: the Task 2 half, over any candidate source.
///
/// Each non-self pair passes through two data-independent gates — altitude
/// band and critical reach — and only pairs passing both count as a check
/// and evaluate their conflict window. The naive source walks every pair
/// and books per pair, both gates evaluated unconditionally
/// (predicated, lockstep-style — the SIMD substrates execute both sides of
/// a divergence anyway), so every skipped pair books the same fixed mix
/// regardless of *which* gate rejected it. Pruning sources rely on exactly
/// that: they book the identical mix in aggregate via
/// [`book_unconditional_mix`] and visit only their candidate superset,
/// re-checking the real gates against a null sink. Result, check count and
/// booked totals are bit-identical across every source.
///
/// Read-only; backends that cannot mutate shared state mid-scan (the
/// threaded MIMD implementation) drive the rotation loop themselves around
/// this function.
pub fn scan_pairs(
    aircraft: &[Aircraft],
    index: &ScanIndex,
    i: usize,
    vel: (f32, f32),
    cfg: &AtmConfig,
    sink: &mut impl CostSink,
) -> ScanResult {
    let track = &aircraft[i];
    if !matches!(index, ScanIndex::Naive) {
        let n = aircraft.len();
        let candidates = index.candidates(i, track, n);
        return scan_candidates(aircraft, None, i, n, vel, cfg, candidates, sink);
    }
    let reach = cfg.critical_reach_nm();
    let mut earliest: Option<(usize, f32)> = None;
    let mut checks = 0u64;
    for (p, trial) in aircraft.iter().enumerate() {
        sink.ialu(1);
        sink.branch(false);
        if p == i {
            continue;
        }
        // Every track thread walks the same shared aircraft array.
        sink.load_shared(Aircraft::RECORD_BYTES);
        let same_band = same_altitude_band(track, trial, cfg.alt_separation_ft, sink);
        let in_reach = within_critical_reach(track, trial, reach, sink);
        if !(same_band && in_reach) {
            continue;
        }
        checks += 1;
        fold_window(track, vel, trial, p, cfg, sink, &mut earliest);
    }
    ScanResult {
        critical: earliest,
        checks,
    }
}

/// The pruning-source scan every caller outside the naive reference path
/// shares: book the full unconditional mix of a `global_n` fleet in
/// aggregate, then visit only the given candidate superset, re-checking
/// the real f32 gates against a null sink (their cost is already in the
/// aggregate) and folding gate-passers into the earliest-critical
/// selection.
///
/// `recs[li]` is the track; candidates are positions in `recs`. With
/// `ids = None`, `recs` is the whole fleet and positions are global ids.
/// A shard worker passes its gathered *member* records (owned + halo, as
/// exported by `ShardedIndex` / the wire codec) with `ids = Some(members)`,
/// `recs[l]` being the record of global aircraft `members[l]`; conflicts
/// are reported by global id. Because the aggregate booking depends only
/// on `global_n`, and the fold is the order-independent lexicographic
/// minimum over global `(tmin, p)`, any candidate superset — a grid
/// neighborhood, a member slice, or one chunk of a split enumeration merged
/// via [`ScanResult::merge`] — yields the exact result, check count and
/// sink totals of [`scan_pairs`]. Measured callers, whose cost is real wall
/// time, pass a [`NullSink`].
#[allow(clippy::too_many_arguments)] // the fleet view (recs, ids, li, global_n) + the scan
pub fn scan_candidates(
    recs: &[Aircraft],
    ids: Option<&[u32]>,
    li: usize,
    global_n: usize,
    vel: (f32, f32),
    cfg: &AtmConfig,
    candidates: impl IntoIterator<Item = usize>,
    sink: &mut impl CostSink,
) -> ScanResult {
    let track = &recs[li];
    let reach = cfg.critical_reach_nm();
    let mut earliest: Option<(usize, f32)> = None;
    let mut checks = 0u64;
    book_unconditional_mix(global_n as u64, sink);
    for lp in candidates {
        if lp == li {
            continue;
        }
        let trial = &recs[lp];
        if !same_altitude_band(track, trial, cfg.alt_separation_ft, &mut NullSink)
            || !within_critical_reach(track, trial, reach, &mut NullSink)
        {
            continue;
        }
        checks += 1;
        let p = ids.map_or(lp, |ids| ids[lp] as usize);
        fold_window(track, vel, trial, p, cfg, sink, &mut earliest);
    }
    ScanResult {
        critical: earliest,
        checks,
    }
}

/// Rotate a velocity vector by `angle` radians (the Task 3 course change).
pub fn rotate_velocity(vel: (f32, f32), angle: f32, sink: &mut impl CostSink) -> (f32, f32) {
    sink.sfu(2); // sin + cos
    sink.fmul(4);
    sink.fadd(2);
    let (s, c) = angle.sin_cos();
    (vel.0 * c - vel.1 * s, vel.0 * s + vel.1 * c)
}

/// The fused Tasks 2+3 routine for track aircraft `i` (the paper's
/// `CheckCollisionPath` kernel body). Mutates `aircraft[i]` (trial path,
/// committed path, collision bookkeeping) and the collision flags of the
/// partner aircraft it conflicts with, exactly as Algorithm 2 describes.
pub fn check_collision_path(
    aircraft: &mut [Aircraft],
    i: usize,
    cfg: &AtmConfig,
    sink: &mut impl CostSink,
) -> DetectStats {
    check_collision_path_with(aircraft, &ScanIndex::Naive, i, cfg, sink)
}

/// [`check_collision_path`] over a prebuilt [`ScanIndex`]: identical
/// mutations, stats and booked cost totals, fewer candidate visits. The
/// index stays valid across the internal rotation rescans (positions and
/// altitudes do not change) and across all aircraft of one detect
/// execution.
pub fn check_collision_path_with(
    aircraft: &mut [Aircraft],
    index: &ScanIndex,
    i: usize,
    cfg: &AtmConfig,
    sink: &mut impl CostSink,
) -> DetectStats {
    check_collision_path_gathered(aircraft, index, i, cfg, sink, &mut Vec::new())
}

/// [`check_collision_path_with`] gathering candidates into a caller-owned
/// buffer, so a driver looping over the fleet allocates it once.
fn check_collision_path_gathered(
    aircraft: &mut [Aircraft],
    index: &ScanIndex,
    i: usize,
    cfg: &AtmConfig,
    sink: &mut impl CostSink,
    cands: &mut Vec<u32>,
) -> DetectStats {
    if matches!(index, ScanIndex::Naive) {
        return check_collision_path_scanned(aircraft, i, cfg, sink, |ac, i, vel, sink| {
            scan_pairs(ac, index, i, vel, cfg, sink)
        });
    }
    // Candidates depend only on positions and altitudes, which the cascade
    // never changes: gather them once for every rotation rescan.
    let n = aircraft.len();
    index.candidates_into(i, &aircraft[i], n, cands);
    check_collision_path_scanned(aircraft, i, cfg, sink, |ac, i, vel, sink| {
        let cands = cands.iter().map(|&p| p as usize);
        scan_candidates(ac, None, i, n, vel, cfg, cands, sink)
    })
}

/// The fused-routine driver over a caller-supplied *scanner*: the exact
/// mutation cascade of [`check_collision_path_with`] (reset, mark, rotate,
/// commit — every store in the same order) with the Task 2 scan abstracted
/// out. `scan` must return what [`scan_pairs`] would for the same
/// `(aircraft, i, vel)` — the measured backends substitute a thread-pool
/// chunked scan or a structure-of-arrays scan here, which is what makes
/// their outputs byte-identical to the sequential reference by
/// construction: the cascade is shared code, and the scanners are proven
/// result-identical separately.
pub fn check_collision_path_scanned<S, F>(
    aircraft: &mut [Aircraft],
    i: usize,
    cfg: &AtmConfig,
    sink: &mut S,
    mut scan: F,
) -> DetectStats
where
    S: CostSink,
    F: FnMut(&[Aircraft], usize, (f32, f32), &mut S) -> ScanResult,
{
    let mut stats = DetectStats::default();

    // Reset this aircraft's horizon bookkeeping (Algorithm 2 init).
    aircraft[i].time_till = cfg.critical_periods;
    aircraft[i].batx = aircraft[i].dx;
    aircraft[i].baty = aircraft[i].dy;
    sink.store(12);

    let rotations = cfg.rotation_sequence();
    let mut next_rotation = 0usize;
    let mut vel = (aircraft[i].dx, aircraft[i].dy);
    let mut chk = 0u32; // course corrections attempted (paper's `chk`)

    loop {
        let scan = scan(aircraft, i, vel, sink);
        stats.pair_checks += scan.checks;

        let Some((partner, tmin)) = scan.critical else {
            break; // current (trial) path is clear of critical conflicts
        };
        stats.critical_conflicts += 1;

        // Mark both aircraft (Algorithm 2 line 9).
        aircraft[i].col = true;
        aircraft[i].col_with = partner as i32;
        aircraft[i].time_till = tmin;
        aircraft[partner].col = true;
        aircraft[partner].col_with = i as i32;
        aircraft[partner].time_till = aircraft[partner].time_till.min(tmin);
        sink.store(24);

        sink.branch(false);
        if next_rotation >= rotations.len() {
            // Angle sequence exhausted: keep the original path, leave the
            // conflict flagged for altitude-based resolution.
            stats.unresolved += 1;
            aircraft[i].batx = aircraft[i].dx;
            aircraft[i].baty = aircraft[i].dy;
            sink.store(8);
            return stats;
        }

        // Task 3: rotate the *original* path by the next angle in the
        // sequence and rescan from the top (the paper's loop reset).
        let base = (aircraft[i].dx, aircraft[i].dy);
        vel = rotate_velocity(base, rotations[next_rotation], sink);
        next_rotation += 1;
        chk += 1;
        stats.rotations += 1;
        aircraft[i].batx = vel.0;
        aircraft[i].baty = vel.1;
        sink.store(8);
    }

    sink.branch(false);
    if chk > 0 {
        // Commit the collision-free trial path and clear the flags
        // (Algorithm 2 line 12).
        aircraft[i].dx = vel.0;
        aircraft[i].dy = vel.1;
        aircraft[i].col = false;
        aircraft[i].col_with = NO_COLLISION;
        aircraft[i].time_till = cfg.critical_periods;
        sink.store(20);
        stats.resolved += 1;
    }
    stats
}

/// Detection without resolution (the split-kernel ablation's Task 2): one
/// scan with the committed velocity, flag critical conflicts, change
/// nothing else. Returns the stats of the scan.
pub fn detect_only(
    aircraft: &mut [Aircraft],
    i: usize,
    cfg: &AtmConfig,
    sink: &mut impl CostSink,
) -> DetectStats {
    detect_only_with(aircraft, &ScanIndex::Naive, i, cfg, sink)
}

/// [`detect_only`] over a prebuilt [`ScanIndex`] (same contract as
/// [`check_collision_path_with`]).
pub fn detect_only_with(
    aircraft: &mut [Aircraft],
    index: &ScanIndex,
    i: usize,
    cfg: &AtmConfig,
    sink: &mut impl CostSink,
) -> DetectStats {
    let mut stats = DetectStats::default();
    aircraft[i].time_till = cfg.critical_periods;
    sink.store(4);
    let vel = (aircraft[i].dx, aircraft[i].dy);
    let scan = scan_pairs(aircraft, index, i, vel, cfg, sink);
    stats.pair_checks = scan.checks;
    if let Some((partner, tmin)) = scan.critical {
        stats.critical_conflicts = 1;
        aircraft[i].col = true;
        aircraft[i].col_with = partner as i32;
        aircraft[i].time_till = tmin;
        sink.store(12);
    }
    stats
}

/// Sequential reference driver: run the fused routine for every aircraft in
/// index order and fold the stats. Honors [`AtmConfig::scan`]: one
/// [`ScanIndex`] is built up front and reused for every aircraft (positions
/// and altitudes never change during Tasks 2+3).
pub fn detect_resolve_all(
    aircraft: &mut [Aircraft],
    cfg: &AtmConfig,
    sink: &mut impl CostSink,
) -> DetectStats {
    let index = ScanIndex::for_config(aircraft, cfg);
    let mut total = DetectStats::default();
    let mut cands = Vec::new();
    for i in 0..aircraft.len() {
        let stats = check_collision_path_gathered(aircraft, &index, i, cfg, sink, &mut cands);
        total.absorb(&stats);
    }
    total
}
