//! The measured thread-pool backend: real chunked data-parallel execution
//! with outputs byte-identical to the sequential reference.
//!
//! Where [`crate::backends::MimdBackend`] is the *honest* shared-memory
//! baseline (racing radar claims, snapshot resolution — real MIMD
//! non-determinism, surfaced), this backend is the *deterministic*
//! thread-pool substrate: every parallel phase is constructed so its
//! result is provably the sequential serialization's, making the measured
//! wall-clock curves directly comparable against the modeled platforms on
//! identical outputs.
//!
//! * **Tasks 2+3** — the sequential per-aircraft cascade is kept (aircraft
//!   `i` must see `j < i`'s committed paths), and the O(n) *inner scan* is
//!   what parallelizes: [`multicore::MimdPool::map_chunks`] splits the
//!   candidate space into contiguous chunks in deterministic order, each
//!   chunk runs the unified scan-kernel gates
//!   ([`crate::detect::scan_candidates`] over an index range of the fleet
//!   or a slice of the grid engine's candidates), and the partial results fold
//!   left-to-right with [`ScanResult::merge`] — exact because the
//!   selection is a lexicographic minimum. The mutation cascade itself is
//!   shared code ([`check_collision_path_scanned`]).
//! * **Task 1** — the per-radar box scan is state-independent (expected
//!   positions are frozen during correlation), so each pass precomputes
//!   every scanning radar's geometric hit list in parallel, then a cheap
//!   serial replay applies the matching rules over the hit lists in radar
//!   index order — bit-for-bit the sequential protocol, at a fraction of
//!   its serial work.
//! * **Terrain** — embarrassingly parallel, chunked per aircraft.

use crate::backends::seq::record_activity;
use crate::backends::{AtmBackend, BackendInfo, PlatformId, TimingKind};
use crate::config::{AtmConfig, ScanMode};
use crate::detect::{
    check_collision_path_scanned, scan_candidates, DetectStats, IncrementalEngine, ScanResult,
};
use crate::terrain::{check_terrain, TerrainGrid, TerrainTaskConfig};
use crate::track::{any_unmatched, TrackStats};
use crate::types::{
    Aircraft, RadarReport, MATCH_MULTIPLE, MATCH_NONE, MATCH_ONE, RADAR_DISCARDED, RADAR_UNMATCHED,
};
use multicore::MimdPool;
use sim_clock::{NullSink, SimDuration, Stopwatch};
use telemetry::Recorder;

/// Below this many scan items a chunked dispatch costs more than it saves
/// (scoped-thread spawn per phase); the scan runs inline instead. Results
/// are identical either way — this is a wall-clock knob only.
const PAR_CUTOFF: usize = 1024;

/// ATM on a deterministic chunked thread pool (measured timing).
///
/// Under [`ScanMode::Grid`] a persistent [`IncrementalEngine`] carries the
/// dirty-cell grid and replay cache across `detect_resolve` calls; live
/// scans still fan over the pool in deterministic chunks.
pub struct MulticoreBackend {
    pool: MimdPool,
    engine: IncrementalEngine,
    recorder: Option<Recorder>,
    device: String,
    last_track: Option<TrackStats>,
    last_detect: Option<DetectStats>,
}

impl MulticoreBackend {
    /// A backend with `threads` workers.
    pub fn new(threads: usize) -> Self {
        MulticoreBackend::from_pool(MimdPool::new(threads))
    }

    /// A backend sized by [`MimdPool::measure_threads`] (the
    /// `ATM_MEASURE_THREADS` pin, else available parallelism).
    pub fn host_sized() -> Self {
        MulticoreBackend::from_pool(MimdPool::host_sized())
    }

    fn from_pool(pool: MimdPool) -> Self {
        let device = format!(
            "host CPU, {} worker threads, chunked deterministic scan",
            pool.threads()
        );
        MulticoreBackend {
            pool,
            engine: IncrementalEngine::new(),
            recorder: None,
            device,
            last_track: None,
            last_detect: None,
        }
    }

    /// Worker thread count.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Stats of the most recent Task 1 execution.
    pub fn last_track_stats(&self) -> Option<TrackStats> {
        self.last_track
    }

    /// Stats of the most recent Tasks 2+3 execution.
    pub fn last_detect_stats(&self) -> Option<DetectStats> {
        self.last_detect
    }

    /// One scan of aircraft `i`, chunked over the pool and folded in chunk
    /// order: over the whole fleet when `cands` is `None` (the naive scan),
    /// else over the grid engine's candidate superset (valid for every
    /// rotation rescan of `i`: candidate sets depend only on positions and
    /// altitudes, which are frozen).
    fn pooled_scan(
        &self,
        aircraft: &[Aircraft],
        cands: Option<&[u32]>,
        i: usize,
        vel: (f32, f32),
        cfg: &AtmConfig,
    ) -> ScanResult {
        let n = aircraft.len();
        let scan = |range: std::ops::Range<usize>| match cands {
            None => scan_candidates(aircraft, None, i, n, vel, cfg, range, &mut NullSink),
            Some(c) => {
                let chunk = c[range].iter().map(|&p| p as usize);
                scan_candidates(aircraft, None, i, n, vel, cfg, chunk, &mut NullSink)
            }
        };
        let len = cands.map_or(n, <[u32]>::len);
        if len < PAR_CUTOFF || self.pool.threads() == 1 {
            return scan(0..len);
        }
        self.pool
            .map_chunks(len, |_, range| scan(range))
            .into_iter()
            .fold(ScanResult::CLEAR, ScanResult::merge)
    }
}

impl AtmBackend for MulticoreBackend {
    fn info(&self) -> BackendInfo<'_> {
        BackendInfo {
            name: "Multicore (thread pool)",
            platform: PlatformId::MulticoreHost,
            timing: TimingKind::Measured,
            device: &self.device,
        }
    }

    fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = Some(recorder.clone());
        self.pool.set_recorder(recorder);
    }

    fn track_correlate(
        &mut self,
        aircraft: &mut [Aircraft],
        radars: &mut [RadarReport],
        cfg: &AtmConfig,
    ) -> SimDuration {
        let sw = Stopwatch::start();
        let mut stats = TrackStats::default();
        let n = aircraft.len();

        // Phase 1 (parallel, disjoint): expected positions, state reset —
        // the same arithmetic as the sequential phase.
        self.pool.parallel_for_mut(aircraft, |_, a| {
            a.expected_x = a.x + a.dx;
            a.expected_y = a.y + a.dy;
            a.r_match = MATCH_NONE;
        });

        // Correlation passes. The box test is state-independent (expected
        // positions never change during correlation), so the expensive
        // O(radars × aircraft) geometry runs as a parallel hit-list build,
        // and only the cheap O(hits) matching protocol replays serially in
        // radar index order — the exact sequential serialization.
        let mut hits: Vec<Vec<u32>> = vec![Vec::new(); radars.len()];
        for pass in 0..cfg.track_passes {
            if pass > 0 && !any_unmatched(radars) {
                break;
            }
            stats.passes_run += 1;
            let hw = cfg.pass_half_width(pass);
            {
                // A radar settled in an earlier pass stays settled (only
                // its own outcome can settle it), so the pass-entry set is
                // fixed at pass start and safe to read concurrently.
                let aircraft_ro: &[Aircraft] = aircraft;
                let radars_ro: &[RadarReport] = radars;
                self.pool.parallel_for_mut(&mut hits, |i, hit| {
                    hit.clear();
                    let r = &radars_ro[i];
                    if r.r_match_with != RADAR_UNMATCHED {
                        return;
                    }
                    for (p, a) in aircraft_ro.iter().enumerate() {
                        if (r.rx - a.expected_x).abs() < hw && (r.ry - a.expected_y).abs() < hw {
                            hit.push(p as u32);
                        }
                    }
                });
            }
            // Serial replay of the matching rules (Algorithm 1 lines 6–11)
            // over the in-box aircraft, radars in index order. State
            // filters apply here, against live state, exactly as the
            // sequential pass interleaves them.
            for i in 0..radars.len() {
                if radars[i].r_match_with != RADAR_UNMATCHED {
                    continue;
                }
                // The sequential pass counts a box test per aircraft before
                // any state filter, so a scanning radar always books n.
                stats.box_tests += n as u64;
                let mut first_hit: Option<usize> = None;
                let mut extra_unmatched_hit = false;
                for &p in &hits[i] {
                    let p = p as usize;
                    if aircraft[p].r_match == MATCH_MULTIPLE {
                        continue;
                    }
                    if pass > 0 && aircraft[p].r_match == MATCH_ONE {
                        continue;
                    }
                    if aircraft[p].r_match == MATCH_ONE {
                        aircraft[p].r_match = MATCH_MULTIPLE;
                        continue;
                    }
                    if first_hit.is_none() {
                        first_hit = Some(p);
                    } else {
                        extra_unmatched_hit = true;
                    }
                }
                if extra_unmatched_hit {
                    radars[i].r_match_with = RADAR_DISCARDED;
                } else if let Some(p) = first_hit {
                    radars[i].r_match_with = p as i32;
                    aircraft[p].r_match = MATCH_ONE;
                }
            }
        }

        // Phase 3a (parallel, disjoint): adopt expected positions.
        self.pool.parallel_for_mut(aircraft, |_, a| {
            a.x = a.expected_x;
            a.y = a.expected_y;
        });
        // Phase 3b (serial, cheap): matched radars override positions.
        for r in radars.iter() {
            let m = r.r_match_with;
            if m >= 0 {
                let p = m as usize;
                if aircraft[p].r_match == MATCH_ONE {
                    aircraft[p].x = r.rx;
                    aircraft[p].y = r.ry;
                }
            }
        }

        stats.matched = aircraft.iter().filter(|a| a.r_match == MATCH_ONE).count() as u64;
        stats.dropped_aircraft = aircraft
            .iter()
            .filter(|a| a.r_match == MATCH_MULTIPLE)
            .count() as u64;
        stats.discarded_radars = radars
            .iter()
            .filter(|r| r.r_match_with == RADAR_DISCARDED)
            .count() as u64;
        stats.unmatched_radars = radars
            .iter()
            .filter(|r| r.r_match_with == RADAR_UNMATCHED)
            .count() as u64;
        self.last_track = Some(stats);
        sw.elapsed()
    }

    fn detect_resolve(&mut self, aircraft: &mut [Aircraft], cfg: &AtmConfig) -> SimDuration {
        let sw = Stopwatch::start();
        let total = if cfg.scan == ScanMode::Grid {
            // The engine enumerates candidates and replays cached clean
            // scans; live scans still chunk over the pool.
            let mut engine = std::mem::take(&mut self.engine);
            let total = engine.detect_resolve_unbooked(
                aircraft,
                cfg,
                |ac, i, vel, cands| self.pooled_scan(ac, Some(cands), i, vel, cfg),
                |_, _| {},
            );
            record_activity(&self.recorder, engine.activity());
            self.engine = engine;
            total
        } else {
            let mut total = DetectStats::default();
            for i in 0..aircraft.len() {
                total.absorb(&check_collision_path_scanned(
                    aircraft,
                    i,
                    cfg,
                    &mut NullSink,
                    |ac, i, vel, _sink| self.pooled_scan(ac, None, i, vel, cfg),
                ));
            }
            total
        };
        self.last_detect = Some(total);
        sw.elapsed()
    }

    fn terrain_avoidance(
        &mut self,
        aircraft: &mut [Aircraft],
        grid: &TerrainGrid,
        tcfg: &TerrainTaskConfig,
    ) -> SimDuration {
        // No cross-aircraft interaction: chunked parallel is exact.
        let sw = Stopwatch::start();
        self.pool.parallel_for_mut(aircraft, |_, a| {
            let mut one = [*a];
            check_terrain(&mut one, 0, grid, tcfg, &mut NullSink);
            *a = one[0];
        });
        sw.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::airfield::Airfield;
    use crate::backends::SequentialBackend;

    fn fresh(n: usize, seed: u64) -> (Vec<Aircraft>, Vec<RadarReport>, AtmConfig) {
        let mut field = Airfield::with_seed(n, seed);
        let radars = field.generate_radar();
        let cfg = field.config().clone();
        (field.aircraft, radars, cfg)
    }

    #[test]
    fn track_is_byte_identical_to_sequential_for_any_thread_count() {
        for threads in [1, 2, 3, 8] {
            let (mut ac_s, mut rd_s, cfg) = fresh(400, 77);
            let (mut ac_m, mut rd_m, _) = fresh(400, 77);
            let mut seq = SequentialBackend::new();
            seq.track_correlate(&mut ac_s, &mut rd_s, &cfg);
            let mut mc = MulticoreBackend::new(threads);
            mc.track_correlate(&mut ac_m, &mut rd_m, &cfg);
            assert_eq!(ac_m, ac_s, "threads={threads}");
            assert_eq!(rd_m, rd_s, "threads={threads}");
            assert_eq!(
                mc.last_track_stats(),
                seq.last_track_stats(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn detect_is_byte_identical_to_sequential_below_and_above_the_cutoff() {
        // n=300 stays inline; n=1500 crosses PAR_CUTOFF on the naive scan.
        for &(n, seed) in &[(300usize, 5u64), (1_500, 6)] {
            let (mut ac_s, _, cfg) = fresh(n, seed);
            let (mut ac_m, _, _) = fresh(n, seed);
            let mut seq = SequentialBackend::new();
            seq.detect_resolve(&mut ac_s, &cfg);
            let mut mc = MulticoreBackend::new(4);
            mc.detect_resolve(&mut ac_m, &cfg);
            assert_eq!(ac_m, ac_s, "n={n}");
            assert_eq!(mc.last_detect_stats(), seq.last_detect_stats(), "n={n}");
        }
    }

    #[test]
    fn reports_measured_timing_and_thread_count() {
        let b = MulticoreBackend::new(3);
        assert_eq!(b.threads(), 3);
        assert_eq!(b.info().timing, TimingKind::Measured);
        assert_eq!(b.info().platform, PlatformId::MulticoreHost);
        assert!(MulticoreBackend::host_sized().threads() >= 1);
    }
}
