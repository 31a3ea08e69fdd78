//! The real-thread shared-memory MIMD implementation of the ATM tasks.
//!
//! This is the honest multi-core baseline: the tasks run on actual host
//! threads ([`multicore::MimdPool`]) over a shared flight database, and the
//! reported durations are *measured wall time* — including all the
//! scheduling noise, cache traffic and synchronization cost that make MIMD
//! timing unpredictable, which is the property the paper holds against
//! multi-cores for hard-real-time use.
//!
//! Parallelization structure (mirroring the prior work's Xeon program):
//!
//! * **Task 1** — barrier phases. The per-aircraft phases partition
//!   disjointly; the per-radar correlation phase shares the aircraft match
//!   state through atomics, with a compare-and-swap claim protocol: a CAS
//!   `NONE → ONE` claims an aircraft for a radar, and a lost race is
//!   exactly the "two radars hit one aircraft" rule, so the loser marks
//!   the aircraft [`MATCH_MULTIPLE`]. Because radar threads race, which
//!   radar wins a claim can differ from the sequential serialization —
//!   real MIMD non-determinism, surfaced rather than hidden (the final
//!   states still satisfy all of Task 1's invariants; see tests).
//! * **Tasks 2+3** — each thread resolves its aircraft against an
//!   immutable snapshot of the fleet taken at the start of the task, then
//!   a commit phase applies the new paths and a short sequential pass
//!   applies partner markings. (The sequential/GPU cascade lets aircraft
//!   `i` see `j < i`'s already-resolved path; a parallel implementation
//!   cannot, so this backend trades that freshness for parallelism — the
//!   standard shared-memory formulation.)

use crate::backends::{AtmBackend, BackendInfo, PlatformId, TimingKind};
#[cfg(test)]
use crate::batcher::conflict_window;
use crate::config::AtmConfig;
use crate::detect::{scan_pairs, simulate_turn, ScanIndex, TurnOutcome};
use crate::terrain::{check_terrain, TerrainGrid, TerrainTaskConfig};
use crate::track::any_unmatched;
use crate::types::{
    Aircraft, RadarReport, MATCH_MULTIPLE, MATCH_NONE, MATCH_ONE, NO_COLLISION, RADAR_DISCARDED,
    RADAR_UNMATCHED,
};
use multicore::MimdPool;
use sim_clock::{NullSink, SimDuration, Stopwatch};
use std::sync::atomic::{AtomicI32, Ordering};
use telemetry::Recorder;

/// ATM on real host threads over shared memory.
pub struct MimdBackend {
    pool: MimdPool,
    /// Formatted once at construction so [`AtmBackend::info`] can borrow.
    name: String,
    device: String,
}

impl MimdBackend {
    /// A backend with `threads` worker threads (the paper's Xeon had 16).
    pub fn new(threads: usize) -> Self {
        MimdBackend::from_pool(MimdPool::new(threads))
    }

    /// A backend sized to the host.
    pub fn host_sized() -> Self {
        MimdBackend::from_pool(MimdPool::host_sized())
    }

    fn from_pool(pool: MimdPool) -> Self {
        let name = format!("MIMD host ({} threads)", pool.threads());
        let device = format!("host CPU, {} worker threads", pool.threads());
        MimdBackend { pool, name, device }
    }

    /// Worker thread count.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }
}

impl AtmBackend for MimdBackend {
    fn info(&self) -> BackendInfo<'_> {
        BackendInfo {
            name: &self.name,
            platform: PlatformId::MimdHost,
            timing: TimingKind::Measured,
            device: &self.device,
        }
    }

    fn set_recorder(&mut self, recorder: Recorder) {
        self.pool.set_recorder(recorder);
    }

    fn track_correlate(
        &mut self,
        aircraft: &mut [Aircraft],
        radars: &mut [RadarReport],
        cfg: &AtmConfig,
    ) -> SimDuration {
        let sw = Stopwatch::start();
        let n = aircraft.len();

        // Phase A: expected positions (disjoint per aircraft).
        self.pool.parallel_for_mut(aircraft, |_, a| {
            a.expected_x = a.x + a.dx;
            a.expected_y = a.y + a.dy;
            a.r_match = MATCH_NONE;
        });

        // Shared correlation state: expected positions are read-only during
        // the radar phase; match state and radar claims go through atomics.
        let expected: Vec<(f32, f32)> = aircraft
            .iter()
            .map(|a| (a.expected_x, a.expected_y))
            .collect();
        let match_state: Vec<AtomicI32> = (0..n).map(|_| AtomicI32::new(MATCH_NONE)).collect();
        let claimed_by: Vec<AtomicI32> = (0..n).map(|_| AtomicI32::new(-1)).collect();

        for pass in 0..cfg.track_passes {
            if pass > 0 && !any_unmatched(radars) {
                break;
            }
            let hw = cfg.pass_half_width(pass);
            let expected = &expected;
            let match_state = &match_state;
            let claimed_by = &claimed_by;
            self.pool.parallel_for_mut(radars, |i, radar| {
                if radar.r_match_with != RADAR_UNMATCHED {
                    return;
                }
                let mut first: Option<usize> = None;
                let mut extra = false;
                for p in 0..n {
                    let st = match_state[p].load(Ordering::Acquire);
                    if st == MATCH_MULTIPLE {
                        continue;
                    }
                    if pass > 0 && st == MATCH_ONE {
                        continue;
                    }
                    let (ex, ey) = expected[p];
                    if (radar.rx - ex).abs() >= hw || (radar.ry - ey).abs() >= hw {
                        continue;
                    }
                    if st == MATCH_ONE {
                        // Second radar on a matched aircraft: drop it.
                        match_state[p].store(MATCH_MULTIPLE, Ordering::Release);
                        continue;
                    }
                    if first.is_none() {
                        first = Some(p);
                    } else {
                        extra = true;
                    }
                }
                if extra {
                    radar.r_match_with = RADAR_DISCARDED;
                } else if let Some(p) = first {
                    match match_state[p].compare_exchange(
                        MATCH_NONE,
                        MATCH_ONE,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    ) {
                        Ok(_) => {
                            radar.r_match_with = p as i32;
                            claimed_by[p].store(i as i32, Ordering::Release);
                        }
                        Err(_) => {
                            // A concurrent radar claimed it first: the
                            // aircraft has seen two radars.
                            match_state[p].store(MATCH_MULTIPLE, Ordering::Release);
                        }
                    }
                }
            });
        }

        // Commit phase: fold atomic state back and adopt positions.
        let radars_ro: &[RadarReport] = radars;
        let match_state = &match_state;
        let claimed_by = &claimed_by;
        self.pool.parallel_for_mut(aircraft, |p, a| {
            a.r_match = match_state[p].load(Ordering::Acquire);
            a.x = a.expected_x;
            a.y = a.expected_y;
            if a.r_match == MATCH_ONE {
                let c = claimed_by[p].load(Ordering::Acquire);
                if c >= 0 {
                    let r = &radars_ro[c as usize];
                    a.x = r.rx;
                    a.y = r.ry;
                }
            }
        });

        sw.elapsed()
    }

    fn detect_resolve(&mut self, aircraft: &mut [Aircraft], cfg: &AtmConfig) -> SimDuration {
        let sw = Stopwatch::start();
        let snapshot: Vec<Aircraft> = aircraft.to_vec();
        // Shared read-only across worker threads; the snapshot's positions
        // and altitudes are frozen, so one index serves every thread.
        let index = ScanIndex::for_config(&snapshot, cfg);

        // Each thread runs Algorithm 2 against the snapshot and keeps the
        // turn's outcome plus its last partner mark.
        let mut outcomes = vec![(TurnOutcome::Clean, None); aircraft.len()];
        {
            let (snapshot, index) = (&snapshot, &index);
            self.pool.parallel_for_mut(&mut outcomes, |i, out| {
                let base = (snapshot[i].dx, snapshot[i].dy);
                let turn = simulate_turn(base, cfg, &mut NullSink, |vel, sink| {
                    scan_pairs(snapshot, index, i, vel, cfg, sink)
                });
                *out = (turn.outcome, turn.events.last().copied());
            });
        }

        // Commit own outcomes in parallel (disjoint)…
        let outcomes_ro: &[(TurnOutcome, Option<(u32, f32)>)] = &outcomes;
        self.pool.parallel_for_mut(aircraft, |i, a| {
            let (col, col_with, time_till, vel) = match outcomes_ro[i].0 {
                TurnOutcome::Clean => (false, NO_COLLISION, cfg.critical_periods, (a.dx, a.dy)),
                TurnOutcome::Resolved { vel } => (false, NO_COLLISION, cfg.critical_periods, vel),
                TurnOutcome::Unresolved { partner, tmin } => {
                    (true, partner as i32, tmin, (a.dx, a.dy))
                }
            };
            a.col = col;
            a.col_with = col_with;
            a.time_till = time_till;
            (a.dx, a.dy) = vel;
            (a.batx, a.baty) = vel;
        });
        // …then the short sequential partner-marking pass.
        for &(_, mark) in &outcomes {
            if let Some((p, tmin)) = mark {
                let p = p as usize;
                aircraft[p].col = true;
                aircraft[p].time_till = aircraft[p].time_till.min(tmin);
            }
        }

        sw.elapsed()
    }

    fn terrain_avoidance(
        &mut self,
        aircraft: &mut [Aircraft],
        grid: &TerrainGrid,
        tcfg: &TerrainTaskConfig,
    ) -> SimDuration {
        // Perfectly parallel: each thread owns its aircraft; the terrain
        // grid is shared read-only.
        let sw = Stopwatch::start();
        self.pool.parallel_for_mut(aircraft, |_, a| {
            let mut one = [*a];
            check_terrain(&mut one, 0, grid, tcfg, &mut NullSink);
            *a = one[0];
        });
        sw.elapsed()
    }
}

/// Check a resolved fleet against the snapshot the resolutions were
/// computed from: every aircraft that committed a new path must be free of
/// critical conflicts w.r.t. that snapshot. (Shared test helper.)
#[cfg(test)]
fn committed_paths_are_clear(
    snapshot: &[Aircraft],
    resolved: &[Aircraft],
    cfg: &AtmConfig,
) -> bool {
    resolved.iter().enumerate().all(|(i, a)| {
        if a.col {
            return true; // unresolved or partner-marked: not a commitment
        }
        let vel = (a.dx, a.dy);
        snapshot.iter().enumerate().all(|(p, trial)| {
            if p == i || (trial.alt - a.alt).abs() >= cfg.alt_separation_ft {
                return true;
            }
            match conflict_window(
                &snapshot[i],
                vel,
                trial,
                cfg.separation_nm,
                cfg.horizon_periods,
                &mut NullSink,
            ) {
                Some((tmin, _)) => tmin >= cfg.critical_periods,
                None => true,
            }
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::airfield::Airfield;
    use crate::track::TrackStats;

    fn track_invariants(aircraft: &[Aircraft], radars: &[RadarReport]) -> TrackStats {
        // Every matched radar points at an aircraft; every MATCH_ONE
        // aircraft is claimed by at most one matched radar.
        let mut claims = vec![0u32; aircraft.len()];
        for r in radars {
            if r.matched() {
                claims[r.r_match_with as usize] += 1;
            }
        }
        for (p, a) in aircraft.iter().enumerate() {
            if a.r_match == MATCH_ONE {
                assert!(claims[p] >= 1, "matched aircraft {p} has no radar");
            }
        }
        TrackStats {
            matched: aircraft.iter().filter(|a| a.r_match == MATCH_ONE).count() as u64,
            ..Default::default()
        }
    }

    #[test]
    fn mimd_track_satisfies_matching_invariants() {
        let mut field = Airfield::with_seed(600, 21);
        let mut radars = field.generate_radar();
        let cfg = field.config().clone();
        let mut backend = MimdBackend::new(8);
        let d = backend.track_correlate(&mut field.aircraft, &mut radars, &cfg);
        assert!(d > SimDuration::ZERO);
        let stats = track_invariants(&field.aircraft, &radars);
        assert!(
            stats.matched > 500,
            "most aircraft should correlate: {stats:?}"
        );
    }

    #[test]
    fn mimd_track_positions_are_expected_or_radar() {
        let mut field = Airfield::with_seed(300, 22);
        let before: Vec<Aircraft> = field.aircraft.clone();
        let mut radars = field.generate_radar();
        let cfg = field.config().clone();
        MimdBackend::new(4).track_correlate(&mut field.aircraft, &mut radars, &cfg);
        for (a, b) in field.aircraft.iter().zip(&before) {
            let expected = (b.x + b.dx, b.y + b.dy);
            let at_expected = (a.x - expected.0).abs() < 1e-6 && (a.y - expected.1).abs() < 1e-6;
            let at_some_radar = radars
                .iter()
                .any(|r| (a.x - r.rx).abs() < 1e-6 && (a.y - r.ry).abs() < 1e-6);
            assert!(at_expected || at_some_radar);
        }
    }

    #[test]
    fn mimd_detect_commits_conflict_free_paths() {
        let cfg = AtmConfig::default();
        let field = Airfield::with_seed(400, 23);
        let snapshot = field.aircraft.clone();
        let mut ac = field.aircraft.clone();
        MimdBackend::new(8).detect_resolve(&mut ac, &cfg);
        assert!(committed_paths_are_clear(&snapshot, &ac, &cfg));
    }

    #[test]
    fn mimd_detect_preserves_speeds() {
        let cfg = AtmConfig::default();
        let field = Airfield::with_seed(200, 24);
        let speeds: Vec<f32> = field.aircraft.iter().map(|a| a.speed()).collect();
        let mut ac = field.aircraft.clone();
        MimdBackend::new(4).detect_resolve(&mut ac, &cfg);
        for (a, s) in ac.iter().zip(speeds) {
            assert!((a.speed() - s).abs() < 1e-4, "rotation must preserve speed");
        }
    }

    #[test]
    fn single_threaded_mimd_track_matches_sequential_semantics() {
        // With one thread there are no races: the CAS protocol degenerates
        // to the sequential matching rules.
        use crate::backends::SequentialBackend;
        let cfg = AtmConfig::default();
        let mk = || {
            let mut f = Airfield::with_seed(250, 25);
            let r = f.generate_radar();
            (f.aircraft, r)
        };
        let (mut ac_m, mut rd_m) = mk();
        let (mut ac_s, mut rd_s) = mk();
        MimdBackend::new(1).track_correlate(&mut ac_m, &mut rd_m, &cfg);
        SequentialBackend::new().track_correlate(&mut ac_s, &mut rd_s, &cfg);
        for (m, s) in ac_m.iter().zip(&ac_s) {
            assert_eq!(m.x, s.x);
            assert_eq!(m.y, s.y);
            assert_eq!(m.r_match, s.r_match);
        }
        assert_eq!(rd_m, rd_s);
    }

    #[test]
    fn thread_count_is_reported() {
        assert_eq!(MimdBackend::new(16).threads(), 16);
        assert!(MimdBackend::host_sized().threads() >= 1);
        let backend = MimdBackend::new(3);
        assert!(backend.info().name.contains("3 threads"));
        assert_eq!(backend.info().platform, PlatformId::MimdHost);
    }
}
