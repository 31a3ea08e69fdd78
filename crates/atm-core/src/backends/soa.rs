//! The measured structure-of-arrays backend: the `simd-soa` scan path of
//! [`crate::detect::SoaFleet`] driven through the shared collision cascade.
//!
//! Tasks 2+3 are where the paper's kernels spend their time and where data
//! layout pays: the detect hot loop runs on split x/y/alt/velocity arrays
//! with a branch-free, lane-chunked gate pass (the lockstep idiom of
//! SIMD-X-style kernels), over the whole fleet ([`ScanMode::Naive`]) or the
//! persistent grid engine's candidate frontier ([`ScanMode::Grid`]). Task 1 and terrain avoidance are
//! correlation-protocol-bound rather than gate-bound, so they run the
//! sequential reference routines — byte-identity for the whole backend is
//! therefore by construction, with the SoA scan proven result-identical to
//! the reference scan separately ([`crate::detect::SoaFleet`] tests).

use crate::backends::seq::record_activity;
use crate::backends::{AtmBackend, BackendInfo, PlatformId, TimingKind};
use crate::config::{AtmConfig, ScanMode};
use crate::detect::{check_collision_path_scanned, DetectStats, IncrementalEngine, SoaFleet};
use crate::terrain::{terrain_avoidance_all, TerrainGrid, TerrainTaskConfig};
use crate::track::{track_correlate, TrackStats};
use crate::types::{Aircraft, RadarReport};
use sim_clock::{NullSink, SimDuration, Stopwatch};
use std::cell::RefCell;
use telemetry::Recorder;

/// ATM with the detect scan on structure-of-arrays data (measured timing).
///
/// Under [`ScanMode::Grid`] a persistent [`IncrementalEngine`] carries the
/// dirty-cell grid and replay cache across `detect_resolve` calls; live
/// scans run the SoA gate kernel over the engine's candidate frontier.
#[derive(Debug, Default)]
pub struct SimdSoaBackend {
    engine: IncrementalEngine,
    recorder: Option<Recorder>,
    last_track: Option<TrackStats>,
    last_detect: Option<DetectStats>,
}

impl SimdSoaBackend {
    /// A fresh SoA backend.
    pub fn new() -> Self {
        SimdSoaBackend::default()
    }

    /// Stats of the most recent Task 1 execution.
    pub fn last_track_stats(&self) -> Option<TrackStats> {
        self.last_track
    }

    /// Stats of the most recent Tasks 2+3 execution.
    pub fn last_detect_stats(&self) -> Option<DetectStats> {
        self.last_detect
    }
}

impl AtmBackend for SimdSoaBackend {
    fn info(&self) -> BackendInfo<'_> {
        BackendInfo {
            name: "SIMD SoA (host)",
            platform: PlatformId::SimdSoaHost,
            timing: TimingKind::Measured,
            device: "host CPU, structure-of-arrays gate kernel",
        }
    }

    fn track_correlate(
        &mut self,
        aircraft: &mut [Aircraft],
        radars: &mut [RadarReport],
        cfg: &AtmConfig,
    ) -> SimDuration {
        let sw = Stopwatch::start();
        self.last_track = Some(track_correlate(aircraft, radars, cfg, &mut NullSink));
        sw.elapsed()
    }

    fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = Some(recorder);
    }

    fn detect_resolve(&mut self, aircraft: &mut [Aircraft], cfg: &AtmConfig) -> SimDuration {
        let sw = Stopwatch::start();
        // Scan and commit-mirror closures interleave but never run at once,
        // so the SoA mirror sits in a RefCell they share. Positions and
        // altitudes are frozen during Tasks 2+3; only aircraft `i`'s
        // velocity can change during its own cascade.
        let fleet = RefCell::new(SoaFleet::from_aircraft(aircraft));
        let scratch = RefCell::new(Vec::new());
        let mirror = |ac: &[Aircraft], i: usize| {
            fleet.borrow_mut().set_velocity(i, (ac[i].dx, ac[i].dy));
        };
        let total = if cfg.scan == ScanMode::Grid {
            let total = self.engine.detect_resolve_unbooked(
                aircraft,
                cfg,
                |_ac, i, vel, cands| {
                    fleet
                        .borrow()
                        .scan_candidates(i, vel, cfg, cands, &mut scratch.borrow_mut())
                },
                mirror,
            );
            record_activity(&self.recorder, self.engine.activity());
            total
        } else {
            let n = aircraft.len();
            let mut total = DetectStats::default();
            for i in 0..n {
                total.absorb(&check_collision_path_scanned(
                    aircraft,
                    i,
                    cfg,
                    &mut NullSink,
                    |_ac, i, vel, _sink| {
                        fleet
                            .borrow()
                            .scan_range(i, vel, cfg, 0..n, &mut scratch.borrow_mut())
                    },
                ));
                mirror(aircraft, i);
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
        let sw = Stopwatch::start();
        terrain_avoidance_all(aircraft, grid, tcfg, &mut NullSink);
        sw.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::airfield::Airfield;
    use crate::backends::SequentialBackend;

    #[test]
    fn detect_is_byte_identical_to_sequential_across_scan_modes() {
        for scan in [ScanMode::Naive, ScanMode::Grid] {
            let field = Airfield::with_seed(600, 13);
            let mut cfg = field.config().clone();
            cfg.scan = scan;
            let mut ac_s = field.aircraft.clone();
            let mut ac_v = field.aircraft.clone();
            let mut seq = SequentialBackend::new();
            seq.detect_resolve(&mut ac_s, &cfg);
            let mut soa = SimdSoaBackend::new();
            soa.detect_resolve(&mut ac_v, &cfg);
            assert_eq!(ac_v, ac_s, "{scan:?}");
            assert_eq!(soa.last_detect_stats(), seq.last_detect_stats(), "{scan:?}");
        }
    }

    #[test]
    fn reports_measured_timing() {
        let b = SimdSoaBackend::new();
        assert_eq!(b.info().timing, TimingKind::Measured);
        assert_eq!(b.info().platform, PlatformId::SimdSoaHost);
    }
}
