//! The single-threaded host reference backend.

use crate::backends::{AtmBackend, BackendInfo, PlatformId, TimingKind};
use crate::config::{AtmConfig, ScanMode};
use crate::detect::{detect_resolve_all, DetectStats, IncrementalEngine, ScanActivity};
use crate::terrain::{terrain_avoidance_all, TerrainGrid, TerrainTaskConfig};
use crate::track::{track_correlate, TrackStats};
use crate::types::{Aircraft, RadarReport};
use sim_clock::{NullSink, SimDuration, Stopwatch};
use telemetry::Recorder;

/// Emit one rescan's dirty-cell hit-rate counters ([`ScanActivity`]) into
/// a telemetry recorder. Counters only fire on the measured backends' grid
/// runs, which never feed the byte-stable artifacts.
pub(crate) fn record_activity(recorder: &Option<Recorder>, act: &ScanActivity) {
    let Some(rec) = recorder else {
        return;
    };
    rec.counter_add("incremental.cells_dirty", act.cells_dirty);
    rec.counter_add("incremental.pairs_rescanned", act.pairs_rescanned);
    rec.counter_add("incremental.pairs_replayed", act.pairs_replayed);
}

/// The sequential reference implementation: the task algorithms run
/// directly on the host, timing is measured wall-clock, and the results
/// define the expected output the deterministic simulated backends must
/// reproduce bit-for-bit.
///
/// Under [`ScanMode::Grid`] the backend holds a persistent
/// [`IncrementalEngine`] across `detect_resolve` calls, so consecutive
/// rescans of a mostly-still fleet replay cached clean scans instead of
/// re-deriving them — with outputs bit-identical to the naive scan.
#[derive(Debug, Default)]
pub struct SequentialBackend {
    engine: IncrementalEngine,
    recorder: Option<Recorder>,
    last_track: Option<TrackStats>,
    last_detect: Option<DetectStats>,
}

impl SequentialBackend {
    /// A fresh sequential backend.
    pub fn new() -> Self {
        SequentialBackend::default()
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

impl AtmBackend for SequentialBackend {
    fn info(&self) -> BackendInfo<'_> {
        BackendInfo {
            name: "Sequential (host)",
            platform: PlatformId::SequentialHost,
            timing: TimingKind::Measured,
            device: "host CPU, single thread",
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
        let stats = if cfg.scan == ScanMode::Grid {
            let stats = self.engine.detect_resolve(aircraft, cfg, &mut NullSink);
            record_activity(&self.recorder, self.engine.activity());
            stats
        } else {
            detect_resolve_all(aircraft, cfg, &mut NullSink)
        };
        self.last_detect = Some(stats);
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

    #[test]
    fn runs_and_reports_stats() {
        let mut field = Airfield::with_seed(128, 11);
        let mut radars = field.generate_radar();
        let mut backend = SequentialBackend::new();
        let cfg = AtmConfig::default();
        let d = backend.track_correlate(&mut field.aircraft, &mut radars, &cfg);
        assert!(d > SimDuration::ZERO);
        let stats = backend.last_track_stats().unwrap();
        assert!(stats.matched > 100);

        let d2 = backend.detect_resolve(&mut field.aircraft, &cfg);
        assert!(d2 > SimDuration::ZERO);
        assert!(backend.last_detect_stats().unwrap().pair_checks > 0);
    }

    #[test]
    fn timing_is_measured() {
        let backend = SequentialBackend::new();
        assert_eq!(backend.info().timing, TimingKind::Measured);
    }
}
