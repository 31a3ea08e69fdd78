//! The associative-processor implementation of the ATM tasks.
//!
//! Follows the structure of the prior work's STARAN/ClearSpeed programs
//! ([12, 13]) on the [`ap_sim::ApMachine`] primitives:
//!
//! * **Task 1** — the control unit iterates the radar reports; for each
//!   one it broadcasts the report and performs *constant-time* associative
//!   searches over all aircraft (matched-hit search, unmatched-hit search),
//!   applies the match/discard rules with masked parallel writes, and
//!   resolves the match with the response counter/pick-one network. Total:
//!   O(1) associative work per radar → O(n) per period, the AP's defining
//!   linear bound.
//! * **Tasks 2+3** — the control unit iterates the aircraft; each step
//!   broadcasts the track's (trial) path, a single masked arithmetic step
//!   computes every PE's Batcher window start in parallel, an associative
//!   search finds critical responders and a min-reduction picks the
//!   earliest; rotations re-broadcast and repeat. Again O(1) associative
//!   work per aircraft (bounded rotations) → O(n).
//!
//! The per-radar/per-aircraft rule evaluation is written to produce results
//! bit-identical to the sequential reference (see tests), so the backends
//! differ only in *time*, never in answers.

use crate::backends::{AtmBackend, BackendInfo, PlatformId, TimingKind};
use crate::batcher::{conflict_window, within_critical_reach};
use crate::config::AtmConfig;
use crate::detect::ScanIndex;
use crate::terrain::{TerrainGrid, TerrainTaskConfig};
use crate::types::{
    Aircraft, RadarReport, MATCH_MULTIPLE, MATCH_NONE, MATCH_ONE, NO_COLLISION, RADAR_DISCARDED,
    RADAR_UNMATCHED,
};
use ap_sim::{ApMachine, ApTimingProfile, ResponderSet};
use sim_clock::{NullSink, SimDuration};
use telemetry::Recorder;

/// One PE's contents: the flight record plus the scratch word the detection
/// step uses for its per-PE window start.
#[derive(Clone, Copy, Debug)]
struct ApRecord {
    a: Aircraft,
    scratch: f32,
    /// Pending radar position to adopt at the end of Task 1 (written by
    /// the match step, consumed by the final adopt step).
    pending: Option<(f32, f32)>,
}

/// Words per [`ApRecord`] for I/O pricing (flight record + scratch).
const AP_RECORD_WORDS: u32 = Aircraft::RECORD_WORDS + 1;

/// ATM on an emulated associative processor.
pub struct ApBackend {
    profile: ApTimingProfile,
    platform: PlatformId,
    recorder: Recorder,
    /// Where the next machine run starts on the telemetry track (machines
    /// are rebuilt per task, so spans from successive tasks must not
    /// overlap at origin zero).
    telemetry_clock: SimDuration,
}

impl ApBackend {
    /// ATM on an arbitrary AP timing profile. Profiles outside the paper's
    /// two machines report themselves as the STARAN-class platform.
    pub fn new(profile: ApTimingProfile) -> Self {
        let platform = match profile.name {
            "ClearSpeed CSX600" => PlatformId::ClearSpeedCsx600,
            _ => PlatformId::StaranAp,
        };
        ApBackend {
            profile,
            platform,
            recorder: Recorder::disabled(),
            telemetry_clock: SimDuration::ZERO,
        }
    }

    /// The STARAN associative processor.
    pub fn staran() -> Self {
        ApBackend::new(ApTimingProfile::staran())
    }

    /// The ClearSpeed CSX600 emulation of the AP.
    pub fn clearspeed() -> Self {
        ApBackend::new(ApTimingProfile::clearspeed_csx600())
    }

    fn machine(&self, aircraft: &[Aircraft]) -> ApMachine<ApRecord> {
        let mut m = ApMachine::new(self.profile.clone());
        if self.recorder.is_enabled() {
            let track = self.recorder.track(&format!("ap: {}", self.profile.name));
            m.set_telemetry(self.recorder.clone(), track, self.telemetry_clock);
        }
        let records = aircraft
            .iter()
            .map(|&a| ApRecord {
                a,
                scratch: f32::INFINITY,
                pending: None,
            })
            .collect();
        m.load_records(records, AP_RECORD_WORDS);
        m
    }

    /// Book a finished machine run: its elapsed time moves the telemetry
    /// origin so the next run's spans start where this one ended.
    fn finish(&mut self, m: &ApMachine<ApRecord>) -> SimDuration {
        let elapsed = m.elapsed();
        self.telemetry_clock += elapsed;
        elapsed
    }

    fn writeback(m: &mut ApMachine<ApRecord>, aircraft: &mut [Aircraft]) {
        let records = m.unload_records(AP_RECORD_WORDS);
        for (dst, rec) in aircraft.iter_mut().zip(records) {
            *dst = rec.a;
        }
    }
}

impl AtmBackend for ApBackend {
    fn info(&self) -> BackendInfo<'_> {
        let device = match self.platform {
            PlatformId::ClearSpeedCsx600 => "192 PEs @ 250 MHz (2x CSX600)",
            _ => "8192 bit-serial PEs @ 7 MHz",
        };
        BackendInfo {
            name: self.profile.name,
            platform: self.platform,
            timing: TimingKind::Modeled,
            device,
        }
    }

    fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    fn track_correlate(
        &mut self,
        aircraft: &mut [Aircraft],
        radars: &mut [RadarReport],
        cfg: &AtmConfig,
    ) -> SimDuration {
        let mut m = self.machine(aircraft);
        let n = aircraft.len();

        // Phase 1: expected positions + state reset, one parallel step.
        m.for_each_all(4, |_, r| {
            r.a.expected_x = r.a.x + r.a.dx;
            r.a.expected_y = r.a.y + r.a.dy;
            r.a.r_match = MATCH_NONE;
            r.pending = None;
        });

        // Phase 2: the control unit drives each radar through constant-time
        // associative steps.
        for pass in 0..cfg.track_passes {
            if pass > 0 && !radars.iter().any(|r| r.r_match_with == RADAR_UNMATCHED) {
                break;
            }
            let hw = cfg.pass_half_width(pass);
            for radar in radars.iter_mut() {
                if radar.r_match_with != RADAR_UNMATCHED {
                    continue;
                }
                let (rx, ry) = m.broadcast((radar.rx, radar.ry));

                // Matched aircraft hit again by this radar → dropped
                // (pass 0 only; later passes scan unmatched aircraft only).
                if pass == 0 {
                    let hit_matched = m.search(2, |r| {
                        r.a.r_match == MATCH_ONE
                            && (rx - r.a.expected_x).abs() < hw
                            && (ry - r.a.expected_y).abs() < hw
                    });
                    if hit_matched.any() {
                        m.for_each_masked(&hit_matched, 1, |_, r| {
                            r.a.r_match = MATCH_MULTIPLE;
                        });
                    }
                }

                // Unmatched aircraft in the box: the response count decides.
                let hit_unmatched = m.search(2, |r| {
                    r.a.r_match == MATCH_NONE
                        && (rx - r.a.expected_x).abs() < hw
                        && (ry - r.a.expected_y).abs() < hw
                });
                match hit_unmatched.count() {
                    0 => {}
                    1 => {
                        let p = m.pick_one(&hit_unmatched).expect("count was 1");
                        radar.r_match_with = p as i32;
                        let mut only = ResponderSet::new(n);
                        only.set(p);
                        m.for_each_masked(&only, 2, |_, r| {
                            r.a.r_match = MATCH_ONE;
                            r.pending = Some((rx, ry));
                        });
                    }
                    _ => {
                        radar.r_match_with = RADAR_DISCARDED;
                    }
                }
            }
        }

        // Phase 3: adopt positions in one parallel step — expected position
        // by default, the pending radar position for valid unique matches.
        m.for_each_all(4, |_, r| {
            r.a.x = r.a.expected_x;
            r.a.y = r.a.expected_y;
            if r.a.r_match == MATCH_ONE {
                if let Some((px, py)) = r.pending {
                    r.a.x = px;
                    r.a.y = py;
                }
            }
        });

        Self::writeback(&mut m, aircraft);
        // Machine clock covers load I/O, every associative primitive, and
        // the unload I/O performed by writeback.
        self.finish(&m)
    }

    fn detect_resolve(&mut self, aircraft: &mut [Aircraft], cfg: &AtmConfig) -> SimDuration {
        let mut m = self.machine(aircraft);
        let n = aircraft.len();
        let rotations = cfg.rotation_sequence();
        let reach = cfg.critical_reach_nm();
        // Host-side pruning of the PE walk. The machine's masked primitives
        // price by the PE array width (associative lockstep), so driving
        // the window step and the critical search through a candidate mask
        // books the exact same machine time and stats as the all-PE
        // versions — only the emulator's host work shrinks. Out-of-mask
        // PEs' scratch is never read: both the search and the min-reduction
        // are masked.
        let index = ScanIndex::for_config(aircraft, cfg);

        for i in 0..n {
            // Reset the track's bookkeeping (control-unit writes + one
            // masked step to keep the machine model honest).
            let mut track_mask = ResponderSet::new(n);
            track_mask.set(i);
            m.for_each_masked(&track_mask, 3, |_, r| {
                r.a.time_till = cfg.critical_periods;
                r.a.batx = r.a.dx;
                r.a.baty = r.a.dy;
            });

            let mut next_rotation = 0usize;
            let mut vel = {
                let rec = &m.records()[i];
                (rec.a.dx, rec.a.dy)
            };
            let mut chk = 0u32;

            // The candidate mask depends only on positions and altitudes,
            // which never change during Tasks 2+3 — build it once per
            // track.
            let scan_mask: Option<ResponderSet> = index.responder_mask(&m.records()[i].a, n);

            loop {
                // Broadcast the track and compute every PE's window start
                // in one parallel arithmetic step.
                let track = m.broadcast(m.records()[i].a);
                let window = |p: usize, r: &mut ApRecord| {
                    r.scratch = if p == i
                        || (track.alt - r.a.alt).abs() >= cfg.alt_separation_ft
                        || !within_critical_reach(&track, &r.a, reach, &mut NullSink)
                    {
                        f32::INFINITY
                    } else {
                        match conflict_window(
                            &track,
                            vel,
                            &r.a,
                            cfg.separation_nm,
                            cfg.horizon_periods,
                            &mut NullSink,
                        ) {
                            Some((tmin, _)) => tmin,
                            None => f32::INFINITY,
                        }
                    };
                };

                // Associative search for critical responders, then the
                // min-reduction picks the earliest conflict.
                let critical = match &scan_mask {
                    Some(mask) => {
                        m.for_each_masked(mask, 8, window);
                        m.search_masked(mask, 1, |r| r.scratch < cfg.critical_periods)
                    }
                    None => {
                        m.for_each_all(8, window);
                        m.search(1, |r| r.scratch < cfg.critical_periods)
                    }
                };
                if !critical.any() {
                    break;
                }
                let partner = m
                    .min_by_key(&critical, |r| r.scratch as f64)
                    .expect("responders exist");
                let tmin = m.records()[partner].scratch;

                // Mark both aircraft.
                let mut pair = ResponderSet::new(n);
                pair.set(partner);
                m.for_each_masked(&pair, 2, |_, r| {
                    r.a.col = true;
                    r.a.col_with = i as i32;
                    r.a.time_till = r.a.time_till.min(tmin);
                });
                m.for_each_masked(&track_mask, 2, |_, r| {
                    r.a.col = true;
                    r.a.col_with = partner as i32;
                    r.a.time_till = tmin;
                });

                if next_rotation >= rotations.len() {
                    // Unresolvable: keep the original path, flags stay.
                    m.for_each_masked(&track_mask, 2, |_, r| {
                        r.a.batx = r.a.dx;
                        r.a.baty = r.a.dy;
                    });
                    chk = 0;
                    break;
                }
                let base = {
                    let rec = &m.records()[i];
                    (rec.a.dx, rec.a.dy)
                };
                vel = crate::detect::rotate_velocity(base, rotations[next_rotation], &mut NullSink);
                next_rotation += 1;
                chk += 1;
                let v = vel;
                m.for_each_masked(&track_mask, 2, move |_, r| {
                    r.a.batx = v.0;
                    r.a.baty = v.1;
                });
            }

            if chk > 0 {
                let v = vel;
                m.for_each_masked(&track_mask, 5, move |_, r| {
                    r.a.dx = v.0;
                    r.a.dy = v.1;
                    r.a.col = false;
                    r.a.col_with = NO_COLLISION;
                    r.a.time_till = cfg.critical_periods;
                });
            }
        }

        Self::writeback(&mut m, aircraft);
        self.finish(&m)
    }

    fn terrain_avoidance(
        &mut self,
        aircraft: &mut [Aircraft],
        grid: &TerrainGrid,
        tcfg: &TerrainTaskConfig,
    ) -> SimDuration {
        // Every PE checks its own track simultaneously: one parallel
        // arithmetic step per look-ahead sample plus one masked climb step
        // — constant associative work regardless of the fleet size, the
        // same property that makes the other AP tasks linear (here the
        // only n-dependence is the record I/O).
        let mut m = self.machine(aircraft);
        for s in 0..=tcfg.samples {
            let t = tcfg.lookahead_periods * s as f32 / tcfg.samples as f32;
            m.for_each_all(14, |_, r| {
                let px = r.a.x + r.a.dx * t;
                let py = r.a.y + r.a.dy * t;
                let required = grid.elevation_at(px, py) + tcfg.clearance_ft;
                // Accumulate the per-track requirement in the scratch word.
                if s == 0 || required > r.scratch {
                    r.scratch = required;
                }
            });
        }
        let low = m.search(2, |r| r.a.alt < r.scratch);
        if low.any() {
            m.for_each_masked(&low, 1, |_, r| {
                r.a.alt = r.scratch;
            });
        }
        Self::writeback(&mut m, aircraft);
        self.finish(&m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::airfield::Airfield;
    use crate::backends::SequentialBackend;

    fn track_on(
        backend: &mut dyn AtmBackend,
        n: usize,
        seed: u64,
    ) -> (Vec<Aircraft>, Vec<RadarReport>, SimDuration) {
        let mut field = Airfield::with_seed(n, seed);
        let mut radars = field.generate_radar();
        let cfg = field.config().clone();
        let d = backend.track_correlate(&mut field.aircraft, &mut radars, &cfg);
        (field.aircraft, radars, d)
    }

    /// Positions/match results must agree with the sequential reference
    /// (batx/baty are scratch during AP tracking, so compare the semantic
    /// fields).
    fn semantically_equal(a: &[Aircraft], b: &[Aircraft]) -> bool {
        a.iter().zip(b).all(|(x, y)| {
            x.x == y.x && x.y == y.y && x.dx == y.dx && x.dy == y.dy && x.r_match == y.r_match
        })
    }

    #[test]
    fn ap_track_matches_sequential_reference() {
        let mut ap = ApBackend::staran();
        let mut seq = SequentialBackend::new();
        let (ac_ap, rd_ap, _) = track_on(&mut ap, 250, 13);
        let (ac_seq, rd_seq, _) = track_on(&mut seq, 250, 13);
        assert!(semantically_equal(&ac_ap, &ac_seq));
        assert_eq!(rd_ap, rd_seq);
    }

    #[test]
    fn ap_detect_matches_sequential_reference() {
        let cfg = AtmConfig::default();
        let field = Airfield::with_seed(250, 14);
        let mut ac_ap = field.aircraft.clone();
        let mut ac_seq = field.aircraft.clone();
        ApBackend::staran().detect_resolve(&mut ac_ap, &cfg);
        SequentialBackend::new().detect_resolve(&mut ac_seq, &cfg);
        // Full equality here: detect writes batx/baty identically too.
        assert_eq!(ac_ap, ac_seq);
    }

    #[test]
    fn clearspeed_results_equal_staran_results() {
        let (ac_a, rd_a, t_a) = track_on(&mut ApBackend::staran(), 300, 15);
        let (ac_b, rd_b, t_b) = track_on(&mut ApBackend::clearspeed(), 300, 15);
        assert_eq!(ac_a, ac_b, "timing profile must not change results");
        assert_eq!(rd_a, rd_b);
        assert_ne!(t_a, t_b, "but the clocks differ");
    }

    #[test]
    fn staran_tracking_scales_linearly() {
        // Pure associative work is constant per radar; doubling the fleet
        // must roughly double the time (I/O is linear too).
        let (_, _, t1) = track_on(&mut ApBackend::staran(), 500, 16);
        let (_, _, t2) = track_on(&mut ApBackend::staran(), 1_000, 16);
        let ratio = t2.as_picos() as f64 / t1.as_picos() as f64;
        assert!((1.5..=2.6).contains(&ratio), "ratio {ratio} not ~2");
    }

    #[test]
    fn clearspeed_pays_virtualization_beyond_192_pes() {
        // Below the PE count, ops are single-pass; an 8× fleet needs
        // ceil(n/192) passes, so time grows super-linearly vs STARAN.
        let (_, _, s1) = track_on(&mut ApBackend::clearspeed(), 192, 17);
        let (_, _, s8) = track_on(&mut ApBackend::clearspeed(), 1_536, 17);
        let ratio = s8.as_picos() as f64 / s1.as_picos() as f64;
        assert!(
            ratio > 10.0,
            "expected ≫8× from virtualization, got {ratio}"
        );
    }

    #[test]
    fn ap_timing_is_deterministic() {
        let (_, _, a) = track_on(&mut ApBackend::staran(), 300, 18);
        let (_, _, b) = track_on(&mut ApBackend::staran(), 300, 18);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_field_is_handled() {
        let cfg = AtmConfig::default();
        let mut ap = ApBackend::staran();
        let mut ac: Vec<Aircraft> = vec![];
        let mut rd: Vec<RadarReport> = vec![];
        let _ = ap.track_correlate(&mut ac, &mut rd, &cfg);
        let _ = ap.detect_resolve(&mut ac, &cfg);
    }
}
