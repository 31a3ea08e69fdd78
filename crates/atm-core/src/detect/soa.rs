//! Structure-of-arrays gate kernel: the measured `simd-soa` scan path.
//!
//! [`SoaFleet`] holds the fleet's scan-relevant fields as five split `f32`
//! arrays (x, y, alt, dx, dy). The scan runs in two passes, in the lockstep
//! idiom of SIMD-X-style data-parallel kernels:
//!
//! 1. **gate pass** — a lane-chunked, branch-free loop over the candidates:
//!    both pair gates (altitude band, critical reach) evaluate as masks and
//!    survivors compact into a scratch buffer by predicated store
//!    (`buf[k] = p; k += keep`), so the inner loop has no data-dependent
//!    branches and is amenable to autovectorization;
//! 2. **window pass** — the (sparse) survivors evaluate Batcher's conflict
//!    window on relative kinematics computed straight from the split
//!    arrays ([`crate::batcher::conflict_window_raw`]) and fold into the
//!    earliest-critical selection under the scan kernel's lexicographic
//!    `(tmin, partner)` tie rule.
//!
//! Every f32 operation appears in the same form and operand order as the
//! array-of-structs reference (`track − trial` in the gates, `trial −
//! track` in the window), so the result is byte-identical to
//! [`crate::detect::scan_pairs`] for the same candidates — only wall time
//! differs. No cost booking: this path exists for *measured* execution.

use crate::batcher::conflict_window_raw;
use crate::config::AtmConfig;
use crate::detect::stats::ScanResult;
use crate::types::Aircraft;
use sim_clock::NullSink;

/// Lane-chunk width of the gate pass: candidates are processed in fixed
/// blocks so the hot loop has a compile-time trip count on full chunks —
/// the shape autovectorizers want. Purely a code-shape choice; results do
/// not depend on it.
const LANES: usize = 16;

/// The fleet's scan-relevant fields as split arrays.
///
/// Positions and altitudes never change during Tasks 2+3, so they are
/// snapshotted once per detect execution; velocities change as aircraft
/// commit resolved paths, and the owner mirrors each commit via
/// [`SoaFleet::set_velocity`] before the next aircraft's scan.
#[derive(Clone, Debug)]
pub struct SoaFleet {
    x: Vec<f32>,
    y: Vec<f32>,
    alt: Vec<f32>,
    dx: Vec<f32>,
    dy: Vec<f32>,
}

impl SoaFleet {
    /// Split one fleet snapshot into arrays.
    pub fn from_aircraft(aircraft: &[Aircraft]) -> SoaFleet {
        SoaFleet {
            x: aircraft.iter().map(|a| a.x).collect(),
            y: aircraft.iter().map(|a| a.y).collect(),
            alt: aircraft.iter().map(|a| a.alt).collect(),
            dx: aircraft.iter().map(|a| a.dx).collect(),
            dy: aircraft.iter().map(|a| a.dy).collect(),
        }
    }

    /// Fleet size.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// True for an empty fleet.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Mirror a committed velocity change of aircraft `i` into the arrays.
    pub fn set_velocity(&mut self, i: usize, vel: (f32, f32)) {
        self.dx[i] = vel.0;
        self.dy[i] = vel.1;
    }

    /// The branch-free gate pass over a contiguous index range: survivors
    /// (both gates passed, self excluded) land in `scratch` in ascending
    /// order.
    fn gate_range(
        &self,
        i: usize,
        alt_sep: f32,
        reach: f32,
        range: std::ops::Range<usize>,
        scratch: &mut Vec<u32>,
    ) {
        let (xi, yi, alti) = (self.x[i], self.y[i], self.alt[i]);
        scratch.clear();
        scratch.resize(range.len(), 0);
        let mut k = 0usize;
        let mut p = range.start;
        while p < range.end {
            let end = (p + LANES).min(range.end);
            for q in p..end {
                // Same operand order as the AoS gates: track − trial.
                let keep = ((alti - self.alt[q]).abs() < alt_sep)
                    & ((xi - self.x[q]).abs() <= reach)
                    & ((yi - self.y[q]).abs() <= reach)
                    & (q != i);
                scratch[k] = q as u32;
                k += keep as usize;
            }
            p = end;
        }
        scratch.truncate(k);
    }

    /// [`SoaFleet::gate_range`] over an explicit candidate list (a pruning
    /// source's enumeration, order preserved).
    fn gate_candidates(
        &self,
        i: usize,
        alt_sep: f32,
        reach: f32,
        candidates: &[u32],
        scratch: &mut Vec<u32>,
    ) {
        let (xi, yi, alti) = (self.x[i], self.y[i], self.alt[i]);
        scratch.clear();
        scratch.resize(candidates.len(), 0);
        let mut k = 0usize;
        for chunk in candidates.chunks(LANES) {
            for &q in chunk {
                let q = q as usize;
                let keep = ((alti - self.alt[q]).abs() < alt_sep)
                    & ((xi - self.x[q]).abs() <= reach)
                    & ((yi - self.y[q]).abs() <= reach)
                    & (q != i);
                scratch[k] = q as u32;
                k += keep as usize;
            }
        }
        scratch.truncate(k);
    }

    /// The window pass: fold the gate survivors into the earliest-critical
    /// selection, exactly as the scan kernel's running fold does.
    fn fold_survivors(
        &self,
        i: usize,
        vel: (f32, f32),
        cfg: &AtmConfig,
        survivors: &[u32],
    ) -> ScanResult {
        let (xi, yi) = (self.x[i], self.y[i]);
        let mut earliest: Option<(usize, f32)> = None;
        for &p in survivors {
            let p = p as usize;
            // Same operand order as the AoS window: trial − track.
            let rel_x = self.x[p] - xi;
            let rel_y = self.y[p] - yi;
            let rel_vx = self.dx[p] - vel.0;
            let rel_vy = self.dy[p] - vel.1;
            if let Some((tmin, _tmax)) = conflict_window_raw(
                rel_x,
                rel_y,
                rel_vx,
                rel_vy,
                cfg.separation_nm,
                cfg.horizon_periods,
                &mut NullSink,
            ) {
                if tmin < cfg.critical_periods {
                    match earliest {
                        Some((bp, bt)) if bt < tmin || (bt == tmin && bp < p) => {}
                        _ => earliest = Some((p, tmin)),
                    }
                }
            }
        }
        ScanResult {
            critical: earliest,
            checks: survivors.len() as u64,
        }
    }

    /// One full SoA scan of aircraft `i` (trial velocity `vel`) against a
    /// contiguous index range — the naive enumeration. Result-identical to
    /// [`crate::detect::scan_candidates`] over the same range.
    pub fn scan_range(
        &self,
        i: usize,
        vel: (f32, f32),
        cfg: &AtmConfig,
        range: std::ops::Range<usize>,
        scratch: &mut Vec<u32>,
    ) -> ScanResult {
        self.gate_range(
            i,
            cfg.alt_separation_ft,
            cfg.critical_reach_nm(),
            range,
            scratch,
        );
        self.fold_survivors(i, vel, cfg, scratch)
    }

    /// One full SoA scan of aircraft `i` over a pruning source's candidate
    /// list. Result-identical to [`crate::detect::scan_candidates`] over the
    /// same list.
    pub fn scan_candidates(
        &self,
        i: usize,
        vel: (f32, f32),
        cfg: &AtmConfig,
        candidates: &[u32],
        scratch: &mut Vec<u32>,
    ) -> ScanResult {
        self.gate_candidates(
            i,
            cfg.alt_separation_ft,
            cfg.critical_reach_nm(),
            candidates,
            scratch,
        );
        self.fold_survivors(i, vel, cfg, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::airfield::Airfield;
    use crate::detect::kernel::scan_candidates;
    use crate::detect::ScanIndex;
    use sim_clock::NullSink;

    fn fleet(n: usize, seed: u64) -> (Vec<Aircraft>, AtmConfig) {
        let field = Airfield::with_seed(n, seed);
        let cfg = field.config().clone();
        (field.aircraft, cfg)
    }

    #[test]
    fn soa_range_scan_is_bit_identical_to_the_aos_scan() {
        let (ac, cfg) = fleet(700, 42);
        let soa = SoaFleet::from_aircraft(&ac);
        let mut scratch = Vec::new();
        for i in [0usize, 1, 350, 699] {
            let vel = (ac[i].dx, ac[i].dy);
            let aos = scan_candidates(
                &ac,
                None,
                i,
                ac.len(),
                vel,
                &cfg,
                0..ac.len(),
                &mut NullSink,
            );
            let got = soa.scan_range(i, vel, &cfg, 0..ac.len(), &mut scratch);
            assert_eq!(got, aos, "i={i}");
        }
    }

    #[test]
    fn soa_candidate_scan_matches_over_the_grid_index() {
        let (ac, mut cfg) = fleet(500, 7);
        cfg.scan = crate::config::ScanMode::Grid;
        let index = ScanIndex::for_config(&ac, &cfg);
        let soa = SoaFleet::from_aircraft(&ac);
        let mut scratch = Vec::new();
        for i in (0..ac.len()).step_by(37) {
            let cands: Vec<u32> = index
                .candidates(i, &ac[i], ac.len())
                .map(|p| p as u32)
                .collect();
            let vel = (ac[i].dx, ac[i].dy);
            let ids = cands.iter().map(|&p| p as usize);
            let aos = scan_candidates(&ac, None, i, ac.len(), vel, &cfg, ids, &mut NullSink);
            let got = soa.scan_candidates(i, vel, &cfg, &cands, &mut scratch);
            assert_eq!(got, aos, "i={i}");
        }
    }

    #[test]
    fn velocity_mirror_changes_subsequent_scans() {
        let (mut ac, cfg) = fleet(300, 9);
        let mut soa = SoaFleet::from_aircraft(&ac);
        let mut scratch = Vec::new();
        // Commit a velocity change on aircraft 5 both ways; scans of other
        // aircraft must keep agreeing.
        ac[5].dx = -ac[5].dx;
        ac[5].dy = -ac[5].dy;
        soa.set_velocity(5, (ac[5].dx, ac[5].dy));
        for i in [0usize, 5, 77, 299] {
            let vel = (ac[i].dx, ac[i].dy);
            let aos = scan_candidates(
                &ac,
                None,
                i,
                ac.len(),
                vel,
                &cfg,
                0..ac.len(),
                &mut NullSink,
            );
            let got = soa.scan_range(i, vel, &cfg, 0..ac.len(), &mut scratch);
            assert_eq!(got, aos, "i={i}");
        }
    }

    #[test]
    fn empty_fleet_and_empty_candidates_are_clear() {
        let soa = SoaFleet::from_aircraft(&[]);
        assert!(soa.is_empty());
        let (ac, cfg) = fleet(10, 1);
        let soa = SoaFleet::from_aircraft(&ac);
        assert_eq!(soa.len(), 10);
        let mut scratch = Vec::new();
        let r = soa.scan_candidates(0, (0.0, 0.0), &cfg, &[], &mut scratch);
        assert_eq!(r, ScanResult::CLEAR);
    }
}
