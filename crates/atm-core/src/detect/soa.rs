//! Structure-of-arrays turn kernel: the measured `simd-soa` scan path.
//!
//! [`SoaFleet`] holds the fleet's scan-relevant fields as five split `f32`
//! arrays (x, y, alt, dx, dy). Algorithm 2 rescans a track once per
//! rotation (up to 13 scans per turn), and only the track's trial velocity
//! changes between those scans, so the kernel splits along that seam, in
//! the lockstep idiom of SIMD-X-style data-parallel kernels:
//!
//! 1. **gather, once per turn** ([`SoaFleet::gather_turn`]) — a branch-free
//!    gate pass over the candidates (altitude band and critical reach as
//!    masks, survivors compacted by predicated store: `ids[k] = q; k +=
//!    keep`), then the survivors' velocity-independent window inputs into
//!    [`TurnLanes`]: per axis the numerators `-sep - rel` and `sep - rel`
//!    of Batcher's window, the parallel-axis mask `|rel| <= sep`, and the
//!    partner's velocity;
//! 2. **one lane pass per scan** ([`TurnLanes::scan`]) — a loop with no
//!    data-dependent branches: relative velocity, two divides per axis, the
//!    swap, the clip to `[0, horizon]`, the parallel-lane select, the
//!    cross-axis max/min and the hit mask, all written as compare-selects
//!    so the loop vectorizes. Hit lanes hold their `tmin`, the rest `+inf`;
//!    the lexicographic `(tmin, partner)` reduction follows.
//!
//! Every value is the reference's f32 operation in the reference's operand
//! order (`track − trial` in the gates, `trial − track` in the window). A
//! select such as `if lo > 0.0 { lo } else { 0.0 }` differs from
//! `f32::max` only in the sign of a zero, which no comparison sees, so the
//! hit set and the winner are the reference's; the winner's `tmin` is then
//! recomputed once through [`crate::batcher::conflict_window_raw`], so its
//! bits are the reference's by construction. The result is byte-identical
//! to [`crate::detect::scan_candidates`] over the same candidates — only
//! wall time differs. No cost booking: this path exists for *measured*
//! execution.

use crate::batcher::{conflict_window_raw, PARALLEL_EPS};
use crate::config::AtmConfig;
use crate::detect::stats::ScanResult;
use crate::types::Aircraft;
use sim_clock::NullSink;

/// The fleet's scan-relevant fields as split arrays.
///
/// Positions and altitudes never change during Tasks 2+3, so they are
/// snapshotted once per detect execution; velocities change as aircraft
/// commit resolved paths, and the owner mirrors each commit via
/// [`SoaFleet::set_velocity`] before the next aircraft's turn.
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

    /// Open aircraft `i`'s turn: run the gate pass over `candidates` (a
    /// pruning source's enumeration, or the whole fleet) once, and gather
    /// the survivors — both gates passed, self excluded, candidate order
    /// kept — into `lanes` for every scan of the turn.
    pub fn gather_turn(
        &self,
        i: usize,
        candidates: impl ExactSizeIterator<Item = u32>,
        cfg: &AtmConfig,
        lanes: &mut TurnLanes,
    ) {
        let (xi, yi, alti) = (self.x[i], self.y[i], self.alt[i]);
        let (alt_sep, reach) = (cfg.alt_separation_ft, cfg.critical_reach_nm());
        let ids = &mut lanes.ids;
        ids.clear();
        ids.resize(candidates.len(), 0);
        let mut k = 0usize;
        for q in candidates {
            let p = q as usize;
            // Same operand order as the AoS gates: track − trial.
            let keep = ((alti - self.alt[p]).abs() < alt_sep)
                & ((xi - self.x[p]).abs() <= reach)
                & ((yi - self.y[p]).abs() <= reach)
                & (p != i);
            ids[k] = q;
            k += keep as usize;
        }
        ids.truncate(k);
        let sep = cfg.separation_nm;
        lanes.x.clear();
        lanes.y.clear();
        for &q in ids.iter() {
            let p = q as usize;
            // Same operand order as the AoS window: trial − track.
            lanes.x.push(self.x[p] - xi, self.dx[p], sep);
            lanes.y.push(self.y[p] - yi, self.dy[p], sep);
        }
    }
}

/// One axis of a turn's gathered lanes.
#[derive(Clone, Debug, Default)]
struct AxisLanes {
    /// Trial − track position, for the winner's scalar recompute.
    rel: Vec<f32>,
    /// Batcher's window numerators `-sep - rel` and `sep - rel`.
    lo: Vec<f32>,
    hi: Vec<f32>,
    /// `|rel| <= sep`: the whole window of a parallel lane.
    inside: Vec<bool>,
    /// The partner's velocity.
    vel: Vec<f32>,
}

impl AxisLanes {
    fn clear(&mut self) {
        for v in [&mut self.rel, &mut self.lo, &mut self.hi, &mut self.vel] {
            v.clear();
        }
        self.inside.clear();
    }

    fn push(&mut self, rel: f32, vel: f32, sep: f32) {
        self.rel.push(rel);
        self.lo.push(-sep - rel);
        self.hi.push(sep - rel);
        self.inside.push(rel.abs() <= sep);
        self.vel.push(vel);
    }
}

/// Batcher's window on one axis of one lane ([`crate::batcher::axis_window`]
/// on the gathered numerators), branch-free: `(lo, hi, ok)`, where `ok`
/// says the axis is in violation somewhere inside `[lo, hi]`.
#[inline(always)]
fn axis_lane(lo_num: f32, hi_num: f32, inside: bool, rel_v: f32, horizon: f32) -> (f32, f32, bool) {
    let (t1, t2) = (lo_num / rel_v, hi_num / rel_v);
    let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
    let lo = if lo > 0.0 { lo } else { 0.0 };
    let hi = if hi < horizon { hi } else { horizon };
    let parallel = rel_v.abs() < PARALLEL_EPS;
    (
        if parallel { 0.0 } else { lo },
        if parallel { horizon } else { hi },
        if parallel { inside } else { lo <= hi },
    )
}

/// One track's gate survivors, gathered once per Algorithm 2 turn by
/// [`SoaFleet::gather_turn`] and scanned by [`TurnLanes::scan`] at each
/// trial velocity. The lanes hold everything a scan reads except the trial
/// velocity: positions and altitudes are frozen during Tasks 2+3, and no
/// partner commits while the track's turn runs.
#[derive(Clone, Debug, Default)]
pub struct TurnLanes {
    ids: Vec<u32>,
    x: AxisLanes,
    y: AxisLanes,
    /// Per-lane critical `tmin` of the current scan, `+inf` on a miss.
    t: Vec<f32>,
}

impl TurnLanes {
    /// One scan of the gathered track at trial velocity `vel`:
    /// result-identical to [`crate::detect::scan_candidates`] over the
    /// candidates the turn was gathered from.
    pub fn scan(&mut self, vel: (f32, f32), cfg: &AtmConfig) -> ScanResult {
        let (horizon, critical) = (cfg.horizon_periods, cfg.critical_periods);
        let n = self.ids.len();
        self.t.resize(n, 0.0);
        let (x, y, t) = (&self.x, &self.y, &mut self.t[..n]);
        let (x_lo, x_hi, x_in, x_v) = (&x.lo[..n], &x.hi[..n], &x.inside[..n], &x.vel[..n]);
        let (y_lo, y_hi, y_in, y_v) = (&y.lo[..n], &y.hi[..n], &y.inside[..n], &y.vel[..n]);
        for k in 0..n {
            let (xl, xh, x_ok) = axis_lane(x_lo[k], x_hi[k], x_in[k], x_v[k] - vel.0, horizon);
            let (yl, yh, y_ok) = axis_lane(y_lo[k], y_hi[k], y_in[k], y_v[k] - vel.1, horizon);
            let tmin = if xl > yl { xl } else { yl };
            let tmax = if xh < yh { xh } else { yh };
            let hit = x_ok & y_ok & (tmin < tmax) & (tmin < critical);
            t[k] = if hit { tmin } else { f32::INFINITY };
        }
        // Lexicographic (tmin, partner) minimum; hits are finite.
        let mut best = (f32::INFINITY, u32::MAX, 0usize);
        for (k, (&tk, &p)) in t.iter().zip(&self.ids).enumerate() {
            if tk < best.0 || (tk == best.0 && p < best.1) {
                best = (tk, p, k);
            }
        }
        let critical = (best.0 < f32::INFINITY).then(|| {
            let k = best.2;
            let (tmin, _) = conflict_window_raw(
                x.rel[k],
                y.rel[k],
                x.vel[k] - vel.0,
                y.vel[k] - vel.1,
                cfg.separation_nm,
                horizon,
                &mut NullSink,
            )
            .expect("a hit lane has the reference's conflict window");
            (best.1 as usize, tmin)
        });
        ScanResult {
            critical,
            checks: n as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::airfield::Airfield;
    use crate::detect::kernel::{rotate_velocity, scan_candidates};
    use crate::detect::ScanIndex;

    fn fleet(n: usize, seed: u64) -> (Vec<Aircraft>, AtmConfig) {
        let field = Airfield::with_seed(n, seed);
        let cfg = field.config().clone();
        (field.aircraft, cfg)
    }

    /// A scan result with `tmin` as bits: `-0.0` and `+0.0` differ here.
    fn bits(r: ScanResult) -> (u64, Option<(usize, u32)>) {
        (r.checks, r.critical.map(|(p, t)| (p, t.to_bits())))
    }

    /// The track's committed velocity followed by every trial velocity of
    /// Algorithm 2's rotation sequence.
    fn turn_velocities(base: (f32, f32), cfg: &AtmConfig) -> Vec<(f32, f32)> {
        let rotations = cfg.rotation_sequence();
        let trials = rotations
            .iter()
            .map(|&a| rotate_velocity(base, a, &mut NullSink));
        std::iter::once(base).chain(trials).collect()
    }

    /// Gather aircraft `i`'s turn once over `cands`, then require every
    /// scan of the turn to equal the AoS reference scan bit for bit.
    fn assert_turn_matches(ac: &[Aircraft], i: usize, cands: &[u32], cfg: &AtmConfig) {
        let mut lanes = TurnLanes::default();
        SoaFleet::from_aircraft(ac).gather_turn(i, cands.iter().copied(), cfg, &mut lanes);
        for vel in turn_velocities((ac[i].dx, ac[i].dy), cfg) {
            let ids = cands.iter().map(|&p| p as usize);
            let aos = scan_candidates(ac, None, i, ac.len(), vel, cfg, ids, &mut NullSink);
            assert_eq!(bits(lanes.scan(vel, cfg)), bits(aos), "i={i} vel={vel:?}");
        }
    }

    fn all(ac: &[Aircraft]) -> Vec<u32> {
        (0..ac.len() as u32).collect()
    }

    #[test]
    fn soa_range_scan_is_bit_identical_to_the_aos_scan() {
        // Seeded random fleets, every rotation velocity of each turn.
        for (n, seed) in [(700usize, 42u64), (400, 1), (400, 2018), (400, 31337)] {
            let (ac, cfg) = fleet(n, seed);
            let cands = all(&ac);
            for i in (0..n).step_by(7).chain([1, n - 1]) {
                assert_turn_matches(&ac, i, &cands, &cfg);
            }
        }
    }

    #[test]
    fn soa_candidate_scan_matches_over_the_grid_index() {
        let (ac, mut cfg) = fleet(500, 7);
        cfg.scan = crate::config::ScanMode::Grid;
        let index = ScanIndex::for_config(&ac, &cfg);
        for i in (0..ac.len()).step_by(37) {
            let cands: Vec<u32> = index
                .candidates(i, &ac[i], ac.len())
                .map(|p| p as u32)
                .collect();
            assert_turn_matches(&ac, i, &cands, &cfg);
        }
    }

    #[test]
    fn velocity_mirror_changes_subsequent_scans() {
        let (mut ac, cfg) = fleet(300, 9);
        let mut soa = SoaFleet::from_aircraft(&ac);
        // Commit a velocity change on aircraft 5 both ways; turns of other
        // aircraft gathered afterwards must keep agreeing.
        ac[5].dx = -ac[5].dx;
        ac[5].dy = -ac[5].dy;
        soa.set_velocity(5, (ac[5].dx, ac[5].dy));
        let mut lanes = TurnLanes::default();
        for i in [0usize, 5, 77, 299] {
            soa.gather_turn(i, 0..ac.len() as u32, &cfg, &mut lanes);
            let vel = (ac[i].dx, ac[i].dy);
            let range = 0..ac.len();
            let aos = scan_candidates(&ac, None, i, ac.len(), vel, &cfg, range, &mut NullSink);
            assert_eq!(bits(lanes.scan(vel, &cfg)), bits(aos), "i={i}");
        }
    }

    /// A track at the origin flying `vel`, and its partners.
    fn edge_fleet(vel: (f32, f32), partners: &[Aircraft]) -> Vec<Aircraft> {
        let track = Aircraft::at(0.0, 0.0).with_velocity(vel.0, vel.1);
        std::iter::once(track)
            .chain(partners.iter().copied())
            .collect()
    }

    #[test]
    fn edge_lanes_match_the_aos_scan() {
        let cfg = AtmConfig::default();
        let sep = cfg.separation_nm;
        let v = 0.0625; // exact in binary, below the fleet's top speed
        let crit = sep + v * cfg.critical_periods;
        let cases: Vec<(&str, Vec<Aircraft>)> = vec![
            // rel = ±sep exactly: one window bound divides 0 by ±rel_v.
            (
                "on-box-approaching",
                edge_fleet((v, 0.0), &[Aircraft::at(sep, 1.0)]),
            ),
            (
                "on-box-receding",
                edge_fleet((-v, 0.0), &[Aircraft::at(sep, 1.0)]),
            ),
            (
                "on-box-negative",
                edge_fleet((v, 0.0), &[Aircraft::at(-sep, -sep)]),
            ),
            (
                "on-box-corner",
                edge_fleet((v, -v), &[Aircraft::at(sep, -sep)]),
            ),
            // |rel_v| < 1e-9 on both axes, inside and outside the box.
            (
                "parallel-inside",
                edge_fleet((v, v), &[Aircraft::at(1.0, -2.0).with_velocity(v, v)]),
            ),
            (
                "parallel-outside",
                edge_fleet((v, v), &[Aircraft::at(9.0, 0.0).with_velocity(v, v)]),
            ),
            // A window starting exactly at, and just inside, the critical time.
            (
                "at-critical",
                edge_fleet((v, 0.0), &[Aircraft::at(crit, 0.0)]),
            ),
            (
                "inside-critical",
                edge_fleet((v, 0.0), &[Aircraft::at(crit - v, 0.0)]),
            ),
        ];
        for (name, ac) in &cases {
            for cands in [vec![1u32], vec![0, 1], vec![]] {
                let mut lanes = TurnLanes::default();
                SoaFleet::from_aircraft(ac).gather_turn(0, cands.iter().copied(), &cfg, &mut lanes);
                for vel in turn_velocities((ac[0].dx, ac[0].dy), &cfg) {
                    let ids = cands.iter().map(|&p| p as usize);
                    let aos = scan_candidates(ac, None, 0, ac.len(), vel, &cfg, ids, &mut NullSink);
                    assert_eq!(
                        bits(lanes.scan(vel, &cfg)),
                        bits(aos),
                        "{name} {cands:?} {vel:?}"
                    );
                }
            }
        }
        let scan = |ac: &[Aircraft]| {
            let mut lanes = TurnLanes::default();
            SoaFleet::from_aircraft(ac).gather_turn(0, 1..ac.len() as u32, &cfg, &mut lanes);
            lanes.scan((ac[0].dx, ac[0].dy), &cfg)
        };
        // The cases exercise what they claim.
        assert_eq!(scan(&cases[4].1).critical, Some((1, 0.0)));
        assert_eq!(
            scan(&cases[5].1),
            ScanResult {
                critical: None,
                checks: 1
            }
        );
        assert_eq!(
            scan(&cases[6].1),
            ScanResult {
                critical: None,
                checks: 1
            }
        );
        assert!(scan(&cases[7].1).critical.is_some());
    }

    #[test]
    fn equal_tmin_goes_to_the_smaller_id_in_any_lane_order() {
        let cfg = AtmConfig::default();
        let twin = Aircraft::at(10.0, 0.5);
        let ac = edge_fleet((0.0625, 0.0), &[twin, Aircraft::at(40.0, 0.0), twin, twin]);
        for cands in [[1u32, 2, 3, 4], [4, 3, 2, 1], [3, 4, 1, 2]] {
            assert_turn_matches(&ac, 0, &cands, &cfg);
            let mut lanes = TurnLanes::default();
            SoaFleet::from_aircraft(&ac).gather_turn(0, cands.into_iter(), &cfg, &mut lanes);
            let (p, _) = lanes
                .scan((0.0625, 0.0), &cfg)
                .critical
                .expect("twins conflict");
            assert_eq!(p, 1, "{cands:?}");
        }
    }

    #[test]
    fn empty_fleet_and_empty_candidates_are_clear() {
        let soa = SoaFleet::from_aircraft(&[]);
        assert!(soa.is_empty());
        let (ac, cfg) = fleet(10, 1);
        let soa = SoaFleet::from_aircraft(&ac);
        assert_eq!(soa.len(), 10);
        let mut lanes = TurnLanes::default();
        soa.gather_turn(0, [].into_iter(), &cfg, &mut lanes);
        assert_eq!(lanes.scan((0.0, 0.0), &cfg), ScanResult::CLEAR);
        // A survivor set emptied by the gates alone: only the track itself.
        soa.gather_turn(0, [0u32].into_iter(), &cfg, &mut lanes);
        assert_eq!(lanes.scan((0.0, 0.0), &cfg), ScanResult::CLEAR);
    }
}
