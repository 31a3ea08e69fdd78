//! Batcher's time-window conflict detection (the paper's Equations 1–6).
//!
//! For a pair of aircraft flying straight lines, the set of times at which
//! their separation along one axis is below the protected distance is an
//! interval (a band on the paper's time-x graph, Fig. 3). A conflict exists
//! iff the x-interval and y-interval overlap within the look-ahead horizon;
//! the overlap start is the paper's `time_min`, its end `time_max`.
//!
//! The paper prints Equations 1–4 with absolute values
//! (`(|Δx| ∓ 3)/|Δv_x|`), which gives the correct window only for
//! *approaching* pairs; for receding pairs the absolute-value form
//! manufactures a bogus future window out of a past one. We implement the
//! signed interval directly (solve `|Δx + Δv_x·t| ≤ sep` exactly), which is
//! the algorithm of the cited prior work [13] and what Fig. 3 depicts; the
//! deviation from the printed formulas is documented in DESIGN.md.
//!
//! All cost-relevant arithmetic is reported to the caller's
//! [`sim_clock::CostSink`] so every backend prices the same operation mix.

use crate::types::Aircraft;
use sim_clock::CostSink;

/// Relative-velocity epsilon below which an axis is treated as parallel.
pub(crate) const PARALLEL_EPS: f32 = 1e-9;

/// The time interval (in periods, from now) during which two straight-line
/// tracks violate separation along one axis, clipped to `[0, horizon]`.
///
/// `rel_pos`/`rel_vel` are trial − track; `sep` is the protected distance
/// (the paper's 3 nm total box). Returns `None` when the axis never
/// violates separation within the horizon.
pub fn axis_window(
    rel_pos: f32,
    rel_vel: f32,
    sep: f32,
    horizon: f32,
    sink: &mut impl CostSink,
) -> Option<(f32, f32)> {
    sink.fadd(2); // separation compare per bound
    if rel_vel.abs() < PARALLEL_EPS {
        sink.branch(true);
        // Parallel along this axis: in violation for all time or never.
        return if rel_pos.abs() <= sep {
            Some((0.0, horizon))
        } else {
            None
        };
    }
    // Solve rel_pos + rel_vel·t ∈ [−sep, +sep].
    sink.fadd(2);
    sink.fdiv(2);
    let t1 = (-sep - rel_pos) / rel_vel;
    let t2 = (sep - rel_pos) / rel_vel;
    let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
    sink.branch(false);
    // Clip to the look-ahead horizon.
    let lo = lo.max(0.0);
    let hi = hi.min(horizon);
    sink.fadd(2);
    if lo <= hi {
        Some((lo, hi))
    } else {
        None
    }
}

/// The conflict window of a (track, trial) pair under Batcher's algorithm:
/// the paper's `time_min`/`time_max` (Equations 5–6), or `None` when the
/// pair is conflict-free within the horizon.
///
/// `track_vel` lets the caller substitute the trial path (`batx`, `baty`)
/// for the track aircraft during resolution without mutating the record.
pub fn conflict_window(
    track: &Aircraft,
    track_vel: (f32, f32),
    trial: &Aircraft,
    sep: f32,
    horizon: f32,
    sink: &mut impl CostSink,
) -> Option<(f32, f32)> {
    let rel_x = trial.x - track.x;
    let rel_y = trial.y - track.y;
    let rel_vx = trial.dx - track_vel.0;
    let rel_vy = trial.dy - track_vel.1;
    conflict_window_raw(rel_x, rel_y, rel_vx, rel_vy, sep, horizon, sink)
}

/// [`conflict_window`] on pre-computed relative kinematics (trial − track,
/// per axis). The structure-of-arrays scan computes the relative components
/// straight from its split coordinate arrays, so it enters here; the booked
/// mix includes the four relative subtractions the caller performed.
pub fn conflict_window_raw(
    rel_x: f32,
    rel_y: f32,
    rel_vx: f32,
    rel_vy: f32,
    sep: f32,
    horizon: f32,
    sink: &mut impl CostSink,
) -> Option<(f32, f32)> {
    sink.fadd(4); // relative position/velocity per axis
    let (x_lo, x_hi) = axis_window(rel_x, rel_vx, sep, horizon, sink)?;
    let (y_lo, y_hi) = axis_window(rel_y, rel_vy, sep, horizon, sink)?;

    // Equations 5–6: the conflict needs both axes violated simultaneously.
    sink.fadd(2);
    let time_min = x_lo.max(y_lo);
    let time_max = x_hi.min(y_hi);
    sink.branch(false);
    if time_min < time_max {
        Some((time_min, time_max))
    } else {
        None
    }
}

/// Whether two aircraft are within vertical separation of each other (the
/// paper's 1000 ft altitude gate in Algorithm 2).
pub fn same_altitude_band(
    a: &Aircraft,
    b: &Aircraft,
    alt_sep: f32,
    sink: &mut impl CostSink,
) -> bool {
    sink.fadd(2);
    sink.branch(false);
    (a.alt - b.alt).abs() < alt_sep
}

/// Whether two aircraft are horizontally close enough to reach a *critical*
/// conflict (the range gate of Algorithm 2's scan; `reach` comes from
/// [`crate::AtmConfig::critical_reach_nm`]).
///
/// Like the altitude gate this is evaluated unconditionally for every
/// non-self pair, in every scan mode, with a fixed operation mix (two
/// subtract-and-compare pairs, one axis each) — predicated, lockstep-style
/// evaluation rather than short-circuiting, so the per-pair cost is
/// data-independent and fast paths can book skipped pairs in aggregate.
/// The compare is `<=`: with a zero-speed fleet `reach` collapses to the
/// separation box exactly, and a pair sitting exactly on the box edge does
/// have a (zero-width-start) violation window.
pub fn within_critical_reach(
    a: &Aircraft,
    b: &Aircraft,
    reach: f32,
    sink: &mut impl CostSink,
) -> bool {
    sink.fadd(4);
    sink.branch(false);
    (a.x - b.x).abs() <= reach && (a.y - b.y).abs() <= reach
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_clock::NullSink;

    const H: f32 = 2_400.0;

    fn sink() -> NullSink {
        NullSink
    }

    #[test]
    fn head_on_pair_conflicts_at_the_meeting_time() {
        // Track at x=0 moving +1 nm/period; trial at x=100 moving −1.
        // Closing speed 2, gap 100, sep 3 → violation from t=48.5 to t=51.5.
        let track = Aircraft::at(0.0, 0.0).with_velocity(1.0, 0.0);
        let trial = Aircraft::at(100.0, 0.0).with_velocity(-1.0, 0.0);
        let (tmin, tmax) =
            conflict_window(&track, (1.0, 0.0), &trial, 3.0, H, &mut sink()).unwrap();
        assert!((tmin - 48.5).abs() < 1e-3, "{tmin}");
        assert!((tmax - 51.5).abs() < 1e-3, "{tmax}");
    }

    #[test]
    fn receding_pair_is_not_a_conflict() {
        // Same geometry but flying apart: the absolute-value form of the
        // printed equations would flag this; the signed window must not.
        let track = Aircraft::at(0.0, 0.0).with_velocity(-1.0, 0.0);
        let trial = Aircraft::at(100.0, 0.0).with_velocity(1.0, 0.0);
        assert!(conflict_window(&track, (-1.0, 0.0), &trial, 3.0, H, &mut sink()).is_none());
    }

    #[test]
    fn currently_overlapping_pair_has_window_starting_now() {
        let track = Aircraft::at(0.0, 0.0).with_velocity(0.1, 0.0);
        let trial = Aircraft::at(1.0, 1.0).with_velocity(0.1, 0.0);
        let (tmin, _) = conflict_window(&track, (0.1, 0.0), &trial, 3.0, H, &mut sink()).unwrap();
        assert_eq!(tmin, 0.0);
    }

    #[test]
    fn parallel_same_velocity_far_apart_never_conflicts() {
        let track = Aircraft::at(0.0, 0.0).with_velocity(0.05, 0.05);
        let trial = Aircraft::at(50.0, 50.0).with_velocity(0.05, 0.05);
        assert!(conflict_window(&track, (0.05, 0.05), &trial, 3.0, H, &mut sink()).is_none());
    }

    #[test]
    fn conflict_beyond_horizon_is_ignored() {
        // Meeting at t ≈ 5000 periods with a 2400-period horizon.
        let track = Aircraft::at(0.0, 0.0).with_velocity(0.01, 0.0);
        let trial = Aircraft::at(100.0, 0.0).with_velocity(-0.01, 0.0);
        assert!(conflict_window(&track, (0.01, 0.0), &trial, 3.0, H, &mut sink()).is_none());
    }

    #[test]
    fn crossing_tracks_conflict_only_if_windows_overlap() {
        // Trial crosses the track's path, but passes the crossing point at
        // a different time: x-windows and y-windows must not intersect.
        let track = Aircraft::at(0.0, 0.0).with_velocity(1.0, 0.0);
        let trial = Aircraft::at(50.0, -200.0).with_velocity(0.0, 1.0);
        // Track reaches x=50 at t=50 (x window ≈ 47–53); trial reaches y=0
        // at t=200 (y window ≈ 197–203, and track stays at y=0). They never
        // co-occur.
        assert!(conflict_window(&track, (1.0, 0.0), &trial, 3.0, H, &mut sink()).is_none());
    }

    #[test]
    fn axis_window_handles_negative_start() {
        // Violation began in the past, still ongoing: clip at 0.
        let w = axis_window(1.0, 0.5, 3.0, H, &mut sink()).unwrap();
        assert_eq!(w.0, 0.0);
        assert!(w.1 > 0.0);
    }

    #[test]
    fn axis_window_symmetric_in_sign_of_velocity() {
        let a = axis_window(10.0, -1.0, 3.0, H, &mut sink()).unwrap();
        let b = axis_window(-10.0, 1.0, 3.0, H, &mut sink()).unwrap();
        assert!((a.0 - b.0).abs() < 1e-6);
        assert!((a.1 - b.1).abs() < 1e-6);
    }

    #[test]
    fn altitude_band_gates_pairs() {
        let a = Aircraft::at(0.0, 0.0).with_altitude(10_000.0);
        let near = Aircraft::at(0.0, 0.0).with_altitude(10_500.0);
        let far = Aircraft::at(0.0, 0.0).with_altitude(12_000.0);
        assert!(same_altitude_band(&a, &near, 1_000.0, &mut sink()));
        assert!(!same_altitude_band(&a, &far, 1_000.0, &mut sink()));
    }

    #[test]
    fn trial_velocity_override_changes_the_window() {
        // With its real velocity the track collides; with a rotated trial
        // velocity it must not.
        let track = Aircraft::at(0.0, 0.0).with_velocity(1.0, 0.0);
        let trial = Aircraft::at(100.0, 0.0).with_velocity(-1.0, 0.0);
        assert!(conflict_window(&track, (1.0, 0.0), &trial, 3.0, H, &mut sink()).is_some());
        // Turn the track 90°: now it moves along +y away from the trial's
        // line; windows no longer overlap.
        assert!(conflict_window(&track, (0.0, 1.0), &trial, 3.0, H, &mut sink()).is_none());
    }

    #[test]
    fn critical_reach_gate_is_a_per_axis_box() {
        let a = Aircraft::at(0.0, 0.0);
        assert!(within_critical_reach(
            &a,
            &Aircraft::at(50.0, -50.0),
            56.0,
            &mut sink()
        ));
        assert!(!within_critical_reach(
            &a,
            &Aircraft::at(57.0, 0.0),
            56.0,
            &mut sink()
        ));
        assert!(!within_critical_reach(
            &a,
            &Aircraft::at(0.0, -57.0),
            56.0,
            &mut sink()
        ));
        // Boundary is inclusive: a pair exactly at the reach still passes.
        assert!(within_critical_reach(
            &a,
            &Aircraft::at(56.0, 56.0),
            56.0,
            &mut sink()
        ));
        // Infinite reach (degenerate config) passes everything finite.
        assert!(within_critical_reach(
            &a,
            &Aircraft::at(1e30, -1e30),
            f32::INFINITY,
            &mut sink()
        ));
    }

    #[test]
    fn critical_reach_gate_books_a_fixed_mix() {
        let a = Aircraft::at(0.0, 0.0);
        let mut pass = sim_clock::OpCounter::new();
        let mut fail = sim_clock::OpCounter::new();
        within_critical_reach(&a, &Aircraft::at(1.0, 1.0), 56.0, &mut pass);
        within_critical_reach(&a, &Aircraft::at(500.0, 500.0), 56.0, &mut fail);
        assert_eq!(pass, fail, "gate cost must be data-independent");
        assert_eq!(pass.count(sim_clock::OpClass::FpAdd), 4);
    }

    #[test]
    fn op_counts_are_reported() {
        let mut ops = sim_clock::OpCounter::new();
        let track = Aircraft::at(0.0, 0.0).with_velocity(1.0, 0.0);
        let trial = Aircraft::at(100.0, 0.0).with_velocity(-1.0, 0.0);
        conflict_window(&track, (1.0, 0.0), &trial, 3.0, H, &mut ops);
        assert!(
            ops.count(sim_clock::OpClass::FpDiv) >= 2,
            "divisions must be priced"
        );
        assert!(ops.count(sim_clock::OpClass::FpAdd) > 0);
    }
}
