use super::*;
use crate::config::{AtmConfig, ScanMode};
use crate::types::Aircraft;
use sim_clock::NullSink;

fn cfg() -> AtmConfig {
    AtmConfig::default()
}

/// Two aircraft, head-on at the same altitude, colliding within the
/// critical window (gap 28 nm, closing 0.1 nm/period → conflict from
/// t = 250 < 300, and far enough out that a ≤30° turn can clear it).
fn head_on_pair() -> Vec<Aircraft> {
    vec![
        Aircraft::at(0.0, 0.0)
            .with_velocity(0.05, 0.0)
            .with_altitude(10_000.0),
        Aircraft::at(28.0, 0.0)
            .with_velocity(-0.05, 0.0)
            .with_altitude(10_000.0),
    ]
}

#[test]
fn head_on_pair_is_detected_and_resolved() {
    let mut ac = head_on_pair();
    let s = check_collision_path(&mut ac, &ScanIndex::Naive, 0, &cfg(), &mut NullSink);
    assert!(s.critical_conflicts >= 1);
    assert!(s.rotations >= 1);
    assert_eq!(s.resolved, 1);
    assert!(!ac[0].col, "flags cleared after committing a clear path");
    // The committed path really is conflict-free.
    let s2 = detect_only(&mut ac.clone(), &ScanIndex::Naive, 0, &cfg(), &mut NullSink);
    assert_eq!(s2.critical_conflicts, 0);
}

#[test]
fn resolution_preserves_speed() {
    let mut ac = head_on_pair();
    let speed_before = ac[0].speed();
    check_collision_path(&mut ac, &ScanIndex::Naive, 0, &cfg(), &mut NullSink);
    assert!(
        (ac[0].speed() - speed_before).abs() < 1e-6,
        "rotation must not change speed"
    );
}

#[test]
fn distant_pair_is_left_alone() {
    let mut ac = vec![
        Aircraft::at(-100.0, -100.0).with_velocity(0.01, 0.0),
        Aircraft::at(100.0, 100.0).with_velocity(-0.01, 0.0),
    ];
    let before = ac.clone();
    let s = check_collision_path(&mut ac, &ScanIndex::Naive, 0, &cfg(), &mut NullSink);
    assert_eq!(s.critical_conflicts, 0);
    assert_eq!(s.rotations, 0);
    assert_eq!(ac[0].dx, before[0].dx);
    assert!(!ac[0].col);
}

#[test]
fn altitude_separated_pair_is_not_a_conflict() {
    let mut ac = head_on_pair();
    ac[1].alt = ac[0].alt + 2_000.0;
    let s = check_collision_path(&mut ac, &ScanIndex::Naive, 0, &cfg(), &mut NullSink);
    assert_eq!(s.pair_checks, 0, "altitude gate must skip the pair");
    assert_eq!(s.critical_conflicts, 0);
}

#[test]
fn non_critical_far_future_conflict_is_not_resolved() {
    // Conflict at t ≈ 1000 periods: inside the horizon, outside the
    // 300-period critical window (and outside critical reach, so the
    // range gate already excludes it) → the pair is left to resolve
    // naturally.
    let mut ac = vec![
        Aircraft::at(0.0, 0.0).with_velocity(0.05, 0.0),
        Aircraft::at(100.0, 0.0).with_velocity(-0.05, 0.0),
    ];
    let s = check_collision_path(&mut ac, &ScanIndex::Naive, 0, &cfg(), &mut NullSink);
    assert_eq!(s.critical_conflicts, 0);
    assert_eq!(s.rotations, 0);
}

#[test]
fn partner_is_flagged_during_detection() {
    let mut ac = head_on_pair();
    // Use detect_only so the flags survive (the fused routine clears
    // its own after resolving).
    detect_only(&mut ac, &ScanIndex::Naive, 0, &cfg(), &mut NullSink);
    assert!(ac[0].col);
    assert_eq!(ac[0].col_with, 1);
    assert!(ac[0].time_till < cfg().critical_periods);
}

#[test]
fn fused_routine_flags_partner_while_resolving() {
    let mut ac = head_on_pair();
    check_collision_path(&mut ac, &ScanIndex::Naive, 0, &cfg(), &mut NullSink);
    // Aircraft 0 resolved itself; the partner keeps the conflict mark
    // until its own turn (matching the kernel's behaviour).
    assert!(ac[1].col);
    assert_eq!(ac[1].col_with, 0);
}

#[test]
fn dense_crowd_can_be_unresolvable() {
    // Ring of aircraft all converging on the origin at the same
    // altitude: no 30° rotation escapes.
    let n = 24;
    let mut ac: Vec<Aircraft> = (0..n)
        .map(|k| {
            let ang = k as f32 * std::f32::consts::TAU / n as f32;
            let r = 5.0;
            Aircraft::at(r * ang.cos(), r * ang.sin())
                .with_velocity(-0.05 * ang.cos(), -0.05 * ang.sin())
                .with_altitude(10_000.0)
        })
        .collect();
    let s = check_collision_path(&mut ac, &ScanIndex::Naive, 0, &cfg(), &mut NullSink);
    assert!(s.unresolved == 1 || s.resolved == 1);
    if s.unresolved == 1 {
        // Original path kept, conflict flagged.
        assert!(ac[0].col);
        assert!((ac[0].dx + 0.05).abs() < 1e-6);
    }
}

#[test]
fn rotations_escalate_through_the_sequence() {
    let mut ac = head_on_pair();
    let mut counter = sim_clock::OpCounter::new();
    let s = check_collision_path(&mut ac, &ScanIndex::Naive, 0, &cfg(), &mut counter);
    // Each rotation costs two SFU ops (sin+cos).
    assert_eq!(counter.count(sim_clock::OpClass::Sfu), 2 * s.rotations);
    assert!(s.rotations <= 12, "sequence is bounded at ±30°");
}

#[test]
fn rotate_velocity_is_a_rotation() {
    let v = rotate_velocity((1.0, 0.0), std::f32::consts::FRAC_PI_2, &mut NullSink);
    assert!(v.0.abs() < 1e-6);
    assert!((v.1 - 1.0).abs() < 1e-6);
    let mag = (v.0 * v.0 + v.1 * v.1).sqrt();
    assert!((mag - 1.0).abs() < 1e-6);
}

#[test]
fn detect_resolve_all_folds_stats() {
    let mut ac = head_on_pair();
    let s = detect_resolve_all(&mut ac, &cfg(), &mut NullSink);
    assert!(s.pair_checks >= 2);
    // At least one of the pair had to act.
    assert!(s.rotations >= 1);
}

#[test]
fn single_aircraft_has_nothing_to_check() {
    let mut ac = vec![Aircraft::at(0.0, 0.0).with_velocity(0.05, 0.0)];
    let s = detect_resolve_all(&mut ac, &cfg(), &mut NullSink);
    assert_eq!(s.pair_checks, 0);
    assert_eq!(s.critical_conflicts, 0);
}

#[test]
fn deterministic_across_runs() {
    let mk = || {
        let mut ac = head_on_pair();
        let s = detect_resolve_all(&mut ac, &cfg(), &mut NullSink);
        (s, ac)
    };
    assert_eq!(mk(), mk());
}

/// A small deterministic fleet spread over several altitude bands with
/// real conflicts in it.
fn banded_fleet() -> Vec<Aircraft> {
    let mut ac = Vec::new();
    for k in 0..40u32 {
        let ang = k as f32 * 0.7;
        let alt = 5_000.0 + (k % 7) as f32 * 900.0; // straddles bands
        ac.push(
            Aircraft::at(30.0 * ang.cos(), 30.0 * ang.sin())
                .with_velocity(-0.05 * ang.cos(), -0.05 * ang.sin())
                .with_altitude(alt),
        );
    }
    ac
}

/// Per-aircraft differential check: [`scan_pairs`] over `index` must match
/// the naive source in result *and* booked cost totals, for every track of
/// the fleet.
fn assert_scan_matches_naive(ac: &[Aircraft], index: &ScanIndex, c: &AtmConfig, label: &str) {
    for i in 0..ac.len() {
        let vel = (ac[i].dx, ac[i].dy);
        let mut cn = sim_clock::OpCounter::new();
        let mut cf = sim_clock::OpCounter::new();
        let rn = scan_pairs(ac, &ScanIndex::Naive, i, vel, c, &mut cn);
        let rf = scan_pairs(ac, index, i, vel, c, &mut cf);
        assert_eq!(rn, rf, "{label}: scan result must match for aircraft {i}");
        assert_eq!(
            cn, cf,
            "{label}: booked cost totals must match for aircraft {i}"
        );
    }
}

#[test]
fn grid_scan_matches_naive_scan_exactly() {
    for ac in [banded_fleet(), spread_fleet()] {
        let index = ScanIndex::Grid(IncrementalGrid::build(&ac, &cfg()));
        assert_scan_matches_naive(&ac, &index, &cfg(), "grid");
    }
}

#[test]
fn grid_detect_resolve_matches_naive_end_to_end() {
    let mut conflicts = 0;
    for fleet in [banded_fleet(), spread_fleet()] {
        let run = |scan: ScanMode| {
            let mut ac = fleet.clone();
            let mut ops = sim_clock::OpCounter::new();
            let s = detect_resolve_all(&mut ac, &AtmConfig { scan, ..cfg() }, &mut ops);
            (ac, s, ops)
        };
        let naive = run(ScanMode::Naive);
        conflicts += naive.1.critical_conflicts;
        // Mutated fleets, DetectStats and cost totals must all match.
        assert_eq!(naive, run(ScanMode::Grid));
    }
    assert!(conflicts > 0, "the fleets should have conflicts");
}

/// A grid's gathered candidates for `track`.
fn grid_candidates(grid: &IncrementalGrid, track: &Aircraft) -> Vec<usize> {
    let mut buf = Vec::new();
    grid.candidates_into(track, &mut buf);
    buf.iter().map(|&p| p as usize).collect()
}

/// Whether `cands` holds every partner of track `i` that passes both
/// pair gates.
fn covers_gate_passers(ac: &[Aircraft], i: usize, cands: &[usize], c: &AtmConfig) -> bool {
    let reach = c.critical_reach_nm();
    (0..ac.len()).all(|p| {
        let both_gates = (ac[i].alt - ac[p].alt).abs() < c.alt_separation_ft
            && (ac[i].x - ac[p].x).abs() <= reach
            && (ac[i].y - ac[p].y).abs() <= reach;
        p == i || !both_gates || cands.contains(&p)
    })
}

#[test]
fn grid_altitude_buckets_prune_but_cover_all_gate_passers() {
    // The banded fleet sits inside one cell neighborhood: every pruned
    // candidate is pruned by the altitude dimension alone.
    let ac = banded_fleet();
    let grid = IncrementalGrid::build(&ac, &cfg());
    for i in 0..ac.len() {
        let cands = grid_candidates(&grid, &ac[i]);
        assert!(cands.len() < ac.len(), "buckets should prune aircraft {i}");
        assert!(covers_gate_passers(&ac, i, &cands, &cfg()), "track {i}");
    }
}

#[test]
fn degenerate_band_width_falls_back_to_one_bucket() {
    let ac = banded_fleet();
    for width in [0.0_f32, -5.0, f32::NAN, f32::INFINITY] {
        let c = AtmConfig {
            alt_separation_ft: width,
            ..cfg()
        };
        let grid = IncrementalGrid::build(&ac, &c);
        assert_eq!(
            grid_candidates(&grid, &ac[0]).len(),
            ac.len(),
            "width {width}"
        );
    }
    assert_eq!(IncrementalGrid::build(&[], &cfg()).slot_count(), 1);
}

#[test]
fn detect_only_fast_paths_match_naive() {
    let base = banded_fleet();
    let index = ScanIndex::Grid(IncrementalGrid::build(&base, &cfg()));
    for i in 0..base.len() {
        let mut an = base.clone();
        let mut af = base.clone();
        let mut cn = sim_clock::OpCounter::new();
        let mut cf = sim_clock::OpCounter::new();
        let sn = detect_only(&mut an, &ScanIndex::Naive, i, &cfg(), &mut cn);
        let sf = detect_only(&mut af, &index, i, &cfg(), &mut cf);
        assert_eq!(sn, sf);
        assert_eq!(an, af);
        assert_eq!(cn, cf);
    }
}

/// A fleet wide enough to span several grid cells (the banded fleet
/// sits at radius 30 nm, inside one ~56 nm cell of its neighbors).
fn spread_fleet() -> Vec<Aircraft> {
    let mut ac = Vec::new();
    for k in 0..60u32 {
        let ang = k as f32 * 0.47;
        let r = 20.0 + (k % 9) as f32 * 12.0; // radii 20..116 nm
        let alt = 5_000.0 + (k % 5) as f32 * 700.0;
        ac.push(
            Aircraft::at(r * ang.cos(), r * ang.sin())
                .with_velocity(-0.05 * ang.cos(), -0.05 * ang.sin())
                .with_altitude(alt),
        );
    }
    ac
}

#[test]
fn grid_prunes_candidates_but_covers_all_gate_passers() {
    let ac = spread_fleet();
    let c = cfg();
    let grid = IncrementalGrid::build(&ac, &c);
    let mut pruned_somewhere = false;
    for i in 0..ac.len() {
        let cands = grid_candidates(&grid, &ac[i]);
        pruned_somewhere |= cands.len() < ac.len();
        assert!(covers_gate_passers(&ac, i, &cands, &c), "track {i}");
    }
    assert!(pruned_somewhere, "grid should prune at least one scan");
}

#[test]
fn degenerate_grid_falls_back_to_one_cell() {
    let grid_matches_naive = |ac: &[Aircraft], c: &AtmConfig| {
        let index = ScanIndex::Grid(IncrementalGrid::build(ac, c));
        for i in 0..ac.len() {
            let cands: Vec<usize> = index.candidates(i, &ac[i], ac.len()).collect();
            assert!(covers_gate_passers(ac, i, &cands, c), "track {i}");
        }
        assert_scan_matches_naive(ac, &index, c, "degenerate grid");
    };
    // Non-finite reach (degenerate separation) → one catch-all cell, still
    // altitude-filtered through the buckets.
    let c = AtmConfig {
        separation_nm: f32::NAN,
        ..cfg()
    };
    let ac = spread_fleet();
    let grid = IncrementalGrid::build(&ac, &c);
    assert!(grid_candidates(&grid, &ac[0]).len() < ac.len());
    grid_matches_naive(&ac, &c);
    // Non-finite positions → unbucketable → one catch-all cell.
    let mut bad = ac.clone();
    bad[3].x = f32::NAN;
    grid_matches_naive(&bad, &cfg());
}

#[test]
fn scan_index_follows_the_config() {
    let ac = banded_fleet();
    let for_mode = |m| ScanIndex::for_config(&ac, &AtmConfig { scan: m, ..cfg() });
    assert!(matches!(for_mode(ScanMode::Naive), ScanIndex::Naive));
    assert!(matches!(for_mode(ScanMode::Grid), ScanIndex::Grid(_)));
    // The shard grid belongs to the wave executor: it never changes the
    // serial candidate source.
    let sharded = ScanIndex::for_config(&ac, &AtmConfig { shards: 4, ..cfg() });
    assert!(matches!(sharded, ScanIndex::Grid(_)));
}

#[test]
fn responder_mask_mirrors_the_candidate_set() {
    let ac = spread_fleet();
    let n = ac.len();
    let c = cfg();
    let sources = [
        ScanIndex::Naive,
        ScanIndex::Grid(IncrementalGrid::build(&ac, &c)),
    ];
    for index in &sources {
        for (i, track) in ac.iter().enumerate() {
            match index.responder_mask(track, n) {
                None => assert!(
                    matches!(index, ScanIndex::Naive),
                    "only the naive source drives the full PE array"
                ),
                Some(mask) => {
                    let cands: Vec<usize> = index.candidates(i, track, n).collect();
                    for p in 0..n {
                        assert_eq!(
                            mask.get(p),
                            cands.contains(&p),
                            "mask/candidate mismatch at track {i}, pe {p}"
                        );
                    }
                }
            }
        }
    }
}
