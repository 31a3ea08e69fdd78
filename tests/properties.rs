//! Randomized-but-deterministic tests over the core data structures and
//! algorithm invariants. Each test drives a fixed-seed [`SimRng`] through a
//! few dozen cases, so failures reproduce exactly without any external
//! property-testing framework.

use atm::prelude::*;
use atm_core::batcher::{axis_window, conflict_window};
use atm_core::detect::{check_collision_path, rotate_velocity};
use atm_core::track::track_correlate;
use atm_core::ScanIndex;
use sim_clock::{NullSink, SimRng};

const HORIZON: f32 = 2_400.0;

/// A plausible aircraft anywhere in the field with a realistic velocity.
fn arb_aircraft(rng: &mut SimRng) -> Aircraft {
    let x = rng.range_f32_inclusive(-128.0, 128.0);
    let y = rng.range_f32_inclusive(-128.0, 128.0);
    let dx = rng.range_f32_inclusive(-0.1, 0.1);
    let dy = rng.range_f32_inclusive(-0.1, 0.1);
    let alt = rng.range_f32_inclusive(1_000.0, 40_000.0);
    Aircraft::at(x, y).with_velocity(dx, dy).with_altitude(alt)
}

fn uniform_f64(rng: &mut SimRng, lo: f64, hi: f64) -> f64 {
    let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    lo + (hi - lo) * unit
}

// ---------- Batcher windows ----------

#[test]
fn axis_window_is_within_bounds() {
    let mut rng = SimRng::seed_from_u64(0xA1);
    for _ in 0..64 {
        let pos = rng.range_f32_inclusive(-300.0, 300.0);
        let vel = rng.range_f32_inclusive(-1.0, 1.0);
        let sep = rng.range_f32_inclusive(0.1, 10.0);
        if let Some((lo, hi)) = axis_window(pos, vel, sep, HORIZON, &mut NullSink) {
            assert!(lo >= 0.0);
            assert!(hi <= HORIZON);
            assert!(lo <= hi);
        }
    }
}

#[test]
fn axis_window_matches_brute_force_sampling() {
    let mut rng = SimRng::seed_from_u64(0xA2);
    for _ in 0..64 {
        let pos = rng.range_f32_inclusive(-100.0, 100.0);
        let vel = rng.range_f32_inclusive(-0.5, 0.5);
        // Sample the trajectory: the analytic window and the sampled
        // violation set must agree (up to sampling resolution at the edges).
        let sep = 3.0f32;
        let window = axis_window(pos, vel, sep, HORIZON, &mut NullSink);
        let step = 1.0f32;
        let mut t = 0.0f32;
        while t <= HORIZON {
            let violating = (pos + vel * t).abs() <= sep;
            match window {
                Some((lo, hi)) => {
                    // Strictly inside the window must violate; strictly
                    // outside must not (1-step guard band for f32 edges).
                    if t > lo + step && t < hi - step {
                        assert!(violating, "t={t} inside ({lo},{hi}) but not violating");
                    }
                    if t < lo - step || t > hi + step {
                        assert!(!violating, "t={t} outside ({lo},{hi}) but violating");
                    }
                }
                None => {
                    // A guard band around exact tangency.
                    let d = (pos + vel * t).abs();
                    assert!(d > sep - 0.51, "no window but violation at t={t} (d={d})");
                }
            }
            t += step;
        }
    }
}

#[test]
fn conflict_window_is_symmetric_in_the_pair() {
    let mut rng = SimRng::seed_from_u64(0xA3);
    for _ in 0..64 {
        let a = arb_aircraft(&mut rng);
        let b = arb_aircraft(&mut rng);
        // Swapping track and trial (with their own velocities) must yield
        // the same window: relative geometry is symmetric.
        let w1 = conflict_window(&a, (a.dx, a.dy), &b, 3.0, HORIZON, &mut NullSink);
        let w2 = conflict_window(&b, (b.dx, b.dy), &a, 3.0, HORIZON, &mut NullSink);
        match (w1, w2) {
            (None, None) => {}
            (Some((l1, h1)), Some((l2, h2))) => {
                assert!((l1 - l2).abs() < 1e-2, "{l1} vs {l2}");
                assert!((h1 - h2).abs() < 1e-2, "{h1} vs {h2}");
            }
            other => panic!("asymmetric windows: {other:?}"),
        }
    }
}

#[test]
fn coincident_aircraft_always_conflict() {
    let mut rng = SimRng::seed_from_u64(0xA4);
    for _ in 0..64 {
        // An aircraft exactly on top of another (same velocity) violates
        // separation for the whole horizon.
        let a = arb_aircraft(&mut rng);
        let b = a;
        let w = conflict_window(&a, (a.dx, a.dy), &b, 3.0, HORIZON, &mut NullSink);
        assert_eq!(w, Some((0.0, HORIZON)));
    }
}

// ---------- Rotation (Task 3) ----------

#[test]
fn rotation_preserves_speed() {
    let mut rng = SimRng::seed_from_u64(0xA5);
    for _ in 0..64 {
        let vx = rng.range_f32_inclusive(-1.0, 1.0);
        let vy = rng.range_f32_inclusive(-1.0, 1.0);
        let angle = rng.range_f32_inclusive(-3.2, 3.2);
        let (rx, ry) = rotate_velocity((vx, vy), angle, &mut NullSink);
        let before = (vx * vx + vy * vy).sqrt();
        let after = (rx * rx + ry * ry).sqrt();
        assert!((before - after).abs() < 1e-4 * (1.0 + before));
    }
}

#[test]
fn opposite_rotations_cancel() {
    let mut rng = SimRng::seed_from_u64(0xA6);
    for _ in 0..64 {
        let vx = rng.range_f32_inclusive(-1.0, 1.0);
        let vy = rng.range_f32_inclusive(-1.0, 1.0);
        let angle = rng.range_f32_inclusive(0.01, 1.0);
        let fwd = rotate_velocity((vx, vy), angle, &mut NullSink);
        let back = rotate_velocity(fwd, -angle, &mut NullSink);
        assert!((back.0 - vx).abs() < 1e-4);
        assert!((back.1 - vy).abs() < 1e-4);
    }
}

// ---------- Task 1 invariants over random fleets ----------

#[test]
fn track_state_machine_invariants() {
    let mut rng = SimRng::seed_from_u64(0xA7);
    for _ in 0..48 {
        let seed = rng.next_u64() % 10_000;
        let n = 2 + (rng.next_u64() % 118) as usize;
        let mut field = Airfield::with_seed(n, seed);
        let mut radars = field.generate_radar();
        let cfg = field.config().clone();
        let stats = track_correlate(&mut field.aircraft, &mut radars, &cfg, &mut NullSink);

        // Counting identity: every aircraft is in exactly one match state.
        let none = field.aircraft.iter().filter(|a| a.r_match == 0).count() as u64;
        assert_eq!(stats.matched + stats.dropped_aircraft + none, n as u64);

        // Radar bookkeeping: matched + discarded + unmatched = all radars.
        let matched_radars = radars.iter().filter(|r| r.matched()).count() as u64;
        assert_eq!(
            matched_radars + stats.discarded_radars + stats.unmatched_radars,
            n as u64
        );

        // A radar that claims aircraft p and survives validation implies
        // the aircraft really is in MATCH_ONE... or was dropped later.
        for r in &radars {
            if r.matched() {
                let p = r.r_match_with as usize;
                assert!(p < n);
                assert!(field.aircraft[p].r_match == 1 || field.aircraft[p].r_match == -1);
            }
        }

        // No two *matched* radars point at the same aircraft in MATCH_ONE.
        let mut seen = vec![0u32; n];
        for r in &radars {
            if r.matched() && field.aircraft[r.r_match_with as usize].r_match == 1 {
                seen[r.r_match_with as usize] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c <= 1), "two radars own one aircraft");
    }
}

// ---------- Tasks 2+3 invariants ----------

#[test]
fn resolution_preserves_every_speed() {
    let mut rng = SimRng::seed_from_u64(0xA8);
    for _ in 0..32 {
        let seed = rng.next_u64() % 5_000;
        let n = 2 + (rng.next_u64() % 58) as usize;
        let mut field = Airfield::with_seed(n, seed);
        let cfg = field.config().clone();
        let speeds: Vec<f32> = field.aircraft.iter().map(|a| a.speed()).collect();
        for i in 0..n {
            check_collision_path(
                &mut field.aircraft,
                &ScanIndex::Naive,
                i,
                &cfg,
                &mut NullSink,
            );
        }
        for (a, s0) in field.aircraft.iter().zip(speeds) {
            assert!((a.speed() - s0).abs() < 1e-3 * (1.0 + s0), "speed changed");
        }
    }
}

#[test]
fn committed_paths_have_no_critical_conflicts_left_behind() {
    let mut rng = SimRng::seed_from_u64(0xA9);
    for _ in 0..32 {
        let seed = rng.next_u64() % 2_000;
        let n = 2 + (rng.next_u64() % 48) as usize;
        let mut field = Airfield::with_seed(n, seed);
        let cfg = field.config().clone();
        for i in 0..n {
            let before = field.aircraft[i];
            let s = check_collision_path(
                &mut field.aircraft,
                &ScanIndex::Naive,
                i,
                &cfg,
                &mut NullSink,
            );
            if s.resolved == 1 {
                // The committed path differs from the original and is
                // verified conflict-free at commit time (against the fleet
                // as it stood). Direction changed, speed didn't.
                let after = field.aircraft[i];
                assert!(after.dx != before.dx || after.dy != before.dy);
                assert!(!after.col);
            }
        }
    }
}

// ---------- Airfield generator ----------

#[test]
fn setup_respects_all_configured_ranges() {
    let mut rng = SimRng::seed_from_u64(0xAA);
    for _ in 0..48 {
        let seed = rng.next_u64() % 10_000;
        let n = 1 + (rng.next_u64() % 199) as usize;
        let field = Airfield::with_seed(n, seed);
        let cfg = field.config();
        for a in &field.aircraft {
            assert!(a.x.abs() <= cfg.half_width);
            assert!(a.y.abs() <= cfg.half_width);
            assert!(a.alt >= cfg.alt_min_ft && a.alt <= cfg.alt_max_ft);
            let kts = a.speed() * cfg.periods_per_hour;
            assert!(kts >= cfg.speed_min_kts - 0.5);
            assert!(kts <= cfg.speed_max_kts + 0.5);
        }
    }
}

#[test]
fn quarter_shuffle_is_a_permutation() {
    for n in 0usize..200 {
        let mut v: Vec<usize> = (0..n).collect();
        atm_core::airfield::shuffle_quarters(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }
}

// ---------- Simulated time ----------

#[test]
fn sim_duration_add_sub_roundtrip() {
    let mut rng = SimRng::seed_from_u64(0xAB);
    for _ in 0..64 {
        let a = rng.next_u64() % (u64::MAX / 4);
        let b = rng.next_u64() % (u64::MAX / 4);
        let da = SimDuration::from_picos(a);
        let db = SimDuration::from_picos(b);
        assert_eq!((da + db) - db, da);
        assert_eq!(da.saturating_sub(db) + db.min(da + db), da.max(db));
    }
}

#[test]
fn sim_duration_ordering_matches_picos() {
    let mut rng = SimRng::seed_from_u64(0xAC);
    for _ in 0..64 {
        let a = rng.next_u64();
        let b = rng.next_u64();
        let da = SimDuration::from_picos(a);
        let db = SimDuration::from_picos(b);
        assert_eq!(da.cmp(&db), a.cmp(&b));
    }
}

// ---------- Curve fitting ----------

#[test]
fn polyfit_recovers_planted_lines() {
    let mut rng = SimRng::seed_from_u64(0xAD);
    for _ in 0..48 {
        let intercept = uniform_f64(&mut rng, -100.0, 100.0);
        let slope = uniform_f64(&mut rng, -10.0, 10.0);
        let x: Vec<f64> = (0..24).map(|i| (i * 700) as f64).collect();
        let y: Vec<f64> = x.iter().map(|&v| intercept + slope * v).collect();
        let fit = fit_poly(&x, &y, 1).unwrap();
        assert!((fit.poly.coeff(0) - intercept).abs() < 1e-5 * (1.0 + intercept.abs()));
        assert!((fit.poly.coeff(1) - slope).abs() < 1e-8 * (1.0 + slope.abs()));
        assert!(fit.gof.r_squared > 1.0 - 1e-9);
    }
}

#[test]
fn polyfit_residuals_never_beat_higher_degree() {
    // SSE of a degree-2 fit can never exceed the degree-1 fit's SSE on
    // the same data (nested models).
    for seed in 0u64..48 {
        let mut state = (seed * 19 + 3).wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut noise = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        let x: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|&v| 2.0 * v + noise()).collect();
        let lin = fit_poly(&x, &y, 1).unwrap();
        let quad = fit_poly(&x, &y, 2).unwrap();
        assert!(quad.gof.sse <= lin.gof.sse + 1e-9);
    }
}

// ---------- Fast scan (grid) vs. naive scan ----------

/// A fleet whose altitudes cluster into a handful of flight levels, so the
/// grid's altitude buckets actually prune (random altitudes over the full
/// range would leave most buckets singleton and prove little about
/// correctness under contention).
fn arb_fleet(rng: &mut SimRng, n: usize) -> Vec<Aircraft> {
    (0..n)
        .map(|_| {
            let mut a = arb_aircraft(rng);
            // 8 levels, 900 ft apart: within/adjacent/distant band pairs.
            a.alt = 5_000.0 + (rng.next_u64() % 8) as f32 * 900.0;
            a
        })
        .collect()
}

fn scan_cfg(seed: u64, scan: ScanMode) -> AtmConfig {
    sharded_cfg(seed, scan, 1)
}

fn sharded_cfg(seed: u64, scan: ScanMode, shards: usize) -> AtmConfig {
    AtmConfig {
        scan,
        shards,
        ..AtmConfig::with_seed(seed)
    }
}

/// Run Tasks 2+3 end to end under `cfg` and return everything observable:
/// the mutated fleet, the detection statistics, and the booked op totals.
/// Runs the wave executor on four workers, so a shard grid (`shards > 1`)
/// scans through real halos; `shards == 1` is the serial reference.
fn full_detect(
    fleet: &[Aircraft],
    cfg: &AtmConfig,
) -> (
    Vec<Aircraft>,
    atm_core::detect::DetectStats,
    sim_clock::OpCounter,
) {
    let mut aircraft = fleet.to_vec();
    let (stats, ops) = detect_resolve_parallel(&mut aircraft, cfg, 4);
    (aircraft, stats, ops)
}

/// Assert the conformance contract on one fleet/config: every fast path —
/// the grid and every (shard grid × scan mode) combination of the wave
/// executor — must match the unsharded naive scan in mutated fleet, stats,
/// and booked costs, bit for bit.
fn assert_scans_agree(fleet: &[Aircraft], base: &AtmConfig, label: &str) {
    let naive = full_detect(
        fleet,
        &AtmConfig {
            scan: ScanMode::Naive,
            shards: 1,
            ..base.clone()
        },
    );
    for shards in [1usize, 2, 3, 4] {
        for scan in [ScanMode::Naive, ScanMode::Grid] {
            if shards == 1 && scan == ScanMode::Naive {
                continue;
            }
            let fast = full_detect(
                fleet,
                &AtmConfig {
                    scan,
                    shards,
                    ..base.clone()
                },
            );
            assert_eq!(
                naive.0, fast.0,
                "{label}: fleets diverged under {scan:?} shards={shards}"
            );
            assert_eq!(
                naive.1, fast.1,
                "{label}: stats diverged under {scan:?} shards={shards}"
            );
            assert_eq!(
                naive.2, fast.2,
                "{label}: costs diverged under {scan:?} shards={shards}"
            );
        }
    }
}

#[test]
fn fast_scans_equal_naive_on_random_fleets() {
    let mut rng = SimRng::seed_from_u64(0xB0);
    for case in 0..24 {
        let n = 2 + (rng.next_u64() % 120) as usize;
        let fleet = arb_fleet(&mut rng, n);
        assert_scans_agree(
            &fleet,
            &AtmConfig::with_seed(1),
            &format!("case {case} (n={n})"),
        );
    }
}

#[test]
fn fast_scans_equal_naive_when_every_aircraft_shares_one_cell() {
    // Degenerate pruning: the whole fleet inside a radius far smaller than
    // the ~56 nm cell, so the grid collapses to a single populated cell
    // and the scan must behave exactly like the naive loop.
    let mut rng = SimRng::seed_from_u64(0xB2);
    for case in 0..8 {
        let n = 2 + (rng.next_u64() % 60) as usize;
        let fleet: Vec<Aircraft> = (0..n)
            .map(|_| {
                let mut a = arb_aircraft(&mut rng);
                a.x = rng.range_f32_inclusive(-8.0, 8.0);
                a.y = rng.range_f32_inclusive(-8.0, 8.0);
                a.alt = 9_000.0 + (rng.next_u64() % 4) as f32 * 800.0;
                a
            })
            .collect();
        assert_scans_agree(
            &fleet,
            &AtmConfig::with_seed(2),
            &format!("one-cell case {case}"),
        );
    }
}

#[test]
fn fast_scans_equal_naive_on_cell_boundary_positions() {
    // Aircraft sitting *exactly* on grid-cell boundaries (integer multiples
    // of the derived cell width): floor-bucketing assigns each to exactly
    // one cell, and pairs one cell apart sit exactly one reach from each
    // other — the adjacency window must still cover every gate passer.
    let cfg = AtmConfig::with_seed(3);
    let cell = cfg.critical_reach_nm() as f64 * 1.000_001;
    let mut rng = SimRng::seed_from_u64(0xB3);
    let mut fleet = Vec::new();
    for kx in -2i64..=2 {
        for ky in -2i64..=2 {
            let mut a = arb_aircraft(&mut rng);
            a.x = ((kx as f64) * cell) as f32;
            a.y = ((ky as f64) * cell) as f32;
            a.alt = 10_000.0 + ((kx + ky).rem_euclid(3)) as f32 * 900.0;
            fleet.push(a);
            // A partner a hair inside the same corner, same band.
            let mut b = arb_aircraft(&mut rng);
            b.x = a.x - 0.25;
            b.y = a.y - 0.25;
            b.alt = a.alt + 100.0;
            fleet.push(b);
        }
    }
    assert_scans_agree(&fleet, &cfg, "cell-boundary lattice");
}

#[test]
fn fast_scans_equal_naive_on_a_fleet_hugging_the_field_edge() {
    // Everything pinned to the ±128 nm rim (corners and edges): the grid's
    // populated cells form a hollow ring, min/max cell offsets are extreme,
    // and clamping at the rim must not lose adjacency.
    let mut rng = SimRng::seed_from_u64(0xB4);
    let mut fleet = Vec::new();
    for i in 0..48 {
        let mut a = arb_aircraft(&mut rng);
        let along = rng.range_f32_inclusive(-128.0, 128.0);
        let rim = 128.0 - rng.range_f32_inclusive(0.0, 0.5);
        match i % 4 {
            0 => {
                a.x = along;
                a.y = rim;
            }
            1 => {
                a.x = along;
                a.y = -rim;
            }
            2 => {
                a.x = rim;
                a.y = along;
            }
            _ => {
                a.x = -rim;
                a.y = along;
            }
        }
        a.alt = 20_000.0 + (i % 5) as f32 * 900.0;
        fleet.push(a);
    }
    assert_scans_agree(&fleet, &AtmConfig::with_seed(4), "field-edge ring");
}

#[test]
fn fast_scans_equal_naive_on_zero_velocity_clusters() {
    // Static aircraft only conflict if their boxes already overlap. With
    // speed_max 0 the reach collapses to the separation itself, so pairs
    // exactly one separation apart sit on the gate's `<=` boundary (a
    // zero-width window exists there) — the hardest edge for the range
    // gate and the grid's containment argument alike.
    let base = AtmConfig {
        speed_min_kts: 0.0,
        speed_max_kts: 0.0,
        ..AtmConfig::with_seed(5)
    };
    let sep = base.separation_nm; // 3.0
    let mut fleet = Vec::new();
    for k in 0..10 {
        let cx = -60.0 + k as f32 * 13.0;
        let cy = 40.0 - k as f32 * 9.0;
        // A cross of five static aircraft, arms exactly one separation out.
        for (dx, dy) in [(0.0, 0.0), (sep, 0.0), (-sep, 0.0), (0.0, sep), (0.0, -sep)] {
            fleet.push(
                Aircraft::at(cx + dx, cy + dy)
                    .with_velocity(0.0, 0.0)
                    .with_altitude(15_000.0 + (k % 3) as f32 * 900.0),
            );
        }
    }
    assert_scans_agree(&fleet, &base, "zero-velocity crosses");
}

// ---------- Sharded scan vs. naive scan (adversarial layouts) ----------

#[test]
fn sharded_scans_equal_naive_on_aircraft_exactly_on_shard_borders() {
    // Shard borders sit at multiples of 2·half_width/S. Pin aircraft
    // *exactly* on those lines (and a partner a hair across each line, in
    // the same band): the clamped floor-cell ownership rule must assign
    // each to exactly one shard, and the halo must still export every
    // cross-border gate passer.
    let base = AtmConfig::with_seed(6);
    let mut rng = SimRng::seed_from_u64(0xB5);
    for shards in [2i64, 3, 4] {
        let cell = 2.0 * base.half_width / shards as f32;
        let mut fleet = Vec::new();
        for k in 1..shards {
            let line = -base.half_width + k as f32 * cell;
            for j in 0..6 {
                let along = rng.range_f32_inclusive(-120.0, 120.0);
                let mut a = arb_aircraft(&mut rng);
                a.x = line; // exactly on a vertical border
                a.y = along;
                a.alt = 10_000.0 + (j % 3) as f32 * 900.0;
                fleet.push(a);
                let mut b = arb_aircraft(&mut rng);
                b.x = line - 0.5; // a hair into the neighboring shard
                b.y = along + 0.5;
                b.alt = a.alt + 100.0;
                fleet.push(b);
                let mut c = arb_aircraft(&mut rng);
                c.x = along; // and the same on a horizontal border
                c.y = line;
                c.alt = a.alt;
                fleet.push(c);
            }
        }
        assert_scans_agree(&fleet, &base, &format!("border lines S={shards}"));
    }
}

#[test]
fn sharded_scans_equal_naive_on_a_four_shard_corner_cluster() {
    // A tight cluster straddling the point where four shards meet (the
    // field center for any even S): every pair in the cluster is a
    // cross-shard pair, many spanning diagonal shards, which only the halo
    // export can see.
    let mut rng = SimRng::seed_from_u64(0xB6);
    let mut fleet = Vec::new();
    for k in 0..40 {
        let mut a = arb_aircraft(&mut rng);
        a.x = rng.range_f32_inclusive(-6.0, 6.0);
        a.y = rng.range_f32_inclusive(-6.0, 6.0);
        a.alt = 12_000.0 + (k % 4) as f32 * 800.0;
        fleet.push(a);
    }
    assert_scans_agree(
        &fleet,
        &AtmConfig::with_seed(7),
        "four-shard corner cluster",
    );
}

#[test]
fn sharded_scans_equal_naive_when_the_whole_fleet_is_in_one_shard() {
    // Degenerate partition: every aircraft inside a single shard cell, so
    // all other shards own nothing (empty bounding boxes, no members) and
    // the one populated shard must behave exactly like the unsharded scan.
    let mut rng = SimRng::seed_from_u64(0xB7);
    let mut fleet = Vec::new();
    for k in 0..50 {
        let mut a = arb_aircraft(&mut rng);
        // For S ∈ {2,3,4} over ±128 nm, [70, 120]² lies strictly inside
        // the top-right shard cell of every grid.
        a.x = rng.range_f32_inclusive(70.0, 120.0);
        a.y = rng.range_f32_inclusive(70.0, 120.0);
        a.alt = 8_000.0 + (k % 5) as f32 * 900.0;
        fleet.push(a);
    }
    assert_scans_agree(&fleet, &AtmConfig::with_seed(8), "one-shard fleet");
}

#[test]
fn sharded_scans_equal_naive_on_random_fleets() {
    let mut rng = SimRng::seed_from_u64(0xB8);
    for case in 0..12 {
        let n = 2 + (rng.next_u64() % 100) as usize;
        let fleet = arb_fleet(&mut rng, n);
        assert_scans_agree(
            &fleet,
            &AtmConfig::with_seed(9),
            &format!("sharded random case {case} (n={n})"),
        );
    }
}

#[test]
fn gpu_modeled_time_is_bit_identical_across_scan_modes() {
    let mut rng = SimRng::seed_from_u64(0xB1);
    for _ in 0..6 {
        let seed = rng.next_u64() % 10_000;
        let n = 50 + (rng.next_u64() % 400) as usize;
        let fleet = Airfield::with_seed(n, seed).aircraft;

        let mut naive = fleet.clone();
        let mut gpu1 = GpuBackend::titan_x_pascal();
        let t_naive = gpu1.detect_resolve(&mut naive, &scan_cfg(seed, ScanMode::Naive));

        for (scan, shards) in [
            (ScanMode::Grid, 1),
            (ScanMode::Grid, 4),
            (ScanMode::Naive, 2),
        ] {
            let mut fast = fleet.clone();
            let mut gpu2 = GpuBackend::titan_x_pascal();
            let t_fast = gpu2.detect_resolve(&mut fast, &sharded_cfg(seed, scan, shards));

            assert_eq!(
                naive, fast,
                "n={n} seed={seed} scan={scan:?} shards={shards}"
            );
            assert_eq!(
                t_naive, t_fast,
                "modeled GPU time diverged (n={n} seed={seed} scan={scan:?} shards={shards})"
            );
        }
    }
}

#[test]
fn xeon_modeled_time_is_identical_across_scan_modes() {
    let fleet = Airfield::with_seed(600, 77).aircraft;

    let mut naive = fleet.clone();
    let mut x1 = XeonModelBackend::new();
    let t_naive = x1.detect_resolve(&mut naive, &scan_cfg(77, ScanMode::Naive));

    for (scan, shards) in [
        (ScanMode::Grid, 1),
        (ScanMode::Grid, 4),
        (ScanMode::Naive, 4),
    ] {
        let mut fast = fleet.clone();
        let mut x2 = XeonModelBackend::new();
        let t_fast = x2.detect_resolve(&mut fast, &sharded_cfg(77, scan, shards));

        assert_eq!(naive, fast, "scan={scan:?} shards={shards}");
        assert_eq!(
            t_naive, t_fast,
            "Xeon weighted-op pricing diverged under {scan:?} shards={shards}"
        );
    }
}

// ---------- Parallel sweep harness ----------

#[test]
fn parallel_and_serial_sweeps_produce_identical_series() {
    use atm_bench::harness::Harness;
    use atm_bench::sweep::{sweep_roster, sweep_roster_on, SweepConfig, Task};

    let cfg = SweepConfig {
        ns: vec![150, 300, 450],
        seed: 21,
        reps: 2,
        scan: ScanMode::default(),
    };
    for task in [Task::Track, Task::DetectResolve] {
        let serial = sweep_roster(&Roster::paper(), task, &cfg);
        for jobs in [2, 5] {
            let parallel = sweep_roster_on(&Roster::paper(), task, &cfg, &Harness::new(jobs));
            assert_eq!(serial, parallel, "task {task:?}, jobs {jobs}");
        }
    }
}

// ---------- CandidateSource enumerators (unified kernel pipeline) ----------

/// The conformance contract of the `CandidateSource` seam, stated directly
/// on the enumerators instead of through a full detect run: for random
/// fleets, every enumerator must (a) yield a candidate superset of the
/// true gate-passing partner set for every track, and (b) drive the shared
/// kernel to the naive scan's exact result and booked costs — the naive
/// and grid sources, unsharded and as the wave executor's 4×4 halo index.
#[test]
fn every_candidate_source_covers_the_gate_set_and_matches_the_naive_kernel() {
    use atm_core::batcher::{same_altitude_band, within_critical_reach};
    use atm_core::detect::{scan_candidates, scan_pairs};
    use sim_clock::OpCounter;

    let mut rng = SimRng::seed_from_u64(0xC5);
    for case in 0..8 {
        let n = 2 + (rng.next_u64() % 80) as usize;
        let fleet = arb_fleet(&mut rng, n);
        let base = scan_cfg(5, ScanMode::Naive);
        let reach = base.critical_reach_nm();
        let naive_index = ScanIndex::for_config(&fleet, &base);

        for scan in [ScanMode::Naive, ScanMode::Grid] {
            let cfg = sharded_cfg(5, scan, 4);
            let index = ScanIndex::for_config(&fleet, &cfg);
            let sharded = ShardedIndex::build(&fleet, &cfg);

            for (i, track) in fleet.iter().enumerate() {
                let mut halo = Vec::new();
                sharded.candidates_into(i, track, &mut halo);
                let sources: [(&str, Vec<usize>); 2] = [
                    ("unsharded", index.candidates(i, track, n).collect()),
                    ("shards=4", halo.iter().map(|&p| p as usize).collect()),
                ];
                for (source, cands) in sources {
                    let label = format!("case {case} (n={n}) scan={scan:?} {source}");
                    // (a) Superset: every partner that passes both real
                    // gates must be enumerated (self is the only allowed
                    // omission).
                    for (p, trial) in fleet.iter().enumerate() {
                        if p == i {
                            continue;
                        }
                        let sep = base.alt_separation_ft;
                        let passes = same_altitude_band(track, trial, sep, &mut NullSink)
                            && within_critical_reach(track, trial, reach, &mut NullSink);
                        if passes {
                            assert!(
                                cands.contains(&p),
                                "{label}: enumerator dropped gate-passing pair ({i}, {p})"
                            );
                        }
                    }

                    // (b) Kernel equivalence: result and booked costs must
                    // match the naive scan bit for bit.
                    let vel = (track.dx, track.dy);
                    let mut ops_naive = OpCounter::new();
                    let mut ops_fast = OpCounter::new();
                    let r_naive = scan_pairs(&fleet, &naive_index, i, vel, &base, &mut ops_naive);
                    let r_fast =
                        scan_candidates(&fleet, None, i, n, vel, &cfg, cands, &mut ops_fast);
                    assert_eq!(
                        r_naive, r_fast,
                        "{label}: scan result diverged at track {i}"
                    );
                    assert_eq!(
                        ops_naive, ops_fast,
                        "{label}: booked costs diverged at track {i}"
                    );
                }
            }
        }
    }
}

// ---------- Persistent grid rescans (dirty-cell persistence) ----------
//
// The `incremental_matches_full_rebuild_*` tests hold a backend's
// persistent grid engine against the full rebuild every cycle: the naive
// oracle rescanning the whole fleet from scratch.

/// How a fleet mutates between two rescans of a persistent-engine run.
type Perturb = fn(&mut [Aircraft], usize, &mut SimRng);

/// Drive one persistent backend in [`ScanMode::Grid`] through `cycles`
/// rescans of a fleet mutated by `perturb` between cycles, checking every
/// rescan byte-for-byte (mutated fleet and stats) against a fresh
/// unsharded naive detect of the same pre-scan fleet.
fn drive_incremental<B: AtmBackend>(
    mut backend: B,
    stats: impl Fn(&B) -> atm_core::detect::DetectStats,
    fleet0: &[Aircraft],
    cycles: usize,
    perturb: Perturb,
    label: &str,
) {
    use atm_core::detect::detect_resolve_all;
    let grid = scan_cfg(7, ScanMode::Grid);
    let naive = scan_cfg(7, ScanMode::Naive);
    let mut fleet = fleet0.to_vec();
    let mut rng = SimRng::seed_from_u64(0xD1);
    for cycle in 0..cycles {
        let mut reference = fleet.clone();
        let ref_stats = detect_resolve_all(&mut reference, &naive, &mut NullSink);
        backend.detect_resolve(&mut fleet, &grid);
        assert_eq!(fleet, reference, "{label}: fleet diverged at cycle {cycle}");
        assert_eq!(
            stats(&backend),
            ref_stats,
            "{label}: stats diverged at cycle {cycle}"
        );
        perturb(&mut fleet, cycle, &mut rng);
    }
}

/// [`drive_incremental`] across every measured catalog backend
/// (sequential, multicore, simd-soa), each holding its engine alive for the
/// whole move sequence.
fn assert_incremental_tracks_full_rebuild(
    fleet0: &[Aircraft],
    cycles: usize,
    perturb: Perturb,
    what: &str,
) {
    let label = |b: &str| format!("{what}: backend={b}");
    drive_incremental(
        SequentialBackend::new(),
        |b| b.last_detect_stats().unwrap(),
        fleet0,
        cycles,
        perturb,
        &label("seq"),
    );
    drive_incremental(
        MulticoreBackend::new(3),
        |b| b.last_detect_stats().unwrap(),
        fleet0,
        cycles,
        perturb,
        &label("multicore-3"),
    );
    drive_incremental(
        SimdSoaBackend::new(),
        |b| b.last_detect_stats().unwrap(),
        fleet0,
        cycles,
        perturb,
        &label("simd-soa"),
    );
}

#[test]
fn incremental_matches_full_rebuild_over_random_move_sequences() {
    // Per cycle roughly 15% of the fleet drifts; a few of those also hop an
    // altitude bucket or commit a new velocity, so dirty propagation covers
    // position, bucket and velocity key changes at once.
    fn drift(fleet: &mut [Aircraft], _cycle: usize, rng: &mut SimRng) {
        let n = fleet.len();
        for _ in 0..n.div_ceil(7) {
            let j = (rng.next_u64() % n as u64) as usize;
            fleet[j].x += rng.range_f32_inclusive(-8.0, 8.0);
            fleet[j].y += rng.range_f32_inclusive(-8.0, 8.0);
            match rng.next_u64() % 4 {
                0 => fleet[j].alt += rng.range_f32_inclusive(-1_500.0, 1_500.0),
                1 => {
                    fleet[j].dx = rng.range_f32_inclusive(-0.1, 0.1);
                    fleet[j].dy = rng.range_f32_inclusive(-0.1, 0.1);
                }
                _ => {}
            }
        }
    }
    let mut rng = SimRng::seed_from_u64(0xE7);
    for case in 0..3 {
        let n = 40 + (rng.next_u64() % 50) as usize;
        let fleet = arb_fleet(&mut rng, n);
        assert_incremental_tracks_full_rebuild(
            &fleet,
            6,
            drift,
            &format!("random moves case {case} (n={n})"),
        );
    }
}

#[test]
fn incremental_matches_full_rebuild_under_oscillating_cell_boundaries() {
    // Adversarial: half the fleet slams back and forth across cell-scale
    // distances (cells are ~56 nm) while toggling altitude across a bucket
    // edge, so the same aircraft enter and leave cells every single cycle
    // and no cached scan should survive near them.
    fn oscillate(fleet: &mut [Aircraft], cycle: usize, _rng: &mut SimRng) {
        let sign = if cycle.is_multiple_of(2) { 1.0 } else { -1.0 };
        for a in fleet.iter_mut().step_by(2) {
            a.x += sign * 35.0;
            a.alt += sign * 600.0;
        }
    }
    let mut rng = SimRng::seed_from_u64(0xE8);
    let fleet = arb_fleet(&mut rng, 72);
    assert_incremental_tracks_full_rebuild(&fleet, 8, oscillate, "oscillating boundary");
}

// ---------- Scenario corpus (shaped traffic) ----------

#[test]
fn catalog_scenarios_agree_across_all_scan_modes_and_shards() {
    // The whole catalog — crossing flows, merges, stacks, corridors,
    // swarms, dropout traffic, hotspot surges — through the full
    // conformance matrix: every scan mode × shard grid must match the
    // unsharded naive scan bit for bit on every traffic shape, not just
    // on uniform random fleets.
    for scn in Scenario::catalog() {
        let fleet = scn.fleet(72, 31);
        let base = scn.config(31);
        assert_scans_agree(&fleet, &base, &format!("scenario {}", scn.slug()));
    }
}

#[test]
fn incremental_matches_full_rebuild_on_holding_stack_and_hotspot_scenarios() {
    // The two scenarios built to stress the dirty-cell path: holding
    // stacks pile many aircraft per (cell, band) slot, and the hotspot
    // surge crowds one shard corner — then a drifting subset keeps
    // dirtying exactly those crowded cells every cycle.
    fn drift(fleet: &mut [Aircraft], _cycle: usize, rng: &mut SimRng) {
        let n = fleet.len();
        for _ in 0..n.div_ceil(6) {
            let j = (rng.next_u64() % n as u64) as usize;
            fleet[j].x += rng.range_f32_inclusive(-10.0, 10.0);
            fleet[j].y += rng.range_f32_inclusive(-10.0, 10.0);
            if rng.next_u64().is_multiple_of(3) {
                fleet[j].alt += rng.range_f32_inclusive(-1_200.0, 1_200.0);
            }
        }
    }
    for kind in [ScenarioKind::HoldingStacks, ScenarioKind::HotspotSurge] {
        let scn = Scenario::new(kind);
        let fleet = scn.fleet(64, 13);
        assert_incremental_tracks_full_rebuild(
            &fleet,
            6,
            drift,
            &format!("scenario {}", scn.slug()),
        );
    }
}

#[test]
fn incremental_matches_full_rebuild_under_envelope_collapse() {
    // Adversarial: one outlier teleports between the cluster and a point
    // ~40x outside it, so the measured fleet envelope (and with it the
    // whole grid geometry) collapses and re-expands on alternate cycles.
    fn teleport(fleet: &mut [Aircraft], cycle: usize, _rng: &mut SimRng) {
        let far = cycle.is_multiple_of(2);
        fleet[0].x = if far { 5_000.0 } else { 10.0 };
        fleet[0].y = if far { -4_200.0 } else { -10.0 };
    }
    let mut rng = SimRng::seed_from_u64(0xE9);
    let fleet = arb_fleet(&mut rng, 64);
    assert_incremental_tracks_full_rebuild(&fleet, 8, teleport, "envelope collapse");
}
