//! Measured-substrate determinism: the deterministic measured backends
//! (multicore thread pool, SIMD SoA) must be *byte-identical in outputs*
//! to the sequential reference across every scan mode —
//! only their reported wall-clock time may differ. This is the
//! outputs-only half of the CI determinism matrix: artifact bytes cannot
//! pin wall-clock series, so the contract is enforced here instead.
//!
//! Fleets are compared by value *and* by [`fleet_hash`]: `f32` equality
//! treats `-0.0 == +0.0`, so only the hash over the exact bit patterns
//! catches a signed-zero `time_till`.

use atm::atm_core::{AtmEngine, CycleReport};
use atm::prelude::*;

fn fresh(n: usize, seed: u64, scan: ScanMode) -> (Vec<Aircraft>, Vec<RadarReport>, AtmConfig) {
    let cfg = AtmConfig {
        scan,
        ..AtmConfig::with_seed(seed)
    };
    let mut field = Airfield::new(n, cfg);
    let radars = field.generate_radar();
    let cfg = field.config().clone();
    (field.aircraft, radars, cfg)
}

/// Require `got` to equal the reference fleet field by field and bit for bit.
fn assert_same_fleet(got: &[Aircraft], want: &[Aircraft], what: &str) {
    assert_eq!(got, want, "{what}");
    assert_eq!(
        fleet_hash(got),
        fleet_hash(want),
        "{what}: bit patterns differ"
    );
}

/// The deterministic measured backends under test (the MIMD host backend
/// is deliberately absent: its racing radar claims are honest
/// non-determinism, covered by invariant tests in `cross_backend`).
fn measured_backends() -> Vec<(&'static str, Box<dyn AtmBackend>)> {
    vec![
        ("multicore-1", Box::new(MulticoreBackend::new(1))),
        ("multicore-3", Box::new(MulticoreBackend::new(3))),
        ("multicore-8", Box::new(MulticoreBackend::new(8))),
        ("simd-soa", Box::new(SimdSoaBackend::new())),
    ]
}

#[test]
fn measured_detect_matches_seq_across_scan_modes_and_shards() {
    // The satellite property: {naive, grid}, byte-compared against the
    // sequential reference.
    for scan in [ScanMode::Naive, ScanMode::Grid] {
        let (mut ref_ac, _, cfg) = fresh(500, 99, scan);
        SequentialBackend::new().detect_resolve(&mut ref_ac, &cfg);
        for (name, mut backend) in measured_backends() {
            let (mut ac, _, cfg) = fresh(500, 99, scan);
            backend.detect_resolve(&mut ac, &cfg);
            assert_same_fleet(&ac, &ref_ac, &format!("{name} diverged at scan={scan:?}"));
        }
    }
}

#[test]
fn measured_track_matches_seq() {
    for &(n, seed) in &[(150usize, 1u64), (700, 1234)] {
        let (mut ref_ac, mut ref_rd, cfg) = fresh(n, seed, ScanMode::Grid);
        SequentialBackend::new().track_correlate(&mut ref_ac, &mut ref_rd, &cfg);
        for (name, mut backend) in measured_backends() {
            let (mut ac, mut rd, cfg) = fresh(n, seed, ScanMode::Grid);
            backend.track_correlate(&mut ac, &mut rd, &cfg);
            assert_same_fleet(&ac, &ref_ac, &format!("{name} aircraft diverged at n={n}"));
            assert_eq!(rd, ref_rd, "{name} radar state diverged at n={n}");
        }
    }
}

#[test]
fn measured_terrain_matches_seq() {
    let grid = TerrainGrid::generate(11, 128.0, 48, 10_000.0);
    let tcfg = TerrainTaskConfig::default();
    let reference = {
        let (mut ac, _, _) = fresh(300, 55, ScanMode::Grid);
        SequentialBackend::new().terrain_avoidance(&mut ac, &grid, &tcfg);
        ac
    };
    for (name, mut backend) in measured_backends() {
        let (mut ac, _, _) = fresh(300, 55, ScanMode::Grid);
        backend.terrain_avoidance(&mut ac, &grid, &tcfg);
        assert_same_fleet(&ac, &reference, &format!("{name} terrain diverged"));
    }
}

#[test]
fn measured_full_simulation_stays_in_lockstep_with_seq() {
    // Two full major cycles end to end — radar generation, tracking,
    // detection, boundary rule — through the cyclic executive.
    let run = |backend: Box<dyn AtmBackend>| {
        let mut sim = AtmSimulation::with_field(400, 4242, backend);
        sim.run(2);
        sim.aircraft().to_vec()
    };
    let seq = run(Box::new(SequentialBackend::new()));
    for (name, backend) in measured_backends() {
        let what = format!("{name} diverged over two major cycles");
        assert_same_fleet(&run(backend), &seq, &what);
    }
}

#[test]
fn measured_roster_entries_are_byte_identical_through_instantiate() {
    // The catalog path (what sweeps actually run): sequential-host,
    // multicore and simd-soa entries must agree on detect outputs.
    let seq = Roster::measured()
        .get(PlatformId::SequentialHost)
        .unwrap()
        .instantiate();
    let mut seq = seq;
    let (mut ref_ac, _, cfg) = fresh(400, 7, ScanMode::Grid);
    seq.detect_resolve(&mut ref_ac, &cfg);
    for platform in [PlatformId::MulticoreHost, PlatformId::SimdSoaHost] {
        let mut backend = Roster::measured().get(platform).unwrap().instantiate();
        let (mut ac, _, cfg) = fresh(400, 7, ScanMode::Grid);
        backend.detect_resolve(&mut ac, &cfg);
        assert_same_fleet(&ac, &ref_ac, &format!("{platform} diverged"));
    }
}

/// A cycle report with its wall-clock fields cleared: on a measured
/// backend the task totals are host time, everything else must repeat.
fn outputs_only(mut report: CycleReport) -> CycleReport {
    report.task1_total = SimDuration::ZERO;
    report.task23_total = SimDuration::ZERO;
    report.terrain_total = SimDuration::ZERO;
    report
}

#[test]
fn measured_engines_match_seq_on_rotation_heavy_scenarios() {
    // Shaped traffic where most tracks rescan after every rotation and many
    // exhaust the angle sequence: the resolve path a random fleet barely
    // reaches. Three major cycles through `AtmEngine`, both scan modes.
    for slug in ["drone-swarm", "hotspot", "corridor"] {
        let scenario = Scenario::by_slug(slug).expect("catalog scenario");
        for scan in [ScanMode::Naive, ScanMode::Grid] {
            let base = AtmConfig {
                scan,
                ..AtmConfig::with_seed(2018)
            };
            let run = |backend: Box<dyn AtmBackend>| {
                let mut engine = AtmEngine::new(scenario.airfield_with(400, &base), backend);
                let reports: Vec<CycleReport> = (0..3)
                    .map(|_| outputs_only(engine.step_major_cycle()))
                    .collect();
                (reports, engine.aircraft().to_vec())
            };
            let (seq_reports, seq_fleet) = run(Box::new(SequentialBackend::new()));
            assert!(
                seq_reports.iter().all(|r| r.conflicts > 0),
                "{slug} must keep conflicts flagged every cycle"
            );
            for (name, backend) in measured_backends() {
                let (reports, fleet) = run(backend);
                let what = format!("{name} diverged on {slug} at scan={scan:?}");
                assert_eq!(reports, seq_reports, "{what}");
                assert_same_fleet(&fleet, &seq_fleet, &what);
            }
        }
    }
}
