//! Measured-substrate determinism: the deterministic measured backends
//! (multicore thread pool, SIMD SoA) must be *byte-identical in outputs*
//! to the sequential reference across every scan mode and shard count —
//! only their reported wall-clock time may differ. This is the
//! outputs-only half of the CI determinism matrix: artifact bytes cannot
//! pin wall-clock series, so the contract is enforced here instead.

use atm::prelude::*;

fn fresh(
    n: usize,
    seed: u64,
    scan: ScanMode,
    shards: usize,
) -> (Vec<Aircraft>, Vec<RadarReport>, AtmConfig) {
    let cfg = AtmConfig {
        scan,
        shards,
        ..AtmConfig::with_seed(seed)
    };
    let mut field = Airfield::new(n, cfg);
    let radars = field.generate_radar();
    let cfg = field.config().clone();
    (field.aircraft, radars, cfg)
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
    // The satellite property: {naive, grid} × shards {1, 4},
    // byte-compared against the sequential reference.
    for scan in [ScanMode::Naive, ScanMode::Grid] {
        for shards in [1usize, 4] {
            let (mut ref_ac, _, cfg) = fresh(500, 99, scan, shards);
            SequentialBackend::new().detect_resolve(&mut ref_ac, &cfg);
            for (name, mut backend) in measured_backends() {
                let (mut ac, _, cfg) = fresh(500, 99, scan, shards);
                backend.detect_resolve(&mut ac, &cfg);
                assert_eq!(
                    ac, ref_ac,
                    "{name} diverged at scan={scan:?} shards={shards}"
                );
            }
        }
    }
}

#[test]
fn measured_track_matches_seq() {
    for &(n, seed) in &[(150usize, 1u64), (700, 1234)] {
        let (mut ref_ac, mut ref_rd, cfg) = fresh(n, seed, ScanMode::Grid, 1);
        SequentialBackend::new().track_correlate(&mut ref_ac, &mut ref_rd, &cfg);
        for (name, mut backend) in measured_backends() {
            let (mut ac, mut rd, cfg) = fresh(n, seed, ScanMode::Grid, 1);
            backend.track_correlate(&mut ac, &mut rd, &cfg);
            assert_eq!(ac, ref_ac, "{name} aircraft diverged at n={n}");
            assert_eq!(rd, ref_rd, "{name} radar state diverged at n={n}");
        }
    }
}

#[test]
fn measured_terrain_matches_seq() {
    let grid = TerrainGrid::generate(11, 128.0, 48, 10_000.0);
    let tcfg = TerrainTaskConfig::default();
    let reference = {
        let (mut ac, _, _) = fresh(300, 55, ScanMode::Grid, 1);
        SequentialBackend::new().terrain_avoidance(&mut ac, &grid, &tcfg);
        ac
    };
    for (name, mut backend) in measured_backends() {
        let (mut ac, _, _) = fresh(300, 55, ScanMode::Grid, 1);
        backend.terrain_avoidance(&mut ac, &grid, &tcfg);
        assert_eq!(ac, reference, "{name} terrain diverged");
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
        assert_eq!(run(backend), seq, "{name} diverged over two major cycles");
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
    let (mut ref_ac, _, cfg) = fresh(400, 7, ScanMode::Grid, 1);
    seq.detect_resolve(&mut ref_ac, &cfg);
    for platform in [PlatformId::MulticoreHost, PlatformId::SimdSoaHost] {
        let mut backend = Roster::measured().get(platform).unwrap().instantiate();
        let (mut ac, _, cfg) = fresh(400, 7, ScanMode::Grid, 1);
        backend.detect_resolve(&mut ac, &cfg);
        assert_eq!(ac, ref_ac, "{platform} diverged");
    }
}
