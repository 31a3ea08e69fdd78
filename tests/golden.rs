//! Golden snapshot tests: small committed artifacts (a figure table, a
//! figure JSON series, a telemetry metrics snapshot) regenerated at a
//! fixed seed and byte-compared in `cargo test`.
//!
//! Every platform in these captures is deterministically *modeled*, so the
//! bytes are reproducible on any host. A mismatch means an intentional
//! model/pipeline change (regenerate with `UPDATE_GOLDEN=1 cargo test
//! --test golden`, then review the fixture diff like any other code
//! change) or an accidental determinism break (fix the code).

use atm::prelude::*;
use atm_bench::figures::{fig4, fig6};
use atm_bench::harness::Harness;
use atm_bench::sweep::SweepConfig;
use std::path::{Path, PathBuf};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Byte-compare `actual` against the committed fixture `name`, or rewrite
/// the fixture when `UPDATE_GOLDEN` is set.
fn assert_matches_golden(name: &str, actual: &str) {
    let path = fixture_dir().join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(fixture_dir()).expect("create tests/golden");
        std::fs::write(&path, actual).expect("write golden fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); generate it with \
             `UPDATE_GOLDEN=1 cargo test --test golden` and commit it",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "{name} diverged from the committed fixture; if intentional, \
         regenerate with `UPDATE_GOLDEN=1 cargo test --test golden` \
         (see EXPERIMENTS.md) and review the diff"
    );
}

/// The tiny fixed sweep all figure goldens use: small enough to run in a
/// unit-test budget, wide enough to exercise every paper platform.
fn golden_sweep(scan: ScanMode) -> SweepConfig {
    golden_sweep_sharded(scan, 1)
}

/// [`golden_sweep`] with an explicit shard grid side.
fn golden_sweep_sharded(scan: ScanMode, shards: usize) -> SweepConfig {
    SweepConfig {
        ns: vec![200, 400],
        seed: 2018,
        reps: 1,
        scan,
        shards,
    }
}

#[test]
fn fig4_track_table_matches_golden() {
    let fig = fig4(&golden_sweep(ScanMode::Grid), &Harness::serial());
    assert_matches_golden("fig4_track_table.txt", &format!("{fig}"));
}

#[test]
fn fig6_detect_json_matches_golden() {
    let fig = fig6(&golden_sweep(ScanMode::Grid), &Harness::serial());
    assert_matches_golden("fig6_detect_series.json", &fig.to_json());
}

#[test]
fn telemetry_metrics_match_golden() {
    // One major cycle of the full timed simulation per paper platform,
    // all feeding one recorder — the same capture `figures --metrics`
    // performs, shrunk to n=200.
    let recorder = Recorder::enabled();
    for entry in Roster::paper().entries() {
        let mut sim = AtmSimulation::with_field(200, 2018, entry.instantiate());
        sim.set_recorder(recorder.clone());
        sim.run(1);
    }
    assert_matches_golden("telemetry_metrics.json", &recorder.metrics_json());
}

/// The sharded counterpart of [`telemetry_metrics_match_golden`]: the same
/// capture with a 4×4 shard grid. Pinned by its own fixture so shard
/// accounting regressions are byte-caught — and since sharding is a
/// wall-clock knob only, the snapshot must also be byte-identical to the
/// unsharded fixture.
#[test]
fn sharded_telemetry_metrics_match_golden() {
    let recorder = Recorder::enabled();
    for entry in Roster::paper().entries() {
        let cfg = AtmConfig {
            shards: 4,
            ..AtmConfig::with_seed(2018)
        };
        let mut sim = AtmSimulation::new(Airfield::new(200, cfg), entry.instantiate());
        sim.set_recorder(recorder.clone());
        sim.run(1);
    }
    let actual = recorder.metrics_json();
    assert_matches_golden("telemetry_metrics_sharded.json", &actual);
    let unsharded = std::fs::read_to_string(fixture_dir().join("telemetry_metrics.json"))
        .expect("unsharded metrics fixture present");
    assert_eq!(
        unsharded, actual,
        "sharding must not change a byte of the metrics snapshot"
    );
}

// ---------- Scenario-corpus goldens ----------

/// The three representative catalog scenarios whose figure artifacts are
/// pinned byte-for-byte: a structured crossing pattern, the dense
/// vertical-stack stress case, and the shard-hotspot worst case.
const GOLDEN_SCENARIOS: [&str; 3] = ["crossing", "holding-stack", "hotspot"];

#[test]
fn scenario_figures_match_golden() {
    use atm_bench::scenarios::{scenario_figure, ScenarioSweepConfig};
    let sw = ScenarioSweepConfig::golden();
    for slug in GOLDEN_SCENARIOS {
        let scn = Scenario::by_slug(slug).expect("golden slug in catalog");
        let fig = scenario_figure(&scn, &sw, &Harness::serial());
        let fixture = format!("scn_{}.json", slug.replace('-', "_"));
        assert_matches_golden(&fixture, &fig.to_json());
        // Fanning the points across workers must not change a byte.
        let parallel = scenario_figure(&scn, &sw, &Harness::new(4));
        assert_eq!(
            fig.to_json(),
            parallel.to_json(),
            "scenario {slug}: --jobs changed the artifact"
        );
    }
}

#[test]
fn scenario_metrics_match_golden() {
    use atm_bench::scenarios::{scenario_metrics, ScenarioSweepConfig};
    let sw = ScenarioSweepConfig::golden();
    let scn = Scenario::by_slug("hotspot").expect("hotspot in catalog");
    assert_matches_golden(
        "scn_hotspot_metrics.json",
        &scenario_metrics(&scn, sw.metrics_n, sw.seed),
    );
}

#[test]
fn golden_artifacts_are_scan_and_harness_invariant() {
    // The determinism contract, end to end on the golden artifacts
    // themselves: neither the scan mode, the worker count nor the shard
    // grid may change a byte of what the fixtures pin down.
    let reference = fig6(&golden_sweep(ScanMode::Grid), &Harness::serial()).to_json();
    for scan in [ScanMode::Naive, ScanMode::Grid] {
        for jobs in [1, 4] {
            for shards in [1, 4] {
                let other =
                    fig6(&golden_sweep_sharded(scan, shards), &Harness::new(jobs)).to_json();
                assert_eq!(
                    reference, other,
                    "scan={scan:?} jobs={jobs} shards={shards}"
                );
            }
        }
    }
}
