//! Scenario-corpus sweeps: every catalog traffic shape across the paper's
//! platform roster, both scan modes, and the cyclic executive's deadline
//! accounting.
//!
//! One [`scenario_figure`] call produces a byte-stable artifact per
//! scenario (`scn-<slug>.json`): the modeled Tasks 2+3 series of each
//! paper platform over the aircraft sweep — with every point verified
//! bit-identical across {naive, grid} — plus deadline-miss series for the
//! fastest NVIDIA device and the multi-core Xeon, scan-invariance of those
//! miss counts, conflict-volume notes, and the miss-onset fleet size.
//! [`scenario_metrics`] captures one recorded major cycle
//! (`scn-<slug>-metrics.json`). All inputs are deterministically modeled,
//! so both artifacts are byte-identical run to run and across `--jobs`.

use crate::harness::Harness;
use crate::series::{FigureData, Series};
use atm_core::backends::{GpuBackend, PlatformId, Roster};
use atm_core::{fleet_hash, AtmConfig, AtmSimulation, ScanMode, Scenario};
use sim_clock::NullSink;
use telemetry::Recorder;

/// Both scan modes, in the order the matrix is verified.
const SCANS: [ScanMode; 2] = [ScanMode::Naive, ScanMode::Grid];

/// Artifact notes whose wording the committed scenario goldens pin. They
/// predate the collapse of the scan family to {naive, grid}: the matrix
/// then spanned four modes and two shard grids, and the deadline check
/// compared the grid against its incremental variant. The wording is
/// corrected with the next deliberate golden regeneration; until then it
/// must not move a byte.
const MATRIX_NOTE: &str = "every point verified bit-identical across 4 scan modes x shards [1, 4]";
const DEADLINE_NOTE: &str = "deadline misses identical between Grid and Incremental scans";

/// Scenario-sweep parameters.
#[derive(Clone, Debug)]
pub struct ScenarioSweepConfig {
    /// Aircraft counts for the per-platform modeled series.
    pub ns: Vec<usize>,
    /// Fleet seed (same fleet per point across platforms and combos).
    pub seed: u64,
    /// Aircraft counts for the deadline-miss ladder (full major cycles on
    /// the functional simulator — kept moderate on purpose).
    pub deadline_ns: Vec<usize>,
    /// Fleet size for the telemetry-metrics capture.
    pub metrics_n: usize,
}

impl ScenarioSweepConfig {
    /// The default scenario sweep (matches EXPERIMENTS.md).
    pub fn standard() -> Self {
        ScenarioSweepConfig {
            ns: vec![400, 800, 1_600],
            seed: 2018,
            deadline_ns: vec![1_000, 2_000, 4_000],
            metrics_n: 400,
        }
    }

    /// A fast domain for smoke runs (`figures --scenario ... --quick`).
    pub fn quick() -> Self {
        ScenarioSweepConfig {
            ns: vec![200, 400],
            seed: 2018,
            deadline_ns: vec![400],
            metrics_n: 200,
        }
    }

    /// The tiny domain the committed golden fixtures pin down.
    pub fn golden() -> Self {
        ScenarioSweepConfig {
            ns: vec![120, 240],
            seed: 2018,
            deadline_ns: vec![240],
            metrics_n: 120,
        }
    }
}

/// One platform's point: the modeled Tasks 2+3 time, already verified
/// bit-identical (duration and mutated fleet) across both scan modes.
fn matrix_point(
    entry: &atm_core::backends::RosterEntry,
    scn: &Scenario,
    n: usize,
    sw: &ScenarioSweepConfig,
) -> f64 {
    let fleet = scn.fleet(n, sw.seed);
    let mut reference: Option<(f64, u64)> = None;
    for scan in SCANS {
        let cfg = scn.apply(AtmConfig {
            scan,
            ..AtmConfig::with_seed(sw.seed)
        });
        let mut backend = entry.instantiate();
        let mut mutated = fleet.clone();
        let d = backend.detect_resolve(&mut mutated, &cfg).as_millis_f64();
        let h = fleet_hash(&mutated);
        match reference {
            None => reference = Some((d, h)),
            Some(r) => assert_eq!(
                r,
                (d, h),
                "{} on {}: scan {scan:?} diverged at n={n}",
                scn.slug(),
                entry.label
            ),
        }
    }
    reference.expect("matrix is never empty").0
}

/// Deadline misses for one full major cycle of `platform` over the
/// scenario airfield, checked identical between the grid and the naive
/// oracle scan (misses depend only on modeled time, which the scan must
/// not move).
fn deadline_point(platform: PlatformId, scn: &Scenario, n: usize, seed: u64) -> u64 {
    let run = |scan: ScanMode| {
        let entry = *Roster::paper().get(platform).expect("platform in roster");
        let base = AtmConfig {
            scan,
            ..AtmConfig::with_seed(seed)
        };
        let field = scn.airfield_with(n, &base);
        let mut sim = AtmSimulation::new(field, entry.instantiate());
        sim.run(1).report.total_misses()
    };
    let grid = run(ScanMode::Grid);
    let naive = run(ScanMode::Naive);
    assert_eq!(
        grid,
        naive,
        "{}: deadline misses moved with the scan mode at n={n}",
        scn.slug()
    );
    grid
}

/// The platforms the deadline ladder charts: the paper's headline pair —
/// the device that never misses and the one that "regularly missed a
/// large number".
const DEADLINE_PLATFORMS: [PlatformId; 2] = [PlatformId::TitanXPascal, PlatformId::XeonMulticore];

/// Sweep one scenario: per-platform modeled series (each point verified
/// across both scan modes), deadline-miss series, conflict volume
/// and miss onset. Points fan across the harness and are slotted by
/// index, so the figure is byte-identical at any `--jobs`.
pub fn scenario_figure(scn: &Scenario, sw: &ScenarioSweepConfig, harness: &Harness) -> FigureData {
    let mut fig = FigureData::new(
        &format!("scn-{}", scn.slug()),
        &format!("{} — {}", scn.name(), scn.description()),
    );
    fig.y_label = "modeled Tasks 2+3 time (ms)".to_owned();

    let roster = Roster::paper();
    let entries = roster.entries();
    let per_entry = sw.ns.len();
    let y = harness.run(entries.len() * per_entry, |k| {
        matrix_point(&entries[k / per_entry], scn, sw.ns[k % per_entry], sw)
    });
    for (i, entry) in entries.iter().enumerate() {
        fig.series.push(Series {
            label: entry.label.to_owned(),
            x: sw.ns.iter().map(|&n| n as f64).collect(),
            y_ms: y[i * per_entry..(i + 1) * per_entry].to_vec(),
        });
    }
    fig.notes.push(MATRIX_NOTE.to_owned());

    // Deadline ladder: misses per major cycle, scan-invariance asserted
    // inside every point. Fan (platform, n) pairs like the series points.
    let per_platform = sw.deadline_ns.len();
    let misses = harness.run(DEADLINE_PLATFORMS.len() * per_platform, |k| {
        deadline_point(
            DEADLINE_PLATFORMS[k / per_platform],
            scn,
            sw.deadline_ns[k % per_platform],
            sw.seed,
        )
    });
    for (i, platform) in DEADLINE_PLATFORMS.iter().enumerate() {
        let entry = *roster.get(*platform).expect("platform in roster");
        let slice = &misses[i * per_platform..(i + 1) * per_platform];
        fig.series.push(Series {
            label: format!("deadline misses — {}", entry.label),
            x: sw.deadline_ns.iter().map(|&n| n as f64).collect(),
            y_ms: slice.iter().map(|&m| m as f64).collect(),
        });
        match sw.deadline_ns.iter().zip(slice).find(|(_, &m)| m > 0) {
            Some((&n, &m)) => fig.notes.push(format!(
                "miss onset ({}): n={n} ({m} misses per major cycle)",
                entry.label
            )),
            None => fig.notes.push(format!(
                "miss onset ({}): none within the sweep",
                entry.label
            )),
        }
    }
    fig.notes.push(DEADLINE_NOTE.to_owned());

    // Conflict volume at the largest sweep size (scan-independent).
    if let Some(&n) = sw.ns.last() {
        let cfg = scn.config(sw.seed);
        let mut fleet = scn.fleet(n, sw.seed);
        let stats = atm_core::detect::detect_resolve_all(&mut fleet, &cfg, &mut NullSink);
        fig.notes.push(format!(
            "conflicts at n={n}: {} critical ({} resolved, {} unresolved), {} pair checks",
            stats.critical_conflicts, stats.resolved, stats.unresolved, stats.pair_checks
        ));
    }
    fig
}

/// One recorded major cycle of the scenario on the Titan X: the telemetry
/// metrics snapshot (`scn-<slug>-metrics.json`). Deterministically
/// modeled, so byte-identical for a given `(n, seed)`.
pub fn scenario_metrics(scn: &Scenario, n: usize, seed: u64) -> String {
    let recorder = Recorder::enabled();
    let field = scn.airfield_with(n, &AtmConfig::with_seed(seed));
    let mut sim = AtmSimulation::new(field, Box::new(GpuBackend::titan_x_pascal()));
    sim.set_recorder(recorder.clone());
    sim.run(1);
    recorder.metrics_json()
}

#[cfg(test)]
mod tests {
    use super::*;
    use atm_core::ScenarioKind;

    #[test]
    fn scenario_figure_has_platform_and_deadline_series() {
        let scn = Scenario::new(ScenarioKind::CrossingFlows);
        let fig = scenario_figure(&scn, &ScenarioSweepConfig::golden(), &Harness::serial());
        assert_eq!(fig.id, "scn-crossing");
        // Six paper platforms + two deadline series.
        assert_eq!(fig.series.len(), 8);
        assert!(fig.series[..6]
            .iter()
            .all(|s| s.y_ms.iter().all(|&y| y > 0.0)));
        assert!(fig
            .series
            .iter()
            .any(|s| s.label.starts_with("deadline misses — Titan")));
        assert!(fig.notes.iter().any(|n| n.contains("bit-identical")));
        assert!(fig.notes.iter().any(|n| n.contains("miss onset")));
        assert!(fig.notes.iter().any(|n| n.contains("conflicts at n=240")));
    }

    #[test]
    fn scenario_figure_is_jobs_invariant() {
        let scn = Scenario::new(ScenarioKind::HotspotSurge);
        let sw = ScenarioSweepConfig::golden();
        let serial = scenario_figure(&scn, &sw, &Harness::serial());
        let parallel = scenario_figure(&scn, &sw, &Harness::new(4));
        assert_eq!(serial.to_json(), parallel.to_json());
    }

    #[test]
    fn scenario_metrics_are_deterministic() {
        let scn = Scenario::new(ScenarioKind::HoldingStacks);
        let a = scenario_metrics(&scn, 100, 7);
        let b = scenario_metrics(&scn, 100, 7);
        assert_eq!(a, b);
        assert!(a.contains("rt.periods"), "{a}");
    }
}
