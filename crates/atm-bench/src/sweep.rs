//! Aircraft-count sweeps over backend rosters.

use crate::harness::Harness;
use crate::series::Series;
use atm_core::backends::{Roster, RosterEntry};
use atm_core::{Airfield, AtmConfig, ScanMode};

/// Which task a sweep measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Task {
    /// Task 1: tracking & correlation (one period's execution).
    Track,
    /// Tasks 2+3: collision detection & resolution (one execution).
    DetectResolve,
}

/// Sweep parameters.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Aircraft counts to sweep.
    pub ns: Vec<usize>,
    /// Seed for the airfields (same fleet per point across platforms).
    pub seed: u64,
    /// Executions averaged per point.
    pub reps: usize,
    /// Conflict-scan implementation (wall-clock knob only — results and
    /// modeled times are identical either way, see DESIGN.md).
    pub scan: ScanMode,
}

impl SweepConfig {
    /// The default sweep domain (matches EXPERIMENTS.md).
    pub fn standard() -> Self {
        SweepConfig {
            ns: vec![500, 1_000, 2_000, 4_000, 8_000],
            seed: 2018,
            reps: 2,
            scan: ScanMode::default(),
        }
    }

    /// A fast domain for smoke runs (`figures --quick`).
    pub fn quick() -> Self {
        SweepConfig {
            ns: vec![500, 1_000, 2_000],
            seed: 2018,
            reps: 1,
            scan: ScanMode::default(),
        }
    }

    /// The [`AtmConfig`] every point of this sweep runs under.
    pub fn atm_config(&self) -> AtmConfig {
        AtmConfig {
            scan: self.scan,
            ..AtmConfig::with_seed(self.seed)
        }
    }
}

/// Measure one platform at one aircraft count: mean task time in ms.
///
/// Each rep uses a fresh backend instantiated from the roster entry
/// (device clocks and jitter sequences must not leak between points) and
/// an airfield advanced `rep` periods past the seed state, so averaging
/// covers more than one radar picture; Task 1 measures a single period's
/// tracking against a fresh radar picture, Tasks 2+3 a single
/// detection/resolution execution, matching how the paper reports
/// per-task times (averaged per execution).
pub fn measure_point(entry: &RosterEntry, task: Task, n: usize, seed: u64, reps: usize) -> f64 {
    measure_point_scan(entry, task, n, seed, reps, ScanMode::default())
}

/// [`measure_point`] with an explicit conflict-[`ScanMode`].
pub fn measure_point_scan(
    entry: &RosterEntry,
    task: Task,
    n: usize,
    seed: u64,
    reps: usize,
    scan: ScanMode,
) -> f64 {
    let mut total_ms = 0.0;
    // One shared baseline advanced incrementally: rep `r` measures against
    // the seed field after `r` periods of drift. (Replaying `r` periods
    // from scratch per rep — as earlier revisions did — is O(reps²) in
    // `end_period` calls for the identical per-rep field state.)
    let mut baseline = Airfield::new(
        n,
        AtmConfig {
            scan,
            ..AtmConfig::with_seed(seed)
        },
    );
    let cfg = baseline.config().clone();
    for rep in 0..reps.max(1) {
        if rep > 0 {
            baseline.end_period();
        }
        let mut backend = entry.instantiate();
        let mut field = baseline.clone();
        let d = match task {
            Task::Track => {
                let mut radars = field.generate_radar();
                backend.track_correlate(&mut field.aircraft, &mut radars, &cfg)
            }
            Task::DetectResolve => backend.detect_resolve(&mut field.aircraft, &cfg),
        };
        total_ms += d.as_millis_f64();
    }
    total_ms / reps.max(1) as f64
}

/// Sweep a roster of platforms over the configured aircraft counts,
/// serially on the calling thread.
pub fn sweep_roster(roster: &Roster, task: Task, cfg: &SweepConfig) -> Vec<Series> {
    sweep_roster_on(roster, task, cfg, &Harness::serial())
}

/// The order sweep points are claimed in: largest aircraft count first
/// (stable by point index within equal counts).
///
/// Sweep cost grows superlinearly in `n`, so FIFO claiming tail-serialises:
/// the largest points sit at the end of every platform's stripe and the
/// last worker to claim one runs it alone while the rest idle. Claiming
/// by descending `n` approximates LPT scheduling — the heavy points start
/// first and the cheap ones pack around them. Purely a wall-clock choice:
/// results are slotted by point index either way.
pub(crate) fn claim_order(entry_count: usize, ns: &[usize]) -> Vec<usize> {
    let per_entry = ns.len();
    let mut order: Vec<usize> = (0..entry_count * per_entry).collect();
    order.sort_by(|&a, &b| ns[b % per_entry].cmp(&ns[a % per_entry]).then(a.cmp(&b)));
    order
}

/// Sweep a roster of platforms over the configured aircraft counts,
/// fanning every `(platform, n)` point across the harness's workers
/// (largest `n` first — see [`claim_order`]).
///
/// Every point is independent (fresh backend and airfield per point), and
/// the harness slots results by index, so the returned series are
/// identical — element for element — to the serial sweep's.
pub fn sweep_roster_on(
    roster: &Roster,
    task: Task,
    cfg: &SweepConfig,
    harness: &Harness,
) -> Vec<Series> {
    sweep_roster_streamed(roster, task, cfg, harness, |_, _, _| {})
}

/// [`sweep_roster_on`] with a point observer: `on_point(entry, point, y_ms)`
/// fires the moment each `(platform, n)` measurement completes — entry is
/// the roster index, point the position in `cfg.ns` — so a streaming writer
/// can emit partial tables/JSON while the sweep is still running.
///
/// Points arrive in completion order (the largest-`n`-first claim order
/// serially, an interleaving of it in parallel); the observer is never
/// called concurrently with itself. The returned series are identical to
/// [`sweep_roster_on`]'s — streaming is output plumbing, not a result
/// change.
pub fn sweep_roster_streamed(
    roster: &Roster,
    task: Task,
    cfg: &SweepConfig,
    harness: &Harness,
    mut on_point: impl FnMut(usize, usize, f64) + Send,
) -> Vec<Series> {
    let entries = roster.entries();
    let per_entry = cfg.ns.len();
    let order = claim_order(entries.len(), &cfg.ns);
    let y = harness.run_ordered_observed(
        entries.len() * per_entry,
        &order,
        |k| {
            let entry = &entries[k / per_entry];
            let n = cfg.ns[k % per_entry];
            measure_point_scan(entry, task, n, cfg.seed, cfg.reps, cfg.scan)
        },
        |k, &y_ms| on_point(k / per_entry, k % per_entry, y_ms),
    );
    entries
        .iter()
        .enumerate()
        .map(|(i, entry)| Series {
            label: entry.label.to_owned(),
            x: cfg.ns.iter().map(|&n| n as f64).collect(),
            y_ms: y[i * per_entry..(i + 1) * per_entry].to_vec(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use atm_core::backends::PlatformId;

    fn titan() -> RosterEntry {
        *Roster::paper()
            .get(PlatformId::TitanXPascal)
            .expect("titan in paper roster")
    }

    #[test]
    fn rosters_have_the_papers_platforms() {
        let all = Roster::paper();
        assert_eq!(all.len(), 6);
        assert_eq!(all.entries()[0].label, "STARAN AP");
        let nv = Roster::nvidia();
        assert_eq!(nv.len(), 3);
        assert!(nv.entries().iter().all(|e| {
            e.label.contains("GeForce") || e.label.contains("GTX") || e.label.contains("Titan")
        }));
    }

    #[test]
    fn measured_points_are_positive_and_deterministic_for_modeled_backends() {
        let titan = titan();
        let a = measure_point(&titan, Task::Track, 400, 1, 1);
        let b = measure_point(&titan, Task::Track, 400, 1, 1);
        assert!(a > 0.0);
        assert_eq!(a, b);
    }

    #[test]
    fn sweep_produces_one_series_per_roster_entry() {
        let cfg = SweepConfig {
            ns: vec![200, 400],
            seed: 3,
            reps: 1,
            scan: ScanMode::default(),
        };
        let series = sweep_roster(&Roster::nvidia(), Task::DetectResolve, &cfg);
        assert_eq!(series.len(), 3);
        for s in &series {
            assert_eq!(s.x, vec![200.0, 400.0]);
            assert_eq!(s.y_ms.len(), 2);
            assert!(s.y_ms.iter().all(|&y| y > 0.0));
        }
    }

    #[test]
    fn parallel_sweep_is_identical_to_serial_sweep() {
        let cfg = SweepConfig {
            ns: vec![200, 400, 600],
            seed: 3,
            reps: 2,
            scan: ScanMode::default(),
        };
        let serial = sweep_roster(&Roster::paper(), Task::DetectResolve, &cfg);
        let parallel = sweep_roster_on(
            &Roster::paper(),
            Task::DetectResolve,
            &cfg,
            &Harness::new(4),
        );
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.label, p.label);
            assert_eq!(s.x, p.x);
            assert_eq!(s.y_ms, p.y_ms, "series {} diverged", s.label);
        }
    }

    #[test]
    fn scan_mode_does_not_change_measured_times() {
        let titan = titan();
        for task in [Task::Track, Task::DetectResolve] {
            let naive = measure_point_scan(&titan, task, 500, 7, 2, ScanMode::Naive);
            let grid = measure_point_scan(&titan, task, 500, 7, 2, ScanMode::Grid);
            assert_eq!(naive, grid, "task {task:?}");
        }
    }

    #[test]
    fn streamed_sweep_reports_every_point_and_matches_materialized() {
        let cfg = SweepConfig {
            ns: vec![200, 400],
            seed: 3,
            reps: 1,
            scan: ScanMode::default(),
        };
        let baseline = sweep_roster(&Roster::nvidia(), Task::DetectResolve, &cfg);
        for jobs in [1, 4] {
            let mut points: Vec<(usize, usize, f64)> = Vec::new();
            let series = sweep_roster_streamed(
                &Roster::nvidia(),
                Task::DetectResolve,
                &cfg,
                &Harness::new(jobs),
                |entry, point, y| points.push((entry, point, y)),
            );
            assert_eq!(series, baseline, "jobs={jobs}");
            for &(e, p, y) in &points {
                assert_eq!(y, baseline[e].y_ms[p], "jobs={jobs}");
            }
            let mut keys: Vec<(usize, usize)> = points.iter().map(|&(e, p, _)| (e, p)).collect();
            keys.sort_unstable();
            let expected: Vec<(usize, usize)> =
                (0..3).flat_map(|e| (0..2).map(move |p| (e, p))).collect();
            assert_eq!(keys, expected, "jobs={jobs}");
        }
    }

    #[test]
    fn sweep_points_are_claimed_largest_n_first() {
        // 2 platforms × ns [500, 1000, 2000] → point k maps to
        // n = ns[k % 3]; descending n with stable index tiebreak.
        let order = claim_order(2, &[500, 1_000, 2_000]);
        assert_eq!(order, vec![2, 5, 1, 4, 0, 3]);
        // Equal counts degrade to plain FIFO.
        assert_eq!(claim_order(2, &[7, 7]), vec![0, 1, 2, 3]);
    }

    #[test]
    fn multi_rep_mean_is_the_mean_over_advanced_fields() {
        // The warm-up rewrite must still give rep r the field advanced r
        // periods: the 2-rep mean equals the hand-computed mean of the seed
        // field and the once-advanced field, each on a fresh backend.
        let titan = titan();
        let two = measure_point(&titan, Task::DetectResolve, 300, 11, 2);

        let mut baseline = Airfield::new(300, AtmConfig::with_seed(11));
        let cfg = baseline.config().clone();
        let mut rep0 = baseline.clone();
        let d0 = titan.instantiate().detect_resolve(&mut rep0.aircraft, &cfg);
        baseline.end_period();
        let d1 = titan
            .instantiate()
            .detect_resolve(&mut baseline.aircraft, &cfg);
        let expected = (d0.as_millis_f64() + d1.as_millis_f64()) / 2.0;
        assert_eq!(two, expected);
    }

    #[test]
    fn times_increase_with_fleet_size() {
        let titan = titan();
        let small = measure_point(&titan, Task::DetectResolve, 200, 4, 1);
        let large = measure_point(&titan, Task::DetectResolve, 1_000, 4, 1);
        assert!(large > small, "{small} !< {large}");
    }
}
