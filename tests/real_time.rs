//! End-to-end hard-real-time behaviour: the paper's §6 claims as
//! integration tests over the full simulation stack.

use atm::prelude::*;

/// Both host-side conflict-scan implementations. Deadline behaviour is
/// simulated time, so every paper claim must hold — with identical miss
/// counts — under each of them.
const SCAN_MODES: [ScanMode; 2] = [ScanMode::Naive, ScanMode::Grid];

/// A simulation over the standard field with an explicit scan mode.
fn sim_with_scan(
    n: usize,
    seed: u64,
    scan: ScanMode,
    backend: Box<dyn AtmBackend>,
) -> AtmSimulation {
    let cfg = AtmConfig {
        scan,
        ..AtmConfig::with_seed(seed)
    };
    AtmSimulation::new(Airfield::new(n, cfg), backend)
}

#[test]
fn nvidia_devices_never_miss_within_the_evaluated_domain() {
    // The paper's headline: all three cards meet every deadline. The
    // evaluated domain here matches EXPERIMENTS.md (up to 8k aircraft);
    // the result must hold — identically — under every scan mode, since
    // deadline behaviour depends only on simulated time.
    for (name, make) in [
        ("9800gt", GpuBackend::geforce_9800_gt as fn() -> GpuBackend),
        ("880m", GpuBackend::gtx_880m),
        ("titan", GpuBackend::titan_x_pascal),
    ] {
        for scan in SCAN_MODES {
            let mut sim = sim_with_scan(4_000, 2018, scan, Box::new(make()));
            let out = sim.run(1);
            assert_eq!(
                out.report.total_misses(),
                0,
                "{name} missed deadlines at 4000 aircraft under {scan:?}:\n{}",
                out.report
            );
            assert_eq!(out.report.total_skips(), 0);
        }
    }
}

#[test]
fn ap_platforms_meet_deadlines_at_their_evaluated_loads() {
    for scan in SCAN_MODES {
        let mut staran = sim_with_scan(1_500, 2018, scan, Box::new(ApBackend::staran()));
        assert_eq!(staran.run(1).report.total_misses(), 0, "STARAN, {scan:?}");

        // ClearSpeed virtualizes beyond 192 PEs; the prior work evaluated
        // it at moderate loads where it held its deadlines.
        let mut cs = sim_with_scan(1_000, 2018, scan, Box::new(ApBackend::clearspeed()));
        assert_eq!(cs.run(1).report.total_misses(), 0, "ClearSpeed, {scan:?}");
    }
}

#[test]
fn xeon_baseline_misses_many_deadlines_at_scale() {
    // The qualitative claim holds per mode *and* the miss count is the
    // same number in every mode — the scan knob cannot leak into the
    // modeled schedule.
    let misses: Vec<u64> = SCAN_MODES
        .iter()
        .map(|&scan| {
            let mut sim = sim_with_scan(12_000, 2018, scan, Box::new(XeonModelBackend::new()));
            let out = sim.run(1);
            assert!(
                out.report.total_misses() >= 8,
                "the multi-core baseline must 'regularly miss a large number' \
                 at 12k under {scan:?}: {}",
                out.report
            );
            out.report.total_misses()
        })
        .collect();
    assert!(
        misses.windows(2).all(|w| w[0] == w[1]),
        "miss counts diverged across scan modes: {misses:?}"
    );
}

#[test]
fn deadline_misses_grow_with_load_on_the_xeon() {
    let misses_at = |n: usize| {
        let mut sim = AtmSimulation::with_field(n, 2018, Box::new(XeonModelBackend::new()));
        sim.run(1).report.total_misses()
    };
    let low = misses_at(1_000);
    let high = misses_at(12_000);
    assert!(
        low < high,
        "misses must grow with fleet size: {low} vs {high}"
    );
}

/// Deadline misses for one Xeon major cycle over a scenario airfield.
fn scenario_misses(scn: &Scenario, n: usize, scan: ScanMode) -> u64 {
    let cfg = AtmConfig {
        scan,
        ..AtmConfig::with_seed(2018)
    };
    let field = scn.airfield_with(n, &cfg);
    let mut sim = AtmSimulation::new(field, Box::new(XeonModelBackend::new()));
    sim.run(1).report.total_misses()
}

#[test]
fn scenario_misses_are_scan_mode_invariant() {
    // The scenario corpus feeds the same schedule contract as the uniform
    // field: per scenario, the Xeon's miss count is one number no matter
    // which host-side scan produced the conflicts. n sits just past the
    // miss onset of the densest shapes so the invariant is checked on a
    // nonzero count for most of the catalog.
    for scn in Scenario::catalog() {
        let misses: Vec<u64> = SCAN_MODES
            .iter()
            .map(|&scan| scenario_misses(&scn, 1_600, scan))
            .collect();
        assert!(
            misses.windows(2).all(|w| w[0] == w[1]),
            "{}: miss counts diverged across scan modes: {misses:?}",
            scn.slug()
        );
    }
}

#[test]
fn hotspot_surge_misses_deadlines_first_as_the_fleet_grows() {
    // The shard-hotspot surge packs most of the fleet into one dense
    // corner, so its conflict workload — and with it the Xeon's modeled
    // Tasks 2+3 time — outruns every other traffic shape: on this ladder
    // it must be the first scenario (jointly or alone) to miss a
    // deadline. The lossy radar-dropout shape sits at the other extreme
    // and must not have missed yet when the hotspot starts missing.
    const LADDER: [usize; 4] = [1_000, 1_200, 1_600, 2_000];
    let onset = |scn: &Scenario| {
        LADDER
            .iter()
            .position(|&n| scenario_misses(scn, n, ScanMode::Grid) > 0)
            .unwrap_or(LADDER.len())
    };
    let hotspot = Scenario::by_slug("hotspot").expect("hotspot in catalog");
    let hotspot_onset = onset(&hotspot);
    assert!(
        hotspot_onset < LADDER.len(),
        "the hotspot surge must miss somewhere on the ladder {LADDER:?}"
    );
    for scn in Scenario::catalog() {
        assert!(
            hotspot_onset <= onset(&scn),
            "{} started missing deadlines before the hotspot surge",
            scn.slug()
        );
    }
    let dropout = Scenario::by_slug("radar-dropout").expect("radar-dropout in catalog");
    assert!(
        onset(&dropout) > hotspot_onset,
        "the sparse radar-dropout shape should outlast the hotspot surge"
    );
}

#[test]
fn periods_never_start_early() {
    // §4.2: leftover slack is waited out. Simulated time after k major
    // cycles is exactly k * 8 s regardless of how little work there was.
    let mut sim = AtmSimulation::with_field(100, 1, Box::new(GpuBackend::titan_x_pascal()));
    let out = sim.run(3);
    let total_slack: SimDuration = out.report.periods().iter().map(|p| p.slack).sum();
    let total_used: SimDuration = out.report.periods().iter().map(|p| p.used).sum();
    assert_eq!(total_slack + total_used, SimDuration::from_secs(24));
}

#[test]
fn task_schedule_follows_the_paper() {
    // Task 1 every half-second, Tasks 2+3 only in the 16th period.
    let mut sim = AtmSimulation::with_field(200, 9, Box::new(SequentialBackend::new()));
    let out = sim.run(2);
    assert_eq!(out.report.task_stats("Task1").unwrap().count, 32);
    assert_eq!(out.report.task_stats("Task2+3").unwrap().count, 2);
    // Tasks 2+3 executions land in period 15 only: check the per-period
    // booked time jumps there.
    for p in out.report.periods() {
        if p.period != 15 {
            assert!(
                !p.missed,
                "only the detection period could ever be tight here"
            );
        }
    }
}

#[test]
fn repeated_runs_on_simulated_hardware_are_bit_identical() {
    // §6.2: "we would get the exact same timings again and again".
    let run = || {
        let mut sim = AtmSimulation::with_field(600, 77, Box::new(GpuBackend::gtx_880m()));
        let out = sim.run(1);
        (
            out.mean_task1().as_picos(),
            out.mean_task23().as_picos(),
            out.report.utilization().to_bits(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn utilization_grows_with_fleet_size() {
    let util = |n: usize| {
        let mut sim = AtmSimulation::with_field(n, 3, Box::new(GpuBackend::geforce_9800_gt()));
        sim.run(1).report.utilization()
    };
    let small = util(500);
    let large = util(4_000);
    assert!(large > small, "{small} !< {large}");
}
