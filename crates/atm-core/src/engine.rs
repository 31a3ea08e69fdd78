//! The resumable ATM engine: the batch pipeline split into steppable
//! sessions.
//!
//! [`AtmEngine`] owns the long-lived pieces of a simulation — the
//! [`Airfield`] (sharded through `cfg.shards`, see [`crate::shard`]), the
//! backend with its persistent [`IncrementalEngine`], the cyclic executive
//! and its cumulative report — and exposes the two verbs a service layer
//! needs:
//!
//! * [`AtmEngine::apply_updates`] — ingest a batch of external
//!   [`AircraftUpdate`]s between major cycles, atomically with the
//!   airfield's ingest bookkeeping, and get an [`IngestReceipt`];
//! * [`AtmEngine::step_major_cycle`] — run exactly one 8-second major
//!   cycle (16 periods: radar → Task 1 every period, Tasks 2+3 in the
//!   final period, terrain on its schedule) and get a [`CycleReport`] of
//!   what changed: conflicts, resolutions, deadline misses, telemetry
//!   deltas and the post-cycle fleet hash.
//!
//! The batch entry point [`crate::sim::AtmSimulation`] is a trivial
//! wrapper — `begin_run()` then `step_major_cycle()` in a loop — so the
//! stepwise path *is* the batch path: ingesting a recorded update log
//! between the same cycle boundaries reproduces a live session's
//! `CycleReport`s and fleet hashes byte for byte (DESIGN.md §14).
//!
//! [`IncrementalEngine`]: crate::detect::IncrementalEngine

use crate::airfield::{AircraftUpdate, Airfield, IngestReceipt};
use crate::backends::AtmBackend;
use crate::scenario::fleet_hash;
use crate::sim::{SimOutcome, TerrainSchedule};
use crate::types::Aircraft;
use rt_sched::{CyclicExecutive, ExecutiveReport, MajorCycleSpec, TaskExecution};
use sim_clock::SimDuration;
use telemetry::{JsonValue, Recorder};

/// Everything one major cycle changed, in deterministic, serializable
/// form. Equal-seed sessions fed identical ingest batches at identical
/// cycle boundaries produce byte-identical [`CycleReport::to_json`]
/// documents on modeled backends.
#[derive(Clone, Debug, PartialEq)]
pub struct CycleReport {
    /// Zero-based index of the completed major cycle since `begin_run`.
    pub cycle: u64,
    /// Aircraft flagged in conflict after the cycle's detect pass.
    pub conflicts: u64,
    /// Aircraft whose velocity was rewritten by this cycle's resolution
    /// pass (Task 3 commits).
    pub resolutions: u64,
    /// Deadline misses booked during this cycle.
    pub misses: u64,
    /// Task executions skipped after a miss during this cycle.
    pub skips: u64,
    /// Simulated time Task 1 consumed this cycle.
    pub task1_total: SimDuration,
    /// Simulated time Tasks 2+3 consumed this cycle.
    pub task23_total: SimDuration,
    /// Simulated time the terrain task consumed this cycle (zero without a
    /// schedule).
    pub terrain_total: SimDuration,
    /// Ingest batches applied since the previous cycle report.
    pub ingest_batches: u64,
    /// Individual updates those batches applied.
    pub ingest_applied: u64,
    /// FNV-1a hash over the full fleet state after the cycle.
    pub fleet_hash: u64,
    /// Telemetry counter deltas across the cycle, in name order (empty
    /// when the recorder is disabled).
    pub telemetry: Vec<(String, u64)>,
}

impl CycleReport {
    /// Serialize with a fixed key order; durations are exact integer
    /// picoseconds and the fleet hash is fixed-width hex, so the compact
    /// form is byte-stable.
    pub fn to_json(&self) -> JsonValue {
        let telemetry = self
            .telemetry
            .iter()
            .fold(JsonValue::obj(), |acc, (k, v)| acc.set(k.as_str(), *v));
        JsonValue::obj()
            .set("cycle", self.cycle)
            .set("conflicts", self.conflicts)
            .set("resolutions", self.resolutions)
            .set("misses", self.misses)
            .set("skips", self.skips)
            .set("task1_ps", self.task1_total.as_picos())
            .set("task23_ps", self.task23_total.as_picos())
            .set("terrain_ps", self.terrain_total.as_picos())
            .set("ingest_batches", self.ingest_batches)
            .set("ingest_applied", self.ingest_applied)
            .set("fleet_hash", format!("{:016x}", self.fleet_hash))
            .set("telemetry", telemetry)
    }
}

/// A resumable simulation session; see the module docs.
pub struct AtmEngine {
    field: Airfield,
    backend: Box<dyn AtmBackend>,
    terrain: Option<TerrainSchedule>,
    recorder: Recorder,
    exec: CyclicExecutive,
    report: ExecutiveReport,
    setup_time: SimDuration,
    started: bool,
    cycle: usize,
    pending_batches: u64,
    pending_applied: u64,
}

impl AtmEngine {
    /// Wire an airfield to a backend. Setup (the backend's one-time
    /// database upload) is deferred to [`AtmEngine::begin_run`], which the
    /// first [`AtmEngine::step_major_cycle`] performs implicitly.
    pub fn new(field: Airfield, backend: Box<dyn AtmBackend>) -> AtmEngine {
        let cfg = field.config();
        let spec = MajorCycleSpec {
            period: cfg.period,
            periods_per_major: cfg.periods_per_major,
        };
        let exec = CyclicExecutive::new(spec);
        let report = exec.new_report();
        AtmEngine {
            field,
            backend,
            terrain: None,
            recorder: Recorder::disabled(),
            exec,
            report,
            setup_time: SimDuration::ZERO,
            started: false,
            cycle: 0,
            pending_batches: 0,
            pending_applied: 0,
        }
    }

    /// Enable the Task 4 terrain-avoidance schedule.
    pub fn with_terrain(mut self, schedule: TerrainSchedule) -> AtmEngine {
        assert!(
            schedule.every > 0,
            "terrain schedule period must be positive"
        );
        self.terrain = Some(schedule);
        self
    }

    /// Attach a telemetry recorder to the executive and the backend's
    /// substrate.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.backend.set_recorder(recorder.clone());
        self.exec.set_recorder(recorder.clone());
        self.recorder = recorder;
    }

    /// (Re)start a session: run backend setup against the current fleet
    /// and reset the executive, its report and the cycle counter. The
    /// airfield itself is *not* reset — a run resumes from wherever the
    /// fleet is. Returns the setup time.
    pub fn begin_run(&mut self) -> SimDuration {
        self.setup_time = self.backend.on_setup(&self.field.aircraft);
        let cfg = self.field.config();
        let spec = MajorCycleSpec {
            period: cfg.period,
            periods_per_major: cfg.periods_per_major,
        };
        self.exec = CyclicExecutive::new(spec);
        self.exec.set_recorder(self.recorder.clone());
        self.report = self.exec.new_report();
        self.cycle = 0;
        self.started = true;
        self.setup_time
    }

    /// Ingest one batch of external updates (see
    /// [`Airfield::apply_updates`]). Safe at any cycle boundary; the
    /// backend's persistent incremental grid picks the mutations up on its
    /// next rescan via its scan-key diff.
    pub fn apply_updates(&mut self, updates: &[AircraftUpdate]) -> IngestReceipt {
        let receipt = self.field.apply_updates(updates);
        self.pending_batches += 1;
        self.pending_applied += receipt.applied as u64;
        receipt
    }

    /// Run exactly one major cycle (16 half-second periods) and report
    /// what changed. Implicitly performs [`AtmEngine::begin_run`] on a
    /// fresh engine.
    pub fn step_major_cycle(&mut self) -> CycleReport {
        if !self.started {
            self.begin_run();
        }
        let cfg = self.field.config().clone();
        let misses_before = self.report.total_misses();
        let skips_before = self.report.total_skips();
        let task1_before = task_total(&self.report, "Task1");
        let task23_before = task_total(&self.report, "Task2+3");
        let terrain_before = task_total(&self.report, "Terrain");
        let counters_before = self.recorder.counters_snapshot();

        let mut resolutions = 0u64;
        for period in 0..cfg.periods_per_major {
            // Radar generation precedes the period's tasks and is not an
            // ATM task (paper §4.2) — it is not booked against the deadline.
            let mut radars = self.field.generate_radar();
            let t1 = self
                .backend
                .track_correlate(&mut self.field.aircraft, &mut radars, &cfg);
            let mut tasks = vec![TaskExecution::new("Task1", t1)];
            if let Some(sched) = &self.terrain {
                if period % sched.every == sched.phase % sched.every {
                    let t4 = self.backend.terrain_avoidance(
                        &mut self.field.aircraft,
                        &sched.grid,
                        &sched.tcfg,
                    );
                    tasks.push(TaskExecution::new("Terrain", t4));
                }
            }
            if period == cfg.periods_per_major - 1 {
                let vel_before: Vec<(u32, u32)> = self
                    .field
                    .aircraft
                    .iter()
                    .map(|a| (a.dx.to_bits(), a.dy.to_bits()))
                    .collect();
                let t23 = self.backend.detect_resolve(&mut self.field.aircraft, &cfg);
                resolutions = self
                    .field
                    .aircraft
                    .iter()
                    .zip(&vel_before)
                    .filter(|(a, &(dx, dy))| a.dx.to_bits() != dx || a.dy.to_bits() != dy)
                    .count() as u64;
                tasks.push(TaskExecution::new("Task2+3", t23));
            }
            self.field.end_period();
            self.exec
                .book_period(&mut self.report, self.cycle, period, &tasks);
        }

        let conflicts = self.field.aircraft.iter().filter(|a| a.col).count() as u64;
        let report = CycleReport {
            cycle: self.cycle as u64,
            conflicts,
            resolutions,
            misses: self.report.total_misses() - misses_before,
            skips: self.report.total_skips() - skips_before,
            task1_total: task_total(&self.report, "Task1") - task1_before,
            task23_total: task_total(&self.report, "Task2+3") - task23_before,
            terrain_total: task_total(&self.report, "Terrain") - terrain_before,
            ingest_batches: std::mem::take(&mut self.pending_batches),
            ingest_applied: std::mem::take(&mut self.pending_applied),
            fleet_hash: fleet_hash(&self.field.aircraft),
            telemetry: counter_deltas(&counters_before, &self.recorder.counters_snapshot()),
        };
        self.cycle += 1;
        report
    }

    /// The airfield (inspect aircraft and ingest state between cycles).
    pub fn field(&self) -> &Airfield {
        &self.field
    }

    /// Direct access to the aircraft.
    pub fn aircraft(&self) -> &[Aircraft] {
        &self.field.aircraft
    }

    /// Major cycles stepped since the last `begin_run`.
    pub fn cycles_stepped(&self) -> usize {
        self.cycle
    }

    /// The executive's cumulative report for the current run.
    pub fn report(&self) -> &ExecutiveReport {
        &self.report
    }

    /// The backend's display name.
    pub fn backend_name(&self) -> String {
        self.backend.info().name.to_owned()
    }

    /// Batch outcome of the run so far (what [`crate::sim::AtmSimulation`]
    /// returns).
    pub fn outcome(&self) -> SimOutcome {
        SimOutcome {
            backend_name: self.backend_name(),
            setup_time: self.setup_time,
            report: self.report.clone(),
        }
    }
}

/// Total booked time of one task name (zero if it never ran).
fn task_total(report: &ExecutiveReport, name: &str) -> SimDuration {
    report
        .task_stats(name)
        .map(|s| s.total)
        .unwrap_or(SimDuration::ZERO)
}

/// Per-counter deltas between two name-ordered snapshots, in name order.
/// Counters are monotone, so every delta is `after − before` with absent
/// names reading zero.
fn counter_deltas(before: &[(String, u64)], after: &[(String, u64)]) -> Vec<(String, u64)> {
    let mut deltas = Vec::new();
    let mut b = before.iter().peekable();
    for (name, v_after) in after {
        let mut v_before = 0;
        while let Some((bn, bv)) = b.peek() {
            if bn < name {
                b.next();
            } else {
                if bn == name {
                    v_before = *bv;
                    b.next();
                }
                break;
            }
        }
        if *v_after != v_before {
            deltas.push((name.clone(), v_after - v_before));
        }
    }
    deltas
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::{GpuBackend, SequentialBackend};
    use crate::config::{AtmConfig, ScanMode};

    #[test]
    fn stepped_cycles_match_the_batch_run() {
        let run_batch = || {
            let mut sim = crate::sim::AtmSimulation::with_field(
                400,
                9,
                Box::new(GpuBackend::titan_x_pascal()),
            );
            let out = sim.run(3);
            (out.report.total_misses(), sim.aircraft().to_vec())
        };
        let mut engine = AtmEngine::new(
            Airfield::with_seed(400, 9),
            Box::new(GpuBackend::titan_x_pascal()),
        );
        engine.begin_run();
        let mut misses = 0;
        for c in 0..3 {
            let rep = engine.step_major_cycle();
            assert_eq!(rep.cycle, c);
            misses += rep.misses;
        }
        let (batch_misses, batch_fleet) = run_batch();
        assert_eq!(misses, batch_misses);
        assert_eq!(engine.aircraft(), &batch_fleet[..], "fleet bytes diverged");
    }

    #[test]
    fn cycle_report_json_is_byte_stable() {
        let step = || {
            let mut engine = AtmEngine::new(
                Airfield::with_seed(300, 11),
                Box::new(GpuBackend::titan_x_pascal()),
            );
            engine.step_major_cycle().to_json().to_compact()
        };
        let a = step();
        assert_eq!(a, step());
        assert!(a.starts_with("{\"cycle\":0,"), "{a}");
        assert!(a.contains("\"fleet_hash\":\""), "{a}");
    }

    #[test]
    fn ingest_counts_land_in_the_next_cycle_report() {
        let mut engine = AtmEngine::new(
            Airfield::with_seed(50, 13),
            Box::new(SequentialBackend::new()),
        );
        let r = engine.apply_updates(&[
            AircraftUpdate {
                id: 3,
                x: 1.0,
                y: 2.0,
                alt: 11_000.0,
                dx: 0.01,
                dy: 0.02,
            },
            AircraftUpdate {
                id: 999,
                x: 0.0,
                y: 0.0,
                alt: 0.0,
                dx: 0.0,
                dy: 0.0,
            },
        ]);
        assert_eq!(r.seq, 1);
        assert_eq!(r.applied, 1);
        assert_eq!(r.unknown, 1);
        let rep = engine.step_major_cycle();
        assert_eq!(rep.ingest_batches, 1);
        assert_eq!(rep.ingest_applied, 1);
        let rep = engine.step_major_cycle();
        assert_eq!(rep.ingest_batches, 0, "counts must not carry over");
    }

    #[test]
    fn telemetry_deltas_cover_each_cycle_exactly() {
        let mut engine = AtmEngine::new(
            Airfield::with_seed(200, 17),
            Box::new(GpuBackend::titan_x_pascal()),
        );
        engine.set_recorder(Recorder::enabled());
        let a = engine.step_major_cycle();
        let b = engine.step_major_cycle();
        let periods = |rep: &CycleReport| {
            rep.telemetry
                .iter()
                .find(|(k, _)| k == "rt.periods")
                .map(|(_, v)| *v)
        };
        assert_eq!(periods(&a), Some(16));
        assert_eq!(periods(&b), Some(16), "second cycle must delta, not total");
    }

    #[test]
    fn ingested_updates_steer_the_grid_engine_correctly() {
        // Adversarial check for the ingest path: external mutations through
        // `apply_updates` (including cell-crossing teleports) must leave the
        // persistent grid engine bit-identical to a from-scratch naive scan
        // of the same fleet, across several ingest/step rounds.
        let run = |scan: ScanMode| {
            let mut cfg = AtmConfig::with_seed(23);
            cfg.scan = scan;
            let mut engine =
                AtmEngine::new(Airfield::new(350, cfg), Box::new(SequentialBackend::new()));
            let mut out = Vec::new();
            for round in 0u32..4 {
                // Teleport a spread of aircraft far across the grid, shift
                // some altitudes between bands, and flip some velocities.
                let updates: Vec<AircraftUpdate> = (0..30u32)
                    .map(|k| {
                        let id = (k * 11 + round * 7) % 350;
                        let s = (id as f32) * 0.37 + round as f32;
                        AircraftUpdate {
                            id,
                            x: (s * 53.0) % 127.0 - 63.0,
                            y: (s * 29.0) % 127.0 - 63.0,
                            alt: 2_000.0 + ((id * 977 + round * 131) % 36) as f32 * 1_000.0,
                            dx: 0.03 - (id % 5) as f32 * 0.01,
                            dy: (id % 7) as f32 * 0.01 - 0.03,
                        }
                    })
                    .collect();
                engine.apply_updates(&updates);
                let rep = engine.step_major_cycle();
                out.push((rep.fleet_hash, rep.conflicts, rep.resolutions));
            }
            out
        };
        assert_eq!(
            run(ScanMode::Grid),
            run(ScanMode::Naive),
            "persistent grid engine diverged from naive scans under ingest"
        );
    }
}
