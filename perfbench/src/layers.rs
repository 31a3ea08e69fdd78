//! The per-layer profile a traced run takes of its workload's engine.
//!
//! Every layer is timed from outside, around calls into its public
//! functions:
//!
//! * a traced mirror of `AtmEngine::step_major_cycle`, built from the
//!   public calls it makes in the same order, records the `airfield`,
//!   `track` and `detect` spans of each cycle; `engine.self_ms` is the
//!   cycle minus those spans;
//! * a reference pass over the same fleet (`track::track_correlate`,
//!   `ScanIndex`, `detect_resolve_all`) yields the exact work counts and
//!   times index build and candidate enumeration, and probes the modeled
//!   Titan backend against the sequential one on identical clones;
//! * `proto` and `airfield.apply_updates` probes time those calls over
//!   the run's own lines and batches.

use crate::inputs::{cycle_event_line, request_line, BatchGen};
use crate::spans::{ms, SpanLog};
use crate::stats::{median, Tally};
use atm_core::backends::{GpuBackend, SequentialBackend};
use atm_core::detect::{detect_resolve_all, ScanIndex};
use atm_core::engine::CycleReport;
use atm_core::{fleet_hash, track, AircraftUpdate, Airfield, AtmBackend};
use atm_server::proto::{updates_from_json, updates_to_json};
use atm_server::ServerSpec;
use rt_sched::{CyclicExecutive, ExecutiveReport, MajorCycleSpec, TaskExecution};
use sim_clock::NullSink;
use std::hint::black_box;
use std::time::{Duration, Instant};
use telemetry::parse_json;

/// Share of every traced cycle its named child spans must cover.
const MIN_COVERAGE: f64 = 0.95;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// The outputs of one major cycle that every correct path agrees on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CycleOutput {
    pub fleet_hash: u64,
    pub conflicts: u64,
    pub resolutions: u64,
}

impl From<&CycleReport> for CycleOutput {
    fn from(r: &CycleReport) -> CycleOutput {
        CycleOutput {
            fleet_hash: r.fleet_hash,
            conflicts: r.conflicts,
            resolutions: r.resolutions,
        }
    }
}

/// Compare two per-cycle output sequences, one tally entry per cycle.
pub fn check_cycles(what: &str, got: &[CycleOutput], want: &[CycleOutput], tally: &mut Tally) {
    for (c, want) in want.iter().enumerate() {
        let got = got.get(c);
        tally.check(got == Some(want), || {
            format!("{what}: cycle {c} gave {got:?}, reference {want:?}")
        });
    }
}

/// Velocity bit patterns, to count the aircraft a resolution pass rewrote.
fn velocities(field: &Airfield) -> Vec<(u32, u32)> {
    field
        .aircraft
        .iter()
        .map(|a| (a.dx.to_bits(), a.dy.to_bits()))
        .collect()
}

fn rewritten(field: &Airfield, before: &[(u32, u32)]) -> u64 {
    velocities(field)
        .iter()
        .zip(before)
        .filter(|(a, b)| a != b)
        .count() as u64
}

fn cycle_output(field: &Airfield, resolutions: u64) -> CycleOutput {
    CycleOutput {
        fleet_hash: fleet_hash(&field.aircraft),
        conflicts: field.aircraft.iter().filter(|a| a.col).count() as u64,
        resolutions,
    }
}

/// `AtmEngine::step_major_cycle` rebuilt from the public calls it makes,
/// in the same order, with a span around each layer's call.
pub struct Mirror {
    field: Airfield,
    backend: Box<dyn AtmBackend>,
    exec: CyclicExecutive,
    report: ExecutiveReport,
    cycle: usize,
}

impl Mirror {
    /// The engine `spec` describes, set up as `AtmEngine::begin_run` does.
    pub fn new(spec: &ServerSpec) -> Result<Mirror, String> {
        let field = spec.build_airfield()?;
        let mut backend = spec.build_backend()?;
        backend.on_setup(&field.aircraft);
        let cfg = field.config();
        let exec = CyclicExecutive::new(MajorCycleSpec {
            period: cfg.period,
            periods_per_major: cfg.periods_per_major,
        });
        let report = exec.new_report();
        Ok(Mirror {
            field,
            backend,
            exec,
            report,
            cycle: 0,
        })
    }

    /// Step one major cycle; returns its outputs and its `engine.cycle`
    /// span.
    pub fn step(&mut self, log: &mut SpanLog) -> (CycleOutput, usize) {
        let run = self.cycle as u64;
        let root = log.open("engine.cycle", None, run);
        let cfg = self.field.config().clone();
        let mut resolutions = 0;
        for period in 0..cfg.periods_per_major {
            let s = log.open("airfield.radar", Some(root), run);
            let mut radars = self.field.generate_radar();
            log.close(s);
            let s = log.open("track.correlate", Some(root), run);
            let t1 = self
                .backend
                .track_correlate(&mut self.field.aircraft, &mut radars, &cfg);
            log.close(s);
            let mut tasks = vec![TaskExecution::new("Task1", t1)];
            if period == cfg.periods_per_major - 1 {
                let before = velocities(&self.field);
                let s = log.open("detect.resolve", Some(root), run);
                let t23 = self.backend.detect_resolve(&mut self.field.aircraft, &cfg);
                log.close(s);
                resolutions = rewritten(&self.field, &before);
                tasks.push(TaskExecution::new("Task2+3", t23));
            }
            let s = log.open("airfield.end_period", Some(root), run);
            self.field.end_period();
            log.close(s);
            self.exec
                .book_period(&mut self.report, self.cycle, period, &tasks);
        }
        let out = cycle_output(&self.field, resolutions);
        log.close(root);
        self.cycle += 1;
        (out, root)
    }
}

/// Exact work counts of the reference pass: they depend only on the
/// inputs, so two runs with one seed must repeat them exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub box_tests: u64,
    pub passes_run: u64,
    pub pair_checks: u64,
    pub rotations: u64,
    pub critical_conflicts: u64,
}

/// Timings the reference pass probes at each cycle's detect point and on
/// the cycle's first Task 1 period.
#[derive(Default)]
struct Probes {
    index_build_ms: Vec<f64>,
    enumerate_ms: Vec<f64>,
    gpu_track_ms: Vec<f64>,
    gpu_detect_ms: Vec<f64>,
    gpu_agree: Tally,
}

/// Wall-clock of `f`, in milliseconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, ms(t.elapsed()))
}

/// Titan call minus sequential call on identical clones, in milliseconds;
/// `call` prepares its clone, times only the backend call and returns the
/// fleet it left, and the two fleets must agree.
fn gpu_overhead(
    what: &str,
    mut call: impl FnMut(&mut dyn AtmBackend) -> (Vec<atm_core::Aircraft>, f64),
    tally: &mut Tally,
) -> f64 {
    let (a, titan_ms) = call(&mut GpuBackend::titan_x_pascal());
    let (b, seq_ms) = call(&mut SequentialBackend::new());
    tally.check(fleet_hash(&a) == fleet_hash(&b), || {
        format!("gpu_sim: Titan {what} disagrees with the sequential backend")
    });
    titan_ms - seq_ms
}

/// Step `cycles` major cycles of `spec`'s fleet through the reference
/// routines, counting work; with `probe`, time the index and enumeration
/// and the Titan overheads on the way.
fn reference_pass(
    spec: &ServerSpec,
    cycles: usize,
    probe: bool,
) -> Result<(Counts, Vec<CycleOutput>, Probes), String> {
    let mut field = spec.build_airfield()?;
    let cfg = field.config().clone();
    let n = field.len();
    let mut counts = Counts::default();
    let mut outputs = Vec::with_capacity(cycles);
    let mut probes = Probes::default();
    for _ in 0..cycles {
        let mut resolutions = 0;
        for period in 0..cfg.periods_per_major {
            let mut radars = field.generate_radar();
            if probe && period == 0 {
                let (ac, rd) = (&field.aircraft, &radars);
                let d = gpu_overhead(
                    "Task 1",
                    |b| {
                        let (mut a, mut r) = (ac.clone(), rd.clone());
                        b.on_setup(&a);
                        let t = timed(|| b.track_correlate(&mut a, &mut r, &cfg)).1;
                        (a, t)
                    },
                    &mut probes.gpu_agree,
                );
                probes.gpu_track_ms.push(d);
            }
            let st = track::track_correlate(&mut field.aircraft, &mut radars, &cfg, &mut NullSink);
            counts.box_tests += st.box_tests;
            counts.passes_run += u64::from(st.passes_run);
            if period == cfg.periods_per_major - 1 {
                if probe {
                    let (index, build_ms) = timed(|| ScanIndex::for_config(&field.aircraft, &cfg));
                    let (total, enum_ms) = timed(|| {
                        (0..n)
                            .map(|i| index.candidates(i, &field.aircraft[i], n).count())
                            .sum::<usize>()
                    });
                    black_box(total);
                    probes.index_build_ms.push(build_ms);
                    probes.enumerate_ms.push(enum_ms);
                    let ac = &field.aircraft;
                    let d = gpu_overhead(
                        "Tasks 2+3",
                        |b| {
                            let mut a = ac.clone();
                            b.on_setup(&a);
                            let t = timed(|| b.detect_resolve(&mut a, &cfg)).1;
                            (a, t)
                        },
                        &mut probes.gpu_agree,
                    );
                    probes.gpu_detect_ms.push(d);
                }
                let before = velocities(&field);
                let ds = detect_resolve_all(&mut field.aircraft, &cfg, &mut NullSink);
                resolutions = rewritten(&field, &before);
                counts.pair_checks += ds.pair_checks;
                counts.rotations += ds.rotations;
                counts.critical_conflicts += ds.critical_conflicts;
            }
            field.end_period();
        }
        outputs.push(cycle_output(&field, resolutions));
    }
    Ok((counts, outputs, probes))
}

/// Per-operation microseconds of `op` over `items`, repeated until at
/// least `budget` has passed so short operations time steadily.
fn per_op_us<T>(items: &[T], budget: Duration, mut op: impl FnMut(&T)) -> f64 {
    let start = Instant::now();
    let mut ops = 0usize;
    while ops == 0 || start.elapsed() < budget {
        for item in items {
            op(item);
        }
        ops += items.len();
    }
    start.elapsed().as_secs_f64() * 1e6 / ops as f64
}

/// `proto.*`: parse the request lines, decode their update batches, and
/// encode the batches and the cycle reports, in microseconds per line.
pub fn proto_metrics(lines: &[String], reports: &[CycleReport], tally: &mut Tally) -> Vec<Metric> {
    let budget = Duration::from_millis(50);
    let parsed: Vec<_> = lines.iter().filter_map(|l| parse_json(l).ok()).collect();
    tally.check(parsed.len() == lines.len(), || {
        "proto: a request line failed to parse".into()
    });
    let batches: Vec<Vec<AircraftUpdate>> = parsed
        .iter()
        .filter_map(|v| updates_from_json(v.get("updates")?).ok())
        .collect();
    tally.check(batches.len() == parsed.len(), || {
        "proto: a batch failed to decode".into()
    });
    tally.check(
        batches
            .iter()
            .zip(lines)
            .all(|(b, l)| request_line("ingest", b) == *l || request_line("echo", b) == *l),
        || "proto: a decoded batch does not re-encode to its line".into(),
    );
    let parse_us = per_op_us(lines, budget, |l| {
        black_box(parse_json(l).ok());
    });
    let decode_us = per_op_us(&parsed, budget, |v| {
        black_box(v.get("updates").map(updates_from_json));
    });
    let encode_batches_us = per_op_us(&batches, budget, |b| {
        black_box(updates_to_json(b).to_compact());
    });
    let encode_reports_us = per_op_us(reports, budget, |r| {
        black_box(cycle_event_line(r));
    });
    let lines_encoded = batches.len() + reports.len();
    let encode_us = (encode_batches_us * batches.len() as f64
        + encode_reports_us * reports.len() as f64)
        / lines_encoded.max(1) as f64;
    vec![
        Metric::new("proto.parse_us", parse_us, "us", lines.len()),
        Metric::new("proto.decode_us", decode_us, "us", parsed.len()),
        Metric::new("proto.encode_us", encode_us, "us", lines_encoded),
    ]
}

/// `airfield.apply_updates_ms`: median `Airfield::apply_updates` of the
/// run's batches, applied in order onto a fresh copy of the fleet.
pub fn apply_updates_metric(
    spec: &ServerSpec,
    batches: &[Vec<AircraftUpdate>],
) -> Result<Metric, String> {
    let mut field = spec.build_airfield()?;
    let samples: Vec<f64> = batches
        .iter()
        .map(|b| timed(|| black_box(field.apply_updates(b))).1)
        .collect();
    Ok(Metric::new(
        "airfield.apply_updates_ms",
        median(&samples).unwrap_or(0.0),
        "ms",
        samples.len(),
    ))
}

/// Seeded ingest batches for the probes of workloads without a session.
pub fn probe_batches(seed: u64, n: usize, count: usize) -> Vec<Vec<AircraftUpdate>> {
    let mut gen = BatchGen::new(seed, n);
    (0..count).map(|_| gen.next_batch()).collect()
}

/// The engine part of a traced run.
pub struct EngineProfile {
    pub metrics: Vec<Metric>,
    pub spans: SpanLog,
    pub counts: Counts,
    /// Reports of the untraced engine, for the `proto` probe.
    pub reports: Vec<CycleReport>,
}

/// Profile `spec`'s engine over `warm` untimed and `cycles` timed major
/// cycles: an untraced `AtmEngine`, the traced mirror and two reference
/// passes must agree cycle by cycle, and the two passes' counts exactly.
pub fn profile_engine(
    spec: &ServerSpec,
    warm: usize,
    cycles: usize,
    tally: &mut Tally,
) -> Result<EngineProfile, String> {
    let total = warm + cycles;

    let mut engine = spec.build_engine()?;
    engine.begin_run();
    let mut untraced_ms = Vec::new();
    let mut reports = Vec::with_capacity(total);
    for c in 0..total {
        let (rep, t) = timed(|| engine.step_major_cycle());
        if c >= warm {
            untraced_ms.push(t);
        }
        reports.push(rep);
    }
    let engine_out: Vec<CycleOutput> = reports.iter().map(CycleOutput::from).collect();
    drop(engine);

    let mut spans = SpanLog::new();
    let mut mirror = Mirror::new(spec)?;
    let mut mirror_out = Vec::with_capacity(total);
    let mut roots = Vec::with_capacity(cycles);
    for c in 0..total {
        let (out, root) = mirror.step(&mut spans);
        mirror_out.push(out);
        if c >= warm {
            roots.push(root);
        }
    }
    drop(mirror);
    check_cycles(
        "traced mirror vs AtmEngine",
        &mirror_out,
        &engine_out,
        tally,
    );

    let (counts, ref_out, probes) = reference_pass(spec, total, true)?;
    check_cycles("AtmEngine vs reference pass", &engine_out, &ref_out, tally);
    let (again, _, _) = reference_pass(spec, total, false)?;
    tally.check(again == counts, || {
        format!("benchmark defect: work counts drifted between passes: {counts:?} vs {again:?}")
    });
    tally.absorb(probes.gpu_agree);

    let per_cycle =
        |f: &dyn Fn(usize) -> f64| -> Vec<f64> { roots.iter().map(|&r| f(r)).collect() };
    let traced_ms = per_cycle(&|r| spans.span(r).ms());
    let track_ms = per_cycle(&|r| spans.child_ms(r, "track.correlate"));
    let detect_ms = per_cycle(&|r| spans.child_ms(r, "detect.resolve"));
    let radar_ms = per_cycle(&|r| {
        spans.child_ms(r, "airfield.radar") + spans.child_ms(r, "airfield.end_period")
    });
    let self_ms = per_cycle(&|r| spans.self_ms(r));
    let coverage = per_cycle(&|r| spans.coverage(r));
    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    let untraced = med(&untraced_ms);
    let min_coverage = coverage.iter().copied().fold(f64::INFINITY, f64::min);
    tally.check(min_coverage >= MIN_COVERAGE, || {
        format!("named spans cover only {min_coverage:.4} of a traced cycle (< {MIN_COVERAGE})")
    });
    let metrics = vec![
        Metric::new("track.correlate_ms", med(&track_ms), "ms", cycles),
        Metric::new("track.box_tests", counts.box_tests as f64, "count", total),
        Metric::new("track.passes_run", counts.passes_run as f64, "count", total),
        Metric::new("detect.resolve_ms", med(&detect_ms), "ms", cycles),
        Metric::new(
            "detect.index_build_ms",
            med(&probes.index_build_ms),
            "ms",
            probes.index_build_ms.len(),
        ),
        Metric::new(
            "detect.enumerate_ms",
            med(&probes.enumerate_ms),
            "ms",
            probes.enumerate_ms.len(),
        ),
        Metric::new(
            "detect.pair_checks",
            counts.pair_checks as f64,
            "count",
            total,
        ),
        Metric::new("detect.rotations", counts.rotations as f64, "count", total),
        Metric::new(
            "detect.critical_conflicts",
            counts.critical_conflicts as f64,
            "count",
            total,
        ),
        Metric::new("airfield.radar_ms", med(&radar_ms), "ms", cycles),
        Metric::new("engine.self_ms", med(&self_ms), "ms", cycles),
        Metric::new(
            "gpu_sim.track_overhead_ms",
            med(&probes.gpu_track_ms),
            "ms",
            probes.gpu_track_ms.len(),
        ),
        Metric::new(
            "gpu_sim.detect_overhead_ms",
            med(&probes.gpu_detect_ms),
            "ms",
            probes.gpu_detect_ms.len(),
        ),
        Metric::new(
            "trace.overhead_share",
            med(&traced_ms) / untraced - 1.0,
            "share",
            cycles,
        ),
        Metric::new("trace.coverage_share", min_coverage, "share", cycles),
    ];
    Ok(EngineProfile {
        metrics,
        spans,
        counts,
        reports,
    })
}
