//! Wall-clock benchmark of the sweep pipeline itself.
//!
//! ```text
//! cargo run --release -p atm-bench --bin bench
//! cargo run --release -p atm-bench --bin bench -- --quick --jobs 4
//! ```
//!
//! The figures/experiments pipeline is a *simulator*: its outputs are
//! modeled times, but producing them costs real host time. This binary
//! times the standard sweep (every paper platform × both tasks) through
//! four host configurations —
//!
//! | stage | scan | harness |
//! |---|---|---|
//! | `serial-naive`    | naive O(n²) scan        | 1 thread (the seed code path) |
//! | `serial-grid`     | altitude bands × spatial grid | 1 thread |
//! | `parallel-naive`  | naive O(n²) scan        | `--jobs` threads |
//! | `parallel-grid`   | altitude bands × spatial grid | `--jobs` threads |
//!
//! — verifies that all four produce element-identical series (the
//! determinism contract: neither knob may change a single output value),
//! and writes `BENCH_sweep.json` with per-stage wall-clock times and
//! speedups over the `serial-naive` baseline.
//!
//! A second section times the sharded detect (`sharded-detect-1/2/4`
//! stages): one Tasks 2+3 execution per sweep point through
//! [`atm_core::detect_resolve_parallel`] at shard grid sides 1, 2 and 4
//! (shards=1 is the exact sequential code path), verifying that fleets,
//! stats and booked op totals are bit-identical across shard counts and
//! reporting the per-point wall-clock win.
//!
//! A third section times the **measured substrates** (`measured-*-detect`
//! stages): the deterministic [`TimingKind::Measured`] roster entries —
//! sequential reference, thread-pool multicore, SoA gate kernel — each run
//! one Tasks 2+3 execution per sweep point under their own stopwatch, and
//! their resolved fleets must be byte-identical. Every stage in the output
//! carries a `timing` tag ("measured" or "modeled") so the CI regression
//! gate can hold measured stages to the wall-clock budget while treating
//! the modeled sweep stages (whose wall time is simulator overhead, not a
//! guarded hot path) as report-only.
//!
//! A fourth section times the **persistent grid engine**
//! (`incremental-detect-muP` stages, one per move rate): consecutive
//! rescans of one fleet in which a fraction μ of the aircraft drift
//! between cycles, run side by side through a per-cycle stateless grid
//! build (the full-rebuild baseline) and a persistent
//! [`IncrementalEngine`]. Both must stay byte-identical to the naive
//! oracle every cycle; each stage reports both wall-clocks, the speedup
//! over the full rebuild, and the engine's dirty-cell hit-rate counters
//! (`cells_dirty`, `pairs_rescanned`, `pairs_replayed`).
//!
//! A fifth section times the **scenario corpus** (`scenario-<slug>-detect`
//! stages, one per catalog traffic shape — see `atm_core::scenario`): each
//! scenario's fleet runs one Tasks 2+3 execution through the naive scan
//! and the grid fast path under wall-clock, with fleets, stats and booked
//! op totals byte-compared. These stages carry `"gate": true` — shaped
//! traffic (holding stacks, hotspot cells) is exactly where the fast-path
//! wall-clock could regress, so the CI regression gate holds them to the
//! budget explicitly.
//!
//! A sixth section times the **resumable engine** (`engine-step-muP`
//! stages): full major cycles through [`atm_core::AtmEngine`] on the
//! measured sequential host, with a fraction μ of the fleet re-positioned
//! between cycles through [`Airfield::apply_updates`] — the live-server
//! hot loop. Each stage steps a grid-scan engine and a naive-scan oracle
//! engine on the same ingest batches and requires identical fleet hashes,
//! conflict and resolution counts every cycle (the dirty-cell ingest
//! contract). Gated: this is the path the `atm-server` cycle loop runs.
//!
//! A seventh section times the **server ingest path** (`server-ingest`):
//! the in-process verb hot path — parse a line-delimited JSON ingest
//! batch, decode the updates, apply them to the airfield, produce a
//! receipt — without the socket. Gated likewise.
//!
//! An eighth section times the **process-shard wire transport**
//! (`proc-shard-detect-S` stages, DESIGN.md §15): the same per-point
//! detect executions, but with halo export/import and wave hand-off
//! crossing real localhost TCP through [`atm_core::SocketTransport`] to
//! S² `run_shard_worker` loops — the full frame-codec round trip of
//! `atm-server coordinator`, minus process spawn. Outputs must stay
//! bit-identical to the in-process shards=1 run; each stage reports its
//! wire overhead over the matching in-process sharded stage. Gated: this
//! is the hot path of the cross-process server mode.

use atm_bench::harness::Harness;
use atm_bench::series::Series;
use atm_bench::sweep::{sweep_roster_on, SweepConfig, Task};
use atm_core::backends::{PlatformId, Roster, RosterEntry, TimingKind};
use atm_core::detect::{detect_resolve_all, DetectStats, IncrementalEngine, ScanActivity};
use atm_core::types::Aircraft;
use atm_core::{
    detect_resolve_parallel, detect_resolve_via_transport, run_shard_worker, AircraftUpdate,
    Airfield, AtmConfig, AtmEngine, ScanMode, Scenario, SocketTransport,
};
use atm_server::proto::{updates_from_json, updates_to_json};
use sim_clock::{NullSink, OpCounter, SimRng};
use std::path::PathBuf;
use std::time::Instant;
use telemetry::{parse_json, JsonValue};

struct Options {
    out: PathBuf,
    quick: bool,
    jobs: Option<usize>,
}

fn value_of(args: &mut impl Iterator<Item = String>, flag: &str, what: &str) -> String {
    args.next().unwrap_or_else(|| {
        eprintln!("{flag} needs {what} (try --help)");
        std::process::exit(2);
    })
}

fn parse_args() -> Options {
    let mut opts = Options {
        out: PathBuf::from("results/BENCH_sweep.json"),
        quick: false,
        jobs: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => opts.out = PathBuf::from(value_of(&mut args, "--out", "a path")),
            "--quick" => opts.quick = true,
            "--jobs" => {
                let v = value_of(&mut args, "--jobs", "a worker count (>= 1)");
                opts.jobs = Some(v.parse().ok().filter(|&j| j >= 1).unwrap_or_else(|| {
                    eprintln!("--jobs needs a worker count (>= 1), got '{v}'");
                    std::process::exit(2);
                }));
            }
            "--help" | "-h" => {
                eprintln!("usage: bench [--quick] [--jobs N] [--out PATH]");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument: {other} (try --help)");
                std::process::exit(2);
            }
        }
    }
    opts
}

/// One timed pass of the full sweep: every paper platform × both tasks.
fn run_stage(cfg: &SweepConfig, harness: &Harness) -> (f64, Vec<Vec<Series>>) {
    let roster = Roster::paper();
    let start = Instant::now();
    let series: Vec<Vec<Series>> = [Task::Track, Task::DetectResolve]
        .iter()
        .map(|&task| sweep_roster_on(&roster, task, cfg, harness))
        .collect();
    (start.elapsed().as_secs_f64() * 1_000.0, series)
}

/// One timed pass of the sharded detect: a single Tasks 2+3 execution per
/// sweep point (fresh seeded fleet, index build included — it is part of
/// the work sharding must amortize). Returns per-point wall times and the
/// full functional output per point for the cross-shard identity check.
#[allow(clippy::type_complexity)]
fn run_sharded_stage(
    base: &SweepConfig,
    shards: usize,
    workers: usize,
) -> (Vec<f64>, Vec<(Vec<Aircraft>, DetectStats, OpCounter)>) {
    let mut per_point_ms = Vec::new();
    let mut outputs = Vec::new();
    for &n in &base.ns {
        let cfg = AtmConfig {
            shards,
            scan: base.scan,
            ..AtmConfig::with_seed(base.seed)
        };
        let mut field = Airfield::new(n, cfg.clone());
        let start = Instant::now();
        let (stats, ops) = detect_resolve_parallel(&mut field.aircraft, &cfg, workers);
        per_point_ms.push(start.elapsed().as_secs_f64() * 1_000.0);
        outputs.push((field.aircraft, stats, ops));
    }
    (per_point_ms, outputs)
}

/// One timed pass of the process-shard wire transport: the same per-point
/// executions as [`run_sharded_stage`], but with the detect waves flowing
/// through [`SocketTransport`] to `side²` worker *threads* over real
/// localhost TCP — the full serialize → socket → import → simulate →
/// reply path of `atm-server coordinator`, minus process spawn. The
/// transport (and its worker links) is reused across sweep points, as a
/// long-lived coordinator would.
#[allow(clippy::type_complexity)]
fn run_proc_shard_stage(
    base: &SweepConfig,
    side: usize,
) -> (Vec<f64>, Vec<(Vec<Aircraft>, DetectStats, OpCounter)>) {
    use std::net::{TcpListener, TcpStream};
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind bench listener");
    let addr = listener.local_addr().expect("listener addr");
    let shard_count = side * side;
    let workers: Vec<_> = (0..shard_count)
        .map(|_| {
            std::thread::spawn(move || {
                run_shard_worker(TcpStream::connect(addr).expect("connect bench worker"))
            })
        })
        .collect();
    let mut transport =
        SocketTransport::accept_workers(&listener, shard_count).expect("accept bench workers");

    let mut per_point_ms = Vec::new();
    let mut outputs = Vec::new();
    for &n in &base.ns {
        let cfg = AtmConfig {
            shards: side,
            scan: base.scan,
            ..AtmConfig::with_seed(base.seed)
        };
        let mut field = Airfield::new(n, cfg.clone());
        let start = Instant::now();
        let (stats, ops) = detect_resolve_via_transport(&mut field.aircraft, &cfg, &mut transport)
            .expect("the bench wire transport cannot fault");
        per_point_ms.push(start.elapsed().as_secs_f64() * 1_000.0);
        outputs.push((field.aircraft, stats, ops));
    }
    drop(transport); // sends Shutdown to every worker
    for w in workers {
        w.join().expect("join bench worker").expect("worker exit");
    }
    (per_point_ms, outputs)
}

/// One timed pass of a measured substrate's detect: a fresh backend and
/// seeded fleet per sweep point, with the backend's own
/// [`TimingKind::Measured`] stopwatch as the per-point time. Returns the
/// per-point wall times and the resolved fleets for the cross-substrate
/// identity check.
fn run_measured_stage(base: &SweepConfig, entry: &RosterEntry) -> (Vec<f64>, Vec<Vec<Aircraft>>) {
    let mut per_point_ms = Vec::new();
    let mut fleets = Vec::new();
    for &n in &base.ns {
        let cfg = AtmConfig {
            scan: base.scan,
            ..AtmConfig::with_seed(base.seed)
        };
        let mut field = Airfield::new(n, cfg.clone());
        let mut backend = entry.instantiate();
        let d = backend.detect_resolve(&mut field.aircraft, &cfg);
        per_point_ms.push(d.as_millis_f64());
        fleets.push(field.aircraft);
    }
    (per_point_ms, fleets)
}

/// Outcome of one persistent-vs-full-rebuild stage at one move rate.
struct IncrementalStage {
    /// Total wall-clock of the per-cycle stateless serial-grid detects.
    serial_ms: f64,
    /// Total wall-clock of the persistent engine's rescans.
    inc_ms: f64,
    /// Engine counters accumulated over every cycle.
    activity: ScanActivity,
    /// Whether both paths stayed byte-identical (fleet and stats) to the
    /// naive oracle on every cycle.
    identical: bool,
}

/// One timed pass of the persistent grid engine at move rate `mu`:
/// `cycles` consecutive rescans of one fleet, with `mu * n` randomly
/// chosen aircraft drifting between cycles (the same displacements
/// applied to every copy), comparing a per-cycle stateless serial-grid
/// detect against one persistent [`IncrementalEngine`], both checked
/// against an untimed naive detect.
///
/// Runs at the sweep's *midpoint* n, not its largest: the engine's win
/// comes from replaying clear first scans, and at the densest sweep
/// point nearly the whole fleet is in active conflict (flagged aircraft
/// always rescan live, and their velocity commits keep dirtying cells),
/// so the densest point measures the floor, not the mechanism.
fn run_incremental_stage(base: &SweepConfig, n: usize, mu: f64, cycles: usize) -> IncrementalStage {
    let grid_cfg = AtmConfig {
        scan: ScanMode::Grid,
        ..AtmConfig::with_seed(base.seed)
    };
    let naive_cfg = AtmConfig {
        scan: ScanMode::Naive,
        ..grid_cfg.clone()
    };
    let field = Airfield::new(n, grid_cfg.clone());
    let mut fleet_naive = field.aircraft.clone();
    let mut fleet_full = field.aircraft.clone();
    let mut fleet_inc = field.aircraft;
    let mut engine = IncrementalEngine::new();
    let mut rng = SimRng::seed_from_u64(base.seed ^ 0x5EED);
    let moved_per_cycle = (mu * n as f64).round() as usize;

    let mut out = IncrementalStage {
        serial_ms: 0.0,
        inc_ms: 0.0,
        activity: ScanActivity::default(),
        identical: true,
    };
    for _ in 0..cycles {
        let start = Instant::now();
        let full_stats = detect_resolve_all(&mut fleet_full, &grid_cfg, &mut NullSink);
        out.serial_ms += start.elapsed().as_secs_f64() * 1_000.0;

        let start = Instant::now();
        let inc_stats = engine.detect_resolve(&mut fleet_inc, &grid_cfg, &mut NullSink);
        out.inc_ms += start.elapsed().as_secs_f64() * 1_000.0;

        let naive_stats = detect_resolve_all(&mut fleet_naive, &naive_cfg, &mut NullSink);
        out.identical &= fleet_naive == fleet_full
            && fleet_naive == fleet_inc
            && naive_stats == full_stats
            && naive_stats == inc_stats;

        // Drift: identical displacements applied to every copy.
        for _ in 0..moved_per_cycle {
            let j = (rng.next_u64() % n as u64) as usize;
            let dx = rng.range_f32_inclusive(-8.0, 8.0);
            let dy = rng.range_f32_inclusive(-8.0, 8.0);
            for fleet in [&mut fleet_naive, &mut fleet_full, &mut fleet_inc] {
                fleet[j].x += dx;
                fleet[j].y += dy;
            }
        }
    }
    out.activity = *engine.total_activity();
    out
}

/// Outcome of one resumable-engine stepping stage at one ingest rate.
struct EngineStepStage {
    /// Total wall-clock of the grid-scan engine's major cycles.
    grid_ms: f64,
    /// Total wall-clock of the naive-scan oracle engine's major cycles.
    naive_ms: f64,
    /// Conflicts observed over the run (from the grid engine).
    conflicts: u64,
    /// Whether both engines agreed on fleet hash, conflicts and
    /// resolutions every cycle.
    identical: bool,
}

/// One timed pass of the resumable engine at ingest rate `mu`: `cycles`
/// major cycles through two [`AtmEngine`]s on the measured sequential
/// host — one grid scan, one naive scan — with `mu * n` aircraft
/// re-positioned via [`Airfield::apply_updates`] before every cycle (the
/// same batches fed to both). External ingest mutates aircraft behind the
/// persistent grid engine's back, so cross-checking against the naive
/// oracle exercises exactly the dirty-cell bookkeeping the live server
/// relies on.
fn run_engine_step_stage(seed: u64, n: usize, mu: f64, cycles: usize) -> EngineStepStage {
    let mk = |scan: ScanMode| {
        let cfg = AtmConfig {
            scan,
            ..AtmConfig::with_seed(seed)
        };
        let entry = Roster::select([PlatformId::SequentialHost]);
        let mut engine = AtmEngine::new(Airfield::new(n, cfg), entry.entries()[0].instantiate());
        engine.begin_run();
        engine
    };
    let mut grid = mk(ScanMode::Grid);
    let mut naive = mk(ScanMode::Naive);
    let mut rng = SimRng::seed_from_u64(seed ^ 0x16E57);
    let moved = (mu * n as f64).round() as usize;

    let mut out = EngineStepStage {
        grid_ms: 0.0,
        naive_ms: 0.0,
        conflicts: 0,
        identical: true,
    };
    for _ in 0..cycles {
        let updates: Vec<AircraftUpdate> = (0..moved)
            .map(|_| {
                let j = (rng.next_u64() % n as u64) as usize;
                let a = &grid.aircraft()[j];
                AircraftUpdate {
                    id: j as u32,
                    x: a.x + rng.range_f32_inclusive(-8.0, 8.0),
                    y: a.y + rng.range_f32_inclusive(-8.0, 8.0),
                    alt: a.alt + rng.range_f32_inclusive(-500.0, 500.0),
                    dx: rng.range_f32_inclusive(-0.05, 0.05),
                    dy: rng.range_f32_inclusive(-0.05, 0.05),
                }
            })
            .collect();
        grid.apply_updates(&updates);
        naive.apply_updates(&updates);

        let start = Instant::now();
        let rg = grid.step_major_cycle();
        out.grid_ms += start.elapsed().as_secs_f64() * 1_000.0;

        let start = Instant::now();
        let rn = naive.step_major_cycle();
        out.naive_ms += start.elapsed().as_secs_f64() * 1_000.0;

        out.conflicts += rg.conflicts;
        out.identical &= rg.fleet_hash == rn.fleet_hash
            && rg.conflicts == rn.conflicts
            && rg.resolutions == rn.resolutions;
    }
    out
}

/// One timed pass of the server ingest hot path: `batches` pre-rendered
/// line-delimited JSON ingest batches of `batch` updates each are parsed,
/// decoded and applied to one airfield — the per-verb work `atm-server`
/// does between socket reads. Returns (wall ms, updates applied).
fn run_server_ingest_stage(seed: u64, n: usize, batch: usize, batches: usize) -> (f64, u64) {
    let mut field = Airfield::new(n, AtmConfig::with_seed(seed));
    let mut rng = SimRng::seed_from_u64(seed ^ 0x53_7265);
    let lines: Vec<String> = (0..batches)
        .map(|_| {
            let updates: Vec<AircraftUpdate> = (0..batch)
                .map(|_| AircraftUpdate {
                    id: (rng.next_u64() % n as u64) as u32,
                    x: rng.range_f32_inclusive(-400.0, 400.0),
                    y: rng.range_f32_inclusive(-400.0, 400.0),
                    alt: rng.range_f32_inclusive(5_000.0, 35_000.0),
                    dx: rng.range_f32_inclusive(-0.05, 0.05),
                    dy: rng.range_f32_inclusive(-0.05, 0.05),
                })
                .collect();
            updates_to_json(&updates).to_compact()
        })
        .collect();

    let start = Instant::now();
    let mut applied = 0u64;
    for line in &lines {
        let v = parse_json(line).expect("bench-rendered batch parses");
        let updates = updates_from_json(&v).expect("bench-rendered batch decodes");
        applied += u64::from(field.apply_updates(&updates).applied);
    }
    (start.elapsed().as_secs_f64() * 1_000.0, applied)
}

fn main() {
    let opts = parse_args();
    let harness = match opts.jobs {
        Some(jobs) => Harness::new(jobs),
        None => Harness::default_parallel(),
    };
    let base = if opts.quick {
        SweepConfig::quick()
    } else {
        SweepConfig::standard()
    };
    println!(
        "bench: n = {:?}, seed = {}, reps = {}, jobs = {}",
        base.ns,
        base.seed,
        base.reps,
        harness.jobs()
    );

    let stages: [(&str, ScanMode, &Harness); 4] = [
        ("serial-naive", ScanMode::Naive, &Harness::serial()),
        ("serial-grid", ScanMode::Grid, &Harness::serial()),
        ("parallel-naive", ScanMode::Naive, &harness),
        ("parallel-grid", ScanMode::Grid, &harness),
    ];

    let mut wall_ms = Vec::new();
    let mut results: Vec<Vec<Vec<Series>>> = Vec::new();
    for (id, scan, h) in &stages {
        let cfg = SweepConfig {
            scan: *scan,
            ..base.clone()
        };
        let (ms, series) = run_stage(&cfg, h);
        println!("  {id:<16} {ms:>10.1} ms");
        wall_ms.push(ms);
        results.push(series);
    }

    // Sharded detect: one execution per sweep point, shards=1 is the exact
    // sequential path, shards>1 fans waves across the harness's workers.
    let shard_sides = [1usize, 2, 4];
    println!(
        "  sharded detect ({} workers at shards > 1):",
        harness.jobs()
    );
    let mut sharded_ms: Vec<Vec<f64>> = Vec::new();
    let mut sharded_out = Vec::new();
    for &shards in &shard_sides {
        let workers = if shards > 1 { harness.jobs() } else { 1 };
        let (per_point, out) = run_sharded_stage(&base, shards, workers);
        let total: f64 = per_point.iter().sum();
        println!(
            "  sharded-detect-{shards} {total:>10.1} ms  (per point: {})",
            per_point
                .iter()
                .zip(&base.ns)
                .map(|(ms, n)| format!("n={n} {ms:.1}"))
                .collect::<Vec<_>>()
                .join(", ")
        );
        sharded_ms.push(per_point);
        sharded_out.push(out);
    }
    let sharded_identical = sharded_out.iter().all(|o| *o == sharded_out[0]);
    if !sharded_identical {
        eprintln!("RESULT MISMATCH: a sharded stage diverged from shards=1");
    }
    let largest_speedup = sharded_ms[0].last().copied().unwrap_or(0.0)
        / sharded_ms[2].last().copied().unwrap_or(1.0).max(1e-9);
    println!(
        "  shards=4 speedup over shards=1 at n={}: {largest_speedup:.2}x",
        base.ns.last().copied().unwrap_or(0)
    );

    // Measured substrates: the deterministic TimingKind::Measured roster
    // entries run the real detect kernel per sweep point, each under its
    // own stopwatch. The MIMD host backend is deliberately absent (its
    // radar races are honest non-determinism); these three must produce
    // byte-identical fleets, differing only in wall-clock.
    let measured_roster = Roster::select([
        PlatformId::SequentialHost,
        PlatformId::MulticoreHost,
        PlatformId::SimdSoaHost,
    ]);
    println!("  measured substrates (one detect per sweep point):");
    let mut measured_ids = Vec::new();
    let mut measured_ms: Vec<Vec<f64>> = Vec::new();
    let mut measured_fleets = Vec::new();
    for entry in measured_roster.entries() {
        assert_eq!(entry.timing, TimingKind::Measured);
        let (per_point, fleets) = run_measured_stage(&base, entry);
        let total: f64 = per_point.iter().sum();
        let id = format!("measured-{}-detect", entry.slug);
        println!("  {id:<32} {total:>10.1} ms");
        measured_ids.push(id);
        measured_ms.push(per_point);
        measured_fleets.push(fleets);
    }
    let measured_identical = measured_fleets.iter().all(|f| *f == measured_fleets[0]);
    if !measured_identical {
        eprintln!("RESULT MISMATCH: a measured substrate diverged from the sequential reference");
    }
    let seq_total: f64 = measured_ms[0].iter().sum();
    let multicore_speedup = seq_total / measured_ms[1].iter().sum::<f64>().max(1e-9);
    println!("  multicore speedup over sequential-host: {multicore_speedup:.2}x");

    // Persistent grid engine: consecutive rescans at a range of per-cycle
    // move rates, persistent engine vs per-cycle stateless grid build.
    let move_rates = [0.0, 0.01, 0.05, 0.20, 1.0];
    let inc_cycles = if opts.quick { 8 } else { 16 };
    let inc_n = base.ns.get(base.ns.len() / 2).copied().unwrap_or(1_000);
    println!("  incremental rescans ({inc_cycles} cycles at n={inc_n}, vs serial-grid rebuild):");
    let mut incremental_stages = Vec::new();
    let mut incremental_identical = true;
    let mut low_move_speedup = 0.0_f64;
    for &mu in &move_rates {
        let stage = run_incremental_stage(&base, inc_n, mu, inc_cycles);
        let speedup = stage.serial_ms / stage.inc_ms.max(1e-9);
        let replayed_share = stage.activity.pairs_replayed as f64
            / (stage.activity.pairs_replayed + stage.activity.pairs_rescanned).max(1) as f64;
        println!(
            "  incremental-detect-mu{:<4} {:>10.1} ms vs {:>10.1} ms serial-grid \
             ({speedup:.2}x, {:.0}% of pairs replayed)",
            (mu * 100.0).round() as u64,
            stage.inc_ms,
            stage.serial_ms,
            replayed_share * 100.0
        );
        incremental_identical &= stage.identical;
        if mu <= 0.05 {
            low_move_speedup = low_move_speedup.max(speedup);
        }
        incremental_stages.push((mu, stage, speedup));
    }
    if !incremental_identical {
        eprintln!("RESULT MISMATCH: a grid rescan diverged from the naive oracle");
    }
    println!("  best incremental speedup at move rate <= 5%: {low_move_speedup:.2}x");

    // Scenario corpus: every catalog traffic shape at one fleet size, the
    // naive scan vs the grid fast path under wall-clock, with fleets,
    // stats and booked op totals byte-compared. Shaped traffic is where
    // the fast paths could plausibly diverge (dense stacks, hotspot
    // cells), so each scenario is its own gated stage.
    let scn_n = if opts.quick { 500 } else { 1_200 };
    println!("  scenario corpus (grid vs naive detect at n={scn_n}):");
    let mut scenario_stages = Vec::new();
    let mut scenarios_identical = true;
    for scn in Scenario::catalog() {
        let naive_cfg = scn.apply(AtmConfig {
            scan: ScanMode::Naive,
            ..AtmConfig::with_seed(base.seed)
        });
        let grid_cfg = AtmConfig {
            scan: ScanMode::Grid,
            ..naive_cfg.clone()
        };
        let fleet0 = scn.fleet(scn_n, base.seed);

        let mut naive_fleet = fleet0.clone();
        let mut naive_ops = OpCounter::new();
        let start = Instant::now();
        let naive_stats = detect_resolve_all(&mut naive_fleet, &naive_cfg, &mut naive_ops);
        let naive_ms = start.elapsed().as_secs_f64() * 1_000.0;

        let mut grid_fleet = fleet0;
        let mut grid_ops = OpCounter::new();
        let start = Instant::now();
        let grid_stats = detect_resolve_all(&mut grid_fleet, &grid_cfg, &mut grid_ops);
        let grid_ms = start.elapsed().as_secs_f64() * 1_000.0;

        let same = naive_fleet == grid_fleet && naive_stats == grid_stats && naive_ops == grid_ops;
        if !same {
            eprintln!(
                "RESULT MISMATCH: scenario '{}' grid scan diverged from naive",
                scn.slug()
            );
        }
        scenarios_identical &= same;
        let speedup = naive_ms / grid_ms.max(1e-9);
        println!(
            "  scenario-{:<22} {grid_ms:>10.1} ms grid vs {naive_ms:>10.1} ms naive \
             ({speedup:.2}x, {} critical)",
            format!("{}-detect", scn.slug()),
            grid_stats.critical_conflicts
        );
        scenario_stages.push((scn, grid_ms, naive_ms, speedup, grid_stats));
    }

    // Resumable engine: full major cycles with live ingest between them —
    // the atm-server cycle loop without the socket. The grid engine must
    // agree with the naive oracle on every cycle's fleet hash and conflict
    // counts.
    let engine_rates = [0.01, 0.20];
    let engine_n = if opts.quick { 400 } else { 800 };
    let engine_cycles = if opts.quick { 2 } else { 4 };
    println!("  resumable engine ({engine_cycles} major cycles at n={engine_n}, grid vs naive):");
    let mut engine_stages = Vec::new();
    let mut engine_identical = true;
    for &mu in &engine_rates {
        let stage = run_engine_step_stage(base.seed, engine_n, mu, engine_cycles);
        let speedup = stage.naive_ms / stage.grid_ms.max(1e-9);
        println!(
            "  engine-step-mu{:<4} {:>10.1} ms vs {:>10.1} ms naive-scan engine \
             ({speedup:.2}x, {} conflicts)",
            (mu * 100.0).round() as u64,
            stage.grid_ms,
            stage.naive_ms,
            stage.conflicts
        );
        engine_identical &= stage.identical;
        engine_stages.push((mu, stage, speedup));
    }
    if !engine_identical {
        eprintln!("RESULT MISMATCH: ingest-fed grid engine diverged from the naive engine");
    }

    // Server ingest path: parse + decode + apply, no socket.
    let (ingest_batch, ingest_batches) = if opts.quick { (64, 200) } else { (64, 1_000) };
    let (ingest_ms, ingest_applied) =
        run_server_ingest_stage(base.seed, engine_n, ingest_batch, ingest_batches);
    let ingest_rate = ingest_applied as f64 / (ingest_ms / 1_000.0).max(1e-9);
    println!(
        "  server-ingest      {ingest_ms:>10.1} ms  ({ingest_applied} updates, {:.0}k updates/s)",
        ingest_rate / 1_000.0
    );

    // Process-shard wire transport: halo waves over real localhost TCP to
    // worker threads running the same loop as `atm-server shard-worker`.
    // Outputs must match the in-process shards=1 run byte for byte; the
    // interesting number is the wire overhead over the matching in-process
    // sharded stage.
    let proc_sides = [1usize, 2];
    println!("  proc-shard detect (wire transport over localhost TCP):");
    let mut proc_ms: Vec<Vec<f64>> = Vec::new();
    let mut proc_identical = true;
    for (i, &side) in proc_sides.iter().enumerate() {
        let (per_point, out) = run_proc_shard_stage(&base, side);
        let total: f64 = per_point.iter().sum();
        let in_proc: f64 = sharded_ms[i].iter().sum();
        println!(
            "  proc-shard-detect-{side} {total:>10.1} ms  \
             ({:.2}x the in-process sharded-detect-{side} time, {} workers)",
            total / in_proc.max(1e-9),
            side * side
        );
        proc_identical &= out == sharded_out[0];
        proc_ms.push(per_point);
    }
    if !proc_identical {
        eprintln!("RESULT MISMATCH: the wire transport diverged from the in-process detect");
    }

    // Determinism contract: every stage's series must be element-identical
    // to the baseline's.
    let identical = results.iter().all(|r| *r == results[0])
        && sharded_identical
        && measured_identical
        && incremental_identical
        && scenarios_identical
        && engine_identical
        && proc_identical;
    if !identical {
        eprintln!("RESULT MISMATCH: a stage diverged from the serial-naive baseline");
    }
    let baseline_ms = wall_ms[0];
    let headline = baseline_ms / wall_ms[3].max(1e-9);
    println!(
        "  identical results: {identical}; parallel-grid speedup over serial-naive: {headline:.2}x"
    );

    let mut stage_json: Vec<JsonValue> = stages
        .iter()
        .zip(&wall_ms)
        .map(|((id, scan, h), &ms)| {
            JsonValue::obj()
                .set("id", *id)
                .set("timing", "modeled")
                .set("scan", format!("{scan:?}").to_lowercase())
                .set("jobs", h.jobs())
                .set("wall_ms", ms)
                .set("speedup_vs_serial_naive", baseline_ms / ms.max(1e-9))
        })
        .collect();
    for (i, &shards) in shard_sides.iter().enumerate() {
        let total: f64 = sharded_ms[i].iter().sum();
        stage_json.push(
            JsonValue::obj()
                .set("id", format!("sharded-detect-{shards}"))
                .set("timing", "measured")
                .set("scan", format!("{:?}", base.scan).to_lowercase())
                .set("shards", shards)
                .set("jobs", if shards > 1 { harness.jobs() } else { 1 })
                .set("wall_ms", total)
                .set("point_wall_ms", sharded_ms[i].clone())
                .set(
                    "speedup_vs_shards1",
                    sharded_ms[0].iter().sum::<f64>() / total.max(1e-9),
                ),
        );
    }
    for (i, id) in measured_ids.iter().enumerate() {
        let total: f64 = measured_ms[i].iter().sum();
        stage_json.push(
            JsonValue::obj()
                .set("id", id.as_str())
                .set("timing", "measured")
                .set("scan", format!("{:?}", base.scan).to_lowercase())
                .set("wall_ms", total)
                .set("point_wall_ms", measured_ms[i].clone())
                .set("speedup_vs_sequential_host", seq_total / total.max(1e-9)),
        );
    }
    for (mu, stage, speedup) in &incremental_stages {
        stage_json.push(
            JsonValue::obj()
                .set(
                    "id",
                    format!("incremental-detect-mu{}", (mu * 100.0).round() as u64),
                )
                .set("timing", "measured")
                .set("scan", "grid")
                .set("move_rate", *mu)
                .set("cycles", inc_cycles)
                .set("n", inc_n)
                .set("wall_ms", stage.inc_ms)
                .set("serial_grid_wall_ms", stage.serial_ms)
                .set("speedup_vs_serial_grid", *speedup)
                .set("cells_dirty", stage.activity.cells_dirty)
                .set("pairs_rescanned", stage.activity.pairs_rescanned)
                .set("pairs_replayed", stage.activity.pairs_replayed)
                .set("scans_live", stage.activity.scans_live)
                .set("scans_replayed", stage.activity.scans_replayed),
        );
    }
    for (scn, grid_ms, naive_ms, speedup, stats) in &scenario_stages {
        stage_json.push(
            JsonValue::obj()
                .set("id", format!("scenario-{}-detect", scn.slug()))
                .set("timing", "measured")
                .set("gate", true)
                .set("scan", "grid")
                .set("n", scn_n)
                .set("wall_ms", *grid_ms)
                .set("naive_wall_ms", *naive_ms)
                .set("speedup_grid_vs_naive", *speedup)
                .set("critical_conflicts", stats.critical_conflicts),
        );
    }
    for (mu, stage, speedup) in &engine_stages {
        stage_json.push(
            JsonValue::obj()
                .set(
                    "id",
                    format!("engine-step-mu{}", (mu * 100.0).round() as u64),
                )
                .set("timing", "measured")
                .set("gate", true)
                .set("scan", "grid")
                .set("ingest_rate", *mu)
                .set("cycles", engine_cycles)
                .set("n", engine_n)
                .set("wall_ms", stage.grid_ms)
                .set("naive_engine_wall_ms", stage.naive_ms)
                .set("speedup_vs_naive_engine", *speedup)
                .set("conflicts", stage.conflicts),
        );
    }
    for (i, &side) in proc_sides.iter().enumerate() {
        let total: f64 = proc_ms[i].iter().sum();
        let in_proc: f64 = sharded_ms[i].iter().sum();
        stage_json.push(
            JsonValue::obj()
                .set("id", format!("proc-shard-detect-{side}"))
                .set("timing", "measured")
                .set("gate", true)
                .set("scan", format!("{:?}", base.scan).to_lowercase())
                .set("shards", side)
                .set("workers", side * side)
                .set("wall_ms", total)
                .set("point_wall_ms", proc_ms[i].clone())
                .set("overhead_vs_in_process", total / in_proc.max(1e-9)),
        );
    }
    stage_json.push(
        JsonValue::obj()
            .set("id", "server-ingest")
            .set("timing", "measured")
            .set("gate", true)
            .set("n", engine_n)
            .set("batch", ingest_batch)
            .set("batches", ingest_batches)
            .set("wall_ms", ingest_ms)
            .set("updates_applied", ingest_applied)
            .set("updates_per_sec", ingest_rate),
    );
    let json = JsonValue::obj()
        .set(
            "sweep",
            JsonValue::obj()
                .set("ns", base.ns.clone())
                .set("seed", base.seed)
                .set("reps", base.reps),
        )
        .set("jobs", harness.jobs())
        .set("stages", JsonValue::Arr(stage_json))
        .set("identical_results", identical)
        .set("speedup_parallel_grid_vs_serial_naive", headline)
        .set("speedup_shards4_vs_shards1_largest_n", largest_speedup)
        .set("speedup_multicore_vs_sequential_host", multicore_speedup)
        .set(
            "speedup_incremental_low_move_vs_serial_grid",
            low_move_speedup,
        );

    if let Some(dir) = opts.out.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).unwrap_or_else(|e| {
                eprintln!("cannot create {}: {e}", dir.display());
                std::process::exit(1);
            });
        }
    }
    std::fs::write(&opts.out, json.to_pretty()).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", opts.out.display());
        std::process::exit(1);
    });
    println!("  (written to {})", opts.out.display());

    if !identical {
        std::process::exit(1);
    }
}
