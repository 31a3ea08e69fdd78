//! Regenerate the paper's evaluation artifacts.
//!
//! ```text
//! cargo run --release -p atm-bench --bin figures -- --all
//! cargo run --release -p atm-bench --bin figures -- --fig 4 --fig 8
//! cargo run --release -p atm-bench --bin figures -- --exp deadlines --quick
//! ```
//!
//! Tables print to stdout; JSON series land in `results/` (override with
//! `--out DIR`). `--quick` shrinks the sweep for smoke runs.
//!
//! `--exp measured` renders the measured-vs-modeled side-by-side: the
//! deterministic `TimingKind::Measured` substrates under real host
//! wall-clock next to two modeled references. Because its y-values vary
//! run to run, it is *not* included in `--all` — every `--all` artifact
//! is byte-diffed across the CI knob matrix.
//!
//! `--jobs N` fans the independent sweep/experiment points across N worker
//! threads (default: the host's available parallelism; `--jobs 1` forces
//! the serial code path). `--scan naive|grid` selects the conflict-scan
//! implementation. Neither knob changes any output byte:
//! results are slotted in serial order and every scan books identical
//! modeled costs — only wall-clock time differs. CI diffs the artifacts
//! across the knob matrix.
//!
//! `--stream` emits Figures 4–9 incrementally: table rows print and JSON
//! series land on disk as their sweep points complete, instead of after
//! the whole sweep. Another pure plumbing knob — the bytes written are
//! identical to the materialized path's, and CI diffs that too.
//!
//! `--scenario SLUG` (repeatable; `all` for the whole catalog) sweeps a
//! scenario-corpus traffic shape — crossing flows, holding stacks, shard
//! hotspots, … (see `atm_core::scenario`) — across the paper roster with
//! every point verified bit-identical over the scan-mode × shard matrix,
//! plus deadline-miss ladders, writing `scn-<slug>.json` and
//! `scn-<slug>-metrics.json`. The matrix is iterated internally, so
//! `--scan`/`--shards` do not apply; `--quick` and `--jobs` do, and the
//! artifacts are byte-identical at any job count.
//!
//! `--trace PATH` and `--metrics PATH` additionally run one major cycle of
//! the full timed simulation on every paper platform with the telemetry
//! recorder attached, then write a Chrome `trace_event` file (load it at
//! `chrome://tracing` or <https://ui.perfetto.dev>) and a metrics snapshot.
//! Every platform in the capture is deterministically modeled, so the same
//! seed produces byte-identical trace and metrics files on every run.

use atm_bench::ablations;
use atm_bench::experiments::{deadlines, determinism, measured_vs_modeled, throughput_normalized};
use atm_bench::figures::{figure, figure_streamed};
use atm_bench::harness::Harness;
use atm_bench::series::FigureData;
use atm_bench::sweep::SweepConfig;
use atm_core::backends::Roster;
use atm_core::{AtmSimulation, ScanMode};
use std::path::PathBuf;
use telemetry::{JsonValue, Recorder};

struct Options {
    figs: Vec<u32>,
    exps: Vec<String>,
    scenarios: Vec<String>,
    out: PathBuf,
    quick: bool,
    stream: bool,
    trace: Option<PathBuf>,
    metrics: Option<PathBuf>,
    jobs: Option<usize>,
    scan: ScanMode,
    shards: usize,
}

/// The next argument, or a clean usage error naming the flag that needs it.
fn value_of(args: &mut impl Iterator<Item = String>, flag: &str, what: &str) -> String {
    args.next().unwrap_or_else(|| {
        eprintln!("{flag} needs {what} (try --help)");
        std::process::exit(2);
    })
}

fn parse_args() -> Options {
    let mut opts = Options {
        figs: Vec::new(),
        exps: Vec::new(),
        scenarios: Vec::new(),
        out: PathBuf::from("results"),
        quick: false,
        stream: false,
        trace: None,
        metrics: None,
        jobs: None,
        scan: ScanMode::default(),
        shards: 1,
    };
    let mut args = std::env::args().skip(1);
    let mut any = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fig" => {
                let v = value_of(&mut args, "--fig", "a number (4..=9)");
                opts.figs.push(v.parse().unwrap_or_else(|_| {
                    eprintln!("--fig needs a number (4..=9), got '{v}'");
                    std::process::exit(2);
                }));
                any = true;
            }
            "--exp" => {
                opts.exps.push(value_of(&mut args, "--exp", "a name"));
                any = true;
            }
            "--scenario" => {
                opts.scenarios
                    .push(value_of(&mut args, "--scenario", "a catalog slug or 'all'"));
                any = true;
            }
            "--all" => {
                opts.figs = vec![4, 5, 6, 7, 8, 9];
                opts.exps = vec![
                    "deadlines".into(),
                    "determinism".into(),
                    "ablations".into(),
                    "normalized".into(),
                ];
                any = true;
            }
            "--out" => opts.out = PathBuf::from(value_of(&mut args, "--out", "a directory")),
            "--trace" => {
                opts.trace = Some(PathBuf::from(value_of(&mut args, "--trace", "a path")));
            }
            "--metrics" => {
                opts.metrics = Some(PathBuf::from(value_of(&mut args, "--metrics", "a path")));
            }
            "--quick" => opts.quick = true,
            "--stream" => opts.stream = true,
            "--jobs" => {
                let v = value_of(&mut args, "--jobs", "a worker count (>= 1)");
                opts.jobs = Some(v.parse().ok().filter(|&j| j >= 1).unwrap_or_else(|| {
                    eprintln!("--jobs needs a worker count (>= 1), got '{v}'");
                    std::process::exit(2);
                }));
            }
            "--scan" => {
                let v = value_of(&mut args, "--scan", "'naive' or 'grid'");
                opts.scan = match v.as_str() {
                    "naive" => ScanMode::Naive,
                    "grid" => ScanMode::Grid,
                    other => {
                        eprintln!("--scan needs 'naive' or 'grid', got '{other}'");
                        std::process::exit(2);
                    }
                };
            }
            "--shards" => {
                let v = value_of(&mut args, "--shards", "a shard grid side (1..=32)");
                opts.shards = v
                    .parse()
                    .ok()
                    .filter(|s| (1..=32).contains(s))
                    .unwrap_or_else(|| {
                        eprintln!("--shards needs a shard grid side (1..=32), got '{v}'");
                        std::process::exit(2);
                    });
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: figures [--all] [--fig N]... \
                     [--exp deadlines|determinism|ablations|normalized|measured]... \
                     [--scenario SLUG|all]... \
                     [--quick] [--stream] [--jobs N] [--scan naive|grid] \
                     [--shards N] \
                     [--out DIR] [--trace PATH] [--metrics PATH]\n\
                     (--exp measured emits host wall-clock and is not part of --all;\n\
                      --scenario sweeps the scan x shard matrix internally, so --scan and\n\
                      --shards do not apply to it — slugs: {})",
                    atm_core::Scenario::catalog()
                        .iter()
                        .map(atm_core::Scenario::slug)
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument: {other} (try --help)");
                std::process::exit(2);
            }
        }
    }
    if !any {
        opts.figs = vec![4, 5, 6, 7, 8, 9];
        opts.exps = vec![
            "deadlines".into(),
            "determinism".into(),
            "ablations".into(),
            "normalized".into(),
        ];
    }
    opts
}

/// Write `content` to `path`, or exit with a clean error naming the path.
fn write_or_die(path: &std::path::Path, content: &str) {
    std::fs::write(path, content).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    });
}

/// Stream one figure: table rows go to stdout and JSON series to
/// `OUT/figN.json` the moment their sweep points complete. Stdout and the
/// JSON file end up byte-identical to the materialized [`emit`] path.
fn stream_figure(f: u32, sweep: &SweepConfig, harness: &Harness, out: &PathBuf) {
    if !(4..=9).contains(&f) {
        eprintln!("no figure {f} in the paper (4..=9)");
        return;
    }
    std::fs::create_dir_all(out).unwrap_or_else(|e| {
        eprintln!("cannot create {}: {e}", out.display());
        std::process::exit(1);
    });
    let path = out.join(format!("fig{f}.json"));
    let file = std::fs::File::create(&path).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    });
    let result = figure_streamed(
        f,
        sweep,
        harness,
        std::io::stdout(),
        std::io::BufWriter::new(file),
    );
    match result {
        Ok(_) => {
            println!();
            println!("  (series written to {})\n", path.display());
        }
        Err(e) => {
            eprintln!("cannot stream figure {f}: {e}");
            std::process::exit(1);
        }
    }
}

fn emit(fig: &FigureData, out: &PathBuf) {
    println!("{fig}");
    std::fs::create_dir_all(out).unwrap_or_else(|e| {
        eprintln!("cannot create {}: {e}", out.display());
        std::process::exit(1);
    });
    let path = out.join(format!("{}.json", fig.id));
    write_or_die(&path, &fig.to_json());
    println!("  (series written to {})\n", path.display());
}

fn main() {
    let opts = parse_args();
    let harness = match opts.jobs {
        Some(jobs) => Harness::new(jobs),
        None => Harness::default_parallel(),
    };
    let sweep = SweepConfig {
        scan: opts.scan,
        shards: opts.shards,
        ..if opts.quick {
            SweepConfig::quick()
        } else {
            SweepConfig::standard()
        }
    };
    println!(
        "sweep: n = {:?}, seed = {}, reps = {} (jobs = {}, scan = {:?}, shards = {})\n",
        sweep.ns,
        sweep.seed,
        sweep.reps,
        harness.jobs(),
        sweep.scan,
        sweep.shards
    );

    for &f in &opts.figs {
        if opts.stream {
            stream_figure(f, &sweep, &harness, &opts.out);
            continue;
        }
        match figure(f, &sweep, &harness) {
            Some(fig) => emit(&fig, &opts.out),
            None => eprintln!("no figure {f} in the paper (4..=9)"),
        }
    }

    for exp in &opts.exps {
        match exp.as_str() {
            "deadlines" => {
                // The full functional simulation of a major cycle is the
                // cost driver; sweep a representative subset at full size
                // or everything when quick.
                let (cfg, subset): (SweepConfig, Option<&[&str]>) = if opts.quick {
                    (
                        SweepConfig {
                            ns: vec![500, 2_000],
                            ..sweep.clone()
                        },
                        None,
                    )
                } else {
                    (
                        SweepConfig {
                            ns: vec![1_000, 2_000, 4_000, 8_000, 16_000],
                            ..sweep.clone()
                        },
                        Some(&[
                            "Titan X (Pascal)",
                            "GeForce 9800 GT",
                            "STARAN AP",
                            "Intel Xeon 16-core",
                        ]),
                    )
                };
                let (rows, fig) = deadlines(&cfg, subset, &harness);
                emit(&fig, &opts.out);
                println!(
                    "{:<22} {:>8} {:>10} {:>10}",
                    "platform", "n", "misses", "skips"
                );
                for r in &rows {
                    for (i, &n) in r.n.iter().enumerate() {
                        println!(
                            "{:<22} {:>8} {:>10} {:>10}",
                            r.platform, n, r.misses[i], r.skips[i]
                        );
                    }
                }
                println!();
            }
            "determinism" => {
                let n = if opts.quick { 500 } else { 2_000 };
                let (rows, fig) = determinism(n, 2018, 5, opts.scan, &harness);
                emit(&fig, &opts.out);
                println!(
                    "{:<22} {:>10} {:>10}  task1 times (ms)",
                    "platform", "identical", "spread"
                );
                for r in &rows {
                    println!(
                        "{:<22} {:>10} {:>9.3}x  {:?}",
                        r.platform,
                        r.identical,
                        r.spread,
                        r.task1_ms
                            .iter()
                            .map(|t| (t * 1000.0).round() / 1000.0)
                            .collect::<Vec<_>>()
                    );
                }
                println!();
            }
            "normalized" => {
                let fig = throughput_normalized(&sweep, &harness);
                emit(&fig, &opts.out);
            }
            "measured" => {
                // Real host wall-clock next to the modeled references.
                // Deliberately NOT part of --all: measured series vary run
                // to run, and --all's artifacts are byte-diffed in CI.
                let fig = measured_vs_modeled(&sweep, &harness);
                emit(&fig, &opts.out);
            }
            "ablations" => {
                let n = if opts.quick { 400 } else { 2_000 };
                // Claim by measured stage walls when a previous bench run
                // left its artifact next to the figures (static estimates
                // otherwise); either way the output is identical.
                let bench_json = opts.out.join("BENCH_sweep.json");
                let list = ablations::all_measured(n, 2018, &harness, &bench_json);
                println!("== ablations (modeled, n={n}) ==\n");
                println!(
                    "{:<18} {:>12} {:>14} {:>9}",
                    "ablation", "paper (ms)", "alternative", "speedup"
                );
                for a in &list {
                    println!(
                        "{:<18} {:>12.4} {:>14.4} {:>8.2}x",
                        a.id,
                        a.paper_ms,
                        a.alternative_ms,
                        a.speedup()
                    );
                    for note in &a.notes {
                        println!("    {note}");
                    }
                }
                std::fs::create_dir_all(&opts.out).unwrap_or_else(|e| {
                    eprintln!("cannot create {}: {e}", opts.out.display());
                    std::process::exit(1);
                });
                let path = opts.out.join("ablations.json");
                let json = JsonValue::Arr(list.iter().map(|a| a.to_json_value()).collect());
                write_or_die(&path, &json.to_pretty());
                println!("\n  (written to {})\n", path.display());
            }
            other => eprintln!(
                "unknown experiment '{other}' \
                 (deadlines | determinism | ablations | normalized | measured)"
            ),
        }
    }

    if !opts.scenarios.is_empty() {
        run_scenarios(&opts, &harness);
    }

    if opts.trace.is_some() || opts.metrics.is_some() {
        capture_telemetry(&opts, sweep.seed);
    }
}

/// Sweep the requested catalog scenarios: each emits `scn-<slug>.json`
/// (platform series over the verified scan × shard matrix, deadline-miss
/// ladders, conflict notes) and `scn-<slug>-metrics.json` (one recorded
/// major cycle). Everything is deterministically modeled — artifacts are
/// byte-identical run to run and across `--jobs`.
fn run_scenarios(opts: &Options, harness: &Harness) {
    use atm_bench::scenarios::{scenario_figure, scenario_metrics, ScenarioSweepConfig};
    use atm_core::Scenario;

    let sw = if opts.quick {
        ScenarioSweepConfig::quick()
    } else {
        ScenarioSweepConfig::standard()
    };
    let mut scenarios: Vec<Scenario> = Vec::new();
    for req in &opts.scenarios {
        if req == "all" {
            scenarios.extend(Scenario::catalog());
        } else {
            match Scenario::by_slug(req) {
                Some(s) => scenarios.push(s),
                None => {
                    eprintln!(
                        "unknown scenario '{req}' (slugs: {}, or 'all')",
                        Scenario::catalog()
                            .iter()
                            .map(Scenario::slug)
                            .collect::<Vec<_>>()
                            .join(", ")
                    );
                    std::process::exit(2);
                }
            }
        }
    }
    scenarios.dedup_by_key(|s| s.slug());

    println!(
        "scenario sweep: n = {:?}, deadline ladder = {:?}, seed = {}, shards = {:?}\n",
        sw.ns, sw.deadline_ns, sw.seed, sw.shard_grids
    );
    for scn in &scenarios {
        let fig = scenario_figure(scn, &sw, harness);
        emit(&fig, &opts.out);
        let metrics = scenario_metrics(scn, sw.metrics_n, sw.seed);
        let path = opts.out.join(format!("scn-{}-metrics.json", scn.slug()));
        write_or_die(&path, &metrics);
        println!("  (metrics written to {})\n", path.display());
    }
}

/// One major cycle of the full timed simulation on every paper platform,
/// recorded onto a single telemetry recorder. Each substrate lands on its
/// own trace track: the cyclic executive on `rt-sched`, each simulated GPU
/// on `gpu: <device>`, each associative machine on `ap: <machine>`. All
/// captured platforms are deterministically modeled, so the output is
/// byte-identical for a given seed.
fn capture_telemetry(opts: &Options, seed: u64) {
    let recorder = Recorder::enabled();
    let n = if opts.quick { 300 } else { 1_000 };
    for entry in Roster::paper().entries() {
        let mut sim = AtmSimulation::with_field(n, seed, entry.instantiate());
        sim.set_recorder(recorder.clone());
        sim.run(1);
    }
    println!(
        "telemetry capture: {} spans over one major cycle per platform (n={n}, seed={seed})",
        recorder.span_count()
    );
    if let Some(path) = &opts.trace {
        write_or_die(path, &recorder.chrome_trace());
        println!("  (Chrome trace written to {})", path.display());
    }
    if let Some(path) = &opts.metrics {
        write_or_die(path, &recorder.metrics_json());
        println!("  (metrics written to {})", path.display());
    }
}
