//! End-to-end and per-layer wall-clock benchmark of the ATM engine and
//! server. See `README.md` for the workloads and metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload conflict-dense --seed 2018 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones.
//! The command exits 1 when an output check failed.

mod cycle;
mod inputs;
mod layers;
mod serve;
mod spans;
mod stats;

use atm_core::config::ScanMode;
use atm_server::{replay_log, LogEntry, ServerSpec};
use layers::Metric;
use stats::{median, Tally};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;
use telemetry::JsonValue;

/// End-to-end metrics, reported by every untraced run.
const E2E_METRICS: [&str; 4] = [
    "setup_s",
    "latency_p50_ms",
    "throughput_per_s",
    "peak_rss_mb",
];

/// Per-layer metrics, reported by every traced run.
const LAYER_METRICS: [&str; 24] = [
    "track.correlate_ms",
    "track.box_tests",
    "track.passes_run",
    "detect.resolve_ms",
    "detect.index_build_ms",
    "detect.enumerate_ms",
    "detect.pair_checks",
    "detect.rotations",
    "detect.critical_conflicts",
    "airfield.radar_ms",
    "airfield.apply_updates_ms",
    "engine.self_ms",
    "server.step_ms",
    "server.echo_rtt_p50_ms",
    "server.events_dropped_share",
    "server.ingest_batched",
    "gpu_sim.track_overhead_ms",
    "gpu_sim.detect_overhead_ms",
    "proto.parse_us",
    "proto.decode_us",
    "proto.encode_us",
    "trace.overhead_share",
    "trace.coverage_share",
    "failed_share",
];

#[derive(Clone, Copy, Debug, PartialEq)]
enum Workload {
    Cycle8k,
    ConflictDense,
    Serve,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "cycle-8k" => Some(Workload::Cycle8k),
            "conflict-dense" => Some(Workload::ConflictDense),
            "serve" => Some(Workload::Serve),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Cycle8k => "cycle-8k",
            Workload::ConflictDense => "conflict-dense",
            Workload::Serve => "serve",
        }
    }

    /// The engine each workload runs, as a server spec: grid scan and one
    /// shard throughout.
    fn spec(self, seed: u64) -> ServerSpec {
        let base = ServerSpec {
            seed,
            scan: ScanMode::Grid,
            shards: 1,
            ..ServerSpec::default()
        };
        match self {
            Workload::Cycle8k => ServerSpec {
                n: 8000,
                platform: "simd-soa".into(),
                ..base
            },
            Workload::ConflictDense => ServerSpec {
                n: 2000,
                scenario: Some("drone-swarm".into()),
                platform: "simd-soa".into(),
                ..base
            },
            Workload::Serve => ServerSpec {
                n: 2000,
                platform: "titan-x-pascal".into(),
                autostep_ms: Some(200),
                ..base
            },
        }
    }

    /// Expected seconds per major cycle, which sets a cycle workload's
    /// timed cycle count from `--seconds`.
    fn nominal_cycle_s(self) -> f64 {
        match self {
            Workload::Cycle8k => 1.0,
            _ => 0.75,
        }
    }

    /// Cycles a traced run profiles after one warm-up cycle: fixed, so
    /// the work counts repeat exactly for one seed.
    fn traced_cycles(self) -> usize {
        match self {
            Workload::Cycle8k => 3,
            Workload::ConflictDense => 5,
            Workload::Serve => 8,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Run as the oracle process of a cycle workload (see `cycle.rs`).
    oracle: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <cycle-8k|conflict-dense|serve> [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Cycle8k,
        seed: 2018,
        seconds: 15.0,
        trace: false,
        oracle: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: bad {what} `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("workload"))?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| bad("duration"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                }
            }
            "--oracle" => {
                args.oracle = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("oracle flag")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// First line of a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

fn run_record(args: &Args) -> Vec<String> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        format!("workload: {}", args.workload.name()),
        format!("seed: {}", args.seed),
        format!("seconds: {}", args.seconds),
        format!("trace: {}", u8::from(args.trace)),
        format!("commit: {}", command_line("git", &["rev-parse", "HEAD"])),
        format!("nproc: {nproc}"),
        format!("cpu: {cpu}"),
        format!("rustc: {}", command_line("rustc", &["--version"])),
    ]
}

/// Where traces go: `out/` beside this package.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The server probe of a cycle workload's traced run: `echo` round trips
/// against a server holding this workload's engine, and `replay_log`
/// timing of two cycles with one ingest batch before each.
fn server_probe(
    spec: &ServerSpec,
    batches: &[Vec<atm_core::AircraftUpdate>],
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let (mut server, _) = serve::Running::start(spec)?;
    let echo = serve::echo_rtts(&mut server.client, &batches[0], serve::ECHOES, tally);
    server.stop()?;
    let log: Vec<LogEntry> = (0..2)
        .map(|c| LogEntry {
            seq: c + 1,
            cycle: c,
            updates: batches[c as usize].clone(),
        })
        .collect();
    let t = Instant::now();
    replay_log(spec, &log, 2)?;
    let step_ms = spans::ms(t.elapsed()) / 2.0;
    Ok(vec![
        Metric::new("server.step_ms", step_ms, "ms", 2),
        Metric::new(
            "server.echo_rtt_p50_ms",
            median(&echo).unwrap_or(0.0),
            "ms",
            echo.len(),
        ),
    ])
}

struct Outcome {
    metrics: Vec<Metric>,
    record: Vec<String>,
    tally: Tally,
}

fn run(args: &Args) -> Result<Outcome, String> {
    let spec = args.workload.spec(args.seed);
    if !args.trace {
        let (metrics, record, tally) = match args.workload {
            Workload::Serve => {
                let o = serve::run(&spec, args.seed, args.seconds, false)?;
                (o.e2e, o.record, o.tally)
            }
            _ => {
                let cycles = cycle::cycles_for(args.seconds, args.workload.nominal_cycle_s());
                let oracle_args = [
                    "--workload",
                    args.workload.name(),
                    "--seed",
                    &args.seed.to_string(),
                    "--oracle",
                    "1",
                ]
                .map(String::from);
                let o = cycle::run(&spec, cycles, &oracle_args)?;
                (o.e2e, o.record, o.tally)
            }
        };
        return Ok(Outcome {
            metrics,
            record,
            tally,
        });
    }

    std::fs::create_dir_all(out_dir()).map_err(|e| format!("create out/: {e}"))?;
    let mut tally = Tally::default();
    let mut metrics = Vec::new();
    let mut record = Vec::new();
    let (lines, batches) = if args.workload == Workload::Serve {
        let o = serve::run(&spec, args.seed, args.seconds, true)?;
        let path = out_dir().join("serve.trace.json");
        std::fs::write(&path, o.spans.chrome_trace()).map_err(|e| e.to_string())?;
        record.push(format!("client session trace: {}", path.display()));
        record.extend(o.record);
        metrics.extend(o.layers);
        tally.absorb(o.tally);
        (o.lines, o.batches)
    } else {
        let batches = layers::probe_batches(args.seed, spec.n, 32);
        let lines = batches
            .iter()
            .map(|b| inputs::request_line("ingest", b))
            .collect();
        metrics.extend(server_probe(&spec, &batches, &mut tally)?);
        (lines, batches)
    };
    metrics.extend(serve::load_probe(&spec, args.seed, &mut tally)?);

    let profile = layers::profile_engine(&spec, 1, args.workload.traced_cycles(), &mut tally)?;
    let path = match args.workload {
        Workload::Serve => out_dir().join("serve-engine.trace.json"),
        w => out_dir().join(format!("{}.trace.json", w.name())),
    };
    std::fs::write(&path, profile.spans.chrome_trace()).map_err(|e| e.to_string())?;
    record.push(format!("engine cycle trace: {}", path.display()));
    record.push(format!("exact counts: {:?}", profile.counts));
    metrics.extend(profile.metrics);
    metrics.extend(layers::proto_metrics(&lines, &profile.reports, &mut tally));
    metrics.push(layers::apply_updates_metric(&spec, &batches)?);
    metrics.push(Metric::new(
        "failed_share",
        tally.failed_share(),
        "share",
        tally.attempted as usize,
    ));
    Ok(Outcome {
        metrics,
        record,
        tally,
    })
}

/// Order `metrics` as `names` lists them; every name must be present once.
fn ordered(metrics: Vec<Metric>, names: &[&str]) -> Result<Vec<Metric>, String> {
    names
        .iter()
        .map(|name| {
            let mut found = metrics.iter().filter(|m| m.name == *name);
            match (found.next(), found.next()) {
                (Some(m), None) => Ok(m.clone()),
                (None, _) => Err(format!("benchmark defect: metric {name} missing")),
                (Some(_), Some(_)) => Err(format!("benchmark defect: metric {name} twice")),
            }
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.oracle {
        return match cycle::oracle_main(&args.workload.spec(args.seed)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    for line in run_record(&args) {
        println!("# {line}");
    }
    let started = Instant::now();
    let names: &[&str] = if args.trace {
        &LAYER_METRICS
    } else {
        &E2E_METRICS
    };
    let outcome = match run(&args).and_then(|o| Ok((ordered(o.metrics, names)?, o.record, o.tally)))
    {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (metrics, record, tally) = outcome;
    for line in record {
        println!("# {line}");
    }
    for note in &tally.notes {
        println!("# FAILED: {note}");
    }
    println!(
        "# checked {} operations, {} failed (failed_share {}); wall {:.1} s",
        tally.attempted,
        tally.failed,
        tally.failed_share(),
        started.elapsed().as_secs_f64()
    );
    let mut json = JsonValue::obj();
    for m in &metrics {
        println!("# {} = {} {} (n = {})", m.name, m.value, m.unit, m.samples);
        json = json.set(
            m.name,
            JsonValue::obj().set("value", m.value).set("unit", m.unit),
        );
    }
    let correct = tally.failed == 0;
    let result = JsonValue::obj()
        .set("correct", correct)
        .set("attempted", tally.attempted.max(1))
        .set("failed", tally.failed)
        .set("metrics", json);
    println!("{}", result.to_compact());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must name exactly the metrics this program prints.
    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc = telemetry::parse_json(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(JsonValue::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(JsonValue::as_str)
                        .expect("name")
                        .to_owned()
                })
                .collect()
        };
        assert_eq!(names("end_to_end"), E2E_METRICS);
        assert_eq!(names("per_layer"), LAYER_METRICS);
        assert_eq!(names("workloads"), ["conflict-dense", "serve"]);
    }

    #[test]
    fn ordered_rejects_missing_and_duplicate_metrics() {
        let m = |name| Metric::new(name, 1.0, "ms", 1);
        assert!(ordered(vec![m("a"), m("b")], &["b", "a"]).is_ok());
        assert!(ordered(vec![m("a")], &["a", "b"]).is_err());
        assert!(ordered(vec![m("a"), m("a")], &["a"]).is_err());
    }
}
