//! Cross-process differential suite for the process-per-shard halo
//! exchange (DESIGN.md §15): `atm-server coordinator` plus real
//! `atm-server shard-worker` OS processes over localhost sockets must
//! produce byte-identical `CycleReport` lines and telemetry metrics to the
//! in-process [`replay_log`] of the same spec — across {Grid, Naive}
//! scans × {1, 4} worker processes × two scenario-corpus shapes. A worker
//! killed mid-protocol must surface as a clean nonzero coordinator exit
//! with *no* artifacts, never a hang.
//!
//! [`replay_log`]: atm_server::replay_log

use atm_core::{AircraftUpdate, ScanMode};
use atm_server::{replay_log, write_log, LogEntry, ServerSpec};
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

const CYCLES: u64 = 3;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("atm_proc_shard_{}_{name}", std::process::id()))
}

/// A deterministic ingest batch derived only from `(round, count)` — the
/// same arithmetic the replay differential uses, so shapes are comparable.
fn batch(round: u64, count: u32) -> Vec<AircraftUpdate> {
    (0..count)
        .map(|i| {
            let k = round * 37 + u64::from(i) * 11;
            AircraftUpdate {
                id: (k % 200) as u32,
                x: ((k % 640) as f32) - 320.0,
                y: ((k % 580) as f32) - 290.0,
                alt: 8_000.0 + ((k % 47) as f32) * 500.0,
                dx: 0.01 + ((k % 5) as f32) * 0.005,
                dy: -0.01 - ((k % 3) as f32) * 0.005,
            }
        })
        .collect()
}

fn ingest_log() -> Vec<LogEntry> {
    let mut log = Vec::new();
    let mut seq = 0u64;
    for cycle in 0..CYCLES - 1 {
        for sub in 0..2 {
            seq += 1;
            log.push(LogEntry {
                seq,
                cycle,
                updates: batch(cycle * 2 + sub, 24),
            });
        }
    }
    log
}

fn spec(scan: ScanMode, shards: usize, scenario: &str) -> ServerSpec {
    ServerSpec {
        n: 200,
        seed: 11,
        scenario: Some(scenario.to_owned()),
        scan,
        shards,
        platform: "xeon-multicore".to_owned(),
        ..ServerSpec::default()
    }
}

fn scan_slug(scan: ScanMode) -> &'static str {
    atm_server::spec::scan_to_slug(scan)
}

/// Poll `child` until it exits; kill and panic past the deadline so a hung
/// coordinator fails the test instead of wedging the suite.
fn wait_with_deadline(child: &mut Child, what: &str, secs: u64) -> ExitStatus {
    let deadline = Instant::now() + Duration::from_secs(secs);
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status;
        }
        if Instant::now() > deadline {
            child.kill().ok();
            child.wait().ok();
            panic!("{what} did not exit within {secs}s");
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Read the coordinator's `--port-file` once it appears.
fn wait_for_port(path: &PathBuf, coordinator: &mut Child) -> String {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(text) = std::fs::read_to_string(path) {
            let addr = text.trim();
            if !addr.is_empty() {
                return addr.to_owned();
            }
        }
        if let Some(status) = coordinator.try_wait().expect("try_wait") {
            panic!("coordinator exited ({status}) before publishing its port");
        }
        assert!(Instant::now() < deadline, "no port file within 30s");
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Launch a coordinator plus its `shards`² worker processes over the given
/// log, wait for everything, and return `(stdout, metrics, ExitStatus)`.
fn run_cluster(
    tag: &str,
    spec: &ServerSpec,
    log: &[LogEntry],
    die_after_waves: Option<u64>,
) -> (String, Option<String>, ExitStatus) {
    let bin = env!("CARGO_BIN_EXE_atm-server");
    let log_path = tmp(&format!("{tag}.log.jsonl"));
    let port_path = tmp(&format!("{tag}.port"));
    let metrics_path = tmp(&format!("{tag}.metrics.json"));
    std::fs::write(&log_path, write_log(log)).unwrap();
    std::fs::remove_file(&port_path).ok();
    std::fs::remove_file(&metrics_path).ok();

    let mut coordinator = Command::new(bin)
        .args([
            "coordinator",
            "--listen",
            "127.0.0.1:0",
            "--port-file",
            port_path.to_str().unwrap(),
            "--log",
            log_path.to_str().unwrap(),
            "--cycles",
            &CYCLES.to_string(),
            "--n",
            &spec.n.to_string(),
            "--seed",
            &spec.seed.to_string(),
            "--scenario",
            spec.scenario.as_deref().unwrap(),
            "--scan",
            scan_slug(spec.scan),
            "--shards",
            &spec.shards.to_string(),
            "--platform",
            &spec.platform,
            "--metrics-out",
            metrics_path.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn coordinator");
    let addr = wait_for_port(&port_path, &mut coordinator);

    let shard_count = spec.shards * spec.shards;
    let mut workers: Vec<Child> = (0..shard_count)
        .map(|w| {
            let mut cmd = Command::new(bin);
            cmd.args(["shard-worker", "--connect", &addr, "--retry-ms", "20"]);
            if let (0, Some(k)) = (w, die_after_waves) {
                cmd.args(["--die-after-waves", &k.to_string()]);
            }
            cmd.stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .expect("spawn shard worker")
        })
        .collect();

    let status = wait_with_deadline(&mut coordinator, "coordinator", 120);
    for (w, worker) in workers.iter_mut().enumerate() {
        wait_with_deadline(worker, &format!("shard worker {w}"), 30);
    }
    let mut stdout = String::new();
    use std::io::Read;
    coordinator
        .stdout
        .take()
        .unwrap()
        .read_to_string(&mut stdout)
        .unwrap();
    let metrics = std::fs::read_to_string(&metrics_path).ok();
    for p in [&log_path, &port_path, &metrics_path] {
        std::fs::remove_file(p).ok();
    }
    (stdout, metrics, status)
}

/// The differential: every fleet byte, booked op, modeled time and metric
/// the coordinator emits must equal the single-process replay's.
fn assert_cluster_matches_replay(tag: &str, scan: ScanMode, shards: usize, scenario: &str) {
    let spec = spec(scan, shards, scenario);
    let log = ingest_log();
    let (stdout, metrics, status) = run_cluster(tag, &spec, &log, None);
    assert!(status.success(), "coordinator failed ({status}): {stdout}");

    let expected = replay_log(&spec, &log, CYCLES).unwrap();
    let expected_stdout: String = expected
        .reports
        .iter()
        .map(|r| r.to_json().to_compact() + "\n")
        .collect();
    assert_eq!(
        stdout, expected_stdout,
        "CycleReports must be byte-identical across process boundaries \
         ({scan:?}, shards={shards}, {scenario})"
    );
    assert_eq!(
        metrics.as_deref(),
        Some(expected.metrics_json.as_str()),
        "telemetry metrics must be byte-identical across process boundaries \
         ({scan:?}, shards={shards}, {scenario})"
    );
}

#[test]
fn one_worker_grid_hotspot_matches_in_process_replay() {
    assert_cluster_matches_replay("grid1_hotspot", ScanMode::Grid, 1, "hotspot");
}

#[test]
fn four_workers_grid_hotspot_matches_in_process_replay() {
    assert_cluster_matches_replay("grid4_hotspot", ScanMode::Grid, 2, "hotspot");
}

#[test]
fn one_worker_naive_crossing_matches_in_process_replay() {
    assert_cluster_matches_replay("naive1_crossing", ScanMode::Naive, 1, "crossing");
}

#[test]
fn four_workers_naive_crossing_matches_in_process_replay() {
    assert_cluster_matches_replay("naive4_crossing", ScanMode::Naive, 2, "crossing");
}

/// A worker dying on its first wave claim: the coordinator must exit
/// nonzero promptly (the deadline in `wait_with_deadline` is the no-hang
/// assertion) and leave no partial artifact — no metrics file, no report
/// lines.
#[test]
fn dead_worker_aborts_the_coordinator_without_artifacts() {
    let spec = spec(ScanMode::Grid, 1, "hotspot");
    let log = ingest_log();
    let (stdout, metrics, status) = run_cluster("death", &spec, &log, Some(0));
    assert!(!status.success(), "a dead worker must fail the run");
    assert_eq!(stdout, "", "no report lines may leak from a failed run");
    assert_eq!(metrics, None, "no metrics artifact may be written");
}
