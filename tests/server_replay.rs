//! Live-server vs batch-replay determinism (DESIGN.md §14).
//!
//! A live `atm-server` session — ingest batches arriving between major
//! cycles over TCP — must be reproducible offline: re-feeding the
//! recorded ingest log through the batch [`AtmEngine`] via
//! [`replay_log`] has to produce byte-identical `CycleReport` JSON,
//! fleet hashes and telemetry metrics. Checked across shard counts
//! {1, 4} × {Grid, Naive} scans on the hotspot scenario (the densest
//! catalog shape, where the grid's pruning earns its keep).
//!
//! [`AtmEngine`]: atm_core::AtmEngine
//! [`replay_log`]: atm_server::replay_log

use atm_core::AircraftUpdate;
use atm_core::ScanMode;
use atm_server::proto::{entry_from_json, updates_to_json};
use atm_server::{replay_log, AtmServer, LogEntry, ServerSpec};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use telemetry::{parse_json, JsonValue};

struct Client {
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        Client {
            reader: BufReader::new(TcpStream::connect(addr).unwrap()),
        }
    }

    fn send(&mut self, line: &str) -> JsonValue {
        let mut w = self.reader.get_ref().try_clone().unwrap();
        w.write_all(line.as_bytes()).unwrap();
        w.write_all(b"\n").unwrap();
        let mut response = String::new();
        self.reader.read_line(&mut response).unwrap();
        parse_json(response.trim()).unwrap()
    }
}

/// A deterministic ingest batch: `count` aircraft teleported and
/// re-vectored, derived only from `(round, count)`.
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

/// Run one live session (ingest + step over TCP), pull its log, shut it
/// down, and byte-compare the batch replay against everything the live
/// side produced.
fn assert_replay_matches_live(scan: ScanMode, shards: usize) {
    const CYCLES: u64 = 3;
    let metrics_path = std::env::temp_dir().join(format!(
        "atm_replay_metrics_{scan:?}_{shards}_{}.json",
        std::process::id()
    ));
    let spec = ServerSpec {
        n: 200,
        seed: 11,
        scenario: Some("hotspot".to_owned()),
        scan,
        shards,
        metrics_path: Some(metrics_path.to_string_lossy().into_owned()),
        ..ServerSpec::default()
    };

    let server = AtmServer::bind(spec.clone(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let handle = server.spawn();

    let mut c = Client::connect(addr);
    let mut live_reports: Vec<String> = Vec::new();
    for cycle in 0..CYCLES {
        // Two batches land before every cycle, none before the last —
        // exercising both multi-entry and empty boundaries.
        if cycle < CYCLES - 1 {
            for sub in 0..2 {
                let request = JsonValue::obj()
                    .set("verb", "ingest")
                    .set("updates", updates_to_json(&batch(cycle * 2 + sub, 24)));
                let r = c.send(&request.to_compact());
                assert_eq!(r.get("ok"), Some(&JsonValue::Bool(true)));
            }
        }
        let r = c.send("{\"verb\":\"step\"}");
        let reports = r.get("reports").unwrap().as_arr().unwrap();
        live_reports.extend(reports.iter().map(JsonValue::to_compact));
    }

    let log_response = c.send("{\"verb\":\"log\"}");
    let log: Vec<LogEntry> = log_response
        .get("entries")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|e| entry_from_json(e).unwrap())
        .collect();
    assert_eq!(log.len(), (CYCLES as usize - 1) * 2);

    c.send("{\"verb\":\"shutdown\"}");
    handle.join().unwrap();
    let live_metrics = std::fs::read_to_string(&metrics_path).unwrap();
    std::fs::remove_file(&metrics_path).ok();

    let replay = replay_log(&spec, &log, CYCLES).unwrap();
    let replay_reports: Vec<String> = replay
        .reports
        .iter()
        .map(|r| r.to_json().to_compact())
        .collect();
    assert_eq!(
        replay_reports, live_reports,
        "CycleReports must replay byte-identically ({scan:?}, shards={shards})"
    );
    assert_eq!(
        replay.metrics_json, live_metrics,
        "telemetry metrics must replay byte-identically ({scan:?}, shards={shards})"
    );
}

#[test]
fn replay_matches_live_grid_unsharded() {
    assert_replay_matches_live(ScanMode::Grid, 1);
}

#[test]
fn replay_matches_live_grid_sharded() {
    assert_replay_matches_live(ScanMode::Grid, 4);
}

#[test]
fn replay_matches_live_naive_unsharded() {
    assert_replay_matches_live(ScanMode::Naive, 1);
}

#[test]
fn replay_matches_live_naive_sharded() {
    assert_replay_matches_live(ScanMode::Naive, 4);
}

/// The fleet hashes inside the replayed reports are real: independently
/// recomputing the hash from a third engine stepping the same spec and
/// log gives the same sequence.
#[test]
fn replayed_fleet_hashes_are_independent_of_the_transport() {
    let spec = ServerSpec {
        n: 150,
        seed: 3,
        scenario: Some("hotspot".to_owned()),
        ..ServerSpec::default()
    };
    let log = vec![
        LogEntry {
            seq: 1,
            cycle: 0,
            updates: batch(0, 10),
        },
        LogEntry {
            seq: 2,
            cycle: 1,
            updates: batch(1, 10),
        },
    ];
    let a = replay_log(&spec, &log, 2).unwrap();
    let b = replay_log(&spec, &log, 2).unwrap();
    for (ra, rb) in a.reports.iter().zip(&b.reports) {
        assert_eq!(ra.fleet_hash, rb.fleet_hash);
    }
}
