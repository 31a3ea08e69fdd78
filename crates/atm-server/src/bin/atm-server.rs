//! CLI for the ATM service layer.
//!
//! ```text
//! atm-server serve        [--addr HOST:PORT] [spec flags]
//! atm-server replay       --log FILE --cycles N [spec flags] [--metrics-out FILE]
//! atm-server drive        --addr HOST:PORT --log FILE --cycles N [--events-out FILE] [--shutdown]
//! atm-server coordinator  --log FILE --cycles N [--listen HOST:PORT] [--port-file FILE]
//!                         [spec flags] [--metrics-out FILE]
//! atm-server shard-worker --connect HOST:PORT [--retry-ms T] [--retry-attempts K]
//!                         [--die-after-waves W]
//! ```
//!
//! Spec flags: `--n`, `--seed`, `--scenario SLUG`, `--scan naive|grid`,
//! `--shards K`, `--platform SLUG`, `--autostep-ms T`, `--queue-cap Q`,
//! `--metrics-out FILE`, `--log-out FILE`.
//!
//! `serve` runs until a client sends the `shutdown` verb. `replay` re-feeds
//! a recorded ingest log through the batch engine and prints one
//! `CycleReport` JSON line per cycle. `drive` is the smoke client: it
//! subscribes, replays an ingest log against a *live* server (ingesting
//! each batch at its recorded cycle boundary, stepping in between), and
//! prints every streamed event line in arrival order.
//!
//! `coordinator` is `replay` with the detect waves farmed out to
//! `--shards`² shard-worker *processes* over the wire codec (DESIGN.md
//! §15): it listens, waits for every worker to connect, then steps the
//! recorded cycles with each detect's waves running across the fleet of
//! workers — producing byte-identical stdout and `--metrics-out` to the
//! in-process `replay` of the same spec. Any worker fault aborts the run
//! with a nonzero exit and *no* artifacts. `shard-worker` connects (with
//! retry, so it can start before the coordinator) and serves halo imports,
//! wave claims and commits until the coordinator shuts the link down;
//! `--die-after-waves` injects a mid-protocol crash for fault testing.

use atm_core::backends::TransportDetectBackend;
use atm_core::detect::DetectStats;
use atm_core::wire::run_shard_worker_with;
use atm_core::{AtmEngine, SocketTransport, WorkerOptions};
use atm_server::proto::{entry_to_json, updates_to_json};
use atm_server::spec::scan_from_slug;
use atm_server::{parse_log, replay_log, AtmServer, ServerSpec};
use sim_clock::OpCounter;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::process::ExitCode;
use telemetry::{parse_json, JsonValue, Recorder};

fn fail(msg: &str) -> ExitCode {
    eprintln!("atm-server: {msg}");
    ExitCode::FAILURE
}

struct Args {
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut flags = Vec::new();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            let name = a
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{a}`"))?;
            if name == "shutdown" {
                flags.push((name.to_owned(), "true".to_owned()));
                continue;
            }
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            flags.push((name.to_owned(), value.clone()));
        }
        Ok(Args { flags })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn get_parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.get(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("bad value for --{name}: `{v}`")),
        }
    }
}

fn spec_from_args(args: &Args) -> Result<ServerSpec, String> {
    let mut spec = ServerSpec::default();
    if let Some(n) = args.get_parsed("n")? {
        spec.n = n;
    }
    if let Some(seed) = args.get_parsed("seed")? {
        spec.seed = seed;
    }
    if let Some(slug) = args.get("scenario") {
        spec.scenario = Some(slug.to_owned());
    }
    if let Some(scan) = args.get("scan") {
        spec.scan = scan_from_slug(scan).ok_or_else(|| format!("unknown scan mode `{scan}`"))?;
    }
    if let Some(shards) = args.get_parsed("shards")? {
        spec.shards = shards;
    }
    if let Some(platform) = args.get("platform") {
        spec.platform = platform.to_owned();
    }
    if let Some(ms) = args.get_parsed("autostep-ms")? {
        spec.autostep_ms = Some(ms);
    }
    if let Some(cap) = args.get_parsed("queue-cap")? {
        spec.queue_cap = cap;
    }
    if let Some(path) = args.get("metrics-out") {
        spec.metrics_path = Some(path.to_owned());
    }
    if let Some(path) = args.get("log-out") {
        spec.log_path = Some(path.to_owned());
    }
    Ok(spec)
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let spec = spec_from_args(args)?;
    let addr = args.get("addr").unwrap_or("127.0.0.1:4750");
    let server = AtmServer::bind(spec, addr)?;
    eprintln!("atm-server: listening on {}", server.local_addr());
    server.run();
    eprintln!("atm-server: stopped");
    Ok(())
}

fn cmd_replay(args: &Args) -> Result<(), String> {
    let spec = spec_from_args(args)?;
    let path = args.get("log").ok_or("replay needs --log FILE")?;
    let cycles: u64 = args
        .get_parsed("cycles")?
        .ok_or("replay needs --cycles N")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let log = parse_log(&text)?;
    let outcome = replay_log(&spec, &log, cycles)?;
    let mut stdout = std::io::stdout().lock();
    for report in &outcome.reports {
        writeln!(stdout, "{}", report.to_json().to_compact()).map_err(|e| e.to_string())?;
    }
    if let Some(out) = args.get("metrics-out") {
        std::fs::write(out, &outcome.metrics_json).map_err(|e| format!("write {out}: {e}"))?;
    }
    Ok(())
}

struct Conn {
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        Ok(Conn {
            reader: BufReader::new(stream),
        })
    }

    fn send(&mut self, line: &str) -> Result<JsonValue, String> {
        let mut w = self
            .reader
            .get_ref()
            .try_clone()
            .map_err(|e| e.to_string())?;
        w.write_all(line.as_bytes()).map_err(|e| e.to_string())?;
        w.write_all(b"\n").map_err(|e| e.to_string())?;
        self.recv()
    }

    fn recv_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| e.to_string())?;
        if n == 0 {
            return Err("server closed the connection".to_owned());
        }
        Ok(line.trim().to_owned())
    }

    fn recv(&mut self) -> Result<JsonValue, String> {
        parse_json(&self.recv_line()?)
    }
}

fn expect_ok(response: &JsonValue, context: &str) -> Result<(), String> {
    if response.get("ok") == Some(&JsonValue::Bool(true)) {
        Ok(())
    } else {
        Err(format!("{context} failed: {}", response.to_compact()))
    }
}

fn cmd_drive(args: &Args) -> Result<(), String> {
    let addr = args.get("addr").ok_or("drive needs --addr HOST:PORT")?;
    let path = args.get("log").ok_or("drive needs --log FILE")?;
    let cycles: u64 = args.get_parsed("cycles")?.ok_or("drive needs --cycles N")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let log = parse_log(&text)?;

    let mut subscriber = Conn::connect(addr)?;
    expect_ok(&subscriber.send("{\"verb\":\"subscribe\"}")?, "subscribe")?;
    let mut driver = Conn::connect(addr)?;

    let mut next = 0usize;
    for cycle in 0..cycles {
        while next < log.len() && log[next].cycle <= cycle {
            let request = JsonValue::obj()
                .set("verb", "ingest")
                .set("updates", updates_to_json(&log[next].updates));
            let response = driver.send(&request.to_compact())?;
            expect_ok(
                &response,
                &format!("ingest {}", entry_to_json(&log[next]).to_compact()),
            )?;
            next += 1;
        }
        expect_ok(&driver.send("{\"verb\":\"step\"}")?, "step")?;
    }

    // Collect the streamed events: every line on the subscription
    // connection, until the final cycle's `cycle` event has arrived.
    let mut events = Vec::new();
    let mut cycles_seen = 0u64;
    while cycles_seen < cycles {
        let line = subscriber.recv_line()?;
        let v = parse_json(&line)?;
        if v.get("event").and_then(JsonValue::as_str) == Some("cycle") {
            cycles_seen += 1;
        }
        events.push(line);
    }

    if args.get("shutdown").is_some() {
        expect_ok(&driver.send("{\"verb\":\"shutdown\"}")?, "shutdown")?;
    }

    let body = events.join("\n") + "\n";
    match args.get("events-out") {
        Some(out) => std::fs::write(out, body).map_err(|e| format!("write {out}: {e}"))?,
        None => print!("{body}"),
    }
    Ok(())
}

/// Run a recorded ingest log across `shards`² shard-worker processes:
/// listen, accept every worker, then step the cycles with detect waves
/// flowing over the serialized transport. Success output is byte-identical
/// to `replay` of the same spec; any transport fault aborts before any
/// artifact is written.
fn cmd_coordinator(args: &Args) -> Result<(), String> {
    let mut spec = spec_from_args(args)?;
    if args.get("platform").is_none() {
        // The coordinator replays detect from merged totals, so it needs a
        // totals-priced platform; the Xeon model is the canonical one.
        spec.platform = "xeon-multicore".to_owned();
    }
    let path = args.get("log").ok_or("coordinator needs --log FILE")?;
    let cycles: u64 = args
        .get_parsed("cycles")?
        .ok_or("coordinator needs --cycles N")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let log = parse_log(&text)?;

    // Probe totals-pricing on a throwaway backend — probing the engine's
    // own instance would advance its jitter seed and break replay identity.
    let mut probe = spec.build_backend()?;
    if probe
        .price_detect_totals(0, &DetectStats::default(), &OpCounter::new())
        .is_none()
    {
        return Err(format!(
            "platform `{}` cannot price detect from merged totals; a \
             coordinator needs a totals-priced platform (e.g. xeon-multicore)",
            spec.platform
        ));
    }

    let listen = args.get("listen").unwrap_or("127.0.0.1:4751");
    let listener = TcpListener::bind(listen).map_err(|e| format!("bind {listen}: {e}"))?;
    let local = listener.local_addr().map_err(|e| e.to_string())?;
    let shard_count = spec.shards * spec.shards;
    eprintln!(
        "atm-server: coordinator listening on {local}, waiting for {shard_count} shard worker(s)"
    );
    if let Some(pf) = args.get("port-file") {
        std::fs::write(pf, format!("{local}\n")).map_err(|e| format!("write {pf}: {e}"))?;
    }
    let transport =
        SocketTransport::accept_workers(&listener, shard_count).map_err(|e| e.to_string())?;
    eprintln!("atm-server: all {shard_count} shard worker(s) connected");

    let backend = TransportDetectBackend::new(spec.build_backend()?, Box::new(transport));
    let fault = backend.fault_handle();
    let mut engine = AtmEngine::new(spec.build_airfield()?, Box::new(backend));
    let recorder = Recorder::enabled();
    engine.set_recorder(recorder.clone());
    engine.begin_run();

    // The replay loop, buffered: nothing is printed or flushed until every
    // cycle survived, so a failed run leaves no partial artifact behind.
    let mut next = 0usize;
    let mut reports = Vec::with_capacity(cycles as usize);
    for cycle in 0..cycles {
        while next < log.len() && log[next].cycle <= cycle {
            engine.apply_updates(&log[next].updates);
            next += 1;
        }
        let report = engine.step_major_cycle();
        if let Some(msg) = fault.lock().expect("transport fault slot").clone() {
            return Err(format!("halo exchange failed at cycle {cycle}: {msg}"));
        }
        reports.push(report);
    }

    let mut stdout = std::io::stdout().lock();
    for report in &reports {
        writeln!(stdout, "{}", report.to_json().to_compact()).map_err(|e| e.to_string())?;
    }
    if let Some(out) = args.get("metrics-out") {
        std::fs::write(out, recorder.metrics_json()).map_err(|e| format!("write {out}: {e}"))?;
    }
    Ok(())
}

/// Serve one coordinator as a shard worker, connecting with retry so
/// workers can launch before (or while) the coordinator binds.
fn cmd_shard_worker(args: &Args) -> Result<(), String> {
    let addr = args
        .get("connect")
        .ok_or("shard-worker needs --connect HOST:PORT")?;
    let retry_ms: u64 = args.get_parsed("retry-ms")?.unwrap_or(50);
    let attempts: u64 = args.get_parsed("retry-attempts")?.unwrap_or(200);
    let opts = WorkerOptions {
        die_after_waves: args.get_parsed("die-after-waves")?,
    };
    let mut stream = None;
    for attempt in 0..attempts {
        match TcpStream::connect(addr) {
            Ok(s) => {
                stream = Some(s);
                break;
            }
            Err(e) if attempt + 1 == attempts => {
                return Err(format!("connect {addr}: {e} (after {attempts} attempts)"));
            }
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(retry_ms)),
        }
    }
    let stream = stream.ok_or_else(|| format!("connect {addr}: no coordinator"))?;
    let shard = run_shard_worker_with(stream, opts).map_err(|e| e.to_string())?;
    eprintln!("atm-server: shard {shard} worker done");
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(mode) = argv.first().map(String::as_str) else {
        return fail(
            "usage: atm-server <serve|replay|drive|coordinator|shard-worker> [flags] \
             (see --help in crate docs)",
        );
    };
    let args = match Args::parse(&argv[1..]) {
        Ok(a) => a,
        Err(e) => return fail(&e),
    };
    let result = match mode {
        "serve" => cmd_serve(&args),
        "replay" => cmd_replay(&args),
        "drive" => cmd_drive(&args),
        "coordinator" => cmd_coordinator(&args),
        "shard-worker" => cmd_shard_worker(&args),
        other => Err(format!("unknown mode `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&e),
    }
}
