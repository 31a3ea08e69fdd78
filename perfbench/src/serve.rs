//! The `serve` workload: an in-process `AtmServer` on loopback driven by
//! one ingest connection and one subscriber connection.
//!
//! Phase (a) is an open loop: a batch is due every `1 / rate` seconds and
//! each one is timed from its due time, so a stalled server also charges
//! the batches queued behind the stall. Phase (b) is a closed loop of
//! back-to-back `ingest` requests. The subscriber timestamps `cycle`
//! events; a batch reaches its event through the ingest log's `cycle`
//! field, never by summing `ingest_batches`, which breaks when an event
//! is dropped.

use crate::cycle::peak_rss_mb;
use crate::inputs::{cycle_event_line, request_line, BatchGen};
use crate::layers::{probe_batches, Metric};
use crate::spans::{ms, SpanLog};
use crate::stats::{median, percentile, Summary, Tally};
use atm_core::AircraftUpdate;
use atm_server::proto::{entry_from_json, ok_response, updates_to_json};
use atm_server::{replay_log, AtmServer, LogEntry, ServerSpec};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};
use telemetry::{parse_json, JsonValue};

/// Longest wait for any one line from the server.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// One line-protocol connection: `TCP_NODELAY`, one write per request.
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        // A server that stops answering fails the run instead of hanging it.
        stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client { stream, reader })
    }

    /// Send one request line and read the next line back.
    pub fn request(&mut self, line: &str) -> Result<String, String> {
        let mut buf = String::with_capacity(line.len() + 1);
        buf.push_str(line);
        buf.push('\n');
        self.stream
            .write_all(buf.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        self.read_line()
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("connection closed".into()),
            Ok(_) => Ok(line.trim_end().to_owned()),
            Err(e) => Err(format!("read: {e}")),
        }
    }
}

/// Whether a response line is `{"ok":true,...}`.
fn is_ok(line: &str) -> bool {
    line.starts_with(r#"{"ok":true"#)
}

/// A running server and the connection that set it up.
pub struct Running {
    pub addr: SocketAddr,
    pub client: Client,
    handle: JoinHandle<()>,
}

impl Running {
    /// `AtmServer::bind` and `spawn`, until the first `status` reply;
    /// returns the server and that set-up time in seconds.
    pub fn start(spec: &ServerSpec) -> Result<(Running, f64), String> {
        let t = Instant::now();
        let server = AtmServer::bind(spec.clone(), "127.0.0.1:0")?;
        let addr = server.local_addr();
        let handle = server.spawn();
        let mut client = Client::connect(addr)?;
        let status = client.request(r#"{"verb":"status"}"#)?;
        let setup_s = t.elapsed().as_secs_f64();
        if !is_ok(&status) {
            return Err(format!("status failed: {status}"));
        }
        Ok((
            Running {
                addr,
                client,
                handle,
            },
            setup_s,
        ))
    }

    /// The `status` counters.
    pub fn status(&mut self) -> Result<JsonValue, String> {
        parse_json(&self.client.request(r#"{"verb":"status"}"#)?)
    }

    /// `shutdown`, then wait for the server thread to end.
    pub fn stop(mut self) -> Result<(), String> {
        let reply = self.client.request(r#"{"verb":"shutdown"}"#)?;
        self.handle
            .join()
            .map_err(|_| "server thread panicked".to_owned())?;
        if is_ok(&reply) {
            Ok(())
        } else {
            Err(format!("shutdown failed: {reply}"))
        }
    }
}

/// Round trips of `echo` requests carrying `batch`: read, parse, decode,
/// encode and write with no engine lock. Each reply must echo the batch.
pub fn echo_rtts(
    client: &mut Client,
    batch: &[AircraftUpdate],
    count: usize,
    tally: &mut Tally,
) -> Vec<f64> {
    let line = request_line("echo", batch);
    let want = ok_response()
        .set("updates", updates_to_json(batch))
        .to_compact();
    (0..count)
        .map(|_| {
            let t = Instant::now();
            let reply = client.request(&line);
            let rtt = ms(t.elapsed());
            tally.check(reply.as_deref() == Ok(want.as_str()), || {
                format!("echo reply differs: {reply:?}")
            });
            rtt
        })
        .collect()
}

/// One open-loop request: when it was due, sent and answered.
#[derive(Clone, Debug)]
pub struct Sent {
    pub due: Instant,
    pub sent: Instant,
    pub acked: Instant,
    pub reply: Result<String, String>,
}

/// Send request `k` at `start + k × interval` for every due time before
/// `until`. A request that is answered late delays the ones behind it;
/// their latencies still run from their own due times.
pub fn open_loop(
    start: Instant,
    interval: Duration,
    until: Instant,
    mut send: impl FnMut(usize) -> Result<String, String>,
) -> Vec<Sent> {
    let mut out = Vec::new();
    for k in 0.. {
        let due = start + interval * k as u32;
        if due >= until {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            thread::sleep(wait);
        }
        let sent = Instant::now();
        let reply = send(k);
        out.push(Sent {
            due,
            sent,
            acked: Instant::now(),
            reply,
        });
    }
    out
}

/// For each acked batch sequence number, the arrival of the `cycle` event
/// whose `report.cycle` equals the batch's ingest-log `cycle`; `None` when
/// the batch was never acked, never logged, or its event never arrived.
pub fn event_arrivals(
    seqs: &[Option<u64>],
    log: &[LogEntry],
    arrivals: &BTreeMap<u64, Instant>,
) -> Vec<Option<Instant>> {
    let cycle_of: BTreeMap<u64, u64> = log.iter().map(|e| (e.seq, e.cycle)).collect();
    seqs.iter()
        .map(|seq| {
            let cycle = cycle_of.get(&(*seq)?)?;
            arrivals.get(cycle).copied()
        })
        .collect()
}

/// Events a subscriber queue dropped over events it produced.
fn dropped_share(dropped: f64, delivered: f64) -> f64 {
    dropped / (dropped + delivered).max(1.0)
}

/// The `seq` of an `ingest` reply.
fn reply_seq(reply: &Result<String, String>) -> Option<u64> {
    let line = reply.as_ref().ok().filter(|l| is_ok(l))?;
    Some(parse_json(line).ok()?.get("seq")?.as_f64()? as u64)
}

/// What the subscriber saw: `cycle` events by cycle, with arrival time
/// and exact bytes, and a count of every other event line.
struct Subscription {
    cycles: BTreeMap<u64, (Instant, String)>,
    other_lines: u64,
}

/// Subscribe to `region` (every event when `None`) on a connection of its
/// own; the thread records until `closer` is shut down. Returns once the
/// subscription is live.
fn subscribe(
    addr: SocketAddr,
    region: Option<[f32; 4]>,
    seen: Arc<AtomicU64>,
) -> Result<(TcpStream, JoinHandle<Subscription>), String> {
    let mut client = Client::connect(addr)?;
    let closer = client.stream.try_clone().map_err(|e| e.to_string())?;
    let mut request = JsonValue::obj().set("verb", "subscribe");
    if let Some(region) = region {
        let region = region.iter().map(|&v| JsonValue::F64(f64::from(v)));
        request = request.set("region", JsonValue::Arr(region.collect()));
    }
    let line = request.to_compact();
    client
        .stream
        .write_all(format!("{line}\n").as_bytes())
        .map_err(|e| format!("subscribe: {e}"))?;
    let (ready_tx, ready_rx) = mpsc::channel();
    let handle = thread::spawn(move || {
        let mut sub = Subscription {
            cycles: BTreeMap::new(),
            other_lines: 0,
        };
        let mut buf = Vec::new();
        loop {
            buf.clear();
            match client.reader.read_until(b'\n', &mut buf) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
            let at = Instant::now();
            let line = String::from_utf8_lossy(&buf).trim_end().to_owned();
            if line.starts_with(r#"{"event":"cycle""#) {
                let cycle = parse_json(&line)
                    .ok()
                    .and_then(|v| v.get("report")?.get("cycle")?.as_f64());
                if let Some(c) = cycle.map(|c| c as u64) {
                    seen.fetch_max(c + 1, Ordering::SeqCst);
                    sub.cycles.insert(c, (at, line));
                }
            } else if line.starts_with(r#"{"ok""#) || line.starts_with(r#"{"error""#) {
                let _ = ready_tx.send(is_ok(&line));
            } else {
                sub.other_lines += 1;
            }
        }
        sub
    });
    match ready_rx.recv_timeout(Duration::from_secs(10)) {
        Ok(true) => Ok((closer, handle)),
        _ => {
            let _ = closer.shutdown(Shutdown::Both);
            let _ = handle.join();
            Err("subscribe was not acknowledged".into())
        }
    }
}

/// Phase (a) batch rate.
const RATE_HZ: f64 = 4.0;
/// Share of `--seconds` spent in phase (a); phase (b) takes the rest.
const OPEN_SHARE: f64 = 0.75;
/// Set-ups timed for `setup_s`; the last one serves the session.
const SETUPS: usize = 9;
/// `echo` round trips timed in a traced run.
pub const ECHOES: usize = 21;
/// The subscriber's region `[min_x, min_y, max_x, max_y]`: one sector, a
/// quarter of the 256 nm field, so conflict lines stay well inside the
/// queue and every `cycle` event arrives.
const REGION: [f32; 4] = [0.0, 0.0, 128.0, 128.0];

/// Everything a session produced, measured and checked.
pub struct ServeOutcome {
    pub e2e: Vec<Metric>,
    pub layers: Vec<Metric>,
    pub record: Vec<String>,
    pub spans: SpanLog,
    pub tally: Tally,
    /// Lines and batches the client sent, for the `proto` and
    /// `apply_updates` probes.
    pub lines: Vec<String>,
    pub batches: Vec<Vec<AircraftUpdate>>,
}

/// Run the session and check every delivered `cycle` event byte for byte
/// against `replay_log` over the session's ingest log.
pub fn run(
    spec: &ServerSpec,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<ServeOutcome, String> {
    let mut spans = SpanLog::new();
    let mut tally = Tally::default();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut running = None;
    for i in 0..SETUPS {
        let (server, s) = Running::start(spec)?;
        setup_s.push(s);
        if i + 1 < SETUPS {
            server.stop()?;
        } else {
            running = Some(server);
        }
    }
    let mut server = running.ok_or("no set-up requested")?;

    let seen = Arc::new(AtomicU64::new(0));
    let (closer, subscriber) = subscribe(server.addr, Some(REGION), Arc::clone(&seen))?;

    let mut gen = BatchGen::new(seed, spec.n);
    let mut batches = Vec::new();
    let mut lines = Vec::new();
    let mut next_line = |batches: &mut Vec<Vec<AircraftUpdate>>| {
        let b = gen.next_batch();
        let line = request_line("ingest", &b);
        batches.push(b);
        lines.push(line.clone());
        line
    };

    // Phase (a): open loop.
    let start = Instant::now() + Duration::from_millis(50);
    let interval = Duration::from_secs_f64(1.0 / RATE_HZ);
    let until = start + Duration::from_secs_f64(seconds * OPEN_SHARE);
    let client = &mut server.client;
    let open = open_loop(start, interval, until, |_| {
        client.request(&next_line(&mut batches))
    });

    // Phase (b): closed loop.
    let closed_start = Instant::now();
    let closed_until = closed_start + Duration::from_secs_f64(seconds * (1.0 - OPEN_SHARE));
    let mut closed = Vec::new();
    while Instant::now() < closed_until {
        closed.push(client.request(&next_line(&mut batches)));
    }
    let closed_secs = closed_start.elapsed().as_secs_f64();

    let echo_ms = if traced {
        let batch = batches.first().cloned().unwrap_or_default();
        echo_rtts(client, &batch, ECHOES, &mut tally)
    } else {
        Vec::new()
    };

    let log_reply = parse_json(&client.request(r#"{"verb":"log"}"#)?)?;
    let log: Vec<LogEntry> = log_reply
        .get("entries")
        .and_then(JsonValue::as_arr)
        .ok_or("log reply has no entries")?
        .iter()
        .map(entry_from_json)
        .collect::<Result<_, _>>()?;
    // Every logged batch shows in the event of the cycle it preceded.
    let needed = log.iter().map(|e| e.cycle + 1).max().unwrap_or(0);
    let deadline = Instant::now() + Duration::from_secs(10);
    while seen.load(Ordering::SeqCst) < needed && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(5));
    }
    let status = server.status()?;
    server.stop()?;
    let _ = closer.shutdown(Shutdown::Both);
    let sub = subscriber
        .join()
        .map_err(|_| "subscriber thread panicked")?;
    // Read before the oracle builds an engine of its own.
    let peak_mb = peak_rss_mb()?;

    // Oracle: replay the ingest log and byte-compare delivered events.
    let cycles = sub.cycles.keys().next_back().map_or(0, |c| c + 1);
    let t = Instant::now();
    let replay = replay_log(spec, &log, cycles)?;
    let replay_ms = ms(t.elapsed());
    for (c, (_, line)) in &sub.cycles {
        let want = replay.reports.get(*c as usize).map(cycle_event_line);
        tally.check(want.as_deref() == Some(line.as_str()), || {
            format!("cycle {c} event differs from replay")
        });
    }

    let arrivals: BTreeMap<u64, Instant> =
        sub.cycles.iter().map(|(c, (at, _))| (*c, *at)).collect();
    let open_seqs: Vec<Option<u64>> = open.iter().map(|s| reply_seq(&s.reply)).collect();
    let closed_seqs: Vec<Option<u64>> = closed.iter().map(reply_seq).collect();
    let open_events = event_arrivals(&open_seqs, &log, &arrivals);
    let closed_events = event_arrivals(&closed_seqs, &log, &arrivals);
    for (k, (seq, ev)) in open_seqs
        .iter()
        .zip(&open_events)
        .chain(closed_seqs.iter().zip(&closed_events))
        .enumerate()
    {
        tally.check(seq.is_some(), || format!("batch {k}: ingest failed"));
        if seq.is_some() {
            tally.check(ev.is_some(), || {
                format!("batch {k}: its cycle event never arrived")
            });
        }
    }

    let to_event: Vec<f64> = open
        .iter()
        .zip(&open_events)
        .filter_map(|(s, ev)| Some(ms(ev.as_ref()?.saturating_duration_since(s.due))))
        .collect();
    let ack: Vec<f64> = open.iter().map(|s| ms(s.acked - s.due)).collect();
    let late: Vec<f64> = open.iter().map(|s| ms(s.sent - s.due)).collect();
    let acked_closed = closed_seqs.iter().filter(|s| s.is_some()).count();
    let capacity = acked_closed as f64 / closed_secs;
    // Cycle cadence seen by the subscriber during phase (a).
    let in_open: Vec<Instant> = arrivals
        .values()
        .copied()
        .filter(|&at| at >= start && at < until)
        .collect();
    let cadence: Vec<f64> = in_open.windows(2).map(|w| ms(w[1] - w[0])).collect();

    let e2e_summary = Summary::of(&to_event).ok_or("no ingest reached its cycle event")?;
    let mut record = vec![
        format!("ingest->event (phase a): {}", e2e_summary.describe("ms")),
        format!(
            "ingest ack from due time (phase a): {}",
            Summary::of(&ack).map_or("no samples".into(), |s| s.describe("ms"))
        ),
        format!(
            "generator lateness: p50 {:.3} ms, max {:.3} ms over {} batches",
            median(&late).unwrap_or(0.0),
            percentile(&late, 100.0).unwrap_or(0.0),
            late.len()
        ),
        format!("ingest capacity (phase b): {acked_closed} batches acked in {closed_secs:.3} s"),
        format!(
            "cycle cadence at the subscriber (phase a): {}",
            Summary::of(&cadence).map_or("no samples".into(), |s| s.describe("ms"))
        ),
        format!(
            "cycle events verified against replay: {} of {cycles} cycles; other event lines: {}",
            sub.cycles.len(),
            sub.other_lines
        ),
    ];
    let counter = |k: &str| status.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0);
    let dropped = counter("events_dropped");
    record.push(format!(
        "session status: events_dropped {dropped}, ingest_batched {} (one ingest connection)",
        counter("ingest_batched")
    ));
    record.push("peak_rss_mb: VmHWM after the session, before the replay oracle".to_owned());

    let e2e = vec![
        Metric::new(
            "setup_s",
            median(&setup_s).expect("at least one set-up"),
            "s",
            setup_s.len(),
        ),
        Metric::new("latency_p50_ms", e2e_summary.p50, "ms", e2e_summary.n),
        Metric::new("throughput_per_s", capacity, "1/s", acked_closed),
        Metric::new("peak_rss_mb", peak_mb, "MB", 1),
    ];

    let mut layers = Vec::new();
    if traced {
        for (k, (s, ev)) in open.iter().zip(&open_events).enumerate() {
            let end = ev.unwrap_or(s.acked);
            let root = spans.record("ingest.batch", s.due, end, None, k as u64, 1);
            spans.record(
                "client.generator_late",
                s.due,
                s.sent,
                Some(root),
                k as u64,
                1,
            );
            spans.record("server.ack", s.sent, s.acked, Some(root), k as u64, 1);
            if let Some(at) = ev {
                spans.record("server.await_cycle", s.acked, *at, Some(root), k as u64, 1);
            }
        }
        for (c, (at, _)) in &sub.cycles {
            spans.record("subscriber.cycle_event", *at, *at, None, *c, 2);
        }
        layers = vec![
            Metric::new(
                "server.step_ms",
                replay_ms / cycles.max(1) as f64,
                "ms",
                cycles as usize,
            ),
            Metric::new(
                "server.echo_rtt_p50_ms",
                median(&echo_ms).unwrap_or(0.0),
                "ms",
                echo_ms.len(),
            ),
        ];
    }
    Ok(ServeOutcome {
        e2e,
        layers,
        record,
        spans,
        tally,
        lines,
        batches,
    })
}

/// `ingest` requests each of the load probe's two ingest connections sends.
const PROBE_INGESTS: usize = 4;

/// The server's ingest batching and event fan-out under load. A server of
/// `spec` without autostep steps back to back on one connection while two
/// connections each send [`PROBE_INGESTS`] `ingest` requests in a closed
/// loop and one subscriber takes every event, unfiltered. Reports
/// `server.ingest_batched` (requests that rode another request's
/// engine-lock acquisition) and `server.events_dropped_share`.
pub fn load_probe(spec: &ServerSpec, seed: u64, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let spec = ServerSpec {
        autostep_ms: None,
        ..spec.clone()
    };
    let (mut server, _) = Running::start(&spec)?;
    let (closer, subscriber) = subscribe(server.addr, None, Arc::new(AtomicU64::new(0)))?;
    let done = Arc::new(AtomicBool::new(false));
    let mut step_client = Client::connect(server.addr)?;
    let stepper = {
        let done = Arc::clone(&done);
        thread::spawn(move || {
            let mut replies = Vec::new();
            while !done.load(Ordering::SeqCst) {
                replies.push(step_client.request(r#"{"verb":"step"}"#));
            }
            replies
        })
    };
    let batches = probe_batches(seed, spec.n, 2 * PROBE_INGESTS);
    let mut ingesters = Vec::new();
    for part in batches.chunks(PROBE_INGESTS) {
        let lines: Vec<String> = part.iter().map(|b| request_line("ingest", b)).collect();
        let mut client = Client::connect(server.addr)?;
        ingesters.push(thread::spawn(move || {
            lines.iter().map(|l| client.request(l)).collect::<Vec<_>>()
        }));
    }
    let mut ingest_replies = Vec::new();
    for handle in ingesters {
        ingest_replies.extend(handle.join().map_err(|_| "ingest thread panicked")?);
    }
    done.store(true, Ordering::SeqCst);
    let step_replies = stepper.join().map_err(|_| "step thread panicked")?;
    let status = server.status()?;
    server.stop()?;
    let _ = closer.shutdown(Shutdown::Both);
    let sub = subscriber
        .join()
        .map_err(|_| "subscriber thread panicked")?;

    for reply in ingest_replies.iter().chain(&step_replies) {
        tally.check(reply.as_deref().is_ok_and(is_ok), || {
            format!("load probe: request failed: {reply:?}")
        });
    }
    let counter = |k: &str| status.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0);
    let delivered = sub.cycles.len() as u64 + sub.other_lines;
    Ok(vec![
        Metric::new(
            "server.events_dropped_share",
            dropped_share(counter("events_dropped"), delivered as f64),
            "share",
            delivered as usize,
        ),
        Metric::new(
            "server.ingest_batched",
            counter("ingest_batched"),
            "count",
            ingest_replies.len(),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_times_requests_from_their_due_time_through_a_stall() {
        let interval = Duration::from_millis(20);
        let start = Instant::now() + Duration::from_millis(5);
        let until = start + interval * 6;
        let stall = Duration::from_millis(150);
        let sent = open_loop(start, interval, until, |k| {
            if k == 1 {
                thread::sleep(stall);
            }
            Ok(String::new())
        });
        assert_eq!(sent.len(), 6, "every due request is sent");
        for (k, s) in sent.iter().enumerate() {
            assert_eq!(s.due, start + interval * k as u32);
            assert!(s.sent >= s.due);
        }
        // Request 2 was due 20 ms after request 1 but could only be sent
        // once the stalled reply came back: its latency from due time
        // includes the ~130 ms it waited behind the stall.
        let late = sent[2].sent - sent[2].due;
        assert!(late >= stall - interval, "late by {late:?}");
        let from_due = sent[2].acked - sent[2].due;
        assert!(from_due >= stall - interval, "latency {from_due:?}");
        // Service time alone would hide the stall.
        assert!(sent[2].acked - sent[2].sent < interval);
        // The backlog is charged to every request queued behind it.
        assert!(sent[5].sent > sent[5].due + Duration::from_millis(50));
    }

    fn entry(seq: u64, cycle: u64) -> LogEntry {
        LogEntry {
            seq,
            cycle,
            updates: Vec::new(),
        }
    }

    #[test]
    fn batches_map_to_events_through_the_ingest_log() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // Batches 1 and 2 landed before cycle 0, batch 3 before cycle 1,
        // batch 4 before cycle 2; batch 5 was refused.
        let log = vec![entry(1, 0), entry(2, 0), entry(3, 1), entry(4, 2)];
        // The cycle-1 event was dropped. Summing `ingest_batches` over the
        // events that did arrive would credit batch 3 to cycle 2.
        let arrivals: BTreeMap<u64, Instant> = [(0, at(300)), (2, at(900))].into();
        let seqs = [Some(1), Some(2), Some(3), Some(4), None];
        let got = event_arrivals(&seqs, &log, &arrivals);
        assert_eq!(
            got,
            vec![Some(at(300)), Some(at(300)), None, Some(at(900)), None]
        );
    }

    #[test]
    fn unlogged_batches_have_no_event() {
        let arrivals: BTreeMap<u64, Instant> = [(0, Instant::now())].into();
        assert_eq!(
            event_arrivals(&[Some(9)], &[entry(1, 0)], &arrivals),
            vec![None]
        );
    }
}
