//! The blocking TCP server: one reader thread per connection, per-client
//! event subscriptions with bounded drop-oldest queues, an optional
//! background cycle loop, and a graceful shutdown path that flushes the
//! telemetry metrics snapshot and the append-only ingest log.
//!
//! Framing and verbs are specified in DESIGN.md §14. In short: every
//! request is one line of JSON carrying a `verb`; every request gets
//! exactly one `{"ok":...}` response line; subscribed clients additionally
//! receive asynchronous `{"event":...}` lines. Lines are written whole
//! under a per-connection lock, so responses and events never interleave
//! mid-line.

use crate::proto::{
    error_response, ok_response, read_line_bounded, updates_from_json, updates_to_json, write_log,
    LogEntry, MAX_LINE_BYTES,
};
use crate::spec::ServerSpec;
use atm_core::engine::CycleReport;
use atm_core::{AircraftUpdate, AtmEngine, Frame, FrameStream};
use std::collections::{HashSet, VecDeque};
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;
use telemetry::{parse_json, JsonValue, Recorder};

/// The magic prefix selecting the binary-frame protocol. A connection whose
/// first four bytes are `ATMB` speaks length-prefixed [`Frame::Json`]
/// frames (the [`atm_core::wire`] codec) instead of newline-delimited text;
/// the verbs and JSON bodies are identical in both modes.
pub const BINARY_MAGIC: &[u8; 4] = b"ATMB";

/// A bounded drop-oldest event queue feeding one subscriber's writer
/// thread: the backpressure contract. When a slow client lets `cap`
/// events pile up, each new event evicts the oldest queued one and the
/// drop counter advances — ingest and the cycle loop never block on a
/// subscriber.
pub struct EventQueue {
    inner: Mutex<QueueInner>,
    ready: Condvar,
    cap: usize,
}

struct QueueInner {
    items: VecDeque<String>,
    dropped: u64,
    closed: bool,
}

impl EventQueue {
    /// A queue holding at most `cap` pending events.
    pub fn new(cap: usize) -> EventQueue {
        EventQueue {
            inner: Mutex::new(QueueInner {
                items: VecDeque::new(),
                dropped: 0,
                closed: false,
            }),
            ready: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Enqueue one event line, evicting the oldest when full. Returns the
    /// number of events dropped so far.
    pub fn push(&self, line: &str) -> u64 {
        let mut q = self.inner.lock().expect("event queue poisoned");
        if q.closed {
            return q.dropped;
        }
        if q.items.len() >= self.cap {
            q.items.pop_front();
            q.dropped += 1;
        }
        q.items.push_back(line.to_owned());
        self.ready.notify_one();
        q.dropped
    }

    /// Block until an event is available (`Some`) or the queue is closed
    /// and drained (`None`).
    pub fn pop(&self) -> Option<String> {
        let mut q = self.inner.lock().expect("event queue poisoned");
        loop {
            if let Some(item) = q.items.pop_front() {
                return Some(item);
            }
            if q.closed {
                return None;
            }
            q = self.ready.wait(q).expect("event queue poisoned");
        }
    }

    /// Close the queue: `pop` drains what is left, then returns `None`.
    pub fn close(&self) {
        let mut q = self.inner.lock().expect("event queue poisoned");
        q.closed = true;
        self.ready.notify_all();
    }

    /// Events evicted so far.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("event queue poisoned").dropped
    }

    /// Pending events.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("event queue poisoned").items.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A subscriber's event filter, applied *before* its bounded queue so a
/// narrow subscription never pays queue slots (or drops) for events it
/// filtered out. `cycle` events always pass; `conflict` events must match
/// every populated field.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EventFilter {
    /// Lat/lon box `[min_x, min_y, max_x, max_y]` (nm): the conflicting
    /// aircraft's position must fall inside it (inclusive).
    pub region: Option<[f32; 4]>,
    /// Aircraft id set: the conflicting aircraft — or its partner — must be
    /// in it.
    pub aircraft: Option<HashSet<u32>>,
}

impl EventFilter {
    /// Whether a conflict at `(x, y)` involving `id` vs `col_with` passes.
    fn passes(&self, id: u32, col_with: u32, x: f32, y: f32) -> bool {
        if let Some([min_x, min_y, max_x, max_y]) = self.region {
            if x < min_x || x > max_x || y < min_y || y > max_y {
                return false;
            }
        }
        if let Some(ids) = &self.aircraft {
            if !ids.contains(&id) && !ids.contains(&col_with) {
                return false;
            }
        }
        true
    }

    /// Whether any field is populated (an empty filter passes everything).
    fn is_active(&self) -> bool {
        self.region.is_some() || self.aircraft.is_some()
    }
}

/// One subscriber: its event queue and the filter applied before it.
struct Subscriber {
    queue: Arc<EventQueue>,
    filter: EventFilter,
}

/// State behind the big lock: the engine, the ingest log and the
/// subscriber roster.
struct Shared {
    engine: AtmEngine,
    log: Vec<LogEntry>,
    subs: Vec<Subscriber>,
}

/// One queued ingest request: its parsed updates and the slot its response
/// lands in. Whichever connection thread next acquires the engine lock
/// drains every pending job under that single acquisition (see `ingest` in
/// [`dispatch`]), so its owner always finds the slot filled once it holds —
/// or once anyone held — the lock past its enqueue.
struct IngestJob {
    updates: Vec<AircraftUpdate>,
    slot: Arc<Mutex<Option<JsonValue>>>,
}

struct ServerState {
    shared: Mutex<Shared>,
    spec: ServerSpec,
    recorder: Recorder,
    stop: AtomicBool,
    events_dropped: AtomicU64,
    /// Ingest requests waiting for the engine lock (drained in batches).
    ingest_pending: Mutex<VecDeque<IngestJob>>,
    /// Ingest requests that rode another request's lock acquisition: each
    /// multi-job drain adds `jobs - 1`. Zero under serial clients.
    ingest_batched: AtomicU64,
    addr: SocketAddr,
}

impl ServerState {
    /// Step one major cycle under the lock and fan its events out to every
    /// subscriber: one `cycle` event, then one `conflict` event per
    /// aircraft left in conflict.
    fn step_one(&self, shared: &mut Shared) -> CycleReport {
        let report = shared.engine.step_major_cycle();
        if !shared.subs.is_empty() {
            let cycle_line = JsonValue::obj()
                .set("event", "cycle")
                .set("report", report.to_json())
                .to_compact();
            // One rendered line per conflict, with the coordinates the
            // per-subscriber filters key on.
            let mut conflicts: Vec<(String, u32, u32, f32, f32)> = Vec::new();
            for (id, a) in shared.engine.aircraft().iter().enumerate() {
                if a.col {
                    let line = JsonValue::obj()
                        .set("event", "conflict")
                        .set("cycle", report.cycle)
                        .set("id", id)
                        // Always a real partner index here (`a.col` is
                        // set), so it serializes as an integer.
                        .set("col_with", a.col_with as u64)
                        .to_compact();
                    conflicts.push((line, id as u32, a.col_with as u32, a.x, a.y));
                }
            }
            let mut dropped = 0;
            for sub in &shared.subs {
                dropped = dropped.max(sub.queue.push(&cycle_line));
                for (line, id, col_with, x, y) in &conflicts {
                    if sub.filter.passes(*id, *col_with, *x, *y) {
                        dropped = dropped.max(sub.queue.push(line));
                    }
                }
            }
            self.events_dropped.fetch_max(dropped, Ordering::Relaxed);
        }
        report
    }

    /// Flush the shutdown artifacts: the final metrics snapshot and the
    /// ingest log, at the paths the spec configured.
    fn flush_artifacts(&self, shared: &Shared) -> std::io::Result<()> {
        if let Some(path) = &self.spec.metrics_path {
            std::fs::write(path, self.recorder.metrics_json())?;
        }
        if let Some(path) = &self.spec.log_path {
            std::fs::write(path, write_log(&shared.log))?;
        }
        Ok(())
    }
}

/// The server: bind, then [`AtmServer::run`] the accept loop.
pub struct AtmServer {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl AtmServer {
    /// Build the spec's engine (telemetry enabled) and bind `addr`
    /// (`127.0.0.1:0` picks a free port; read it back with
    /// [`AtmServer::local_addr`]).
    pub fn bind(spec: ServerSpec, addr: &str) -> Result<AtmServer, String> {
        let mut engine = spec.build_engine()?;
        let recorder = Recorder::enabled();
        engine.set_recorder(recorder.clone());
        engine.begin_run();
        let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
        let local = listener.local_addr().map_err(|e| e.to_string())?;
        Ok(AtmServer {
            listener,
            state: Arc::new(ServerState {
                shared: Mutex::new(Shared {
                    engine,
                    log: Vec::new(),
                    subs: Vec::new(),
                }),
                spec,
                recorder,
                stop: AtomicBool::new(false),
                events_dropped: AtomicU64::new(0),
                ingest_pending: Mutex::new(VecDeque::new()),
                ingest_batched: AtomicU64::new(0),
                addr: local,
            }),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Run the accept loop until a `shutdown` verb arrives. Each
    /// connection gets a reader thread; the optional background cycle loop
    /// steps the engine every `spec.autostep_ms`.
    pub fn run(self) {
        let state = self.state;
        let stepper = state.spec.autostep_ms.map(|interval| {
            let state = Arc::clone(&state);
            thread::spawn(move || {
                while !state.stop.load(Ordering::SeqCst) {
                    thread::sleep(Duration::from_millis(interval));
                    if state.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let mut shared = state.shared.lock().expect("server state poisoned");
                    state.step_one(&mut shared);
                }
            })
        });

        for conn in self.listener.incoming() {
            if state.stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = conn else { continue };
            let state = Arc::clone(&state);
            thread::spawn(move || handle_client(stream, state));
        }
        if let Some(h) = stepper {
            let _ = h.join();
        }
    }

    /// Run on a background thread (tests, examples).
    pub fn spawn(self) -> thread::JoinHandle<()> {
        thread::spawn(move || self.run())
    }
}

/// A connection's write half: both request responses and subscription
/// events go through it, whole messages under one lock so they never
/// interleave. In binary mode every message travels as one
/// [`Frame::Json`]; in text mode as one newline-terminated line.
struct ConnWriter {
    stream: Mutex<TcpStream>,
    binary: bool,
}

/// Write one whole response/event message under the connection's write
/// lock.
fn write_line(writer: &ConnWriter, line: &str) -> std::io::Result<()> {
    let mut w = writer.stream.lock().expect("connection writer poisoned");
    if writer.binary {
        let payload = Frame::Json {
            body: line.to_owned(),
        }
        .encode()
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        w.write_all(&(payload.len() as u32).to_le_bytes())?;
        w.write_all(&payload)?;
    } else {
        w.write_all(line.as_bytes())?;
        w.write_all(b"\n")?;
    }
    w.flush()
}

fn handle_client(stream: TcpStream, state: Arc<ServerState>) {
    // Sniff the protocol: a connection opening with the `ATMB` magic
    // speaks binary frames, anything else (JSON starts with `{` or
    // whitespace) speaks text lines. `peek` never consumes, so the text
    // path sees its first line intact.
    let mut magic = [0u8; 4];
    let binary = loop {
        match stream.peek(&mut magic) {
            Ok(0) | Err(_) => return,
            Ok(n) if magic[..n] != BINARY_MAGIC[..n] => break false,
            Ok(4) => break true,
            // A true binary client sends all four magic bytes at once; a
            // matching shorter prefix means they are still in flight.
            Ok(_) => thread::sleep(Duration::from_millis(1)),
        }
    };
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let writer = Arc::new(ConnWriter {
        stream: Mutex::new(write_half),
        binary,
    });
    let mut subscription: Option<Arc<EventQueue>> = None;
    if binary {
        handle_binary_requests(stream, &state, &writer, &mut subscription);
    } else {
        handle_text_requests(stream, &state, &writer, &mut subscription);
    }
    // Reader gone: tear down this client's subscription so its writer
    // thread exits.
    if let Some(sub) = subscription {
        sub.close();
        let mut shared = state.shared.lock().expect("server state poisoned");
        shared.subs.retain(|s| !Arc::ptr_eq(&s.queue, &sub));
    }
}

/// The text request loop: bounded newline-delimited JSON lines.
fn handle_text_requests(
    stream: TcpStream,
    state: &Arc<ServerState>,
    writer: &Arc<ConnWriter>,
    subscription: &mut Option<Arc<EventQueue>>,
) {
    let mut reader = BufReader::new(stream);
    loop {
        let line = match read_line_bounded(&mut reader, MAX_LINE_BYTES) {
            Ok(Some(line)) => line,
            Ok(None) => break,
            Err(e) => {
                // The stream is desynchronized past an oversized line:
                // answer with the protocol error, then drop the
                // connection.
                let _ = write_line(writer, &error_response(&e).to_compact());
                break;
            }
        };
        let text = line.trim();
        if text.is_empty() {
            continue;
        }
        if !serve_request(text, state, writer, subscription) {
            break;
        }
    }
}

/// The binary request loop: each request is one [`Frame::Json`].
fn handle_binary_requests(
    mut stream: TcpStream,
    state: &Arc<ServerState>,
    writer: &Arc<ConnWriter>,
    subscription: &mut Option<Arc<EventQueue>>,
) {
    let mut magic = [0u8; 4];
    if stream.read_exact(&mut magic).is_err() {
        return;
    }
    let Ok(mut frames) = FrameStream::new(stream) else {
        return;
    };
    loop {
        let frame = match frames.recv_eof() {
            Ok(Some(frame)) => frame,
            Ok(None) => break,
            Err(e) => {
                let _ = write_line(writer, &error_response(&e.to_string()).to_compact());
                break;
            }
        };
        let body = match frame {
            Frame::Json { body } => body,
            Frame::Shutdown => break,
            other => {
                let msg = format!("expected a json frame, got {}", other.name());
                let _ = write_line(writer, &error_response(&msg).to_compact());
                break;
            }
        };
        if !serve_request(body.trim(), state, writer, subscription) {
            break;
        }
    }
}

/// Dispatch one request and write its response; `false` ends the
/// connection loop (write failure or server shutdown).
fn serve_request(
    text: &str,
    state: &Arc<ServerState>,
    writer: &Arc<ConnWriter>,
    subscription: &mut Option<Arc<EventQueue>>,
) -> bool {
    let response = dispatch(text, state, writer, subscription);
    let stop_after = state.stop.load(Ordering::SeqCst);
    write_line(writer, &response.to_compact()).is_ok() && !stop_after
}

/// Parse and execute one request line; returns the response body.
fn dispatch(
    text: &str,
    state: &Arc<ServerState>,
    writer: &Arc<ConnWriter>,
    subscription: &mut Option<Arc<EventQueue>>,
) -> JsonValue {
    let request = match parse_json(text) {
        Ok(v) => v,
        Err(e) => return error_response(&format!("bad JSON: {e}")),
    };
    let verb = match request.get("verb").and_then(JsonValue::as_str) {
        Some(v) => v,
        None => return error_response("missing `verb`"),
    };
    match verb {
        "status" => {
            let shared = state.shared.lock().expect("server state poisoned");
            let conflicts = shared.engine.aircraft().iter().filter(|a| a.col).count();
            ok_response()
                .set("backend", shared.engine.backend_name())
                .set("spec", state.spec.to_json())
                .set("aircraft", shared.engine.aircraft().len())
                .set("cycles", shared.engine.cycles_stepped())
                .set("ingest_seq", shared.engine.field().ingest_seq())
                .set("conflicts", conflicts)
                .set("subscribers", shared.subs.len())
                .set(
                    "events_dropped",
                    state.events_dropped.load(Ordering::Relaxed),
                )
                .set(
                    "ingest_batched",
                    state.ingest_batched.load(Ordering::Relaxed),
                )
        }
        "ingest" => {
            let updates = match request.get("updates") {
                Some(v) => match updates_from_json(v) {
                    Ok(u) => u,
                    Err(e) => return error_response(&e),
                },
                None => return error_response("missing `updates`"),
            };
            // Enqueue the job, then contend for the engine lock. Whichever
            // thread wins drains *every* pending job under that one
            // acquisition, so ingest bursts from many clients pay one lock
            // round instead of one each. Our own job was queued before we
            // blocked, so by the time we hold the lock it is either still
            // pending (we drain it) or already answered by the winner.
            let slot = Arc::new(Mutex::new(None));
            state
                .ingest_pending
                .lock()
                .expect("ingest queue poisoned")
                .push_back(IngestJob {
                    updates,
                    slot: Arc::clone(&slot),
                });
            {
                let mut shared = state.shared.lock().expect("server state poisoned");
                let jobs: Vec<IngestJob> = {
                    let mut pending = state.ingest_pending.lock().expect("ingest queue poisoned");
                    pending.drain(..).collect()
                };
                if jobs.len() > 1 {
                    state
                        .ingest_batched
                        .fetch_add(jobs.len() as u64 - 1, Ordering::Relaxed);
                }
                for job in jobs {
                    let cycle = shared.engine.cycles_stepped() as u64;
                    let receipt = shared.engine.apply_updates(&job.updates);
                    shared.log.push(LogEntry {
                        seq: receipt.seq,
                        cycle,
                        updates: job.updates,
                    });
                    *job.slot.lock().expect("ingest slot poisoned") = Some(
                        ok_response()
                            .set("seq", receipt.seq)
                            .set("applied", u64::from(receipt.applied))
                            .set("unknown", u64::from(receipt.unknown)),
                    );
                }
            }
            let response = slot
                .lock()
                .expect("ingest slot poisoned")
                .take()
                .expect("a queued ingest job is always answered by a drain");
            response
        }
        "step" => {
            let cycles = request
                .get("cycles")
                .and_then(JsonValue::as_f64)
                .map(|c| c as u64)
                .unwrap_or(1)
                .clamp(1, 64);
            let mut shared = state.shared.lock().expect("server state poisoned");
            let reports: Vec<JsonValue> = (0..cycles)
                .map(|_| state.step_one(&mut shared).to_json())
                .collect();
            ok_response().set("reports", JsonValue::Arr(reports))
        }
        "snapshot" => {
            let shared = state.shared.lock().expect("server state poisoned");
            let aircraft: Vec<JsonValue> = shared
                .engine
                .aircraft()
                .iter()
                .enumerate()
                .map(|(id, a)| {
                    JsonValue::obj()
                        .set("id", id)
                        .set("x", f64::from(a.x))
                        .set("y", f64::from(a.y))
                        .set("alt", f64::from(a.alt))
                        .set("dx", f64::from(a.dx))
                        .set("dy", f64::from(a.dy))
                        .set("col", a.col)
                        .set("col_with", f64::from(a.col_with))
                })
                .collect();
            ok_response()
                .set("cycles", shared.engine.cycles_stepped())
                .set(
                    "fleet_hash",
                    format!("{:016x}", atm_core::fleet_hash(shared.engine.aircraft())),
                )
                .set("aircraft", JsonValue::Arr(aircraft))
        }
        "log" => {
            let shared = state.shared.lock().expect("server state poisoned");
            let entries: Vec<JsonValue> =
                shared.log.iter().map(crate::proto::entry_to_json).collect();
            ok_response().set("entries", JsonValue::Arr(entries))
        }
        "subscribe" => {
            if subscription.is_some() {
                return error_response("already subscribed");
            }
            let filter = match parse_filter(&request) {
                Ok(f) => f,
                Err(e) => return error_response(&e),
            };
            let filtered = filter.is_active();
            let sub = Arc::new(EventQueue::new(state.spec.queue_cap));
            {
                let mut shared = state.shared.lock().expect("server state poisoned");
                shared.subs.push(Subscriber {
                    queue: Arc::clone(&sub),
                    filter,
                });
            }
            let sub_for_writer = Arc::clone(&sub);
            let writer = Arc::clone(writer);
            thread::spawn(move || {
                while let Some(event) = sub_for_writer.pop() {
                    if write_line(&writer, &event).is_err() {
                        sub_for_writer.close();
                        break;
                    }
                }
            });
            *subscription = Some(sub);
            let response = ok_response().set("subscribed", true);
            if filtered {
                response.set("filtered", true)
            } else {
                response
            }
        }
        "shutdown" => {
            let shared = state.shared.lock().expect("server state poisoned");
            let flushed = state.flush_artifacts(&shared);
            for sub in &shared.subs {
                sub.queue.close();
            }
            state.stop.store(true, Ordering::SeqCst);
            // Unblock the accept loop.
            let _ = TcpStream::connect(state.addr);
            match flushed {
                Ok(()) => ok_response().set("stopped", true),
                Err(e) => error_response(&format!("artifact flush failed: {e}")),
            }
        }
        // Echo back a serialized batch for symmetry with `ingest` (used by
        // clients to validate update encoding without applying anything).
        "echo" => match request.get("updates") {
            Some(v) => match updates_from_json(v) {
                Ok(u) => ok_response().set("updates", updates_to_json(&u)),
                Err(e) => error_response(&e),
            },
            None => error_response("missing `updates`"),
        },
        other => error_response(&format!("unknown verb `{other}`")),
    }
}

/// Parse the optional `region` (`[min_x, min_y, max_x, max_y]`) and
/// `aircraft` (id array) fields of a `subscribe` request.
fn parse_filter(request: &JsonValue) -> Result<EventFilter, String> {
    let mut filter = EventFilter::default();
    if let Some(v) = request.get("region") {
        let arr = v
            .as_arr()
            .ok_or("`region` must be an array [min_x, min_y, max_x, max_y]")?;
        if arr.len() != 4 {
            return Err(format!("`region` needs 4 numbers, got {}", arr.len()));
        }
        let mut bounds = [0.0f32; 4];
        for (slot, item) in bounds.iter_mut().zip(arr) {
            *slot = item.as_f64().ok_or("`region` entries must be numbers")? as f32;
        }
        if bounds[0] > bounds[2] || bounds[1] > bounds[3] {
            return Err("`region` bounds are inverted (min > max)".to_owned());
        }
        filter.region = Some(bounds);
    }
    if let Some(v) = request.get("aircraft") {
        let arr = v.as_arr().ok_or("`aircraft` must be an array of ids")?;
        let mut ids = HashSet::with_capacity(arr.len());
        for item in arr {
            ids.insert(item.as_f64().ok_or("`aircraft` entries must be ids")? as u32);
        }
        filter.aircraft = Some(ids);
    }
    Ok(filter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;

    struct Client {
        reader: BufReader<TcpStream>,
    }

    impl Client {
        fn connect(addr: SocketAddr) -> Client {
            let stream = TcpStream::connect(addr).unwrap();
            Client {
                reader: BufReader::new(stream),
            }
        }

        fn send(&mut self, line: &str) -> JsonValue {
            let mut w = self.reader.get_ref().try_clone().unwrap();
            w.write_all(line.as_bytes()).unwrap();
            w.write_all(b"\n").unwrap();
            self.recv()
        }

        fn recv(&mut self) -> JsonValue {
            let mut line = String::new();
            self.reader.read_line(&mut line).unwrap();
            parse_json(line.trim()).unwrap()
        }
    }

    fn serve(spec: ServerSpec) -> (SocketAddr, thread::JoinHandle<()>) {
        let server = AtmServer::bind(spec, "127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        (addr, server.spawn())
    }

    #[test]
    fn ingest_step_status_round_trip() {
        let (addr, handle) = serve(ServerSpec {
            n: 120,
            seed: 5,
            ..ServerSpec::default()
        });
        let mut c = Client::connect(addr);
        let st = c.send("{\"verb\":\"status\"}");
        assert_eq!(st.get("ok"), Some(&JsonValue::Bool(true)));
        assert_eq!(st.get("aircraft"), Some(&JsonValue::U64(120)));

        let r = c.send(
            "{\"verb\":\"ingest\",\"updates\":[{\"id\":0,\"x\":1.0,\"y\":2.0,\"alt\":9000.0,\"dx\":0.01,\"dy\":0.0}]}",
        );
        assert_eq!(r.get("seq"), Some(&JsonValue::U64(1)));
        assert_eq!(r.get("applied"), Some(&JsonValue::U64(1)));

        let r = c.send("{\"verb\":\"step\",\"cycles\":2}");
        let reports = r.get("reports").unwrap().as_arr().unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(
            reports[0].get("ingest_applied"),
            Some(&JsonValue::U64(1)),
            "first stepped cycle must carry the ingest"
        );

        let log = c.send("{\"verb\":\"log\"}");
        assert_eq!(log.get("entries").unwrap().as_arr().unwrap().len(), 1);

        let r = c.send("{\"verb\":\"shutdown\"}");
        assert_eq!(r.get("stopped"), Some(&JsonValue::Bool(true)));
        handle.join().unwrap();
    }

    #[test]
    fn subscribers_receive_cycle_events() {
        let (addr, handle) = serve(ServerSpec {
            n: 200,
            seed: 8,
            scenario: Some("crossing".to_owned()),
            ..ServerSpec::default()
        });
        let mut subscriber = Client::connect(addr);
        let r = subscriber.send("{\"verb\":\"subscribe\"}");
        assert_eq!(r.get("subscribed"), Some(&JsonValue::Bool(true)));

        let mut driver = Client::connect(addr);
        driver.send("{\"verb\":\"step\"}");
        let event = subscriber.recv();
        assert_eq!(
            event.get("event").and_then(JsonValue::as_str),
            Some("cycle")
        );
        assert_eq!(
            event.get("report").unwrap().get("cycle"),
            Some(&JsonValue::U64(0))
        );
        driver.send("{\"verb\":\"shutdown\"}");
        handle.join().unwrap();
    }

    #[test]
    fn malformed_requests_get_error_responses() {
        let (addr, handle) = serve(ServerSpec {
            n: 10,
            ..ServerSpec::default()
        });
        let mut c = Client::connect(addr);
        assert_eq!(c.send("not json").get("ok"), Some(&JsonValue::Bool(false)));
        assert_eq!(
            c.send("{\"no\":\"verb\"}").get("ok"),
            Some(&JsonValue::Bool(false))
        );
        assert_eq!(
            c.send("{\"verb\":\"warp\"}").get("ok"),
            Some(&JsonValue::Bool(false))
        );
        // A deeply nested line is a protocol error, not a stack overflow.
        assert_eq!(
            c.send(&"[".repeat(100_000)).get("ok"),
            Some(&JsonValue::Bool(false))
        );
        c.send("{\"verb\":\"shutdown\"}");
        handle.join().unwrap();
    }

    #[test]
    fn autostep_advances_cycles_without_step_verbs() {
        let (addr, handle) = serve(ServerSpec {
            n: 60,
            seed: 3,
            autostep_ms: Some(5),
            ..ServerSpec::default()
        });
        let mut c = Client::connect(addr);
        let mut cycles = 0;
        for _ in 0..100 {
            thread::sleep(Duration::from_millis(10));
            let st = c.send("{\"verb\":\"status\"}");
            if let Some(&JsonValue::U64(n)) = st.get("cycles") {
                cycles = n;
            }
            if cycles >= 2 {
                break;
            }
        }
        assert!(cycles >= 2, "background loop never stepped");
        c.send("{\"verb\":\"shutdown\"}");
        handle.join().unwrap();
    }

    /// Two ingest requests queued while the engine lock is held elsewhere
    /// must be drained under one acquisition: the batching counter
    /// advances and both clients still get their own receipts.
    #[test]
    fn concurrent_ingests_batch_under_one_lock_acquisition() {
        let server = AtmServer::bind(
            ServerSpec {
                n: 50,
                seed: 2,
                ..ServerSpec::default()
            },
            "127.0.0.1:0",
        )
        .unwrap();
        let addr = server.local_addr();
        let state = Arc::clone(&server.state);
        let handle = server.spawn();

        // Hold the engine lock so both in-flight ingests stack up pending.
        let guard = state.shared.lock().expect("server state poisoned");
        let clients: Vec<_> = (0..2)
            .map(|i| {
                thread::spawn(move || {
                    let mut c = Client::connect(addr);
                    c.send(&format!(
                        "{{\"verb\":\"ingest\",\"updates\":[{{\"id\":{i},\"x\":1.0,\"y\":2.0,\
                         \"alt\":9000.0,\"dx\":0.01,\"dy\":0.0}}]}}"
                    ))
                })
            })
            .collect();
        // Both jobs queued (the clients are now blocked on the lock).
        for _ in 0..500 {
            if state.ingest_pending.lock().unwrap().len() == 2 {
                break;
            }
            thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(state.ingest_pending.lock().unwrap().len(), 2);
        drop(guard);

        let mut seqs: Vec<u64> = clients
            .into_iter()
            .map(|c| {
                let r = c.join().unwrap();
                assert_eq!(r.get("ok"), Some(&JsonValue::Bool(true)));
                match r.get("seq") {
                    Some(&JsonValue::U64(s)) => s,
                    other => panic!("bad seq {other:?}"),
                }
            })
            .collect();
        seqs.sort_unstable();
        assert_eq!(seqs, vec![1, 2], "each request gets its own receipt");
        assert_eq!(state.ingest_batched.load(Ordering::Relaxed), 1);

        let mut c = Client::connect(addr);
        let st = c.send("{\"verb\":\"status\"}");
        assert_eq!(st.get("ingest_batched"), Some(&JsonValue::U64(1)));
        let log = c.send("{\"verb\":\"log\"}");
        assert_eq!(log.get("entries").unwrap().as_arr().unwrap().len(), 2);
        c.send("{\"verb\":\"shutdown\"}");
        handle.join().unwrap();
    }

    /// A subscriber with an `aircraft` filter that matches nothing gets
    /// cycle events only, while an unfiltered subscriber on the same
    /// server still sees every conflict.
    #[test]
    fn subscription_filters_apply_before_the_queue() {
        let (addr, handle) = serve(ServerSpec {
            n: 200,
            seed: 8,
            scenario: Some("crossing".to_owned()),
            ..ServerSpec::default()
        });
        let mut all = Client::connect(addr);
        assert_eq!(
            all.send("{\"verb\":\"subscribe\"}").get("filtered"),
            None,
            "an unfiltered subscription reports no filter"
        );
        let mut none = Client::connect(addr);
        let r = none.send("{\"verb\":\"subscribe\",\"aircraft\":[999999]}");
        assert_eq!(r.get("filtered"), Some(&JsonValue::Bool(true)));
        // A region filter covering the whole airfield changes nothing.
        let mut wide = Client::connect(addr);
        let r =
            wide.send("{\"verb\":\"subscribe\",\"region\":[-10000.0,-10000.0,10000.0,10000.0]}");
        assert_eq!(r.get("filtered"), Some(&JsonValue::Bool(true)));

        let mut driver = Client::connect(addr);
        const CYCLES: usize = 3;
        driver.send(&format!("{{\"verb\":\"step\",\"cycles\":{CYCLES}}}"));

        let collect = |c: &mut Client| -> Vec<String> {
            let mut lines = Vec::new();
            let mut cycles_seen = 0;
            while cycles_seen < CYCLES {
                let v = c.recv();
                if v.get("event").and_then(JsonValue::as_str) == Some("cycle") {
                    cycles_seen += 1;
                }
                lines.push(v.to_compact());
            }
            lines
        };
        let everything = collect(&mut all);
        let conflicts = everything
            .iter()
            .filter(|l| l.contains("\"event\":\"conflict\""))
            .count();
        assert!(conflicts > 0, "the crossing scenario must conflict");
        assert_eq!(
            collect(&mut none).len(),
            CYCLES,
            "a matching-nothing filter passes only cycle events"
        );
        assert_eq!(
            collect(&mut wide),
            everything,
            "an all-covering region is a no-op"
        );

        let bad = driver.send("{\"verb\":\"subscribe\",\"region\":[1.0,2.0,3.0]}");
        assert_eq!(bad.get("ok"), Some(&JsonValue::Bool(false)));
        driver.send("{\"verb\":\"shutdown\"}");
        handle.join().unwrap();
    }

    /// The same verbs over the binary frame protocol: `ATMB` magic, then
    /// one `Frame::Json` per request, response and event.
    #[test]
    fn binary_clients_speak_json_frames() {
        use atm_core::{Frame, FrameStream};
        let (addr, handle) = serve(ServerSpec {
            n: 200,
            seed: 8,
            scenario: Some("crossing".to_owned()),
            ..ServerSpec::default()
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(BINARY_MAGIC).unwrap();
        let mut frames = FrameStream::new(stream).unwrap();
        let send = |frames: &mut FrameStream, body: &str| -> JsonValue {
            frames
                .send(&Frame::Json {
                    body: body.to_owned(),
                })
                .unwrap();
            match frames.recv().unwrap() {
                Frame::Json { body } => parse_json(&body).unwrap(),
                other => panic!("expected a json frame, got {}", other.name()),
            }
        };
        let st = send(&mut frames, "{\"verb\":\"status\"}");
        assert_eq!(st.get("ok"), Some(&JsonValue::Bool(true)));
        assert_eq!(st.get("aircraft"), Some(&JsonValue::U64(200)));

        // Subscribe over binary, step from a text client: the event
        // arrives as a frame, bit-for-bit the text line's JSON.
        let r = send(&mut frames, "{\"verb\":\"subscribe\"}");
        assert_eq!(r.get("subscribed"), Some(&JsonValue::Bool(true)));
        let mut text_sub = Client::connect(addr);
        text_sub.send("{\"verb\":\"subscribe\"}");
        let mut driver = Client::connect(addr);
        driver.send("{\"verb\":\"step\"}");
        let event = match frames.recv().unwrap() {
            Frame::Json { body } => body,
            other => panic!("expected a json event frame, got {}", other.name()),
        };
        let text_event = {
            let mut line = String::new();
            text_sub.reader.read_line(&mut line).unwrap();
            line.trim().to_owned()
        };
        assert_eq!(event, text_event, "both modes carry identical JSON");

        driver.send("{\"verb\":\"shutdown\"}");
        handle.join().unwrap();
    }

    #[test]
    fn oversized_request_lines_get_a_clean_error() {
        let (addr, handle) = serve(ServerSpec {
            n: 10,
            ..ServerSpec::default()
        });
        let mut c = Client::connect(addr);
        let mut w = c.reader.get_ref().try_clone().unwrap();
        w.write_all(&vec![b'x'; MAX_LINE_BYTES + 2]).unwrap();
        w.write_all(b"\n").unwrap();
        let r = c.recv();
        assert_eq!(r.get("ok"), Some(&JsonValue::Bool(false)));
        assert!(
            r.get("error")
                .and_then(JsonValue::as_str)
                .unwrap()
                .contains("exceeds"),
            "{r:?}"
        );
        // The server then drops the desynchronized connection.
        let mut line = String::new();
        assert_eq!(c.reader.read_line(&mut line).unwrap(), 0);

        let mut c2 = Client::connect(addr);
        c2.send("{\"verb\":\"shutdown\"}");
        handle.join().unwrap();
    }

    #[test]
    fn event_queue_drops_oldest_beyond_capacity() {
        let q = EventQueue::new(3);
        for i in 0..5 {
            q.push(&format!("e{i}"));
        }
        assert_eq!(q.dropped(), 2);
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().as_deref(), Some("e2"), "oldest two must be gone");
        assert_eq!(q.pop().as_deref(), Some("e3"));
        q.close();
        assert_eq!(q.pop().as_deref(), Some("e4"), "close drains the tail");
        assert_eq!(q.pop(), None);
        assert_eq!(q.push("late"), 2, "closed queue accepts nothing");
    }
}
