//! The versioned, byte-stable frame codec of the process-per-shard halo
//! exchange — and the server's binary-frame option (DESIGN.md §15).
//!
//! Every frame is length-prefixed binary: a little-endian `u32` payload
//! length, then the payload (one tag byte + the tag's body). All integers
//! are little-endian; every `f32` travels as its IEEE-754 bit pattern
//! (`to_bits` as `u32`), so NaN payloads, signed zeros and denormals — and
//! with them the bit-identity contract — survive the wire exactly. The
//! codec is its own inverse on every value (round-trip tests below), and
//! version-gated: a [`Frame::Hello`] carrying [`WIRE_VERSION`] opens every
//! connection, and a peer speaking another version is refused before any
//! state frame flows.
//!
//! On top of the codec, [`SocketTransport`] implements
//! [`ShardTransport`] over one TCP link per shard and [`run_shard_worker`]
//! is the worker side: import a halo slice ([`Frame::Export`]), simulate
//! claimed waves ([`Frame::Wave`] → [`Frame::Turns`]), apply velocity
//! commits ([`Frame::Commit`]), and report accumulated totals
//! ([`Frame::Finish`] → [`Frame::Summary`]) for the coordinator's
//! cross-check. The exchange carries member *records* and global ids only —
//! never indexes — so both sides rebuild identical scan structures from
//! identical bits.

use crate::config::{AtmConfig, ScanMode};
use crate::detect::{scan_candidates, simulate_turn, DetectStats, Turn, TurnOutcome};
use crate::shard::{
    InnerIndex, ShardTransport, ShardedIndex, TransportError, TurnRecord, WaveGroup,
};
use crate::types::Aircraft;
use sim_clock::{OpCounter, SimDuration, OP_CLASS_COUNT};
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};

/// The codec version every connection negotiates. Bump on any change to a
/// frame layout; peers refuse a mismatch at handshake.
pub const WIRE_VERSION: u32 = 2;

/// Hard ceiling on one frame's payload (64 MiB ≈ a 1.2M-aircraft halo
/// export). A length prefix beyond it is a protocol error, not an
/// allocation.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

fn err(msg: impl Into<String>) -> TransportError {
    TransportError::new(msg)
}

// ---------------------------------------------------------------------------
// Primitive encoder / decoder
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }
    fn boolean(&mut self, v: bool) {
        self.u8(v as u8);
    }
    fn count(&mut self, n: usize) -> Result<(), TransportError> {
        u32::try_from(n)
            .map_err(|_| err(format!("sequence of {n} items overflows the wire count")))
            .map(|n| self.u32(n))
    }
}

struct Dec<'a> {
    b: &'a [u8],
    at: usize,
}

impl<'a> Dec<'a> {
    fn new(b: &'a [u8]) -> Dec<'a> {
        Dec { b, at: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], TransportError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.b.len())
            .ok_or_else(|| err("truncated frame payload"))?;
        let s = &self.b[self.at..end];
        self.at = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, TransportError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, TransportError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, TransportError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn i32(&mut self) -> Result<i32, TransportError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn f32(&mut self) -> Result<f32, TransportError> {
        Ok(f32::from_bits(self.u32()?))
    }
    fn boolean(&mut self) -> Result<bool, TransportError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(err(format!("bad boolean byte {other}"))),
        }
    }
    /// A sequence count, sanity-bounded by the bytes actually remaining
    /// (every element encodes to at least one byte).
    fn count(&mut self) -> Result<usize, TransportError> {
        let n = self.u32()? as usize;
        if n > self.b.len() - self.at {
            return Err(err(format!("sequence count {n} exceeds frame payload")));
        }
        Ok(n)
    }
    fn done(&self) -> Result<(), TransportError> {
        if self.at != self.b.len() {
            return Err(err(format!(
                "{} trailing byte(s) after frame payload",
                self.b.len() - self.at
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Value codecs
// ---------------------------------------------------------------------------

fn enc_aircraft(e: &mut Enc, a: &Aircraft) {
    e.f32(a.x);
    e.f32(a.y);
    e.f32(a.dx);
    e.f32(a.dy);
    e.f32(a.batx);
    e.f32(a.baty);
    e.f32(a.alt);
    e.boolean(a.col);
    e.f32(a.time_till);
    e.i32(a.col_with);
    e.i32(a.r_match);
    e.f32(a.expected_x);
    e.f32(a.expected_y);
}

fn dec_aircraft(d: &mut Dec) -> Result<Aircraft, TransportError> {
    Ok(Aircraft {
        x: d.f32()?,
        y: d.f32()?,
        dx: d.f32()?,
        dy: d.f32()?,
        batx: d.f32()?,
        baty: d.f32()?,
        alt: d.f32()?,
        col: d.boolean()?,
        time_till: d.f32()?,
        col_with: d.i32()?,
        r_match: d.i32()?,
        expected_x: d.f32()?,
        expected_y: d.f32()?,
    })
}

fn scan_tag(scan: ScanMode) -> u8 {
    match scan {
        ScanMode::Naive => 0,
        ScanMode::Grid => 2,
    }
}

fn scan_from_tag(tag: u8) -> Result<ScanMode, TransportError> {
    match tag {
        0 => Ok(ScanMode::Naive),
        2 => Ok(ScanMode::Grid),
        other => Err(err(format!("bad scan-mode tag {other}"))),
    }
}

fn enc_config(e: &mut Enc, cfg: &AtmConfig) {
    e.f32(cfg.half_width);
    e.f32(cfg.speed_min_kts);
    e.f32(cfg.speed_max_kts);
    e.f32(cfg.alt_min_ft);
    e.f32(cfg.alt_max_ft);
    e.f32(cfg.periods_per_hour);
    e.u64(cfg.period.as_picos());
    e.u64(cfg.periods_per_major as u64);
    e.f32(cfg.radar_noise_nm);
    e.f32(cfg.radar_dropout);
    e.f32(cfg.track_box_half_nm);
    e.u32(cfg.track_passes);
    e.f32(cfg.separation_nm);
    e.f32(cfg.alt_separation_ft);
    e.f32(cfg.horizon_periods);
    e.f32(cfg.critical_periods);
    e.f32(cfg.rotation_step_deg);
    e.f32(cfg.rotation_max_deg);
    e.u64(cfg.seed);
    e.u8(scan_tag(cfg.scan));
    e.u64(cfg.shards as u64);
}

fn dec_config(d: &mut Dec) -> Result<AtmConfig, TransportError> {
    Ok(AtmConfig {
        half_width: d.f32()?,
        speed_min_kts: d.f32()?,
        speed_max_kts: d.f32()?,
        alt_min_ft: d.f32()?,
        alt_max_ft: d.f32()?,
        periods_per_hour: d.f32()?,
        period: SimDuration::from_picos(d.u64()?),
        periods_per_major: d.u64()? as usize,
        radar_noise_nm: d.f32()?,
        radar_dropout: d.f32()?,
        track_box_half_nm: d.f32()?,
        track_passes: d.u32()?,
        separation_nm: d.f32()?,
        alt_separation_ft: d.f32()?,
        horizon_periods: d.f32()?,
        critical_periods: d.f32()?,
        rotation_step_deg: d.f32()?,
        rotation_max_deg: d.f32()?,
        seed: d.u64()?,
        scan: scan_from_tag(d.u8()?)?,
        shards: d.u64()? as usize,
    })
}

fn enc_stats(e: &mut Enc, s: &DetectStats) {
    e.u64(s.pair_checks);
    e.u64(s.critical_conflicts);
    e.u64(s.rotations);
    e.u64(s.resolved);
    e.u64(s.unresolved);
}

fn dec_stats(d: &mut Dec) -> Result<DetectStats, TransportError> {
    Ok(DetectStats {
        pair_checks: d.u64()?,
        critical_conflicts: d.u64()?,
        rotations: d.u64()?,
        resolved: d.u64()?,
        unresolved: d.u64()?,
    })
}

fn enc_ops(e: &mut Enc, o: &OpCounter) {
    for v in o.ops {
        e.u64(v);
    }
    e.u64(o.bytes_loaded);
    e.u64(o.bytes_stored);
    e.u64(o.load_count);
    e.u64(o.store_count);
    e.u64(o.divergent_branches);
}

fn dec_ops(d: &mut Dec) -> Result<OpCounter, TransportError> {
    let mut o = OpCounter::new();
    for v in &mut o.ops {
        *v = d.u64()?;
    }
    o.bytes_loaded = d.u64()?;
    o.bytes_stored = d.u64()?;
    o.load_count = d.u64()?;
    o.store_count = d.u64()?;
    o.divergent_branches = d.u64()?;
    let _ = OP_CLASS_COUNT; // layout pinned by the array above
    Ok(o)
}

fn enc_turn(e: &mut Enc, rec: &TurnRecord) -> Result<(), TransportError> {
    let t = &rec.turn;
    e.count(t.events.len())?;
    for &(p, tmin) in &t.events {
        e.u32(p);
        e.f32(tmin);
    }
    match t.outcome {
        TurnOutcome::Clean => e.u8(0),
        TurnOutcome::Resolved { vel } => {
            e.u8(1);
            e.f32(vel.0);
            e.f32(vel.1);
        }
        TurnOutcome::Unresolved { partner, tmin } => {
            e.u8(2);
            e.u32(partner);
            e.f32(tmin);
        }
    }
    enc_stats(e, &t.stats);
    enc_ops(e, &rec.ops);
    Ok(())
}

fn dec_turn(d: &mut Dec) -> Result<TurnRecord, TransportError> {
    let n = d.count()?;
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        events.push((d.u32()?, d.f32()?));
    }
    let outcome = match d.u8()? {
        0 => TurnOutcome::Clean,
        1 => TurnOutcome::Resolved {
            vel: (d.f32()?, d.f32()?),
        },
        2 => TurnOutcome::Unresolved {
            partner: d.u32()?,
            tmin: d.f32()?,
        },
        other => return Err(err(format!("bad turn-outcome tag {other}"))),
    };
    let turn = Turn {
        events,
        outcome,
        stats: dec_stats(d)?,
    };
    Ok(TurnRecord {
        turn,
        ops: dec_ops(d)?,
    })
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

/// The frame grammar of the halo-exchange protocol (and, via
/// [`Frame::Json`], of the server's binary mode). Tag bytes are part of the
/// versioned layout.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Worker → coordinator, first frame on every connection.
    Hello {
        /// The sender's [`WIRE_VERSION`].
        version: u32,
    },
    /// Coordinator → worker handshake reply: the shard this link serves.
    HelloAck {
        /// Shard id assigned to this worker (accept order).
        shard: u32,
        /// Total shards in the grid.
        shard_count: u32,
    },
    /// Halo export opening one detect execution: the shard's member slice.
    Export {
        /// Global fleet size (the aggregate-booking parameter).
        global_n: u32,
        /// The run config (scan mode, gates, rotation sequence, …).
        cfg: AtmConfig,
        /// Global ids of the shard's members (owned + halo, ascending).
        members: Vec<u32>,
        /// The members' records, index-aligned with `members`.
        recs: Vec<Aircraft>,
    },
    /// Wave claim: simulate these owned aircraft (global ids).
    Wave {
        /// Wave sequence number within the execution.
        seq: u64,
        /// Aircraft to simulate, ascending.
        ids: Vec<u32>,
    },
    /// Wave reply: one record per claimed aircraft, in claim order.
    Turns {
        /// Echo of the claim's sequence number.
        seq: u64,
        /// `(global id, record)` per simulated turn.
        turns: Vec<(u32, TurnRecord)>,
    },
    /// Resolved-velocity broadcast between waves.
    Commit {
        /// `(global id, (dx, dy))`, ascending by id.
        deltas: Vec<(u32, (f32, f32))>,
    },
    /// End of the detect execution; the worker answers with a `Summary`.
    Finish,
    /// Worker totals accumulated since the `Export`, for the coordinator's
    /// cross-check against its replay-summed totals.
    Summary {
        /// Detect stats over every turn this worker simulated.
        stats: DetectStats,
        /// Booked op totals over the same turns.
        ops: OpCounter,
    },
    /// Orderly end of the connection.
    Shutdown,
    /// A JSON text payload: the server's binary mode carries its line
    /// protocol verbatim inside these.
    Json {
        /// The JSON text (one request or response, no newline framing).
        body: String,
    },
}

impl Frame {
    /// The frame's grammar name (for protocol-error messages).
    pub fn name(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "hello",
            Frame::HelloAck { .. } => "hello-ack",
            Frame::Export { .. } => "export",
            Frame::Wave { .. } => "wave",
            Frame::Turns { .. } => "turns",
            Frame::Commit { .. } => "commit",
            Frame::Finish => "finish",
            Frame::Summary { .. } => "summary",
            Frame::Shutdown => "shutdown",
            Frame::Json { .. } => "json",
        }
    }

    /// Encode to a payload (tag byte + body), without the length prefix.
    pub fn encode(&self) -> Result<Vec<u8>, TransportError> {
        let mut e = Enc::default();
        match self {
            Frame::Hello { version } => {
                e.u8(1);
                e.u32(*version);
            }
            Frame::HelloAck { shard, shard_count } => {
                e.u8(2);
                e.u32(*shard);
                e.u32(*shard_count);
            }
            Frame::Export {
                global_n,
                cfg,
                members,
                recs,
            } => {
                e.u8(3);
                e.u32(*global_n);
                enc_config(&mut e, cfg);
                e.count(members.len())?;
                for &m in members {
                    e.u32(m);
                }
                e.count(recs.len())?;
                for a in recs {
                    enc_aircraft(&mut e, a);
                }
            }
            Frame::Wave { seq, ids } => {
                e.u8(4);
                e.u64(*seq);
                e.count(ids.len())?;
                for &i in ids {
                    e.u32(i);
                }
            }
            Frame::Turns { seq, turns } => {
                e.u8(5);
                e.u64(*seq);
                e.count(turns.len())?;
                for (i, t) in turns {
                    e.u32(*i);
                    enc_turn(&mut e, t)?;
                }
            }
            Frame::Commit { deltas } => {
                e.u8(6);
                e.count(deltas.len())?;
                for &(i, (dx, dy)) in deltas {
                    e.u32(i);
                    e.f32(dx);
                    e.f32(dy);
                }
            }
            Frame::Finish => e.u8(7),
            Frame::Summary { stats, ops } => {
                e.u8(8);
                enc_stats(&mut e, stats);
                enc_ops(&mut e, ops);
            }
            Frame::Shutdown => e.u8(9),
            Frame::Json { body } => {
                e.u8(10);
                e.count(body.len())?;
                e.buf.extend_from_slice(body.as_bytes());
            }
        }
        if e.buf.len() > MAX_FRAME_BYTES {
            return Err(err(format!(
                "frame payload of {} bytes exceeds MAX_FRAME_BYTES",
                e.buf.len()
            )));
        }
        Ok(e.buf)
    }

    /// Decode a payload produced by [`Frame::encode`]. Rejects unknown
    /// tags, truncated bodies and trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Frame, TransportError> {
        let mut d = Dec::new(payload);
        let frame = match d.u8()? {
            1 => Frame::Hello { version: d.u32()? },
            2 => Frame::HelloAck {
                shard: d.u32()?,
                shard_count: d.u32()?,
            },
            3 => {
                let global_n = d.u32()?;
                let cfg = dec_config(&mut d)?;
                let n = d.count()?;
                let mut members = Vec::with_capacity(n);
                for _ in 0..n {
                    members.push(d.u32()?);
                }
                let n = d.count()?;
                let mut recs = Vec::with_capacity(n);
                for _ in 0..n {
                    recs.push(dec_aircraft(&mut d)?);
                }
                Frame::Export {
                    global_n,
                    cfg,
                    members,
                    recs,
                }
            }
            4 => {
                let seq = d.u64()?;
                let n = d.count()?;
                let mut ids = Vec::with_capacity(n);
                for _ in 0..n {
                    ids.push(d.u32()?);
                }
                Frame::Wave { seq, ids }
            }
            5 => {
                let seq = d.u64()?;
                let n = d.count()?;
                let mut turns = Vec::with_capacity(n);
                for _ in 0..n {
                    let i = d.u32()?;
                    turns.push((i, dec_turn(&mut d)?));
                }
                Frame::Turns { seq, turns }
            }
            6 => {
                let n = d.count()?;
                let mut deltas = Vec::with_capacity(n);
                for _ in 0..n {
                    deltas.push((d.u32()?, (d.f32()?, d.f32()?)));
                }
                Frame::Commit { deltas }
            }
            7 => Frame::Finish,
            8 => Frame::Summary {
                stats: dec_stats(&mut d)?,
                ops: dec_ops(&mut d)?,
            },
            9 => Frame::Shutdown,
            10 => {
                let n = d.count()?;
                let body = std::str::from_utf8(d.take(n)?)
                    .map_err(|_| err("json frame body is not UTF-8"))?
                    .to_owned();
                Frame::Json { body }
            }
            other => return Err(err(format!("unknown frame tag {other}"))),
        };
        d.done()?;
        Ok(frame)
    }
}

// ---------------------------------------------------------------------------
// Framed stream
// ---------------------------------------------------------------------------

/// A length-prefix-framed TCP stream: buffered reader and writer over the
/// same connection, one [`Frame`] per send/recv.
pub struct FrameStream {
    r: BufReader<TcpStream>,
    w: BufWriter<TcpStream>,
}

impl FrameStream {
    /// Frame an accepted or connected stream.
    pub fn new(stream: TcpStream) -> Result<FrameStream, TransportError> {
        let w = stream
            .try_clone()
            .map_err(|e| err(format!("clone stream: {e}")))?;
        Ok(FrameStream {
            r: BufReader::new(stream),
            w: BufWriter::new(w),
        })
    }

    /// Encode, length-prefix, write and flush one frame.
    pub fn send(&mut self, frame: &Frame) -> Result<(), TransportError> {
        let payload = frame.encode()?;
        let mut write = || -> std::io::Result<()> {
            self.w.write_all(&(payload.len() as u32).to_le_bytes())?;
            self.w.write_all(&payload)?;
            self.w.flush()
        };
        write().map_err(|e| err(format!("send {}: {e}", frame.name())))
    }

    /// Read one frame; a clean EOF at a frame boundary is a protocol error
    /// here (use [`FrameStream::recv_eof`] where the peer may hang up).
    pub fn recv(&mut self) -> Result<Frame, TransportError> {
        self.recv_eof()?
            .ok_or_else(|| err("peer closed the connection"))
    }

    /// Read one frame, or `None` on a clean EOF at a frame boundary.
    pub fn recv_eof(&mut self) -> Result<Option<Frame>, TransportError> {
        let mut len = [0u8; 4];
        let mut got = 0usize;
        while got < 4 {
            let n = self
                .r
                .read(&mut len[got..])
                .map_err(|e| err(format!("recv frame header: {e}")))?;
            if n == 0 {
                if got == 0 {
                    return Ok(None);
                }
                return Err(err("connection closed inside a frame header"));
            }
            got += n;
        }
        let len = u32::from_le_bytes(len) as usize;
        if len == 0 || len > MAX_FRAME_BYTES {
            return Err(err(format!("bad frame length {len}")));
        }
        let mut payload = vec![0u8; len];
        self.r
            .read_exact(&mut payload)
            .map_err(|e| err(format!("recv frame payload: {e}")))?;
        Frame::decode(&payload).map(Some)
    }
}

// ---------------------------------------------------------------------------
// Coordinator side: the serialized ShardTransport
// ---------------------------------------------------------------------------

/// [`ShardTransport`] over one framed TCP link per shard: the coordinator
/// half of the process-per-shard detect. Workers are accepted in shard-id
/// order; every exchange is round-trip-checked (sequence echoes, summary
/// cross-check), so a dead or misbehaving worker surfaces as a
/// [`TransportError`] naming its shard — never a hang past the socket layer
/// or a silently wrong result.
pub struct SocketTransport {
    links: Vec<FrameStream>,
    seq: u64,
}

impl SocketTransport {
    /// Accept `shard_count` workers from the listener, handshake each
    /// (version check, shard-id assignment in accept order) and return the
    /// ready transport.
    pub fn accept_workers(
        listener: &TcpListener,
        shard_count: usize,
    ) -> Result<SocketTransport, TransportError> {
        let mut links = Vec::with_capacity(shard_count);
        for shard in 0..shard_count {
            let (stream, _) = listener
                .accept()
                .map_err(|e| err(format!("accept shard worker {shard}: {e}")))?;
            stream.set_nodelay(true).ok();
            let mut link = FrameStream::new(stream)?;
            match link
                .recv()
                .map_err(|e| err(format!("shard {shard}: {e}")))?
            {
                Frame::Hello { version } if version == WIRE_VERSION => {}
                Frame::Hello { version } => {
                    return Err(err(format!(
                        "shard {shard}: worker speaks wire version {version}, need {WIRE_VERSION}"
                    )));
                }
                other => {
                    return Err(err(format!(
                        "shard {shard}: expected hello, got {}",
                        other.name()
                    )));
                }
            }
            link.send(&Frame::HelloAck {
                shard: shard as u32,
                shard_count: shard_count as u32,
            })
            .map_err(|e| err(format!("shard {shard}: {e}")))?;
            links.push(link);
        }
        Ok(SocketTransport { links, seq: 0 })
    }

    fn link(&mut self, shard: u32) -> Result<&mut FrameStream, TransportError> {
        let count = self.links.len();
        self.links
            .get_mut(shard as usize)
            .ok_or_else(|| err(format!("wave names shard {shard}, transport has {count}")))
    }
}

impl ShardTransport for SocketTransport {
    fn shard_count(&self) -> Option<usize> {
        Some(self.links.len())
    }

    fn begin_detect(
        &mut self,
        aircraft: &[Aircraft],
        index: &ShardedIndex,
        cfg: &AtmConfig,
    ) -> Result<(), TransportError> {
        self.seq = 0;
        for shard in 0..self.links.len() {
            let members = index.members(shard).to_vec();
            let recs: Vec<Aircraft> = members.iter().map(|&j| aircraft[j as usize]).collect();
            let frame = Frame::Export {
                global_n: aircraft.len() as u32,
                cfg: cfg.clone(),
                members,
                recs,
            };
            self.links[shard]
                .send(&frame)
                .map_err(|e| err(format!("shard {shard}: {e}")))?;
        }
        Ok(())
    }

    fn run_wave(
        &mut self,
        _aircraft: &[Aircraft],
        _index: &ShardedIndex,
        _cfg: &AtmConfig,
        wave: &[WaveGroup],
    ) -> Result<Vec<(u32, TurnRecord)>, TransportError> {
        self.seq += 1;
        let seq = self.seq;
        // Claim every shard's group first, then collect: the workers
        // simulate their groups concurrently.
        for (shard, ids) in wave {
            self.link(*shard)?
                .send(&Frame::Wave {
                    seq,
                    ids: ids.clone(),
                })
                .map_err(|e| err(format!("shard {shard}: {e}")))?;
        }
        let mut out = Vec::new();
        for (shard, ids) in wave {
            let reply = self
                .link(*shard)?
                .recv()
                .map_err(|e| err(format!("shard {shard}: {e}")))?;
            match reply {
                Frame::Turns { seq: got, turns } if got == seq => {
                    if turns.len() != ids.len() {
                        return Err(err(format!(
                            "shard {shard}: claimed {} turn(s), got {}",
                            ids.len(),
                            turns.len()
                        )));
                    }
                    out.extend(turns);
                }
                Frame::Turns { seq: got, .. } => {
                    return Err(err(format!(
                        "shard {shard}: wave sequence mismatch (sent {seq}, got {got})"
                    )));
                }
                other => {
                    return Err(err(format!(
                        "shard {shard}: expected turns, got {}",
                        other.name()
                    )));
                }
            }
        }
        Ok(out)
    }

    fn commit(&mut self, deltas: &[(u32, (f32, f32))]) -> Result<(), TransportError> {
        let frame = Frame::Commit {
            deltas: deltas.to_vec(),
        };
        for (shard, link) in self.links.iter_mut().enumerate() {
            link.send(&frame)
                .map_err(|e| err(format!("shard {shard}: {e}")))?;
        }
        Ok(())
    }

    fn finish(&mut self, stats: &DetectStats, ops: &OpCounter) -> Result<(), TransportError> {
        for (shard, link) in self.links.iter_mut().enumerate() {
            link.send(&Frame::Finish)
                .map_err(|e| err(format!("shard {shard}: {e}")))?;
        }
        let mut sum_stats = DetectStats::default();
        let mut sum_ops = OpCounter::new();
        for shard in 0..self.links.len() {
            match self.links[shard]
                .recv()
                .map_err(|e| err(format!("shard {shard}: {e}")))?
            {
                Frame::Summary { stats, ops } => {
                    sum_stats.absorb(&stats);
                    sum_ops.merge(&ops);
                }
                other => {
                    return Err(err(format!(
                        "shard {shard}: expected summary, got {}",
                        other.name()
                    )));
                }
            }
        }
        if sum_stats != *stats || sum_ops != *ops {
            return Err(err(
                "worker summaries disagree with the coordinator's replayed totals \
                 (codec or scheduling fault)",
            ));
        }
        Ok(())
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        for link in &mut self.links {
            let _ = link.send(&Frame::Shutdown);
        }
    }
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// Fault-injection knobs for [`run_shard_worker_with`] (the worker-death
/// differential tests).
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerOptions {
    /// Serve this many wave claims, then fail on the next one (dropping the
    /// connection mid-protocol). `None` = serve forever.
    pub die_after_waves: Option<u64>,
}

struct WorkerState {
    global_n: u32,
    cfg: AtmConfig,
    members: Vec<u32>,
    recs: Vec<Aircraft>,
    inner: InnerIndex,
    stats: DetectStats,
    ops: OpCounter,
}

impl WorkerState {
    fn import(
        global_n: u32,
        cfg: AtmConfig,
        members: Vec<u32>,
        recs: Vec<Aircraft>,
    ) -> WorkerState {
        let inner = InnerIndex::build(&recs, &cfg);
        WorkerState {
            global_n,
            cfg,
            members,
            recs,
            inner,
            stats: DetectStats::default(),
            ops: OpCounter::new(),
        }
    }

    fn run_wave(&mut self, ids: &[u32]) -> Result<Vec<(u32, TurnRecord)>, TransportError> {
        let mut out = Vec::with_capacity(ids.len());
        for &id in ids {
            let li = self
                .members
                .binary_search(&id)
                .map_err(|_| err(format!("claimed aircraft {id} is not a member here")))?;
            let track = self.recs[li];
            let mut cands = Vec::new();
            self.inner
                .candidates_into(&track, self.recs.len(), &mut cands);
            let (recs, members, cfg) = (&self.recs, Some(&self.members[..]), &self.cfg);
            let global_n = self.global_n as usize;
            let mut ops = OpCounter::new();
            let turn = simulate_turn((track.dx, track.dy), cfg, &mut ops, |vel, ops| {
                scan_candidates(
                    recs,
                    members,
                    li,
                    global_n,
                    vel,
                    cfg,
                    cands.iter().map(|&l| l as usize),
                    ops,
                )
            });
            let rec = TurnRecord { turn, ops };
            self.stats.absorb(&rec.turn.stats);
            self.ops.merge(&rec.ops);
            out.push((id, rec));
        }
        Ok(out)
    }

    fn commit(&mut self, deltas: &[(u32, (f32, f32))]) {
        // Velocity-only writes: positions and altitudes are untouched, so
        // the inner index built at import stays valid.
        for &(id, vel) in deltas {
            if let Ok(li) = self.members.binary_search(&id) {
                self.recs[li].dx = vel.0;
                self.recs[li].dy = vel.1;
            }
        }
    }
}

/// Serve one coordinator connection as a shard worker: handshake, then loop
/// over detect executions (export → waves/commits → finish) until a
/// `Shutdown` frame or a clean EOF. Returns the shard id served on orderly
/// exit; any protocol or I/O fault is an error (the `shard-worker` binary
/// exits nonzero on it, which is what the coordinator's worker-death
/// handling keys on).
pub fn run_shard_worker(stream: TcpStream) -> Result<u32, TransportError> {
    run_shard_worker_with(stream, WorkerOptions::default())
}

/// [`run_shard_worker`] with fault-injection options.
pub fn run_shard_worker_with(
    stream: TcpStream,
    opts: WorkerOptions,
) -> Result<u32, TransportError> {
    stream.set_nodelay(true).ok();
    let mut link = FrameStream::new(stream)?;
    link.send(&Frame::Hello {
        version: WIRE_VERSION,
    })?;
    let shard = match link.recv()? {
        Frame::HelloAck { shard, .. } => shard,
        other => return Err(err(format!("expected hello-ack, got {}", other.name()))),
    };

    let mut state: Option<WorkerState> = None;
    let mut waves_served = 0u64;
    loop {
        let Some(frame) = link.recv_eof()? else {
            return Ok(shard); // coordinator dropped cleanly
        };
        match frame {
            Frame::Export {
                global_n,
                cfg,
                members,
                recs,
            } => {
                if members.len() != recs.len() {
                    return Err(err(format!(
                        "export with {} ids but {} records",
                        members.len(),
                        recs.len()
                    )));
                }
                state = Some(WorkerState::import(global_n, cfg, members, recs));
            }
            Frame::Wave { seq, ids } => {
                if let Some(k) = opts.die_after_waves {
                    if waves_served >= k {
                        return Err(err(format!(
                            "shard {shard}: injected fault after {waves_served} wave(s)"
                        )));
                    }
                }
                let st = state
                    .as_mut()
                    .ok_or_else(|| err("wave claim before any export"))?;
                let turns = st.run_wave(&ids)?;
                waves_served += 1;
                link.send(&Frame::Turns { seq, turns })?;
            }
            Frame::Commit { deltas } => {
                let st = state
                    .as_mut()
                    .ok_or_else(|| err("commit before any export"))?;
                st.commit(&deltas);
            }
            Frame::Finish => {
                let st = state
                    .as_mut()
                    .ok_or_else(|| err("finish before any export"))?;
                link.send(&Frame::Summary {
                    stats: st.stats,
                    ops: st.ops.clone(),
                })?;
            }
            Frame::Shutdown => return Ok(shard),
            other => {
                return Err(err(format!(
                    "unexpected {} frame on a worker link",
                    other.name()
                )));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::detect_resolve_all;
    use crate::shard::detect_resolve_via_transport;
    use std::net::TcpListener;

    fn crossing_fleet(n: u32) -> Vec<Aircraft> {
        (0..n)
            .map(|k| {
                let ang = k as f32 * 0.37;
                let r = 15.0 + (k % 11) as f32 * 10.0;
                Aircraft::at(r * ang.cos(), r * ang.sin())
                    .with_velocity(-0.06 * ang.cos(), -0.06 * ang.sin())
                    .with_altitude(5_000.0 + (k % 6) as f32 * 800.0)
            })
            .collect()
    }

    #[test]
    fn frames_round_trip_bit_exactly() {
        let mut odd = OpCounter::new();
        odd.ops[3] = 77;
        odd.bytes_loaded = 1 << 40;
        odd.divergent_branches = 5;
        let weird = Aircraft {
            x: f32::from_bits(0x7fc0_1234), // NaN with payload
            y: -0.0,
            dx: f32::MIN_POSITIVE / 2.0, // denormal
            ..Aircraft::at(1.5, -2.5)
        };
        let frames = vec![
            Frame::Hello { version: 3 },
            Frame::HelloAck {
                shard: 7,
                shard_count: 16,
            },
            Frame::Export {
                global_n: 1000,
                cfg: AtmConfig::with_seed(99),
                members: vec![1, 5, 9],
                recs: vec![weird, Aircraft::at(0.0, 0.0), Aircraft::at(3.0, 4.0)],
            },
            Frame::Wave {
                seq: 12,
                ids: vec![5, 9],
            },
            Frame::Turns {
                seq: 12,
                turns: vec![(
                    5,
                    TurnRecord {
                        turn: Turn {
                            events: vec![(9, 3.25), (1, f32::INFINITY)],
                            outcome: TurnOutcome::Unresolved {
                                partner: 9,
                                tmin: 3.25,
                            },
                            stats: DetectStats {
                                pair_checks: 40,
                                critical_conflicts: 2,
                                rotations: 12,
                                resolved: 0,
                                unresolved: 1,
                            },
                        },
                        ops: odd.clone(),
                    },
                )],
            },
            Frame::Commit {
                deltas: vec![(3, (0.25, -0.0))],
            },
            Frame::Finish,
            Frame::Summary {
                stats: DetectStats::default(),
                ops: odd,
            },
            Frame::Shutdown,
            Frame::Json {
                body: "{\"verb\":\"status\"}".to_owned(),
            },
        ];
        for frame in frames {
            let payload = frame.encode().unwrap();
            let back = Frame::decode(&payload).unwrap();
            // PartialEq on f32 fields misses NaN bit patterns; compare the
            // re-encoded bytes, which carry the exact bits.
            assert_eq!(payload, back.encode().unwrap(), "{}", frame.name());
        }
    }

    #[test]
    fn decoder_rejects_malformed_payloads() {
        // Unknown tag.
        assert!(Frame::decode(&[200]).is_err());
        // Truncated body.
        assert!(Frame::decode(&[1, 0, 0]).is_err());
        // Trailing bytes.
        assert!(Frame::decode(&[7, 0]).is_err());
        // Bad boolean inside an aircraft record.
        let mut payload = Frame::Export {
            global_n: 1,
            cfg: AtmConfig::default(),
            members: vec![0],
            recs: vec![Aircraft::at(0.0, 0.0)],
        }
        .encode()
        .unwrap();
        let len = payload.len();
        payload[len - 4 * 5 - 1] = 9; // the `col` byte
        assert!(Frame::decode(&payload).is_err());
        // Sequence count beyond the payload.
        let wave = Frame::Wave {
            seq: 1,
            ids: vec![1, 2, 3],
        }
        .encode()
        .unwrap();
        let mut huge = wave.clone();
        huge[9] = 0xff; // count low byte
        assert!(Frame::decode(&huge).is_err());
    }

    #[test]
    fn only_the_naive_and_grid_scan_tags_decode() {
        let export = |scan| {
            Frame::Export {
                global_n: 1,
                cfg: AtmConfig {
                    scan,
                    ..AtmConfig::default()
                },
                members: vec![0],
                recs: vec![Aircraft::at(0.0, 0.0)],
            }
            .encode()
            .unwrap()
        };
        let naive = export(ScanMode::Naive);
        let grid = export(ScanMode::Grid);
        // The config frames differ in exactly the scan-mode tag byte.
        let diff: Vec<usize> = (0..naive.len()).filter(|&k| naive[k] != grid[k]).collect();
        assert_eq!(diff.len(), 1);
        let at = diff[0];
        assert_eq!((naive[at], grid[at]), (0, 2));
        // Tags 1 and 3 (the retired banded and incremental modes) are
        // refused, like any other unknown tag.
        for tag in [1u8, 3, 4, 0xff] {
            let mut payload = grid.clone();
            payload[at] = tag;
            let e = Frame::decode(&payload).expect_err("retired scan tag must not decode");
            assert!(e.to_string().contains("bad scan-mode tag"), "{e}");
        }
    }

    /// Coordinator + one worker thread per shard over real localhost TCP:
    /// the serialized transport must be bit-identical to the sequential
    /// reference (and therefore to the in-process transport) across scan
    /// modes, including the summary cross-check passing.
    #[test]
    fn socket_transport_is_bit_identical_to_serial() {
        for scan in [ScanMode::Naive, ScanMode::Grid] {
            let cfg = AtmConfig {
                shards: 2,
                scan,
                ..AtmConfig::default()
            };
            let mut serial = crossing_fleet(150);
            let mut counter = OpCounter::new();
            let s_stats = detect_resolve_all(&mut serial, &cfg, &mut counter);

            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let shard_count = cfg.shards * cfg.shards;
            let workers: Vec<_> = (0..shard_count)
                .map(|_| {
                    std::thread::spawn(move || run_shard_worker(TcpStream::connect(addr).unwrap()))
                })
                .collect();
            let mut transport = SocketTransport::accept_workers(&listener, shard_count).unwrap();

            // Two executions over one set of worker links: the transport
            // must reset per-execution state on every export.
            for round in 0..2 {
                let mut fleet = crossing_fleet(150);
                let (stats, ops) =
                    detect_resolve_via_transport(&mut fleet, &cfg, &mut transport).unwrap();
                assert_eq!(serial, fleet, "{scan:?} round {round}");
                assert_eq!(s_stats, stats, "{scan:?} round {round}");
                assert_eq!(counter, ops, "{scan:?} round {round}");
            }

            drop(transport); // sends Shutdown
            for w in workers {
                w.join().unwrap().unwrap();
            }
        }
    }

    #[test]
    fn version_mismatch_is_refused_at_handshake() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let bad = std::thread::spawn(move || {
            let mut link = FrameStream::new(TcpStream::connect(addr).unwrap()).unwrap();
            link.send(&Frame::Hello {
                version: WIRE_VERSION + 1,
            })
            .unwrap();
            link.recv_eof()
        });
        let refused = SocketTransport::accept_workers(&listener, 1)
            .err()
            .expect("mismatched version must be refused");
        assert!(refused.to_string().contains("wire version"));
        drop(bad.join());
    }

    /// A worker that dies mid-protocol must surface as a clean transport
    /// error naming the shard — not a hang, not a wrong result.
    #[test]
    fn dead_worker_is_a_clean_error() {
        let cfg = AtmConfig {
            shards: 2,
            ..AtmConfig::default()
        };
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shard_count = 4;
        let workers: Vec<_> = (0..shard_count)
            .map(|w| {
                std::thread::spawn(move || {
                    let opts = WorkerOptions {
                        // Shard 0 dies on its first wave claim.
                        die_after_waves: if w == 0 { Some(0) } else { None },
                    };
                    run_shard_worker_with(TcpStream::connect(addr).unwrap(), opts)
                })
            })
            .collect();
        let mut transport = SocketTransport::accept_workers(&listener, shard_count).unwrap();
        let mut fleet = crossing_fleet(150);
        let outcome = detect_resolve_via_transport(&mut fleet, &cfg, &mut transport);
        assert!(outcome.is_err(), "dead worker must fail the execution");
        drop(transport);
        for w in workers {
            let _ = w.join().unwrap(); // the dying shard returns Err
        }
    }
}
