//! Sharded airfields: geographic partitioning of the fleet with a
//! cross-shard boundary (halo) scan and an exact parallel detect.
//!
//! The 256 nm × 256 nm field is cut into an S×S grid of shards
//! ([`AtmConfig::shards`]). Each aircraft is **owned** by exactly one shard
//! — the clamped floor cell of its position (the canonical shard-ownership
//! rule, so every aircraft is scanned by exactly one shard and straddling
//! pairs are examined exactly as often as in the unsharded pipeline). Each
//! shard additionally holds a **halo**: every foreign aircraft within the
//! critical-reach envelope of the shard's (measured) bounding box. A
//! shard-local scan over `own ∪ halo` therefore sees every aircraft that
//! could pass the pair gates against any of its owned aircraft
//! ([`ShardedIndex`]); the scan itself composes with every
//! [`crate::config::ScanMode`] by building the grid per shard.
//!
//! Like the grid fast path, sharding is a **wall-clock knob
//! only**: the sharded scan books skipped pairs in aggregate (DESIGN.md §8,
//! §9), so fleets, [`DetectStats`], booked op totals and every backend's
//! modeled time are bit-identical to the unsharded run — enforced by the
//! differential tests below, `tests/properties.rs` and `tests/golden.rs`.
//!
//! The wall-clock win comes from [`detect_resolve_parallel`]: an exact
//! parallelization of the sequential Tasks 2+3 cascade. The sequential
//! semantics are order-coupled (aircraft `i`'s scan must see the committed
//! velocities of aircraft `j < i` and the initial velocities of `j > i`),
//! but a turn's outcome can only depend on aircraft that pass the
//! position/altitude pair gates — and those are static during Tasks 2+3.
//! Building the gate-dependency DAG (edge `j → i` for `j < i` iff the pair
//! passes both gates) and processing aircraft in topological *waves* makes
//! every turn inside a wave a pure read of the live fleet: gate partners
//! are never in the same wave, so lower-indexed partners are already
//! committed and higher-indexed ones untouched, exactly as the sequential
//! cascade would present them. Wave members are grouped by owner shard and
//! fanned across worker threads; after each wave the resolved velocities
//! are committed serially, and a final serial replay applies all deferred
//! collision marks in the sequential write order — bit-for-bit.

use crate::airfield::Airfield;
use crate::batcher::{same_altitude_band, within_critical_reach};
use crate::config::{AtmConfig, ScanMode};
use crate::detect::{
    detect_resolve_all, rotate_velocity, scan_candidates, DetectStats, IncrementalGrid, ScanResult,
};
use crate::track::{
    adopt_expected_phase, any_unmatched, apply_radar_phase, correlate_radar_pass,
    expected_position_phase, TrackStats,
};
use crate::types::{
    Aircraft, RadarReport, MATCH_MULTIPLE, MATCH_ONE, NO_COLLISION, RADAR_DISCARDED,
    RADAR_UNMATCHED,
};
use sim_clock::{CostSink, NullSink, OpCounter};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The canonical shard-ownership rule: an S×S grid of equal cells over
/// `[-half_width, half_width]²`. An aircraft belongs to the clamped floor
/// cell of its position — a pure function of `(x, y)`, so ownership is
/// deterministic, total (non-finite coordinates fall into shard 0) and
/// unique: every aircraft is scanned by exactly one shard.
#[derive(Clone, Copy, Debug)]
pub struct ShardMap {
    side: usize,
    half_width: f32,
    cell: f32,
}

impl ShardMap {
    /// An S×S map over a field of the given half-width.
    pub fn new(side: usize, half_width: f32) -> ShardMap {
        let side = side.max(1);
        ShardMap {
            side,
            half_width,
            cell: 2.0 * half_width / side as f32,
        }
    }

    fn axis(&self, v: f32) -> usize {
        if !v.is_finite() || self.cell.is_nan() || self.cell <= 0.0 {
            return 0;
        }
        let q = ((v + self.half_width) / self.cell).floor();
        if !q.is_finite() {
            return 0;
        }
        (q as i64).clamp(0, self.side as i64 - 1) as usize
    }

    /// Owner shard of a position (row-major cell id).
    pub fn shard_of(&self, x: f32, y: f32) -> usize {
        self.axis(y) * self.side + self.axis(x)
    }

    /// Cells per axis.
    pub fn side(&self) -> usize {
        self.side
    }

    /// Total shard count (`side²`).
    pub fn shard_count(&self) -> usize {
        self.side * self.side
    }

    /// Cell width, nm.
    pub fn cell_nm(&self) -> f32 {
        self.cell
    }
}

/// Per-shard candidate index: the shard's member list composed with the
/// scan-mode index built over the gathered member records.
#[derive(Clone, Debug)]
pub(crate) enum InnerIndex {
    /// [`ScanMode::Naive`]: every member is a candidate.
    All,
    /// [`ScanMode::Grid`] under the stateless per-execution build: a fresh
    /// all-dirty grid over the members. Cross-rescan persistence lives in
    /// [`crate::detect::IncrementalEngine`] / [`ShardedIncremental`], not
    /// here.
    Grid(IncrementalGrid),
}

impl InnerIndex {
    /// Build the scan-mode index over one shard's gathered member records —
    /// the same build [`ShardedIndex::build`] performs in-process and a
    /// shard-worker process performs after a halo import. Identical record
    /// bits give identical indexes, which is what lets the serialized
    /// transport reproduce the in-process candidate supersets.
    pub(crate) fn build(recs: &[Aircraft], cfg: &AtmConfig) -> InnerIndex {
        match cfg.scan {
            ScanMode::Naive => InnerIndex::All,
            ScanMode::Grid => InnerIndex::Grid(IncrementalGrid::build(recs, cfg)),
        }
    }

    /// Gather a track's local candidate ids (positions in the member list
    /// of `n_local` records) into `out`, cleared first.
    pub(crate) fn candidates_into(&self, track: &Aircraft, n_local: usize, out: &mut Vec<u32>) {
        match self {
            InnerIndex::All => {
                out.clear();
                out.extend(0..n_local as u32);
            }
            InnerIndex::Grid(g) => g.candidates_into(track, out),
        }
    }
}

/// One shard's slice of the fleet: owned aircraft plus the boundary halo.
#[derive(Clone, Debug)]
struct ShardCell {
    /// Global aircraft ids, ascending: the shard's owned aircraft plus
    /// every foreign aircraft within the padded critical-reach envelope of
    /// the shard's measured bounding box (the halo-export contract).
    members: Vec<u32>,
    /// Scan-mode index over the gathered member records; its candidate ids
    /// are *local* (positions in `members`).
    inner: InnerIndex,
}

/// The sharded candidate index: ownership map, per-aircraft owner, and one
/// [`ShardCell`] per shard. Built once per detect execution (positions and
/// altitudes never change during Tasks 2+3) by [`ScanIndex::for_config`]
/// when `cfg.shards > 1`.
///
/// Correctness (superset property): a gate-passing partner `j` of an
/// aircraft `i` owned by shard `s` satisfies `|Δx| ≤ reach ∧ |Δy| ≤ reach`;
/// `i` lies inside `s`'s measured bounding box, so `j` is within `reach` of
/// the box and the halo pad (`reach · (1 + 1e-6) + 1 nm`, dominating every
/// f32 rounding source in the gate's subtraction) admits it into
/// `members(s)`. The scan re-checks the real f32 gates per candidate, so a
/// generous halo can never change a result — only waste a visit.
#[derive(Clone, Debug)]
pub struct ShardedIndex {
    map: ShardMap,
    /// Owner shard per aircraft.
    owner: Vec<u32>,
    cells: Vec<ShardCell>,
}

impl ShardedIndex {
    /// Build the index for one detect execution.
    pub fn build(aircraft: &[Aircraft], cfg: &AtmConfig) -> ShardedIndex {
        let map = ShardMap::new(cfg.shards, cfg.half_width);
        let n = aircraft.len();
        let shard_count = map.shard_count();
        let owner: Vec<u32> = aircraft
            .iter()
            .map(|a| map.shard_of(a.x, a.y) as u32)
            .collect();

        let reach = cfg.critical_reach_nm();
        let finite =
            reach.is_finite() && aircraft.iter().all(|a| a.x.is_finite() && a.y.is_finite());

        let mut members: Vec<Vec<u32>> = vec![Vec::new(); shard_count];
        if finite {
            // Measured bounding box of each shard's owned aircraft
            // [lo_x, hi_x, lo_y, hi_y]; `None` for empty shards (which own
            // nothing and therefore never scan).
            let mut boxes: Vec<Option<[f32; 4]>> = vec![None; shard_count];
            for (i, a) in aircraft.iter().enumerate() {
                let b = boxes[owner[i] as usize].get_or_insert([a.x, a.x, a.y, a.y]);
                b[0] = b[0].min(a.x);
                b[1] = b[1].max(a.x);
                b[2] = b[2].min(a.y);
                b[3] = b[3].max(a.y);
            }
            let pad = reach * 1.000_001 + 1.0;
            for (t, bx) in boxes.iter().enumerate() {
                let Some(b) = bx else { continue };
                for (j, a) in aircraft.iter().enumerate() {
                    // Distance from the aircraft to the box, per axis.
                    let ex = (b[0] - a.x).max(a.x - b[1]).max(0.0);
                    let ey = (b[2] - a.y).max(a.y - b[3]).max(0.0);
                    if ex <= pad && ey <= pad {
                        members[t].push(j as u32);
                    }
                }
            }
        } else {
            // Degenerate geometry: every shard sees the whole fleet
            // (correct at unsharded cost, the same fallback posture as the
            // grid).
            for m in &mut members {
                *m = (0..n as u32).collect();
            }
        }

        let cells = members
            .into_iter()
            .map(|mem| {
                let recs: Vec<Aircraft> = mem.iter().map(|&j| aircraft[j as usize]).collect();
                let inner = InnerIndex::build(&recs, cfg);
                ShardCell {
                    members: mem,
                    inner,
                }
            })
            .collect();

        ShardedIndex { map, owner, cells }
    }

    /// The ownership map.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Owner shard of aircraft `i`.
    pub fn owner_of(&self, i: usize) -> usize {
        self.owner[i] as usize
    }

    /// Total shard count.
    pub fn shard_count(&self) -> usize {
        self.cells.len()
    }

    /// Member ids (owned + halo, ascending) of one shard.
    pub fn members(&self, shard: usize) -> &[u32] {
        &self.cells[shard].members
    }

    /// Gather the global candidate ids for track aircraft `i` (scanned by
    /// its owner shard) into `out`, cleared first: a superset of every
    /// aircraft that could pass both pair gates against `track` — callers
    /// re-check the real f32 gates. Used by the sharded scan and by the AP
    /// backend's candidate masks.
    pub fn candidates_into(&self, i: usize, track: &Aircraft, out: &mut Vec<u32>) {
        let cell = &self.cells[self.owner[i] as usize];
        cell.inner.candidates_into(track, cell.members.len(), out);
        for l in out.iter_mut() {
            *l = cell.members[*l as usize];
        }
    }

    /// Halo size of one shard (members that are not owned by it).
    pub fn halo_len(&self, shard: usize) -> usize {
        self.cells[shard]
            .members
            .iter()
            .filter(|&&j| self.owner[j as usize] as usize != shard)
            .count()
    }
}

/// One shard's persistent slice under [`ShardedIncremental`]: the member
/// list, the gathered member records of the current rescan, and an inner
/// [`IncrementalGrid`] kept alive over those records.
#[derive(Debug, Default)]
struct IncShardCell {
    /// Global aircraft ids, ascending (owned + halo).
    members: Vec<u32>,
    /// Member records regathered each rescan (altitude and velocity bits
    /// can change without the position moving).
    recs: Vec<Aircraft>,
    /// Incremental grid over `recs`; candidate ids are *local* (positions
    /// in `members`).
    inner: IncrementalGrid,
}

/// The halo-export contract of [`ShardedIndex`] kept alive across rescans,
/// for [`crate::detect::IncrementalEngine`] under `cfg.shards > 1`.
///
/// Ownership and the measured per-shard bounding boxes are refreshed every
/// rescan (a departing aircraft can shrink a box, so there is no cheaper
/// exact maintenance), but a shard's **membership** is recomputed from
/// scratch only when its bounding-box *bits* move; while a box holds still,
/// only aircraft whose position bits changed are re-tested against the
/// padded box and spliced in or out. Inside each shard an
/// [`IncrementalGrid`] moves members between cells incrementally.
///
/// Membership is thereby maintained as the exact pure function of the
/// current boxes and positions that [`ShardedIndex::build`] computes, so
/// the superset argument — and with it bit-identity of every scan output —
/// carries over verbatim.
#[derive(Debug, Default)]
pub struct ShardedIncremental {
    map: Option<ShardMap>,
    /// Owner shard per aircraft.
    owner: Vec<u32>,
    /// Position bits per aircraft at last sighting.
    pos: Vec<[u32; 2]>,
    /// Measured bounding box per shard (`[lo_x, hi_x, lo_y, hi_y]`; `None`
    /// for shards that own nothing, which never scan).
    boxes: Vec<Option<[f32; 4]>>,
    cells: Vec<IncShardCell>,
    /// Degenerate geometry (non-finite reach or position): every shard
    /// holds the whole fleet, the same fallback posture as
    /// [`ShardedIndex::build`].
    degenerate: bool,
}

impl ShardedIncremental {
    /// An empty enumerator; the first [`ShardedIncremental::update`]
    /// populates it.
    pub fn new() -> ShardedIncremental {
        ShardedIncremental::default()
    }

    /// Bring ownership, boxes, membership and the per-shard inner grids up
    /// to date for this rescan's fleet snapshot.
    pub fn update(&mut self, aircraft: &[Aircraft], cfg: &AtmConfig) {
        let n = aircraft.len();
        let map = ShardMap::new(cfg.shards, cfg.half_width);
        let shard_count = map.shard_count();
        let fresh = self.owner.len() != n
            || self.map.is_none_or(|m| {
                m.side() != map.side() || m.cell_nm().to_bits() != map.cell_nm().to_bits()
            });
        self.map = Some(map);

        // Owners: recomputed only for aircraft whose position bits moved.
        let mut moved: Vec<u32> = Vec::new();
        if fresh {
            self.owner.clear();
            self.owner
                .extend(aircraft.iter().map(|a| map.shard_of(a.x, a.y) as u32));
            self.pos.clear();
            self.pos
                .extend(aircraft.iter().map(|a| [a.x.to_bits(), a.y.to_bits()]));
        } else {
            for (i, a) in aircraft.iter().enumerate() {
                let p = [a.x.to_bits(), a.y.to_bits()];
                if p != self.pos[i] {
                    self.pos[i] = p;
                    self.owner[i] = map.shard_of(a.x, a.y) as u32;
                    moved.push(i as u32);
                }
            }
        }

        let reach = cfg.critical_reach_nm();
        let finite =
            reach.is_finite() && aircraft.iter().all(|a| a.x.is_finite() && a.y.is_finite());
        let mut boxes: Vec<Option<[f32; 4]>> = vec![None; shard_count];
        if finite {
            for (i, a) in aircraft.iter().enumerate() {
                let b = boxes[self.owner[i] as usize].get_or_insert([a.x, a.x, a.y, a.y]);
                b[0] = b[0].min(a.x);
                b[1] = b[1].max(a.x);
                b[2] = b[2].min(a.y);
                b[3] = b[3].max(a.y);
            }
        }
        let was_degenerate = std::mem::replace(&mut self.degenerate, !finite);
        let boxes_were = std::mem::replace(&mut self.boxes, boxes);
        self.cells.truncate(shard_count);
        self.cells.resize_with(shard_count, IncShardCell::default);

        let pad = reach * 1.000_001 + 1.0;
        let box_bits = |b: &Option<[f32; 4]>| b.map(|b| b.map(f32::to_bits));
        for t in 0..shard_count {
            let cell = &mut self.cells[t];
            let box_moved =
                box_bits(boxes_were.get(t).unwrap_or(&None)) != box_bits(&self.boxes[t]);
            let re_export = fresh || was_degenerate != self.degenerate || box_moved;
            if !finite {
                if re_export {
                    cell.members.clear();
                    cell.members.extend(0..n as u32);
                }
            } else if re_export {
                // Full halo re-export against the moved box.
                cell.members.clear();
                if let Some(b) = self.boxes[t] {
                    for (j, a) in aircraft.iter().enumerate() {
                        let ex = (b[0] - a.x).max(a.x - b[1]).max(0.0);
                        let ey = (b[2] - a.y).max(a.y - b[3]).max(0.0);
                        if ex <= pad && ey <= pad {
                            cell.members.push(j as u32);
                        }
                    }
                }
            } else if let Some(b) = self.boxes[t] {
                // Box bits unchanged: only moved aircraft can cross the
                // membership predicate.
                for &j in &moved {
                    let a = &aircraft[j as usize];
                    let ex = (b[0] - a.x).max(a.x - b[1]).max(0.0);
                    let ey = (b[2] - a.y).max(a.y - b[3]).max(0.0);
                    let inside = ex <= pad && ey <= pad;
                    match (cell.members.binary_search(&j), inside) {
                        (Ok(_), true) | (Err(_), false) => {}
                        (Ok(at), false) => {
                            cell.members.remove(at);
                        }
                        (Err(at), true) => {
                            cell.members.insert(at, j);
                        }
                    }
                }
            }

            cell.recs.clear();
            cell.recs
                .extend(cell.members.iter().map(|&j| aircraft[j as usize]));
            cell.inner.update(&cell.recs, cfg);
        }
    }

    /// Global candidate ids for track aircraft `i` (scanned by its owner
    /// shard) gathered into a reusable buffer: the same gate-passer
    /// superset [`ShardedIndex::candidates_into`] gathers.
    pub fn candidates_into(&self, i: usize, track: &Aircraft, out: &mut Vec<u32>) {
        let cell = &self.cells[self.owner[i] as usize];
        cell.inner.candidates_into(track, out);
        for l in out.iter_mut() {
            *l = cell.members[*l as usize];
        }
    }
}

/// How one aircraft's fused Tasks 2+3 turn ended.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TurnOutcome {
    /// No critical conflict on the committed path: only the horizon reset
    /// is written; incoming collision marks are preserved.
    Clean,
    /// A conflict-free trial path was committed (`chk > 0`).
    Resolved {
        /// The committed trial velocity.
        vel: (f32, f32),
    },
    /// The rotation sequence was exhausted: original path kept, conflict
    /// left flagged with the last partner.
    Unresolved {
        /// The last critical partner (global id).
        partner: u32,
        /// Its conflict-start time.
        tmin: f32,
    },
}

/// The condensed effect of one aircraft's turn, recorded by the read-only
/// simulation [`simulate_turn_scanned`] and applied by the coordinator's
/// serial replay: partner marks in scan order, the turn outcome, and the
/// turn's stats and booked op totals. All ids are global, so a record is
/// meaningful outside the shard that produced it — the unit the wire
/// codec's `turns` frames carry between processes.
#[derive(Clone, Debug, PartialEq)]
pub struct TurnRecord {
    /// `(partner, tmin)` per critical conflict, in encounter order.
    pub events: Vec<(u32, f32)>,
    /// How the turn ended.
    pub outcome: TurnOutcome,
    /// The turn's detect stats.
    pub stats: DetectStats,
    /// The op totals the turn booked.
    pub ops: OpCounter,
}

/// Read-only mirror of [`crate::detect::check_collision_path_scanned`]:
/// runs one aircraft's full rotation-loop turn with committed velocity
/// `base` against a caller-supplied scanner, recording every write it
/// *would* perform instead of mutating. Bookings (stores, branches, scans,
/// rotations) follow the mutating routine call-for-call, so the merged
/// per-turn [`OpCounter`]s total exactly what the sequential cascade books.
///
/// `scan` must return what [`crate::detect::scan_pairs`] would for the same
/// `(track, vel)` — the in-process transport scans the live fleet through
/// the sharded index, a shard-worker process scans its imported member
/// records ([`crate::detect::scan_candidates`] over its member ids). Sound
/// inside a wave because a turn reads only static fields (positions,
/// altitudes) plus the velocities of its *gate passers* — and gate passers
/// are never in the same wave.
pub fn simulate_turn_scanned(
    base: (f32, f32),
    cfg: &AtmConfig,
    mut scan: impl FnMut((f32, f32), &mut OpCounter) -> ScanResult,
) -> TurnRecord {
    let mut ops = OpCounter::new();
    let mut stats = DetectStats::default();
    let mut events: Vec<(u32, f32)> = Vec::new();

    // Horizon reset (deferred write): time_till, batx, baty.
    ops.store(12);

    let rotations = cfg.rotation_sequence();
    let mut next_rotation = 0usize;
    let mut vel = base;
    let mut chk = 0u32;

    loop {
        let scan = scan(vel, &mut ops);
        stats.pair_checks += scan.checks;

        let Some((partner, tmin)) = scan.critical else {
            break;
        };
        stats.critical_conflicts += 1;

        // Mark both aircraft (deferred).
        events.push((partner as u32, tmin));
        ops.store(24);

        ops.branch(false);
        if next_rotation >= rotations.len() {
            stats.unresolved += 1;
            ops.store(8);
            return TurnRecord {
                events,
                outcome: TurnOutcome::Unresolved {
                    partner: partner as u32,
                    tmin,
                },
                stats,
                ops,
            };
        }

        vel = rotate_velocity(base, rotations[next_rotation], &mut ops);
        next_rotation += 1;
        chk += 1;
        stats.rotations += 1;
        ops.store(8);
    }

    ops.branch(false);
    let outcome = if chk > 0 {
        ops.store(20);
        stats.resolved += 1;
        TurnOutcome::Resolved { vel }
    } else {
        TurnOutcome::Clean
    };
    TurnRecord {
        events,
        outcome,
        stats,
        ops,
    }
}

/// One aircraft's read-only turn against the live fleet through the sharded
/// index: the in-process scanner. Candidates are gathered once per turn —
/// they depend only on the track's position and altitude, which are static
/// across the rotation rescans — and every rescan books the full aggregate
/// mix via [`scan_candidates`], exactly as the sequential
/// cascade's pruning scan does.
fn turn_for(fleet: &[Aircraft], index: &ShardedIndex, i: usize, cfg: &AtmConfig) -> TurnRecord {
    let track = &fleet[i];
    let mut cands = Vec::new();
    index.candidates_into(i, track, &mut cands);
    simulate_turn_scanned((track.dx, track.dy), cfg, |vel, ops| {
        let cands = cands.iter().map(|&p| p as usize);
        scan_candidates(fleet, None, i, fleet.len(), vel, cfg, cands, ops)
    })
}

/// A transport-layer failure: the only error the halo-exchange seam can
/// surface. In-process transports never fail; socket transports wrap every
/// I/O and protocol error in one of these, tagged with the shard link it
/// happened on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TransportError {
    msg: String,
}

impl TransportError {
    /// Wrap a message.
    pub fn new(msg: impl Into<String>) -> TransportError {
        TransportError { msg: msg.into() }
    }
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for TransportError {}

/// One wave's work for one shard: `(owner shard, aircraft ids ascending)` —
/// the unit a worker (thread or process) claims.
pub type WaveGroup = (u32, Vec<u32>);

/// The halo-exchange seam of the parallel detect: who simulates a wave's
/// turns and how halo exports, wave hand-offs and resolved-velocity commits
/// travel. [`detect_resolve_via_transport`] drives the same wave schedule
/// and serial replay through any implementation, so the transport choice —
/// in-process threads ([`InProcessTransport`]) or one OS process per shard
/// over sockets ([`crate::wire::SocketTransport`]) — is a wall-clock and
/// deployment knob only: fleets, stats and booked op totals stay
/// bit-identical (DESIGN.md §15).
pub trait ShardTransport {
    /// The shard count this transport is committed to serving, or `None`
    /// when it adapts to whatever the index needs (the in-process case). A
    /// socket transport holds one worker link per shard, so a mismatch with
    /// the config's grid is a setup error the driver reports before any
    /// frame is sent.
    fn shard_count(&self) -> Option<usize>;

    /// Start one detect execution: export each shard's member slice (the
    /// halo-export contract of [`ShardedIndex`]) to whoever will scan it.
    fn begin_detect(
        &mut self,
        aircraft: &[Aircraft],
        index: &ShardedIndex,
        cfg: &AtmConfig,
    ) -> Result<(), TransportError>;

    /// Simulate one wave: every listed aircraft's read-only turn, fanned
    /// across the transport's workers. Returns `(id, record)` pairs in any
    /// order — the driver sorts by id before committing.
    fn run_wave(
        &mut self,
        aircraft: &[Aircraft],
        index: &ShardedIndex,
        cfg: &AtmConfig,
        wave: &[WaveGroup],
    ) -> Result<Vec<(u32, TurnRecord)>, TransportError>;

    /// Broadcast the wave's resolved velocities (`(id, (dx, dy))`,
    /// ascending) so every copy of those aircraft — master fleet and worker
    /// halos — agrees before the next wave scans.
    fn commit(&mut self, deltas: &[(u32, (f32, f32))]) -> Result<(), TransportError>;

    /// End the detect execution. The driver passes its replay-summed totals
    /// so a transport with remote state can cross-check them against what
    /// its workers accumulated (a codec or scheduling bug fails loudly here
    /// rather than silently skewing modeled time).
    fn finish(&mut self, stats: &DetectStats, ops: &OpCounter) -> Result<(), TransportError>;
}

/// The zero-copy reference transport: wave turns are simulated by scoped
/// threads (or inline for small waves) reading the live fleet through the
/// sharded index. Never fails, allocates nothing between waves beyond the
/// per-turn records, and is byte-identical to the pre-seam thread grid.
pub struct InProcessTransport {
    workers: usize,
}

impl InProcessTransport {
    /// A transport fanning waves across up to `workers` threads.
    pub fn new(workers: usize) -> InProcessTransport {
        InProcessTransport {
            workers: workers.max(1),
        }
    }
}

impl ShardTransport for InProcessTransport {
    fn shard_count(&self) -> Option<usize> {
        None
    }

    fn begin_detect(
        &mut self,
        _aircraft: &[Aircraft],
        _index: &ShardedIndex,
        _cfg: &AtmConfig,
    ) -> Result<(), TransportError> {
        Ok(())
    }

    fn run_wave(
        &mut self,
        aircraft: &[Aircraft],
        index: &ShardedIndex,
        cfg: &AtmConfig,
        wave: &[WaveGroup],
    ) -> Result<Vec<(u32, TurnRecord)>, TransportError> {
        let total: usize = wave.iter().map(|(_, ids)| ids.len()).sum();
        let pool = self.workers.min(wave.len());
        // Small waves (the long tail after wave 0) run inline: spawning
        // threads would cost more than the turns themselves.
        if pool <= 1 || total < 64 {
            let mut out = Vec::with_capacity(total);
            for (_, ids) in wave {
                for &i in ids {
                    out.push((i, turn_for(aircraft, index, i as usize, cfg)));
                }
            }
            return Ok(out);
        }
        let results: Vec<Mutex<Vec<(u32, TurnRecord)>>> =
            wave.iter().map(|_| Mutex::new(Vec::new())).collect();
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..pool {
                let (results, cursor) = (&results, &cursor);
                scope.spawn(move || loop {
                    let g = cursor.fetch_add(1, Ordering::SeqCst);
                    if g >= wave.len() {
                        break;
                    }
                    let (_, ids) = &wave[g];
                    let mut recs = Vec::with_capacity(ids.len());
                    for &i in ids {
                        recs.push((i, turn_for(aircraft, index, i as usize, cfg)));
                    }
                    *results[g].lock().expect("wave result slot") = recs;
                });
            }
        });
        Ok(results
            .into_iter()
            .flat_map(|m| m.into_inner().expect("wave result slot"))
            .collect())
    }

    fn commit(&mut self, _deltas: &[(u32, (f32, f32))]) -> Result<(), TransportError> {
        Ok(()) // workers read the live fleet; the driver already wrote it
    }

    fn finish(&mut self, _stats: &DetectStats, _ops: &OpCounter) -> Result<(), TransportError> {
        Ok(())
    }
}

/// Exact parallel Tasks 2+3 over any [`ShardTransport`]: bit-identical to
/// [`crate::detect::detect_resolve_all`] run with an [`OpCounter`] sink,
/// whatever the transport.
///
/// Aircraft are leveled by the static gate-dependency DAG — level(i) is one
/// more than the max level of its lower-indexed gate partners, so gate
/// partners never share a wave in either index direction. Each wave's
/// turns, grouped by owner shard, are simulated read-only by the transport;
/// resolved velocities are committed to the master fleet (and broadcast to
/// the transport's workers) between waves; a final serial replay applies
/// the deferred collision marks in the sequential write order.
pub fn detect_resolve_via_transport(
    aircraft: &mut [Aircraft],
    cfg: &AtmConfig,
    transport: &mut (impl ShardTransport + ?Sized),
) -> Result<(DetectStats, OpCounter), TransportError> {
    let mut ops = OpCounter::new();
    let n = aircraft.len();
    if n < 2 {
        let stats = detect_resolve_all(aircraft, cfg, &mut ops);
        return Ok((stats, ops));
    }

    let index = ShardedIndex::build(aircraft, cfg);
    if let Some(served) = transport.shard_count() {
        if served != index.shard_count() {
            return Err(TransportError::new(format!(
                "transport serves {served} shard(s) but cfg.shards = {} needs {}",
                cfg.shards,
                index.shard_count()
            )));
        }
    }
    let reach = cfg.critical_reach_nm();

    // Wave levels: level(i) = 1 + max level of its lower-indexed gate
    // partners (0 when none).
    let mut level = vec![0u32; n];
    let mut max_level = 0u32;
    let mut cands = Vec::new();
    for i in 0..n {
        let track = aircraft[i];
        let mut lv = 0u32;
        index.candidates_into(i, &track, &mut cands);
        for &p in &cands {
            let p = p as usize;
            if p >= i || level[p] < lv {
                continue;
            }
            let other = &aircraft[p];
            if same_altitude_band(&track, other, cfg.alt_separation_ft, &mut NullSink)
                && within_critical_reach(&track, other, reach, &mut NullSink)
            {
                lv = lv.max(level[p] + 1);
            }
        }
        level[i] = lv;
        max_level = max_level.max(lv);
    }

    // Group each wave's members by owner shard: the unit a worker claims.
    let shard_count = index.shard_count();
    let mut grouped: Vec<Vec<Vec<u32>>> =
        vec![vec![Vec::new(); shard_count]; max_level as usize + 1];
    for i in 0..n {
        grouped[level[i] as usize][index.owner_of(i)].push(i as u32);
    }
    let waves: Vec<Vec<WaveGroup>> = grouped
        .into_iter()
        .map(|wave| {
            wave.into_iter()
                .enumerate()
                .filter(|(_, ids)| !ids.is_empty())
                .map(|(s, ids)| (s as u32, ids))
                .collect()
        })
        .collect();

    transport.begin_detect(aircraft, &index, cfg)?;

    let mut records: Vec<Option<TurnRecord>> = (0..n).map(|_| None).collect();
    for wave in &waves {
        let mut turns = transport.run_wave(aircraft, &index, cfg, wave)?;
        turns.sort_unstable_by_key(|&(i, _)| i);
        let mut deltas: Vec<(u32, (f32, f32))> = Vec::new();
        for (i, rec) in turns {
            let slot = records
                .get_mut(i as usize)
                .ok_or_else(|| TransportError::new(format!("turn for unknown aircraft {i}")))?;
            if slot.is_some() {
                return Err(TransportError::new(format!("aircraft {i} simulated twice")));
            }
            if let TurnOutcome::Resolved { vel } = rec.outcome {
                deltas.push((i, vel));
            }
            *slot = Some(rec);
        }
        // Commit resolved velocities before the next wave scans: to the
        // master fleet here, to every worker's halo copies via the
        // transport broadcast.
        for &(i, vel) in &deltas {
            aircraft[i as usize].dx = vel.0;
            aircraft[i as usize].dy = vel.1;
        }
        if !deltas.is_empty() {
            transport.commit(&deltas)?;
        }
    }

    // Serial replay, ascending: apply each turn's condensed own writes and
    // partner marks exactly where the sequential cascade would.
    let mut total = DetectStats::default();
    for i in 0..n {
        let rec = records[i]
            .take()
            .ok_or_else(|| TransportError::new(format!("aircraft {i} was never simulated")))?;
        match rec.outcome {
            TurnOutcome::Clean => {
                aircraft[i].time_till = cfg.critical_periods;
                aircraft[i].batx = aircraft[i].dx;
                aircraft[i].baty = aircraft[i].dy;
            }
            TurnOutcome::Resolved { vel } => {
                aircraft[i].dx = vel.0;
                aircraft[i].dy = vel.1;
                aircraft[i].batx = vel.0;
                aircraft[i].baty = vel.1;
                aircraft[i].col = false;
                aircraft[i].col_with = NO_COLLISION;
                aircraft[i].time_till = cfg.critical_periods;
            }
            TurnOutcome::Unresolved { partner, tmin } => {
                aircraft[i].col = true;
                aircraft[i].col_with = partner as i32;
                aircraft[i].time_till = tmin;
                aircraft[i].batx = aircraft[i].dx;
                aircraft[i].baty = aircraft[i].dy;
            }
        }
        for &(p, t) in &rec.events {
            let p = p as usize;
            aircraft[p].col = true;
            aircraft[p].col_with = i as i32;
            aircraft[p].time_till = aircraft[p].time_till.min(t);
        }
        total.absorb(&rec.stats);
        ops.merge(&rec.ops);
    }
    transport.finish(&total, &ops)?;
    Ok((total, ops))
}

/// Exact parallel Tasks 2+3 over in-process threads: bit-identical to
/// [`crate::detect::detect_resolve_all`] run with an [`OpCounter`] sink, at
/// any worker count.
///
/// With `workers == 1` or `cfg.shards == 1` this *is* the sequential
/// reference (no threads). Otherwise it is
/// [`detect_resolve_via_transport`] over an [`InProcessTransport`].
pub fn detect_resolve_parallel(
    aircraft: &mut [Aircraft],
    cfg: &AtmConfig,
    workers: usize,
) -> (DetectStats, OpCounter) {
    let workers = workers.max(1);
    if workers == 1 || cfg.shards <= 1 || aircraft.len() < 2 {
        let mut ops = OpCounter::new();
        let stats = detect_resolve_all(aircraft, cfg, &mut ops);
        return (stats, ops);
    }
    let mut transport = InProcessTransport::new(workers);
    detect_resolve_via_transport(aircraft, cfg, &mut transport)
        .expect("the in-process transport cannot fail")
}

/// Fan a pure per-aircraft phase over worker threads. Element-local phases
/// (each call reads and writes only `aircraft[i]`) are order-independent,
/// so contiguous ranges are handed to scoped threads; with one worker or a
/// small fleet the loop runs inline.
fn fan_aircraft_phase(
    aircraft: &mut [Aircraft],
    workers: usize,
    phase: impl Fn(&mut [Aircraft], usize) + Sync,
) {
    let workers = workers.max(1);
    if workers == 1 || aircraft.len() < 256 {
        for i in 0..aircraft.len() {
            phase(aircraft, i);
        }
        return;
    }
    let chunk = aircraft.len().div_ceil(workers);
    let phase = &phase;
    std::thread::scope(|s| {
        for part in aircraft.chunks_mut(chunk) {
            s.spawn(move || {
                for i in 0..part.len() {
                    phase(part, i);
                }
            });
        }
    });
}

/// Task 1 with its per-aircraft phases fanned across workers: identical
/// results and stats to [`crate::track::track_correlate`].
///
/// Phases 1 (expected position) and 3a (adopt expected) are element-local
/// and fan freely. The correlation passes (phase 2) are order-coupled — a
/// radar's outcome depends on the match state earlier-indexed radars left
/// behind (`MATCH_MULTIPLE` / first-hit logic), and the correlation box is
/// ≤ 2 nm, far below any shard width — so they stay serial, exactly as the
/// deterministic serialization defines them. Phase 3b writes through radar
/// matches and is O(radars): serial.
pub fn track_correlate_sharded(
    aircraft: &mut [Aircraft],
    radars: &mut [RadarReport],
    cfg: &AtmConfig,
    workers: usize,
) -> TrackStats {
    let mut stats = TrackStats::default();

    fan_aircraft_phase(aircraft, workers, |ac, i| {
        expected_position_phase(ac, i, &mut NullSink)
    });

    for pass in 0..cfg.track_passes {
        if pass > 0 && !any_unmatched(radars) {
            break;
        }
        stats.passes_run += 1;
        for i in 0..radars.len() {
            stats.box_tests += correlate_radar_pass(aircraft, radars, i, pass, cfg, &mut NullSink);
        }
    }

    fan_aircraft_phase(aircraft, workers, |ac, i| {
        adopt_expected_phase(ac, i, &mut NullSink)
    });
    for i in 0..radars.len() {
        apply_radar_phase(aircraft, radars, i, &mut NullSink);
    }

    stats.matched = aircraft.iter().filter(|a| a.r_match == MATCH_ONE).count() as u64;
    stats.dropped_aircraft = aircraft
        .iter()
        .filter(|a| a.r_match == MATCH_MULTIPLE)
        .count() as u64;
    stats.discarded_radars = radars
        .iter()
        .filter(|r| r.r_match_with == RADAR_DISCARDED)
        .count() as u64;
    stats.unmatched_radars = radars
        .iter()
        .filter(|r| r.r_match_with == RADAR_UNMATCHED)
        .count() as u64;
    stats
}

/// Accumulated outcome of one sharded major cycle.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardedCycleStats {
    /// Task 1 stats summed over the cycle's periods.
    pub track: TrackStats,
    /// Tasks 2+3 stats of the cycle's detection period.
    pub detect: DetectStats,
    /// Op totals the detection booked (bit-identical to the serial run).
    pub detect_ops: OpCounter,
}

impl Default for ShardedCycleStats {
    fn default() -> Self {
        ShardedCycleStats {
            track: TrackStats::default(),
            detect: DetectStats::default(),
            detect_ops: OpCounter::new(),
        }
    }
}

/// The sharded airfield layer: one master [`Airfield`] (a single RNG
/// stream, so radar pictures and fleets are bit-identical to the unsharded
/// pipeline at any shard count) driven through Tasks 1–3 with the per-shard
/// parallel paths of this module.
pub struct ShardedAirfield {
    field: Airfield,
    workers: usize,
}

impl ShardedAirfield {
    /// A fresh field of `n` aircraft under `cfg` (which fixes the shard
    /// grid via [`AtmConfig::shards`]), run with `workers` host threads.
    pub fn new(n: usize, cfg: AtmConfig, workers: usize) -> ShardedAirfield {
        ShardedAirfield::from_airfield(Airfield::new(n, cfg), workers)
    }

    /// Wrap an existing airfield.
    pub fn from_airfield(field: Airfield, workers: usize) -> ShardedAirfield {
        ShardedAirfield {
            field,
            workers: workers.max(1),
        }
    }

    /// The wrapped airfield.
    pub fn field(&self) -> &Airfield {
        &self.field
    }

    /// Unwrap the airfield.
    pub fn into_field(self) -> Airfield {
        self.field
    }

    /// Host worker threads the parallel paths fan across.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Shards in the grid (`cfg.shards²`).
    pub fn shard_count(&self) -> usize {
        let s = self.field.config().shards;
        s * s
    }

    /// Run one full major cycle (the functional pipeline the backends
    /// execute under their cost models): every period generates radar and
    /// runs Task 1; the final period runs Tasks 2+3; each period ends with
    /// the kinematic update. Bit-identical to the serial reference pipeline
    /// at any `shards` / `workers` combination.
    pub fn run_major_cycle(&mut self) -> ShardedCycleStats {
        let cfg = self.field.config().clone();
        let mut out = ShardedCycleStats::default();
        for period in 0..cfg.periods_per_major {
            let mut radars = self.field.generate_radar();
            let t =
                track_correlate_sharded(&mut self.field.aircraft, &mut radars, &cfg, self.workers);
            out.track.matched += t.matched;
            out.track.dropped_aircraft += t.dropped_aircraft;
            out.track.discarded_radars += t.discarded_radars;
            out.track.unmatched_radars += t.unmatched_radars;
            out.track.box_tests += t.box_tests;
            out.track.passes_run += t.passes_run;
            if period == cfg.periods_per_major - 1 {
                let (d, ops) =
                    detect_resolve_parallel(&mut self.field.aircraft, &cfg, self.workers);
                out.detect = d;
                out.detect_ops = ops;
            }
            self.field.end_period();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::track::track_correlate;

    fn cfg() -> AtmConfig {
        AtmConfig::default()
    }

    /// A deterministic mid-size fleet with plenty of conflicts across
    /// shard borders (ring spanning all four quadrants, shared bands).
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
    fn ownership_is_total_and_unique() {
        let map = ShardMap::new(4, 128.0);
        assert_eq!(map.shard_count(), 16);
        // Corners, center, exact borders, and the far edge all resolve.
        for (x, y) in [
            (-128.0, -128.0),
            (128.0, 128.0),
            (0.0, 0.0),
            (-64.0, 64.0),
            (63.999, -0.001),
        ] {
            assert!(map.shard_of(x, y) < 16);
        }
        // The exact field edge clamps into the last cell.
        assert_eq!(map.shard_of(128.0, 128.0), 15);
        // Non-finite positions fall into shard 0.
        assert_eq!(map.shard_of(f32::NAN, 0.0), map.shard_of(f32::NAN, 0.0));
    }

    #[test]
    fn halo_covers_every_gate_passer() {
        let ac = crossing_fleet(80);
        for scan in [ScanMode::Naive, ScanMode::Grid] {
            for shards in [2usize, 3, 4] {
                let c = AtmConfig {
                    shards,
                    scan,
                    ..cfg()
                };
                let idx = ShardedIndex::build(&ac, &c);
                let reach = c.critical_reach_nm();
                for i in 0..ac.len() {
                    let mut cands = Vec::new();
                    idx.candidates_into(i, &ac[i], &mut cands);
                    for p in 0..ac.len() {
                        let gates = (ac[i].alt - ac[p].alt).abs() < c.alt_separation_ft
                            && (ac[i].x - ac[p].x).abs() <= reach
                            && (ac[i].y - ac[p].y).abs() <= reach;
                        if p != i && gates {
                            assert!(
                                cands.contains(&(p as u32)),
                                "{scan:?} shards={shards}: gate pair ({i},{p}) missed"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sharded_index_has_halos_on_a_crossing_fleet() {
        let ac = crossing_fleet(120);
        let c = AtmConfig { shards: 2, ..cfg() };
        let idx = ShardedIndex::build(&ac, &c);
        let total_halo: usize = (0..idx.shard_count()).map(|s| idx.halo_len(s)).sum();
        assert!(total_halo > 0, "border-straddling fleet must export halos");
        // Every aircraft has exactly one owner.
        let owned: usize = (0..idx.shard_count())
            .map(|s| {
                idx.members(s)
                    .iter()
                    .filter(|&&j| idx.owner_of(j as usize) == s)
                    .count()
            })
            .sum();
        assert_eq!(owned, ac.len());
    }

    #[test]
    fn degenerate_positions_fall_back_to_full_membership() {
        let mut ac = crossing_fleet(20);
        ac[7].x = f32::NAN;
        let c = AtmConfig { shards: 4, ..cfg() };
        let idx = ShardedIndex::build(&ac, &c);
        for s in 0..idx.shard_count() {
            assert_eq!(idx.members(s).len(), ac.len());
        }
    }

    #[test]
    fn parallel_detect_is_bit_identical_to_serial() {
        for scan in [ScanMode::Naive, ScanMode::Grid] {
            for shards in [2usize, 4] {
                let c = AtmConfig {
                    shards,
                    scan,
                    ..cfg()
                };
                let mut serial = crossing_fleet(150);
                let mut counter = OpCounter::new();
                let s_stats = detect_resolve_all(&mut serial, &c, &mut counter);

                for workers in [2usize, 4] {
                    let mut par = crossing_fleet(150);
                    let (p_stats, p_ops) = detect_resolve_parallel(&mut par, &c, workers);
                    assert_eq!(serial, par, "{scan:?} shards={shards} workers={workers}");
                    assert_eq!(s_stats, p_stats, "{scan:?} shards={shards}");
                    assert_eq!(counter, p_ops, "{scan:?} shards={shards}");
                }
            }
        }
    }

    #[test]
    fn parallel_detect_handles_unresolvable_crowds() {
        // The converging ring from the detect tests: unresolved outcomes,
        // partner marks and exhausted rotation sequences all cross the
        // record/replay path.
        let n = 24;
        let ring: Vec<Aircraft> = (0..n)
            .map(|k| {
                let ang = k as f32 * std::f32::consts::TAU / n as f32;
                Aircraft::at(5.0 * ang.cos(), 5.0 * ang.sin())
                    .with_velocity(-0.05 * ang.cos(), -0.05 * ang.sin())
                    .with_altitude(10_000.0)
            })
            .collect();
        let c = AtmConfig { shards: 4, ..cfg() };
        let mut serial = ring.clone();
        let mut counter = OpCounter::new();
        let s_stats = detect_resolve_all(&mut serial, &c, &mut counter);
        let mut par = ring;
        let (p_stats, p_ops) = detect_resolve_parallel(&mut par, &c, 4);
        assert_eq!(serial, par);
        assert_eq!(s_stats, p_stats);
        assert_eq!(counter, p_ops);
        assert!(s_stats.critical_conflicts > 0);
    }

    #[test]
    fn sharded_track_matches_serial_track() {
        let mut field = Airfield::with_seed(500, 77);
        let radars = field.generate_radar();
        let c = field.config().clone();

        let mut serial_ac = field.aircraft.clone();
        let mut serial_rd = radars.clone();
        let s = track_correlate(&mut serial_ac, &mut serial_rd, &c, &mut NullSink);

        let mut par_ac = field.aircraft.clone();
        let mut par_rd = radars;
        let p = track_correlate_sharded(&mut par_ac, &mut par_rd, &c, 4);

        assert_eq!(serial_ac, par_ac);
        assert_eq!(serial_rd, par_rd);
        assert_eq!(s, p);
    }

    #[test]
    fn sharded_major_cycle_is_bit_identical_to_the_reference_pipeline() {
        let seed = 4242;
        let n = 400;

        // Serial reference: the exact sequence the sequential backend runs.
        let ref_cfg = AtmConfig::with_seed(seed);
        let mut ref_field = Airfield::new(n, ref_cfg.clone());
        let mut ref_detect = DetectStats::default();
        let mut ref_ops = OpCounter::new();
        for period in 0..ref_cfg.periods_per_major {
            let mut radars = ref_field.generate_radar();
            track_correlate(
                &mut ref_field.aircraft,
                &mut radars,
                &ref_cfg,
                &mut NullSink,
            );
            if period == ref_cfg.periods_per_major - 1 {
                ref_detect = detect_resolve_all(&mut ref_field.aircraft, &ref_cfg, &mut ref_ops);
            }
            ref_field.end_period();
        }

        for (shards, workers) in [(1usize, 1usize), (2, 4), (4, 4)] {
            let c = AtmConfig {
                shards,
                ..AtmConfig::with_seed(seed)
            };
            let mut sharded = ShardedAirfield::new(n, c, workers);
            let out = sharded.run_major_cycle();
            assert_eq!(
                ref_field.aircraft,
                sharded.field().aircraft,
                "shards={shards} workers={workers}"
            );
            assert_eq!(ref_detect, out.detect, "shards={shards}");
            assert_eq!(ref_ops, out.detect_ops, "shards={shards}");
        }
    }

    #[test]
    fn sharded_incremental_matches_a_fresh_build_across_rescans() {
        let mut ac = crossing_fleet(120);
        let c = AtmConfig {
            shards: 3,
            scan: ScanMode::Grid,
            ..cfg()
        };
        let mut inc = ShardedIncremental::new();
        let mut seed = 0xabcd_1234_u64;
        let mut buf = Vec::new();
        for cycle in 0..6 {
            inc.update(&ac, &c);
            let full = ShardedIndex::build(&ac, &c);
            for (i, track) in ac.iter().enumerate() {
                let mut a = Vec::new();
                full.candidates_into(i, track, &mut a);
                inc.candidates_into(i, track, &mut buf);
                let mut b = buf.clone();
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "cycle {cycle} track {i}");
            }
            // Drift a tenth of the fleet, including across shard borders.
            for _ in 0..ac.len() / 10 {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                let i = (seed % ac.len() as u64) as usize;
                ac[i].x += ((seed >> 8) % 100) as f32 - 50.0;
                ac[i].y += ((seed >> 16) % 100) as f32 - 50.0;
            }
        }
    }

    #[test]
    fn worker_count_does_not_change_parallel_results() {
        let c = AtmConfig { shards: 4, ..cfg() };
        let run = |workers| {
            let mut ac = crossing_fleet(200);
            let (stats, ops) = detect_resolve_parallel(&mut ac, &c, workers);
            (ac, stats, ops)
        };
        let one = run(1);
        for workers in [2, 3, 8] {
            assert_eq!(one, run(workers), "workers={workers}");
        }
    }
}
