//! The wave executor's shard partition: geographic partitioning of the
//! fleet with a cross-shard boundary (halo) index and an exact parallel
//! detect.
//!
//! The 256 nm × 256 nm field is cut into an S×S grid of shards
//! ([`AtmConfig::shards`]). Each aircraft is **owned** by exactly one shard
//! — the clamped floor cell of its position (the canonical shard-ownership
//! rule). Each shard additionally holds a **halo**: every foreign aircraft
//! within the critical-reach envelope of the shard's (measured) bounding
//! box. A shard-local scan over `own ∪ halo` therefore sees every aircraft
//! that could pass the pair gates against any of its owned aircraft
//! ([`ShardedIndex`]); the scan itself composes with every
//! [`crate::config::ScanMode`] by building the mode's index per shard.
//!
//! This partition is the unit of work of [`detect_resolve_parallel`] /
//! [`detect_resolve_via_transport`] (and so of the process coordinator),
//! and nothing else: the serial backends enumerate from one unsharded
//! index. Sharding is a **wall-clock knob only**: fleets, [`DetectStats`],
//! booked op totals and every backend's modeled time are bit-identical to
//! the unsharded run — enforced by the differential tests below,
//! `tests/properties.rs` and `tests/golden.rs`.
//!
//! [`detect_resolve_parallel`] is an exact parallelization of the
//! sequential Tasks 2+3 cascade. The sequential semantics are order-coupled
//! (aircraft `i`'s scan must see the committed velocities of aircraft
//! `j < i` and the initial velocities of `j > i`), but a turn's outcome can
//! only depend on aircraft that pass the position/altitude pair gates — and
//! those are static during Tasks 2+3. Building the gate-dependency DAG
//! (edge `j → i` for `j < i` iff the pair passes both gates) and processing
//! aircraft in topological *waves* makes every turn inside a wave a pure
//! read of the live fleet: gate partners are never in the same wave, so
//! lower-indexed partners are already committed and higher-indexed ones
//! untouched, exactly as the sequential cascade would present them. Wave
//! members are grouped by owner shard and their turns
//! ([`crate::detect::simulate_turn`]) fanned across workers; after each
//! wave the resolved velocities are committed serially, and a final serial
//! replay ([`crate::detect::apply_turn`]) applies every turn's writes in
//! the sequential order — bit-for-bit.

use crate::batcher::{same_altitude_band, within_critical_reach};
use crate::config::{AtmConfig, ScanMode};
use crate::detect::{
    apply_turn, detect_resolve_all, scan_candidates, simulate_turn, DetectStats, IncrementalGrid,
    Turn, TurnOutcome,
};
use crate::types::Aircraft;
use sim_clock::{NullSink, OpCounter};
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

    /// Total shard count (`side²`).
    pub fn shard_count(&self) -> usize {
        self.side * self.side
    }
}

/// Per-shard candidate index: the shard's member list composed with the
/// scan-mode index built over the gathered member records.
#[derive(Clone, Debug)]
pub(crate) enum InnerIndex {
    /// [`ScanMode::Naive`]: every member is a candidate.
    All,
    /// [`ScanMode::Grid`] under the stateless per-execution build: a fresh
    /// all-dirty grid over the members.
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
/// altitudes never change during Tasks 2+3) by the wave executor, which
/// hands each shard's member slice to whoever scans it.
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

        ShardedIndex { owner, cells }
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
    /// re-check the real f32 gates. Used by the wave leveling and the
    /// in-process turns.
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

/// One aircraft's simulated turn plus the op totals it booked: the unit a
/// wave worker returns and the wire codec's `turns` frames carry between
/// processes. All ids are global, so a record is meaningful outside the
/// shard that produced it.
#[derive(Clone, Debug, PartialEq)]
pub struct TurnRecord {
    /// Partner marks, outcome and stats ([`crate::detect::simulate_turn`]).
    pub turn: Turn,
    /// The op totals the turn booked.
    pub ops: OpCounter,
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
    let mut ops = OpCounter::new();
    let turn = simulate_turn((track.dx, track.dy), cfg, &mut ops, |vel, ops| {
        let cands = cands.iter().map(|&p| p as usize);
        scan_candidates(fleet, None, i, fleet.len(), vel, cfg, cands, ops)
    });
    TurnRecord { turn, ops }
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
            if let TurnOutcome::Resolved { vel } = rec.turn.outcome {
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

    // Serial replay, ascending: apply each turn's writes exactly where the
    // sequential cascade would.
    let mut total = DetectStats::default();
    for (i, rec) in records.into_iter().enumerate() {
        let rec =
            rec.ok_or_else(|| TransportError::new(format!("aircraft {i} was never simulated")))?;
        apply_turn(aircraft, i, &rec.turn, cfg);
        total.absorb(&rec.turn.stats);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::airfield::Airfield;
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
            let mut field = Airfield::new(n, c.clone());
            let (mut detect, mut ops) = (DetectStats::default(), OpCounter::new());
            for period in 0..c.periods_per_major {
                let mut radars = field.generate_radar();
                track_correlate(&mut field.aircraft, &mut radars, &c, &mut NullSink);
                if period == c.periods_per_major - 1 {
                    (detect, ops) = detect_resolve_parallel(&mut field.aircraft, &c, workers);
                }
                field.end_period();
            }
            assert_eq!(
                ref_field.aircraft, field.aircraft,
                "shards={shards} workers={workers}"
            );
            assert_eq!(ref_detect, detect, "shards={shards}");
            assert_eq!(ref_ops, ops, "shards={shards}");
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
