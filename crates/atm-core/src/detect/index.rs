//! Candidate enumeration: the per-execution [`ScanIndex`].
//!
//! This is the **CandidateSource** side of the detect pipeline: a
//! [`ScanIndex`] enumerates, for one track aircraft, a superset of every
//! partner that could pass the scan's pair gates. The single scan kernel
//! ([`crate::detect::scan_pairs`]) owns the gate checks, cost booking and
//! selection; the enumerators here only decide *which* pairs get visited —
//! a wall-clock choice that can never change a result.

use crate::config::{AtmConfig, ScanMode};
use crate::detect::incremental::IncrementalGrid;
use crate::shard::ShardedIndex;
use crate::types::Aircraft;
use ap_sim::ResponderSet;

/// The per-execution candidate source selected by [`AtmConfig::scan`].
///
/// Backends build one with [`ScanIndex::for_config`] at the top of a detect
/// execution and thread it through [`crate::detect::check_collision_path_with`]
/// / [`crate::detect::detect_only_with`]; positions and altitudes never
/// change during Tasks 2+3, so the index stays valid across every rotation
/// rescan of every aircraft.
///
/// All routing over the variants lives here: [`ScanIndex::candidates_into`] is
/// the one enumeration seam the scan kernel, the wave scheduler and the AP
/// responder masks all share.
#[derive(Clone, Debug)]
pub enum ScanIndex {
    /// No index: the naive O(n²) scan (the seed path).
    Naive,
    /// Spatial grid composed with altitude bands ([`ScanMode::Grid`]): a
    /// fresh all-dirty [`IncrementalGrid`] build. The cross-rescan
    /// persistence and replay cache live in
    /// [`crate::detect::IncrementalEngine`], which the persistent backends
    /// own directly.
    Grid(IncrementalGrid),
    /// Geographic shards with boundary halos ([`AtmConfig::shards`] > 1);
    /// composes the shard partition with `cfg.scan` per shard.
    Sharded(ShardedIndex),
}

impl ScanIndex {
    /// Build the index `cfg.scan` selects for one detect execution. A shard
    /// grid ([`AtmConfig::shards`] > 1) wraps the selected scan mode in the
    /// sharded index, which builds the mode's inner index per shard.
    pub fn for_config(aircraft: &[Aircraft], cfg: &AtmConfig) -> ScanIndex {
        if cfg.shards > 1 {
            return ScanIndex::Sharded(ShardedIndex::build(aircraft, cfg));
        }
        match cfg.scan {
            ScanMode::Naive => ScanIndex::Naive,
            ScanMode::Grid => ScanIndex::Grid(IncrementalGrid::build(aircraft, cfg)),
        }
    }

    /// Gather the global candidate ids for track aircraft `i` out of a
    /// fleet of `n` into `out`, cleared first: a superset of every aircraft
    /// that could pass both pair gates against `track` (callers re-check
    /// the real f32 gates, so a generous source can never change a result —
    /// only waste a visit). The self index `i` may or may not appear;
    /// consumers skip it.
    pub fn candidates_into(&self, i: usize, track: &Aircraft, n: usize, out: &mut Vec<u32>) {
        match self {
            ScanIndex::Naive => {
                out.clear();
                out.extend(0..n as u32);
            }
            ScanIndex::Grid(g) => g.candidates_into(track, out),
            ScanIndex::Sharded(s) => s.candidates_into(i, track, out),
        }
    }

    /// [`ScanIndex::candidates_into`] as an iterator over a fresh buffer.
    pub fn candidates(&self, i: usize, track: &Aircraft, n: usize) -> impl Iterator<Item = usize> {
        let mut out = Vec::new();
        self.candidates_into(i, track, n, &mut out);
        out.into_iter().map(|p| p as usize)
    }

    /// The candidate set of track `i` as an associative responder mask, or
    /// `None` for the naive source (which drives the full PE array and
    /// needs no mask). The mask depends only on positions and altitudes,
    /// which never change during Tasks 2+3 — the AP backend builds it once
    /// per track. Masked associative primitives price by the PE array
    /// width, so the mask is a host wall-clock knob only.
    pub fn responder_mask(&self, i: usize, track: &Aircraft, n: usize) -> Option<ResponderSet> {
        match self {
            ScanIndex::Naive => None,
            _ => {
                let mut mask = ResponderSet::new(n);
                for p in self.candidates(i, track, n) {
                    mask.set(p);
                }
                Some(mask)
            }
        }
    }

    /// Number of owner groups the source partitions the fleet into: the
    /// shard count for the sharded source, 1 otherwise. Together with
    /// [`ScanIndex::owner_of`] this is the wave scheduler's grouping seam.
    pub fn shard_count(&self) -> usize {
        match self {
            ScanIndex::Sharded(s) => s.shard_count(),
            _ => 1,
        }
    }

    /// Owner group of aircraft `i` (always 0 for unsharded sources).
    pub fn owner_of(&self, i: usize) -> usize {
        match self {
            ScanIndex::Sharded(s) => s.owner_of(i),
            _ => 0,
        }
    }
}
