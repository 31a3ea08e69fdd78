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
use crate::types::Aircraft;
use ap_sim::ResponderSet;

/// The per-execution candidate source selected by [`AtmConfig::scan`].
///
/// Backends build one with [`ScanIndex::for_config`] at the top of a detect
/// execution and thread it through [`crate::detect::check_collision_path`]
/// / [`crate::detect::detect_only`]; positions and altitudes never change
/// during Tasks 2+3, so the index stays valid across every rotation rescan
/// of every aircraft.
///
/// All routing over the variants lives here: [`ScanIndex::candidates_into`]
/// is the one enumeration seam the scan kernel and the AP responder masks
/// share. The shard partition ([`AtmConfig::shards`]) is not a candidate
/// source: it belongs to the wave executor alone
/// ([`crate::shard::ShardedIndex`]).
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
}

impl ScanIndex {
    /// Build the index `cfg.scan` selects for one detect execution.
    pub fn for_config(aircraft: &[Aircraft], cfg: &AtmConfig) -> ScanIndex {
        match cfg.scan {
            ScanMode::Naive => ScanIndex::Naive,
            ScanMode::Grid => ScanIndex::Grid(IncrementalGrid::build(aircraft, cfg)),
        }
    }

    /// Gather the candidate ids for `track` out of a fleet of `n` into
    /// `out`, cleared first: a superset of every aircraft that could pass
    /// both pair gates against `track` (callers re-check the real f32
    /// gates, so a generous source can never change a result — only waste
    /// a visit). The track's own id may or may not appear; consumers skip
    /// it.
    pub fn candidates_into(&self, track: &Aircraft, n: usize, out: &mut Vec<u32>) {
        match self {
            ScanIndex::Naive => {
                out.clear();
                out.extend(0..n as u32);
            }
            ScanIndex::Grid(g) => g.candidates_into(track, out),
        }
    }

    /// [`ScanIndex::candidates_into`] as an iterator over a fresh buffer.
    /// `_i` is the track's id, kept for callers that enumerate by
    /// aircraft; every source answers from the track's record alone.
    pub fn candidates(&self, _i: usize, track: &Aircraft, n: usize) -> impl Iterator<Item = usize> {
        let mut out = Vec::new();
        self.candidates_into(track, n, &mut out);
        out.into_iter().map(|p| p as usize)
    }

    /// The candidate set of `track` as an associative responder mask, or
    /// `None` for the naive source (which drives the full PE array and
    /// needs no mask). The mask depends only on positions and altitudes,
    /// which never change during Tasks 2+3 — the AP backend builds it once
    /// per track. Masked associative primitives price by the PE array
    /// width, so the mask is a host wall-clock knob only.
    pub fn responder_mask(&self, track: &Aircraft, n: usize) -> Option<ResponderSet> {
        match self {
            ScanIndex::Naive => None,
            ScanIndex::Grid(g) => {
                let mut cands = Vec::new();
                g.candidates_into(track, &mut cands);
                let mut mask = ResponderSet::new(n);
                for p in cands {
                    mask.set(p as usize);
                }
                Some(mask)
            }
        }
    }
}
