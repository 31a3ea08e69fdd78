//! Execution backends: the same ATM tasks on six architectures.
//!
//! Every backend implements [`AtmBackend`]: it executes Task 1 and Tasks
//! 2+3 *functionally* on the caller's aircraft/radar state and returns the
//! execution time under its architecture — modeled simulated time for the
//! GPU/AP/Xeon models, measured wall time for the host backends. Keeping
//! function and timing together is what lets the cyclic executive and the
//! figure harness treat all platforms uniformly, exactly as the paper's
//! comparison does.
//!
//! Platform enumeration goes through [`Roster`]: `Roster::paper()` is the
//! six-platform comparison of Figs. 4 and 6 in the paper's order,
//! `Roster::nvidia()` the three-card subset of Figs. 5 and 7,
//! `Roster::measured()` / `Roster::modeled()` the timing-kind groupings,
//! and `Roster::select` any ad-hoc subset by [`PlatformId`] (duplicates
//! and unknown ids are hard errors; see `Roster::try_select`). Each
//! [`RosterEntry`] carries the legend label, a stable machine-readable
//! slug, its timing kind and the peak-throughput proxy used by the
//! normalization experiment, and builds a *fresh* backend per call so
//! device clocks never leak between measurement points.

mod ap;
mod gpu;
mod mcore;
mod mimd;
mod seq;
mod soa;
mod transport;
mod xeon;

pub use ap::ApBackend;
pub use gpu::GpuBackend;
pub use mcore::MulticoreBackend;
pub use mimd::MimdBackend;
pub use seq::SequentialBackend;
pub use soa::SimdSoaBackend;
pub use transport::{TransportDetectBackend, TransportFault};
pub use xeon::XeonModelBackend;

use crate::config::AtmConfig;
use crate::terrain::{TerrainGrid, TerrainTaskConfig};
use crate::types::{Aircraft, RadarReport};
use sim_clock::SimDuration;
use std::fmt;
use telemetry::Recorder;

/// Whether a backend's reported durations are modeled (deterministic
/// simulated time) or measured (host wall clock).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimingKind {
    /// Deterministic simulated time from an architecture model.
    Modeled,
    /// Wall-clock time measured on the host.
    Measured,
}

/// Stable identity of an execution platform.
///
/// The first six variants are the paper's comparison roster in figure
/// order; the remaining host variants cover the measured backends, which
/// have no analogue in the paper's figures.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PlatformId {
    /// Goodyear STARAN associative processor.
    StaranAp,
    /// ClearSpeed CSX600 associative emulation.
    ClearSpeedCsx600,
    /// Analytic 16-core Xeon multi-core model.
    XeonMulticore,
    /// NVIDIA GeForce 9800 GT (CC 1.x).
    Geforce9800Gt,
    /// NVIDIA GTX 880M (Kepler).
    Gtx880m,
    /// NVIDIA Titan X (Pascal).
    TitanXPascal,
    /// Single-threaded host reference (measured).
    SequentialHost,
    /// Real-thread MIMD host pool (measured, honestly non-deterministic).
    MimdHost,
    /// Deterministic chunked thread pool (measured).
    MulticoreHost,
    /// Structure-of-arrays turn kernel on the host (measured).
    SimdSoaHost,
}

impl PlatformId {
    /// Map a simulated device's marketing name back to its platform
    /// (custom [`gpu_sim::DeviceSpec`]s that are not in the paper's
    /// catalog have no id).
    pub fn from_device_name(name: &str) -> Option<PlatformId> {
        match name {
            "GeForce 9800 GT" => Some(PlatformId::Geforce9800Gt),
            "GTX 880M" => Some(PlatformId::Gtx880m),
            "Titan X (Pascal)" => Some(PlatformId::TitanXPascal),
            _ => None,
        }
    }
}

impl PlatformId {
    /// The stable machine-readable slug of this platform: the key used in
    /// figure legends' series identities, JSON series objects and bench
    /// stage names. Also the [`fmt::Display`] form.
    pub fn slug(&self) -> &'static str {
        match self {
            PlatformId::StaranAp => "staran-ap",
            PlatformId::ClearSpeedCsx600 => "clearspeed-csx600",
            PlatformId::XeonMulticore => "xeon-multicore",
            PlatformId::Geforce9800Gt => "geforce-9800-gt",
            PlatformId::Gtx880m => "gtx-880m",
            PlatformId::TitanXPascal => "titan-x-pascal",
            PlatformId::SequentialHost => "sequential-host",
            PlatformId::MimdHost => "mimd-host",
            PlatformId::MulticoreHost => "multicore",
            PlatformId::SimdSoaHost => "simd-soa",
        }
    }
}

impl fmt::Display for PlatformId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.slug())
    }
}

/// Borrowed description of a backend: identity, timing discipline and a
/// one-line device summary. Returned by [`AtmBackend::info`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BackendInfo<'a> {
    /// Human-readable platform name (the series label in figures).
    pub name: &'a str,
    /// Stable platform identity.
    pub platform: PlatformId,
    /// Whether reported durations are modeled or measured.
    pub timing: TimingKind,
    /// Short device summary ("3584 CUDA cores @ 1417 MHz", …).
    pub device: &'a str,
}

/// A platform that can execute the ATM tasks.
///
/// `Send` is a supertrait so an [`crate::AtmEngine`] holding a boxed
/// backend can live behind a `Mutex` shared across server threads.
pub trait AtmBackend: Send {
    /// Identity, timing discipline and device summary of this backend.
    /// `info().timing` is the one source of truth for whether reported
    /// durations are modeled or measured (there is deliberately no separate
    /// `timing_kind` accessor to fall out of sync with it).
    fn info(&self) -> BackendInfo<'_>;

    /// Attach a telemetry recorder. Backends that model their substrate
    /// emit spans for kernel launches, associative passes, barrier phases
    /// and transfers; the default implementation ignores the recorder.
    fn set_recorder(&mut self, recorder: Recorder) {
        let _ = recorder;
    }

    /// One-time setup before a simulation run (e.g. the GPU backend charges
    /// the initial host→device upload of the flight database here).
    fn on_setup(&mut self, aircraft: &[Aircraft]) -> SimDuration {
        let _ = aircraft;
        SimDuration::ZERO
    }

    /// Execute Task 1 (tracking & correlation) for one period.
    fn track_correlate(
        &mut self,
        aircraft: &mut [Aircraft],
        radars: &mut [RadarReport],
        cfg: &AtmConfig,
    ) -> SimDuration;

    /// Execute Tasks 2+3 (collision detection & resolution).
    fn detect_resolve(&mut self, aircraft: &mut [Aircraft], cfg: &AtmConfig) -> SimDuration;

    /// Price a detect execution from its merged totals alone — fleet size,
    /// [`DetectStats`] and booked [`sim_clock::OpCounter`] — without
    /// executing anything, advancing internal clocks exactly as
    /// [`AtmBackend::detect_resolve`] would. `None` (the default) means the
    /// backend's timing is not a pure function of the totals (measured
    /// backends, and the models that simulate their substrate internally);
    /// such platforms cannot serve a process-per-shard coordinator, whose
    /// detect work happens in worker processes and comes home as totals
    /// (DESIGN.md §15). [`XeonModelBackend`] implements it.
    fn price_detect_totals(
        &mut self,
        n: usize,
        stats: &crate::detect::DetectStats,
        ops: &sim_clock::OpCounter,
    ) -> Option<SimDuration> {
        let _ = (n, stats, ops);
        None
    }

    /// Execute Task 4 (terrain avoidance — the future-work extension; see
    /// [`crate::terrain`]).
    fn terrain_avoidance(
        &mut self,
        aircraft: &mut [Aircraft],
        grid: &TerrainGrid,
        tcfg: &TerrainTaskConfig,
    ) -> SimDuration;
}

/// One platform in a [`Roster`]: identity, legend label, timing kind, the
/// peak-throughput proxy used by the §7.2 normalization experiment, and a
/// constructor producing a fresh backend (device clocks and jitter
/// sequences must not leak between measurement points).
#[derive(Clone, Copy)]
pub struct RosterEntry {
    /// Stable platform identity.
    pub platform: PlatformId,
    /// Stable machine-readable key ([`PlatformId::slug`]): the identity
    /// artifacts use in JSON series objects and bench stage names, so the
    /// human-facing `label` can evolve without perturbing artifact bytes.
    pub slug: &'static str,
    /// Legend label (matches `info().name` of the built backend).
    pub label: &'static str,
    /// Whether the built backend reports modeled or measured durations
    /// (matches `info().timing`; pinned by test so the catalog can be
    /// grouped without instantiating backends).
    pub timing: TimingKind,
    /// Peak arithmetic throughput proxy in GFLOP/s (lanes × clock × 2).
    pub peak_gflops: f64,
    make: fn() -> Box<dyn AtmBackend>,
}

impl RosterEntry {
    /// Build a fresh backend for this platform.
    pub fn instantiate(&self) -> Box<dyn AtmBackend> {
        (self.make)()
    }
}

impl fmt::Debug for RosterEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RosterEntry")
            .field("platform", &self.platform)
            .field("slug", &self.slug)
            .field("label", &self.label)
            .field("timing", &self.timing)
            .field("peak_gflops", &self.peak_gflops)
            .finish_non_exhaustive()
    }
}

/// The full catalog, in the paper's figure order followed by the
/// host-measured platforms.
fn catalog() -> [RosterEntry; 10] {
    [
        // STARAN: 8192 bit-serial PEs at ~7 MHz ≈ 8192×7e6/32 word ops/s.
        RosterEntry {
            platform: PlatformId::StaranAp,
            slug: PlatformId::StaranAp.slug(),
            label: "STARAN AP",
            timing: TimingKind::Modeled,
            peak_gflops: 8_192.0 * 7.0e6 / 32.0 / 1.0e9,
            make: || Box::new(ApBackend::staran()),
        },
        // CSX600: 2 × 96 PEs × 250 MHz, ~1 FLOP/cycle/PE.
        RosterEntry {
            platform: PlatformId::ClearSpeedCsx600,
            slug: PlatformId::ClearSpeedCsx600.slug(),
            label: "ClearSpeed CSX600",
            timing: TimingKind::Modeled,
            peak_gflops: 192.0 * 0.25,
            make: || Box::new(ApBackend::clearspeed()),
        },
        // Xeon: 16 cores × 3 GHz × 8-wide SIMD FMA ≈ 768 GFLOP/s.
        RosterEntry {
            platform: PlatformId::XeonMulticore,
            slug: PlatformId::XeonMulticore.slug(),
            label: "Intel Xeon 16-core",
            timing: TimingKind::Modeled,
            peak_gflops: 768.0,
            make: || Box::new(XeonModelBackend::new()),
        },
        // GPUs: cores × clock × 2 (FMA).
        RosterEntry {
            platform: PlatformId::Geforce9800Gt,
            slug: PlatformId::Geforce9800Gt.slug(),
            label: "GeForce 9800 GT",
            timing: TimingKind::Modeled,
            peak_gflops: 112.0 * 1.5 * 2.0,
            make: || Box::new(GpuBackend::geforce_9800_gt()),
        },
        RosterEntry {
            platform: PlatformId::Gtx880m,
            slug: PlatformId::Gtx880m.slug(),
            label: "GTX 880M",
            timing: TimingKind::Modeled,
            peak_gflops: 1_536.0 * 0.954 * 2.0,
            make: || Box::new(GpuBackend::gtx_880m()),
        },
        RosterEntry {
            platform: PlatformId::TitanXPascal,
            slug: PlatformId::TitanXPascal.slug(),
            label: "Titan X (Pascal)",
            timing: TimingKind::Modeled,
            peak_gflops: 3_584.0 * 1.417 * 2.0,
            make: || Box::new(GpuBackend::titan_x_pascal()),
        },
        // Host platforms (measured; peak proxies are rough host figures
        // and take no part in the paper's normalization).
        RosterEntry {
            platform: PlatformId::SequentialHost,
            slug: PlatformId::SequentialHost.slug(),
            label: "Sequential (host)",
            timing: TimingKind::Measured,
            peak_gflops: 6.0,
            make: || Box::new(SequentialBackend::new()),
        },
        RosterEntry {
            platform: PlatformId::MimdHost,
            slug: PlatformId::MimdHost.slug(),
            label: "MIMD host",
            timing: TimingKind::Measured,
            peak_gflops: 48.0,
            make: || Box::new(MimdBackend::host_sized()),
        },
        RosterEntry {
            platform: PlatformId::MulticoreHost,
            slug: PlatformId::MulticoreHost.slug(),
            label: "Multicore (thread pool)",
            timing: TimingKind::Measured,
            peak_gflops: 48.0,
            make: || Box::new(MulticoreBackend::host_sized()),
        },
        RosterEntry {
            platform: PlatformId::SimdSoaHost,
            slug: PlatformId::SimdSoaHost.slug(),
            label: "SIMD SoA (host)",
            timing: TimingKind::Measured,
            // Single thread × 4-wide autovectorized lanes over the scalar
            // host proxy.
            peak_gflops: 24.0,
            make: || Box::new(SimdSoaBackend::new()),
        },
    ]
}

/// An ordered selection of platforms for sweeps and figures.
#[derive(Clone, Debug)]
pub struct Roster {
    entries: Vec<RosterEntry>,
}

impl Roster {
    /// The paper's six-platform comparison (Figs. 4 and 6), in its order:
    /// STARAN AP, ClearSpeed emulation, 16-core Xeon, then the three
    /// NVIDIA cards.
    pub fn paper() -> Roster {
        Roster::select([
            PlatformId::StaranAp,
            PlatformId::ClearSpeedCsx600,
            PlatformId::XeonMulticore,
            PlatformId::Geforce9800Gt,
            PlatformId::Gtx880m,
            PlatformId::TitanXPascal,
        ])
    }

    /// The three NVIDIA devices only (Figs. 5 and 7).
    pub fn nvidia() -> Roster {
        Roster::select([
            PlatformId::Geforce9800Gt,
            PlatformId::Gtx880m,
            PlatformId::TitanXPascal,
        ])
    }

    /// Every catalog platform whose backend reports durations of `kind`,
    /// in catalog order.
    pub fn filter(kind: TimingKind) -> Roster {
        Roster {
            entries: catalog()
                .iter()
                .copied()
                .filter(|e| e.timing == kind)
                .collect(),
        }
    }

    /// The measured host platforms ([`Roster::filter`] on
    /// [`TimingKind::Measured`]). Note the MIMD host is honestly
    /// non-deterministic in *outputs*; the deterministic measured subset is
    /// sequential-host, multicore and simd-soa.
    pub fn measured() -> Roster {
        Roster::filter(TimingKind::Measured)
    }

    /// The deterministically modeled platforms ([`Roster::filter`] on
    /// [`TimingKind::Modeled`]).
    pub fn modeled() -> Roster {
        Roster::filter(TimingKind::Modeled)
    }

    /// An arbitrary selection, in the given order. A duplicate or unknown
    /// [`PlatformId`] is a caller bug — a sweep that silently measured one
    /// platform twice (or skipped one) would mislabel its series — so it
    /// panics; use [`Roster::try_select`] to surface the error instead.
    pub fn select(platforms: impl IntoIterator<Item = PlatformId>) -> Roster {
        Roster::try_select(platforms).unwrap_or_else(|e| panic!("Roster::select: {e}"))
    }

    /// [`Roster::select`] returning the error: `Err` names the first
    /// duplicate (or catalog-less) platform instead of producing a roster
    /// whose series would be mislabeled.
    pub fn try_select(platforms: impl IntoIterator<Item = PlatformId>) -> Result<Roster, String> {
        let catalog = catalog();
        let mut entries: Vec<RosterEntry> = Vec::new();
        for p in platforms {
            if entries.iter().any(|e| e.platform == p) {
                return Err(format!("duplicate platform `{p}` in selection"));
            }
            let entry = catalog
                .iter()
                .find(|e| e.platform == p)
                .ok_or_else(|| format!("platform `{p}` has no catalog entry"))?;
            entries.push(*entry);
        }
        Ok(Roster { entries })
    }

    /// The selected entries, in order.
    pub fn entries(&self) -> &[RosterEntry] {
        &self.entries
    }

    /// Entry for one platform, if selected.
    pub fn get(&self, platform: PlatformId) -> Option<&RosterEntry> {
        self.entries.iter().find(|e| e.platform == platform)
    }

    /// Number of selected platforms.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is selected.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate over the selected entries.
    pub fn iter(&self) -> std::slice::Iter<'_, RosterEntry> {
        self.entries.iter()
    }
}

impl<'a> IntoIterator for &'a Roster {
    type Item = &'a RosterEntry;
    type IntoIter = std::slice::Iter<'a, RosterEntry>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_roster_matches_the_papers_six_platform_order() {
        let roster = Roster::paper();
        let platforms: Vec<PlatformId> = roster.entries().iter().map(|e| e.platform).collect();
        assert_eq!(
            platforms,
            vec![
                PlatformId::StaranAp,
                PlatformId::ClearSpeedCsx600,
                PlatformId::XeonMulticore,
                PlatformId::Geforce9800Gt,
                PlatformId::Gtx880m,
                PlatformId::TitanXPascal,
            ]
        );
        let labels: Vec<&str> = roster.entries().iter().map(|e| e.label).collect();
        assert_eq!(
            labels,
            vec![
                "STARAN AP",
                "ClearSpeed CSX600",
                "Intel Xeon 16-core",
                "GeForce 9800 GT",
                "GTX 880M",
                "Titan X (Pascal)",
            ]
        );
    }

    #[test]
    fn nvidia_roster_is_the_papers_gpu_subset() {
        let nv = Roster::nvidia();
        assert_eq!(nv.len(), 3);
        let paper = Roster::paper();
        assert_eq!(
            nv.entries().iter().map(|e| e.platform).collect::<Vec<_>>(),
            paper.entries()[3..]
                .iter()
                .map(|e| e.platform)
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn entry_labels_match_backend_info_names() {
        for entry in &Roster::paper() {
            let backend = entry.instantiate();
            let info = backend.info();
            assert_eq!(info.name, entry.label, "{:?}", entry.platform);
            assert_eq!(info.platform, entry.platform);
            assert_eq!(info.timing, TimingKind::Modeled);
            assert!(!info.device.is_empty());
        }
    }

    #[test]
    fn select_preserves_order_and_rejects_duplicates() {
        let r = Roster::select([PlatformId::TitanXPascal, PlatformId::StaranAp]);
        assert_eq!(
            r.entries().iter().map(|e| e.platform).collect::<Vec<_>>(),
            vec![PlatformId::TitanXPascal, PlatformId::StaranAp]
        );
        assert!(r.get(PlatformId::StaranAp).is_some());
        assert!(r.get(PlatformId::MimdHost).is_none());

        let err = Roster::try_select([
            PlatformId::TitanXPascal,
            PlatformId::StaranAp,
            PlatformId::TitanXPascal,
        ])
        .unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
        assert!(err.contains("titan-x-pascal"), "{err}");
    }

    #[test]
    #[should_panic(expected = "duplicate platform")]
    fn select_panics_on_duplicates() {
        Roster::select([PlatformId::StaranAp, PlatformId::StaranAp]);
    }

    #[test]
    fn host_platforms_are_selectable_and_measured() {
        let r = Roster::select([
            PlatformId::SequentialHost,
            PlatformId::MimdHost,
            PlatformId::MulticoreHost,
            PlatformId::SimdSoaHost,
        ]);
        for entry in &r {
            let backend = entry.instantiate();
            assert_eq!(backend.info().timing, TimingKind::Measured);
        }
    }

    #[test]
    fn every_catalog_entry_timing_matches_its_backend_and_roster_grouping() {
        // The satellite invariant: entry.timing is pinned to the built
        // backend's info().timing, and the measured()/modeled() groupings
        // partition the catalog exactly.
        for entry in Roster::measured().entries() {
            assert_eq!(entry.timing, TimingKind::Measured, "{}", entry.slug);
            assert_eq!(
                entry.instantiate().info().timing,
                TimingKind::Measured,
                "{}",
                entry.slug
            );
        }
        for entry in Roster::modeled().entries() {
            assert_eq!(entry.timing, TimingKind::Modeled, "{}", entry.slug);
            assert_eq!(
                entry.instantiate().info().timing,
                TimingKind::Modeled,
                "{}",
                entry.slug
            );
        }
        assert_eq!(
            Roster::measured().len() + Roster::modeled().len(),
            catalog().len()
        );
        assert_eq!(
            Roster::modeled()
                .entries()
                .iter()
                .map(|e| e.platform)
                .collect::<Vec<_>>(),
            Roster::paper()
                .entries()
                .iter()
                .map(|e| e.platform)
                .collect::<Vec<_>>(),
            "the modeled platforms are exactly the paper's six"
        );
    }

    #[test]
    fn slugs_are_stable_unique_and_match_platform_ids() {
        let entries = catalog();
        for entry in &entries {
            assert_eq!(
                entry.slug,
                entry.platform.to_string(),
                "{:?}",
                entry.platform
            );
            assert_eq!(entry.slug, entry.platform.slug());
            assert!(
                entry
                    .slug
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'),
                "slug `{}` is not kebab-case",
                entry.slug
            );
        }
        let mut slugs: Vec<&str> = entries.iter().map(|e| e.slug).collect();
        slugs.sort_unstable();
        slugs.dedup();
        assert_eq!(slugs.len(), entries.len(), "slugs must be unique");
    }

    #[test]
    fn new_measured_entries_build_their_backends() {
        let mc = Roster::measured();
        let entry = mc.get(PlatformId::MulticoreHost).unwrap();
        assert_eq!(entry.instantiate().info().name, entry.label);
        let entry = mc.get(PlatformId::SimdSoaHost).unwrap();
        assert_eq!(entry.instantiate().info().name, entry.label);
    }

    #[test]
    fn device_names_round_trip_to_platform_ids() {
        assert_eq!(
            PlatformId::from_device_name("Titan X (Pascal)"),
            Some(PlatformId::TitanXPascal)
        );
        assert_eq!(PlatformId::from_device_name("Voodoo 2"), None);
    }
}
