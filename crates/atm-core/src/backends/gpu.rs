//! The CUDA implementation of the ATM tasks, on the simulated devices.
//!
//! Mirrors the paper's program structure (§4–§5):
//!
//! * the flight database (`drone` structs) lives in device global memory
//!   and is uploaded once at setup;
//! * every period the fresh (host-shuffled) radar list is uploaded, then
//!   Task 1 runs as a short pipeline of kernels — expected-position
//!   initialization, one correlation kernel per expanding-box pass (grid
//!   synchronization between passes requires separate launches), and the
//!   position-apply kernels;
//! * Tasks 2+3 run as the single fused `CheckCollisionPath` kernel, one
//!   thread per aircraft — the paper's design choice to avoid host↔device
//!   round-trips between detection and resolution. The split variant the
//!   ablation bench compares against is [`GpuBackend::detect_resolve_split`].
//!
//! Launch geometry follows the paper: 96 threads per block, blocks scaling
//! with the aircraft count (configurable for the block-size ablation).

use crate::backends::{AtmBackend, BackendInfo, PlatformId, TimingKind};
use crate::config::AtmConfig;
use crate::detect::{check_collision_path, detect_only, DetectStats, ScanIndex};
use crate::terrain::{check_terrain, TerrainGrid, TerrainTaskConfig};
use crate::track::{
    adopt_expected_phase, apply_radar_phase, correlate_radar_pass, expected_position_phase,
};
use crate::types::{Aircraft, RadarReport};
use gpu_sim::report::TransferDir;
use gpu_sim::{CudaDevice, DeviceSpec, LaunchConfig};
use sim_clock::{CostSink, SimDuration};
use telemetry::Recorder;

/// The paper's threads-per-block choice.
pub const PAPER_BLOCK_SIZE: u32 = 96;

/// ATM on a simulated NVIDIA device.
pub struct GpuBackend {
    device: CudaDevice,
    block_size: u32,
    last_detect: Option<DetectStats>,
    platform: PlatformId,
    device_summary: String,
}

impl GpuBackend {
    /// ATM on an arbitrary device spec with the paper's block size.
    pub fn new(spec: DeviceSpec) -> Self {
        GpuBackend::with_block_size(spec, PAPER_BLOCK_SIZE)
    }

    /// Override the threads-per-block (block-size ablation). Custom specs
    /// outside the paper's three-card catalog report the Titan-class
    /// platform id.
    pub fn with_block_size(spec: DeviceSpec, block_size: u32) -> Self {
        assert!(block_size > 0);
        let platform = PlatformId::from_device_name(spec.name).unwrap_or(PlatformId::TitanXPascal);
        let device_summary = format!(
            "{} CUDA cores @ {} MHz, {} SMs",
            spec.total_cores(),
            spec.clock_mhz,
            spec.sm_count
        );
        GpuBackend {
            device: CudaDevice::new(spec),
            block_size,
            last_detect: None,
            platform,
            device_summary,
        }
    }

    /// The paper's GeForce 9800 GT.
    pub fn geforce_9800_gt() -> Self {
        GpuBackend::new(DeviceSpec::geforce_9800_gt())
    }

    /// The paper's GTX 880M.
    pub fn gtx_880m() -> Self {
        GpuBackend::new(DeviceSpec::gtx_880m())
    }

    /// The paper's Titan X (Pascal).
    pub fn titan_x_pascal() -> Self {
        GpuBackend::new(DeviceSpec::titan_x_pascal())
    }

    /// The underlying simulated device (stats, timeline).
    pub fn device(&self) -> &CudaDevice {
        &self.device
    }

    /// Stats of the most recent detection kernel.
    pub fn last_detect_stats(&self) -> Option<DetectStats> {
        self.last_detect
    }

    fn launch_config(&self, items: usize) -> LaunchConfig {
        LaunchConfig::cover(items.max(1), self.block_size)
    }

    /// The one candidate index a detect entry point builds per rescan and
    /// passes through every launch it performs: positions and altitudes are
    /// static for the whole rescan (even across the split variant's
    /// detect→resolve round trip, which only changes velocities and flags),
    /// and the index is host-side pruning only — modeled time is
    /// unaffected.
    fn scan_index(aircraft: &[Aircraft], cfg: &AtmConfig) -> ScanIndex {
        ScanIndex::for_config(aircraft, cfg)
    }

    /// Tasks 2+3 with **shared-memory tiling** (the optimization the paper
    /// deliberately forgoes to stay compatible with compute capability 1.x
    /// global-memory-only code, §5): each block cooperatively stages a tile
    /// of trial aircraft into shared memory (one coalesced load per record
    /// per *block* instead of per warp/lane), synchronizes, and scans the
    /// tile at register speed. Functionally identical to the fused kernel;
    /// the tiling ablation quantifies the traffic it saves — dramatic on
    /// the cacheless 9800 GT.
    pub fn detect_resolve_tiled(
        &mut self,
        aircraft: &mut [Aircraft],
        cfg: &AtmConfig,
    ) -> SimDuration {
        let t0 = self.device.elapsed();
        let n = aircraft.len();
        let lc = self.launch_config(n);
        let block = self.block_size as usize;
        let index = Self::scan_index(aircraft, cfg);
        let mut stats = DetectStats::default();
        self.device
            .launch("CheckCollisionPath.tiled", lc, |ctx, tr| {
                if ctx.in_range(n) {
                    // Functional result: identical to the fused kernel.
                    let s = check_collision_path(aircraft, &index, ctx.global_id(), cfg, tr);
                    stats.absorb(&s);
                    // Re-price the memory side: the scan above charged one
                    // warp-uniform load per trial record; under tiling each
                    // thread instead loads its share of every tile once
                    // (coalesced private traffic) and pays a barrier per tile.
                    // Scans per aircraft = 1 + rotations (each rescan rewalks
                    // the tiles resident in shared memory: no re-load needed).
                    let tiles = n.div_ceil(block) as u64;
                    tr.load((n as u64 * Aircraft::RECORD_BYTES).div_ceil(block as u64));
                    tr.op(sim_clock::OpClass::Sync, tiles);
                    // Remove the uniform-load accounting the shared scan added
                    // (priced instead by the tile staging above).
                    tr.bytes_loaded_uniform = 0;
                }
            });
        self.last_detect = Some(stats);
        self.device.elapsed() - t0
    }

    /// Split-kernel Tasks 2+3 (the fusion ablation's baseline): a detect
    /// kernel, a D2H copy of the conflict flags, host triage, an H2D copy,
    /// and a resolve kernel over the flagged aircraft — the exact overhead
    /// the paper's fused design eliminates.
    pub fn detect_resolve_split(
        &mut self,
        aircraft: &mut [Aircraft],
        cfg: &AtmConfig,
    ) -> SimDuration {
        let t0 = self.device.elapsed();
        let n = aircraft.len();
        let lc = self.launch_config(n);
        let index = Self::scan_index(aircraft, cfg);

        let mut stats = DetectStats::default();
        self.device.launch("DetectOnly", lc, |ctx, tr| {
            if ctx.in_range(n) {
                let s = detect_only(aircraft, &index, ctx.global_id(), cfg, tr);
                stats.pair_checks += s.pair_checks;
                stats.critical_conflicts += s.critical_conflicts;
            }
        });

        // Conflict flags back to the host, triage, flagged set back down.
        self.device
            .transfer(TransferDir::DeviceToHost, n as u64 * Aircraft::RECORD_BYTES);
        let flagged: Vec<usize> = (0..n).filter(|&i| aircraft[i].col).collect();
        self.device
            .transfer(TransferDir::HostToDevice, flagged.len().max(1) as u64 * 8);

        let m = flagged.len();
        if m > 0 {
            let lc2 = self.launch_config(m);
            self.device.launch("ResolveOnly", lc2, |ctx, tr| {
                if ctx.in_range(m) {
                    let s =
                        check_collision_path(aircraft, &index, flagged[ctx.global_id()], cfg, tr);
                    stats.rotations += s.rotations;
                    stats.resolved += s.resolved;
                    stats.unresolved += s.unresolved;
                }
            });
        }
        self.last_detect = Some(stats);
        self.device.elapsed() - t0
    }
}

impl AtmBackend for GpuBackend {
    fn info(&self) -> BackendInfo<'_> {
        BackendInfo {
            name: self.device.spec().name,
            platform: self.platform,
            timing: TimingKind::Modeled,
            device: &self.device_summary,
        }
    }

    fn set_recorder(&mut self, recorder: Recorder) {
        self.device.set_recorder(recorder);
    }

    fn on_setup(&mut self, aircraft: &[Aircraft]) -> SimDuration {
        let t0 = self.device.elapsed();
        let n = aircraft.len();
        // SetupFlight: every thread initializes one record in global
        // memory (a handful of ALU ops + the record store).
        let lc = self.launch_config(n);
        self.device.launch("SetupFlight", lc, |ctx, tr| {
            if ctx.in_range(n) {
                tr.ialu(8);
                tr.fmul(4);
                tr.fsqrt(1);
                tr.store(Aircraft::RECORD_BYTES);
            }
        });
        // Host mirror of the initialized database (the paper copies the
        // drone data back after setup to seed radar generation).
        self.device
            .transfer(TransferDir::DeviceToHost, n as u64 * Aircraft::RECORD_BYTES);
        self.device.elapsed() - t0
    }

    fn track_correlate(
        &mut self,
        aircraft: &mut [Aircraft],
        radars: &mut [RadarReport],
        cfg: &AtmConfig,
    ) -> SimDuration {
        let t0 = self.device.elapsed();
        let n = aircraft.len();
        let r = radars.len();

        // The host-shuffled radar list for this period goes down to the
        // device (paper §4.1, GenerateRadarData round trip).
        self.device.transfer(
            TransferDir::HostToDevice,
            r as u64 * RadarReport::RECORD_BYTES,
        );

        let ac_cfg = self.launch_config(n);
        let rd_cfg = self.launch_config(r);

        self.device.launch("TrackExpected", ac_cfg, |ctx, tr| {
            if ctx.in_range(n) {
                expected_position_phase(aircraft, ctx.global_id(), tr);
            }
        });

        // One launch per expanding-box pass: a pass needs the previous
        // pass's matches grid-wide, and grid-level synchronization on CUDA
        // means separate kernel launches. Threads whose radar is already
        // settled exit immediately (priced as the early-out branch).
        for pass in 0..cfg.track_passes {
            self.device
                .launch(&format!("TrackCorrelate.pass{pass}"), rd_cfg, |ctx, tr| {
                    if ctx.in_range(r) {
                        correlate_radar_pass(aircraft, radars, ctx.global_id(), pass, cfg, tr);
                    }
                });
        }

        self.device.launch("TrackAdopt", ac_cfg, |ctx, tr| {
            if ctx.in_range(n) {
                adopt_expected_phase(aircraft, ctx.global_id(), tr);
            }
        });
        self.device.launch("TrackApply", rd_cfg, |ctx, tr| {
            if ctx.in_range(r) {
                apply_radar_phase(aircraft, radars, ctx.global_id(), tr);
            }
        });

        self.device.elapsed() - t0
    }

    fn detect_resolve(&mut self, aircraft: &mut [Aircraft], cfg: &AtmConfig) -> SimDuration {
        let t0 = self.device.elapsed();
        let n = aircraft.len();
        let lc = self.launch_config(n);
        let index = Self::scan_index(aircraft, cfg);
        let mut stats = DetectStats::default();
        self.device.launch("CheckCollisionPath", lc, |ctx, tr| {
            if ctx.in_range(n) {
                let s = check_collision_path(aircraft, &index, ctx.global_id(), cfg, tr);
                stats.absorb(&s);
            }
        });
        self.last_detect = Some(stats);
        self.device.elapsed() - t0
    }

    fn terrain_avoidance(
        &mut self,
        aircraft: &mut [Aircraft],
        grid: &TerrainGrid,
        tcfg: &TerrainTaskConfig,
    ) -> SimDuration {
        let t0 = self.device.elapsed();
        let n = aircraft.len();
        let lc = self.launch_config(n);
        self.device.launch("TerrainAvoid", lc, |ctx, tr| {
            if ctx.in_range(n) {
                check_terrain(aircraft, ctx.global_id(), grid, tcfg, tr);
            }
        });
        self.device.elapsed() - t0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::airfield::Airfield;
    use crate::backends::SequentialBackend;

    fn run_track(
        backend: &mut dyn AtmBackend,
        n: usize,
        seed: u64,
    ) -> (Vec<Aircraft>, Vec<RadarReport>, SimDuration) {
        let mut field = Airfield::with_seed(n, seed);
        let mut radars = field.generate_radar();
        let cfg = field.config().clone();
        let d = backend.track_correlate(&mut field.aircraft, &mut radars, &cfg);
        (field.aircraft, radars, d)
    }

    #[test]
    fn gpu_track_matches_sequential_reference_exactly() {
        let mut gpu = GpuBackend::titan_x_pascal();
        let mut seq = SequentialBackend::new();
        let (ac_gpu, rd_gpu, _) = run_track(&mut gpu, 300, 5);
        let (ac_seq, rd_seq, _) = run_track(&mut seq, 300, 5);
        assert_eq!(ac_gpu, ac_seq);
        assert_eq!(rd_gpu, rd_seq);
    }

    #[test]
    fn gpu_detect_matches_sequential_reference_exactly() {
        let cfg = AtmConfig::default();
        let mut field = Airfield::with_seed(300, 6);
        let mut ac_gpu = field.aircraft.clone();
        let mut ac_seq = field.aircraft.clone();
        GpuBackend::gtx_880m().detect_resolve(&mut ac_gpu, &cfg);
        SequentialBackend::new().detect_resolve(&mut ac_seq, &cfg);
        assert_eq!(ac_gpu, ac_seq);
        let _ = &mut field;
    }

    #[test]
    fn newer_cards_are_faster() {
        let (_, _, t_old) = run_track(&mut GpuBackend::geforce_9800_gt(), 2_000, 7);
        let (_, _, t_mid) = run_track(&mut GpuBackend::gtx_880m(), 2_000, 7);
        let (_, _, t_new) = run_track(&mut GpuBackend::titan_x_pascal(), 2_000, 7);
        assert!(t_old > t_mid, "9800 GT {t_old} vs 880M {t_mid}");
        assert!(t_mid > t_new, "880M {t_mid} vs Titan X {t_new}");
    }

    #[test]
    fn timing_is_deterministic_across_runs() {
        let (_, _, a) = run_track(&mut GpuBackend::titan_x_pascal(), 500, 9);
        let (_, _, b) = run_track(&mut GpuBackend::titan_x_pascal(), 500, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn track_uses_the_papers_kernel_pipeline() {
        let mut gpu = GpuBackend::titan_x_pascal();
        run_track(&mut gpu, 200, 1);
        let stats = gpu.device().stats();
        // expected + 3 passes + adopt + apply = 6 launches, 1 H2D radar
        // transfer.
        assert_eq!(stats.launches, 6);
        assert_eq!(stats.h2d_transfers, 1);
    }

    #[test]
    fn setup_charges_upload_and_kernel() {
        let field = Airfield::with_seed(100, 2);
        let mut gpu = GpuBackend::titan_x_pascal();
        let d = gpu.on_setup(&field.aircraft);
        assert!(d > SimDuration::ZERO);
        assert_eq!(gpu.device().stats().launches, 1);
        assert_eq!(gpu.device().stats().d2h_transfers, 1);
    }

    #[test]
    fn fused_detect_is_one_launch_split_is_more() {
        let cfg = AtmConfig::default();
        let field = Airfield::with_seed(400, 3);

        let mut fused = GpuBackend::titan_x_pascal();
        let mut ac = field.aircraft.clone();
        fused.detect_resolve(&mut ac, &cfg);
        assert_eq!(fused.device().stats().launches, 1);

        let mut split = GpuBackend::titan_x_pascal();
        let mut ac2 = field.aircraft.clone();
        split.detect_resolve_split(&mut ac2, &cfg);
        assert!(split.device().stats().launches >= 1);
        assert!(
            split.device().stats().d2h_transfers >= 1,
            "split pays the round trip"
        );
    }

    #[test]
    fn block_size_override_changes_geometry_not_results() {
        let cfg = AtmConfig::default();
        let field = Airfield::with_seed(300, 4);
        let mut a = field.aircraft.clone();
        let mut b = field.aircraft.clone();
        GpuBackend::titan_x_pascal().detect_resolve(&mut a, &cfg);
        GpuBackend::with_block_size(DeviceSpec::titan_x_pascal(), 256).detect_resolve(&mut b, &cfg);
        assert_eq!(a, b, "block size is a performance knob, not a semantic one");
    }

    #[test]
    fn empty_field_still_works() {
        let cfg = AtmConfig::default();
        let mut gpu = GpuBackend::titan_x_pascal();
        let mut ac: Vec<Aircraft> = vec![];
        let mut rd: Vec<RadarReport> = vec![];
        let d = gpu.track_correlate(&mut ac, &mut rd, &cfg);
        assert!(d > SimDuration::ZERO, "launch overheads still accrue");
    }
}
