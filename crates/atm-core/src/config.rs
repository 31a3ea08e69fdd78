//! Simulation and task parameters (the paper's constants, overridable).

use sim_clock::SimDuration;

/// Host-side strategy for the Tasks 2+3 candidate scan.
///
/// This is a *wall-clock* knob only: both modes perform the same mutations,
/// produce the same [`crate::detect::DetectStats`], and book the identical
/// abstract-operation stream on every [`sim_clock::CostSink`], so modeled
/// (simulated) time is bit-identical between them. `Naive` is the paper's
/// O(n²) scan and the reference every fast path is proven against; `Grid`
/// buckets aircraft by altitude band and a coarse x/y grid sized to the
/// critical-reach envelope ([`AtmConfig::critical_reach_nm`]) and books the
/// skipped pairs' operation mix in aggregate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ScanMode {
    /// Visit every other aircraft (the paper's O(n²) scan, the seed path).
    Naive,
    /// Visit only aircraft within ±1 altitude band *and* the same or an
    /// adjacent spatial grid cell. Backends that own an engine keep the
    /// grid alive across rescans — slot membership moved incrementally,
    /// dirty-cell tracking, and replay of cached clear scans whose cell
    /// neighborhood is provably unchanged (see
    /// [`crate::detect::IncrementalEngine`]); stateless callers build it
    /// fresh per execution. Results and modeled time match `Naive` exactly.
    #[default]
    Grid,
}

/// All tunable parameters of the airfield and the three tasks.
///
/// Defaults are the values of the paper (§3–§5): a 256 nm × 256 nm field,
/// speeds of 30–600 knots, half-second periods in an 8-second major cycle,
/// a 1×1 nm correlation box doubled up to two times, a 3 nm total
/// separation box for Batcher's algorithm, a 20-minute detection horizon,
/// a critical window of 300 periods, and ±5°…±30° resolution rotations.
#[derive(Clone, Debug, PartialEq)]
pub struct AtmConfig {
    /// Half-width of the airfield: positions span `[-half_width, half_width]`.
    pub half_width: f32,
    /// Minimum aircraft speed, knots (nm per hour).
    pub speed_min_kts: f32,
    /// Maximum aircraft speed, knots.
    pub speed_max_kts: f32,
    /// Minimum altitude, feet.
    pub alt_min_ft: f32,
    /// Maximum altitude, feet.
    pub alt_max_ft: f32,
    /// Periods per hour: converts knots to nm/period (paper: 7200).
    pub periods_per_hour: f32,
    /// Length of one scheduling period.
    pub period: SimDuration,
    /// Periods per major cycle (Tasks 2+3 run in the last one).
    pub periods_per_major: usize,
    /// Maximum radar noise per axis, nm (uniform, random sign).
    pub radar_noise_nm: f32,
    /// Probability that an aircraft produces no radar report in a period
    /// (the paper: "a radar report may not be obtained for some aircraft
    /// during some periods"; its simplification uses 0, the default).
    pub radar_dropout: f32,
    /// Correlation box half-width for the first pass, nm (paper: a 1×1 nm
    /// box, i.e. 0.5 each side).
    pub track_box_half_nm: f32,
    /// Number of correlation passes; the box doubles each pass (paper: 3).
    pub track_passes: u32,
    /// Total separation the collision box enforces per axis, nm (paper: the
    /// `±3` in Equations 1–4 — a 1.5 nm error band around each aircraft).
    pub separation_nm: f32,
    /// Vertical separation below which two aircraft are "at the same
    /// altitude" for collision purposes, feet (paper: 1000).
    pub alt_separation_ft: f32,
    /// Detection horizon in periods (paper: 20 minutes = 2400 half-seconds).
    pub horizon_periods: f32,
    /// Critical window in periods: a conflict starting sooner than this
    /// triggers resolution (paper: 300).
    pub critical_periods: f32,
    /// Resolution rotation step, degrees (paper: 5).
    pub rotation_step_deg: f32,
    /// Maximum rotation magnitude per side, degrees (paper: 30).
    pub rotation_max_deg: f32,
    /// Master RNG seed for the airfield.
    pub seed: u64,
    /// Host-side candidate-scan strategy for Tasks 2+3 (wall-clock only;
    /// results and modeled time are identical across modes).
    pub scan: ScanMode,
    /// Geographic shard grid side: the airfield is partitioned into
    /// `shards × shards` equal cells, each owning the aircraft inside it
    /// plus a halo of foreign aircraft within critical reach of its borders
    /// (see [`crate::shard`]). `1` (the default) is the unsharded pipeline.
    /// Like [`AtmConfig::scan`], this is a *wall-clock* knob only: every
    /// shard count produces byte-identical fleets, stats and modeled times.
    pub shards: usize,
}

impl Default for AtmConfig {
    fn default() -> Self {
        AtmConfig {
            half_width: 128.0,
            speed_min_kts: 30.0,
            speed_max_kts: 600.0,
            alt_min_ft: 1_000.0,
            alt_max_ft: 40_000.0,
            periods_per_hour: 7_200.0,
            period: SimDuration::from_millis(500),
            periods_per_major: 16,
            radar_noise_nm: 0.2,
            radar_dropout: 0.0,
            track_box_half_nm: 0.5,
            track_passes: 3,
            separation_nm: 3.0,
            alt_separation_ft: 1_000.0,
            horizon_periods: 2_400.0,
            critical_periods: 300.0,
            rotation_step_deg: 5.0,
            rotation_max_deg: 30.0,
            seed: 0x5EED_A7C0,
            scan: ScanMode::default(),
            shards: 1,
        }
    }
}

impl AtmConfig {
    /// The paper's configuration with a caller-chosen seed.
    pub fn with_seed(seed: u64) -> Self {
        AtmConfig {
            seed,
            ..AtmConfig::default()
        }
    }

    /// The box half-width used in correlation pass `pass` (doubles each
    /// pass: 0.5, 1.0, 2.0 with the defaults).
    pub fn pass_half_width(&self, pass: u32) -> f32 {
        self.track_box_half_nm * (1u32 << pass.min(30)) as f32
    }

    /// The sequence of rotation angles Task 3 tries, in order
    /// (+5°, −5°, +10°, −10°, …, ±max), in radians.
    pub fn rotation_sequence(&self) -> Vec<f32> {
        let steps = (self.rotation_max_deg / self.rotation_step_deg).round() as i32;
        let mut seq = Vec::with_capacity(2 * steps as usize);
        for k in 1..=steps {
            let deg = self.rotation_step_deg * k as f32;
            seq.push(deg.to_radians());
            seq.push(-deg.to_radians());
        }
        seq
    }

    /// The horizontal distance beyond which a pair cannot reach a *critical*
    /// conflict (a window starting inside `critical_periods`): the 3 nm
    /// separation box plus the distance two aircraft closing at twice the
    /// configured maximum speed cover within the critical window, padded by
    /// a 6.25 % slack that dominates every f32 rounding source in the
    /// window computation (rotations preserve speed up to ~1 ulp).
    ///
    /// This is the range gate every scan mode applies per pair (see
    /// [`crate::batcher::within_critical_reach`]) and the envelope the
    /// spatial grid's cell size derives from. Degenerate configurations
    /// yield `f32::INFINITY`, which passes every pair.
    pub fn critical_reach_nm(&self) -> f32 {
        let vmax = self.speed_max_kts / self.periods_per_hour;
        let reach = self.separation_nm + 2.0 * vmax * self.critical_periods * 1.0625;
        if reach.is_finite() && reach > 0.0 {
            reach
        } else {
            f32::INFINITY
        }
    }

    /// Validate parameter consistency; panics on nonsense.
    pub fn validate(&self) {
        assert!(self.half_width > 0.0, "airfield must have positive extent");
        assert!(
            self.speed_min_kts > 0.0 && self.speed_min_kts <= self.speed_max_kts,
            "speed range must be positive and ordered"
        );
        assert!(self.periods_per_hour > 0.0);
        assert!(self.periods_per_major > 0);
        assert!(self.track_passes >= 1, "need at least one correlation pass");
        assert!(
            (0.0..=1.0).contains(&self.radar_dropout),
            "radar dropout must be a probability"
        );
        assert!(self.separation_nm > 0.0);
        assert!(self.horizon_periods > 0.0);
        assert!(
            self.critical_periods <= self.horizon_periods,
            "critical window cannot exceed the detection horizon"
        );
        assert!(self.rotation_step_deg > 0.0);
        assert!(self.rotation_max_deg >= self.rotation_step_deg);
        assert!(
            (1..=32).contains(&self.shards),
            "shard grid side must be between 1 and 32"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = AtmConfig::default();
        c.validate();
        assert_eq!(c.half_width, 128.0);
        assert_eq!(c.period, SimDuration::from_millis(500));
        assert_eq!(c.periods_per_major, 16);
        assert_eq!(c.separation_nm, 3.0);
        assert_eq!(c.horizon_periods, 2_400.0);
        assert_eq!(c.critical_periods, 300.0);
    }

    #[test]
    fn pass_widths_double() {
        let c = AtmConfig::default();
        assert_eq!(c.pass_half_width(0), 0.5);
        assert_eq!(c.pass_half_width(1), 1.0);
        assert_eq!(c.pass_half_width(2), 2.0);
    }

    #[test]
    fn rotation_sequence_alternates_and_grows() {
        let c = AtmConfig::default();
        let seq = c.rotation_sequence();
        assert_eq!(seq.len(), 12); // ±5..±30 in 5° steps
        assert!((seq[0] - 5.0_f32.to_radians()).abs() < 1e-6);
        assert!((seq[1] + 5.0_f32.to_radians()).abs() < 1e-6);
        assert!((seq[10] - 30.0_f32.to_radians()).abs() < 1e-6);
        assert!((seq[11] + 30.0_f32.to_radians()).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "critical window")]
    fn critical_beyond_horizon_is_rejected() {
        let c = AtmConfig {
            critical_periods: 5_000.0,
            ..AtmConfig::default()
        };
        c.validate();
    }

    #[test]
    fn critical_reach_covers_the_fastest_closing_pair() {
        let c = AtmConfig::default();
        let reach = c.critical_reach_nm();
        // sep 3 + 2 · (600/7200) · 300 · 1.0625 = 3 + 53.125 nm.
        assert!((reach - 56.125).abs() < 1e-3, "{reach}");
        // The slack strictly exceeds the worst closing distance.
        let worst = 2.0 * (c.speed_max_kts / c.periods_per_hour) * c.critical_periods;
        assert!(reach > c.separation_nm + worst);
    }

    #[test]
    fn critical_reach_degenerates_to_infinity() {
        let c = AtmConfig {
            separation_nm: f32::NAN,
            ..AtmConfig::default()
        };
        assert_eq!(c.critical_reach_nm(), f32::INFINITY);
    }

    #[test]
    fn zero_speed_reach_is_exactly_the_separation() {
        // A static fleet's reach collapses to the separation box itself;
        // the gate's `<=` compare then still admits a pair sitting exactly
        // on the box edge (which has a zero-width window there).
        let c = AtmConfig {
            speed_max_kts: 0.0,
            ..AtmConfig::default()
        };
        assert_eq!(c.critical_reach_nm(), c.separation_nm);
    }

    #[test]
    fn default_is_unsharded() {
        assert_eq!(AtmConfig::default().shards, 1);
        AtmConfig {
            shards: 4,
            ..AtmConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "shard grid side")]
    fn zero_shards_is_rejected() {
        let c = AtmConfig {
            shards: 0,
            ..AtmConfig::default()
        };
        c.validate();
    }

    #[test]
    fn seeded_config_differs_only_in_seed() {
        let a = AtmConfig::with_seed(1);
        let b = AtmConfig::with_seed(2);
        assert_ne!(a.seed, b.seed);
        assert_eq!(a.half_width, b.half_width);
    }
}
