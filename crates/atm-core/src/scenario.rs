//! Scenario catalog: seeded, deterministic traffic generators beyond the
//! paper's uniform random field.
//!
//! The paper (and the seed reproduction) drives every comparison with one
//! workload: `SetupFlight`'s uniform random traffic. That hides exactly the
//! structure the fast scan paths exploit — altitude banding, spatial
//! locality, shard ownership, dirty-cell reuse — so this module provides a
//! catalog of *shaped* workloads in the style of conflict-resolution
//! benchmark generators (Pelegrín & Cerulli): crossing flows, converging
//! streams, holding stacks, corridor funnels, drone swarms, degraded-radar
//! dropout and shard-hotspot surges.
//!
//! Every generator is a pure function of `(n, seed, params)`: it draws from
//! one [`SimRng`] in a fixed order and produces ordinary [`Aircraft`]
//! records, so all six substrates, all four [`crate::config::ScanMode`]s and
//! every shard grid consume scenario traffic unchanged — and the
//! byte-identity contract (DESIGN.md §8) extends to every traffic shape in
//! the catalog. [`fleet_hash`] pins the exact bit pattern of a generated
//! fleet, guarding the RNG draw order against accidental drift.

use crate::airfield::Airfield;
use crate::config::AtmConfig;
use crate::types::Aircraft;
use sim_clock::SimRng;
use std::f32::consts::PI;

/// Geometry knobs shared by the catalog generators. Every scenario reads
/// only the knobs relevant to its shape; the defaults are the catalog
/// configuration the golden fixtures and property sweeps pin down.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioParams {
    /// Number of traffic streams (crossing flows, converging arms).
    pub flows: usize,
    /// Parallel lanes per stream.
    pub lanes: usize,
    /// Lateral spacing between lanes, nm.
    pub lane_spacing_nm: f32,
    /// Number of holding-stack fixes.
    pub stacks: usize,
    /// Vertical levels per holding stack.
    pub stack_levels: usize,
    /// Holding-pattern radius around each fix, nm.
    pub holding_radius_nm: f32,
    /// Corridor entry width (the funnel narrows toward the exit), nm.
    pub corridor_width_nm: f32,
    /// Drone-swarm cluster half-width, nm.
    pub swarm_radius_nm: f32,
    /// Fraction of the fleet packed into the hotspot box.
    pub hotspot_frac: f32,
    /// Radar dropout probability for the degraded-radar scenario.
    pub dropout: f32,
}

impl Default for ScenarioParams {
    fn default() -> Self {
        ScenarioParams {
            flows: 3,
            lanes: 4,
            lane_spacing_nm: 3.0,
            stacks: 3,
            stack_levels: 8,
            holding_radius_nm: 2.6,
            corridor_width_nm: 14.0,
            swarm_radius_nm: 7.0,
            hotspot_frac: 0.75,
            dropout: 0.25,
        }
    }
}

/// The traffic shapes in the catalog.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ScenarioKind {
    /// Straight streams through the field center on distinct headings:
    /// every stream pair meets near the origin.
    CrossingFlows,
    /// Arms of traffic all pointed at one merge fix, meeting there in a
    /// continuous stream of pairwise conflicts.
    ConvergingStreams,
    /// Loitering aircraft ringed around a few fixes, stacked 900 ft apart
    /// vertically — many aircraft per grid cell across adjacent altitude
    /// bands, the grid stress case.
    HoldingStacks,
    /// Traffic funneled down a corridor that narrows toward its exit, with
    /// overtaking speed spread.
    CorridorFunnel,
    /// A dense, slow, low-altitude cluster with random headings.
    DroneSwarm,
    /// The paper's uniform traffic under degraded radar: a configured
    /// fraction of reports is lost each period, so aircraft vanish and
    /// reappear between rescans (they coast on expected positions).
    RadarDropout,
    /// Most of the fleet packed into one shard-cell-sized box straddling a
    /// shard corner — the static S×S partition's worst case.
    HotspotSurge,
}

impl ScenarioKind {
    /// Every kind, in catalog order.
    pub const ALL: [ScenarioKind; 7] = [
        ScenarioKind::CrossingFlows,
        ScenarioKind::ConvergingStreams,
        ScenarioKind::HoldingStacks,
        ScenarioKind::CorridorFunnel,
        ScenarioKind::DroneSwarm,
        ScenarioKind::RadarDropout,
        ScenarioKind::HotspotSurge,
    ];
}

/// One catalog entry: a kind plus its geometry knobs.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// The traffic shape.
    pub kind: ScenarioKind,
    /// Geometry knobs (catalog defaults unless overridden).
    pub params: ScenarioParams,
}

impl Scenario {
    /// A scenario of `kind` with the catalog's default parameters.
    pub fn new(kind: ScenarioKind) -> Scenario {
        Scenario {
            kind,
            params: ScenarioParams::default(),
        }
    }

    /// Override the geometry knobs.
    pub fn with_params(mut self, params: ScenarioParams) -> Scenario {
        self.params = params;
        self
    }

    /// The full catalog with default parameters, in stable order.
    pub fn catalog() -> Vec<Scenario> {
        ScenarioKind::ALL
            .iter()
            .map(|&k| Scenario::new(k))
            .collect()
    }

    /// Look a default-parameter scenario up by its stable slug.
    pub fn by_slug(slug: &str) -> Option<Scenario> {
        Scenario::catalog().into_iter().find(|s| s.slug() == slug)
    }

    /// Stable identifier used in CLI flags, artifact names and fixtures.
    pub fn slug(&self) -> &'static str {
        match self.kind {
            ScenarioKind::CrossingFlows => "crossing",
            ScenarioKind::ConvergingStreams => "converging",
            ScenarioKind::HoldingStacks => "holding-stack",
            ScenarioKind::CorridorFunnel => "corridor",
            ScenarioKind::DroneSwarm => "drone-swarm",
            ScenarioKind::RadarDropout => "radar-dropout",
            ScenarioKind::HotspotSurge => "hotspot",
        }
    }

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self.kind {
            ScenarioKind::CrossingFlows => "Crossing flows",
            ScenarioKind::ConvergingStreams => "Converging streams",
            ScenarioKind::HoldingStacks => "Holding stacks",
            ScenarioKind::CorridorFunnel => "Corridor funnel",
            ScenarioKind::DroneSwarm => "Drone swarm",
            ScenarioKind::RadarDropout => "Degraded-radar dropout",
            ScenarioKind::HotspotSurge => "Shard-hotspot surge",
        }
    }

    /// One-line description for tables and artifact titles.
    pub fn description(&self) -> &'static str {
        match self.kind {
            ScenarioKind::CrossingFlows => {
                "straight streams on distinct headings meeting at the field center"
            }
            ScenarioKind::ConvergingStreams => "arms of traffic merging at one fix",
            ScenarioKind::HoldingStacks => "loitering rings stacked 900 ft apart over a few fixes",
            ScenarioKind::CorridorFunnel => "traffic squeezed down a narrowing corridor",
            ScenarioKind::DroneSwarm => "dense slow low-altitude cluster, random headings",
            ScenarioKind::RadarDropout => "uniform traffic with radar reports lost each period",
            ScenarioKind::HotspotSurge => "most of the fleet packed onto one shard corner",
        }
    }

    /// The [`AtmConfig`] this scenario runs under: the paper's defaults at
    /// `seed`, plus the scenario's own overrides (only the degraded-radar
    /// scenario changes anything — its dropout probability).
    pub fn config(&self, seed: u64) -> AtmConfig {
        self.apply(AtmConfig::with_seed(seed))
    }

    /// Apply this scenario's config overrides onto a caller-chosen base
    /// (preserving its scan mode, shard grid and seed).
    pub fn apply(&self, mut cfg: AtmConfig) -> AtmConfig {
        if self.kind == ScenarioKind::RadarDropout {
            cfg.radar_dropout = self.params.dropout;
        }
        cfg
    }

    /// Generate the fleet for `(n, seed)` under the scenario's config.
    /// Deterministic: one [`SimRng`] seeded from `seed`, drained in a fixed
    /// order ([`fleet_hash`] pins the exact bits).
    pub fn fleet(&self, n: usize, seed: u64) -> Vec<Aircraft> {
        let cfg = self.config(seed);
        let mut rng = SimRng::seed_from_u64(seed);
        let p = &self.params;
        match self.kind {
            ScenarioKind::CrossingFlows => crossing(n, p, &cfg, &mut rng),
            ScenarioKind::ConvergingStreams => converging(n, p, &cfg, &mut rng),
            ScenarioKind::HoldingStacks => holding_stacks(n, p, &cfg, &mut rng),
            ScenarioKind::CorridorFunnel => corridor(n, p, &cfg, &mut rng),
            ScenarioKind::DroneSwarm => drone_swarm(n, p, &cfg, &mut rng),
            // Degraded radar is the paper's own generator under a lossy
            // radar; the field's seeded RNG reproduces `SetupFlight`.
            ScenarioKind::RadarDropout => Airfield::new(n, cfg).aircraft,
            ScenarioKind::HotspotSurge => hotspot(n, p, &cfg, &mut rng),
        }
    }

    /// The scenario as a ready-to-run [`Airfield`] (fleet + config).
    pub fn airfield(&self, n: usize, seed: u64) -> Airfield {
        self.airfield_with(n, &self.config(seed))
    }

    /// [`Scenario::airfield`] over a caller-chosen base config: the
    /// caller's scan mode, shard grid and seed survive, the scenario's
    /// overrides and fleet are applied on top. The fleet depends only on
    /// `(n, cfg.seed)`, never on the scan/shard knobs.
    pub fn airfield_with(&self, n: usize, base: &AtmConfig) -> Airfield {
        let cfg = self.apply(base.clone());
        let fleet = self.fleet(n, cfg.seed);
        Airfield::from_aircraft(fleet, cfg)
    }
}

/// FNV-1a over the exact bit patterns of every aircraft field, in record
/// order: a content hash that moves when any generated bit moves (the
/// seed-stability fixtures commit these per `(scenario, n, seed)`).
pub fn fleet_hash(fleet: &[Aircraft]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |w: u32| {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for a in fleet {
        eat(a.x.to_bits());
        eat(a.y.to_bits());
        eat(a.dx.to_bits());
        eat(a.dy.to_bits());
        eat(a.batx.to_bits());
        eat(a.baty.to_bits());
        eat(a.alt.to_bits());
        eat(a.col as u32);
        eat(a.time_till.to_bits());
        eat(a.col_with as u32);
        eat(a.r_match as u32);
        eat(a.expected_x.to_bits());
        eat(a.expected_y.to_bits());
    }
    h
}

/// One aircraft with `setup_flight`'s bookkeeping conventions (trial path
/// primed with the committed velocity, safe collision horizon).
fn craft(x: f32, y: f32, dx: f32, dy: f32, alt: f32, cfg: &AtmConfig) -> Aircraft {
    let mut a = Aircraft::at(x, y).with_velocity(dx, dy).with_altitude(alt);
    a.batx = dx;
    a.baty = dy;
    a.time_till = cfg.critical_periods;
    a
}

/// A ground speed drawn in knots, converted to nm/period.
fn speed(rng: &mut SimRng, lo_kts: f32, hi_kts: f32, cfg: &AtmConfig) -> f32 {
    rng.range_f32_inclusive(lo_kts, hi_kts) / cfg.periods_per_hour
}

/// Straight streams through the origin on headings spread over 180°; each
/// aircraft sits somewhere along its stream (both approaching and past the
/// center) in one of a few parallel lanes, at one of four 900-ft levels.
fn crossing(n: usize, p: &ScenarioParams, cfg: &AtmConfig, rng: &mut SimRng) -> Vec<Aircraft> {
    let flows = p.flows.max(2);
    let lanes = p.lanes.max(1) as u32;
    let reach = cfg.half_width - 10.0;
    (0..n)
        .map(|i| {
            let theta = PI * (i % flows) as f32 / flows as f32;
            let (ux, uy) = (theta.cos(), theta.sin());
            let (px, py) = (-uy, ux);
            let along = rng.range_f32_inclusive(-reach, reach);
            let lane = rng.range_u32_inclusive(0, lanes - 1) as f32 - (lanes as f32 - 1.0) / 2.0;
            let off = lane * p.lane_spacing_nm + rng.range_f32_inclusive(-0.4, 0.4);
            let s = speed(rng, 240.0, 480.0, cfg);
            let alt = 9_000.0 + rng.range_u32_inclusive(0, 3) as f32 * 900.0;
            craft(
                ux * along + px * off,
                uy * along + py * off,
                ux * s,
                uy * s,
                alt,
                cfg,
            )
        })
        .collect()
}

/// Arms of traffic all pointed at one merge fix; aircraft approach from
/// `flows` directions and fly straight through it.
fn converging(n: usize, p: &ScenarioParams, cfg: &AtmConfig, rng: &mut SimRng) -> Vec<Aircraft> {
    let arms = p.flows.max(2);
    let (mx, my) = (38.0_f32, -26.0_f32);
    let lim = cfg.half_width - 6.0;
    (0..n)
        .map(|i| {
            let phi = 2.0 * PI * (i % arms) as f32 / arms as f32 + 0.3;
            let d = rng.range_f32_inclusive(6.0, 110.0);
            let jx = rng.range_f32_inclusive(-1.2, 1.2);
            let jy = rng.range_f32_inclusive(-1.2, 1.2);
            let x = (mx + phi.cos() * d + jx).clamp(-lim, lim);
            let y = (my + phi.sin() * d + jy).clamp(-lim, lim);
            // Velocity toward the merge fix.
            let (vx, vy) = (mx - x, my - y);
            let norm = (vx * vx + vy * vy).sqrt().max(1e-3);
            let s = speed(rng, 180.0, 420.0, cfg);
            let alt = 7_000.0 + rng.range_u32_inclusive(0, 4) as f32 * 900.0;
            craft(x, y, vx / norm * s, vy / norm * s, alt, cfg)
        })
        .collect()
}

/// Loitering rings around a few fixes, levels stacked 900 ft apart (inside
/// the 1000 ft separation, so adjacent levels pass the vertical gate):
/// many aircraft per grid cell, the grid stress case.
fn holding_stacks(
    n: usize,
    p: &ScenarioParams,
    cfg: &AtmConfig,
    rng: &mut SimRng,
) -> Vec<Aircraft> {
    const FIXES: [(f32, f32); 3] = [(-52.0, 44.0), (10.0, -8.0), (68.0, -64.0)];
    let stacks = p.stacks.clamp(1, FIXES.len());
    let levels = p.stack_levels.max(1);
    (0..n)
        .map(|i| {
            let (cx, cy) = FIXES[i % stacks];
            let level = (i / stacks) % levels;
            let phi = rng.range_f32_inclusive(0.0, 2.0 * PI);
            let r = rng.range_f32_inclusive(1.2, p.holding_radius_nm.max(1.3));
            // Tangential velocity; alternate turn direction per level.
            let turn = if level.is_multiple_of(2) { 1.0 } else { -1.0 };
            let s = speed(rng, 160.0, 230.0, cfg);
            let alt = 6_000.0 + level as f32 * 900.0 + rng.range_f32_inclusive(-120.0, 120.0);
            craft(
                cx + phi.cos() * r,
                cy + phi.sin() * r,
                -phi.sin() * turn * s,
                phi.cos() * turn * s,
                alt,
                cfg,
            )
        })
        .collect()
}

/// Traffic in a corridor along +x whose half-width narrows linearly from
/// the entry to the exit, with enough speed spread for overtaking.
fn corridor(n: usize, p: &ScenarioParams, cfg: &AtmConfig, rng: &mut SimRng) -> Vec<Aircraft> {
    let reach = cfg.half_width - 8.0;
    let entry_half = (p.corridor_width_nm / 2.0).max(1.0);
    let exit_half = 0.8_f32.min(entry_half);
    (0..n)
        .map(|_| {
            let x = rng.range_f32_inclusive(-reach, reach);
            // Linear funnel: widest at the entry (x = -reach).
            let t = (x + reach) / (2.0 * reach);
            let half = entry_half + (exit_half - entry_half) * t;
            let y = rng.range_f32_inclusive(-half, half);
            let s = speed(rng, 280.0, 560.0, cfg);
            let dy = rng.range_f32_inclusive(-0.03, 0.03) * s;
            let alt = 11_000.0 + rng.range_u32_inclusive(0, 1) as f32 * 900.0;
            craft(x, y, s, dy, alt, cfg)
        })
        .collect()
}

/// A dense, slow, low-altitude cluster with random headings.
fn drone_swarm(n: usize, p: &ScenarioParams, cfg: &AtmConfig, rng: &mut SimRng) -> Vec<Aircraft> {
    let cx = rng.range_f32_inclusive(-40.0, 40.0);
    let cy = rng.range_f32_inclusive(-40.0, 40.0);
    let r = p.swarm_radius_nm.max(0.5);
    (0..n)
        .map(|_| {
            let x = cx + rng.range_f32_inclusive(-r, r);
            let y = cy + rng.range_f32_inclusive(-r, r);
            let phi = rng.range_f32_inclusive(0.0, 2.0 * PI);
            let s = speed(rng, 30.0, 90.0, cfg);
            let alt = 1_000.0 + rng.range_u32_inclusive(0, 8) as f32 * 450.0;
            craft(x, y, phi.cos() * s, phi.sin() * s, alt, cfg)
        })
        .collect()
}

/// `hotspot_frac` of the fleet in a 56-nm box straddling the (64, 64)
/// shard corner (for S = 4 over ±128 nm the box spans four shard cells'
/// meeting point), packed into four altitude levels; the rest is uniform
/// background traffic.
fn hotspot(n: usize, p: &ScenarioParams, cfg: &AtmConfig, rng: &mut SimRng) -> Vec<Aircraft> {
    let hot = ((p.hotspot_frac.clamp(0.0, 1.0)) * n as f32).round() as usize;
    let lim = cfg.half_width - 8.0;
    (0..n)
        .map(|i| {
            if i < hot {
                let x = rng.range_f32_inclusive(36.0, 92.0);
                let y = rng.range_f32_inclusive(36.0, 92.0);
                let phi = rng.range_f32_inclusive(0.0, 2.0 * PI);
                let s = speed(rng, 120.0, 360.0, cfg);
                let alt = 8_000.0 + rng.range_u32_inclusive(0, 3) as f32 * 900.0;
                craft(x, y, phi.cos() * s, phi.sin() * s, alt, cfg)
            } else {
                let x = rng.range_f32_inclusive(-lim, lim);
                let y = rng.range_f32_inclusive(-lim, lim);
                let phi = rng.range_f32_inclusive(0.0, 2.0 * PI);
                let s = speed(rng, 120.0, 540.0, cfg);
                let alt = rng.range_f32_inclusive(cfg.alt_min_ft, cfg.alt_max_ft);
                craft(x, y, phi.cos() * s, phi.sin() * s, alt, cfg)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_seven_unique_slugs() {
        let catalog = Scenario::catalog();
        assert_eq!(catalog.len(), 7);
        let mut slugs: Vec<&str> = catalog.iter().map(|s| s.slug()).collect();
        slugs.sort_unstable();
        slugs.dedup();
        assert_eq!(slugs.len(), 7, "slugs must be unique");
        for s in &catalog {
            let found = Scenario::by_slug(s.slug()).expect("slug roundtrip");
            assert_eq!(found.kind, s.kind);
        }
        assert!(Scenario::by_slug("no-such-scenario").is_none());
    }

    #[test]
    fn fleets_are_deterministic_per_n_and_seed() {
        for scn in Scenario::catalog() {
            let a = scn.fleet(64, 11);
            let b = scn.fleet(64, 11);
            assert_eq!(a, b, "{} must be deterministic", scn.slug());
            let c = scn.fleet(64, 12);
            assert_ne!(a, c, "{} must depend on the seed", scn.slug());
            assert_eq!(a.len(), 64);
        }
    }

    #[test]
    fn fleets_respect_field_and_config_ranges() {
        for scn in Scenario::catalog() {
            let cfg = scn.config(3);
            for a in scn.fleet(200, 3) {
                assert!(a.x.abs() <= cfg.half_width, "{}: x={}", scn.slug(), a.x);
                assert!(a.y.abs() <= cfg.half_width, "{}: y={}", scn.slug(), a.y);
                assert!(
                    a.alt >= cfg.alt_min_ft && a.alt <= cfg.alt_max_ft,
                    "{}: alt={}",
                    scn.slug(),
                    a.alt
                );
                let kts = a.speed() * cfg.periods_per_hour;
                assert!(
                    kts >= cfg.speed_min_kts - 0.5 && kts <= cfg.speed_max_kts + 0.5,
                    "{}: speed {kts} kts",
                    scn.slug()
                );
                assert_eq!(a.batx, a.dx);
                assert_eq!(a.baty, a.dy);
            }
        }
    }

    #[test]
    fn holding_stacks_stack_vertically_in_place() {
        let scn = Scenario::new(ScenarioKind::HoldingStacks);
        let fleet = scn.fleet(120, 5);
        let mut levels: Vec<i64> = fleet.iter().map(|a| (a.alt / 900.0) as i64).collect();
        levels.sort_unstable();
        levels.dedup();
        assert!(
            levels.len() >= scn.params.stack_levels,
            "expected >= {} distinct levels, got {}",
            scn.params.stack_levels,
            levels.len()
        );
        // Everyone loiters near one of the three fixes.
        for a in &fleet {
            let near = [(-52.0, 44.0), (10.0, -8.0), (68.0, -64.0)]
                .iter()
                .any(|(cx, cy)| ((a.x - cx).powi(2) + (a.y - cy).powi(2)).sqrt() < 4.0);
            assert!(near, "aircraft at ({}, {}) is far from every fix", a.x, a.y);
        }
    }

    #[test]
    fn crossing_flows_use_distinct_headings() {
        let scn = Scenario::new(ScenarioKind::CrossingFlows);
        let fleet = scn.fleet(90, 4);
        let mut headings: Vec<i64> = fleet
            .iter()
            .map(|a| (a.dy.atan2(a.dx).to_degrees().rem_euclid(180.0) / 10.0) as i64)
            .collect();
        headings.sort_unstable();
        headings.dedup();
        assert!(headings.len() >= 3, "expected >= 3 stream headings");
    }

    #[test]
    fn hotspot_concentrates_the_configured_fraction() {
        let scn = Scenario::new(ScenarioKind::HotspotSurge);
        let fleet = scn.fleet(400, 9);
        let inside = fleet
            .iter()
            .filter(|a| (36.0..=92.0).contains(&a.x) && (36.0..=92.0).contains(&a.y))
            .count();
        assert!(
            inside as f32 >= 0.70 * 400.0,
            "only {inside}/400 in the hotspot box"
        );
    }

    #[test]
    fn radar_dropout_scenario_configures_a_lossy_radar() {
        let scn = Scenario::new(ScenarioKind::RadarDropout);
        assert_eq!(scn.config(1).radar_dropout, scn.params.dropout);
        // The fleet itself is the paper's uniform traffic.
        assert_eq!(scn.fleet(50, 1), {
            let mut cfg = AtmConfig::with_seed(1);
            cfg.radar_dropout = scn.params.dropout;
            Airfield::new(50, cfg).aircraft
        });
        // Every other scenario keeps the paper's perfect radar.
        for other in Scenario::catalog() {
            if other.kind != ScenarioKind::RadarDropout {
                assert_eq!(other.config(1).radar_dropout, 0.0, "{}", other.slug());
            }
        }
    }

    #[test]
    fn airfield_with_preserves_scan_and_shard_knobs() {
        use crate::config::ScanMode;
        let scn = Scenario::new(ScenarioKind::CrossingFlows);
        let base = AtmConfig {
            scan: ScanMode::Naive,
            shards: 4,
            ..AtmConfig::with_seed(77)
        };
        let field = scn.airfield_with(60, &base);
        assert_eq!(field.config().scan, ScanMode::Naive);
        assert_eq!(field.config().shards, 4);
        assert_eq!(field.len(), 60);
        // The fleet only depends on (n, seed), never on those knobs.
        assert_eq!(field.aircraft, scn.fleet(60, 77));
    }

    #[test]
    fn fleet_hash_tracks_every_bit() {
        let scn = Scenario::new(ScenarioKind::DroneSwarm);
        let fleet = scn.fleet(32, 2);
        let h = fleet_hash(&fleet);
        assert_eq!(h, fleet_hash(&scn.fleet(32, 2)), "hash must be stable");
        let mut tweaked = fleet.clone();
        tweaked[17].alt += 1.0;
        assert_ne!(h, fleet_hash(&tweaked), "hash must see field changes");
        assert_ne!(h, fleet_hash(&fleet[..31]), "hash must see length changes");
    }
}
