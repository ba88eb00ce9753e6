//! Router and mesh configuration following the paper's §5.4 setup.

use crate::error::ConfigError;
use std::fmt;

/// The three router microarchitectures evaluated by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RouterKind {
    /// Generic 2-stage 5-port virtual-channel router with a monolithic
    /// 5×5 crossbar (Fig 1a).
    Generic,
    /// Path-Sensitive router of Kim et al., DAC 2005: four quadrant path
    /// sets and a 4×4 decomposed crossbar.
    PathSensitive,
    /// The paper's Row-Column decoupled router: independent Row and
    /// Column modules with 2×2 crossbars (Fig 1b).
    RoCo,
}

impl RouterKind {
    /// All three architectures, in the paper's presentation order.
    pub const ALL: [RouterKind; 3] =
        [RouterKind::Generic, RouterKind::PathSensitive, RouterKind::RoCo];
}

impl fmt::Display for RouterKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RouterKind::Generic => "generic",
            RouterKind::PathSensitive => "path-sensitive",
            RouterKind::RoCo => "roco",
        };
        f.write_str(s)
    }
}

/// The three routing algorithms evaluated by the paper (§5.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoutingKind {
    /// Deterministic dimension-order (XY) routing.
    Xy,
    /// Oblivious XY-YX: each packet picks XY or YX with equal probability
    /// at injection.
    XyYx,
    /// Minimal adaptive routing under the west-first turn model.
    Adaptive,
    /// Minimal adaptive routing under the odd-even turn model
    /// (extension: used by the ablation study; not part of the paper's
    /// three-algorithm comparison).
    AdaptiveOddEven,
}

impl RoutingKind {
    /// The paper's three algorithms, in presentation order (the
    /// odd-even extension is excluded).
    pub const ALL: [RoutingKind; 3] = [RoutingKind::Xy, RoutingKind::XyYx, RoutingKind::Adaptive];
}

impl fmt::Display for RoutingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RoutingKind::Xy => "xy",
            RoutingKind::XyYx => "xy-yx",
            RoutingKind::Adaptive => "adaptive",
            RoutingKind::AdaptiveOddEven => "adaptive-odd-even",
        };
        f.write_str(s)
    }
}

/// Most internal VCs one router may hold: the cycle kernel tracks a
/// router's busy VCs in one `u64` mask.
pub const MAX_INTERNAL_VCS: usize = 64;

/// Per-router configuration.
///
/// The paper's fairness setup (§5.4) gives every router 60 flits of
/// buffering: the generic router has 5 ports × 3 VCs × 4-flit buffers,
/// while the 4-port Path-Sensitive and RoCo routers have 3 VCs per port
/// with 5-flit buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterConfig {
    /// Microarchitecture.
    pub router: RouterKind,
    /// Routing algorithm.
    pub routing: RoutingKind,
    /// Virtual channels per port (paper: 3).
    pub vcs_per_port: u8,
    /// Flit slots per VC buffer (paper: 4 generic, 5 PS/RoCo).
    pub buffer_depth: u8,
    /// Flits per packet (paper: 4).
    pub num_flits: u16,
    /// Flit width in bits (paper: 128); only the energy model reads this.
    pub flit_bits: u16,
    /// Whether the RoCo router uses the Mirroring-Effect switch
    /// allocator (§3.3). `false` replaces it with a plain input-first
    /// separable allocator per module — the ablation baseline.
    pub mirror_allocator: bool,
    /// Whether a head may bid for the switch in the same cycle its VA
    /// succeeded ("speculative path selection", §3.1). `false` models a
    /// classic 3-stage pipeline where SA follows VA by a cycle — the
    /// ablation baseline.
    pub speculative_sa: bool,
    /// Cycles a baseline router lets a fault-blocked packet wedge an
    /// input VC before the watchdog discards it (default 20). Set to
    /// `u64::MAX` to disable the watchdog and let blocked packets wedge
    /// forever, as the paper describes the non-recycling baselines —
    /// used by the stall-detector and post-mortem tests.
    pub block_timeout: u64,
}

impl RouterConfig {
    /// The paper's configuration for `router` under `routing`.
    pub fn paper(router: RouterKind, routing: RoutingKind) -> Self {
        let buffer_depth = match router {
            RouterKind::Generic => 4,
            RouterKind::PathSensitive | RouterKind::RoCo => 5,
        };
        RouterConfig {
            router,
            routing,
            vcs_per_port: 3,
            buffer_depth,
            num_flits: 4,
            flit_bits: 128,
            mirror_allocator: true,
            speculative_sa: true,
            block_timeout: 20,
        }
    }

    /// Number of physical input port sets (5 generic, 4 otherwise).
    pub fn num_ports(&self) -> u8 {
        match self.router {
            RouterKind::Generic => 5,
            RouterKind::PathSensitive | RouterKind::RoCo => 4,
        }
    }

    /// Internal VCs of one router: 5 ports × `vcs_per_port` for the
    /// generic router; four path sets (Path-Sensitive quadrants, RoCo
    /// Table-1 module ports) × `vcs_per_port` otherwise.
    pub fn internal_vcs(&self) -> usize {
        self.num_ports() as usize * self.vcs_per_port as usize
    }

    /// Total buffer capacity of one router in flits (paper: 60 for all).
    pub fn total_buffer_flits(&self) -> u32 {
        self.num_ports() as u32 * self.vcs_per_port as u32 * self.buffer_depth as u32
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when a field is zero or out of its
    /// supported range, or when the router would hold more than
    /// [`MAX_INTERNAL_VCS`] internal VCs.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.vcs_per_port == 0 {
            return Err(ConfigError::new("vcs_per_port must be at least 1"));
        }
        if self.internal_vcs() > MAX_INTERNAL_VCS {
            return Err(ConfigError::new(format!(
                "{} router with {} VCs per port has {} internal VCs; at most {MAX_INTERNAL_VCS} \
                 are supported",
                self.router,
                self.vcs_per_port,
                self.internal_vcs()
            )));
        }
        if self.buffer_depth == 0 {
            return Err(ConfigError::new("buffer_depth must be at least 1"));
        }
        if self.num_flits == 0 {
            return Err(ConfigError::new("num_flits must be at least 1"));
        }
        if self.flit_bits == 0 {
            return Err(ConfigError::new("flit_bits must be at least 1"));
        }
        if self.router == RouterKind::RoCo && self.vcs_per_port != 3 {
            return Err(ConfigError::new(
                "the RoCo router's Table-1 VC configuration requires exactly 3 VCs per path set",
            ));
        }
        Ok(())
    }
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig::paper(RouterKind::RoCo, RoutingKind::Xy)
    }
}

/// Mesh dimensions (paper: 8×8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeshConfig {
    /// Number of columns.
    pub width: u16,
    /// Number of rows.
    pub height: u16,
}

impl MeshConfig {
    /// Creates a mesh configuration.
    pub const fn new(width: u16, height: u16) -> Self {
        MeshConfig { width, height }
    }

    /// Total node count.
    pub fn nodes(&self) -> usize {
        self.width as usize * self.height as usize
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for meshes smaller than 2×2 (the routing
    /// algorithms assume at least two nodes in each dimension).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.width < 2 || self.height < 2 {
            return Err(ConfigError::new("mesh must be at least 2x2"));
        }
        Ok(())
    }
}

impl Default for MeshConfig {
    fn default() -> Self {
        MeshConfig::new(8, 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_all_have_sixty_flit_buffers() {
        for router in RouterKind::ALL {
            for routing in RoutingKind::ALL {
                let cfg = RouterConfig::paper(router, routing);
                assert_eq!(cfg.total_buffer_flits(), 60, "{router} under {routing}");
                cfg.validate().expect("paper config validates");
            }
        }
    }

    #[test]
    fn generic_has_five_ports_others_four() {
        assert_eq!(RouterConfig::paper(RouterKind::Generic, RoutingKind::Xy).num_ports(), 5);
        assert_eq!(RouterConfig::paper(RouterKind::PathSensitive, RoutingKind::Xy).num_ports(), 4);
        assert_eq!(RouterConfig::paper(RouterKind::RoCo, RoutingKind::Xy).num_ports(), 4);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let cfg = RouterConfig { vcs_per_port: 0, ..Default::default() };
        assert!(cfg.validate().is_err());

        let cfg = RouterConfig { buffer_depth: 0, ..Default::default() };
        assert!(cfg.validate().is_err());

        let cfg = RouterConfig { num_flits: 0, ..Default::default() };
        assert!(cfg.validate().is_err());

        let mut cfg = RouterConfig::paper(RouterKind::RoCo, RoutingKind::Xy);
        cfg.vcs_per_port = 4;
        assert!(cfg.validate().is_err(), "RoCo requires exactly 3 VCs per path set");

        let mut cfg = RouterConfig::paper(RouterKind::Generic, RoutingKind::Xy);
        cfg.vcs_per_port = 4;
        assert!(cfg.validate().is_ok(), "generic router accepts other VC counts");
    }

    #[test]
    fn internal_vc_limit_matches_each_layout() {
        let generic = |v| RouterConfig {
            vcs_per_port: v,
            ..RouterConfig::paper(RouterKind::Generic, RoutingKind::Xy)
        };
        assert_eq!(generic(12).internal_vcs(), 60);
        assert!(generic(12).validate().is_ok(), "5 ports x 12 VCs = 60 fits one mask word");
        assert_eq!(generic(13).internal_vcs(), 65);
        let err = generic(13).validate().unwrap_err();
        assert!(err.message().contains("65 internal VCs"), "{err}");
        for router in [RouterKind::PathSensitive, RouterKind::RoCo] {
            assert_eq!(RouterConfig::paper(router, RoutingKind::Xy).internal_vcs(), 12);
        }
    }

    #[test]
    fn mesh_validation() {
        assert!(MeshConfig::new(8, 8).validate().is_ok());
        assert!(MeshConfig::new(1, 8).validate().is_err());
        assert!(MeshConfig::new(8, 1).validate().is_err());
        assert_eq!(MeshConfig::default().nodes(), 64);
    }

    #[test]
    fn display_names() {
        assert_eq!(RouterKind::Generic.to_string(), "generic");
        assert_eq!(RouterKind::PathSensitive.to_string(), "path-sensitive");
        assert_eq!(RouterKind::RoCo.to_string(), "roco");
        assert_eq!(RoutingKind::Xy.to_string(), "xy");
        assert_eq!(RoutingKind::XyYx.to_string(), "xy-yx");
        assert_eq!(RoutingKind::Adaptive.to_string(), "adaptive");
    }
}
