//! Technology parameter sets (paper Table 1).

use cqla_units::{Micrometers, Probability, Seconds};

/// A fundamental physical operation — one ion-trap clock cycle each.
///
/// The paper defines the fundamental time-step as "any physical, unencoded
/// logic operation (one-bit or two-bit), a basic move operation from one
/// trapping region to another, and measurement".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhysicalOp {
    /// Single-qubit laser gate.
    SingleGate,
    /// Two-qubit gate on co-trapped ions.
    DoubleGate,
    /// State measurement (fluorescence readout).
    Measure,
    /// Ballistic shuttle between adjacent trapping regions.
    Move,
    /// Splitting two co-trapped ions apart.
    Split,
    /// Sympathetic re-cooling after movement.
    Cool,
}

impl PhysicalOp {
    /// All fundamental operations.
    pub const ALL: [Self; 6] = [
        Self::SingleGate,
        Self::DoubleGate,
        Self::Measure,
        Self::Move,
        Self::Split,
        Self::Cool,
    ];
}

impl core::fmt::Display for PhysicalOp {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let name = match self {
            Self::SingleGate => "single gate",
            Self::DoubleGate => "double gate",
            Self::Measure => "measure",
            Self::Move => "movement",
            Self::Split => "split",
            Self::Cool => "cooling",
        };
        write!(f, "{name}")
    }
}

/// One of the Table 1 technology operating points, by name.
///
/// Naming a preset (rather than embedding raw parameters) keeps experiment
/// parameters and sweep descriptions small and serializable; consumers
/// resolve the preset to full [`TechnologyParams`] at execution time.
///
/// # Examples
///
/// ```
/// use cqla_iontrap::TechPoint;
///
/// assert_eq!(TechPoint::parse("projected"), Some(TechPoint::Projected));
/// assert_eq!(TechPoint::Current.label(), "current");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TechPoint {
    /// Experimentally demonstrated parameters (Table 1 "now").
    Current,
    /// The projected 10–15-year parameters the paper evaluates with.
    Projected,
}

impl TechPoint {
    /// Both presets, current first.
    pub const ALL: [Self; 2] = [Self::Current, Self::Projected];

    /// Short machine-readable label used in specs and JSON.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Current => "current",
            Self::Projected => "projected",
        }
    }

    /// Resolves the preset to its full parameter set.
    #[must_use]
    pub fn params(self) -> TechnologyParams {
        match self {
            Self::Current => TechnologyParams::current(),
            Self::Projected => TechnologyParams::projected(),
        }
    }

    /// Parses a label produced by [`TechPoint::label`].
    #[must_use]
    pub fn parse(label: &str) -> Option<Self> {
        match label {
            "current" => Some(Self::Current),
            "projected" => Some(Self::Projected),
            _ => None,
        }
    }
}

impl core::fmt::Display for TechPoint {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// A complete ion-trap technology operating point: per-operation execution
/// times and failure rates plus geometric constants.
///
/// Two presets reproduce the paper's Table 1:
///
/// * [`TechnologyParams::current`] — parameters demonstrated at NIST with
///   ⁹Be⁺ ions circa 2006,
/// * [`TechnologyParams::projected`] — the optimistic 10–15-year
///   extrapolation the paper's evaluation assumes (10 µs cycle, 10⁻⁸
///   single-qubit / 10⁻⁷ two-qubit failure rates, 5 µm traps).
///
/// # Examples
///
/// ```
/// use cqla_iontrap::{PhysicalOp, TechnologyParams};
///
/// let now = TechnologyParams::current();
/// let future = TechnologyParams::projected();
/// assert!(now.duration(PhysicalOp::Measure) > future.duration(PhysicalOp::Measure));
/// assert!(now.failure_rate(PhysicalOp::DoubleGate) > future.failure_rate(PhysicalOp::DoubleGate));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TechnologyParams {
    name: &'static str,
    single_gate: Seconds,
    double_gate: Seconds,
    measure: Seconds,
    movement: Seconds,
    split: Seconds,
    cool: Seconds,
    p_single: Probability,
    p_double: Probability,
    p_measure: Probability,
    /// Movement failure rate per micrometer shuttled (Table 1 quotes this
    /// per-distance figure).
    p_move_per_um: f64,
    memory_time: Seconds,
    trap_size: Micrometers,
    electrodes_per_region: u32,
    cycle_time: Seconds,
}

impl TechnologyParams {
    /// Experimentally demonstrated parameters (Table 1, "now" column).
    #[must_use]
    pub fn current() -> Self {
        Self {
            name: "current (NIST 2006)",
            single_gate: Seconds::from_micros(1.0),
            double_gate: Seconds::from_micros(10.0),
            measure: Seconds::from_micros(200.0),
            movement: Seconds::from_micros(20.0),
            split: Seconds::from_micros(200.0),
            cool: Seconds::from_micros(200.0),
            p_single: Probability::saturating(1e-4),
            p_double: Probability::saturating(0.03),
            p_measure: Probability::saturating(0.01),
            p_move_per_um: 5e-3,
            memory_time: Seconds::new(10.0),
            trap_size: Micrometers::new(200.0),
            electrodes_per_region: 10,
            cycle_time: Seconds::from_micros(200.0),
        }
    }

    /// Projected parameters used throughout the paper's evaluation
    /// (Table 1, parenthesized column): 10 µs cycle, 10⁻⁸ single-qubit and
    /// measurement failures, 10⁻⁷ two-qubit failures, ~10⁻⁶ per-hop
    /// movement failures, 5 µm traps with ~10 electrodes per 50 µm
    /// trapping region.
    #[must_use]
    pub fn projected() -> Self {
        Self {
            name: "projected (10-15 yr)",
            single_gate: Seconds::from_micros(1.0),
            double_gate: Seconds::from_micros(10.0),
            measure: Seconds::from_micros(10.0),
            movement: Seconds::from_micros(10.0),
            split: Seconds::from_micros(0.1),
            cool: Seconds::from_micros(0.1),
            p_single: Probability::saturating(1e-8),
            p_double: Probability::saturating(1e-7),
            p_measure: Probability::saturating(1e-8),
            p_move_per_um: 5e-8,
            memory_time: Seconds::new(100.0),
            trap_size: Micrometers::new(5.0),
            electrodes_per_region: 10,
            cycle_time: Seconds::from_micros(10.0),
        }
    }

    /// Human-readable name of the parameter set.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Execution time of one physical operation.
    #[must_use]
    pub fn duration(&self, op: PhysicalOp) -> Seconds {
        match op {
            PhysicalOp::SingleGate => self.single_gate,
            PhysicalOp::DoubleGate => self.double_gate,
            PhysicalOp::Measure => self.measure,
            PhysicalOp::Move => self.movement,
            PhysicalOp::Split => self.split,
            PhysicalOp::Cool => self.cool,
        }
    }

    /// Failure probability of one physical operation.
    ///
    /// Movement is charged per region-to-region hop (per-µm rate × region
    /// pitch — "order of 10⁻⁶ per fundamental move operation" for the
    /// projected parameters). Split and cooling are motional operations
    /// whose infidelity is absorbed into the movement figure, as in the
    /// paper.
    #[must_use]
    pub fn failure_rate(&self, op: PhysicalOp) -> Probability {
        match op {
            PhysicalOp::SingleGate => self.p_single,
            PhysicalOp::DoubleGate => self.p_double,
            PhysicalOp::Measure => self.p_measure,
            PhysicalOp::Move | PhysicalOp::Split | PhysicalOp::Cool => {
                Probability::saturating(self.p_move_per_um * self.region_pitch().value())
            }
        }
    }

    /// Mean component failure rate `p₀` fed into Gottesman's local
    /// fault-tolerance estimate (paper Eq. 1).
    ///
    /// Follows the paper's method ("taking as p₀ the average of the
    /// expected failure probabilities given in Table 1"): the four Table-1
    /// component entries are averaged directly, with movement at its
    /// per-micrometer value.
    #[must_use]
    pub fn average_failure_rate(&self) -> Probability {
        let sum = self.p_single.value()
            + self.p_double.value()
            + self.p_measure.value()
            + self.p_move_per_um;
        Probability::saturating(sum / 4.0)
    }

    /// Idle coherence (memory) time.
    #[must_use]
    pub fn memory_time(&self) -> Seconds {
        self.memory_time
    }

    /// Individual trap (electrode segment) size.
    #[must_use]
    pub fn trap_size(&self) -> Micrometers {
        self.trap_size
    }

    /// Linear pitch of one trapping region including its junction share:
    /// `trap_size × electrodes_per_region` (50 µm for the projected
    /// parameters, as in the paper).
    #[must_use]
    pub fn region_pitch(&self) -> Micrometers {
        self.trap_size * f64::from(self.electrodes_per_region)
    }

    /// The fundamental clock cycle: the duration budgeted for any one
    /// physical operation (10 µs projected).
    #[must_use]
    pub fn cycle_time(&self) -> Seconds {
        self.cycle_time
    }
}

impl Default for TechnologyParams {
    /// The projected parameter set — the one the paper's study uses.
    fn default() -> Self {
        Self::projected()
    }
}

impl core::fmt::Display for TechnologyParams {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(f, "ion-trap technology: {}", self.name)?;
        writeln!(f, "{:<14}{:>14}{:>16}", "operation", "time", "failure rate")?;
        for op in PhysicalOp::ALL {
            writeln!(
                f,
                "{:<14}{:>14}{:>16}",
                op.to_string(),
                self.duration(op).to_string(),
                self.failure_rate(op).to_string()
            )?;
        }
        writeln!(f, "memory time   {:>14}", self.memory_time.to_string())?;
        write!(f, "trap size     {:>14}", self.trap_size.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projected_matches_paper_table1() {
        let t = TechnologyParams::projected();
        assert_eq!(
            t.duration(PhysicalOp::SingleGate),
            Seconds::from_micros(1.0)
        );
        assert_eq!(
            t.duration(PhysicalOp::DoubleGate),
            Seconds::from_micros(10.0)
        );
        assert_eq!(t.duration(PhysicalOp::Measure), Seconds::from_micros(10.0));
        assert_eq!(t.duration(PhysicalOp::Move), Seconds::from_micros(10.0));
        assert!((t.failure_rate(PhysicalOp::SingleGate).value() - 1e-8).abs() < 1e-20);
        assert!((t.failure_rate(PhysicalOp::DoubleGate).value() - 1e-7).abs() < 1e-19);
        assert!((t.failure_rate(PhysicalOp::Measure).value() - 1e-8).abs() < 1e-20);
        // "order of 10^-6 per fundamental move operation"
        let pm = t.failure_rate(PhysicalOp::Move).value();
        assert!((1e-6..1e-5).contains(&pm), "move rate {pm}");
    }

    #[test]
    fn current_is_uniformly_worse_than_projected() {
        let now = TechnologyParams::current();
        let fut = TechnologyParams::projected();
        for op in [
            PhysicalOp::Measure,
            PhysicalOp::Move,
            PhysicalOp::Split,
            PhysicalOp::Cool,
        ] {
            assert!(now.duration(op) > fut.duration(op), "{op}");
        }
        for op in [
            PhysicalOp::SingleGate,
            PhysicalOp::DoubleGate,
            PhysicalOp::Measure,
            PhysicalOp::Move,
        ] {
            assert!(now.failure_rate(op) > fut.failure_rate(op), "{op}");
        }
    }

    #[test]
    fn region_pitch_is_fifty_micrometers_projected() {
        let t = TechnologyParams::projected();
        assert_eq!(t.region_pitch(), cqla_units::Micrometers::new(50.0));
    }

    #[test]
    fn average_failure_rate_is_between_extremes() {
        let t = TechnologyParams::projected();
        let avg = t.average_failure_rate().value();
        assert!(avg > t.failure_rate(PhysicalOp::SingleGate).value());
        assert!(avg < t.failure_rate(PhysicalOp::Move).value());
    }

    #[test]
    fn default_is_projected() {
        assert_eq!(TechnologyParams::default(), TechnologyParams::projected());
    }

    #[test]
    fn display_contains_all_ops() {
        let text = TechnologyParams::projected().to_string();
        for op in PhysicalOp::ALL {
            assert!(text.contains(&op.to_string()), "missing {op}");
        }
    }
}
