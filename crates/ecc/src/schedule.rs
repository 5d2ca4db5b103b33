//! Cycle-level structure of one syndrome extraction.
//!
//! [`EccMetrics`](crate::EccMetrics) only needs syndrome totals, but the
//! totals should be auditable: this module breaks a level-1 syndrome
//! extraction into its phases (ancilla preparation, verification, data
//! interaction, measurement, ion movement) for each code, with the phase
//! structure derived from the codes' stabilizer definitions.
//!
//! The key structural difference the paper exploits: Steane-style EC
//! interacts the data with a *verified encoded ancilla block*, while
//! Bacon-Shor EC measures weight-2 gauge operators with bare ancilla ions —
//! no encoded-ancilla verification at all. That is why the \[\[9,1,3\]\]
//! syndrome is 2.6× faster despite the code being larger.

use cqla_units::{Cycles, Seconds};

use crate::code::Code;

/// One phase of a syndrome-extraction schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EcPhase {
    /// Preparing the ancilla (encoded block for Steane, bare ions for
    /// Bacon-Shor gauge measurement).
    AncillaPrep,
    /// Verifying the encoded ancilla against preparation errors.
    Verification,
    /// Transversal data–ancilla interaction (CNOTs).
    Interaction,
    /// Ancilla measurement and classical syndrome assembly.
    Measurement,
    /// Ion shuttling between phases.
    Movement,
}

impl core::fmt::Display for EcPhase {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let name = match self {
            Self::AncillaPrep => "ancilla preparation",
            Self::Verification => "verification",
            Self::Interaction => "interaction",
            Self::Measurement => "measurement",
            Self::Movement => "movement",
        };
        write!(f, "{name}")
    }
}

/// The phase-by-phase cycle schedule of one level-1 syndrome extraction.
///
/// # Examples
///
/// ```
/// use cqla_ecc::schedule::SyndromeSchedule;
/// use cqla_ecc::Code;
///
/// let steane = SyndromeSchedule::level1(Code::Steane713);
/// assert_eq!(steane.total_cycles().count(), 154); // the paper's figure
/// let bs = SyndromeSchedule::level1(Code::BaconShor913);
/// assert_eq!(bs.total_cycles().count(), 60);
/// assert!(!bs.has_verification()); // gauge measurements skip it
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyndromeSchedule {
    code: Code,
    phases: Vec<(EcPhase, Cycles)>,
}

impl SyndromeSchedule {
    /// The level-1 schedule for `code`.
    ///
    /// Phase budgets are modeling choices calibrated so the totals match
    /// the level-1 EC times of Table 2 (154 cycles/syndrome for Steane —
    /// the paper's own figure — and 60 for Bacon-Shor); the *shape* follows
    /// the codes' circuit structure:
    ///
    /// * Steane: encode a 7-qubit ancilla block (4 CNOT rounds + Hadamards,
    ///   dominated by ion placement), verify it against correlated errors
    ///   (second ancilla + parity checks), one transversal CNOT round,
    ///   measure all 7 ancilla ions, with movement interleaved throughout.
    /// * Bacon-Shor: prepare bare ancilla ions, measure the 6 weight-2
    ///   gauge operators of one species pairwise (2-ion interactions), no
    ///   verification.
    #[must_use]
    pub fn level1(code: Code) -> Self {
        let phases = match code {
            Code::Steane713 => vec![
                (EcPhase::AncillaPrep, Cycles::new(44)),
                (EcPhase::Verification, Cycles::new(36)),
                (EcPhase::Interaction, Cycles::new(14)),
                (EcPhase::Measurement, Cycles::new(20)),
                (EcPhase::Movement, Cycles::new(40)),
            ],
            Code::BaconShor913 => vec![
                (EcPhase::AncillaPrep, Cycles::new(12)),
                (EcPhase::Interaction, Cycles::new(18)),
                (EcPhase::Measurement, Cycles::new(10)),
                (EcPhase::Movement, Cycles::new(20)),
            ],
        };
        Self { code, phases }
    }

    /// The code this schedule extracts a syndrome for.
    #[must_use]
    pub fn code(&self) -> Code {
        self.code
    }

    /// Phases in execution order with their cycle budgets.
    #[must_use]
    pub fn phases(&self) -> &[(EcPhase, Cycles)] {
        &self.phases
    }

    /// Total cycles of one syndrome extraction.
    #[must_use]
    pub fn total_cycles(&self) -> Cycles {
        self.phases.iter().map(|&(_, c)| c).sum()
    }

    /// Wall-clock duration of one syndrome extraction.
    #[must_use]
    pub fn duration(&self, tech: &cqla_iontrap::TechnologyParams) -> Seconds {
        self.total_cycles().to_duration(tech.cycle_time())
    }

    /// Whether the schedule includes an encoded-ancilla verification phase.
    #[must_use]
    pub fn has_verification(&self) -> bool {
        self.phases.iter().any(|&(p, _)| p == EcPhase::Verification)
    }

    /// Cycles spent on a given phase (zero if absent).
    #[must_use]
    pub fn cycles_for(&self, phase: EcPhase) -> Cycles {
        self.phases
            .iter()
            .filter(|&&(p, _)| p == phase)
            .map(|&(_, c)| c)
            .sum()
    }
}

impl core::fmt::Display for SyndromeSchedule {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "{} level-1 syndrome ({}):",
            self.code,
            self.total_cycles()
        )?;
        for (phase, cycles) in &self.phases {
            writeln!(f, "  {phase:<24} {cycles}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::Level;
    use crate::metrics::EccMetrics;
    use cqla_iontrap::TechnologyParams;

    #[test]
    fn totals_match_calibration_constants() {
        for code in Code::ALL {
            let s = SyndromeSchedule::level1(code);
            assert_eq!(
                s.total_cycles().count(),
                code.l1_syndrome_cycles(),
                "{code}"
            );
        }
    }

    #[test]
    fn two_syndromes_equal_one_full_ec() {
        let tech = TechnologyParams::projected();
        for code in Code::ALL {
            let s = SyndromeSchedule::level1(code);
            let full_ec = EccMetrics::compute(code, Level::ONE, &tech).ec_time();
            let two_syndromes = s.duration(&tech) * 2.0;
            assert!((full_ec / two_syndromes - 1.0).abs() < 1e-9, "{code}");
        }
    }

    #[test]
    fn steane_verifies_bacon_shor_does_not() {
        assert!(SyndromeSchedule::level1(Code::Steane713).has_verification());
        assert!(!SyndromeSchedule::level1(Code::BaconShor913).has_verification());
    }

    #[test]
    fn interaction_budget_covers_stabilizer_weight() {
        // The interaction phase must be wide enough to touch every qubit of
        // the heaviest stabilizer generator of one species, two cycles per
        // two-qubit interaction (place + gate).
        for code in Code::ALL {
            let css = code.css_code();
            let max_weight = css
                .x_stab_supports()
                .iter()
                .chain(css.gauge_x_supports())
                .map(Vec::len)
                .max()
                .unwrap();
            let s = SyndromeSchedule::level1(code);
            assert!(
                s.cycles_for(EcPhase::Interaction).count() >= max_weight as u64 * 2,
                "{code}: interaction too short for weight {max_weight}"
            );
        }
    }

    #[test]
    fn movement_is_substantial_but_not_dominant() {
        // Paper §1: "communication is generally dominated by computation
        // for error correction" — movement must stay under half the
        // schedule.
        for code in Code::ALL {
            let s = SyndromeSchedule::level1(code);
            let movement = s.cycles_for(EcPhase::Movement).count() as f64;
            let total = s.total_cycles().count() as f64;
            assert!(movement / total < 0.5, "{code}");
            assert!(movement > 0.0, "{code}");
        }
    }

    #[test]
    fn display_lists_every_phase() {
        let text = SyndromeSchedule::level1(Code::Steane713).to_string();
        for phase in [
            "ancilla preparation",
            "verification",
            "interaction",
            "measurement",
        ] {
            assert!(text.contains(phase), "missing {phase}");
        }
    }
}
