//! The two error-correcting codes the CQLA is parameterized by.

/// One of the paper's two code choices.
///
/// Per-code constants are calibrated to the paper's Table 2 (see DESIGN.md
/// §4 for the calibration story):
///
/// | constant | Steane \[\[7,1,3\]\] | Bacon-Shor \[\[9,1,3\]\] |
/// |---|---|---|
/// | cycles per level-1 syndrome | 154 (paper's number) | 60 |
/// | logical steps per level-≥2 syndrome | 24 | 21 |
/// | level-1 tile (trapping regions) | 81 (9×9) | 42 (6×7) |
/// | sub-tiles per level-2 tile | 14 | 18 |
/// | teleport channels needed | 1 | 3 |
///
/// The Bacon-Shor code is *larger* per logical qubit (9 data ions vs 7) but
/// needs far fewer error-correction resources because its syndrome is
/// assembled from weight-2 gauge measurements — no encoded-ancilla
/// verification required. That asymmetry is what drives the paper's
/// area-and-speed win for the \[\[9,1,3\]\] design.
///
/// # Examples
///
/// ```
/// use cqla_ecc::Code;
///
/// assert_eq!(Code::Steane713.physical_per_logical(), 7);
/// assert_eq!(Code::BaconShor913.physical_per_logical(), 9);
/// assert!(Code::BaconShor913.l1_syndrome_cycles() < Code::Steane713.l1_syndrome_cycles());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Code {
    /// Steane \[\[7,1,3\]\] — smallest code with fully transversal Clifford
    /// gates; the QLA baseline's code.
    Steane713,
    /// Bacon-Shor \[\[9,1,3\]\] — subsystem code with two-qubit gauge
    /// measurements; smaller and faster error correction.
    BaconShor913,
}

impl Code {
    /// Both codes, in the paper's presentation order.
    pub const ALL: [Self; 2] = [Self::Steane713, Self::BaconShor913];

    /// Short display label matching the paper's table headers.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Steane713 => "[[7,1,3]]",
            Self::BaconShor913 => "[[9,1,3]]",
        }
    }

    /// The CLI/sweep-spec spelling (`steane`, `bacon-shor`).
    #[must_use]
    pub fn slug(self) -> &'static str {
        match self {
            Self::Steane713 => "steane",
            Self::BaconShor913 => "bacon-shor",
        }
    }

    /// Parses either spelling of a code: the CLI slug (`steane`,
    /// `bacon-shor`) or the paper label (`[[7,1,3]]`, `[[9,1,3]]`).
    #[must_use]
    pub fn parse(label: &str) -> Option<Self> {
        match label {
            "steane" | "[[7,1,3]]" => Some(Self::Steane713),
            "bacon-shor" | "[[9,1,3]]" => Some(Self::BaconShor913),
            _ => None,
        }
    }

    /// Physical data qubits per level-1 logical qubit (`n`).
    #[must_use]
    pub fn physical_per_logical(self) -> u64 {
        match self {
            Self::Steane713 => 7,
            Self::BaconShor913 => 9,
        }
    }

    /// Clock cycles per level-1 syndrome extraction (one error species).
    ///
    /// The paper quotes 154 cycles for the \[\[7,1,3\]\] level-1 circuit
    /// including communication; the \[\[9,1,3\]\] figure is calibrated so the
    /// full level-1 EC lands on the paper's 1.2 ms.
    #[must_use]
    pub fn l1_syndrome_cycles(self) -> u64 {
        match self {
            Self::Steane713 => 154,
            Self::BaconShor913 => 60,
        }
    }

    /// Logical gate steps per level-≥2 syndrome extraction. Each step is a
    /// transversal gate on level-(L−1) blocks, bracketed by level-(L−1)
    /// error correction.
    #[must_use]
    pub fn l2_steps_per_syndrome(self) -> u64 {
        match self {
            Self::Steane713 => 24,
            Self::BaconShor913 => 21,
        }
    }

    /// Trapping regions of the level-1 tile (data + EC ancilla + room to
    /// maneuver).
    #[must_use]
    pub fn l1_tile_regions(self) -> u64 {
        match self {
            Self::Steane713 => 81,    // 9×9 regions ≈ 0.2 mm²
            Self::BaconShor913 => 42, // 6×7 regions ≈ 0.1 mm²
        }
    }

    /// Level-1 sub-tiles composing a level-2 tile (data blocks + ancilla
    /// blocks).
    #[must_use]
    pub fn l2_subtiles(self) -> u64 {
        match self {
            Self::Steane713 => 14,    // 7 data + 7 ancilla blocks
            Self::BaconShor913 => 18, // 9 data + 9 ancilla blocks
        }
    }

    /// Logical ancilla qubits per logical data qubit at the given level
    /// (paper Table 2 "Size, number of logical qubits" rows).
    ///
    /// # Panics
    ///
    /// Panics for levels other than 1 or 2 (the paper's design space).
    #[must_use]
    pub fn ancilla_qubits(self, level: crate::Level) -> u64 {
        match (self, level.get()) {
            (Self::Steane713, 1) => 21,
            (Self::Steane713, 2) => 441,
            (Self::BaconShor913, 1) => 12,
            (Self::BaconShor913, 2) => 298,
            (_, l) => panic!("ancilla counts tabulated only for levels 1-2, got {l}"),
        }
    }

    /// Physical data qubits at the given level (`n^L`).
    #[must_use]
    pub fn data_qubits(self, level: crate::Level) -> u64 {
        self.physical_per_logical().pow(u32::from(level.get()))
    }

    /// Teleportation channels needed to keep communication overlapped with
    /// computation (paper §5.1 "Communication Issues"): 1 for Steane, 3 for
    /// Bacon-Shor (more data qubits to move, fewer EC cycles to hide them
    /// behind).
    #[must_use]
    pub fn teleport_channels_required(self) -> u32 {
        match self {
            Self::Steane713 => 1,
            Self::BaconShor913 => 3,
        }
    }

    /// Fault-tolerance threshold used in the Eq. 1 reliability model.
    ///
    /// Steane: 7.5×10⁻⁵, the Svore–Terhal–DiVincenzo local-gate value the
    /// paper cites. Bacon-Shor: 1.5×10⁻⁴, reflecting the paper's remark
    /// that the \[\[9,1,3\]\] analysis is "more favourable due to a higher
    /// threshold".
    #[must_use]
    pub fn threshold(self) -> cqla_units::Probability {
        match self {
            Self::Steane713 => cqla_units::Probability::saturating(7.5e-5),
            Self::BaconShor913 => cqla_units::Probability::saturating(1.5e-4),
        }
    }
}

impl core::fmt::Display for Code {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Steane713 => write!(f, "Steane [[7,1,3]]"),
            Self::BaconShor913 => write!(f, "Bacon-Shor [[9,1,3]]"),
        }
    }
}

/// A concatenation level (the paper uses levels 1 and 2).
///
/// # Examples
///
/// ```
/// use cqla_ecc::Level;
///
/// assert!(Level::ONE < Level::TWO);
/// assert_eq!(Level::TWO.get(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Level(u8);

impl Level {
    /// Level 1: fast, less reliable (compute/cache encoding).
    pub const ONE: Self = Self(1);
    /// Level 2: slow, highly reliable (memory encoding).
    pub const TWO: Self = Self(2);

    /// Creates a level.
    ///
    /// # Panics
    ///
    /// Panics if `level` is zero (unencoded qubits are not logical qubits).
    #[must_use]
    pub fn new(level: u8) -> Self {
        assert!(level >= 1, "concatenation level must be >= 1");
        Self(level)
    }

    /// The raw level number.
    #[must_use]
    pub const fn get(self) -> u8 {
        self.0
    }
}

impl core::fmt::Display for Level {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// A `(code, level)` pair — one cell of the paper's design space and the
/// node type of the code-transfer network.
///
/// # Examples
///
/// ```
/// use cqla_ecc::{Code, CodeLevel, Level};
///
/// let mem = CodeLevel::new(Code::BaconShor913, Level::TWO);
/// assert_eq!(mem.code(), Code::BaconShor913);
/// assert_eq!(format!("{mem}"), "9-L2");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CodeLevel {
    code: Code,
    level: Level,
}

impl CodeLevel {
    /// The four design points of the paper's Table 3, in its row order.
    pub const TABLE3_ORDER: [Self; 4] = [
        Self {
            code: Code::Steane713,
            level: Level::ONE,
        },
        Self {
            code: Code::Steane713,
            level: Level::TWO,
        },
        Self {
            code: Code::BaconShor913,
            level: Level::ONE,
        },
        Self {
            code: Code::BaconShor913,
            level: Level::TWO,
        },
    ];

    /// Creates a code-level pair.
    #[must_use]
    pub const fn new(code: Code, level: Level) -> Self {
        Self { code, level }
    }

    /// The code.
    #[must_use]
    pub const fn code(self) -> Code {
        self.code
    }

    /// The concatenation level.
    #[must_use]
    pub const fn level(self) -> Level {
        self.level
    }
}

impl core::fmt::Display for CodeLevel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}-{}", self.code.physical_per_logical(), self.level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table2_qubit_counts() {
        assert_eq!(Code::Steane713.data_qubits(Level::ONE), 7);
        assert_eq!(Code::Steane713.ancilla_qubits(Level::ONE), 21);
        assert_eq!(Code::Steane713.data_qubits(Level::TWO), 49);
        assert_eq!(Code::Steane713.ancilla_qubits(Level::TWO), 441);
        assert_eq!(Code::BaconShor913.data_qubits(Level::ONE), 9);
        assert_eq!(Code::BaconShor913.ancilla_qubits(Level::ONE), 12);
        assert_eq!(Code::BaconShor913.data_qubits(Level::TWO), 81);
        assert_eq!(Code::BaconShor913.ancilla_qubits(Level::TWO), 298);
    }

    #[test]
    fn bacon_shor_needs_fewer_ec_resources_but_more_data() {
        let st = Code::Steane713;
        let bs = Code::BaconShor913;
        assert!(bs.ancilla_qubits(Level::ONE) < st.ancilla_qubits(Level::ONE));
        assert!(bs.data_qubits(Level::ONE) > st.data_qubits(Level::ONE));
        assert!(bs.teleport_channels_required() > st.teleport_channels_required());
        assert!(bs.threshold() > st.threshold());
    }

    #[test]
    fn level_ordering_and_display() {
        assert!(Level::ONE < Level::TWO);
        assert_eq!(Level::new(3).to_string(), "L3");
    }

    #[test]
    #[should_panic(expected = ">= 1")]
    fn level_zero_panics() {
        let _ = Level::new(0);
    }

    #[test]
    #[should_panic(expected = "tabulated only for levels 1-2")]
    fn ancilla_beyond_level_two_panics() {
        let _ = Code::Steane713.ancilla_qubits(Level::new(3));
    }

    #[test]
    fn code_level_display_matches_table3_headers() {
        let labels: Vec<String> = CodeLevel::TABLE3_ORDER
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(labels, ["7-L1", "7-L2", "9-L1", "9-L2"]);
    }
}
