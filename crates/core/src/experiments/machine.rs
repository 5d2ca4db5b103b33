//! The `machine` artifact: price one CQLA configuration end to end.

use cqla_ecc::Code;
use cqla_iontrap::TechPoint;

use crate::eval::EvalCtx;
use crate::hierarchy::{HierarchyConfig, HierarchyStudy};
use crate::json::{Json, ToJson};
use crate::specialize::{CqlaConfig, SpecializationStudy};

use super::api::{
    parse_bits, parse_code, parse_positive, parse_ratio, parse_tech, unknown_key, Domain,
    Experiment, ExperimentOutput, Param,
};

/// Prices one CQLA configuration: the flat specialization (Table 4
/// quantities) plus the level-1 cache + compute hierarchy on top of it
/// (Table 5 quantities).
///
/// Defaults are the paper's headline machine: the 1024-bit Bacon-Shor
/// CQLA on 100 compute blocks with 10 parallel transfers and the 2×PE
/// cache.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Machine {
    /// Technology operating point.
    pub tech: TechPoint,
    /// Error-correcting code.
    pub code: Code,
    /// Input size in bits.
    pub bits: u32,
    /// Compute blocks.
    pub blocks: u32,
    /// Parallel memory↔cache transfers for the hierarchy view.
    pub xfer: u32,
    /// Cache capacity as a multiple of the compute-region qubits.
    pub cache: f64,
}

impl Default for Machine {
    fn default() -> Self {
        Self {
            tech: TechPoint::Projected,
            code: Code::BaconShor913,
            bits: 1024,
            blocks: 100,
            xfer: 10,
            cache: 2.0,
        }
    }
}

impl Experiment for Machine {
    fn id(&self) -> &'static str {
        "machine"
    }

    fn title(&self) -> &'static str {
        "Machine: price one CQLA configuration"
    }

    fn params(&self) -> Vec<Param> {
        vec![
            Param::new("tech", self.tech, Domain::Tech),
            Param::new("code", self.code.slug(), Domain::Code),
            Param::new("bits", self.bits, Domain::Bits),
            Param::new("blocks", self.blocks, Domain::PosInt),
            Param::new("xfer", self.xfer, Domain::PosInt),
            Param::new("cache", self.cache, Domain::Ratio),
        ]
    }

    fn set(&mut self, key: &str, value: &str) -> Result<(), super::ParamError> {
        match key {
            "tech" => self.tech = parse_tech("tech", value)?,
            "code" => self.code = parse_code("code", value)?,
            "bits" => self.bits = parse_bits("bits", value)?,
            "blocks" => self.blocks = parse_positive("blocks", value)?,
            "xfer" => self.xfer = parse_positive("xfer", value)?,
            "cache" => self.cache = parse_ratio("cache", value)?,
            _ => return Err(unknown_key(key, &self.params())),
        }
        Ok(())
    }

    fn run_ctx(&self, ctx: &EvalCtx) -> ExperimentOutput {
        use std::fmt::Write as _;
        let tech = self.tech.params();
        let study = SpecializationStudy::new(&tech);
        let r = study.evaluate_ctx(CqlaConfig::new(self.code, self.bits, self.blocks), ctx);
        let mut hierarchy_config =
            HierarchyConfig::new(self.code, self.bits, self.xfer, self.blocks);
        hierarchy_config.cache_factor = self.cache;
        let h = HierarchyStudy::new(&tech).evaluate_ctx(hierarchy_config, ctx);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "CQLA: {}, {}-bit input, {} compute blocks",
            self.code, self.bits, self.blocks
        );
        let _ = writeln!(out, "  memory qubits     {}", r.config.memory_qubits());
        let _ = writeln!(out, "  area reduction    {:.2}x vs QLA", r.area_reduction);
        let _ = writeln!(
            out,
            "  adder speedup     {:.2}x vs maximally parallel QLA",
            r.speedup
        );
        let _ = writeln!(out, "  block utilization {:.0}%", r.utilization * 100.0);
        let _ = writeln!(out, "  adder time        {}", r.adder_time);
        let _ = writeln!(out, "  gain product      {:.1}", r.gain_product);
        let _ = writeln!(
            out,
            "with a level-1 cache + compute region ({} parallel transfers):",
            self.xfer
        );
        let _ = writeln!(out, "  cache hit rate    {:.0}%", h.cache_hit_rate * 100.0);
        let _ = writeln!(out, "  L1 region speedup {:.1}x over L2", h.l1_speedup);
        let _ = write!(
            out,
            "  adder speedup     {:.2}x … {:.2}x (policy bracket)",
            h.adder_speedup_interleave, h.adder_speedup_balanced
        );
        ExperimentOutput::new(
            out,
            Json::obj([("specialization", r.to_json()), ("hierarchy", h.to_json())]),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_defaults_price_the_headline_configuration() {
        let out = Machine::default().run();
        assert!(out.passed);
        assert!(out.text.contains("area reduction"));
        assert!(out.text.contains("gain product"));
        assert!(out.data.get("specialization").is_some());
        assert!(out.data.get("hierarchy").is_some());
    }

    #[test]
    fn machine_parameters_apply() {
        let mut m = Machine::default();
        m.set("code", "steane").unwrap();
        m.set("bits", "128").unwrap();
        m.set("blocks", "16").unwrap();
        m.set("xfer", "5").unwrap();
        m.set("cache", "1.5").unwrap();
        assert_eq!(
            (m.code, m.bits, m.blocks, m.xfer),
            (Code::Steane713, 128, 16, 5)
        );
        assert!((m.cache - 1.5).abs() < 1e-12);
        assert!(m.set("bits", "0").is_err());
        assert!(m.set("code", "surface").is_err());
        assert!(m.set("cache", "-2").is_err());
    }

    #[test]
    fn cache_ratio_changes_the_hierarchy_view_only() {
        let default = Machine::default().run();
        let mut m = Machine::default();
        m.set("cache", "1").unwrap();
        let small = m.run();
        assert_eq!(
            default.data.get("specialization"),
            small.data.get("specialization"),
            "the flat study ignores the cache ratio"
        );
        assert_ne!(
            default.data.get("hierarchy"),
            small.data.get("hierarchy"),
            "the hierarchy study must see the cache ratio"
        );
    }
}
