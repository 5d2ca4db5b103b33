//! [`ToJson`] implementations for the workspace's result types.
//!
//! This module is where serialization is defined: one stable,
//! documented key set per type.
//! Times serialize in seconds (`*_s` keys), areas in mm² (`*_mm2`),
//! rates and ratios as plain numbers — the same units the paper's tables
//! print.

use crate::experiments::{AppTimeRow, Fig2Data, Fig6aRow, Fig6bData, Fig7Row};
use crate::experiments::{Table3Data, Table4Row, Table5Row};
use crate::{CqlaConfig, FetchPolicy, HierarchyConfig, HierarchyResult, SpecializationResult};
use cqla_ecc::{Code, EccMetrics, Level};
use cqla_iontrap::{PhysicalOp, TechPoint, TechnologyParams};
use cqla_network::BandwidthSample;
use cqla_units::Seconds;

use crate::json::{Json, ToJson};

impl ToJson for Seconds {
    fn to_json(&self) -> Json {
        Json::Num(self.as_secs())
    }
}

impl ToJson for Code {
    fn to_json(&self) -> Json {
        Json::from(self.label())
    }
}

impl ToJson for TechPoint {
    fn to_json(&self) -> Json {
        Json::from(self.label())
    }
}

impl ToJson for Level {
    fn to_json(&self) -> Json {
        Json::from(self.to_string())
    }
}

impl ToJson for FetchPolicy {
    fn to_json(&self) -> Json {
        Json::from(self.to_string())
    }
}

impl ToJson for PhysicalOp {
    fn to_json(&self) -> Json {
        Json::from(self.to_string())
    }
}

impl ToJson for TechnologyParams {
    fn to_json(&self) -> Json {
        let ops = Json::obj(PhysicalOp::ALL.map(|op| {
            (
                op.to_string(),
                Json::obj([
                    ("time_s", self.duration(op).to_json()),
                    ("failure_rate", Json::Num(self.failure_rate(op).value())),
                ]),
            )
        }));
        Json::obj([
            ("name", Json::from(self.name())),
            ("operations", ops),
            ("memory_time_s", self.memory_time().to_json()),
            ("trap_size_um", Json::Num(self.trap_size().value())),
            ("region_pitch_um", Json::Num(self.region_pitch().value())),
            ("cycle_time_s", self.cycle_time().to_json()),
        ])
    }
}

impl ToJson for EccMetrics {
    fn to_json(&self) -> Json {
        Json::obj([
            ("code", self.code().to_json()),
            ("level", self.level().to_json()),
            ("ec_time_s", self.ec_time().to_json()),
            (
                "transversal_gate_time_s",
                self.transversal_gate_time().to_json(),
            ),
            ("tile_area_mm2", Json::Num(self.tile_area().value())),
            ("data_qubits", self.data_qubits().to_json()),
            ("ancilla_qubits", self.ancilla_qubits().to_json()),
            ("tile_regions", self.tile_regions().to_json()),
        ])
    }
}

impl ToJson for Table3Data {
    fn to_json(&self) -> Json {
        let labels = ["7-L1", "7-L2", "9-L1", "9-L2"];
        Json::obj([
            ("labels", labels.as_slice().to_json()),
            (
                "latency_s",
                Json::Arr(
                    self.matrix
                        .iter()
                        .map(|row| row.as_slice().to_json())
                        .collect(),
                ),
            ),
        ])
    }
}

impl ToJson for CqlaConfig {
    fn to_json(&self) -> Json {
        Json::obj([
            ("code", self.code().to_json()),
            ("input_bits", self.input_bits().to_json()),
            ("compute_blocks", self.compute_blocks().to_json()),
            ("memory_qubits", self.memory_qubits().to_json()),
        ])
    }
}

impl ToJson for SpecializationResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("config", self.config.to_json()),
            ("area_reduction", Json::Num(self.area_reduction)),
            ("speedup", Json::Num(self.speedup)),
            ("utilization", Json::Num(self.utilization)),
            ("adder_time_s", self.adder_time.to_json()),
            ("gain_product", Json::Num(self.gain_product)),
        ])
    }
}

impl ToJson for HierarchyConfig {
    fn to_json(&self) -> Json {
        Json::obj([
            ("code", self.code.to_json()),
            ("input_bits", self.input_bits.to_json()),
            ("par_xfer", self.par_xfer.to_json()),
            ("blocks", self.blocks.to_json()),
            ("cache_factor", Json::Num(self.cache_factor)),
            ("cache_capacity", self.cache_capacity().to_json()),
        ])
    }
}

impl ToJson for HierarchyResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("config", self.config.to_json()),
            ("cache_hit_rate", Json::Num(self.cache_hit_rate)),
            ("fetches_per_addition", self.fetches_per_addition.to_json()),
            ("l1_adder_time_s", self.l1_adder_time.to_json()),
            ("l1_compute_time_s", self.l1_compute_time.to_json()),
            ("l1_transfer_time_s", self.l1_transfer_time.to_json()),
            ("l2_adder_time_s", self.l2_adder_time.to_json()),
            ("l1_speedup", Json::Num(self.l1_speedup)),
            ("l2_speedup", Json::Num(self.l2_speedup)),
            (
                "adder_speedup_interleave",
                Json::Num(self.adder_speedup_interleave),
            ),
            (
                "adder_speedup_budgeted",
                Json::Num(self.adder_speedup_budgeted),
            ),
            (
                "adder_speedup_balanced",
                Json::Num(self.adder_speedup_balanced),
            ),
            ("area_reduction", Json::Num(self.area_reduction)),
            (
                "gain_product_conservative",
                Json::Num(self.gain_product_conservative),
            ),
            (
                "gain_product_optimistic",
                Json::Num(self.gain_product_optimistic),
            ),
        ])
    }
}

impl ToJson for Table4Row {
    fn to_json(&self) -> Json {
        Json::obj([
            ("input_bits", self.input_bits.to_json()),
            ("blocks", self.blocks.to_json()),
            ("steane", self.steane.to_json()),
            ("bacon_shor", self.bacon_shor.to_json()),
        ])
    }
}

impl ToJson for Table5Row {
    fn to_json(&self) -> Json {
        Json::obj([
            ("par_xfer", self.par_xfer.to_json()),
            ("input_bits", self.input_bits.to_json()),
            ("code", self.code.to_json()),
            ("result", self.result.to_json()),
        ])
    }
}

impl ToJson for Fig2Data {
    fn to_json(&self) -> Json {
        Json::obj([
            ("unlimited_profile", self.unlimited_profile.to_json()),
            ("capped_profile", self.capped_profile.to_json()),
            ("unlimited_makespan", self.unlimited_makespan.to_json()),
            ("capped_makespan", self.capped_makespan.to_json()),
            ("relative_stretch", Json::Num(self.relative_stretch())),
        ])
    }
}

impl ToJson for Fig6aRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("adder_bits", self.adder_bits.to_json()),
            ("blocks", self.blocks.to_json()),
            ("utilization", Json::Num(self.utilization)),
        ])
    }
}

impl ToJson for BandwidthSample {
    fn to_json(&self) -> Json {
        Json::obj([
            ("blocks", self.blocks.to_json()),
            ("required_draper", Json::Num(self.required_draper)),
            ("required_worst", Json::Num(self.required_worst)),
            ("available", Json::Num(self.available)),
        ])
    }
}

impl ToJson for Fig6bData {
    fn to_json(&self) -> Json {
        let series = Json::Arr(
            self.samples
                .iter()
                .map(|(code, samples)| {
                    Json::obj([("code", code.to_json()), ("samples", samples.to_json())])
                })
                .collect(),
        );
        let crossovers = Json::Arr(
            self.crossovers
                .iter()
                .map(|(code, blocks)| {
                    Json::obj([
                        ("code", code.to_json()),
                        ("blocks_per_superblock", blocks.to_json()),
                    ])
                })
                .collect(),
        );
        Json::obj([("series", series), ("crossovers", crossovers)])
    }
}

impl ToJson for Fig7Row {
    fn to_json(&self) -> Json {
        Json::obj([
            ("adder_bits", self.adder_bits.to_json()),
            ("cache_factor", Json::Num(self.cache_factor)),
            ("policy", self.policy.to_json()),
            ("hit_rate", Json::Num(self.hit_rate)),
        ])
    }
}

impl ToJson for AppTimeRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("size", self.size.to_json()),
            ("computation_s", self.computation.to_json()),
            ("communication_s", self.communication.to_json()),
            ("comm_fraction", Json::Num(self.comm_fraction())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HierarchyStudy, SpecializationStudy};

    fn tech() -> TechnologyParams {
        TechnologyParams::projected()
    }

    #[test]
    fn ecc_metrics_serialize_with_stable_keys() {
        let m = EccMetrics::compute(Code::Steane713, Level::TWO, &tech());
        let j = m.to_json();
        assert_eq!(j.get("code").unwrap().as_str(), Some("[[7,1,3]]"));
        assert_eq!(j.get("level").unwrap().as_str(), Some("L2"));
        assert!(j.get("ec_time_s").unwrap().as_f64().unwrap() > 0.1);
        // Output parses back.
        assert!(crate::json::parse(&j.to_pretty()).is_ok());
    }

    #[test]
    fn specialization_result_round_trips_through_the_parser() {
        let r = SpecializationStudy::new(&tech()).evaluate_ctx(
            CqlaConfig::new(Code::BaconShor913, 128, 16),
            &crate::EvalCtx::new(),
        );
        let text = r.to_json().to_compact();
        let parsed = crate::json::parse(&text).unwrap();
        assert_eq!(
            parsed.get("gain_product").unwrap().as_f64(),
            Some(r.gain_product)
        );
        assert_eq!(
            parsed
                .get("config")
                .unwrap()
                .get("input_bits")
                .unwrap()
                .as_f64(),
            Some(128.0)
        );
    }

    #[test]
    fn hierarchy_result_includes_every_table5_column() {
        let r = HierarchyStudy::new(&tech()).evaluate_ctx(
            HierarchyConfig::new(Code::Steane713, 64, 10, 9),
            &crate::EvalCtx::new(),
        );
        let j = r.to_json();
        for key in [
            "l1_speedup",
            "l2_speedup",
            "adder_speedup_interleave",
            "adder_speedup_budgeted",
            "adder_speedup_balanced",
            "area_reduction",
            "gain_product_conservative",
            "gain_product_optimistic",
        ] {
            assert!(j.get(key).is_some(), "missing {key}");
        }
    }

    #[test]
    fn technology_params_serialize_all_operations() {
        let j = tech().to_json();
        let ops = j.get("operations").unwrap();
        for op in PhysicalOp::ALL {
            assert!(ops.get(&op.to_string()).is_some(), "missing {op}");
        }
    }
}
