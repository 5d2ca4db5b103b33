//! The `verify` artifact: the built-in self-checks behind `cqla verify`.

use cqla_stabilizer::{CssCode, LookupDecoder, PauliOp, PauliString};
use cqla_workloads::DraperAdder;

use crate::eval::EvalCtx;
use crate::json::{Json, ToJson};

use super::api::{Experiment, ExperimentOutput};

/// Runs the built-in self-checks: adder correctness and weight-1 error
/// correction for every CSS code. The only registry entry whose output
/// can report `passed: false`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verify;

impl Verify {
    /// The named checks with their verdicts, in print order.
    #[must_use]
    pub fn checks(&self) -> Vec<(String, bool)> {
        let mut checks = Vec::new();
        // Adder correctness spot-check.
        let adder = DraperAdder::new(32);
        let ok_adder = adder.compute_checked(0xDEAD_BEEF, 0x1234_5678) == 0xDEAD_BEEF + 0x1234_5678;
        checks.push(("draper adder 32-bit".to_owned(), ok_adder));
        // Code distance spot-check: every weight-1 error decodes to a
        // logically trivial residue. Weight-1 syndromes decode the same
        // from a weight-1 table as from the full one.
        for code in [CssCode::steane(), CssCode::shor9(), CssCode::bacon_shor()] {
            let decoder = LookupDecoder::up_to_weight(&code, 1);
            let mut ok = true;
            for q in 0..code.num_qubits() {
                for op in PauliOp::ERRORS {
                    let e = PauliString::single(code.num_qubits(), q, op);
                    let fix = decoder.decode(&code.syndrome(&e));
                    ok &= fix.is_some_and(|f| code.is_logically_trivial(&e.mul(&f)));
                }
            }
            checks.push((format!("{code}: weight-1 correction"), ok));
        }
        checks
    }
}

impl Experiment for Verify {
    fn id(&self) -> &'static str {
        "verify"
    }

    fn title(&self) -> &'static str {
        "Verify: built-in self-checks"
    }

    fn run_ctx(&self, _ctx: &EvalCtx) -> ExperimentOutput {
        let checks = self.checks();
        let text = checks
            .iter()
            .map(|(name, ok)| format!("{name}: {}", if *ok { "ok" } else { "FAIL" }))
            .collect::<Vec<_>>()
            .join("\n");
        let data = Json::obj([(
            "checks",
            Json::Arr(
                checks
                    .iter()
                    .map(|(name, ok)| {
                        Json::obj([("name", Json::from(name.as_str())), ("ok", ok.to_json())])
                    })
                    .collect(),
            ),
        )]);
        ExperimentOutput {
            text,
            data,
            passed: checks.iter().all(|&(_, ok)| ok),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verify_passes_and_names_every_check() {
        let out = Verify.run();
        assert!(out.passed);
        assert!(out.text.contains("draper adder 32-bit: ok"));
        assert!(!out.text.contains("FAIL"));
        let checks = out.data.get("checks").unwrap().as_arr().unwrap();
        assert_eq!(checks.len(), 4);
    }
}
