//! The paper's headline claims, as executable assertions against this
//! reproduction. Each test cites the claim it checks.

use cqla_repro::core::experiments::{Fig2, Fig6b, Fig7, Table4, Table5};
use cqla_repro::core::{AreaModel, EvalCtx, FetchPolicy};
use cqla_repro::ecc::fidelity::{AppSize, FidelityBudget};
use cqla_repro::ecc::{Code, EccMetrics, Level, TransferNetwork};
use cqla_repro::iontrap::TechnologyParams;
use cqla_repro::workloads::ShorInstance;

fn tech() -> TechnologyParams {
    TechnologyParams::projected()
}

#[test]
fn claim_13x_density_improvement() {
    // Abstract: "up to a factor of thirteen savings in area due to
    // specialization."
    let area = AreaModel::new(&tech());
    let best = area.area_reduction(Code::BaconShor913, 6 * 1024, 100);
    assert!((11.0..16.0).contains(&best), "got {best:.1}x");
}

#[test]
fn claim_9x_area_reduction_for_steane() {
    // §5.1: "reduces area required by a factor of 9 with minimal
    // performance reduction for the Steane ECC."
    let area = AreaModel::new(&tech());
    let steane = area.area_reduction(Code::Steane713, 6 * 1024, 100);
    assert!((7.5..11.0).contains(&steane), "got {steane:.1}x");
}

#[test]
fn claim_memory_hierarchy_speedup_band() {
    // Abstract: "we can increase time performance by a factor of eight."
    // Our policy bracket must contain that figure for the Bacon-Shor
    // configurations (conservative below, balanced above).
    let rows = Table5::default().rows_ctx(&EvalCtx::new());
    let mut bracket_contains_8 = false;
    for r in rows.iter().filter(|r| r.code == Code::BaconShor913) {
        if r.result.adder_speedup_interleave <= 8.0 && 8.0 <= r.result.adder_speedup_balanced {
            bracket_contains_8 = true;
        }
    }
    assert!(
        bracket_contains_8,
        "no Bacon-Shor row brackets the paper's 8x"
    );
}

#[test]
fn claim_level2_ec_is_two_orders_slower() {
    // §4.1: level-2 EC "is two orders of magnitude more than the time to
    // error correct at level 1."
    for code in Code::ALL {
        let l1 = EccMetrics::compute(code, Level::ONE, &tech()).ec_time();
        let l2 = EccMetrics::compute(code, Level::TWO, &tech()).ec_time();
        let ratio = l2 / l1;
        assert!((80.0..=120.0).contains(&ratio), "{code}: {ratio:.0}");
    }
}

#[test]
fn claim_bacon_shor_smaller_and_faster_despite_more_qubits() {
    // §1: "The [[9,1,3]] code, though larger than the [[7,1,3]] code …
    // requires far fewer resources for error-correction, thus reducing the
    // overall area and increasing the speed."
    let st = EccMetrics::compute(Code::Steane713, Level::TWO, &tech());
    let bs = EccMetrics::compute(Code::BaconShor913, Level::TWO, &tech());
    assert!(bs.data_qubits() > st.data_qubits());
    assert!(bs.ec_time() < st.ec_time());
    assert!(bs.tile_area() < st.tile_area());
}

#[test]
fn claim_fifteen_blocks_capture_most_adder_parallelism() {
    // Fig 2: "providing unlimited computational resources for a 64-bit
    // adder does not offer a performance benefit over limiting the
    // computation to 15 locations." Our more-parallel construction loses
    // under 2x at 15 blocks and saturates by ~2 dozen.
    let ctx = EvalCtx::new();
    let at15 = Fig2 { bits: 64, cap: 15 }.data_ctx(&ctx);
    assert!(at15.relative_stretch() < 2.0, "{}", at15.relative_stretch());
    let at24 = Fig2 { bits: 64, cap: 24 }.data_ctx(&ctx);
    assert!(at24.relative_stretch() < 1.3, "{}", at24.relative_stretch());
}

#[test]
fn claim_superblock_crossover_a_few_dozen_blocks() {
    // §5.1: "the cross-over point is 36 compute blocks per superblock."
    let data = Fig6b::default().data();
    for (code, crossover) in &data.crossovers {
        assert!(
            (15..=60).contains(crossover),
            "{code}: crossover {crossover} outside the few-dozen band"
        );
    }
}

#[test]
fn claim_optimized_fetch_beats_cache_size() {
    // §5.2: "the increase in hit-rate is more pronounced due to the
    // optimized fetch than increasing cache size."
    let rows = Fig7.rows_ctx(&EvalCtx::new());
    for bits in [64u32, 256, 1024] {
        let rate = |factor: f64, policy: FetchPolicy| {
            rows.iter()
                .find(|r| {
                    r.adder_bits == bits
                        && (r.cache_factor - factor).abs() < 1e-9
                        && r.policy == policy
                })
                .unwrap()
                .hit_rate
        };
        // Optimized at the smallest cache beats in-order at the largest.
        assert!(
            rate(1.0, FetchPolicy::OptimizedLookahead) > rate(2.0, FetchPolicy::InOrder),
            "bits {bits}"
        );
    }
}

#[test]
fn claim_level1_share_is_a_few_percent_for_steane() {
    // §5.2: "it can spend only 2% of the total execution time in level 1."
    let budget = FidelityBudget::new(Code::Steane713, &tech());
    let (k, q) = ShorInstance::new(1024).app_size();
    let share = budget.max_level1_share(AppSize::new(k, q));
    assert!((0.002..0.15).contains(&share), "share {share}");
}

#[test]
fn claim_transfer_asymmetry() {
    // Table 3: leaving level 2 (slow source-side ECs) costs about twice
    // entering it.
    let net = TransferNetwork::new(&tech());
    use cqla_repro::ecc::CodeLevel;
    for code in Code::ALL {
        let down = net.latency(
            CodeLevel::new(code, Level::TWO),
            CodeLevel::new(code, Level::ONE),
        );
        let up = net.latency(
            CodeLevel::new(code, Level::ONE),
            CodeLevel::new(code, Level::TWO),
        );
        let ratio = down / up;
        assert!((1.5..3.0).contains(&ratio), "{code}: {ratio:.2}");
    }
}

#[test]
fn claim_gain_products_always_beat_qla() {
    // Table 4: every CQLA configuration's gain product exceeds the QLA's
    // 1.0 for both codes.
    let rows = Table4::default().rows_ctx(&EvalCtx::new());
    for r in &rows {
        assert!(r.steane.gain_product > 1.0, "{}-bit Steane", r.input_bits);
        assert!(
            r.bacon_shor.gain_product > r.steane.gain_product,
            "{}-bit: Bacon-Shor must dominate",
            r.input_bits
        );
    }
}
