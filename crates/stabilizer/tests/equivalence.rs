//! Packed-vs-reference equivalence suite.
//!
//! Drives random Pauli algebra through both the production bit-packed
//! kernel ([`cqla_stabilizer::PauliString`]) and the one-bool-per-bit
//! reference implementation ([`reference::RefPauli`]), asserting
//! bit-for-bit agreement — components, phases and weights — on registers
//! up to 128 qubits (two words plus a partial tail). The same reference
//! is the oracle for [`cqla_stabilizer::CssCode::syndrome`]: syndrome bit
//! `i` is the anticommutation of the error with generator `i`.

mod reference;

use cqla_stabilizer::{errors_of_weight, CssCode, PauliOp, PauliString};
use proptest::prelude::*;
use reference::RefPauli;

const OPS: [PauliOp; 4] = [PauliOp::I, PauliOp::X, PauliOp::Y, PauliOp::Z];

/// Builds the same operator in both representations from an op-code list.
fn both(ops: &[u8], negate: bool) -> (PauliString, RefPauli) {
    let n = ops.len();
    let mut packed = PauliString::identity(n);
    let mut reference = RefPauli::identity(n);
    for (q, &code) in ops.iter().enumerate() {
        let op = OPS[usize::from(code) % 4];
        packed.set(q, op);
        reference.set(q, op);
    }
    if negate {
        packed = packed.negated();
        reference = reference.negated();
    }
    (packed, reference)
}

fn assert_pauli_eq(packed: &PauliString, reference: &RefPauli) {
    assert_eq!(&RefPauli::from_packed(packed), reference);
    assert_eq!(packed.phase_exponent(), reference.phase_exponent());
    assert_eq!(packed.weight(), reference.weight());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Triple products exercise odd intermediate phase exponents (±i).
    #[test]
    fn mul_matches_reference(
        ops in prop::collection::vec((0u8..4, 0u8..4, 0u8..4), 1..=128),
        negs in (any::<bool>(), any::<bool>(), any::<bool>()),
    ) {
        let a_ops: Vec<u8> = ops.iter().map(|t| t.0).collect();
        let b_ops: Vec<u8> = ops.iter().map(|t| t.1).collect();
        let c_ops: Vec<u8> = ops.iter().map(|t| t.2).collect();
        let (pa, ra) = both(&a_ops, negs.0);
        let (pb, rb) = both(&b_ops, negs.1);
        let (pc, rc) = both(&c_ops, negs.2);
        let packed = pa.mul(&pb).mul(&pc);
        let reference = ra.mul(&rb).mul(&rc);
        assert_pauli_eq(&packed, &reference);
    }

    #[test]
    fn commutation_matches_reference(
        ops in prop::collection::vec((0u8..4, 0u8..4), 1..=128),
    ) {
        let a_ops: Vec<u8> = ops.iter().map(|t| t.0).collect();
        let b_ops: Vec<u8> = ops.iter().map(|t| t.1).collect();
        let (pa, ra) = both(&a_ops, false);
        let (pb, rb) = both(&b_ops, false);
        assert_eq!(pa.anticommutes_with(&pb), ra.anticommutes_with(&rb));
    }

    #[test]
    fn weight_and_support_match_reference(
        ops in prop::collection::vec(0u8..4, 1..=128),
    ) {
        let (packed, reference) = both(&ops, false);
        assert_eq!(packed.weight(), reference.weight());
        let expected: Vec<usize> = ops
            .iter()
            .enumerate()
            .filter(|&(_, &code)| code % 4 != 0)
            .map(|(q, _)| q)
            .collect();
        assert_eq!(packed.support(), expected);
    }
}

/// The algebraic syndrome against the reference commutation: for every
/// code and every error of weight at most 2, bit `i` is set exactly when
/// the error anticommutes with generator `i` (X-type generators first).
#[test]
fn syndrome_bits_are_reference_anticommutations() {
    for code in [CssCode::steane(), CssCode::shor9(), CssCode::bacon_shor()] {
        let n = code.num_qubits();
        let generators: Vec<RefPauli> = code
            .generators()
            .iter()
            .map(RefPauli::from_packed)
            .collect();
        assert_eq!(generators.len(), code.num_generators(), "{code}");
        for error in (0..=2).flat_map(|weight| errors_of_weight(n, weight)) {
            let reference = RefPauli::from_packed(&error);
            let expected: Vec<bool> = generators
                .iter()
                .map(|g| reference.anticommutes_with(g))
                .collect();
            assert_eq!(
                code.syndrome(&error).bits(),
                &expected[..],
                "{code}: {error}"
            );
        }
    }
}
