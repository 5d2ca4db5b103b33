//! The allocation ledger of one `compile` run: the bytes a run asks the
//! allocator for, and the most it holds live at once, per lowered gate.
//! Fresh pages are what a one-shot `cqla compile` pays for, so these
//! bounds are the compile pipeline's memory contract. Two programs take
//! the two ways through the scheduler and the cache simulator:
//!
//! - 512 qubits at width 9: the ASAP schedule binds, so the rank order
//!   and the rank-ordered ready set run, and the register overflows the
//!   162-qubit cache, so the optimized fetch selector runs;
//! - 64 qubits at width 36: the ASAP exit and the one-pass count of a
//!   register that fits the 648-qubit cache.
//!
//! This binary counts the bytes its own thread allocates, so it holds
//! one test and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cqla_circuit::{asm, decompose_toffolis, DependencyDag, Gate};
use cqla_compile::{random::random_circuit, schedule_plan};
use cqla_core::experiments::find;
use cqla_core::{EvalCtx, BLOCK_DATA_QUBITS};

/// The system allocator, tallying each thread's requests.
struct Counting;

thread_local! {
    /// Allocation calls (`alloc` and `realloc`).
    static CALLS: Cell<usize> = const { Cell::new(0) };
    /// Bytes requested.
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
    /// Bytes live now, and the most live since the last reset. Frees of
    /// memory another thread allocated may take `LIVE` below a reset
    /// point, so it wraps.
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn grow(bytes: usize) {
    CALLS.with(|c| c.set(c.get() + 1));
    ALLOCATED.with(|a| a.set(a.get() + bytes));
    let live = LIVE.with(|l| {
        l.set(l.get().wrapping_add(bytes));
        l.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

fn shrink(bytes: usize) {
    LIVE.with(|l| l.set(l.get().wrapping_sub(bytes)));
}

// SAFETY: every call forwards to `System` unchanged; the tallies are
// const-initialized thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrink(layout.size());
        grow(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` allocated: `(calls, bytes requested, peak live bytes above
/// the live bytes at the start)`, and its result.
fn ledger<T>(f: impl FnOnce() -> T) -> ((usize, usize, usize), T) {
    let calls = CALLS.with(Cell::get);
    let allocated = ALLOCATED.with(Cell::get);
    let live = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(live));
    let out = f();
    let counts = (
        CALLS.with(Cell::get) - calls,
        ALLOCATED.with(Cell::get) - allocated,
        PEAK.with(Cell::get) - live,
    );
    (counts, out)
}

#[test]
fn one_compile_allocates_within_its_ledger() {
    // `(qubits, width, peak, allocated)`, bounds in bytes per lowered
    // gate, a few percent above the 70/97 and 59/60 measured. Before
    // the costs pass (no start times or occupancy series) and the DAG
    // sharing the lowered gates, they were 88/124 and 80/86; before
    // exact-size lowering, 32-bit DAG edges, radix ranks and in-place
    // cache operands, 122/200 and 108/156.
    let cases: [(u32, u32, usize, usize); 2] = [(512, 9, 73, 100), (64, 36, 61, 63)];
    for (qubits, width, peak_bound, allocated_bound) in cases {
        let program = random_circuit(qubits, 1 << 14, 5);
        let ((calls, bytes, _), lowered) = ledger(|| decompose_toffolis(&program));
        let case = format!(
            "{qubits} qubits at width {width}, {} lowered gates",
            lowered.len()
        );
        assert_eq!(
            (calls, bytes),
            (1, lowered.len() * std::mem::size_of::<Gate>()),
            "{case}: the lowering allocates its gates once"
        );
        // Each case takes the paths the module doc names: the wide
        // program binds its width and overflows the cache, the narrow
        // one does neither.
        let binds = schedule_plan(&DependencyDag::new(&lowered)).asap_peak() > width as usize;
        // `compile`'s default cache: 2 × width blocks × 9 data qubits.
        let evicts = u64::from(qubits) > 2 * u64::from(width) * BLOCK_DATA_QUBITS;
        assert_eq!((binds, evicts), (qubits == 512, qubits == 512), "{case}");

        let mut compile = find("compile").expect("registry has `compile`");
        compile.set("source", "inline-asm").expect("a valid source");
        compile
            .set("program", &asm::emit(&program))
            .expect("the program parses");
        compile
            .set("width", &width.to_string())
            .expect("a valid width");
        let ((_, allocated, peak), output) = ledger(|| compile.run_ctx(&EvalCtx::new()));
        assert!(output
            .text
            .contains(&format!("lowered           {} gates", lowered.len())));
        let per_gate = |bytes: usize| bytes as f64 / lowered.len() as f64;
        let (peak, allocated) = (per_gate(peak), per_gate(allocated));
        eprintln!("{case}: peak {peak:.1} B/gate, allocated {allocated:.1} B/gate");
        assert!(peak <= peak_bound as f64, "{case}: peak {peak:.1} B/gate");
        assert!(
            allocated <= allocated_bound as f64,
            "{case}: allocated {allocated:.1} B/gate"
        );
    }
}
