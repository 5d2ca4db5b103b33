//! The grid grammar counts integer ranges before it expands them: a
//! spec past the point cap is rejected without building its values.
//! This binary counts the bytes its own thread allocates, so it holds
//! one test and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cqla_core::experiments::{find, grid::Grid};

/// The system allocator, tallying each thread's requested bytes.
struct Counting;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

fn tally(bytes: usize) {
    ALLOCATED.with(|a| a.set(a.get() + bytes));
}

// SAFETY: every call forwards to `System` unchanged; the tally is a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn ranges_past_the_point_cap_are_rejected_unexpanded() {
    let specs = find("machine").expect("registry has `machine`").specs();
    let spec = "xfer=1..=1048576,1..=1048576,1..=1048576,1..=1048576";
    let before = ALLOCATED.with(Cell::get);
    let err = Grid::parse("machine", &specs, spec).unwrap_err();
    let allocated = ALLOCATED.with(Cell::get) - before;
    assert_eq!(
        err.message,
        "grid expands to 4194304 points; the cap is 10000"
    );
    assert_eq!(err.span, (0, spec.len()));
    // Expanding the four ranges would take 2^22 strings.
    assert!(allocated < 64 << 10, "{allocated} bytes allocated");
}
