//! Allocation budget of the IR text layer, counted exactly.
//!
//! Alone in its test binary because it installs a counting global
//! allocator: parsing may allocate what the module has to own (a name per
//! named instruction, operand lists, boxed pointee types) and nothing per
//! token; printing streams into one buffer. The counts do not depend on the
//! host, so the bounds are tight.

use noelle::ir::parser::parse_module;
use noelle::ir::printer::print_module;
use noelle::workloads::scale_module;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a relaxed statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.load(Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Relaxed) - before)
}

#[test]
fn parse_and_print_stay_within_their_allocation_budget() {
    let text = print_module(&scale_module(256, 1));
    let (module, parse) = allocations(|| parse_module(&text).expect("parses"));
    let insts = module.total_insts();
    let (printed, print) = allocations(|| print_module(&module));
    assert_eq!(printed, text);
    eprintln!("{insts} instructions: parse {parse} allocations, print {print}");
    assert!(parse <= 2 * insts, "parse: {parse} allocations for {insts}");
    assert!(
        print * 10 <= insts,
        "print: {print} allocations for {insts}"
    );
}
