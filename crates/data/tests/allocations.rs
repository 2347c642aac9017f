//! LibSVM IO and row copies allocate per file, never per row. A counting
//! global allocator pins `read_libsvm`, `write_libsvm` and
//! `Dataset::subset` to a count that grows by fewer than 64 between a
//! 2 000-row and a 20 000-row input (the reader's arrays double, so a few
//! reallocations per array are expected).
//!
//! Everything runs inside one `#[test]`, so no other test of this binary
//! allocates while a window is being counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dimboost_data::libsvm::{read_libsvm, write_libsvm, LibsvmOptions};
use dimboost_data::synthetic::{generate, SparseGenConfig};

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the counter is
// a statistic that publishes no other data (`Relaxed`).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded contract (see the impl).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded contract (see the impl).
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded contract (see the impl).
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded contract (see the impl).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

/// Allocations of writing, reading back and halving a `rows`-row file.
fn allocations(rows: usize) -> [u64; 3] {
    let ds = generate(&SparseGenConfig::new(rows, 300, 30, 7));
    let (write, ()) = counted(|| write_libsvm(std::io::sink(), &ds).unwrap());
    let mut text = Vec::new();
    write_libsvm(&mut text, &ds).unwrap();
    let opts = LibsvmOptions {
        num_features: Some(300),
        binarize_labels: false,
        ..Default::default()
    };
    let (read, back) = counted(|| read_libsvm(text.as_slice(), opts).unwrap());
    assert_eq!(back, ds);
    let half: Vec<usize> = (0..rows).step_by(2).collect();
    let (subset, _) = counted(|| ds.subset(&half));
    [write, read, subset]
}

#[test]
fn libsvm_io_and_subset_allocate_per_file_not_per_row() {
    let small = allocations(2_000);
    let large = allocations(20_000);
    for (what, (s, l)) in ["write", "read", "subset"]
        .iter()
        .zip(small.into_iter().zip(large))
    {
        assert!(
            l < s + 64,
            "{what}: {s} allocations for 2 000 rows, {l} for 20 000"
        );
    }
}
