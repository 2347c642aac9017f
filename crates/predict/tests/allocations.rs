//! Scoring allocates per batch, never per row, and compiling allocates per
//! node, never per feature id. A counting global allocator pins the two hot
//! paths — `score_raw` over a whole dataset and a `run_serve_sim` run — to
//! O(batches) heap allocations on both block walks, and `compile` of a
//! model file testing feature `0xFFFF_FFF0` to a few hundred bytes.
//!
//! Everything runs inside one `#[test]`, so no other test of this binary
//! allocates while a window is being counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dimboost_core::model_io::{model_from_bytes, model_to_bytes};
use dimboost_core::{GbdtModel, LossKind, Tree};
use dimboost_data::synthetic::{generate, SparseGenConfig};
use dimboost_data::Dataset;
use dimboost_predict::{score_raw, CompiledModel, EngineConfig};
use dimboost_serving::{poisson_arrivals, run_serve_sim, ServeSimConfig, TenantSpec};

/// The system allocator, counting every allocation and reallocation and
/// the bytes each one asks for.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the counter is
// a statistic that publishes no other data (`Relaxed`).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded contract (see the impl).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded contract (see the impl).
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
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

/// Bytes `f` asks the allocator for, and its result.
fn counted_bytes<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = BYTES.load(Ordering::Relaxed);
    let out = f();
    (BYTES.load(Ordering::Relaxed) - before, out)
}

/// `trees` complete trees of `depth` levels over `features` features.
fn full_model(trees: usize, depth: usize, features: usize) -> CompiledModel {
    let mut tree = Tree::new(depth);
    let internal = (1u32 << depth) - 1;
    for id in 0..internal {
        tree.set_internal(id, id * 13 % features as u32, 0.3);
    }
    for id in internal..2 * internal + 1 {
        tree.set_leaf(id, id as f32 * 0.01);
    }
    let model = GbdtModel::new(vec![tree; trees], 0.1, LossKind::Logistic, features);
    CompiledModel::compile(&model)
}

/// Whole-dataset `score_raw` and a 2k-request serve-sim on `data`, with the
/// allocation counts of each.
fn check(model: &CompiledModel, data: &Dataset, walk: &str) {
    for threads in [1, 2] {
        let cfg = EngineConfig {
            threads,
            batch_size: 256,
        };
        score_raw(model, data, &cfg); // the pool and its threads start here
        let (allocs, _) = counted(|| score_raw(model, data, &cfg));
        let batches = data.num_rows().div_ceil(cfg.batch_size) as u64;
        // Per call: the output, the batch statistics, one scratch per
        // stripe; per batch, on the striped path, its private buffer.
        assert!(
            allocs <= batches + 32,
            "{walk} t={threads}: {allocs} allocations for {batches} batches of {} rows",
            data.num_rows()
        );
    }

    let requests = 2_000;
    let tenants = [TenantSpec {
        name: "t0".to_string(),
        model: model.clone(),
    }];
    // Arrivals faster than service, so batches fill to `max_batch`.
    let arrivals = poisson_arrivals(5, requests, 400_000.0, 1, data.num_rows());
    let config = ServeSimConfig {
        queue_capacity: requests,
        ..ServeSimConfig::default()
    };
    let (allocs, result) = counted(|| run_serve_sim(&tenants, &[], data, &arrivals, &config));
    let batches = result.report.batches;
    assert_eq!(result.report.served, requests as u64);
    assert!(
        batches * 4 < requests as u64,
        "{batches} batches: too few rows each"
    );
    // Per batch: the dispatched batch. Per run: the registry's metrics,
    // the report, and the logarithmic growth of the trace, the queue and
    // the records.
    assert!(
        allocs <= batches + 128,
        "{walk}: serve-sim made {allocs} allocations for {batches} batches of {requests} requests"
    );
}

#[test]
fn scoring_allocates_per_batch_and_compiling_per_node() {
    // `serve`-shaped (16 trees × depth 6, z = 40): the slot walk.
    let serve = generate(&SparseGenConfig::new(10_000, 600, 40, 3));
    check(&full_model(16, 6, 600), &serve, "slots");
    // `highdim`-shaped (2 trees × depth 4, z = 100): the lookup walk.
    let highdim = generate(&SparseGenConfig::new(10_000, 10_000, 100, 4));
    check(&full_model(2, 4, 10_000), &highdim, "lookup");

    // A model file with `num_features = 0` may test any `u32` feature. Its
    // compiled form is three nodes, a tree entry and no slot map.
    let mut stump = Tree::new(1);
    stump.set_internal(0, 0xFFFF_FFF0, 0.5);
    stump.set_leaf(1, -1.0);
    stump.set_leaf(2, 2.0);
    let bytes = model_to_bytes(&GbdtModel::new(vec![stump], 0.5, LossKind::Square, 0));
    let model = model_from_bytes(bytes).unwrap();
    let (bytes, compiled) = counted_bytes(|| CompiledModel::compile(&model));
    assert_eq!(compiled.memory_bytes(), 3 * 16 + 8);
    assert!(bytes < 1024, "compile asked for {bytes} bytes");
}
