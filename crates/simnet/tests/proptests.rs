//! Property-based tests: all four aggregation strategies compute the same
//! sum on arbitrary inputs, and their cost formulas respect the paper's
//! ordering claims.

use dimboost_simnet::collectives::{
    allreduce_binomial, partition_ranges, ps_batch_exchange, reduce_scatter_halving, reduce_to_one,
};
use dimboost_simnet::trace::{comm_totals, validate_events};
use dimboost_simnet::{CommLedger, CostModel, Phase, SimTime, TraceBus};
use proptest::collection::vec;
use proptest::prelude::*;

fn arb_buffers() -> impl Strategy<Value = Vec<Vec<f32>>> {
    (1usize..10, 1usize..80).prop_flat_map(|(w, len)| vec(vec(-100.0f32..100.0, len..=len), w..=w))
}

const WORKERS: usize = 3;
const SERVERS: usize = 2;

/// One abstract operation on a [`TraceBus`], the full instrumentation
/// surface the trainer exercises.
#[derive(Debug, Clone)]
enum BusOp {
    /// `(worker origin, phase index, bytes, packages, sim seconds)`
    Request(Option<u32>, usize, u64, u64, f64),
    /// `(phase index, sim seconds)` — a barrier charge.
    Charge(usize, f64),
    /// `(worker, phase index, wall seconds)` — a compute slice.
    Compute(u32, usize, f64),
}

fn arb_bus_ops() -> impl Strategy<Value = Vec<BusOp>> {
    // `(kind, origin, phase, bytes, packages, secs)` flattened into one
    // tuple (the shim has no `prop_oneof`): `origin` 0 means "no worker".
    let op = (
        0usize..3,
        0usize..WORKERS + 1,
        0usize..Phase::COUNT,
        0u64..1 << 20,
        1u64..16,
        0.0f64..0.05,
    )
        .prop_map(|(kind, origin, p, bytes, packages, secs)| match kind {
            0 => BusOp::Request(
                origin.checked_sub(1).map(|w| w as u32),
                p,
                bytes,
                packages,
                secs,
            ),
            1 => BusOp::Charge(p, secs),
            _ => BusOp::Compute((origin % WORKERS) as u32, p, secs),
        });
    vec(op, 0..60)
}

/// Applies `ops` to the bus and (optionally) mirrors the ledger-visible
/// subset into a [`CommLedger`] the way `StatsRecorder` would.
fn apply_ops(bus: &TraceBus, ops: &[BusOp], mut mirror: Option<&mut CommLedger>) {
    for op in ops {
        match *op {
            BusOp::Request(worker, p, bytes, packages, secs) => {
                let phase = Phase::ALL[p];
                bus.set_worker(worker);
                bus.on_request(phase, "op", bytes, packages, SimTime(secs));
                bus.set_worker(None);
                if let Some(ledger) = mirror.as_deref_mut() {
                    ledger.record(phase, bytes, packages, SimTime(secs));
                }
            }
            BusOp::Charge(p, secs) => {
                let phase = Phase::ALL[p];
                bus.on_charge(phase, SimTime(secs));
                if let Some(ledger) = mirror.as_deref_mut() {
                    ledger.record(phase, 0, 0, SimTime(secs));
                }
            }
            BusOp::Compute(w, p, secs) => bus.on_compute(w, Phase::ALL[p], secs),
        }
    }
}

proptest! {
    /// Data-path equivalence across all strategies.
    #[test]
    fn strategies_compute_identical_sums(buffers in arb_buffers(), servers in 1usize..6) {
        let m = CostModel::FREE;
        let len = buffers[0].len();
        let mut expected = vec![0.0f64; len];
        for b in &buffers {
            for (e, &v) in expected.iter_mut().zip(b) {
                *e += v as f64;
            }
        }
        let close = |got: &[f32]| -> bool {
            got.iter().zip(&expected).all(|(g, e)| (*g as f64 - e).abs() < 1e-2)
        };
        let (r, _) = reduce_to_one(&buffers, 0, &m);
        prop_assert!(close(&r));
        let (a, _) = allreduce_binomial(&buffers, &m);
        prop_assert!(close(&a));
        let (s, _) = reduce_scatter_halving(&buffers, &m);
        prop_assert!(close(&s.assemble()));
        let (p, _) = ps_batch_exchange(&buffers, servers, &m);
        prop_assert!(close(&p.assemble()));
    }

    /// Scatter results always partition the index space exactly.
    #[test]
    fn scatter_partitions_indices(buffers in arb_buffers()) {
        let (s, _) = reduce_scatter_halving(&buffers, &CostModel::FREE);
        let len = buffers[0].len();
        let mut seen = vec![0u8; len];
        for seg in &s.segments {
            prop_assert_eq!(seg.data.len(), seg.range.len());
            for i in seg.range.clone() {
                seen[i] += 1;
            }
        }
        prop_assert!(seen.iter().all(|&c| c == 1));
    }

    /// partition_ranges is an exact, near-equal cover.
    #[test]
    fn partition_ranges_properties(len in 0usize..1000, parts in 1usize..20) {
        let ranges = partition_ranges(len, parts);
        prop_assert_eq!(ranges.len(), parts);
        prop_assert_eq!(ranges.iter().map(|r| r.len()).sum::<usize>(), len);
        let mut pos = 0;
        for r in &ranges {
            prop_assert_eq!(r.start, pos);
            pos = r.end;
        }
        let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        prop_assert!(max - min <= 1);
    }

    /// Cost-model ordering for large messages: PS exchange never loses to
    /// all-to-one reduce or binomial allreduce once the bandwidth term
    /// dominates latency.
    #[test]
    fn large_message_ordering(w in 2usize..64, h_mb in 8usize..128) {
        let m = CostModel::GIGABIT_LAN;
        let h = h_mb << 20;
        let dim = m.t_ps_exchange(h, w).seconds();
        let mllib = m.t_reduce_to_one(h, w).seconds();
        let xgb = m.t_allreduce_binomial(h, w).seconds();
        prop_assert!(dim <= mllib + 1e-9);
        prop_assert!(dim <= xgb + 1e-9);
    }

    /// Any sequence of bus operations yields a well-formed trace whose
    /// communication events sum — per phase, bit-exactly — to the ledger a
    /// direct mirror of the same sequence accumulates. This is the structural
    /// invariant behind `StatsRecorder`'s single instrumentation funnel.
    #[test]
    fn trace_events_well_formed_and_sum_to_ledger(ops in arb_bus_ops()) {
        let bus = TraceBus::new(WORKERS, SERVERS, CostModel::GIGABIT_LAN, true);
        let mut mirror = CommLedger::default();
        apply_ops(&bus, &ops, Some(&mut mirror));
        let trace = bus.finish();
        prop_assert!(trace.validate().is_ok(), "{:?}", trace.validate());
        prop_assert!(validate_events(&trace.events).is_ok());
        prop_assert_eq!(comm_totals(&trace.events), mirror);
    }

    /// Replaying the same operation sequence produces a byte-identical
    /// canonical trace: the export depends only on simulated-clock state.
    #[test]
    fn canonical_trace_deterministic(ops in arb_bus_ops()) {
        let render = || {
            let bus = TraceBus::new(WORKERS, SERVERS, CostModel::GIGABIT_LAN, true);
            apply_ops(&bus, &ops, None);
            bus.finish().canonical_chrome_json()
        };
        prop_assert_eq!(render(), render());
    }

    /// The recursive-halving ReduceScatter charges exactly Table 1's closed
    /// form, `(w−1)/w·h·β + (α + h·γ)·⌈log₂ w⌉`, doubled when `w` is not a
    /// power of two — for arbitrary worker counts, buffer lengths, and cost
    /// models. The expected value is recomputed here from first principles
    /// (same expression, independent code path), so any drift between the
    /// collective's accounting and the documented formula fails the test.
    #[test]
    fn reduce_scatter_charges_closed_form(
        w in 1usize..33,
        len in 1usize..200,
        alpha in 0.0f64..1e-2,
        beta in 0.0f64..1e-7,
        gamma in 0.0f64..1e-8,
    ) {
        let m = CostModel { alpha, beta, gamma };
        let buffers = vec![vec![1.0f32; len]; w];
        let (_, stats) = reduce_scatter_halving(&buffers, &m);
        if w == 1 {
            // Degenerate case: nothing moves, nothing is charged.
            prop_assert_eq!(stats.sim_time.seconds(), 0.0);
            prop_assert_eq!(stats.bytes, 0);
        } else {
            let h = (len * 4) as f64;
            let w_f = w as f64;
            let steps = w_f.log2().ceil();
            let base = (w_f - 1.0) / w_f * h * beta + (alpha + h * gamma) * steps;
            let expected = if w.is_power_of_two() { base } else { 2.0 * base };
            // Bit-equal, not approximate: both sides evaluate the identical
            // sequence of f64 operations.
            prop_assert_eq!(stats.sim_time.seconds(), expected, "w={} len={}", w, len);
        }
    }

    /// The p-server generalization is monotone: more servers never slow the
    /// exchange, and p = w matches the co-located closed form (Table 4's
    /// mechanism).
    #[test]
    fn ps_exchange_monotone_in_servers(w in 2usize..64, h_mb in 1usize..64, p in 1usize..64) {
        let m = CostModel::GIGABIT_LAN;
        let h = h_mb << 20;
        let p = p.min(w);
        let t_p = m.t_ps_exchange_p(h, w, p).seconds();
        if p > 1 {
            let t_fewer = m.t_ps_exchange_p(h, w, p - 1).seconds();
            prop_assert!(t_p <= t_fewer + 1e-9, "p={} {} vs p-1 {}", p, t_p, t_fewer);
        }
        let t_full = m.t_ps_exchange_p(h, w, w).seconds();
        prop_assert!((t_full - m.t_ps_exchange(h, w).seconds()).abs() < 1e-12);
        prop_assert!(t_p + 1e-9 >= t_full);
    }
}

use dimboost_simnet::fault::{Fate, FaultPlan};

fn arb_fault_plan() -> impl Strategy<Value = FaultPlan> {
    (any::<u64>(), 0.0f64..0.4, 0.0f64..0.3, 0.0f64..0.3).prop_map(
        |(seed, drop_p, ack_drop_p, dup_p)| FaultPlan {
            seed,
            drop_p,
            ack_drop_p,
            dup_p,
            ..FaultPlan::default()
        },
    )
}

proptest! {
    /// Fault-plan determinism: the same seed yields the identical fate
    /// sequence regardless of query order, a clone replays it exactly, and
    /// any seed change produces some different schedule over enough
    /// coordinates. Backoff delays are equally pure in their coordinates.
    #[test]
    fn fault_plan_is_deterministic(plan in arb_fault_plan(), workers in 1u32..5, seqs in 1u64..64) {
        let clone = plan.clone();
        let mut coords = Vec::new();
        for w in 0..workers {
            for s in 0..seqs {
                for a in 0..4u32 {
                    coords.push((w, s, a));
                }
            }
        }
        let forward: Vec<Fate> = coords.iter().map(|&(w, s, a)| plan.fate(w, s, a)).collect();
        let mut backward: Vec<Fate> =
            coords.iter().rev().map(|&(w, s, a)| clone.fate(w, s, a)).collect();
        backward.reverse();
        prop_assert_eq!(&forward, &backward);
        for (i, &(w, s, a)) in coords.iter().enumerate() {
            prop_assert_eq!(forward[i], plan.fate(w, s, a));
            let b0 = plan.backoff_secs(w, s, a);
            prop_assert!(b0 == clone.backoff_secs(w, s, a));
        }
    }

    /// The documented backoff bound: the cap applies *after* jitter, so a
    /// jittered delay never exceeds `backoff_max_secs`. More precisely,
    /// with `capped = min(base · 2^attempt, max)` the delay lies in
    /// `[capped / 2, capped]` — pinned here over arbitrary
    /// `(seed, worker, seq, attempt)` coordinates, along with purity in
    /// those coordinates.
    #[test]
    fn backoff_never_exceeds_cap(
        seed in any::<u64>(),
        worker in 0u32..64,
        seq in any::<u64>(),
        attempt in 0u32..64,
        base_scale in 1u32..1000,
        max_scale in 1u32..1000,
    ) {
        let plan = FaultPlan {
            seed,
            backoff_base_secs: base_scale as f64 * 1e-4,
            backoff_max_secs: max_scale as f64 * 1e-3,
            ..FaultPlan::default()
        };
        let delay = plan.backoff_secs(worker, seq, attempt);
        let capped = (plan.backoff_base_secs * 2f64.powi(attempt.min(48) as i32))
            .min(plan.backoff_max_secs);
        // `<=`, not `<`: the jitter factor `0.5 + 0.5·U[0,1)` can round up
        // to exactly 1.0 in the top ulp of U.
        prop_assert!(delay <= capped, "delay {delay} > capped exponential {capped}");
        prop_assert!(delay >= capped / 2.0, "delay {delay} below jitter floor {}", capped / 2.0);
        prop_assert!(delay <= plan.backoff_max_secs, "delay {delay} exceeds the cap");
        // Pure: re-asking with identical coordinates replays the value.
        prop_assert!(delay == plan.clone().backoff_secs(worker, seq, attempt));
    }

    /// Fate probabilities partition correctly: with all probabilities zero
    /// every message delivers; with drop_p = 1 every attempt drops.
    #[test]
    fn fate_extremes(seed in any::<u64>(), w in 0u32..8, s in 0u64..256) {
        let clean = FaultPlan { seed, ..FaultPlan::default() };
        prop_assert_eq!(clean.fate(w, s, 0), Fate::Deliver);
        prop_assert!(!clean.perturbs_messages());
        let lossy = FaultPlan { seed, drop_p: 1.0, ..FaultPlan::default() };
        prop_assert_eq!(lossy.fate(w, s, 0), Fate::DropRequest);
    }
}
