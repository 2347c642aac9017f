//! Stress tests for the workspace's only production `unsafe`: the
//! lifetime-erasing `transmute` in `WorkerPool::broadcast` and the workers'
//! calls through the pointer it erases. The erased borrow is sound only if
//! `run` never returns while a worker can still reach the caller's closure
//! or result slots, and only if one caller's job can never be run against
//! another caller's stack. These tests exercise exactly those windows:
//! concurrent callers on one pool, a panicking job with callers queued
//! behind it, and pools created and dropped in a row. (`cargo miri` would
//! check the same code under a UB detector; it is not part of this
//! toolchain.)

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use dimboost_core::pool::pool_constructions;
use dimboost_core::WorkerPool;

/// The tests in this file run one at a time, so the construction counter
/// moves only with the pools the running test creates.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn concurrent_callers_read_their_own_stack_buffers() {
    let _serial = serial();
    let pool = WorkerPool::new(4);
    let value = |caller: u64, call: u64, i: usize| caller << 32 | call << 16 | i as u64;
    std::thread::scope(|scope| {
        for caller in 0..4u64 {
            let pool = &pool;
            scope.spawn(move || {
                let mut buf = [0u64; 64];
                for call in 0..200u64 {
                    for (i, v) in buf.iter_mut().enumerate() {
                        *v = value(caller, call, i);
                    }
                    let sums: Vec<u64> =
                        pool.run(8, |stripe| buf[8 * stripe..8 * stripe + 8].iter().sum());
                    // The borrow ended when `run` returned: no worker may
                    // read the buffer again, so overwriting it is invisible.
                    buf.fill(u64::MAX);
                    let want: Vec<u64> = (0..8)
                        .map(|stripe| (0..8).map(|k| value(caller, call, 8 * stripe + k)).sum())
                        .collect();
                    assert_eq!(sums, want, "caller {caller}, call {call}");
                }
            });
        }
    });
}

#[test]
fn a_panicking_stripe_reaches_only_its_own_caller() {
    let _serial = serial();
    let pool = WorkerPool::new(4);
    // Stripe 0 of the panicking job and the two queued callers meet here, so
    // the callers issue their runs while that job holds the pool; the pause
    // before the panic only gives them time to block on it. Every assertion
    // holds whichever of them reaches the pool first.
    let running = Barrier::new(3);
    let (pool, running) = (&pool, &running);
    std::thread::scope(|scope| {
        let panicker = scope.spawn(move || {
            catch_unwind(AssertUnwindSafe(|| {
                pool.run(8, |stripe| {
                    if stripe == 0 {
                        running.wait();
                        std::thread::sleep(Duration::from_millis(50));
                        panic!("stripe 0 exploded");
                    }
                    stripe
                })
            }))
        });
        let queued: Vec<_> = (0..2usize)
            .map(|caller| {
                scope.spawn(move || {
                    running.wait();
                    pool.run(8, |stripe| stripe * 10 + caller)
                })
            })
            .collect();
        let payload = panicker
            .join()
            .expect("the panic is re-raised inside run, not on the thread")
            .expect_err("the panicking caller must get the panic");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"stripe 0 exploded"));
        for (caller, handle) in queued.into_iter().enumerate() {
            let got = handle
                .join()
                .expect("a queued caller must not see the panic");
            let want: Vec<usize> = (0..8).map(|stripe| stripe * 10 + caller).collect();
            assert_eq!(got, want, "queued caller {caller}");
        }
    });
    assert_eq!(pool.run(5, |stripe| stripe), vec![0, 1, 2, 3, 4]);
}

#[test]
fn fifty_private_pools_are_created_used_and_dropped() {
    let _serial = serial();
    let before = pool_constructions();
    let (done, finished) = mpsc::channel();
    let cycle = std::thread::spawn(move || {
        for i in 0..50usize {
            let pool = WorkerPool::new(4);
            let want: Vec<usize> = (0..8).map(|stripe| stripe + i).collect();
            assert_eq!(pool.run(8, |stripe| stripe + i), want, "pool {i}");
        }
        // Nothing to report if the receiver already gave up.
        let _ = done.send(());
    });
    if let Err(RecvTimeoutError::Timeout) = finished.recv_timeout(Duration::from_secs(60)) {
        panic!("creating, using and dropping 50 pools hung");
    }
    cycle
        .join()
        .expect("a private pool computed a wrong result");
    assert_eq!(pool_constructions(), before + 50);
}
