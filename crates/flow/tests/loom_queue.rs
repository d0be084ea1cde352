//! Model-checking tests for [`newtop_flow::queue`] under `--cfg loom`.
//!
//! Compiled (and run) only via
//! `RUSTFLAGS="--cfg loom" cargo test -p newtop-flow --release`
//! — the `--full` mode of `scripts/check.sh`. Under that cfg the queue
//! swaps its std lock and condvar for the loom harness's wrappers, so
//! every acquisition is a potential preemption point and each
//! `loom::model` iteration explores a different interleaving.
//!
//! The three properties checked are the ones a bounded backpressure
//! queue can silently lose under an unlucky schedule:
//!
//! 1. **No lost wakeups** — a blocking `send` into a full queue must
//!    complete once the consumer drains, a blocked `recv` must see
//!    either a message or the disconnect, and a blocked `recv_timeout`
//!    must see a [`Waker`](newtop_flow::queue::Waker)'s wake; none may
//!    sleep forever.
//! 2. **Shed accounting** — every `try_send` outcome is either a
//!    delivered message or a counted shed; none vanish.
//! 3. **Depth bound** — the queue never holds more than `capacity`
//!    messages, no matter how sends and receives interleave.

#![cfg(loom)]

use std::time::Duration;

use newtop_flow::queue::{bounded, RecvTimeoutError, TrySendError};

/// Property 1a: backpressured producers always finish once the consumer
/// drains — a lost `not_full` wakeup would deadlock this test.
#[test]
fn loom_no_lost_wakeup_on_full_queue() {
    loom::model(|| {
        let (tx, rx) = bounded(1);
        let producer = loom::thread::spawn(move || {
            for i in 0..3u32 {
                tx.send(i).unwrap();
            }
        });
        let mut got = Vec::new();
        for _ in 0..3 {
            got.push(rx.recv().unwrap());
        }
        producer.join().unwrap();
        assert_eq!(got, vec![0, 1, 2]);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(1)),
            Err(RecvTimeoutError::Disconnected)
        );
    });
}

/// Property 1b: a receiver blocked on an empty queue observes the
/// disconnect when the last sender drops — a lost wakeup on the
/// sender-drop path would hang `recv` forever.
#[test]
fn loom_receiver_wakes_on_sender_drop() {
    loom::model(|| {
        let (tx, rx) = bounded::<u32>(2);
        let producer = loom::thread::spawn(move || {
            tx.send(7).unwrap();
            // tx drops here; the receiver must wake and see Err after
            // draining the one message.
        });
        assert_eq!(rx.recv(), Ok(7));
        assert!(rx.recv().is_err());
        producer.join().unwrap();
    });
}

/// Property 1c: a wake rung from another thread always ends an
/// unbounded `recv_timeout` — a lost wake would hang the receiver, the
/// way the runtime's event loop would miss a command.
#[test]
fn loom_waker_ends_an_unbounded_wait() {
    loom::model(|| {
        let (_tx, rx) = bounded::<u32>(1);
        let waker = rx.waker();
        let ringer = loom::thread::spawn(move || waker.wake());
        assert_eq!(rx.recv_timeout(Duration::MAX), Err(RecvTimeoutError::Woken));
        ringer.join().unwrap();
    });
}

/// Property 2: across two racing `try_send` producers, delivered
/// messages plus the shed counter account for every attempt.
#[test]
fn loom_shed_accounting_is_exact() {
    loom::model(|| {
        const PER_PRODUCER: u64 = 4;
        let (tx, rx) = bounded(2);
        let stats = rx.stats();
        let producers: Vec<_> = (0..2)
            .map(|_| {
                let tx = tx.clone();
                loom::thread::spawn(move || {
                    let mut delivered = 0u64;
                    for i in 0..PER_PRODUCER {
                        match tx.try_send(i) {
                            Ok(()) => delivered += 1,
                            Err(TrySendError::Full(_)) => {}
                            Err(TrySendError::Disconnected(_)) => {
                                unreachable!("receiver lives until producers join")
                            }
                        }
                    }
                    delivered
                })
            })
            .collect();
        drop(tx);
        let delivered: u64 = producers.into_iter().map(|p| p.join().unwrap()).sum();
        let drained = rx.try_iter().count() as u64;
        assert_eq!(drained, delivered, "every accepted message is receivable");
        assert_eq!(
            delivered + stats.shed(),
            2 * PER_PRODUCER,
            "accepted + shed must cover every attempt"
        );
    });
}

/// Property 3: concurrent blocking producers and a consumer never push
/// the queue past its capacity (checked via the peak-depth stat, which
/// is updated under the queue lock).
#[test]
fn loom_depth_never_exceeds_capacity() {
    loom::model(|| {
        let (tx, rx) = bounded(2);
        let stats = rx.stats();
        let producers: Vec<_> = (0..2)
            .map(|p| {
                let tx = tx.clone();
                loom::thread::spawn(move || {
                    for i in 0..3u32 {
                        tx.send(p * 10 + i).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let mut n = 0;
        while rx.recv().is_ok() {
            n += 1;
        }
        for p in producers {
            p.join().unwrap();
        }
        assert_eq!(n, 6);
        assert!(
            stats.peak_depth() <= 2,
            "depth {} exceeded capacity 2",
            stats.peak_depth()
        );
    });
}
