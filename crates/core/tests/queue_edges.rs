//! Edge-case coverage for [`BoundedQueue`]: shutdown races (close while
//! producers/consumers are blocked), zero-window `pop_timeout` under
//! contention, drain ordering after close, and a seeded multi-producer /
//! multi-consumer stress run. The queue is the substrate under both the
//! experiment scheduler and the serving admission path, so these are the
//! races both subsystems implicitly rely on.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use blurnet::queue::{run_workers, BoundedQueue, PopTimeout, TryPush};

#[test]
fn close_wakes_every_blocked_producer_with_its_item_back() {
    let queue = Arc::new(BoundedQueue::new(1));
    queue.push(0u32).expect("first push fills the queue");
    let producers: Vec<_> = (1..=4u32)
        .map(|v| {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.push(v))
        })
        .collect();
    // Give every producer time to block on the full queue, then close.
    std::thread::sleep(Duration::from_millis(30));
    queue.close();
    for (i, producer) in producers.into_iter().enumerate() {
        let refused = producer.join().expect("producer thread");
        assert_eq!(
            refused,
            Err(i as u32 + 1),
            "a blocked producer must get exactly its own item back"
        );
    }
    // The item admitted before the close still drains.
    assert_eq!(queue.pop(), Some(0));
    assert_eq!(queue.pop(), None);
}

#[test]
fn close_wakes_every_blocked_consumer_exactly_once() {
    let queue = Arc::new(BoundedQueue::<u32>::new(4));
    let consumers: Vec<_> = (0..4)
        .map(|_| {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.pop())
        })
        .collect();
    std::thread::sleep(Duration::from_millis(30));
    queue.close();
    for consumer in consumers {
        assert_eq!(consumer.join().expect("consumer thread"), None);
    }
}

#[test]
fn zero_window_pop_timeout_drains_everything_under_contention() {
    // The serve batcher's zero-width flush window degenerates to exactly
    // this pattern: consumers polling `pop_timeout(0)` in a loop must
    // still collectively drain every item producers push, with TimedOut
    // only ever meaning "empty right now", never "item lost".
    const PRODUCERS: usize = 4;
    const PER_PRODUCER: usize = 256;
    let queue = Arc::new(BoundedQueue::new(8));
    let drained = Arc::new(AtomicUsize::new(0));

    std::thread::scope(|scope| {
        for p in 0..PRODUCERS {
            let queue = Arc::clone(&queue);
            scope.spawn(move || {
                for i in 0..PER_PRODUCER {
                    queue.push(p * PER_PRODUCER + i).expect("queue stays open");
                }
            });
        }
        for _ in 0..3 {
            let queue = Arc::clone(&queue);
            let drained = Arc::clone(&drained);
            scope.spawn(move || loop {
                match queue.pop_timeout(Duration::ZERO) {
                    PopTimeout::Item(_) => {
                        drained.fetch_add(1, Ordering::Relaxed);
                    }
                    PopTimeout::TimedOut => {
                        if drained.load(Ordering::Relaxed) == PRODUCERS * PER_PRODUCER {
                            break;
                        }
                        std::thread::yield_now();
                    }
                    PopTimeout::Closed => break,
                }
            });
        }
    });
    assert_eq!(drained.load(Ordering::Relaxed), PRODUCERS * PER_PRODUCER);
}

#[test]
fn drain_after_close_preserves_fifo_order() {
    let queue = BoundedQueue::new(16);
    for i in 0..10 {
        queue.push(i).expect("open queue accepts");
    }
    queue.close();
    // New items are refused in every admission mode...
    assert_eq!(queue.push(99), Err(99));
    assert_eq!(queue.try_push(98), TryPush::Closed(98));
    // ...but the backlog drains completely, oldest first.
    for i in 0..10 {
        assert_eq!(queue.pop(), Some(i));
    }
    assert_eq!(queue.pop(), None);
    assert_eq!(queue.pop_timeout(Duration::ZERO), PopTimeout::Closed);
}

#[test]
fn try_push_reports_full_without_blocking_and_closed_after_close() {
    let queue = BoundedQueue::new(2);
    assert_eq!(queue.try_push(1), TryPush::Pushed);
    assert_eq!(queue.try_push(2), TryPush::Pushed);
    // At capacity: the item comes back immediately — this is the signal a
    // shedding admission path maps to `queue_full`.
    assert_eq!(queue.try_push(3), TryPush::Full(3));
    assert_eq!(queue.pop(), Some(1));
    assert_eq!(queue.try_push(3), TryPush::Pushed);
    queue.close();
    assert_eq!(queue.try_push(4), TryPush::Closed(4));
}

#[test]
fn seeded_multi_producer_stress_delivers_every_item_in_per_producer_order() {
    // 4 producers × 4 consumers through a deliberately tiny queue, so
    // both the not_full and not_empty waits are exercised constantly.
    // MPMC FIFO guarantees: nothing lost, nothing duplicated, and each
    // consumer observes each producer's items in their production order.
    // Order across consumers is not observable: a consumer records an item
    // only after its pop returns, so two consumers can record one
    // producer's consecutive items in either order.
    const PRODUCERS: u64 = 4;
    const PER_PRODUCER: u64 = 500;
    const CONSUMERS: usize = 4;
    let queue = Arc::new(BoundedQueue::new(3));
    let received: Mutex<Vec<(usize, u64)>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let queue = Arc::clone(&queue);
                scope.spawn(move || {
                    // Mix producer pacing deterministically (seeded by the
                    // producer id) so interleavings vary across producers
                    // without depending on wall-clock randomness.
                    let mut state = 0x9e37_79b9u64 ^ p;
                    for i in 0..PER_PRODUCER {
                        queue.push((p << 32) | i).expect("queue stays open");
                        state ^= state << 13;
                        state ^= state >> 7;
                        if state.is_multiple_of(7) {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        scope.spawn(|| {
            run_workers(CONSUMERS, |worker| {
                while let Some(v) = queue.pop() {
                    received.lock().expect("result lock").push((worker, v));
                }
            });
        });
        for handle in handles {
            handle.join().expect("producer thread");
        }
        queue.close();
    });

    let received = received.into_inner().expect("result lock");
    assert_eq!(received.len(), (PRODUCERS * PER_PRODUCER) as usize);
    // One consumer's pops happen in sequence and it records each item
    // before its next pop, so per (consumer, producer) pair the recorded
    // order is the queue's order.
    let mut last_seen = vec![vec![None::<u64>; PRODUCERS as usize]; CONSUMERS];
    for &(c, v) in &received {
        let (p, i) = ((v >> 32) as usize, v & 0xffff_ffff);
        if let Some(prev) = last_seen[c][p] {
            assert!(
                i > prev,
                "consumer {c} observed producer {p} items out of order: {prev} then {i}"
            );
        }
        last_seen[c][p] = Some(i);
    }
    // Completeness and no duplicates: every item arrives exactly once.
    let mut values: Vec<u64> = received.iter().map(|&(_, v)| v).collect();
    values.sort_unstable();
    let expected: Vec<u64> = (0..PRODUCERS)
        .flat_map(|p| (0..PER_PRODUCER).map(move |i| (p << 32) | i))
        .collect();
    assert_eq!(values, expected, "items lost or duplicated");
}
