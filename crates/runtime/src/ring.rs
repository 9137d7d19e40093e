//! Lock-free SPSC request rings — the userspace analogue of the paper's
//! per-core packet-request ring buffers.
//!
//! The paper's IRQ-splitting function hands packet batches from the
//! dispatching core to splitting cores through per-core ring buffers so
//! the hot path never takes a lock. This module is that transport for the
//! threaded pipeline: a bounded single-producer/single-consumer ring with
//!
//! * cache-line-padded atomic head and tail indices (no false sharing
//!   between the producer's and consumer's hot words),
//! * power-of-two physical capacity (index masking, no modulo) with an
//!   exact logical bound so `queue_depth` keeps its meaning,
//! * batch-granular push and pop — one index publish per batch, not per
//!   item ([`RingProducer::push_all`], [`RingConsumer::pop_batch`]),
//! * yield-then-park waiting, one [`Ladder`] for every blocking call: a
//!   few scheduler yields (on a shared CPU the first one runs the peer
//!   being waited for), then a parked sleep with an explicit wake from
//!   the other side, and
//! * close-on-drop in both directions, mirroring `mpsc` disconnect
//!   semantics so the pipeline's dead-lane recovery works unchanged.
//!
//! [`ring_mux`] builds the merge-side fan-in: one SPSC ring per producer
//! sharing a single not-empty waiter, drained round-robin by a
//! [`RingMux`] — N producers, one consumer, still zero locks on the hot
//! path.

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// Pads a hot atomic to its own cache line.
#[repr(align(64))]
struct CachePadded<T>(T);

/// Scheduler yields before parking (cheap progress on a shared core).
const YIELD_LIMIT: u32 = 8;
/// Park backstop: an explicit wake normally arrives first; the timeout
/// only bounds the cost of a lost race between park and wake.
const PARK_TIMEOUT: Duration = Duration::from_micros(200);

/// One wait episode, from finding the ring full (or empty) to finding it
/// otherwise: [`YIELD_LIMIT`] scheduler yields, then parks. It never
/// spins: on a shared CPU a spin only keeps the peer it waits for from
/// running (64 spins an episode were a sixth of a 64-byte frame's time on
/// one CPU), and no host with a core per thread, where a spin could beat
/// a yield to the hand-off, has been measured (EXPERIMENTS.md, PR 24).
#[derive(Default)]
struct Ladder {
    /// Yields taken so far.
    rung: u32,
}

impl Ladder {
    /// Takes one rung: a scheduler yield, or — `true` — the thread
    /// registered; re-check, then [`Waiter::park_unless`].
    fn yield_or_register(&mut self, waiter: &Waiter) -> bool {
        if self.rung < YIELD_LIMIT {
            self.rung += 1;
            thread::yield_now();
            return false;
        }
        waiter.prepare();
        true
    }
}

/// One side's parked-thread slot: the waiter registers itself, re-checks
/// the ring, then parks; the other side wakes it after publishing.
#[derive(Default)]
struct Waiter {
    parked: AtomicBool,
    thread: Mutex<Option<Thread>>,
}

impl Waiter {
    /// Registers the calling thread as the parked waiter. The caller must
    /// re-check the ring between `prepare` and [`Waiter::park_unless`] —
    /// that re-check is what closes the missed-wakeup window: a publish
    /// the re-check misses is followed by a [`Waiter::wake`] that sees
    /// `parked`.
    fn prepare(&self) {
        *self.thread.lock().expect("waiter mutex") = Some(thread::current());
        self.parked.store(true, Ordering::SeqCst);
    }

    /// After the re-check: parks until woken or `timeout` elapses unless
    /// the re-check found work, and deregisters.
    fn park_unless(&self, ready: bool, timeout: Duration) {
        if !ready {
            thread::park_timeout(timeout);
        }
        self.parked.store(false, Ordering::SeqCst);
    }

    /// Wakes the parked waiter, if any.
    fn wake(&self) {
        if self.parked.swap(false, Ordering::SeqCst) {
            let t = self.thread.lock().expect("waiter mutex").clone();
            if let Some(t) = t {
                t.unpark();
            }
        }
    }
}

/// The shared ring state. Indices are monotonically increasing; the slot
/// for index `i` is `slots[i & mask]`, and `tail - head` is the number of
/// items in flight.
struct RingShared<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
    /// Logical capacity: `tail - head` never exceeds this, even when the
    /// physical (power-of-two) slot count is larger.
    cap: usize,
    /// Producer-owned publish index.
    tail: CachePadded<AtomicUsize>,
    /// Consumer-owned release index.
    head: CachePadded<AtomicUsize>,
    producer_closed: AtomicBool,
    consumer_closed: AtomicBool,
    /// Consumer parks here; shared across rings in a [`RingMux`].
    not_empty: Arc<Waiter>,
    not_full: Waiter,
}

// SAFETY: slots are only written by the single producer at indices the
// consumer has not yet acquired, and only read by the single consumer at
// indices the producer has published with a Release store.
unsafe impl<T: Send> Sync for RingShared<T> {}

impl<T> Drop for RingShared<T> {
    fn drop(&mut self) {
        let head = *self.head.0.get_mut();
        let tail = *self.tail.0.get_mut();
        for i in head..tail {
            // SAFETY: [head, tail) holds published, never-consumed items;
            // both handles are gone, so this is the only access.
            unsafe { (*self.slots[i & self.mask].get()).assume_init_drop() };
        }
    }
}

/// The consumer disconnected: the error of a batched [`RingProducer::push_all`],
/// whose already-consumed items cannot be handed back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingClosed;

impl std::fmt::Display for RingClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ring consumer disconnected")
    }
}

impl std::error::Error for RingClosed {}

/// Why a push did not complete.
pub enum RingSendError<T> {
    /// The ring is at its logical capacity; the item comes back.
    Full(T),
    /// The consumer is gone; the item comes back.
    Closed(T),
}

impl<T> std::fmt::Debug for RingSendError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RingSendError::Full(_) => "Full(..)",
            RingSendError::Closed(_) => "Closed(..)",
        })
    }
}

/// The producing half. Not cloneable: single producer by construction.
pub struct RingProducer<T> {
    ring: Arc<RingShared<T>>,
    /// Stale copy of `head`, refreshed only when the ring looks full —
    /// the common-case push never touches the consumer's cache line.
    head_cache: usize,
}

impl<T> RingProducer<T> {
    /// Non-blocking push.
    pub fn try_push(&mut self, value: T) -> Result<(), RingSendError<T>> {
        if self.ring.consumer_closed.load(Ordering::Acquire) {
            return Err(RingSendError::Closed(value));
        }
        let tail = self.ring.tail.0.load(Ordering::Relaxed);
        if tail - self.head_cache >= self.ring.cap {
            self.head_cache = self.ring.head.0.load(Ordering::Acquire);
            if tail - self.head_cache >= self.ring.cap {
                return Err(RingSendError::Full(value));
            }
        }
        // SAFETY: slot `tail` is unpublished and past the consumer's head.
        unsafe { (*self.ring.slots[tail & self.ring.mask].get()).write(value) };
        self.ring.tail.0.store(tail + 1, Ordering::Release);
        self.ring.not_empty.wake();
        Ok(())
    }

    /// Blocking push: yield, then park until space frees up.
    /// Returns the item when the consumer is gone.
    pub fn push(&mut self, mut value: T) -> Result<(), T> {
        let mut ladder = Ladder::default();
        loop {
            value = match self.try_push(value) {
                Ok(()) => return Ok(()),
                Err(RingSendError::Closed(v)) => return Err(v),
                Err(RingSendError::Full(v)) => v,
            };
            self.wait_for_space(&mut ladder);
        }
    }

    /// Pushes every item, blocking while full, publishing the tail once
    /// per claimed stretch of free slots instead of once per item.
    /// Returns [`RingClosed`] once the consumer is gone (remaining items
    /// are dropped, exactly as an `mpsc` send error discards its
    /// payload).
    pub fn push_all<I: IntoIterator<Item = T>>(&mut self, items: I) -> Result<(), RingClosed> {
        let mut it = items.into_iter().peekable();
        let mut ladder = Ladder::default();
        while it.peek().is_some() {
            if self.ring.consumer_closed.load(Ordering::Acquire) {
                return Err(RingClosed);
            }
            let tail = self.ring.tail.0.load(Ordering::Relaxed);
            self.head_cache = self.ring.head.0.load(Ordering::Acquire);
            let free = self.ring.cap - (tail - self.head_cache);
            if free == 0 {
                self.wait_for_space(&mut ladder);
                continue;
            }
            // Progress: the next time the ring is full is a new episode.
            ladder = Ladder::default();
            let mut n = 0usize;
            while n < free {
                let Some(value) = it.next() else { break };
                // SAFETY: slots [tail, tail + free) are unpublished and
                // past the consumer's head.
                unsafe {
                    (*self.ring.slots[(tail + n) & self.ring.mask].get()).write(value);
                }
                n += 1;
            }
            self.ring.tail.0.store(tail + n, Ordering::Release);
            self.ring.not_empty.wake();
        }
        Ok(())
    }

    /// One rung of a wait for the consumer to free a slot (or go away).
    fn wait_for_space(&mut self, ladder: &mut Ladder) {
        if ladder.yield_or_register(&self.ring.not_full) {
            let tail = self.ring.tail.0.load(Ordering::Relaxed);
            self.head_cache = self.ring.head.0.load(Ordering::Acquire);
            let ready = tail - self.head_cache < self.ring.cap
                || self.ring.consumer_closed.load(Ordering::Acquire);
            self.ring.not_full.park_unless(ready, PARK_TIMEOUT);
        }
    }
}

impl<T> Drop for RingProducer<T> {
    fn drop(&mut self) {
        self.ring.producer_closed.store(true, Ordering::Release);
        self.ring.not_empty.wake();
    }
}

/// The consuming half. Not cloneable: single consumer by construction.
pub struct RingConsumer<T> {
    ring: Arc<RingShared<T>>,
    /// Stale copy of `tail`, refreshed only when the ring looks empty.
    tail_cache: usize,
}

impl<T> RingConsumer<T> {
    /// Non-blocking pop.
    pub fn try_pop(&mut self) -> Option<T> {
        let head = self.ring.head.0.load(Ordering::Relaxed);
        if head == self.tail_cache {
            self.tail_cache = self.ring.tail.0.load(Ordering::Acquire);
            if head == self.tail_cache {
                return None;
            }
        }
        // SAFETY: slot `head` was published by the producer's Release
        // store of `tail` past it.
        let value = unsafe { (*self.ring.slots[head & self.ring.mask].get()).assume_init_read() };
        self.ring.head.0.store(head + 1, Ordering::Release);
        self.ring.not_full.wake();
        Some(value)
    }

    /// Pops up to `max` items with a single head publish. Returns how
    /// many were appended to `out`.
    pub fn pop_batch(&mut self, out: &mut VecDeque<T>, max: usize) -> usize {
        let head = self.ring.head.0.load(Ordering::Relaxed);
        if head == self.tail_cache {
            self.tail_cache = self.ring.tail.0.load(Ordering::Acquire);
        }
        let n = (self.tail_cache - head).min(max);
        for i in 0..n {
            // SAFETY: slots [head, tail) are published and unconsumed.
            let value = unsafe {
                (*self.ring.slots[(head + i) & self.ring.mask].get()).assume_init_read()
            };
            out.push_back(value);
        }
        if n > 0 {
            self.ring.head.0.store(head + n, Ordering::Release);
            self.ring.not_full.wake();
        }
        n
    }

    /// Whether the producer is gone. Loaded with Acquire, so a `true`
    /// result means every item the producer ever published is visible.
    pub fn producer_closed(&self) -> bool {
        self.ring.producer_closed.load(Ordering::Acquire)
    }

    /// Blocking pop: yield, then park until an item arrives.
    /// `None` means the producer is gone and the ring is drained.
    pub fn pop(&mut self) -> Option<T> {
        let mut ladder = Ladder::default();
        loop {
            // Closed is read before the pop: set-after-last-publish on the
            // producer side means closed-then-empty is truly drained.
            let closed = self.producer_closed();
            if let Some(v) = self.try_pop() {
                return Some(v);
            }
            if closed {
                return None;
            }
            if ladder.yield_or_register(&self.ring.not_empty) {
                let ready = self.has_item() || self.producer_closed();
                self.ring.not_empty.park_unless(ready, PARK_TIMEOUT);
            }
        }
    }

    fn has_item(&mut self) -> bool {
        let head = self.ring.head.0.load(Ordering::Relaxed);
        self.tail_cache = self.ring.tail.0.load(Ordering::Acquire);
        head != self.tail_cache
    }
}

impl<T> Drop for RingConsumer<T> {
    fn drop(&mut self) {
        self.ring.consumer_closed.store(true, Ordering::Release);
        self.ring.not_full.wake();
    }
}

fn shared<T>(cap: usize, not_empty: Arc<Waiter>) -> Arc<RingShared<T>> {
    assert!(cap >= 1, "ring capacity must be at least 1");
    let physical = cap.next_power_of_two();
    let slots: Box<[UnsafeCell<MaybeUninit<T>>]> = (0..physical)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect();
    Arc::new(RingShared {
        slots,
        mask: physical - 1,
        cap,
        tail: CachePadded(AtomicUsize::new(0)),
        head: CachePadded(AtomicUsize::new(0)),
        producer_closed: AtomicBool::new(false),
        consumer_closed: AtomicBool::new(false),
        not_empty,
        not_full: Waiter::default(),
    })
}

/// A bounded SPSC ring holding at most `cap` items (any `cap >= 1`; the
/// physical slot count is the next power of two, the logical bound is
/// exactly `cap`).
pub fn spsc<T>(cap: usize) -> (RingProducer<T>, RingConsumer<T>) {
    let ring = shared(cap, Arc::new(Waiter::default()));
    (
        RingProducer {
            ring: Arc::clone(&ring),
            head_cache: 0,
        },
        RingConsumer {
            ring,
            tail_cache: 0,
        },
    )
}

/// Why a [`RingMux`] receive returned empty-handed.
#[derive(Debug, PartialEq, Eq)]
pub enum MuxRecvError {
    /// The deadline passed with no arrivals.
    Timeout,
    /// Every producer is gone and every ring is drained.
    Disconnected,
}

/// Late-registration side-channel of a [`RingMux`]: consumers queued by
/// [`MuxRegistrar::add_producer`] wait here until the mux absorbs them on
/// its next receive pass.
struct MuxPending<T> {
    adds: Mutex<Vec<RingConsumer<T>>>,
    /// Fast-path hint that `adds` is non-empty (the mux never takes the
    /// lock on its hot path unless this is set).
    flag: AtomicBool,
    /// Live registrar handles. While any exist the mux cannot report
    /// [`MuxRecvError::Disconnected`] — a new producer may yet appear.
    registrars: AtomicUsize,
    /// The mux's park waiter, shared so a registration can unpark it.
    waiter: Arc<Waiter>,
    /// Ring capacity for late-added producers (same as the original set).
    cap: usize,
}

/// Handle for wiring new producers into a live [`RingMux`] — the
/// supervisor uses one to give a respawned worker its own merger ring.
///
/// Registration explicitly wakes a parked mux, so a consumer blocked in
/// [`RingMux::recv_deadline`] observes the re-wired producer promptly
/// instead of at the park backstop. Dropping the last registrar (and all
/// producers) lets the mux disconnect.
pub struct MuxRegistrar<T> {
    pending: Arc<MuxPending<T>>,
}

impl<T> MuxRegistrar<T> {
    /// Creates a fresh SPSC ring feeding the mux and returns its producer
    /// half. The mux absorbs the consumer half on its next receive pass.
    pub fn add_producer(&self) -> RingProducer<T> {
        let ring = shared(self.pending.cap, Arc::clone(&self.pending.waiter));
        let tx = RingProducer {
            ring: Arc::clone(&ring),
            head_cache: 0,
        };
        self.pending
            .adds
            .lock()
            .expect("mux registrar lock")
            .push(RingConsumer {
                ring,
                tail_cache: 0,
            });
        self.pending.flag.store(true, Ordering::Release);
        // The explicit unpark: without it a parked mux would only notice
        // the new ring at its next park timeout.
        self.pending.waiter.wake();
        tx
    }
}

impl<T> Clone for MuxRegistrar<T> {
    fn clone(&self) -> Self {
        self.pending.registrars.fetch_add(1, Ordering::SeqCst);
        Self {
            pending: Arc::clone(&self.pending),
        }
    }
}

impl<T> Drop for MuxRegistrar<T> {
    fn drop(&mut self) {
        self.pending.registrars.fetch_sub(1, Ordering::SeqCst);
        // A mux parked waiting for "maybe another producer" can now
        // re-evaluate disconnection.
        self.pending.waiter.wake();
    }
}

/// Fan-in over per-producer SPSC rings: the merge-side consumer. Drains
/// rings round-robin in batches; parks on the single waiter every
/// producer wakes.
pub struct RingMux<T> {
    rings: Vec<RingConsumer<T>>,
    next: usize,
    waiter: Arc<Waiter>,
    scratch: VecDeque<T>,
    /// Late-registration channel; `None` for a fixed producer set.
    pending: Option<Arc<MuxPending<T>>>,
}

/// How many items one refill drains from one ring.
const MUX_BATCH: usize = 64;

impl<T> RingMux<T> {
    /// Receives one item, waiting at most until `deadline` (forever when
    /// `None`).
    pub fn recv_deadline(&mut self, deadline: Option<Instant>) -> Result<T, MuxRecvError> {
        let mut ladder = Ladder::default();
        loop {
            if let Some(v) = self.scratch.pop_front() {
                return Ok(v);
            }
            if self.refill() > 0 {
                continue;
            }
            if self.all_drained() {
                return Err(MuxRecvError::Disconnected);
            }
            let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if left == Some(Duration::ZERO) {
                return Err(MuxRecvError::Timeout);
            }
            if ladder.yield_or_register(&self.waiter) {
                let ready = self.refill() > 0 || self.all_drained();
                let nap = left.map_or(PARK_TIMEOUT, |l| l.min(PARK_TIMEOUT));
                self.waiter.park_unless(ready, nap);
            }
        }
    }

    /// Receives one item, waiting at most `timeout` (forever when `None`)
    /// counted from the moment the mux is found empty: anything already
    /// buffered or sitting in a ring is returned without reading the
    /// clock, so a consumer that is kept busy pays for `Instant::now()`
    /// only when it is about to wait anyway.
    pub fn recv_timeout(&mut self, timeout: Option<Duration>) -> Result<T, MuxRecvError> {
        if self.scratch.is_empty() {
            self.refill();
        }
        match self.scratch.pop_front() {
            Some(v) => Ok(v),
            None => self.recv_deadline(timeout.map(|t| Instant::now() + t)),
        }
    }

    /// Absorbs any consumers queued by a [`MuxRegistrar`] into the
    /// round-robin set.
    fn absorb_pending(&mut self) {
        let Some(p) = &self.pending else { return };
        if p.flag.swap(false, Ordering::AcqRel) {
            let mut adds = p.adds.lock().expect("mux registrar lock");
            self.rings.append(&mut adds);
        }
    }

    /// One round-robin sweep, draining up to [`MUX_BATCH`] per ring into
    /// the scratch queue. Returns how many items arrived.
    ///
    /// Terminally dead rings — producer handle dropped and nothing left
    /// to pop — are pruned from the sweep set. A respawned worker is
    /// wired in through a *fresh* ring (`MuxRegistrar::add_producer`),
    /// never by reviving an old one, so `closed && empty` can never
    /// un-happen; without pruning, every supervised respawn would leave
    /// a dead ring to probe on every sweep for the rest of the run,
    /// capping post-recovery merge throughput.
    fn refill(&mut self) -> usize {
        self.absorb_pending();
        let n = self.rings.len();
        if n == 0 {
            return 0;
        }
        let mut got = 0;
        let mut saw_dead = false;
        for k in 0..n {
            let i = (self.next + k) % n;
            let popped = self.rings[i].pop_batch(&mut self.scratch, MUX_BATCH);
            if popped == 0 && self.rings[i].producer_closed() && !self.rings[i].has_item() {
                saw_dead = true;
            }
            got += popped;
        }
        self.next = (self.next + 1) % n;
        if saw_dead {
            // Closed-before-emptiness ordering as in `all_drained`: a
            // ring observed closed and empty cannot receive a final
            // publish, so dropping its consumer loses nothing.
            self.rings
                .retain_mut(|r| !r.producer_closed() || r.has_item());
            self.next = 0;
        }
        got
    }

    /// Whether every producer has closed with nothing left to pop. Closed
    /// flags are read before the emptiness probe, so a true result cannot
    /// race with a final publish. While a registrar is alive (or a
    /// registered ring has not been absorbed yet) the mux is never
    /// drained — a respawned producer may still appear.
    fn all_drained(&mut self) -> bool {
        if let Some(p) = &self.pending {
            if p.registrars.load(Ordering::SeqCst) > 0 || p.flag.load(Ordering::Acquire) {
                return false;
            }
        }
        self.scratch.is_empty()
            && self.rings.iter_mut().all(|r| {
                let closed = r.producer_closed();
                closed && !r.has_item()
            })
    }
}

/// `producers` SPSC rings of capacity `cap` each, fanned into one
/// [`RingMux`].
pub fn ring_mux<T>(producers: usize, cap: usize) -> (Vec<RingProducer<T>>, RingMux<T>) {
    let waiter = Arc::new(Waiter::default());
    let mut txs = Vec::with_capacity(producers);
    let mut rxs = Vec::with_capacity(producers);
    for _ in 0..producers {
        let ring = shared(cap, Arc::clone(&waiter));
        txs.push(RingProducer {
            ring: Arc::clone(&ring),
            head_cache: 0,
        });
        rxs.push(RingConsumer {
            ring,
            tail_cache: 0,
        });
    }
    (
        txs,
        RingMux {
            rings: rxs,
            next: 0,
            waiter,
            scratch: VecDeque::new(),
            pending: None,
        },
    )
}

/// Like [`ring_mux`], plus a [`MuxRegistrar`] for wiring in new producers
/// while the mux is live (worker respawn). The mux will not report
/// [`MuxRecvError::Disconnected`] until the last registrar is dropped.
pub fn ring_mux_with_registrar<T>(
    producers: usize,
    cap: usize,
) -> (Vec<RingProducer<T>>, RingMux<T>, MuxRegistrar<T>) {
    let (txs, mut mux) = ring_mux(producers, cap);
    let pending = Arc::new(MuxPending {
        adds: Mutex::new(Vec::new()),
        flag: AtomicBool::new(false),
        registrars: AtomicUsize::new(1),
        waiter: Arc::clone(&mux.waiter),
        cap,
    });
    mux.pending = Some(Arc::clone(&pending));
    (txs, mux, MuxRegistrar { pending })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_ladder_yields_then_registers_and_a_found_item_deregisters() {
        let waiter = Waiter::default();
        let mut ladder = Ladder::default();
        for _ in 0..YIELD_LIMIT {
            assert!(!ladder.yield_or_register(&waiter));
            assert!(!waiter.parked.load(Ordering::SeqCst));
        }
        assert!(ladder.yield_or_register(&waiter));
        assert!(waiter.parked.load(Ordering::SeqCst));
        // The re-check found work: no park, and no wake left to deliver.
        waiter.park_unless(true, PARK_TIMEOUT);
        assert!(!waiter.parked.load(Ordering::SeqCst));
        assert!(ladder.yield_or_register(&waiter), "parking from now on");
    }

    #[test]
    fn fifo_order_single_thread() {
        let (mut tx, mut rx) = spsc::<u32>(4);
        for i in 0..4 {
            tx.try_push(i).expect("space for 4");
        }
        assert!(matches!(tx.try_push(99), Err(RingSendError::Full(99))));
        for i in 0..4 {
            assert_eq!(rx.try_pop(), Some(i));
        }
        assert_eq!(rx.try_pop(), None);
    }

    #[test]
    fn wraparound_many_times() {
        let (mut tx, mut rx) = spsc::<usize>(3); // physical 4, logical 3
        for round in 0..1000 {
            for i in 0..3 {
                tx.try_push(round * 3 + i).expect("space");
            }
            assert!(matches!(tx.try_push(0), Err(RingSendError::Full(_))));
            for i in 0..3 {
                assert_eq!(rx.try_pop(), Some(round * 3 + i));
            }
        }
    }

    #[test]
    fn non_power_of_two_capacity_is_exact() {
        let (mut tx, mut rx) = spsc::<u8>(5);
        for i in 0..5 {
            assert!(tx.try_push(i).is_ok());
        }
        assert!(matches!(tx.try_push(9), Err(RingSendError::Full(_))));
        assert_eq!(rx.try_pop(), Some(0));
        assert!(tx.try_push(9).is_ok());
    }

    #[test]
    fn consumer_drop_closes_the_ring() {
        let (mut tx, rx) = spsc::<u8>(2);
        drop(rx);
        assert!(matches!(tx.try_push(1), Err(RingSendError::Closed(1))));
        assert!(tx.push(1).is_err());
        assert!(tx.push_all([1, 2, 3]).is_err());
    }

    #[test]
    fn producer_drop_drains_then_disconnects() {
        let (mut tx, mut rx) = spsc::<u8>(4);
        tx.try_push(7).expect("space");
        tx.try_push(8).expect("space");
        drop(tx);
        assert_eq!(rx.pop(), Some(7));
        assert_eq!(rx.pop(), Some(8));
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn batch_push_and_pop_move_whole_batches() {
        let (mut tx, mut rx) = spsc::<usize>(8);
        tx.push_all(0..6).expect("consumer alive");
        let mut out = VecDeque::new();
        assert_eq!(rx.pop_batch(&mut out, 4), 4);
        assert_eq!(rx.pop_batch(&mut out, 4), 2);
        assert_eq!(out.into_iter().collect::<Vec<_>>(), (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn push_all_larger_than_capacity_round_trips() {
        let (mut tx, mut rx) = spsc::<usize>(4);
        let n = 10_000;
        let h = thread::spawn(move || {
            let mut got = Vec::with_capacity(n);
            while let Some(v) = rx.pop() {
                got.push(v);
            }
            got
        });
        tx.push_all(0..n).expect("consumer alive");
        drop(tx);
        assert_eq!(h.join().expect("consumer"), (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn cross_thread_stress_preserves_sequence() {
        let (mut tx, mut rx) = spsc::<u64>(2);
        let n = 50_000u64;
        let h = thread::spawn(move || {
            for i in 0..n {
                assert_eq!(rx.pop(), Some(i), "out of order at {i}");
            }
            assert_eq!(rx.pop(), None);
        });
        for i in 0..n {
            tx.push(i).expect("consumer alive");
        }
        drop(tx);
        h.join().expect("consumer");
    }

    #[test]
    fn dropped_ring_drops_in_flight_items() {
        struct Counted(Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let (mut tx, mut rx) = spsc::<Counted>(8);
        for _ in 0..5 {
            tx.try_push(Counted(Arc::clone(&drops))).expect("space");
        }
        drop(rx.try_pop()); // one consumed and dropped
        drop(tx);
        drop(rx); // four still in flight
        assert_eq!(drops.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn mux_fans_in_and_disconnects() {
        let (mut txs, mut mux) = ring_mux::<u64>(3, 4);
        let handles: Vec<_> = txs
            .drain(..)
            .enumerate()
            .map(|(k, mut tx)| {
                thread::spawn(move || {
                    for i in 0..1000u64 {
                        tx.push(k as u64 * 1_000_000 + i).expect("mux alive");
                    }
                })
            })
            .collect();
        let mut per_src = [0u64; 3];
        let mut total = 0;
        loop {
            match mux.recv_deadline(None) {
                Ok(v) => {
                    let src = (v / 1_000_000) as usize;
                    // Per-producer FIFO survives the fan-in.
                    assert_eq!(v % 1_000_000, per_src[src], "reorder from producer {src}");
                    per_src[src] += 1;
                    total += 1;
                }
                Err(MuxRecvError::Disconnected) => break,
                Err(MuxRecvError::Timeout) => unreachable!("no deadline set"),
            }
        }
        assert_eq!(total, 3000);
        for h in handles {
            h.join().expect("producer");
        }
    }

    #[test]
    fn registrar_holds_off_disconnect_until_dropped() {
        let (txs, mut mux, reg) = ring_mux_with_registrar::<u8>(1, 2);
        drop(txs);
        // The original producer is gone, but a registrar is alive: the
        // mux must not disconnect, only time out.
        let deadline = Some(Instant::now() + Duration::from_millis(5));
        assert_eq!(mux.recv_deadline(deadline), Err(MuxRecvError::Timeout));
        let mut tx = reg.add_producer();
        tx.try_push(7).expect("space");
        assert_eq!(mux.recv_deadline(None), Ok(7));
        drop(tx);
        drop(reg);
        assert_eq!(mux.recv_deadline(None), Err(MuxRecvError::Disconnected));
    }

    #[test]
    fn registrar_wakes_a_parked_mux_promptly() {
        let (txs, mut mux, reg) = ring_mux_with_registrar::<u64>(1, 4);
        drop(txs);
        let consumer = thread::spawn(move || mux.recv_deadline(None));
        // Let the consumer spin down into its parked state, then wire in
        // a brand-new producer and publish through it.
        thread::sleep(Duration::from_millis(20));
        let mut tx = reg.add_producer();
        tx.try_push(99).expect("space");
        assert_eq!(consumer.join().expect("consumer"), Ok(99));
        drop(tx);
        drop(reg);
    }

    #[test]
    fn mux_times_out_then_recovers() {
        let (mut txs, mut mux) = ring_mux::<u8>(1, 2);
        let deadline = Some(Instant::now() + Duration::from_millis(5));
        assert_eq!(mux.recv_deadline(deadline), Err(MuxRecvError::Timeout));
        txs[0].try_push(42).expect("space");
        assert_eq!(mux.recv_deadline(None), Ok(42));
        drop(txs);
        assert_eq!(mux.recv_deadline(None), Err(MuxRecvError::Disconnected));
    }

    #[test]
    fn recv_timeout_waits_only_when_nothing_is_queued() {
        let (mut txs, mut mux) = ring_mux::<u8>(2, 4);
        txs[0].try_push(1).expect("space");
        txs[1].try_push(2).expect("space");
        // Queued items come back even under a zero timeout: the timeout
        // starts only once the mux has been found empty.
        let mut got = [
            mux.recv_timeout(Some(Duration::ZERO)).expect("queued"),
            mux.recv_timeout(Some(Duration::ZERO)).expect("queued"),
        ];
        got.sort_unstable();
        assert_eq!(got, [1, 2]);
        let start = Instant::now();
        let wait = Duration::from_millis(5);
        assert_eq!(mux.recv_timeout(Some(wait)), Err(MuxRecvError::Timeout));
        assert!(start.elapsed() >= wait);
        drop(txs);
        assert_eq!(mux.recv_timeout(None), Err(MuxRecvError::Disconnected));
    }
}
