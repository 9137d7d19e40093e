//! Slab-backed packet buffer pool: the runtime's answer to per-hop
//! `Vec<u8>` traffic on the hot path.
//!
//! A [`BufPool`] owns one contiguous slab carved into fixed-size slots.
//! [`BufPool::alloc`] copies a wire frame into a free slot once, at
//! generation time, and hands back a [`PktBuf`] — a reference-counted
//! handle of `(pool, slot index, length)`, which is exactly the
//! descriptor shape an IRQ core would enqueue for a splitting core.
//! The dispatcher hands lanes descriptors over the caller's frames and
//! the runtime clones no handle; where a caller clones one, that is a
//! refcount bump, not a byte copy, and the final drop pushes the slot
//! back on the free list.
//!
//! A slab of at least one huge page (2 MiB) is an anonymous mapping of
//! its own, 2 MiB-aligned and advised `MADV_HUGEPAGE` before its first
//! touch, so filling it faults once per 2 MiB instead of once per 4 KiB.
//! A smaller slab, a target other than Linux on x86-64 or AArch64, Miri
//! and a failed `mmap` keep a zeroed heap slab (DESIGN.md §14, "The
//! slab's memory").
//!
//! Ownership rules (DESIGN.md §14):
//!
//! * A slot is written only between free-list pop and first share, while
//!   its refcount is the allocator's exclusive 1. From then on the bytes
//!   are immutable until the count returns to 0.
//! * Clones may happen on any thread; the slot is released to the free
//!   list exactly once, by whichever handle drops the count to zero —
//!   batch copies held for retransmission therefore cannot double-free.
//! * When the pool is exhausted or a frame exceeds the slot size, the
//!   allocation falls back to a heap buffer (counted as a `miss`), so
//!   sizing the pool is a performance decision, never a correctness one.

use std::ops::Deref;
use std::ptr::NonNull;
use std::sync::atomic::{fence, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A fixed-capacity slab of packet buffers. Cloning the handle shares
/// the pool (it is internally an `Arc`).
#[derive(Clone)]
pub struct BufPool {
    inner: Arc<PoolInner>,
}

struct PoolInner {
    /// Bytes per slot.
    slot_len: usize,
    /// Slot count.
    slots: usize,
    /// The slab: `slots * slot_len` bytes, written through a shared
    /// reference at acquire time; the refcount protocol above is what
    /// makes that sound.
    slab: Slab,
    /// Per-slot reference counts; 0 means the slot is on the free list.
    refs: Box<[AtomicU32]>,
    /// Indices of slots with refcount 0.
    free: Mutex<Vec<u32>>,
    /// Allocations served from the slab.
    hits: AtomicU64,
    /// Allocations that fell back to the heap (pool empty or oversize).
    misses: AtomicU64,
    /// Slots returned to the free list (release events).
    recycled: AtomicU64,
    /// Live heap-fallback buffers.
    heap_live: AtomicU64,
}

// SAFETY: the slab is memory `PoolInner` owns alone and frees only when
// it drops, i.e. after the last handle; its bytes are only written while
// the writer holds the slot exclusively (refcount 0 -> 1 via free-list
// pop) and only read while a handle keeps the refcount >= 1; the
// free-list mutex and the release/acquire refcount edges order those
// phases. Every other field is an atomic, a mutex or immutable.
unsafe impl Send for PoolInner {}
unsafe impl Sync for PoolInner {}

/// Bytes in one transparent huge page on x86-64 and on AArch64 with
/// 4 KiB base pages. A slab this long or longer is mapped on its own.
const HUGE_PAGE: usize = 2 << 20;

/// `len` zeroed bytes at `base`: one anonymous mapping advised for huge
/// pages, or a leaked heap slice. Which one decides only how they are
/// freed, so the hot path reads `base` alike for both.
struct Slab {
    base: NonNull<u8>,
    /// Bytes owned at `base`: the whole mapping (whole huge pages) when
    /// `mapped`, the slab's exact length otherwise.
    len: usize,
    mapped: bool,
}

impl Slab {
    /// `len` zeroed bytes, mapped as `map_len` (`len` rounded up to whole
    /// huge pages) when `len` fills at least one huge page and the
    /// mapping succeeds. Smaller slabs stay on the heap: zeroing a whole
    /// 2 MiB page for a few dozen frames would cost more than it saves.
    fn new(len: usize, map_len: usize) -> Self {
        if len >= HUGE_PAGE {
            if let Some(base) = thp::map(map_len) {
                return Slab {
                    base,
                    len: map_len,
                    mapped: true,
                };
            }
        }
        let heap = Box::into_raw(vec![0u8; len].into_boxed_slice());
        Slab {
            base: NonNull::new(heap.cast()).expect("a Box is never null"),
            len,
            mapped: false,
        }
    }
}

impl Drop for Slab {
    fn drop(&mut self) {
        if self.mapped {
            // SAFETY: `base..base + len` is the whole mapping `thp::map`
            // returned, and its owner (`PoolInner`) is dropping, so no
            // handle, and no reference into the slab, is left.
            unsafe { thp::unmap(self.base, self.len) }
        } else {
            // SAFETY: `base` and `len` are the boxed slice `Slab::new`
            // leaked, rebuilt once; no reference into it is left (as above).
            drop(unsafe {
                Box::from_raw(std::ptr::slice_from_raw_parts_mut(
                    self.base.as_ptr(),
                    self.len,
                ))
            });
        }
    }
}

/// The slab's mapping: anonymous, private, 2 MiB-aligned and advised
/// `MADV_HUGEPAGE` before its first touch. The crate has no `libc`, so
/// the three calls are declared by hand; the constants are Linux's on
/// x86-64 and AArch64.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64"),
    not(miri)
))]
mod thp {
    use super::HUGE_PAGE;
    use std::ffi::c_void;
    use std::ptr::NonNull;

    const PROT_READ: i32 = 0x1;
    const PROT_WRITE: i32 = 0x2;
    const MAP_PRIVATE: i32 = 0x02;
    const MAP_ANONYMOUS: i32 = 0x20;
    const MADV_HUGEPAGE: i32 = 14;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            off: i64,
        ) -> *mut c_void;
        fn madvise(addr: *mut c_void, len: usize, advice: i32) -> i32;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    /// Maps `len` zeroed bytes, a multiple of [`HUGE_PAGE`], at a
    /// [`HUGE_PAGE`]-aligned address; `None` when `mmap` fails. One
    /// extra huge page is reserved and the unaligned head and tail
    /// are unmapped again.
    pub(super) fn map(len: usize) -> Option<NonNull<u8>> {
        let reserve = len.checked_add(HUGE_PAGE)?;
        // SAFETY: a fresh anonymous private mapping aliases no Rust
        // object; every argument is one `mmap` accepts.
        let raw = unsafe {
            mmap(
                std::ptr::null_mut(),
                reserve,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        if raw as isize == -1 {
            return None; // MAP_FAILED
        }
        let head = (raw as usize).wrapping_neg() % HUGE_PAGE;
        let tail = reserve - head - len;
        // SAFETY: `head + len + tail == reserve`, so both trims and the
        // advised range lie inside the mapping just made, which nothing
        // has touched yet. A failed trim leaves pages mapped but unused;
        // a failed advice (a kernel without THP) leaves 4 KiB pages,
        // the heap slab's behaviour.
        unsafe {
            let base = raw.cast::<u8>().add(head);
            if head > 0 {
                munmap(raw, head);
            }
            if tail > 0 {
                munmap(base.add(len).cast(), tail);
            }
            madvise(base.cast(), len, MADV_HUGEPAGE);
            NonNull::new(base)
        }
    }

    /// Unmaps what [`map`] returned.
    ///
    /// # Safety
    ///
    /// `base` and `len` are a mapping [`map`] returned, and nothing
    /// reads or writes it afterwards.
    pub(super) unsafe fn unmap(base: NonNull<u8>, len: usize) {
        // Nothing to do about a failure: the pages stay mapped, unused.
        munmap(base.as_ptr().cast(), len);
    }
}

/// No slab is mapped here: every slab stays on the heap.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64"),
    not(miri)
)))]
mod thp {
    use std::ptr::NonNull;

    pub(super) fn map(_len: usize) -> Option<NonNull<u8>> {
        None
    }

    /// # Safety
    ///
    /// Never called: [`map`] maps nothing.
    pub(super) unsafe fn unmap(_base: NonNull<u8>, _len: usize) {}
}

/// The slab's length, `slots * slot_len`, and that rounded up to whole
/// huge pages, checked before anything is allocated: release builds do
/// not check arithmetic, and a wrapped product would carve slots out of
/// a slab shorter than them.
fn slab_lengths(slots: usize, slot_len: usize) -> (usize, usize) {
    slots
        .checked_mul(slot_len)
        .and_then(|len| Some((len, len.checked_next_multiple_of(HUGE_PAGE)?)))
        .unwrap_or_else(|| panic!("a slab of {slots} slots x {slot_len} bytes overflows usize"))
}

/// A point-in-time counter snapshot of a [`BufPool`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Total slot count.
    pub slots: u64,
    /// Bytes per slot.
    pub slot_len: u64,
    /// Slots currently on the free list.
    pub free: u64,
    /// Allocations served from the slab.
    pub hits: u64,
    /// Heap-fallback allocations (pool empty or frame oversize).
    pub misses: u64,
    /// Slot release events (returns to the free list).
    pub recycled: u64,
    /// Heap-fallback buffers still alive.
    pub heap_live: u64,
}

impl PoolStats {
    /// Fraction of allocations served from the slab; 1.0 for an
    /// untouched pool.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl BufPool {
    /// A pool of `slots` buffers of `slot_len` bytes each.
    pub fn new(slots: usize, slot_len: usize) -> Self {
        assert!(slots >= 1, "pool needs at least one slot");
        assert!(slot_len >= 1, "slots need at least one byte");
        assert!(
            u32::try_from(slots).is_ok(),
            "{slots} slots exceed the u32 slot index"
        );
        let (len, map_len) = slab_lengths(slots, slot_len);
        let slab = Slab::new(len, map_len);
        let refs: Box<[AtomicU32]> = (0..slots).map(|_| AtomicU32::new(0)).collect();
        // LIFO free list: hand the most recently released (cache-warm)
        // slot out first.
        let free = (0..slots as u32).rev().collect();
        Self {
            inner: Arc::new(PoolInner {
                slot_len,
                slots,
                slab,
                refs,
                free: Mutex::new(free),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                recycled: AtomicU64::new(0),
                heap_live: AtomicU64::new(0),
            }),
        }
    }

    /// Pool sized to hold `n` frames of up to `frame_len` bytes.
    pub fn for_frames(n: usize, frame_len: usize) -> Self {
        Self::new(n.max(1), frame_len.max(1))
    }

    /// Copies `bytes` into a free slot and returns the handle; falls
    /// back to a heap buffer (a `miss`) when the pool is empty or the
    /// frame does not fit a slot.
    pub fn alloc(&self, bytes: &[u8]) -> PktBuf {
        let inner = &self.inner;
        if bytes.len() <= inner.slot_len {
            let slot = lock(&inner.free).pop();
            if let Some(idx) = slot {
                let prev = inner.refs[idx as usize].swap(1, Ordering::Acquire);
                debug_assert_eq!(prev, 0, "free-listed slot had live references");
                // SAFETY: the slot came off the free list with refcount
                // 0, so this thread holds it exclusively; the region is
                // in bounds by construction (idx < slots, len <= slot_len,
                // and `new` checked that slots * slot_len fits a usize).
                unsafe {
                    let base = inner.slab.base.as_ptr().add(idx as usize * inner.slot_len);
                    std::ptr::copy_nonoverlapping(bytes.as_ptr(), base, bytes.len());
                }
                inner.hits.fetch_add(1, Ordering::Relaxed);
                return PktBuf(Repr::Pooled {
                    pool: Arc::clone(inner),
                    idx,
                    len: bytes.len() as u32,
                });
            }
        }
        inner.misses.fetch_add(1, Ordering::Relaxed);
        inner.heap_live.fetch_add(1, Ordering::Relaxed);
        PktBuf(Repr::Heap(Arc::new(HeapBuf {
            bytes: bytes.to_vec().into_boxed_slice(),
            pool: Some(Arc::clone(inner)),
        })))
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PoolStats {
        let inner = &self.inner;
        PoolStats {
            slots: inner.slots as u64,
            slot_len: inner.slot_len as u64,
            free: lock(&inner.free).len() as u64,
            hits: inner.hits.load(Ordering::Relaxed),
            misses: inner.misses.load(Ordering::Relaxed),
            recycled: inner.recycled.load(Ordering::Relaxed),
            heap_live: inner.heap_live.load(Ordering::Relaxed),
        }
    }

    /// Buffers currently held by live handles: slab slots off the free
    /// list plus live heap fallbacks. Zero once every [`PktBuf`] from
    /// this pool has been dropped — the conservation invariant the
    /// chaos suite asserts.
    pub fn in_flight(&self) -> u64 {
        let s = self.stats();
        (s.slots - s.free) + s.heap_live
    }

    fn ptr_eq(&self, other: &Arc<PoolInner>) -> bool {
        Arc::ptr_eq(&self.inner, other)
    }

    /// The slab's mapping as `(address, length)`; `None` on the heap.
    #[cfg(test)]
    fn mapping(&self) -> Option<(usize, usize)> {
        let slab = &self.inner.slab;
        slab.mapped
            .then_some((slab.base.as_ptr() as usize, slab.len))
    }
}

impl std::fmt::Debug for BufPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("BufPool")
            .field("slots", &s.slots)
            .field("slot_len", &s.slot_len)
            .field("free", &s.free)
            .finish()
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // A panicking worker can poison the free list mid-push; the list
    // itself is always structurally valid, so poisoning is ignorable.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A reference-counted handle to one packet's wire bytes: a slot in a
/// [`BufPool`] (the common case) or a heap fallback. Dereferences to
/// `&[u8]`. Clone is a refcount bump; the last drop recycles the slot.
pub struct PktBuf(Repr);

enum Repr {
    Pooled {
        pool: Arc<PoolInner>,
        idx: u32,
        len: u32,
    },
    Heap(Arc<HeapBuf>),
}

struct HeapBuf {
    bytes: Box<[u8]>,
    /// The pool whose `heap_live` gauge tracks this buffer; `None` for
    /// buffers created without a pool ([`PktBuf::from_vec`]).
    pool: Option<Arc<PoolInner>>,
}

impl Drop for HeapBuf {
    fn drop(&mut self) {
        if let Some(pool) = &self.pool {
            pool.heap_live.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

impl PktBuf {
    /// Wraps an owned byte vector without a pool — for tests and
    /// ad-hoc frames; counted by no pool gauge.
    pub fn from_vec(bytes: Vec<u8>) -> Self {
        PktBuf(Repr::Heap(Arc::new(HeapBuf {
            bytes: bytes.into_boxed_slice(),
            pool: None,
        })))
    }

    /// The wire bytes.
    pub fn as_slice(&self) -> &[u8] {
        match &self.0 {
            Repr::Pooled { pool, idx, len } => {
                // SAFETY: this handle keeps the slot's refcount >= 1, so
                // no writer can touch the region; bounds as in `alloc`.
                unsafe {
                    std::slice::from_raw_parts(
                        pool.slab.base.as_ptr().add(*idx as usize * pool.slot_len),
                        *len as usize,
                    )
                }
            }
            Repr::Heap(buf) => &buf.bytes,
        }
    }

    /// The owning pool, when this handle is pooled or a pool-tracked
    /// heap fallback.
    pub fn pool(&self) -> Option<BufPool> {
        match &self.0 {
            Repr::Pooled { pool, .. } => Some(BufPool {
                inner: Arc::clone(pool),
            }),
            Repr::Heap(buf) => buf.pool.as_ref().map(|p| BufPool {
                inner: Arc::clone(p),
            }),
        }
    }

    /// The slot index — the "pool index" half of the packet-request
    /// descriptor; `None` for heap fallbacks.
    pub fn slot(&self) -> Option<u32> {
        match &self.0 {
            Repr::Pooled { idx, .. } => Some(*idx),
            Repr::Heap(_) => None,
        }
    }

    /// True when this handle belongs to `pool`'s slab or heap gauge.
    pub fn belongs_to(&self, pool: &BufPool) -> bool {
        match &self.0 {
            Repr::Pooled { pool: p, .. } => pool.ptr_eq(p),
            Repr::Heap(buf) => buf.pool.as_ref().is_some_and(|p| pool.ptr_eq(p)),
        }
    }
}

impl Clone for PktBuf {
    fn clone(&self) -> Self {
        match &self.0 {
            Repr::Pooled { pool, idx, len } => {
                pool.refs[*idx as usize].fetch_add(1, Ordering::Relaxed);
                PktBuf(Repr::Pooled {
                    pool: Arc::clone(pool),
                    idx: *idx,
                    len: *len,
                })
            }
            Repr::Heap(buf) => PktBuf(Repr::Heap(Arc::clone(buf))),
        }
    }
}

impl Drop for PktBuf {
    fn drop(&mut self) {
        if let Repr::Pooled { pool, idx, .. } = &self.0 {
            let prev = pool.refs[*idx as usize].fetch_sub(1, Ordering::Release);
            assert!(prev >= 1, "PktBuf slot {idx} released below zero");
            if prev == 1 {
                // Synchronize with every reader that just released, so
                // the next writer of this slot sees their reads retired.
                fence(Ordering::Acquire);
                lock(&pool.free).push(*idx);
                pool.recycled.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

impl Deref for PktBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::fmt::Debug for PktBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            Repr::Pooled { idx, len, .. } => {
                write!(f, "PktBuf(slot {idx}, {len} bytes)")
            }
            Repr::Heap(buf) => write!(f, "PktBuf(heap, {} bytes)", buf.bytes.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_roundtrips_bytes() {
        let pool = BufPool::new(4, 64);
        let buf = pool.alloc(b"hello pool");
        assert_eq!(&*buf, b"hello pool");
        assert_eq!(buf.slot(), Some(0));
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn last_drop_recycles_the_slot() {
        let pool = BufPool::new(1, 16);
        let a = pool.alloc(b"one");
        assert_eq!(pool.in_flight(), 1);
        let b = a.clone();
        drop(a);
        assert_eq!(pool.in_flight(), 1, "clone still holds the slot");
        drop(b);
        assert_eq!(pool.in_flight(), 0);
        assert_eq!(pool.stats().recycled, 1);
        // The recycled slot serves the next alloc.
        let c = pool.alloc(b"two");
        assert_eq!(&*c, b"two");
        assert_eq!(pool.stats().hits, 2);
        assert_eq!(pool.stats().misses, 0);
    }

    #[test]
    fn exhaustion_and_oversize_fall_back_to_heap() {
        let pool = BufPool::new(1, 8);
        let held = pool.alloc(b"resident");
        let spill = pool.alloc(b"spill");
        assert_eq!(&*spill, b"spill");
        assert_eq!(spill.slot(), None);
        let big = pool.alloc(&[7u8; 64]);
        assert_eq!(big.len(), 64);
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.heap_live), (1, 2, 2));
        assert_eq!(pool.in_flight(), 3);
        drop((held, spill, big));
        assert_eq!(pool.in_flight(), 0);
    }

    #[test]
    fn clones_share_bytes_without_copying() {
        let pool = BufPool::new(2, 32);
        let a = pool.alloc(b"shared");
        let b = a.clone();
        assert_eq!(a.as_slice().as_ptr(), b.as_slice().as_ptr());
    }

    #[test]
    fn cross_thread_release_is_conserved() {
        // A heap slab, and one of exactly one huge page, which is mapped.
        for slots in [64, HUGE_PAGE / 32] {
            let pool = BufPool::new(slots, 32);
            let bufs: Vec<PktBuf> = (0..64u8).map(|i| pool.alloc(&[i; 32])).collect();
            let clones: Vec<PktBuf> = bufs.iter().map(PktBuf::clone).collect();
            let t = std::thread::spawn(move || drop(clones));
            drop(bufs);
            t.join().unwrap();
            assert_eq!(pool.in_flight(), 0);
            assert_eq!(pool.stats().free, slots as u64);
        }
    }

    #[test]
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64"),
        not(miri)
    ))]
    fn a_slab_of_one_huge_page_or_more_is_mapped_and_aligned() {
        assert_eq!(BufPool::new(1, HUGE_PAGE - 1).mapping(), None);
        let (addr, len) = BufPool::new(1, HUGE_PAGE).mapping().expect("mapped");
        assert_eq!((addr % HUGE_PAGE, len), (0, HUGE_PAGE));
        let (addr, len) = BufPool::new(3, HUGE_PAGE / 2).mapping().expect("mapped");
        assert_eq!(
            (addr % HUGE_PAGE, len),
            (0, 2 * HUGE_PAGE),
            "whole huge pages"
        );
    }

    #[test]
    fn slots_across_a_huge_page_boundary_round_trip() {
        const SLOT: usize = 1552;
        let slots = 2 * HUGE_PAGE / SLOT;
        let straddler = HUGE_PAGE / SLOT;
        assert!(straddler * SLOT < HUGE_PAGE && (straddler + 1) * SLOT > HUGE_PAGE);
        let pool = BufPool::new(slots, SLOT);
        let fill = |i: usize| -> Vec<u8> { (0..SLOT).map(|j| (i * 7 + j) as u8).collect() };
        let bufs: Vec<PktBuf> = (0..slots).map(|i| pool.alloc(&fill(i))).collect();
        for i in [0, straddler - 1, straddler, straddler + 1, slots - 1] {
            assert_eq!(bufs[i].slot(), Some(i as u32));
            assert_eq!(&*bufs[i], &fill(i)[..], "slot {i}");
        }
        assert_eq!(pool.stats().misses, 0);
    }

    #[test]
    fn a_live_buffer_outlives_every_pool_handle() {
        let pool = BufPool::new(HUGE_PAGE / 64, 64);
        let (a, b) = (pool.alloc(b"first"), pool.alloc(b"second"));
        drop(pool);
        drop(a);
        assert_eq!(&*b, b"second");
        let pool = b.pool().expect("pooled");
        drop(b);
        assert_eq!(pool.in_flight(), 0);
        assert_eq!(pool.stats().recycled, 2);
        assert_eq!(&*pool.alloc(b"again"), b"again");
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "1048576 slots x 17592186044416 bytes overflows usize")]
    fn a_slab_length_that_overflows_panics() {
        BufPool::new(1 << 20, 1 << 44);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "4294967296 slots exceed the u32 slot index")]
    fn more_slots_than_a_u32_indexes_panic() {
        BufPool::new(u32::MAX as usize + 1, 1);
    }

    #[test]
    fn hit_rate_reflects_misses() {
        let pool = BufPool::new(1, 8);
        let _a = pool.alloc(b"a");
        let _b = pool.alloc(b"b");
        assert!((pool.stats().hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn from_vec_is_untracked() {
        let buf = PktBuf::from_vec(vec![1, 2, 3]);
        assert_eq!(&*buf, &[1, 2, 3]);
        assert!(buf.pool().is_none());
        assert_eq!(buf.slot(), None);
    }
}
