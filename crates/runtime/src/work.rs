//! The per-packet work a worker thread performs: everything the overlay
//! receive path would do in software — parse and checksum-verify both
//! header stacks, decapsulate, and digest the payload (standing in for the
//! copy to user space).
//!
//! All three stages run zero-copy over the frame's pooled bytes: the
//! parse stage yields the payload as an offset range into the frame
//! buffer ([`mflow_net::frame::parse_overlay_frame_ref`]), and checksum
//! and digest read that slice in place. No stage allocates.

use mflow_net::checksum::ones_complement_sum;
use mflow_net::frame::parse_overlay_frame_ref;

use crate::packet::Frame;

/// Result of processing one frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PacketResult {
    /// Original position in the flow.
    pub seq: u64,
    /// FNV-1a digest of the decapsulated payload.
    pub digest: u64,
    /// Payload bytes.
    pub len: u32,
}

/// Fully processes one frame: parse + verify + decap + digest.
///
/// # Panics
/// Panics on a malformed frame — the runtime generates its own valid
/// traffic, so corruption here is a bug, not an input error.
pub fn process_frame(frame: &Frame) -> PacketResult {
    let (off, len) = parse_stage(frame);
    let payload = &frame.bytes()[off..off + len];
    csum_stage(payload);
    digest_stage(frame.seq, payload)
}

/// Runs `work` over a batch in order, appending each output to `out`,
/// with one frame of lookahead: before item *k* is worked on, the bytes
/// of item *k + 1*'s frame are prefetched, so the cache misses of the
/// next frame overlap the parse, checksum and digest of this one instead
/// of stalling them line by line. Every site where a thread touches
/// frame bytes for the first time — lane workers, the dispatcher's inline
/// path, the chain head, the serial baseline — runs its per-frame work
/// through this loop.
///
/// `upcoming` looks at the iterator's remaining items without taking one
/// (`as_slice().first()` on a `Vec` or slice iterator): peeking in place
/// keeps the loop from moving every item a second time, which a
/// `Peekable` did at a measured 7 % of `elephant64` throughput.
pub fn process_batch<I: Iterator, R>(
    mut items: I,
    upcoming: impl Fn(&I) -> Option<&Frame>,
    mut work: impl FnMut(I::Item) -> R,
    out: &mut Vec<R>,
) {
    out.reserve(items.size_hint().0);
    while let Some(item) = items.next() {
        if let Some(next) = upcoming(&items) {
            next.prefetch();
        }
        out.push(work(item));
    }
}

/// How many pipelined stages [`process_frame`] decomposes into: parse,
/// checksum, digest. FALCON chains contiguous groups of these across
/// workers instead of fanning batches out.
pub const STAGES: usize = 3;

/// Stage 0: parse + decapsulate. Returns the payload as `(offset, len)`
/// into the frame's bytes — a borrowed view, not a copy.
fn parse_stage(frame: &Frame) -> (usize, usize) {
    let bytes = frame.bytes();
    let parsed = parse_overlay_frame_ref(bytes).expect("generated frame must parse");
    let off = parsed.payload.as_ptr() as usize - bytes.as_ptr() as usize;
    (off, parsed.payload.len())
}

/// Stage 1: checksum verification over the decapsulated payload.
fn csum_stage(payload: &[u8]) {
    let _csum = ones_complement_sum(payload, 0);
}

/// Stage 2: digest, modelling the user-space copy and producing an
/// order-independent identity check.
///
/// FNV-1a at word width: the stage stands in for the copy out of the
/// pooled buffer, and a copy moves words, not bytes — so the mix
/// consumes the payload 8 bytes at a time (byte-at-a-time tail), still
/// touching every byte and still position-sensitive. Both the serial
/// reference and every parallel engine share this definition, so the
/// differential suites are unaffected by the width.
fn digest_stage(seq: u64, payload: &[u8]) -> PacketResult {
    let mut digest = 0xcbf29ce484222325u64;
    let mut chunks = payload.chunks_exact(8);
    for c in &mut chunks {
        digest ^= u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        digest = digest.wrapping_mul(0x100000001b3);
    }
    for &b in chunks.remainder() {
        digest ^= b as u64;
        digest = digest.wrapping_mul(0x100000001b3);
    }
    PacketResult {
        seq,
        digest,
        len: payload.len() as u32,
    }
}

/// The stateful stage: `units` rounds of FNV mixing over the packet's
/// digest, standing in for the per-packet share of TCP receive
/// processing. A pure function of the packet result, so it computes the
/// same value no matter which thread runs it — the property that lets
/// state-compute replication move it from the serial merge stage onto
/// the parallel lanes without changing the delivered stream
/// ([`crate::pipeline::RuntimeConfig::stateful_mode`]).
///
/// `units == 0` is the identity: no stateful work configured.
pub fn stateful_stage(r: PacketResult, units: u32) -> PacketResult {
    if units == 0 {
        return r;
    }
    let mut digest = r.digest ^ r.seq.wrapping_mul(0x9e3779b97f4a7c15);
    for round in 0..units as u64 {
        digest ^= round.wrapping_add(r.len as u64);
        digest = digest.wrapping_mul(0x100000001b3);
    }
    PacketResult { digest, ..r }
}

/// A packet part-way through the staged pipeline — the unit FALCON chain
/// workers hand to the next hop after applying their stage group.
///
/// Intermediate states keep the pooled frame handle and address the
/// payload by range, so forwarding a batch down the chain moves
/// descriptors, never payload bytes.
#[derive(Debug)]
pub enum StagedWork {
    /// Untouched wire frame.
    Raw(Frame),
    /// After parse: the payload located inside the frame's buffer.
    Parsed {
        /// The frame whose buffer holds the payload.
        frame: Frame,
        /// Payload offset into the frame bytes.
        off: u32,
        /// Payload length in bytes.
        len: u32,
    },
    /// After checksum verification.
    Summed {
        /// The frame whose buffer holds the payload.
        frame: Frame,
        /// Payload offset into the frame bytes.
        off: u32,
        /// Payload length in bytes.
        len: u32,
    },
    /// Fully processed.
    Done(PacketResult),
}

impl StagedWork {
    /// Applies the next pipeline stage; `Done` is a fixed point.
    pub fn advance(self) -> StagedWork {
        match self {
            StagedWork::Raw(frame) => {
                let (off, len) = parse_stage(&frame);
                StagedWork::Parsed {
                    frame,
                    off: off as u32,
                    len: len as u32,
                }
            }
            StagedWork::Parsed { frame, off, len } => {
                csum_stage(&frame.bytes()[off as usize..(off + len) as usize]);
                StagedWork::Summed { frame, off, len }
            }
            StagedWork::Summed { frame, off, len } => {
                let payload = &frame.bytes()[off as usize..(off + len) as usize];
                StagedWork::Done(digest_stage(frame.seq, payload))
            }
            done @ StagedWork::Done(_) => done,
        }
    }

    /// Applies the next `n` stages.
    pub fn advance_n(self, n: usize) -> StagedWork {
        (0..n).fold(self, |w, _| w.advance())
    }

    /// Applies every remaining stage. Equivalent to [`process_frame`]
    /// from any intermediate state.
    pub fn complete(self) -> PacketResult {
        match self.advance_n(STAGES) {
            StagedWork::Done(r) => r,
            _ => unreachable!("STAGES advances always reach Done"),
        }
    }
}

/// A wire frame enters the staged pipeline untouched.
impl From<Frame> for StagedWork {
    fn from(frame: Frame) -> Self {
        StagedWork::Raw(frame)
    }
}

/// Splits the [`STAGES`] pipeline stages into `groups` contiguous,
/// front-loaded groups: FALCON's device level (2 groups) gets
/// `[parse+checksum | digest]`, the function level (3 groups) one stage
/// per worker.
pub fn stage_group_sizes(groups: usize) -> Vec<usize> {
    let groups = groups.clamp(1, STAGES);
    (0..groups)
        .map(|i| STAGES / groups + usize::from(i < STAGES % groups))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{frame_wire_len, generate_frames, generate_frames_into};
    use crate::pool::BufPool;

    #[test]
    fn process_batch_equals_per_frame_processing_and_returns_every_buffer() {
        // Mixed payload sizes — empty, sub-line, line-straddling, MTU —
        // cycling through one pool, so neighbours differ in length.
        let sizes = [0usize, 1, 64, 63, 1448, 200, 65];
        let pool = BufPool::for_frames(33, frame_wire_len(1448));
        let frames: Vec<Frame> = (0..33)
            .map(|i| generate_frames_into(&pool, 1, sizes[i % sizes.len()]).remove(0))
            .collect();
        let in_flight = pool.in_flight();
        for n in [0usize, 1, 2, 33] {
            let expected: Vec<PacketResult> = frames[..n].iter().map(process_frame).collect();
            // Borrowed, as the serial baseline runs it ...
            let mut by_ref = Vec::new();
            process_batch(
                frames[..n].iter(),
                |rest| rest.as_slice().first(),
                process_frame,
                &mut by_ref,
            );
            assert_eq!(by_ref, expected, "borrowed batch of {n}");
            // ... and consuming cloned handles, as a lane worker does.
            let mut owned = Vec::new();
            let handles: Vec<Frame> = frames[..n].to_vec();
            process_batch(
                handles.into_iter(),
                |rest| rest.as_slice().first(),
                |f| process_frame(&f),
                &mut owned,
            );
            assert_eq!(owned, expected, "owned batch of {n}");
            assert_eq!(pool.in_flight(), in_flight, "batch of {n} leaked a buffer");
        }
        // Appends: earlier contents of `out` are the caller's.
        let mut out = vec![process_frame(&frames[0])];
        process_batch(
            frames[1..3].iter(),
            |rest| rest.as_slice().first(),
            process_frame,
            &mut out,
        );
        assert_eq!(
            out,
            frames[..3].iter().map(process_frame).collect::<Vec<_>>()
        );
    }

    #[test]
    fn digest_is_deterministic() {
        let frames = generate_frames(4, 128);
        let a = process_frame(&frames[2]);
        let b = process_frame(&frames[2]);
        assert_eq!(a, b);
    }

    #[test]
    fn digests_differ_across_packets() {
        let frames = generate_frames(16, 128);
        let mut seen = std::collections::BTreeSet::new();
        for f in &frames {
            seen.insert(process_frame(f).digest);
        }
        assert_eq!(seen.len(), 16);
    }

    #[test]
    fn result_carries_seq_and_len() {
        let frames = generate_frames(2, 99);
        let r = process_frame(&frames[1]);
        assert_eq!(r.seq, 1);
        assert_eq!(r.len, 99);
    }

    #[test]
    fn staged_pipeline_equals_process_frame() {
        let frames = generate_frames(6, 200);
        for f in &frames {
            let whole = process_frame(f);
            // From every intermediate depth, completing must agree.
            for head in 0..=STAGES {
                let staged = StagedWork::Raw(f.clone()).advance_n(head).complete();
                assert_eq!(staged, whole, "diverged after {head} staged steps");
            }
        }
    }

    #[test]
    fn staged_work_shares_the_pooled_buffer() {
        let frames = generate_frames(1, 64);
        let pool = frames[0].buf().pool().unwrap();
        let staged = StagedWork::Raw(frames[0].clone()).advance();
        // Raw -> Parsed kept the same slot alive: no new allocation.
        assert_eq!(pool.stats().misses, 0);
        match &staged {
            StagedWork::Parsed { frame, len, .. } => {
                assert_eq!(*len, 64);
                assert_eq!(frame.buf().slot(), frames[0].buf().slot());
            }
            other => panic!("expected Parsed, got {other:?}"),
        }
        drop(staged);
        drop(frames);
        assert_eq!(pool.in_flight(), 0);
    }

    #[test]
    fn stateful_stage_is_pure_and_thread_independent() {
        let frames = generate_frames(4, 96);
        let r = process_frame(&frames[1]);
        let a = stateful_stage(r, 17);
        let b = stateful_stage(r, 17);
        assert_eq!(a, b, "same input must give the same transition");
        assert_eq!(a.seq, r.seq);
        assert_eq!(a.len, r.len);
        assert_ne!(a.digest, r.digest, "17 rounds must transform the digest");
    }

    #[test]
    fn stateful_stage_zero_units_is_identity() {
        let frames = generate_frames(1, 64);
        let r = process_frame(&frames[0]);
        assert_eq!(stateful_stage(r, 0), r);
    }

    #[test]
    fn stateful_stage_units_change_the_digest() {
        let frames = generate_frames(1, 64);
        let r = process_frame(&frames[0]);
        assert_ne!(stateful_stage(r, 1).digest, stateful_stage(r, 2).digest);
    }

    #[test]
    fn stage_groups_partition_the_pipeline() {
        assert_eq!(stage_group_sizes(1), vec![3]);
        assert_eq!(stage_group_sizes(2), vec![2, 1], "device level front-loads");
        assert_eq!(stage_group_sizes(3), vec![1, 1, 1]);
        // Clamped: more groups than stages degenerate to one per stage.
        assert_eq!(stage_group_sizes(9), vec![1, 1, 1]);
        for g in 1..=3 {
            assert_eq!(stage_group_sizes(g).iter().sum::<usize>(), STAGES);
        }
    }
}
