//! The per-packet work a worker thread performs: everything the overlay
//! receive path would do in software — parse and checksum-verify both
//! header stacks, decapsulate, and digest the payload (standing in for the
//! copy to user space).
//!
//! The three stages are disjoint halves of the work, and all run
//! zero-copy over the frame's pooled bytes. The parse stage walks the
//! headers only ([`mflow_net::frame::walk_overlay_frame`]) and yields
//! the payload as an offset range into the frame buffer, plus the
//! header lanes of its two checksums. The checksum stage sums the
//! payload in place, once, and settles both checksums from that sum.
//! The digest reads the same slice. Every path through them pays one
//! payload sum, and no stage allocates.
//!
//! The packets of a micro-flow are independent until the stateful stage,
//! and the digest is a chain of dependent multiplies, so a thread that
//! owns a whole micro-flow steps the digests of four packets together
//! ([`process_frames`]): one definition of the digest, `digest_chains`,
//! of which the one-frame API is the one-chain instance.

use mflow_net::checksum::lane_sum;
use mflow_net::frame::{walk_overlay_frame, OverlayLanes};

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

/// Fully processes one frame: parse + decap, verify, digest.
///
/// # Panics
/// Panics on a malformed frame — the runtime generates its own valid
/// traffic, so corruption here is a bug, not an input error.
pub fn process_frame(frame: &Frame) -> PacketResult {
    digest_stage(frame.seq, summed_payload(frame))
}

/// How many packets' digest chains a micro-flow walk steps together. A
/// 64-bit multiply has 3–4 cycles of latency and one-per-cycle
/// throughput, so a lone chain leaves the multiplier idle most of the
/// time and four keep it busy: over resident MTU frames the whole walk
/// costs 430 ns/frame with one chain, 270 with two, 190 with four and
/// 190 with eight (medians on a noisy host; DESIGN.md §14).
const LOCKSTEP: usize = 4;

/// Fully processes a run of wire frames in order, appending
/// `finish(result)` per frame to `out`: [`process_frame`] on every frame,
/// with the digests of each group of four (`LOCKSTEP`) frames advanced
/// together instead of one after the other. Per group: parse and verify
/// each frame — prefetching the bytes of the frame one group ahead,
/// since this thread is the first to touch them (the first group's are
/// requested together up front) — then the group's chains in lock-step,
/// then `finish` per result. A trailing group of fewer goes frame by
/// frame.
///
/// The gain needs payloads with a common prefix: a group's chains run
/// together only as far as its shortest payload, and alone past it.
pub fn process_frames<R>(
    frames: &[Frame],
    mut finish: impl FnMut(PacketResult) -> R,
    out: &mut Vec<R>,
) {
    out.reserve(frames.len());
    frames.iter().take(LOCKSTEP).for_each(Frame::prefetch);
    let mut groups = frames.chunks_exact(LOCKSTEP);
    for (g, group) in groups.by_ref().enumerate() {
        let payloads: [&[u8]; LOCKSTEP] = std::array::from_fn(|k| {
            if let Some(next) = frames.get((g + 1) * LOCKSTEP + k) {
                next.prefetch();
            }
            summed_payload(&group[k])
        });
        let digests = digest_chains(payloads);
        for ((frame, payload), digest) in group.iter().zip(payloads).zip(digests) {
            out.push(finish(PacketResult {
                seq: frame.seq,
                digest,
                len: payload.len() as u32,
            }));
        }
    }
    for frame in groups.remainder() {
        out.push(finish(process_frame(frame)));
    }
}

/// How many stages [`process_frame`] decomposes into: parse, checksum,
/// digest ([`StagedWork`]).
pub const STAGES: usize = 3;

/// Stage 0: parse + decapsulate, the header half of the overlay parse
/// ([`walk_overlay_frame`]). Returns the payload as `(offset, len)` into
/// the frame's bytes — a borrowed view, not a copy — and the lanes the
/// checksum stage adds the payload's sum to.
fn parse_stage(frame: &Frame) -> (usize, usize, OverlayLanes) {
    let bytes = frame.bytes();
    let (parsed, lanes) = walk_overlay_frame(bytes).expect("generated frame must parse");
    let off = parsed.payload.as_ptr() as usize - bytes.as_ptr() as usize;
    (off, parsed.payload.len(), lanes)
}

/// Stage 1: checksum verification, the other half of the parse. The
/// payload is summed once, and that sum settles both the outer UDP and
/// the inner transport checksum ([`OverlayLanes::verify`]).
///
/// # Panics
/// Panics if either checksum fails, as the parse does.
fn csum_stage(payload: &[u8], lanes: &OverlayLanes) {
    lanes
        .verify(lane_sum(payload))
        .expect("generated frame must verify");
}

/// Stages 0 and 1 of a wire frame; the payload stage 2 will digest.
fn summed_payload(frame: &Frame) -> &[u8] {
    let (off, len, lanes) = parse_stage(frame);
    let payload = &frame.bytes()[off..off + len];
    csum_stage(payload, &lanes);
    payload
}

/// The payload a parsed item located inside its frame.
fn payload_at(frame: &Frame, off: u32, len: u32) -> &[u8] {
    &frame.bytes()[off as usize..(off + len) as usize]
}

/// Stage 2: digest, modelling the user-space copy and producing an
/// order-independent identity check. The one-chain instance of
/// [`digest_chains`].
fn digest_stage(seq: u64, payload: &[u8]) -> PacketResult {
    let [digest] = digest_chains([payload]);
    PacketResult {
        seq,
        digest,
        len: payload.len() as u32,
    }
}

/// The digest of each of `K` payloads, the chains advanced together.
///
/// FNV-1a at word width: the stage stands in for the copy out of the
/// pooled buffer, and a copy moves words, not bytes — so the mix
/// consumes the payload 8 bytes at a time (byte-at-a-time tail), still
/// touching every byte and still position-sensitive. Both the serial
/// reference and every parallel engine share this definition, so the
/// differential suites are unaffected by the width.
///
/// Each chain is a sequence of dependent steps, but the chains do not
/// depend on each other, and the definition fixes only the order within
/// a chain: over the whole words every payload has, the `K` chains take
/// one step each in turn, so their multiplies overlap in the pipeline;
/// then each finishes its own remaining words and byte tail alone.
fn digest_chains<const K: usize>(payloads: [&[u8]; K]) -> [u64; K] {
    let step = |digest: u64, x: u64| (digest ^ x).wrapping_mul(0x100000001b3);
    let word = |c: &[u8]| u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
    let common = payloads.iter().map(|p| p.len()).min().unwrap_or(0) / 8 * 8;
    let mut digests = [0xcbf29ce484222325u64; K];
    let heads = payloads.map(|p| &p[..common]);
    for at in (0..common).step_by(8) {
        for (digest, head) in digests.iter_mut().zip(heads) {
            *digest = step(*digest, word(&head[at..at + 8]));
        }
    }
    for (digest, payload) in digests.iter_mut().zip(payloads) {
        let mut words = payload[common..].chunks_exact(8);
        for c in &mut words {
            *digest = step(*digest, word(c));
        }
        for &b in words.remainder() {
            *digest = step(*digest, b as u64);
        }
    }
    digests
}

/// The stateful stage: `units` rounds of FNV mixing over the packet's
/// digest, standing in for the per-packet share of TCP receive
/// processing. A pure function of the packet result, so it computes the
/// same value no matter which thread runs it — the property that lets
/// state-compute replication move it from the serial merge stage onto
/// the parallel lanes without changing the delivered stream
/// ([`crate::RuntimeConfig::stateful_mode`]).
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

/// A packet part-way through the [`STAGES`] of [`process_frame`], one
/// stage at a time: the decomposition FALCON pipelines across cores in
/// the simulator, kept here so that each stage can be run and timed on
/// its own. Every runtime worker runs all three at once
/// ([`process_frames`]).
///
/// Intermediate states keep the pooled frame handle and address the
/// payload by range, so a staged packet holds no copy of its bytes.
#[derive(Debug)]
pub enum StagedWork {
    /// Untouched wire frame.
    Raw(Frame),
    /// After parse: the payload located inside the frame's buffer, and
    /// the header lanes its checksums need.
    Parsed {
        /// The frame whose buffer holds the payload.
        frame: Frame,
        /// Payload offset into the frame bytes.
        off: u32,
        /// Payload length in bytes.
        len: u32,
        /// What the checksum stage adds the payload's sum to.
        lanes: OverlayLanes,
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
                let (off, len, lanes) = parse_stage(&frame);
                StagedWork::Parsed {
                    frame,
                    off: off as u32,
                    len: len as u32,
                    lanes,
                }
            }
            StagedWork::Parsed {
                frame,
                off,
                len,
                lanes,
            } => {
                csum_stage(payload_at(&frame, off, len), &lanes);
                StagedWork::Summed { frame, off, len }
            }
            StagedWork::Summed { frame, off, len } => {
                StagedWork::Done(digest_stage(frame.seq, payload_at(&frame, off, len)))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::generate_frames;

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
    fn a_corrupt_payload_passes_the_parse_stage_and_fails_the_checksum_stage() {
        fn panic_message<R: std::fmt::Debug>(work: impl FnOnce() -> R) -> String {
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(work))
                .expect_err("must panic");
            payload.downcast::<String>().map(|m| *m).unwrap_or_default()
        }
        let mut bytes = generate_frames(1, 64)[0].bytes().to_vec();
        *bytes.last_mut().unwrap() ^= 0x01;
        let bad = Frame::from_vec(0, bytes);
        // Stage 0 walks the headers only: it cannot see the payload.
        let parsed = StagedWork::Raw(bad.clone()).advance();
        assert!(
            matches!(parsed, StagedWork::Parsed { len: 64, .. }),
            "{parsed:?}"
        );
        // Stage 1 sums it, and the outer checksum speaks first.
        let at_csum = panic_message(|| parsed.advance());
        assert!(at_csum.contains(r#"BadChecksum("outer udp")"#), "{at_csum}");
        let whole = panic_message(|| process_frame(&bad));
        assert!(whole.contains(r#"BadChecksum("outer udp")"#), "{whole}");
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
}
