//! Differential test of the lock-step digest kernel against the digest's
//! definition: FNV-1a from the 64-bit offset basis over the payload's
//! little-endian whole words, then over its remaining bytes one at a
//! time — one chain, one packet, nothing overlapped. The serial oracle
//! shares the kernel with every engine, so the differential suites
//! cannot see a digest that drifts on both sides at once; the
//! spelled-out definition and the golden literals below can.

use mflow_net::frame::{build_overlay_frame, OverlayFrameSpec};
use mflow_runtime::work::process_frames;
use mflow_runtime::{frame_wire_len, generate_frames, process_frame, BufPool, Frame, PacketResult};

/// The definition, literally.
fn reference_digest(payload: &[u8]) -> u64 {
    let mut digest = 0xcbf29ce484222325u64;
    let whole = payload.len() / 8 * 8;
    for word in payload[..whole].chunks(8) {
        let mut le = 0u64;
        for (i, &b) in word.iter().enumerate() {
            le |= (b as u64) << (8 * i);
        }
        digest = (digest ^ le).wrapping_mul(0x100000001b3);
    }
    for &b in &payload[whole..] {
        digest = (digest ^ b as u64).wrapping_mul(0x100000001b3);
    }
    digest
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

const MAX_LEN: usize = 1600;

/// A pooled frame carrying `len` fresh random payload bytes, and the
/// result the definition gives it.
fn frame_of(pool: &BufPool, rng: &mut u64, seq: u64, len: usize) -> (Frame, PacketResult) {
    let payload: Vec<u8> = (0..len).map(|_| xorshift(rng) as u8).collect();
    let expected = PacketResult {
        seq,
        digest: reference_digest(&payload),
        len: len as u32,
    };
    let spec = OverlayFrameSpec::example_tcp(1, seq as u32, payload);
    (
        Frame::new(seq, pool.alloc(&build_overlay_frame(&spec))),
        expected,
    )
}

/// Payload lengths as the group walk must cope with them: empties and
/// sub-word tails, the two benchmark sizes, and anything in between.
fn mixed_len(rng: &mut u64) -> usize {
    match xorshift(rng) % 4 {
        0 => (xorshift(rng) % 17) as usize,
        1 => 64,
        2 => 1448,
        _ => (xorshift(rng) % (MAX_LEN as u64 + 1)) as usize,
    }
}

#[test]
fn process_frame_matches_the_definition_at_every_length() {
    let pool = BufPool::for_frames(1, frame_wire_len(MAX_LEN));
    let mut rng = 0x9E3779B97F4A7C15u64;
    for len in 0..=MAX_LEN {
        let (frame, expected) = frame_of(&pool, &mut rng, len as u64, len);
        assert_eq!(process_frame(&frame), expected, "len {len}");
    }
    assert_eq!(pool.in_flight(), 0);
}

#[test]
fn group_walks_match_frame_by_frame_over_unequal_runs() {
    const MAX_RUN: usize = 13;
    let pool = BufPool::for_frames(MAX_RUN, frame_wire_len(MAX_LEN));
    let mut rng = 0xD1B54A32D192ED03u64;
    let (mut empties, mut unequal_groups) = (0, 0);
    for round in 0..40 {
        for n in 0..=MAX_RUN {
            let (frames, expected): (Vec<Frame>, Vec<PacketResult>) = (0..n)
                .map(|k| {
                    let len = mixed_len(&mut rng);
                    frame_of(&pool, &mut rng, (round * 100 + k) as u64, len)
                })
                .unzip();
            empties += expected.iter().filter(|r| r.len == 0).count();
            unequal_groups += expected
                .chunks_exact(4)
                .filter(|g| g.iter().any(|r| r.len != g[0].len))
                .count();
            let one_by_one: Vec<PacketResult> = frames.iter().map(process_frame).collect();
            assert_eq!(one_by_one, expected, "round {round} run of {n}");

            // Appends after the caller's contents, `finish` applied to
            // every result in order.
            let marker = PacketResult {
                seq: u64::MAX,
                digest: 0,
                len: 0,
            };
            let tag = |r: PacketResult| (r, r.seq);
            let tagged: Vec<_> = std::iter::once(marker)
                .chain(expected.clone())
                .map(tag)
                .collect();
            let mut out = vec![tag(marker)];
            process_frames(&frames, tag, &mut out);
            assert_eq!(out, tagged, "round {round} run of {n}");
        }
    }
    assert!(empties > 20, "only {empties} empty payloads drawn");
    assert!(
        unequal_groups > 100,
        "only {unequal_groups} unequal groups drawn"
    );
    assert_eq!(pool.in_flight(), 0);
}

/// `process_frame(&generate_frames(1, n)[0]).digest` as the parent of the
/// lock-step kernel (2cf3956) computed it.
const GOLDEN: [(usize, u64); 7] = [
    (0, 0xcbf29ce484222325),
    (1, 0xaf63fc4c860222ec),
    (7, 0x8b33f28f7b37183e),
    (8, 0x5d070744a6582fec),
    (9, 0x6b206ca6a7d7fd49),
    (64, 0xc090929ee0f4120b),
    (1448, 0x0bdbaf2798367b6c),
];

#[test]
fn generated_frames_keep_their_golden_digests() {
    for (len, digest) in GOLDEN {
        let expected = PacketResult {
            seq: 0,
            digest,
            len: len as u32,
        };
        let frame = generate_frames(1, len).remove(0);
        assert_eq!(process_frame(&frame), expected, "len {len}");
        // The same frame at each position of a full group and of the
        // remainder behind it.
        let run = vec![frame; 7];
        let mut out = Vec::new();
        process_frames(&run, |r| r, &mut out);
        assert_eq!(out, vec![expected; 7], "len {len}");
    }
}
