//! Real frame generation for the runtime: a stream of VXLAN-encapsulated
//! TCP segments of one flow, with sequence numbers embedded so loss,
//! duplication and reordering are all detectable downstream.
//!
//! Frames are built directly into [`BufPool`] slots: a [`Frame`] is a
//! sequence number plus a [`PktBuf`] descriptor handle, so cloning one
//! bumps a refcount instead of copying wire bytes. The dispatcher clones
//! none: lanes get descriptors over the caller's frame slice, and the
//! retained windows hold descriptors too. A lane head's staged work,
//! which outlives its stage, is what clones a handle.

use mflow_net::ethernet::{EtherType, EthernetHeader};
use mflow_net::frame::{build_overlay_frame_into, OverlayFrameSpec, OVERLAY_HEADER_BYTES};
use mflow_net::ipv4::{Ipv4Header, PROTO_UDP};
use mflow_net::pcap::visit_pcap_records;
use mflow_net::ParseError;

use crate::pool::{BufPool, PktBuf};

/// One wire frame plus its position in the flow.
#[derive(Clone, Debug)]
pub struct Frame {
    /// Position in the original flow (the ground-truth order).
    pub seq: u64,
    /// The complete overlay frame bytes, as a pooled buffer handle.
    buf: PktBuf,
}

impl Frame {
    /// Wraps a buffer handle with its flow position.
    pub fn new(seq: u64, buf: PktBuf) -> Self {
        Self { seq, buf }
    }

    /// Builds a frame from owned bytes without a pool (tests, ad-hoc
    /// traffic).
    pub fn from_vec(seq: u64, bytes: Vec<u8>) -> Self {
        Self::new(seq, PktBuf::from_vec(bytes))
    }

    /// The complete overlay frame bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// The underlying buffer handle.
    pub fn buf(&self) -> &PktBuf {
        &self.buf
    }

    /// Asks the cache hierarchy to start loading this frame's bytes, one
    /// request per 64-byte line, so that a thread about to touch them for
    /// the first time finds them on their way instead of stalling on each
    /// line in turn. A hint only: no effect on program state, and a
    /// no-op off x86-64 and under Miri.
    #[inline]
    pub(crate) fn prefetch(&self) {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        {
            use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let bytes = self.bytes();
            // One request per line the buffer overlaps: `chunks(64)` steps
            // from the first byte, so when that byte is not line-aligned
            // the last byte can sit one line past the last chunk's start.
            let touch = |byte: &u8| {
                // SAFETY: the pointer comes from a reference into the live
                // `&[u8]` borrowed from `self`; PREFETCHT0 is a hint that
                // cannot fault and has no architectural effect on memory.
                unsafe { _mm_prefetch::<_MM_HINT_T0>((byte as *const u8).cast()) };
            };
            bytes.chunks(64).for_each(|line| touch(&line[0]));
            if let Some(last) = bytes.last() {
                touch(last);
            }
        }
    }

    /// The receive-side flow hash: FNV-1a over the outer IP addresses
    /// and the UDP *source* port — the fields that carry flow identity
    /// for tunneled traffic. Encapsulators derive the outer source port
    /// from the inner flow's entropy, while the destination port only
    /// names the tunnel type (4789 VXLAN, 6081 Geneve), so the same
    /// overlay flow hashes identically under either encapsulation.
    /// Steering policies key on this to pin or spread flows.
    ///
    /// Field offsets are derived from the parsed outer headers (the
    /// Ethernet header and the IPv4 IHL), so frames carrying IPv4
    /// options hash their real addresses and ports rather than whatever
    /// bytes sit at the no-options offsets.
    pub fn try_flow_hash(&self) -> Result<u32, ParseError> {
        let bytes = self.bytes();
        let (eth, rest) = EthernetHeader::parse(bytes)?;
        if eth.ethertype != EtherType::Ipv4 {
            return Err(ParseError::Malformed("outer ethertype"));
        }
        let (ip, l4) = Ipv4Header::parse(rest)?;
        if ip.protocol != PROTO_UDP {
            return Err(ParseError::Malformed("outer protocol"));
        }
        if l4.len() < 2 {
            return Err(ParseError::Truncated);
        }
        // Hash in wire order: src IP, dst IP, UDP source port.
        let mut h = 0x811c9dc5u32;
        for &b in ip.src.iter().chain(&ip.dst).chain(&l4[..2]) {
            h ^= b as u32;
            h = h.wrapping_mul(0x01000193);
        }
        Ok(h)
    }

    /// Infallible [`Self::try_flow_hash`].
    ///
    /// # Panics
    /// Panics on a frame whose outer headers do not parse — the runtime
    /// generates its own valid traffic, so corruption here is a bug,
    /// not an input error.
    pub fn flow_hash(&self) -> u32 {
        self.try_flow_hash()
            .expect("generated frame must have parseable outer headers")
    }
}

/// Wire length of a generated overlay frame with `payload_len` payload
/// bytes — the slot size [`generate_frames`] pools for.
pub fn frame_wire_len(payload_len: usize) -> usize {
    OVERLAY_HEADER_BYTES + payload_len
}

/// Builds `n` frames of one TCP flow with `payload_len`-byte payloads,
/// pooled in a dedicated [`BufPool`] sized exactly for them (reachable
/// through [`Frame::buf`]).
///
/// Payload content is derived from the sequence number, so the digest a
/// worker computes identifies the packet — any mix-up surfaces as a digest
/// mismatch, not just an ordering error.
pub fn generate_frames(n: usize, payload_len: usize) -> Vec<Frame> {
    let pool = BufPool::for_frames(n, frame_wire_len(payload_len));
    generate_frames_into(&pool, n, payload_len)
}

/// [`generate_frames`] into a caller-owned pool: one spec whose sequence
/// number and payload bytes advance in place, one reused scratch vector,
/// one slab copy per frame, no per-frame heap allocation — the
/// steady-state recycle path the benches measure.
pub fn generate_frames_into(pool: &BufPool, n: usize, payload_len: usize) -> Vec<Frame> {
    let mut scratch = Vec::with_capacity(frame_wire_len(payload_len));
    let mut spec = OverlayFrameSpec::example_tcp(1, 0, vec![0u8; payload_len]);
    (0..n as u64)
        .map(|seq| {
            spec.tcp_seq = (seq as u32).wrapping_mul(1448);
            let mut x = seq.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
            for b in spec.payload.iter_mut() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *b = x as u8;
            }
            build_overlay_frame_into(&spec, &mut scratch);
            Frame::new(seq, pool.alloc(&scratch))
        })
        .collect()
}

/// Replays a pcap byte stream into pooled frames: each record is copied
/// once, straight into a slab slot, and numbered in capture order.
/// Returns the error of a malformed or truncated capture.
pub fn frames_from_pcap(pool: &BufPool, data: &[u8]) -> Result<Vec<Frame>, ParseError> {
    let mut frames = Vec::new();
    visit_pcap_records(data, |_ts_ns, record| {
        let seq = frames.len() as u64;
        frames.push(Frame::new(seq, pool.alloc(record)));
    })?;
    Ok(frames)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mflow_net::frame::{build_geneve_frame, build_overlay_frame, parse_overlay_frame};
    use mflow_net::pcap::PcapWriter;

    #[test]
    fn generated_frames_parse_and_differ() {
        let frames = generate_frames(8, 256);
        assert_eq!(frames.len(), 8);
        let mut payloads = std::collections::BTreeSet::new();
        for f in &frames {
            let parsed = parse_overlay_frame(f.bytes()).unwrap();
            assert_eq!(parsed.payload.len(), 256);
            payloads.insert(parsed.payload);
        }
        assert_eq!(payloads.len(), 8, "payloads must be distinct per seq");
    }

    #[test]
    fn sequence_numbers_are_dense() {
        let frames = generate_frames(100, 16);
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(f.seq, i as u64);
        }
    }

    #[test]
    fn empty_payload_frames_are_valid() {
        let frames = generate_frames(3, 0);
        for f in &frames {
            assert!(parse_overlay_frame(f.bytes()).is_ok());
        }
    }

    #[test]
    fn flow_hash_is_constant_across_one_flow() {
        let frames = generate_frames(64, 128);
        let h = frames[0].flow_hash();
        assert!(frames.iter().all(|f| f.flow_hash() == h));
    }

    #[test]
    fn generation_is_pooled_and_slots_recycle() {
        let pool = BufPool::for_frames(16, frame_wire_len(64));
        let frames = generate_frames_into(&pool, 16, 64);
        let s = pool.stats();
        assert_eq!(s.hits, 16);
        assert_eq!(s.misses, 0);
        assert_eq!(pool.in_flight(), 16);
        drop(frames);
        assert_eq!(pool.in_flight(), 0, "every frame buffer returns to the pool");
        // The next generation reuses the recycled slots.
        let again = generate_frames_into(&pool, 16, 64);
        assert_eq!(pool.stats().misses, 0);
        assert_eq!(again.len(), 16);
    }

    #[test]
    fn flow_hash_matches_geneve_and_survives_ipv4_options() {
        // Same outer flow under a different tunnel: identical hash,
        // since only outer addresses and ports are keyed.
        let spec = OverlayFrameSpec::example_tcp(1, 0, vec![5u8; 32]);
        let vxlan = Frame::from_vec(0, build_overlay_frame(&spec));
        let geneve = Frame::from_vec(1, build_geneve_frame(&spec));
        assert_eq!(vxlan.flow_hash(), geneve.flow_hash());

        // Inject 4 bytes of IPv4 options into the outer header (IHL 6,
        // padded no-ops) and refresh the header checksum: the derived
        // offsets must still find the real ports.
        let mut bytes = build_overlay_frame(&spec);
        bytes.splice(34..34, [0x01, 0x01, 0x01, 0x01]);
        bytes[14] = 0x46; // version 4, IHL 6
        bytes[24] = 0; // zero the stored checksum ...
        bytes[25] = 0;
        let ck = mflow_net::checksum::checksum(&bytes[14..38]);
        bytes[24..26].copy_from_slice(&ck.to_be_bytes());
        let with_options = Frame::from_vec(2, bytes);
        assert_eq!(
            with_options.flow_hash(),
            vxlan.flow_hash(),
            "IPv4 options must not shift the hashed fields"
        );
    }

    #[test]
    fn malformed_outer_headers_hash_to_a_typed_error() {
        assert!(Frame::from_vec(0, vec![0u8; 10]).try_flow_hash().is_err());
        let mut bytes = build_overlay_frame(&OverlayFrameSpec::example_tcp(1, 0, vec![]));
        bytes[12] = 0x08; // ethertype -> ARP
        bytes[13] = 0x06;
        assert!(matches!(
            Frame::from_vec(0, bytes).try_flow_hash(),
            Err(ParseError::Malformed("outer ethertype"))
        ));
    }

    #[test]
    fn pcap_replay_builds_into_the_pool() {
        let specs: Vec<Vec<u8>> = (0..5u64)
            .map(|i| {
                build_overlay_frame(&OverlayFrameSpec::example_tcp(i, i as u32, vec![i as u8; 40]))
            })
            .collect();
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for (i, f) in specs.iter().enumerate() {
            w.write_frame(i as u64 * 1000, f).unwrap();
        }
        let capture = w.finish().unwrap();
        let pool = BufPool::for_frames(5, 256);
        let frames = frames_from_pcap(&pool, &capture).unwrap();
        assert_eq!(frames.len(), 5);
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(f.seq, i as u64);
            assert_eq!(f.bytes(), &specs[i][..]);
            assert!(f.buf().slot().is_some(), "records must land in slab slots");
        }
        assert!(frames_from_pcap(&pool, &capture[..capture.len() - 3]).is_err());
    }
}
