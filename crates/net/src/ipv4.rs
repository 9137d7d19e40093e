//! IPv4 header encode/parse with real header checksums and fragmentation
//! helpers (UDP messages larger than the MTU fragment at the IP layer, which
//! the paper's 64 KB sockperf workloads exercise heavily).

use crate::checksum;
use crate::ParseError;

/// IP protocol numbers used by the stack.
pub const PROTO_TCP: u8 = 6;
pub const PROTO_UDP: u8 = 17;

/// An IPv4 header (no options).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ipv4Header {
    pub src: [u8; 4],
    pub dst: [u8; 4],
    pub protocol: u8,
    pub ttl: u8,
    /// Total length: header + payload.
    pub total_len: u16,
    pub identification: u16,
    /// Don't-fragment flag.
    pub dont_fragment: bool,
    /// More-fragments flag.
    pub more_fragments: bool,
    /// Fragment offset in 8-byte units.
    pub fragment_offset: u16,
}

impl Ipv4Header {
    /// Encoded size in bytes (no options).
    pub const LEN: usize = 20;

    /// Creates a non-fragmented header.
    pub fn simple(src: [u8; 4], dst: [u8; 4], protocol: u8, payload_len: usize) -> Self {
        Self {
            src,
            dst,
            protocol,
            ttl: 64,
            total_len: (Self::LEN + payload_len) as u16,
            identification: 0,
            dont_fragment: false,
            more_fragments: false,
            fragment_offset: 0,
        }
    }

    /// The header's wire bytes, with a valid checksum.
    #[inline(always)]
    pub(crate) fn to_bytes(self) -> [u8; Self::LEN] {
        let mut flags_frag = self.fragment_offset & 0x1FFF;
        if self.dont_fragment {
            flags_frag |= 0x4000;
        }
        if self.more_fragments {
            flags_frag |= 0x2000;
        }
        let mut b = [0; Self::LEN];
        b[0] = 0x45; // version 4, IHL 5; DSCP/ECN 0
        b[2..4].copy_from_slice(&self.total_len.to_be_bytes());
        b[4..6].copy_from_slice(&self.identification.to_be_bytes());
        b[6..8].copy_from_slice(&flags_frag.to_be_bytes());
        b[8] = self.ttl;
        b[9] = self.protocol;
        b[12..16].copy_from_slice(&self.src);
        b[16..20].copy_from_slice(&self.dst);
        // Summed with its checksum field still 0.
        let ck = checksum::finish(checksum::fold_lanes(checksum::lane_sum_fixed(&b)));
        b[10..12].copy_from_slice(&ck.to_be_bytes());
        b
    }

    /// Writes the header (with a valid checksum) into `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bytes());
    }

    /// Parses and checksum-verifies a header from the front of `buf`.
    #[inline(always)]
    pub fn parse(buf: &[u8]) -> Result<(Self, &[u8]), ParseError> {
        let Some(h) = buf.first_chunk::<{ Self::LEN }>() else {
            return Err(ParseError::Truncated);
        };
        if h[0] >> 4 != 4 {
            return Err(ParseError::Malformed("ip version"));
        }
        let ihl = (h[0] & 0x0F) as usize * 4;
        let Some(options) = buf.get(Self::LEN..ihl) else {
            return Err(ParseError::Malformed("ip header length"));
        };
        // The fixed 20 bytes unrolled; options, in the rare header that
        // has any, through the general kernel.
        let mut sum = checksum::lane_sum_fixed(h);
        if !options.is_empty() {
            sum += checksum::lane_sum(options);
        }
        if checksum::fold_lanes(sum) != 0xFFFF {
            return Err(ParseError::BadChecksum("ipv4 header"));
        }
        let total_len = u16::from_be_bytes([h[2], h[3]]);
        if (total_len as usize) < ihl {
            return Err(ParseError::Malformed("ip total length"));
        }
        let flags_frag = u16::from_be_bytes([h[6], h[7]]);
        Ok((
            Self {
                src: [h[12], h[13], h[14], h[15]],
                dst: [h[16], h[17], h[18], h[19]],
                protocol: h[9],
                ttl: h[8],
                total_len,
                identification: u16::from_be_bytes([h[4], h[5]]),
                dont_fragment: flags_frag & 0x4000 != 0,
                more_fragments: flags_frag & 0x2000 != 0,
                fragment_offset: flags_frag & 0x1FFF,
            },
            &buf[ihl..],
        ))
    }

    /// True if this header describes a fragment (not a whole datagram).
    pub fn is_fragment(&self) -> bool {
        self.more_fragments || self.fragment_offset != 0
    }
}

/// Splits an IP payload into (offset-in-8-byte-units, chunk) fragments for
/// the given MTU. The MTU covers header + fragment payload; every fragment
/// except possibly the last carries a multiple of 8 payload bytes, as the
/// wire format requires.
pub fn fragment_payload(payload: &[u8], mtu: usize) -> Vec<(u16, &[u8])> {
    assert!(mtu > Ipv4Header::LEN + 8, "mtu too small to fragment");
    let max_chunk = (mtu - Ipv4Header::LEN) & !7; // round down to 8-byte units
    if payload.len() + Ipv4Header::LEN <= mtu {
        return vec![(0, payload)];
    }
    let mut frags = Vec::new();
    let mut off = 0usize;
    while off < payload.len() {
        let end = (off + max_chunk).min(payload.len());
        frags.push(((off / 8) as u16, &payload[off..end]));
        off = end;
    }
    frags
}

/// Reassembles fragments (offset-in-8-byte-units, chunk, more_fragments)
/// into the original payload. Fragments may arrive in any order. Returns
/// `None` until the datagram is complete.
#[derive(Clone, Debug, Default)]
pub struct FragmentReassembler {
    chunks: Vec<(u16, Vec<u8>)>,
    total_len: Option<usize>,
}

impl FragmentReassembler {
    /// Creates an empty reassembler for one datagram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Offers one fragment; returns the reassembled payload when complete.
    pub fn offer(&mut self, offset_units: u16, chunk: &[u8], more: bool) -> Option<Vec<u8>> {
        if !more {
            self.total_len = Some(offset_units as usize * 8 + chunk.len());
        }
        self.chunks.push((offset_units, chunk.to_vec()));
        let total = self.total_len?;
        let have: usize = self.chunks.iter().map(|(_, c)| c.len()).sum();
        if have < total {
            return None;
        }
        self.chunks.sort_by_key(|(off, _)| *off);
        let mut out = vec![0u8; total];
        for (off, c) in &self.chunks {
            let start = *off as usize * 8;
            out[start..start + c.len()].copy_from_slice(c);
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_simple() {
        let h = Ipv4Header::simple([10, 0, 0, 1], [10, 0, 0, 2], PROTO_UDP, 100);
        let mut buf = Vec::new();
        h.encode(&mut buf);
        assert_eq!(buf.len(), Ipv4Header::LEN);
        let (parsed, rest) = Ipv4Header::parse(&buf).unwrap();
        assert_eq!(parsed, h);
        assert!(rest.is_empty());
        assert!(!parsed.is_fragment());
    }

    #[test]
    fn corrupted_header_fails_checksum() {
        let h = Ipv4Header::simple([10, 0, 0, 1], [10, 0, 0, 2], PROTO_TCP, 0);
        let mut buf = Vec::new();
        h.encode(&mut buf);
        buf[8] ^= 0xFF; // flip TTL bits
        assert_eq!(
            Ipv4Header::parse(&buf).unwrap_err(),
            ParseError::BadChecksum("ipv4 header")
        );
    }

    #[test]
    fn fragment_flags_roundtrip() {
        let mut h = Ipv4Header::simple([1, 1, 1, 1], [2, 2, 2, 2], PROTO_UDP, 512);
        h.more_fragments = true;
        h.fragment_offset = 185;
        h.identification = 0xBEEF;
        let mut buf = Vec::new();
        h.encode(&mut buf);
        let (parsed, _) = Ipv4Header::parse(&buf).unwrap();
        assert!(parsed.is_fragment());
        assert!(parsed.more_fragments);
        assert_eq!(parsed.fragment_offset, 185);
        assert_eq!(parsed.identification, 0xBEEF);
    }

    #[test]
    fn small_payload_does_not_fragment() {
        let data = vec![7u8; 1000];
        let frags = fragment_payload(&data, 1500);
        assert_eq!(frags.len(), 1);
        assert_eq!(frags[0].0, 0);
        assert_eq!(frags[0].1.len(), 1000);
    }

    #[test]
    fn large_payload_fragments_on_8_byte_units() {
        let data: Vec<u8> = (0..65000u32).map(|i| i as u8).collect();
        let frags = fragment_payload(&data, 1500);
        assert!(frags.len() > 40);
        for (i, (off, chunk)) in frags.iter().enumerate() {
            if i + 1 < frags.len() {
                assert_eq!(chunk.len() % 8, 0, "non-final fragment not 8-aligned");
            }
            assert_eq!(*off as usize * 8, i * frags[0].1.len());
        }
        let total: usize = frags.iter().map(|(_, c)| c.len()).sum();
        assert_eq!(total, data.len());
    }

    #[test]
    fn reassembly_out_of_order() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i * 7) as u8).collect();
        let frags = fragment_payload(&data, 1500);
        let n = frags.len();
        let mut r = FragmentReassembler::new();
        // Offer in reverse order; completion only on the final piece.
        let mut done = None;
        for (i, (off, chunk)) in frags.iter().enumerate().rev() {
            let more = i + 1 != n;
            let res = r.offer(*off, chunk, more);
            if i == 0 {
                done = res;
            } else {
                assert!(res.is_none());
            }
        }
        assert_eq!(done.unwrap(), data);
    }

    #[test]
    fn parse_rejects_non_v4() {
        let h = Ipv4Header::simple([1, 2, 3, 4], [5, 6, 7, 8], PROTO_UDP, 0);
        let mut buf = Vec::new();
        h.encode(&mut buf);
        buf[0] = 0x65; // version 6
        assert!(matches!(
            Ipv4Header::parse(&buf),
            Err(ParseError::Malformed("ip version"))
        ));
    }
}
