//! TCP header with pseudo-header checksum (no options beyond what the
//! simulator needs; window scale is applied out of band by the stack model).

use crate::checksum;
use crate::ipv4::PROTO_TCP;
use crate::ParseError;

/// TCP flag bits.
pub mod flags {
    pub const FIN: u8 = 0x01;
    pub const SYN: u8 = 0x02;
    pub const RST: u8 = 0x04;
    pub const PSH: u8 = 0x08;
    pub const ACK: u8 = 0x10;
}

/// A TCP header (data offset fixed at 5 words, no options).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TcpHeader {
    pub src_port: u16,
    pub dst_port: u16,
    pub seq: u32,
    pub ack: u32,
    pub flags: u8,
    pub window: u16,
    pub checksum: u16,
}

impl TcpHeader {
    /// Encoded size in bytes.
    pub const LEN: usize = 20;

    /// Builds a data segment header with a valid checksum.
    #[allow(clippy::too_many_arguments)] // mirrors the wire field order
    pub fn for_payload(
        src_port: u16,
        dst_port: u16,
        seq: u32,
        ack: u32,
        flags: u8,
        window: u16,
        src_ip: [u8; 4],
        dst_ip: [u8; 4],
        payload: &[u8],
    ) -> Self {
        Self {
            src_port,
            dst_port,
            seq,
            ack,
            flags,
            window,
            checksum: 0,
        }
        .sealed(src_ip, dst_ip, payload.len(), checksum::lane_sum(payload))
    }

    /// This header with the checksum of a `payload_len`-byte payload whose
    /// [`checksum::lane_sum`] is `payload_lanes`: [`Self::for_payload`]
    /// for a caller that has summed the payload already.
    #[inline(always)]
    pub(crate) fn sealed(
        mut self,
        src_ip: [u8; 4],
        dst_ip: [u8; 4],
        payload_len: usize,
        payload_lanes: u64,
    ) -> Self {
        self.checksum = 0;
        let lanes = self.header_lanes(src_ip, dst_ip, payload_len) + payload_lanes;
        self.checksum = checksum::finish(checksum::fold_lanes(lanes));
        self
    }

    /// Lane sum ([`checksum::lane_sum`]) of the pseudo-header and this
    /// header's wire words — the same big-endian words [`Self::encode`]
    /// emits, each as the machine would load it, including the
    /// `data offset | flags` word and the zero urgent pointer. The
    /// header is an even number of bytes, so a payload's lane sum adds
    /// straight on.
    #[inline(always)]
    pub(crate) fn header_lanes(&self, src_ip: [u8; 4], dst_ip: [u8; 4], payload_len: usize) -> u64 {
        let len = (Self::LEN + payload_len) as u16;
        checksum::pseudo_header_lanes(src_ip, dst_ip, PROTO_TCP, len)
            + self.src_port.to_be() as u64
            + self.dst_port.to_be() as u64
            + self.seq.to_be() as u64
            + self.ack.to_be() as u64
            + u16::from_ne_bytes([5 << 4, self.flags]) as u64
            + self.window.to_be() as u64
            + self.checksum.to_be() as u64
    }

    /// The header's wire bytes.
    #[inline(always)]
    pub(crate) fn to_bytes(self) -> [u8; Self::LEN] {
        let mut b = [0; Self::LEN];
        b[..2].copy_from_slice(&self.src_port.to_be_bytes());
        b[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        b[4..8].copy_from_slice(&self.seq.to_be_bytes());
        b[8..12].copy_from_slice(&self.ack.to_be_bytes());
        b[12] = 5 << 4; // data offset = 5 words
        b[13] = self.flags;
        b[14..16].copy_from_slice(&self.window.to_be_bytes());
        b[16..18].copy_from_slice(&self.checksum.to_be_bytes());
        b // urgent pointer 0
    }

    /// Writes the header into `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bytes());
    }

    /// Parses a header from the front of `buf`.
    #[inline(always)]
    pub fn parse(buf: &[u8]) -> Result<(Self, &[u8]), ParseError> {
        let Some((b, rest)) = buf.split_first_chunk::<{ Self::LEN }>() else {
            return Err(ParseError::Truncated);
        };
        let data_off = (b[12] >> 4) as usize * 4;
        if data_off < Self::LEN || buf.len() < data_off {
            return Err(ParseError::Malformed("tcp data offset"));
        }
        if data_off != Self::LEN {
            // `encode` and the checksum both fix the header at 5 words;
            // skipping option bytes here would fail a valid segment's
            // checksum instead of naming the unsupported feature.
            return Err(ParseError::Malformed("tcp options"));
        }
        Ok((
            Self {
                src_port: u16::from_be_bytes([b[0], b[1]]),
                dst_port: u16::from_be_bytes([b[2], b[3]]),
                seq: u32::from_be_bytes([b[4], b[5], b[6], b[7]]),
                ack: u32::from_be_bytes([b[8], b[9], b[10], b[11]]),
                flags: b[13],
                window: u16::from_be_bytes([b[14], b[15]]),
                checksum: u16::from_be_bytes([b[16], b[17]]),
            },
            rest,
        ))
    }

    /// Verifies the checksum of header + payload against the pseudo-header.
    ///
    /// Allocation-free: the header's wire words are folded straight into
    /// the running sum and the payload is summed in place.
    pub fn verify(&self, src_ip: [u8; 4], dst_ip: [u8; 4], payload: &[u8]) -> bool {
        let header = self.header_lanes(src_ip, dst_ip, payload.len());
        checksum::fold_lanes(header + checksum::lane_sum(payload)) == 0xFFFF
    }

    /// True if the ACK flag is set.
    pub fn is_ack(&self) -> bool {
        self.flags & flags::ACK != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: [u8; 4] = [172, 17, 0, 2];
    const DST: [u8; 4] = [172, 17, 0, 3];

    #[test]
    fn roundtrip_and_verify() {
        let payload = vec![0xAB; 1448];
        let h = TcpHeader::for_payload(
            45000,
            5001,
            123456,
            654321,
            flags::ACK | flags::PSH,
            0xFFFF,
            SRC,
            DST,
            &payload,
        );
        let mut buf = Vec::new();
        h.encode(&mut buf);
        assert_eq!(buf.len(), TcpHeader::LEN);
        let (parsed, rest) = TcpHeader::parse(&buf).unwrap();
        assert_eq!(parsed, h);
        assert!(rest.is_empty());
        assert!(parsed.verify(SRC, DST, &payload));
        assert!(parsed.is_ack());
    }

    #[test]
    fn corrupt_seq_fails_verify() {
        let h = TcpHeader::for_payload(1, 2, 100, 0, flags::ACK, 1000, SRC, DST, b"xyz");
        let mut tampered = h;
        tampered.seq += 1;
        assert!(!tampered.verify(SRC, DST, b"xyz"));
    }

    #[test]
    fn truncated_parse() {
        assert_eq!(TcpHeader::parse(&[0; 19]).unwrap_err(), ParseError::Truncated);
    }

    #[test]
    fn bad_data_offset_rejected() {
        let mut buf = vec![0u8; 20];
        buf[12] = 3 << 4; // offset 12 bytes < minimum 20
        assert!(matches!(
            TcpHeader::parse(&buf),
            Err(ParseError::Malformed("tcp data offset"))
        ));
    }

    #[test]
    fn options_rejected_by_name_not_as_a_bad_checksum() {
        // A valid 6-word header (one NOP-padded option word) with a
        // correct checksum: this type fixes the offset at 5 words, so
        // the honest answer is "unsupported", not "corrupt".
        let payload = b"after options";
        let mut seg = Vec::new();
        TcpHeader::for_payload(1, 2, 7, 0, flags::ACK, 100, SRC, DST, &[]).encode(&mut seg);
        seg[12] = 6 << 4;
        seg[16..18].copy_from_slice(&[0, 0]);
        seg.extend_from_slice(&[1, 1, 1, 1]);
        seg.extend_from_slice(payload);
        let pseudo = checksum::pseudo_header_sum(SRC, DST, PROTO_TCP, seg.len() as u16);
        let ck = checksum::finish(checksum::ones_complement_sum(&seg, pseudo));
        seg[16..18].copy_from_slice(&ck.to_be_bytes());
        assert!(
            checksum::verify(&seg, pseudo),
            "the segment itself is valid"
        );
        assert_eq!(
            TcpHeader::parse(&seg).unwrap_err(),
            ParseError::Malformed("tcp options")
        );
    }

    #[test]
    fn for_payload_matches_the_copy_based_construction() {
        // The construction `for_payload` replaced: encode the header with
        // a zero checksum, append the payload, sum the copy.
        for len in [0usize, 1, 2, 31, 32, 33, 999, 1448] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
            let h = TcpHeader::for_payload(
                40001,
                5201,
                0xDEAD_BEEF,
                17,
                flags::ACK,
                0xFFFF,
                SRC,
                DST,
                &payload,
            );
            let mut bytes = Vec::new();
            TcpHeader { checksum: 0, ..h }.encode(&mut bytes);
            bytes.extend_from_slice(&payload);
            let pseudo = checksum::pseudo_header_sum(SRC, DST, PROTO_TCP, bytes.len() as u16);
            let copied = checksum::finish(checksum::ones_complement_sum(&bytes, pseudo));
            assert_eq!(h.checksum, copied, "payload len {len}");
        }
    }

    #[test]
    fn seq_wraparound_encodes() {
        let h = TcpHeader::for_payload(1, 2, u32::MAX, 0, 0, 0, SRC, DST, &[]);
        let mut buf = Vec::new();
        h.encode(&mut buf);
        let (parsed, _) = TcpHeader::parse(&buf).unwrap();
        assert_eq!(parsed.seq, u32::MAX);
    }
}
