//! UDP header with pseudo-header checksum (RFC 768).

use crate::checksum;
use crate::ipv4::PROTO_UDP;
use crate::ParseError;

/// A UDP header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UdpHeader {
    pub src_port: u16,
    pub dst_port: u16,
    /// Header + payload length.
    pub length: u16,
    pub checksum: u16,
}

impl UdpHeader {
    /// Encoded size in bytes.
    pub const LEN: usize = 8;

    /// Builds a header for `payload` and computes the checksum over the
    /// IPv4 pseudo-header, the header and the payload.
    pub fn for_payload(
        src_port: u16,
        dst_port: u16,
        src_ip: [u8; 4],
        dst_ip: [u8; 4],
        payload: &[u8],
    ) -> Self {
        Self {
            src_port,
            dst_port,
            length: (Self::LEN + payload.len()) as u16,
            checksum: 0,
        }
        .sealed(src_ip, dst_ip, checksum::lane_sum(payload))
    }

    /// This header, its `length` set, with the checksum of a payload whose
    /// [`checksum::lane_sum`] is `payload_lanes`: [`Self::for_payload`]
    /// for a caller that has summed the payload already.
    #[inline(always)]
    pub(crate) fn sealed(mut self, src_ip: [u8; 4], dst_ip: [u8; 4], payload_lanes: u64) -> Self {
        self.checksum = 0;
        let lanes = self.header_lanes(src_ip, dst_ip) + payload_lanes;
        let ck = checksum::finish(checksum::fold_lanes(lanes));
        // RFC 768: a zero checksum means "not computed".
        self.checksum = if ck == 0 { 0xFFFF } else { ck };
        self
    }

    /// Lane sum ([`checksum::lane_sum`]) of the pseudo-header and this
    /// header's wire words: the same big-endian u16s [`Self::encode`]
    /// emits, each as the machine would load it. The header is an even
    /// number of bytes, so a payload's lane sum adds straight on.
    #[inline(always)]
    pub(crate) fn header_lanes(&self, src_ip: [u8; 4], dst_ip: [u8; 4]) -> u64 {
        checksum::pseudo_header_lanes(src_ip, dst_ip, PROTO_UDP, self.length)
            + self.src_port.to_be() as u64
            + self.dst_port.to_be() as u64
            + self.length.to_be() as u64
            + self.checksum.to_be() as u64
    }

    /// The header's wire bytes.
    #[inline(always)]
    pub(crate) fn to_bytes(self) -> [u8; Self::LEN] {
        let [s0, s1] = self.src_port.to_be_bytes();
        let [d0, d1] = self.dst_port.to_be_bytes();
        let [l0, l1] = self.length.to_be_bytes();
        let [c0, c1] = self.checksum.to_be_bytes();
        [s0, s1, d0, d1, l0, l1, c0, c1]
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
        let h = Self {
            src_port: u16::from_be_bytes([b[0], b[1]]),
            dst_port: u16::from_be_bytes([b[2], b[3]]),
            length: u16::from_be_bytes([b[4], b[5]]),
            checksum: u16::from_be_bytes([b[6], b[7]]),
        };
        if (h.length as usize) < Self::LEN {
            return Err(ParseError::Malformed("udp length"));
        }
        Ok((h, rest))
    }

    /// Verifies the checksum of header + payload against the pseudo-header.
    ///
    /// Allocation-free: the header's wire words are folded straight into
    /// the running sum and the payload is summed in place.
    pub fn verify(&self, src_ip: [u8; 4], dst_ip: [u8; 4], payload: &[u8]) -> bool {
        // A zero checksum means "not computed by the sender"; checked
        // first, so an unverified datagram skips the walk.
        self.checksum == 0
            || checksum::fold_lanes(self.header_lanes(src_ip, dst_ip) + checksum::lane_sum(payload))
                == 0xFFFF
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: [u8; 4] = [192, 168, 10, 1];
    const DST: [u8; 4] = [192, 168, 10, 2];

    #[test]
    fn roundtrip_and_verify() {
        let payload = b"mflow udp payload";
        let h = UdpHeader::for_payload(4789, 4789, SRC, DST, payload);
        let mut buf = Vec::new();
        h.encode(&mut buf);
        let (parsed, rest) = UdpHeader::parse(&buf).unwrap();
        assert_eq!(parsed, h);
        assert!(rest.is_empty());
        assert!(parsed.verify(SRC, DST, payload));
    }

    #[test]
    fn corrupt_payload_fails_verify() {
        let payload = b"data".to_vec();
        let h = UdpHeader::for_payload(1, 2, SRC, DST, &payload);
        let mut bad = payload.clone();
        bad[0] ^= 0x01;
        assert!(!h.verify(SRC, DST, &bad));
    }

    #[test]
    fn for_payload_matches_the_copy_based_construction() {
        // The construction `for_payload` replaced: encode the header with
        // a zero checksum, append the payload, sum the copy.
        for len in [0usize, 1, 2, 31, 32, 33, 999, 1498] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 29 + 3) as u8).collect();
            let h = UdpHeader::for_payload(49153, 4789, SRC, DST, &payload);
            let mut bytes = Vec::new();
            UdpHeader { checksum: 0, ..h }.encode(&mut bytes);
            bytes.extend_from_slice(&payload);
            let pseudo = checksum::pseudo_header_sum(SRC, DST, PROTO_UDP, h.length);
            let mut copied = checksum::finish(checksum::ones_complement_sum(&bytes, pseudo));
            if copied == 0 {
                copied = 0xFFFF;
            }
            assert_eq!(h.checksum, copied, "payload len {len}");
        }
    }

    #[test]
    fn zero_checksum_skips_verify() {
        let h = UdpHeader {
            src_port: 1,
            dst_port: 2,
            length: 8,
            checksum: 0,
        };
        assert!(h.verify(SRC, DST, &[]));
    }

    #[test]
    fn truncated_parse() {
        assert_eq!(UdpHeader::parse(&[0; 7]).unwrap_err(), ParseError::Truncated);
    }

    #[test]
    fn bad_length_rejected() {
        let buf = [0, 1, 0, 2, 0, 3, 0, 0]; // length=3 < 8
        assert!(matches!(
            UdpHeader::parse(&buf),
            Err(ParseError::Malformed("udp length"))
        ));
    }
}
