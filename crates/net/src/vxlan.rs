//! VXLAN encapsulation header (RFC 7348).
//!
//! The container overlay network encapsulates each inner Ethernet frame in
//! `outer-IP / outer-UDP(dst 4789) / VXLAN / inner frame`. The VNI
//! identifies the tenant network (Docker's overlay driver allocates one per
//! network).

use crate::ParseError;

/// The IANA-assigned VXLAN UDP port.
pub const VXLAN_PORT: u16 = 4789;

/// A VXLAN header: 8 bytes, flags + 24-bit VNI.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VxlanHeader {
    /// Virtual Network Identifier (24 bits).
    pub vni: u32,
}

impl VxlanHeader {
    /// Encoded size in bytes.
    pub const LEN: usize = 8;

    /// Creates a header for the given VNI.
    ///
    /// # Panics
    /// Panics if `vni` does not fit in 24 bits.
    pub fn new(vni: u32) -> Self {
        assert!(vni < (1 << 24), "VNI must be 24-bit");
        Self { vni }
    }

    /// The header's wire bytes.
    #[inline(always)]
    pub(crate) fn to_bytes(self) -> [u8; Self::LEN] {
        let [v0, v1, v2, _] = (self.vni << 8).to_be_bytes();
        // I flag set (VNI is valid), then reserved bytes around the VNI.
        [0x08, 0, 0, 0, v0, v1, v2, 0]
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
        if b[0] & 0x08 == 0 {
            return Err(ParseError::Malformed("vxlan I flag"));
        }
        let vni = u32::from_be_bytes([0, b[4], b[5], b[6]]);
        Ok((Self { vni }, rest))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let h = VxlanHeader::new(0x123456);
        let mut buf = Vec::new();
        h.encode(&mut buf);
        assert_eq!(buf.len(), VxlanHeader::LEN);
        let (parsed, rest) = VxlanHeader::parse(&buf).unwrap();
        assert_eq!(parsed, h);
        assert!(rest.is_empty());
    }

    #[test]
    fn max_vni() {
        let h = VxlanHeader::new((1 << 24) - 1);
        let mut buf = Vec::new();
        h.encode(&mut buf);
        let (parsed, _) = VxlanHeader::parse(&buf).unwrap();
        assert_eq!(parsed.vni, (1 << 24) - 1);
    }

    #[test]
    #[should_panic(expected = "24-bit")]
    fn oversized_vni_panics() {
        VxlanHeader::new(1 << 24);
    }

    #[test]
    fn missing_i_flag_rejected() {
        let buf = [0u8; 8];
        assert!(matches!(
            VxlanHeader::parse(&buf),
            Err(ParseError::Malformed("vxlan I flag"))
        ));
    }

    #[test]
    fn truncated() {
        assert_eq!(VxlanHeader::parse(&[8; 7]).unwrap_err(), ParseError::Truncated);
    }
}
