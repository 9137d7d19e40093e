//! Ethernet II framing.

use crate::ParseError;

/// A 48-bit MAC address.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xFF; 6]);

    /// Deterministic locally-administered unicast address for entity `id`.
    pub fn local(id: u64) -> Self {
        let b = id.to_be_bytes();
        // 0x02 = locally administered, unicast.
        MacAddr([0x02, b[3], b[4], b[5], b[6], b[7]])
    }

    /// True for group (multicast/broadcast) addresses.
    pub fn is_multicast(&self) -> bool {
        self.0[0] & 0x01 != 0
    }
}

impl std::fmt::Display for MacAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let b = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

/// EtherType values this stack understands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EtherType {
    Ipv4,
    Arp,
    Other(u16),
}

impl From<u16> for EtherType {
    #[inline]
    fn from(v: u16) -> Self {
        match v {
            0x0800 => EtherType::Ipv4,
            0x0806 => EtherType::Arp,
            other => EtherType::Other(other),
        }
    }
}

impl From<EtherType> for u16 {
    fn from(t: EtherType) -> u16 {
        match t {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
            EtherType::Other(v) => v,
        }
    }
}

/// An Ethernet II header (no 802.1Q tag support; overlay frames don't use
/// VLAN tags in the paper's setup).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EthernetHeader {
    pub dst: MacAddr,
    pub src: MacAddr,
    pub ethertype: EtherType,
}

impl EthernetHeader {
    /// Encoded size in bytes.
    pub const LEN: usize = 14;

    /// The header's wire bytes.
    #[inline(always)]
    pub(crate) fn to_bytes(self) -> [u8; Self::LEN] {
        let mut b = [0; Self::LEN];
        b[..6].copy_from_slice(&self.dst.0);
        b[6..12].copy_from_slice(&self.src.0);
        b[12..].copy_from_slice(&u16::from(self.ethertype).to_be_bytes());
        b
    }

    /// Writes the header into `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bytes());
    }

    /// Parses a header from the front of `buf`, returning it and the rest.
    #[inline(always)]
    pub fn parse(buf: &[u8]) -> Result<(Self, &[u8]), ParseError> {
        let Some((h, rest)) = buf.split_first_chunk::<{ Self::LEN }>() else {
            return Err(ParseError::Truncated);
        };
        let [d0, d1, d2, d3, d4, d5, s0, s1, s2, s3, s4, s5, t0, t1] = *h;
        Ok((
            Self {
                dst: MacAddr([d0, d1, d2, d3, d4, d5]),
                src: MacAddr([s0, s1, s2, s3, s4, s5]),
                ethertype: u16::from_be_bytes([t0, t1]).into(),
            },
            rest,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let h = EthernetHeader {
            dst: MacAddr::local(1),
            src: MacAddr::local(2),
            ethertype: EtherType::Ipv4,
        };
        let mut buf = Vec::new();
        h.encode(&mut buf);
        assert_eq!(buf.len(), EthernetHeader::LEN);
        let (parsed, rest) = EthernetHeader::parse(&buf).unwrap();
        assert_eq!(parsed, h);
        assert!(rest.is_empty());
    }

    #[test]
    fn truncated_fails() {
        assert_eq!(
            EthernetHeader::parse(&[0; 13]).unwrap_err(),
            ParseError::Truncated
        );
    }

    #[test]
    fn local_addresses_are_unicast_and_unique() {
        let a = MacAddr::local(7);
        let b = MacAddr::local(8);
        assert_ne!(a, b);
        assert!(!a.is_multicast());
        assert!(MacAddr::BROADCAST.is_multicast());
    }

    #[test]
    fn ethertype_mapping() {
        assert_eq!(EtherType::from(0x0800), EtherType::Ipv4);
        assert_eq!(u16::from(EtherType::Arp), 0x0806);
        assert_eq!(EtherType::from(0x1234), EtherType::Other(0x1234));
    }

    #[test]
    fn display_format() {
        assert_eq!(MacAddr([0, 1, 2, 0xab, 0xcd, 0xef]).to_string(), "00:01:02:ab:cd:ef");
    }
}
