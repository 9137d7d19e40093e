//! Geneve encapsulation (RFC 8926) — the other mainstream overlay format
//! (OVN, newer OpenStack/NSX deployments). MFLOW's splitting mechanisms
//! are encapsulation-agnostic: everything between the driver and the
//! transport layer is stateless regardless of whether the tunnel header is
//! VXLAN or Geneve, so this crate supports both on the wire.

use crate::ParseError;

/// The IANA-assigned Geneve UDP port.
pub const GENEVE_PORT: u16 = 6081;

/// Ethernet protocol type carried by our Geneve frames (Trans-Ether
/// bridging, i.e. an inner Ethernet frame).
pub const PROTO_ETHERNET: u16 = 0x6558;

/// One Geneve TLV option.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GeneveOption {
    pub class: u16,
    pub option_type: u8,
    /// Payload; length must be a multiple of 4 bytes, at most 124.
    pub data: Vec<u8>,
}

/// A Geneve header: 8 fixed bytes, 24-bit VNI, variable-length options.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GeneveHeader {
    pub vni: u32,
    /// O bit: control packet.
    pub control: bool,
    /// C bit: options MUST be parsed.
    pub critical: bool,
    pub options: Vec<GeneveOption>,
}

impl GeneveHeader {
    /// Fixed header size in bytes (without options).
    pub const BASE_LEN: usize = 8;

    /// Creates a data header for the given VNI with no options.
    ///
    /// # Panics
    /// Panics if `vni` does not fit in 24 bits.
    pub fn new(vni: u32) -> Self {
        assert!(vni < (1 << 24), "VNI must be 24-bit");
        Self {
            vni,
            control: false,
            critical: false,
            options: Vec::new(),
        }
    }

    /// Adds a TLV option.
    ///
    /// # Panics
    /// Panics if the option payload is not 4-byte aligned or too long.
    pub fn with_option(mut self, class: u16, option_type: u8, data: Vec<u8>) -> Self {
        assert!(data.len().is_multiple_of(4) && data.len() <= 124, "bad option length");
        self.options.push(GeneveOption {
            class,
            option_type,
            data,
        });
        self
    }

    /// Encoded size including options.
    pub fn len(&self) -> usize {
        Self::BASE_LEN + self.options.iter().map(|o| 4 + o.data.len()).sum::<usize>()
    }

    /// True only for the (impossible) zero-size case; headers are never
    /// empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The fixed 8 bytes of the header, which name the length of the
    /// options that follow them: the whole header when it has none.
    pub(crate) fn base_bytes(&self) -> [u8; Self::BASE_LEN] {
        let opt_words = (self.len() - Self::BASE_LEN) / 4;
        assert!(opt_words < 64, "options exceed 6-bit length field");
        let mut flags = 0u8;
        if self.control {
            flags |= 0x80;
        }
        if self.critical {
            flags |= 0x40;
        }
        let [p0, p1] = PROTO_ETHERNET.to_be_bytes();
        let [v0, v1, v2, _] = (self.vni << 8).to_be_bytes();
        // Version 0 in the top 2 bits of the first byte; a reserved byte
        // after the VNI.
        [opt_words as u8, flags, p0, p1, v0, v1, v2, 0]
    }

    /// Writes the header into `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.base_bytes());
        for o in &self.options {
            out.extend_from_slice(&o.class.to_be_bytes());
            out.push(o.option_type);
            out.push((o.data.len() / 4) as u8);
            out.extend_from_slice(&o.data);
        }
    }

    /// Parses a header from the front of `buf`.
    pub fn parse(buf: &[u8]) -> Result<(Self, &[u8]), ParseError> {
        let (base, option_bytes, rest) = parse_base(buf)?;
        let mut options = Vec::new();
        for option in OptionWalk(option_bytes) {
            let (class, option_type, data) = option?;
            options.push(GeneveOption {
                class,
                option_type,
                data: data.to_vec(),
            });
        }
        let header = Self {
            vni: base.vni,
            control: base.flags & 0x80 != 0,
            critical: base.flags & 0x40 != 0,
            options,
        };
        Ok((header, rest))
    }

    /// [`Self::parse`] for the overlay walk, which wants the VNI and the
    /// inner frame and must not allocate: the same checks in the same
    /// order, the option TLVs validated where they lie.
    #[inline(always)]
    pub(crate) fn parse_vni(buf: &[u8]) -> Result<(u32, &[u8]), ParseError> {
        let (base, option_bytes, rest) = parse_base(buf)?;
        if !option_bytes.is_empty() {
            validate_options(option_bytes)?;
        }
        Ok((base.vni, rest))
    }
}

/// The fixed 8 bytes of a Geneve header.
struct Base {
    flags: u8,
    vni: u32,
}

/// Parses the fixed 8 bytes off the front of `buf`: them, the bytes that
/// hold the options, and what follows those.
#[inline(always)]
fn parse_base(buf: &[u8]) -> Result<(Base, &[u8], &[u8]), ParseError> {
    let Some((b, rest)) = buf.split_first_chunk::<{ GeneveHeader::BASE_LEN }>() else {
        return Err(ParseError::Truncated);
    };
    if b[0] >> 6 != 0 {
        return Err(ParseError::Malformed("geneve version"));
    }
    if u16::from_be_bytes([b[2], b[3]]) != PROTO_ETHERNET {
        return Err(ParseError::Malformed("geneve protocol"));
    }
    let Some((option_bytes, rest)) = rest.split_at_checked((b[0] & 0x3F) as usize * 4) else {
        return Err(ParseError::Truncated);
    };
    let base = Base {
        flags: b[1],
        vni: u32::from_be_bytes([0, b[4], b[5], b[6]]),
    };
    Ok((base, option_bytes, rest))
}

/// Walks the bytes of an options block one TLV at a time:
/// `(class, type, data)`, or what is wrong with the next one.
struct OptionWalk<'a>(&'a [u8]);

impl<'a> Iterator for OptionWalk<'a> {
    type Item = Result<(u16, u8, &'a [u8]), ParseError>;

    fn next(&mut self) -> Option<Self::Item> {
        let (head, body) = match self.0.split_first_chunk::<4>() {
            Some(split) => split,
            None if self.0.is_empty() => return None,
            None => return Some(Err(ParseError::Malformed("geneve option header"))),
        };
        let Some((data, rest)) = body.split_at_checked((head[3] & 0x1F) as usize * 4) else {
            return Some(Err(ParseError::Malformed("geneve option length")));
        };
        self.0 = rest;
        Some(Ok((u16::from_be_bytes([head[0], head[1]]), head[2], data)))
    }
}

/// Out of line and cold: tunnels that carry options are the exception,
/// and the overlay walk stays straight-line without the loop.
#[cold]
fn validate_options(option_bytes: &[u8]) -> Result<(), ParseError> {
    OptionWalk(option_bytes).try_for_each(|option| option.map(drop))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_no_options() {
        let h = GeneveHeader::new(0xABCDE);
        let mut buf = Vec::new();
        h.encode(&mut buf);
        assert_eq!(buf.len(), GeneveHeader::BASE_LEN);
        let (parsed, rest) = GeneveHeader::parse(&buf).unwrap();
        assert_eq!(parsed, h);
        assert!(rest.is_empty());
    }

    #[test]
    fn roundtrip_with_options() {
        let h = GeneveHeader::new(7)
            .with_option(0x0102, 0x80, vec![1, 2, 3, 4])
            .with_option(0x0103, 0x01, vec![9, 9, 9, 9, 8, 8, 8, 8]);
        let mut buf = Vec::new();
        h.encode(&mut buf);
        assert_eq!(buf.len(), 8 + 8 + 12);
        let (parsed, rest) = GeneveHeader::parse(&buf).unwrap();
        assert_eq!(parsed, h);
        assert!(rest.is_empty());
    }

    #[test]
    fn trailing_payload_passes_through() {
        let h = GeneveHeader::new(1);
        let mut buf = Vec::new();
        h.encode(&mut buf);
        buf.extend_from_slice(b"inner frame");
        let (_, rest) = GeneveHeader::parse(&buf).unwrap();
        assert_eq!(rest, b"inner frame");
    }

    #[test]
    fn wrong_version_rejected() {
        let mut buf = vec![0u8; 8];
        GeneveHeader::new(1).encode(&mut { buf.clear(); buf });
        let mut buf2 = Vec::new();
        GeneveHeader::new(1).encode(&mut buf2);
        buf2[0] |= 0x40; // version 1
        assert!(matches!(
            GeneveHeader::parse(&buf2),
            Err(ParseError::Malformed("geneve version"))
        ));
    }

    #[test]
    fn truncated_options_rejected() {
        let h = GeneveHeader::new(2).with_option(1, 2, vec![0; 8]);
        let mut buf = Vec::new();
        h.encode(&mut buf);
        assert!(GeneveHeader::parse(&buf[..10]).is_err());
    }

    #[test]
    #[should_panic(expected = "bad option length")]
    fn unaligned_option_panics() {
        GeneveHeader::new(1).with_option(1, 1, vec![0; 3]);
    }

    #[test]
    fn control_and_critical_flags_roundtrip() {
        let mut h = GeneveHeader::new(3);
        h.control = true;
        h.critical = true;
        let mut buf = Vec::new();
        h.encode(&mut buf);
        let (parsed, _) = GeneveHeader::parse(&buf).unwrap();
        assert!(parsed.control && parsed.critical);
    }
}
