//! Typed record data for the RR types the MEC-CDN system uses.

use crate::error::WireError;
use crate::name::Name;
use crate::record::RrType;
use crate::wire::{Reader, Writer};
use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};

/// Typed RDATA. Types this crate does not model round-trip as
/// [`RData::Unknown`] so a forwarder never corrupts them.
///
/// Names inside RDATA are encoded *without* compression, mirroring the
/// RFC 3597 rule that servers must not compress names in the RDATA of
/// unknown types and keeping record data position-independent — which the
/// cache in `dns-server` relies on when it stores decoded records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RData {
    /// IPv4 address.
    A(Ipv4Addr),
    /// IPv6 address.
    Aaaa(Ipv6Addr),
    /// Alias target.
    Cname(Name),
    /// Delegation target.
    Ns(Name),
    /// Reverse-mapping target.
    Ptr(Name),
    /// Mail exchange: preference and host.
    Mx {
        /// Lower is preferred.
        preference: u16,
        /// Mail host.
        exchange: Name,
    },
    /// One or more character-strings, kept as raw octets. TXT data is
    /// not guaranteed to be UTF-8 on the wire, and converting through
    /// `String` would make decode→encode lossy for arbitrary bytes.
    Txt(Vec<Vec<u8>>),
    /// Start of authority.
    Soa {
        /// Primary name server.
        mname: Name,
        /// Responsible mailbox, encoded as a name.
        rname: Name,
        /// Zone serial.
        serial: u32,
        /// Secondary refresh interval, seconds.
        refresh: u32,
        /// Retry interval, seconds.
        retry: u32,
        /// Expiry, seconds.
        expire: u32,
        /// Negative-caching TTL (RFC 2308).
        minimum: u32,
    },
    /// Service location.
    Srv {
        /// Lower is tried first.
        priority: u16,
        /// Relative weight among equal priorities.
        weight: u16,
        /// Service port.
        port: u16,
        /// Service host.
        target: Name,
    },
    /// EDNS(0) option block, decoded separately by [`crate::edns::Opt`].
    /// Stored raw here; `Message` lifts it into its `edns` field.
    OptRaw(Vec<u8>),
    /// Opaque data of a type this crate does not model.
    Unknown {
        /// The wire type code.
        rrtype: u16,
        /// Raw RDATA bytes.
        data: Vec<u8>,
    },
}

impl RData {
    /// The RR type code implied by the data variant.
    pub fn rrtype(&self) -> RrType {
        match self {
            RData::A(_) => RrType::A,
            RData::Aaaa(_) => RrType::Aaaa,
            RData::Cname(_) => RrType::Cname,
            RData::Ns(_) => RrType::Ns,
            RData::Ptr(_) => RrType::Ptr,
            RData::Mx { .. } => RrType::Mx,
            RData::Txt(_) => RrType::Txt,
            RData::Soa { .. } => RrType::Soa,
            RData::Srv { .. } => RrType::Srv,
            RData::OptRaw(_) => RrType::Opt,
            RData::Unknown { rrtype, .. } => RrType::from_u16(*rrtype),
        }
    }

    /// Returns the IPv4 address for `A` records.
    pub fn as_a(&self) -> Option<Ipv4Addr> {
        match self {
            RData::A(ip) => Some(*ip),
            _ => None,
        }
    }

    /// Returns the alias target for `CNAME` records.
    pub fn as_cname(&self) -> Option<&Name> {
        match self {
            RData::Cname(n) => Some(n),
            _ => None,
        }
    }

    /// Returns the raw option block for `OPT` pseudo-records, or `None`
    /// for every other variant — the panic-free accessor
    /// [`crate::edns::Opt::from_record`] builds on.
    pub fn as_opt_raw(&self) -> Option<&[u8]> {
        match self {
            RData::OptRaw(data) => Some(data),
            _ => None,
        }
    }

    /// Encodes the record data (without the RDLENGTH prefix).
    pub fn encode(&self, w: &mut Writer) -> Result<(), WireError> {
        match self {
            RData::A(ip) => w.write_bytes(&ip.octets()),
            RData::Aaaa(ip) => w.write_bytes(&ip.octets()),
            RData::Cname(n) | RData::Ns(n) | RData::Ptr(n) => encode_name_uncompressed(n, w),
            RData::Mx {
                preference,
                exchange,
            } => {
                w.write_u16(*preference);
                encode_name_uncompressed(exchange, w);
            }
            RData::Txt(strings) => {
                for s in strings {
                    if s.len() > 255 {
                        return Err(WireError::CharacterStringTooLong(s.len()));
                    }
                    w.write_u8(s.len() as u8);
                    w.write_bytes(s);
                }
            }
            RData::Soa {
                mname,
                rname,
                serial,
                refresh,
                retry,
                expire,
                minimum,
            } => {
                encode_name_uncompressed(mname, w);
                encode_name_uncompressed(rname, w);
                w.write_u32(*serial);
                w.write_u32(*refresh);
                w.write_u32(*retry);
                w.write_u32(*expire);
                w.write_u32(*minimum);
            }
            RData::Srv {
                priority,
                weight,
                port,
                target,
            } => {
                w.write_u16(*priority);
                w.write_u16(*weight);
                w.write_u16(*port);
                encode_name_uncompressed(target, w);
            }
            RData::OptRaw(data) | RData::Unknown { data, .. } => w.write_bytes(data),
        }
        Ok(())
    }

    /// Decodes record data of the given type and declared length.
    pub fn decode(rrtype: RrType, r: &mut Reader<'_>, rdlen: usize) -> Result<Self, WireError> {
        match rrtype {
            RrType::A => {
                let b = r.read_bytes(4, "A rdata")?;
                let mut o = [0u8; 4];
                o.copy_from_slice(b);
                Ok(RData::A(Ipv4Addr::from(o)))
            }
            RrType::Aaaa => {
                let b = r.read_bytes(16, "AAAA rdata")?;
                let mut o = [0u8; 16];
                o.copy_from_slice(b);
                Ok(RData::Aaaa(Ipv6Addr::from(o)))
            }
            RrType::Cname => Ok(RData::Cname(Name::decode(r)?)),
            RrType::Ns => Ok(RData::Ns(Name::decode(r)?)),
            RrType::Ptr => Ok(RData::Ptr(Name::decode(r)?)),
            RrType::Mx => Ok(RData::Mx {
                preference: r.read_u16("MX preference")?,
                exchange: Name::decode(r)?,
            }),
            RrType::Txt => {
                let end = r.position() + rdlen;
                let mut out = Vec::new();
                while r.position() < end {
                    let len = usize::from(r.read_u8("TXT length")?);
                    let bytes = r.read_bytes(len, "TXT string")?;
                    out.push(bytes.to_vec());
                }
                Ok(RData::Txt(out))
            }
            RrType::Soa => Ok(RData::Soa {
                mname: Name::decode(r)?,
                rname: Name::decode(r)?,
                serial: r.read_u32("SOA serial")?,
                refresh: r.read_u32("SOA refresh")?,
                retry: r.read_u32("SOA retry")?,
                expire: r.read_u32("SOA expire")?,
                minimum: r.read_u32("SOA minimum")?,
            }),
            RrType::Srv => Ok(RData::Srv {
                priority: r.read_u16("SRV priority")?,
                weight: r.read_u16("SRV weight")?,
                port: r.read_u16("SRV port")?,
                target: Name::decode(r)?,
            }),
            RrType::Opt => Ok(RData::OptRaw(r.read_bytes(rdlen, "OPT rdata")?.to_vec())),
            RrType::Other(code) => Ok(RData::Unknown {
                rrtype: code,
                data: r.read_bytes(rdlen, "unknown rdata")?.to_vec(),
            }),
        }
    }
}

/// Encodes a name label-by-label with no compression pointer (RDATA names
/// must stay position-independent; see the type-level docs).
fn encode_name_uncompressed(n: &Name, w: &mut Writer) {
    w.write_bytes(n.wire());
    w.write_u8(0);
}

impl fmt::Display for RData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RData::A(ip) => write!(f, "{ip}"),
            RData::Aaaa(ip) => write!(f, "{ip}"),
            RData::Cname(n) | RData::Ns(n) | RData::Ptr(n) => write!(f, "{n}"),
            RData::Mx {
                preference,
                exchange,
            } => write!(f, "{preference} {exchange}"),
            RData::Txt(strings) => {
                let mut first = true;
                for s in strings {
                    if !first {
                        write!(f, " ")?;
                    }
                    first = false;
                    write!(f, "\"")?;
                    for &b in s {
                        match b {
                            b'"' | b'\\' => write!(f, "\\{}", b as char)?,
                            0x20..=0x7E => write!(f, "{}", b as char)?,
                            // RFC 1035 §5.1 decimal escape for
                            // non-printable octets.
                            _ => write!(f, "\\{b:03}")?,
                        }
                    }
                    write!(f, "\"")?;
                }
                Ok(())
            }
            RData::Soa {
                mname,
                rname,
                serial,
                refresh,
                retry,
                expire,
                minimum,
            } => write!(
                f,
                "{mname} {rname} {serial} {refresh} {retry} {expire} {minimum}"
            ),
            RData::Srv {
                priority,
                weight,
                port,
                target,
            } => write!(f, "{priority} {weight} {port} {target}"),
            RData::OptRaw(data) => write!(f, "OPT({} bytes)", data.len()),
            RData::Unknown { rrtype, data } => {
                write!(f, "\\# {} ({} bytes, TYPE{rrtype})", data.len(), data.len())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(rd: &RData) -> RData {
        let mut w = Writer::new();
        rd.encode(&mut w).unwrap();
        let buf = w.finish().unwrap();
        let mut r = Reader::new(&buf);
        RData::decode(rd.rrtype(), &mut r, buf.len()).unwrap()
    }

    #[test]
    fn scalar_rdata_roundtrips() {
        for rd in [
            RData::A(Ipv4Addr::new(151, 101, 1, 1)),
            RData::Aaaa("2001:db8::1".parse().unwrap()),
            RData::Txt(vec![b"hello".to_vec(), b"world".to_vec()]),
            RData::Txt(vec![vec![0x00, 0xFF, 0x80], Vec::new()]),
            RData::Unknown {
                rrtype: 4711,
                data: vec![1, 2, 3],
            },
        ] {
            assert_eq!(roundtrip(&rd), rd);
        }
    }

    #[test]
    fn name_rdata_roundtrips() {
        for rd in [
            RData::Cname(Name::parse("edge.fastly.example").unwrap()),
            RData::Ns(Name::parse("ns1.example").unwrap()),
            RData::Ptr(Name::parse("host.in-addr.example").unwrap()),
            RData::Mx {
                preference: 10,
                exchange: Name::parse("mx.example").unwrap(),
            },
            RData::Srv {
                priority: 1,
                weight: 50,
                port: 53,
                target: Name::parse("dns.mec.example").unwrap(),
            },
        ] {
            assert_eq!(roundtrip(&rd), rd);
        }
    }

    #[test]
    fn soa_roundtrips() {
        let rd = RData::Soa {
            mname: Name::parse("ns1.mycdn.ciab.test").unwrap(),
            rname: Name::parse("hostmaster.mycdn.ciab.test").unwrap(),
            serial: 2020110401,
            refresh: 7200,
            retry: 900,
            expire: 1209600,
            minimum: 30,
        };
        assert_eq!(roundtrip(&rd), rd);
    }

    #[test]
    fn rdata_names_are_not_compressed() {
        // Encode the same name twice in two CNAMEs; the second must be the
        // same size as the first (no pointer shrinkage).
        let n = Name::parse("shared.suffix.example").unwrap();
        let mut w = Writer::new();
        RData::Cname(n.clone()).encode(&mut w).unwrap();
        let first = w.len();
        RData::Cname(n).encode(&mut w).unwrap();
        assert_eq!(w.len(), 2 * first);
    }

    #[test]
    fn txt_rejects_overlong_string() {
        let rd = RData::Txt(vec![vec![b'x'; 256]]);
        let mut w = Writer::new();
        assert!(matches!(
            rd.encode(&mut w),
            Err(WireError::CharacterStringTooLong(256))
        ));
    }

    #[test]
    fn accessors() {
        let a = RData::A(Ipv4Addr::LOCALHOST);
        assert_eq!(a.as_a(), Some(Ipv4Addr::LOCALHOST));
        assert!(a.as_cname().is_none());
        let c = RData::Cname(Name::parse("x.y").unwrap());
        assert_eq!(c.as_cname().unwrap().to_string(), "x.y.");
        assert!(c.as_a().is_none());
        let o = RData::OptRaw(vec![0, 8, 0, 0]);
        assert_eq!(o.as_opt_raw(), Some(&[0u8, 8, 0, 0][..]));
        assert!(c.as_opt_raw().is_none());
    }

    #[test]
    fn display_formats() {
        assert_eq!(RData::A(Ipv4Addr::new(1, 2, 3, 4)).to_string(), "1.2.3.4");
        assert_eq!(
            RData::Txt(vec![b"a".to_vec(), b"b".to_vec()]).to_string(),
            "\"a\" \"b\""
        );
        // Non-printable octets escape as \DDD, quotes and backslashes
        // with a single backslash.
        assert_eq!(
            RData::Txt(vec![vec![0x00, b'"', b'\\', 0xFF, b'z']]).to_string(),
            "\"\\000\\\"\\\\\\255z\""
        );
    }
}
