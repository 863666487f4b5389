//! The [`Addr`] type: a compact IPv4 address.

use std::fmt;
use std::str::FromStr;

/// An IPv4 address.
///
/// This is a thin wrapper over `u32` (host byte order) rather than
/// `std::net::Ipv4Addr` so that the arithmetic the analyses need — masking,
/// ordering, successor/predecessor, bit tests — is direct and allocation-free.
/// Conversions to and from `std::net::Ipv4Addr` are provided.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(u32);

impl Addr {
    /// The all-zeros address `0.0.0.0`.
    pub const ZERO: Addr = Addr(0);
    /// The all-ones address `255.255.255.255`.
    pub const BROADCAST: Addr = Addr(u32::MAX);

    /// Creates an address from a host-order `u32`.
    pub const fn from_u32(bits: u32) -> Addr {
        Addr(bits)
    }

    /// Creates an address from four dotted-quad octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Addr {
        Addr(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | (d as u32))
    }

    /// Returns the address as a host-order `u32`.
    pub const fn to_u32(self) -> u32 {
        self.0
    }

    /// Returns the four octets, most significant first.
    pub const fn octets(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }

    /// Tests bit `i` counting from the most significant bit (bit 0 is the
    /// top bit). Panics if `i >= 32`.
    pub fn bit(self, i: u8) -> bool {
        assert!(i < 32, "bit index out of range: {i}");
        (self.0 >> (31 - i)) & 1 == 1
    }

    /// Returns the next address, saturating at the broadcast address.
    pub const fn saturating_next(self) -> Addr {
        Addr(self.0.saturating_add(1))
    }

    /// Returns the previous address, saturating at zero.
    pub const fn saturating_prev(self) -> Addr {
        Addr(self.0.saturating_sub(1))
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.octets();
        write!(f, "{}.{}.{}.{}", o[0], o[1], o[2], o[3])
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Addr({self})")
    }
}

impl From<std::net::Ipv4Addr> for Addr {
    fn from(a: std::net::Ipv4Addr) -> Addr {
        Addr(u32::from(a))
    }
}

impl From<Addr> for std::net::Ipv4Addr {
    fn from(a: Addr) -> std::net::Ipv4Addr {
        std::net::Ipv4Addr::from(a.0)
    }
}

/// Error returned when parsing an [`Addr`] from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAddrError {
    text: String,
}

impl ParseAddrError {
    pub(crate) fn new(text: &str) -> ParseAddrError {
        ParseAddrError { text: text.to_string() }
    }
}

impl fmt::Display for ParseAddrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid IPv4 address: {:?}", self.text)
    }
}

impl std::error::Error for ParseAddrError {}

impl FromStr for Addr {
    type Err = ParseAddrError;

    /// Accepts exactly four dot-separated parts of one to three ASCII
    /// digits (leading zeros allowed), each at most 255, in one pass over
    /// the bytes.
    fn from_str(s: &str) -> Result<Addr, ParseAddrError> {
        let (mut bits, mut dots, mut value, mut digits) = (0u32, 0, 0u32, 0);
        for &b in s.as_bytes() {
            match b {
                b'0'..=b'9' if digits < 3 => {
                    value = value * 10 + u32::from(b - b'0');
                    digits += 1;
                }
                b'.' if digits > 0 && value <= 255 && dots < 3 => {
                    bits = (bits << 8) | value;
                    (dots, value, digits) = (dots + 1, 0, 0);
                }
                _ => return Err(ParseAddrError::new(s)),
            }
        }
        if dots < 3 || digits == 0 || value > 255 {
            return Err(ParseAddrError::new(s));
        }
        Ok(Addr((bits << 8) | value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_roundtrip() {
        for text in ["0.0.0.0", "10.0.0.1", "66.253.160.67", "255.255.255.255"] {
            let a: Addr = text.parse().unwrap();
            assert_eq!(a.to_string(), text);
        }
    }

    #[test]
    fn rejects_malformed() {
        for text in ["", "1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d", "1..2.3", "01x.2.3.4"] {
            assert!(text.parse::<Addr>().is_err(), "accepted {text:?}");
        }
    }

    #[test]
    fn bit_indexing_is_msb_first() {
        let a: Addr = "128.0.0.1".parse().unwrap();
        assert!(a.bit(0));
        assert!(!a.bit(1));
        assert!(a.bit(31));
    }

    #[test]
    fn ordering_matches_numeric_order() {
        let lo: Addr = "10.0.0.0".parse().unwrap();
        let hi: Addr = "10.0.0.1".parse().unwrap();
        assert!(lo < hi);
        assert_eq!(lo.saturating_next(), hi);
        assert_eq!(hi.saturating_prev(), lo);
        assert_eq!(Addr::BROADCAST.saturating_next(), Addr::BROADCAST);
        assert_eq!(Addr::ZERO.saturating_prev(), Addr::ZERO);
    }

    #[test]
    fn std_conversions() {
        let a: Addr = "192.0.2.1".parse().unwrap();
        let s: std::net::Ipv4Addr = a.into();
        assert_eq!(Addr::from(s), a);
    }
}
