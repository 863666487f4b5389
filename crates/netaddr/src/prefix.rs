//! CIDR prefixes.

use std::fmt;
use std::str::FromStr;

use crate::addr::Addr;
use crate::mask::Netmask;

/// A CIDR prefix: a network address plus a prefix length.
///
/// Prefixes are always stored canonically — host bits are zeroed on
/// construction — so equality and ordering are well defined. Ordering is
/// by network address, then by length (shorter, i.e. larger, first), which
/// makes a sorted list of prefixes place each supernet immediately before
/// its subnets.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Prefix {
    addr: Addr,
    len: u8,
}

impl Prefix {
    /// The default route `0.0.0.0/0`.
    pub const DEFAULT: Prefix = Prefix { addr: Addr::ZERO, len: 0 };

    /// Creates a prefix, zeroing any host bits in `addr`. Returns `None` if
    /// `len > 32`.
    pub fn new(addr: Addr, len: u8) -> Option<Prefix> {
        let mask = Netmask::from_len(len)?;
        Some(Prefix { addr: mask.apply(addr), len })
    }

    /// Creates a host (/32) prefix.
    pub const fn host(addr: Addr) -> Prefix {
        Prefix { addr, len: 32 }
    }

    /// Creates a prefix from an address and a contiguous netmask.
    pub fn from_mask(addr: Addr, mask: Netmask) -> Prefix {
        Prefix { addr: mask.apply(addr), len: mask.len() }
    }

    /// The network address.
    pub const fn addr(self) -> Addr {
        self.addr
    }

    /// The prefix length.
    pub const fn len(self) -> u8 {
        self.len
    }

    /// The netmask corresponding to this prefix's length.
    pub fn mask(self) -> Netmask {
        Netmask::from_len(self.len).expect("len is always <= 32")
    }

    /// The first address in the prefix (the network address).
    pub const fn first(self) -> Addr {
        self.addr
    }

    /// The last address in the prefix (the broadcast address for subnets).
    pub fn last(self) -> Addr {
        Addr::from_u32(self.addr.to_u32() | !self.mask().bits())
    }

    /// Number of addresses covered.
    pub fn size(self) -> u64 {
        self.mask().size()
    }

    /// True if `addr` falls inside this prefix.
    pub fn contains(self, addr: Addr) -> bool {
        self.mask().apply(addr) == self.addr
    }

    /// True if `other` is entirely inside this prefix (including equality).
    pub fn covers(self, other: Prefix) -> bool {
        self.len <= other.len && self.contains(other.addr)
    }

    /// True if the two prefixes share any address.
    pub fn overlaps(self, other: Prefix) -> bool {
        self.covers(other) || other.covers(self)
    }

    /// Splits into the two immediate subnets, or `None` for /32.
    pub fn split(self) -> Option<(Prefix, Prefix)> {
        if self.len == 32 {
            return None;
        }
        let left = Prefix { addr: self.addr, len: self.len + 1 };
        let hi = self.addr.to_u32() | 1 << (31 - self.len);
        let right = Prefix { addr: Addr::from_u32(hi), len: self.len + 1 };
        Some((left, right))
    }

    /// True for the /30 point-to-point subnets that dominate serial links.
    pub const fn is_p2p(self) -> bool {
        self.len == 30
    }

    /// The two usable host addresses of a /30, or `None` otherwise.
    pub fn p2p_hosts(self) -> Option<(Addr, Addr)> {
        if !self.is_p2p() {
            return None;
        }
        let base = self.addr.to_u32();
        Some((Addr::from_u32(base + 1), Addr::from_u32(base + 2)))
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.len)
    }
}

impl fmt::Debug for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Prefix({self})")
    }
}

/// Error returned when parsing a [`Prefix`] fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePrefixError {
    text: String,
}

impl fmt::Display for ParsePrefixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid prefix: {:?}", self.text)
    }
}

impl std::error::Error for ParsePrefixError {}

impl FromStr for Prefix {
    type Err = ParsePrefixError;

    fn from_str(s: &str) -> Result<Prefix, ParsePrefixError> {
        let err = || ParsePrefixError { text: s.to_string() };
        let (addr_text, len_text) = s.split_once('/').ok_or_else(err)?;
        let addr: Addr = addr_text.parse().map_err(|_| err())?;
        let len: u8 = len_text.parse().map_err(|_| err())?;
        Prefix::new(addr, len).ok_or_else(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn canonicalizes_host_bits() {
        assert_eq!(p("10.1.2.3/8"), p("10.0.0.0/8"));
        assert_eq!(p("10.1.2.3/8").to_string(), "10.0.0.0/8");
    }

    #[test]
    fn containment_and_overlap() {
        assert!(p("10.0.0.0/8").covers(p("10.5.0.0/16")));
        assert!(!p("10.5.0.0/16").covers(p("10.0.0.0/8")));
        assert!(p("10.0.0.0/8").overlaps(p("10.5.0.0/16")));
        assert!(!p("10.0.0.0/8").overlaps(p("11.0.0.0/8")));
        assert!(p("0.0.0.0/0").covers(p("255.255.255.255/32")));
    }

    #[test]
    fn split_supernet_sibling_are_consistent() {
        let pfx = p("192.0.2.0/24");
        let (l, r) = pfx.split().unwrap();
        assert_eq!(l, p("192.0.2.0/25"));
        assert_eq!(r, p("192.0.2.128/25"));
        // Each half's one-bit-shorter supernet is the split prefix, and
        // the halves are siblings: they differ only in that bit.
        for half in [l, r] {
            assert_eq!(Prefix::new(half.addr(), half.len() - 1), Some(pfx));
            assert!(pfx.covers(half));
        }
        assert_eq!(l.addr().to_u32() ^ r.addr().to_u32(), 1 << (32 - l.len()));
        assert!(!l.overlaps(r));
        assert!(p("1.2.3.4/32").split().is_none());
    }

    #[test]
    fn first_last_size() {
        let pfx = p("66.253.32.84/30");
        assert_eq!(pfx.first().to_string(), "66.253.32.84");
        assert_eq!(pfx.last().to_string(), "66.253.32.87");
        assert_eq!(pfx.size(), 4);
        let (a, b) = pfx.p2p_hosts().unwrap();
        assert_eq!(a.to_string(), "66.253.32.85");
        assert_eq!(b.to_string(), "66.253.32.86");
        assert!(p("10.0.0.0/24").p2p_hosts().is_none());
    }

    #[test]
    fn ordering_puts_supernets_before_subnets() {
        let mut v = vec![p("10.0.0.0/16"), p("10.0.0.0/8"), p("9.0.0.0/8")];
        v.sort();
        assert_eq!(v, vec![p("9.0.0.0/8"), p("10.0.0.0/8"), p("10.0.0.0/16")]);
    }

    #[test]
    fn parse_rejects_malformed() {
        for s in ["10.0.0.0", "10.0.0.0/33", "10.0.0/8", "x/8", "10.0.0.0/x"] {
            assert!(s.parse::<Prefix>().is_err(), "accepted {s:?}");
        }
    }

    #[test]
    fn from_mask_matches_parse() {
        let addr: Addr = "66.251.75.144".parse().unwrap();
        let mask: Netmask = "255.255.255.128".parse().unwrap();
        assert_eq!(Prefix::from_mask(addr, mask), p("66.251.75.128/25"));
    }
}
