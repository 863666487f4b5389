//! IPv4 addressing primitives for static routing-design analysis.
//!
//! This crate provides the address-space substrate used throughout the
//! routing-design toolchain:
//!
//! - [`Addr`]: a thin, `Copy`, ordered IPv4 address built on `u32`.
//! - [`Netmask`] / [`Wildcard`]: contiguous netmasks and Cisco-style wildcard
//!   (inverse) masks, with conversions and validity checking.
//! - [`Prefix`]: a CIDR prefix with containment, overlap, supernet/subnet
//!   arithmetic and canonical formatting.
//! - [`PrefixSet`]: an exact set of IPv4 addresses represented as sorted
//!   disjoint ranges, supporting union / intersection / difference and
//!   conversion back to a minimal prefix list. This is the semantic domain in
//!   which route filters (access lists, distribute lists, route maps) are
//!   interpreted by the `reachability` crate.
//! - [`AddrSet`] / [`PrefixMap`]: sorted-slice indexes ([`index`]) giving the
//!   hot analysis loops O(log n) membership, range, longest-prefix-match and
//!   covering-prefix queries over plain `Vec`s.
//! - [`blocks`]: the Section 3.4 address-block recovery algorithm from the
//!   paper, which aggregates the fragmented subnets mentioned in configuration
//!   files into a hierarchical tree of address blocks.
//!
//! Everything here is deliberately IPv4-only: the paper's corpus (2004-era
//! Cisco IOS configurations) is IPv4-only, and keeping the domain `u32`-sized
//! keeps the set algebra exact and fast.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
pub mod blocks;
pub mod index;
mod mask;
mod prefix;
mod set;

pub use addr::{Addr, ParseAddrError};
pub use blocks::{recover_blocks, AddressBlock, BlockTree};
pub use index::{AddrSet, PrefixMap};
pub use mask::{Netmask, ParseMaskError, Wildcard};
pub use prefix::{ParsePrefixError, Prefix};
pub use set::{PrefixSet, Range};
