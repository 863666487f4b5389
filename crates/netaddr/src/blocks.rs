//! Address-space structure recovery (paper Section 3.4).
//!
//! Configuration files mention only small, fragmented subnets; the paper
//! recovers the designer's addressing plan by repeatedly joining subnets
//! whose network numbers differ in no more than the two low-order bits of
//! the (shorter) network number — i.e. expanding blocks so long as at least
//! half of the enlarged block is used — until no more joins are possible.
//! The result is a hierarchical tree of address blocks.

use crate::addr::Addr;
use crate::prefix::Prefix;

/// One node of the recovered address-block hierarchy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AddressBlock {
    /// The covering prefix of this block.
    pub prefix: Prefix,
    /// Number of addresses inside `prefix` that are used by the network
    /// (covered by some configured subnet).
    pub used: u64,
    /// Sub-blocks that were merged to form this block. Leaves are the
    /// subnets actually mentioned in the configurations.
    pub children: Vec<AddressBlock>,
}

impl AddressBlock {
    fn leaf(prefix: Prefix) -> AddressBlock {
        AddressBlock { prefix, used: prefix.size(), children: Vec::new() }
    }

    /// Fraction of this block's address space that is used, in [0, 1].
    pub fn utilization(&self) -> f64 {
        self.used as f64 / self.prefix.size() as f64
    }

    /// Iterates over the leaf subnets under this block.
    pub fn leaves(&self) -> Vec<Prefix> {
        if self.children.is_empty() {
            return vec![self.prefix];
        }
        self.children.iter().flat_map(|c| c.leaves()).collect()
    }

    /// Visits every leaf subnet under this block without allocating the
    /// intermediate `Vec`s that [`AddressBlock::leaves`] builds.
    pub fn for_each_leaf(&self, f: &mut impl FnMut(Prefix)) {
        if self.children.is_empty() {
            f(self.prefix);
            return;
        }
        for c in &self.children {
            c.for_each_leaf(f);
        }
    }
}

/// The recovered address-space structure: a forest of top-level blocks.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BlockTree {
    /// Top-level (unmergeable) blocks, sorted by prefix.
    pub roots: Vec<AddressBlock>,
}

impl BlockTree {
    /// Total number of top-level blocks.
    pub fn len(&self) -> usize {
        self.roots.len()
    }

    /// True if the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// The top-level block containing `addr`, if any. O(log n): roots come
    /// out of [`recover_blocks`] sorted and pairwise disjoint, so the only
    /// candidate is the last root starting at or before `addr`.
    pub fn block_of(&self, addr: Addr) -> Option<&AddressBlock> {
        let i = self.roots.partition_point(|b| b.prefix.first() <= addr);
        let b = &self.roots[i.checked_sub(1)?];
        b.prefix.contains(addr).then_some(b)
    }

    /// The top-level block covering **all** of `p`, if any. O(log n), by
    /// the same sorted-disjoint argument as [`BlockTree::block_of`].
    pub fn covering_root(&self, p: Prefix) -> Option<&AddressBlock> {
        let i = self.roots.partition_point(|b| b.prefix.first() <= p.first());
        let b = &self.roots[i.checked_sub(1)?];
        b.prefix.covers(p).then_some(b)
    }

    /// The top-level prefixes, sorted.
    pub fn root_prefixes(&self) -> Vec<Prefix> {
        self.roots.iter().map(|b| b.prefix).collect()
    }
}

/// Smallest common supernet of two prefixes.
fn common_supernet(a: Prefix, b: Prefix) -> Prefix {
    let max_len = a.len().min(b.len());
    let diff = a.addr().to_u32() ^ b.addr().to_u32();
    let common = (diff.leading_zeros() as u8).min(max_len);
    Prefix::new(a.addr(), common).expect("common <= 32")
}

/// Recovers the address-block hierarchy from the subnets mentioned in a
/// network's configuration files.
///
/// Duplicates are removed and covered subnets are nested before the join
/// loop runs. Two blocks are joined when (a) their common supernet strips at
/// most the two bits just below the shorter block's mask (the paper's
/// "network numbers differ in no more than the least two bits"), and (b) at
/// least half of the joined block's address space is used.
pub fn recover_blocks<I: IntoIterator<Item = Prefix>>(subnets: I) -> BlockTree {
    // Dedupe and sort; sorting places supernets directly before subnets.
    let mut uniq: Vec<Prefix> = {
        let set: std::collections::BTreeSet<Prefix> = subnets.into_iter().collect();
        set.into_iter().collect()
    };

    // Nest covered subnets under their covering subnet so the "used" counts
    // do not double-count overlapping space.
    let mut blocks: Vec<AddressBlock> = Vec::new();
    uniq.sort();
    for p in uniq {
        match blocks.last_mut() {
            Some(last) if last.prefix.covers(p) => {
                nest_leaf(last, p);
            }
            _ => blocks.push(AddressBlock::leaf(p)),
        }
    }

    // Join loop: repeatedly merge neighbouring blocks until fixpoint.
    loop {
        blocks.sort_by_key(|b| b.prefix);
        let mut merged_any = false;
        let mut next: Vec<AddressBlock> = Vec::with_capacity(blocks.len());
        let mut iter = blocks.into_iter();
        let mut pending: Option<AddressBlock> = iter.next();
        for b in iter {
            let a = pending.take().expect("pending is always Some in loop");
            match try_join(a, b) {
                Ok(joined) => {
                    pending = Some(joined);
                    merged_any = true;
                }
                Err((a, b)) => {
                    next.push(a);
                    pending = Some(b);
                }
            }
        }
        if let Some(last) = pending {
            next.push(last);
        }
        blocks = next;
        if !merged_any {
            break;
        }
    }

    BlockTree { roots: blocks }
}

/// Nests leaf subnet `p` under block `node` (which covers it).
fn nest_leaf(node: &mut AddressBlock, p: Prefix) {
    if node.prefix == p {
        return; // exact duplicate
    }
    if let Some(child) = node.children.iter_mut().find(|c| c.prefix.covers(p)) {
        nest_leaf(child, p);
        return;
    }
    // `node` was itself a configured subnet that covers p; p adds no new
    // used space, but record it as a child for structure.
    node.children.push(AddressBlock::leaf(p));
}

/// Attempts to join two address-ordered blocks per the paper's rule. The
/// join decision reads only prefixes and usage counts, so the blocks are
/// taken by value and *moved* into the joined node (the old version cloned
/// both subtrees per join, which dominated the stage at full scale); on
/// rejection they come back unchanged in `Err`.
fn try_join(
    a: AddressBlock,
    b: AddressBlock,
) -> Result<AddressBlock, (AddressBlock, AddressBlock)> {
    if a.prefix.covers(b.prefix) {
        // Can arise after earlier joins create enclosing blocks. Roots are
        // pairwise disjoint before the loop, so `b`'s space is not yet
        // counted in `a`.
        let mut joined = a;
        joined.used += b.used;
        joined.children.push(b);
        return Ok(joined);
    }
    let sup = common_supernet(a.prefix, b.prefix);
    let shorter = a.prefix.len().min(b.prefix.len());
    // "Differ in no more than the least two bits": stripping at most two
    // bits below the shorter network mask reaches the common supernet.
    if sup.len() + 2 < shorter {
        return Err((a, b));
    }
    let used = a.used + b.used;
    // At least half the enlarged block must be used.
    if used * 2 < sup.size() {
        return Err((a, b));
    }
    Ok(AddressBlock { prefix: sup, used, children: vec![a, b] })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pfx(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn sibling_subnets_join_into_supernet() {
        let tree = recover_blocks(vec![pfx("10.0.0.0/25"), pfx("10.0.0.128/25")]);
        assert_eq!(tree.root_prefixes(), vec![pfx("10.0.0.0/24")]);
        assert_eq!(tree.roots[0].used, 256);
        assert_eq!(tree.roots[0].utilization(), 1.0);
    }

    #[test]
    fn sparse_subnets_do_not_join() {
        // Two /30s far apart in a /16: joining would be far under half used.
        let tree = recover_blocks(vec![pfx("10.0.0.0/30"), pfx("10.0.255.0/30")]);
        assert_eq!(tree.len(), 2);
    }

    #[test]
    fn two_bit_gap_joins_when_half_used() {
        // Four /26s fill a /24: each adjacent pair joins (1-bit gap), then
        // the two /25s join.
        let subnets = vec![
            pfx("10.0.0.0/26"),
            pfx("10.0.0.64/26"),
            pfx("10.0.0.128/26"),
            pfx("10.0.0.192/26"),
        ];
        let tree = recover_blocks(subnets);
        assert_eq!(tree.root_prefixes(), vec![pfx("10.0.0.0/24")]);
    }

    #[test]
    fn half_usage_boundary() {
        // Two /26s inside a /24 occupy exactly half: allowed to join
        // (joins proceed pairwise through the /25 level).
        let tree = recover_blocks(vec![pfx("10.0.0.0/26"), pfx("10.0.0.64/26")]);
        assert_eq!(tree.root_prefixes(), vec![pfx("10.0.0.0/25")]);
        // A single /26 plus a distant /26 in the same /24 but needing a
        // 2-bit expansion with only half usage: still joins at exactly 1/2.
        let tree = recover_blocks(vec![pfx("10.0.0.0/26"), pfx("10.0.0.192/26")]);
        assert_eq!(tree.root_prefixes(), vec![pfx("10.0.0.0/24")]);
        assert_eq!(tree.roots[0].used, 128);
    }

    #[test]
    fn duplicate_and_covered_subnets_are_nested() {
        let tree = recover_blocks(vec![
            pfx("10.0.0.0/24"),
            pfx("10.0.0.0/24"),
            pfx("10.0.0.0/25"),
        ]);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.roots[0].prefix, pfx("10.0.0.0/24"));
        assert_eq!(tree.roots[0].used, 256);
    }

    #[test]
    fn distinct_address_families_stay_separate() {
        let tree = recover_blocks(vec![pfx("10.0.0.0/24"), pfx("192.168.0.0/24")]);
        assert_eq!(tree.len(), 2);
        assert!(tree.block_of("10.0.0.5".parse().unwrap()).is_some());
        assert!(tree.block_of("172.16.0.1".parse().unwrap()).is_none());
    }

    #[test]
    fn leaves_recover_original_subnets() {
        let subnets =
            vec![pfx("10.0.0.0/26"), pfx("10.0.0.64/26"), pfx("10.0.0.128/26")];
        let tree = recover_blocks(subnets.clone());
        let mut leaves: Vec<Prefix> =
            tree.roots.iter().flat_map(|b| b.leaves()).collect();
        leaves.sort();
        assert_eq!(leaves, subnets);
    }

    #[test]
    fn common_supernet_examples() {
        assert_eq!(
            common_supernet(pfx("10.0.0.0/25"), pfx("10.0.0.128/25")),
            pfx("10.0.0.0/24")
        );
        assert_eq!(
            common_supernet(pfx("10.0.0.0/24"), pfx("11.0.0.0/24")),
            pfx("10.0.0.0/7")
        );
    }
}
