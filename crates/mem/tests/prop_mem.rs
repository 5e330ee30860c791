//! Model-based property tests for the memory substrate: the TLB against a
//! naive map, and the page table's translation invariants.

use std::collections::BTreeMap;

use proptest::prelude::*;
use vrcache_mem::addr::{Asid, Ppn, VirtAddr, Vpn};
use vrcache_mem::page::PageSize;
use vrcache_mem::page_table::MemoryMap;
use vrcache_mem::tlb::{Tlb, TlbConfig};

#[derive(Debug, Clone)]
enum TlbOp {
    Lookup(u16, u64),
    Fill(u16, u64, u64),
    FlushAsid(u16),
    FlushAll,
}

fn tlb_op() -> impl Strategy<Value = TlbOp> {
    prop_oneof![
        4 => (0u16..4, 0u64..64).prop_map(|(a, v)| TlbOp::Lookup(a, v)),
        4 => (0u16..4, 0u64..64, 0u64..1024).prop_map(|(a, v, p)| TlbOp::Fill(a, v, p)),
        1 => (0u16..4).prop_map(TlbOp::FlushAsid),
        1 => Just(TlbOp::FlushAll),
    ]
}

proptest! {
    /// The TLB is a bounded cache of the translation map: it never returns
    /// a translation that was not installed, and never a stale one after a
    /// newer fill or a flush.
    #[test]
    fn tlb_never_lies(ops in proptest::collection::vec(tlb_op(), 1..300)) {
        let mut tlb = Tlb::new(TlbConfig::new(16, 2).unwrap());
        // The authoritative translations ever installed.
        let mut truth: BTreeMap<(u16, u64), u64> = BTreeMap::new();

        for op in &ops {
            match op {
                TlbOp::Lookup(a, v) => {
                    if let Some(ppn) = tlb.lookup(Asid::new(*a), Vpn::new(*v)) {
                        // A hit must match the last installed translation.
                        prop_assert_eq!(
                            Some(&ppn.raw()),
                            truth.get(&(*a, *v)),
                            "tlb returned a translation never installed"
                        );
                    }
                    // A miss is always acceptable (bounded capacity).
                }
                TlbOp::Fill(a, v, p) => {
                    tlb.fill(Asid::new(*a), Vpn::new(*v), Ppn::new(*p));
                    truth.insert((*a, *v), *p);
                    // Immediately after a fill, the entry must be visible.
                    prop_assert_eq!(
                        tlb.peek(Asid::new(*a), Vpn::new(*v)),
                        Some(Ppn::new(*p))
                    );
                }
                TlbOp::FlushAsid(a) => {
                    tlb.flush_asid(Asid::new(*a));
                    // Nothing of that ASID survives.
                    for ((ta, tv), _) in truth.iter() {
                        if ta == a {
                            prop_assert_eq!(
                                tlb.peek(Asid::new(*ta), Vpn::new(*tv)),
                                None,
                                "entry survived an asid flush"
                            );
                        }
                    }
                    truth.retain(|(ta, _), _| ta != a);
                }
                TlbOp::FlushAll => {
                    tlb.flush_all();
                    prop_assert_eq!(tlb.valid_entries(), 0);
                    truth.clear();
                }
            }
            prop_assert!(tlb.valid_entries() <= 16);
        }
    }

    /// Demand mapping is a function: the same (asid, va) always translates
    /// to the same pa; different pages never share a frame unless aliased.
    #[test]
    fn memory_map_is_functional(
        touches in proptest::collection::vec((0u16..4, 0u64..32, 0u64..4096), 1..200),
    ) {
        let page = PageSize::new(4096).unwrap();
        let mut map = MemoryMap::new(page);
        let mut first_seen: BTreeMap<(u16, u64), u64> = BTreeMap::new();
        let mut frame_owner: BTreeMap<u64, (u16, u64)> = BTreeMap::new();

        for (asid, vpage, offset) in &touches {
            let va = VirtAddr::new(vpage * 4096 + offset);
            let pa = map.translate_or_map(Asid::new(*asid), va);
            // Offset preserved.
            prop_assert_eq!(pa.raw() % 4096, *offset);
            let frame = pa.raw() / 4096;
            // Stable translation.
            if let Some(prev) = first_seen.get(&(*asid, *vpage)) {
                prop_assert_eq!(frame, *prev, "translation changed");
            } else {
                first_seen.insert((*asid, *vpage), frame);
                // Fresh frames are exclusive (no aliasing requested).
                prop_assert!(
                    frame_owner.insert(frame, (*asid, *vpage)).is_none(),
                    "two pages share a frame without an alias"
                );
            }
        }
        prop_assert_eq!(map.frames_allocated() as usize, frame_owner.len());
    }

    /// Aliases share frames and are reported as synonyms; translation
    /// through either name reaches the same frame.
    #[test]
    fn aliases_are_synonyms(
        n_pages in 1u64..8,
        alias_page in 8u64..16,
    ) {
        let page = PageSize::new(4096).unwrap();
        let mut map = MemoryMap::new(page);
        let asid = Asid::new(1);
        for i in 0..n_pages {
            map.translate_or_map(asid, VirtAddr::new(i * 4096));
        }
        // Alias a fresh virtual page onto frame 0.
        map.alias(asid, VirtAddr::new(alias_page * 4096), Ppn::new(0)).unwrap();
        let a = map.translate(asid, VirtAddr::new(0x10)).unwrap();
        let b = map.translate(asid, VirtAddr::new(alias_page * 4096 + 0x10)).unwrap();
        prop_assert_eq!(a, b);
        prop_assert!(map.has_synonyms(Ppn::new(0)));
        prop_assert_eq!(map.synonyms_of(Ppn::new(0)).len(), 2);
    }
}
