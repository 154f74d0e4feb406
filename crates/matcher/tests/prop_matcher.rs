//! Property tests: the optimized engines agree with the naive references on
//! arbitrary inputs.

use filterscope_core::{ByteReader, ByteWriter, Ipv4Cidr};
use filterscope_match::{naive, AcDfa, AhoCorasick, CidrSet, DomainIndex};
use proptest::prelude::*;

proptest! {
    /// Aho–Corasick reports exactly the matches a quadratic scan finds.
    #[test]
    fn aho_corasick_equals_naive(
        patterns in proptest::collection::vec("[a-c]{1,4}", 0..6),
        haystack in "[a-c]{0,40}",
    ) {
        let ac = AhoCorasick::new(&patterns);
        let mut got: Vec<(usize, usize)> = ac
            .find_all(haystack.as_bytes())
            .into_iter()
            .map(|m| (m.pattern, m.start))
            .collect();
        got.sort_unstable();
        let mut want = naive::find_all(&patterns, haystack.as_bytes());
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// `is_match` agrees with the full scan.
    #[test]
    fn aho_corasick_is_match_consistent(
        patterns in proptest::collection::vec("[a-b]{1,3}", 1..5),
        haystack in "[a-b]{0,30}",
    ) {
        let ac = AhoCorasick::new(&patterns);
        prop_assert_eq!(
            ac.is_match(haystack.as_bytes()),
            naive::is_match(&patterns, haystack.as_bytes())
        );
    }

    /// CidrSet containment equals a linear scan over the source blocks.
    #[test]
    fn cidr_set_equals_linear(
        blocks in proptest::collection::vec((any::<u32>(), 8u8..=32), 0..20),
        probes in proptest::collection::vec(any::<u32>(), 0..50),
    ) {
        let blocks: Vec<Ipv4Cidr> = blocks
            .into_iter()
            .map(|(addr, len)| Ipv4Cidr::new(std::net::Ipv4Addr::from(addr), len).unwrap())
            .collect();
        let set = CidrSet::from_blocks(blocks.iter().copied());
        for p in probes {
            let a = std::net::Ipv4Addr::from(p);
            prop_assert_eq!(set.contains(a), naive::cidr_contains(&blocks, a));
        }
    }

    /// The dense DFA compiled for the policy artifact agrees with the
    /// sparse automaton it was tabulated from, and survives a
    /// serialization round trip unchanged.
    #[test]
    fn ac_dfa_equals_automaton(
        patterns in proptest::collection::vec("[a-dA-D]{1,4}", 0..6),
        haystacks in proptest::collection::vec("[a-eA-E]{0,30}", 0..10),
        ci in any::<bool>(),
    ) {
        let ac = filterscope_match::aho_corasick::AhoCorasickBuilder::new()
            .ascii_case_insensitive(ci)
            .build(&patterns);
        let dfa = AcDfa::from_automaton(&ac);
        let mut w = ByteWriter::new();
        dfa.write_into(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = AcDfa::read_from(&mut r).unwrap();
        prop_assert!(r.is_exhausted());
        prop_assert_eq!(&dfa, &back);
        for hay in &haystacks {
            let want = ac.is_match(hay.as_bytes());
            prop_assert_eq!(dfa.is_match(hay), want, "haystack {:?}", hay);
            prop_assert_eq!(back.is_match(hay), want, "haystack {:?}", hay);
        }
    }

    /// Every domain-index query agrees with the naive suffix checks on
    /// arbitrary entries and hosts, before and after serialization. A small
    /// label alphabet makes entries nest, and half the hosts are built
    /// under an entry, so shortest and longest covers often differ.
    #[test]
    fn domain_index_equals_naive(
        entries in proptest::collection::vec(
            "(\\.){0,1}[a-bA-B]{1,2}(\\.[a-bA-B]{1,2}){0,2}", 0..8),
        random_hosts in proptest::collection::vec(
            "[a-cA-C]{1,2}(\\.[a-cA-C]{1,2}){0,3}(\\.){0,1}", 0..6),
        under_entries in proptest::collection::vec(
            (0usize..8, "([a-cA-C]{1,2}\\.){0,2}", "(\\.){0,1}"), 0..6),
    ) {
        let mut hosts = random_hosts;
        for (i, prefix, dot) in under_entries {
            if let Some(entry) = entries.get(i % entries.len().max(1)) {
                hosts.push(format!("{prefix}{}{dot}", entry.trim_start_matches('.')));
            }
        }
        let entry_refs: Vec<&str> = entries.iter().map(|s| s.as_str()).collect();
        let index = DomainIndex::from_entries(entry_refs.iter().copied());
        let mut w = ByteWriter::new();
        index.write_into(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = DomainIndex::read_from(&mut r).unwrap();
        prop_assert!(r.is_exhausted());
        prop_assert_eq!(&index, &back);
        let distinct = naive::domain_entries(&entry_refs);
        prop_assert_eq!(index.len(), distinct.len());
        for host in &hosts {
            let shortest = naive::domain_lookup(&entry_refs, host);
            let longest = naive::domain_lookup_longest(&entry_refs, host);
            for ix in [&index, &back] {
                prop_assert_eq!(ix.lookup(host), shortest, "host {:?}", host);
                prop_assert_eq!(ix.lookup_longest(host), longest, "host {:?}", host);
            }
        }
        for name in entry_refs.iter().copied().chain(hosts.iter().map(|h| h.as_str())) {
            prop_assert_eq!(
                index.shadowing_entry(name),
                naive::domain_shadowing_entry(&entry_refs, name),
                "name {:?}", name
            );
            let key = name.trim_start_matches('.').to_ascii_lowercase();
            let position = distinct.iter().position(|e| *e == key);
            prop_assert_eq!(
                index.entry_index(name),
                position.map(|p| p as u32),
                "name {:?}", name
            );
        }
    }

    /// CidrSet queries survive a serialization round trip unchanged.
    #[test]
    fn cidr_set_roundtrip_preserves_containment(
        blocks in proptest::collection::vec((any::<u32>(), 8u8..=32), 0..16),
        probes in proptest::collection::vec(any::<u32>(), 0..40),
    ) {
        let blocks: Vec<Ipv4Cidr> = blocks
            .into_iter()
            .map(|(addr, len)| Ipv4Cidr::new(std::net::Ipv4Addr::from(addr), len).unwrap())
            .collect();
        let set = CidrSet::from_blocks(blocks.iter().copied());
        let mut w = ByteWriter::new();
        set.write_into(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = CidrSet::read_from(&mut r).unwrap();
        prop_assert!(r.is_exhausted());
        for p in probes {
            let a = std::net::Ipv4Addr::from(p);
            prop_assert_eq!(set.contains(a), back.contains(a));
        }
    }

    /// Every match reported by find_all is an actual occurrence.
    #[test]
    fn matches_are_real_occurrences(
        patterns in proptest::collection::vec("[a-d]{1,5}", 1..6),
        haystack in "[a-d]{0,60}",
    ) {
        let ac = AhoCorasick::new(&patterns);
        for m in ac.find_all(haystack.as_bytes()) {
            prop_assert_eq!(
                &haystack.as_bytes()[m.start..m.end],
                patterns[m.pattern].as_bytes()
            );
        }
    }
}
