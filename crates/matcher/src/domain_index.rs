//! Reversed-label suffix index for domain blacklists and category oracles.
//!
//! The paper recovers a list of 105 domains "for which no request is allowed"
//! (§5.4, Table 8) and shows that the `.il` ccTLD is blocked wholesale. A
//! domain blacklist therefore needs *registrable-suffix* semantics:
//! `facebook.com` must match `www.facebook.com` but not `notfacebook.com`,
//! and the entry `.il` (or equivalently `il`) must match every Israeli host.
//!
//! [`DomainIndex`] stores the entries as a reversed-label automaton
//! (`com` → `facebook`) flattened DAFSA-style into three arrays: a pool of
//! lowercased label bytes, a sorted edge table, and a node table of edge
//! ranges. A query walks the host's labels right-to-left, binary-searching
//! each node's edge run with allocation-free case-folded comparison, and
//! the whole structure serializes into the compiled policy artifact as a
//! handful of length-prefixed arrays.
//!
//! Semantics (property-tested against the suffix checks in
//! [`crate::naive`]): ASCII case is ignored, one trailing host dot is
//! tolerated, and leading entry dots are stripped. The policy engine asks
//! for the *shortest* covering entry ([`DomainIndex::lookup`]), the category
//! oracle for the *longest* ([`DomainIndex::lookup_longest`]), and the
//! policy linter for a strictly shorter entry covering another
//! ([`DomainIndex::shadowing_entry`]).

use filterscope_core::{ByteReader, ByteWriter, Error, Result};
use std::collections::BTreeMap;

/// Sentinel terminal value for "no entry ends at this node".
const NO_ENTRY: u32 = u32::MAX;

/// Allocation ceiling for deserialized tables (labels bytes, edge and
/// node counts), so a corrupt length cannot trigger an absurd allocation.
const MAX_TABLE: usize = 1 << 26;

/// Longest label (in bytes) an entry may have: edge lengths are stored as
/// `u16`.
const MAX_LABEL_LEN: usize = u16::MAX as usize;

/// Check that every label of `entry` fits the index (65,535 bytes, the
/// `u16` edge length), naming the first one that does not. Parsers of
/// outside input call this; [`DomainIndex::from_entries`] panics instead.
pub fn check_entry(entry: &str) -> std::result::Result<(), String> {
    match entry.split('.').find(|l| l.len() > MAX_LABEL_LEN) {
        None => Ok(()),
        Some(label) => Err(format!(
            "domain label of {} bytes exceeds the {MAX_LABEL_LEN}-byte limit",
            label.len()
        )),
    }
}

/// One labelled edge: `labels[off..off + len]` leads to node `child`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Edge {
    off: u32,
    len: u16,
    child: u32,
}

/// One node: a run of sorted edges plus an optional terminal entry index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct NodeRec {
    edge_start: u32,
    edge_count: u32,
    terminal: u32,
}

/// A set of domain suffixes as flat arrays; see the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainIndex {
    /// Lowercased label bytes, concatenated.
    labels: Vec<u8>,
    /// All edges, grouped by owning node, sorted by label within a group.
    edges: Vec<Edge>,
    /// Node 0 is the root.
    nodes: Vec<NodeRec>,
    /// Number of distinct entries.
    len: usize,
}

/// Build-time node, keyed by lowercased label (sorted iteration gives the
/// sorted edge runs for free).
#[derive(Default)]
struct TempNode {
    children: BTreeMap<Vec<u8>, TempNode>,
    terminal: Option<u32>,
}

impl DomainIndex {
    /// Build from entries: leading dots stripped, labels lowercased. Each
    /// distinct entry gets the next index in first-occurrence order, and
    /// duplicates collapse onto the first one's index.
    ///
    /// # Panics
    ///
    /// If an entry has a label longer than 65,535 bytes (see
    /// [`check_entry`]).
    pub fn from_entries<'a>(entries: impl IntoIterator<Item = &'a str>) -> DomainIndex {
        let mut root = TempNode::default();
        let mut len = 0u32;
        for entry in entries {
            if let Err(reason) = check_entry(entry) {
                panic!("domain index entry rejected: {reason}");
            }
            let entry = entry.trim_start_matches('.');
            let mut node = &mut root;
            for label in entry.rsplit('.') {
                let label = label.to_ascii_lowercase().into_bytes();
                node = node.children.entry(label).or_default();
            }
            if node.terminal.is_none() {
                node.terminal = Some(len);
                len += 1;
            }
        }

        // Flatten breadth-first so each node's edges form one contiguous,
        // sorted run.
        let mut labels = Vec::new();
        let mut edges = Vec::new();
        let mut nodes = Vec::new();
        let mut queue: std::collections::VecDeque<TempNode> = std::collections::VecDeque::new();
        queue.push_back(root);
        let mut next_id = 1u32;
        while let Some(node) = queue.pop_front() {
            let edge_start = edges.len() as u32;
            for (label, child) in node.children {
                let off = labels.len() as u32;
                labels.extend_from_slice(&label);
                edges.push(Edge {
                    off,
                    len: label.len() as u16,
                    child: next_id,
                });
                next_id += 1;
                queue.push_back(child);
            }
            nodes.push(NodeRec {
                edge_start,
                edge_count: edges.len() as u32 - edge_start,
                terminal: node.terminal.unwrap_or(NO_ENTRY),
            });
        }
        // The queue preserves child order, but each child's own NodeRec is
        // appended when *it* is dequeued — BFS ids therefore match `child`.
        DomainIndex {
            labels,
            edges,
            nodes,
            len: len as usize,
        }
    }

    /// Number of distinct entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the index empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Case-folded comparison of a stored edge label against a probe
    /// label from the host (probe is folded on the fly; stored labels are
    /// lowercased at build time).
    fn cmp_label(&self, edge: Edge, probe: &str) -> std::cmp::Ordering {
        let stored = &self.labels[edge.off as usize..edge.off as usize + edge.len as usize];
        let probe = probe.as_bytes();
        let n = stored.len().min(probe.len());
        for i in 0..n {
            let p = probe[i].to_ascii_lowercase();
            match stored[i].cmp(&p) {
                std::cmp::Ordering::Equal => {}
                other => return other,
            }
        }
        stored.len().cmp(&probe.len())
    }

    /// The child reached from `node` over `label`, if any.
    fn descend(&self, node: NodeRec, label: &str) -> Option<NodeRec> {
        let run =
            &self.edges[node.edge_start as usize..(node.edge_start + node.edge_count) as usize];
        let i = run.binary_search_by(|&e| self.cmp_label(e, label)).ok()?;
        Some(self.nodes[run[i].child as usize])
    }

    /// The entries on the path of `name`'s labels, shortest first, each
    /// with whether it spans all of `name`. Stops where the path leaves
    /// the index.
    fn covering<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (u32, bool)> + 'a {
        let mut labels = name.rsplit('.').peekable();
        let mut node = self.nodes[0];
        std::iter::from_fn(move || loop {
            node = self.descend(node, labels.next()?)?;
            if node.terminal != NO_ENTRY {
                return Some((node.terminal, labels.peek().is_none()));
            }
        })
        .fuse()
    }

    /// `host` without one trailing dot, or `None` when nothing is left.
    fn host_name(host: &str) -> Option<&str> {
        let host = host.strip_suffix('.').unwrap_or(host);
        (!host.is_empty()).then_some(host)
    }

    /// If `host` is covered by an entry, the index of the *shortest*
    /// covering entry (the outermost blacklist rule): with entries `il` and
    /// `co.il`, host `panet.co.il` reports `il`.
    pub fn lookup(&self, host: &str) -> Option<u32> {
        let (ix, _) = self.covering(Self::host_name(host)?).next()?;
        Some(ix)
    }

    /// If `host` is covered by an entry, the index of the *longest* (most
    /// specific) covering entry, as a category oracle wants it:
    /// `mail.yahoo.com` over `yahoo.com`.
    pub fn lookup_longest(&self, host: &str) -> Option<u32> {
        let (ix, _) = self.covering(Self::host_name(host)?).last()?;
        Some(ix)
    }

    /// Does any entry cover `host`?
    pub fn matches(&self, host: &str) -> bool {
        self.lookup(host).is_some()
    }

    /// The index [`DomainIndex::from_entries`] gave `entry` (normalized the
    /// same way), or `None` if it is not an entry.
    pub fn entry_index(&self, entry: &str) -> Option<u32> {
        match self.covering(entry.trim_start_matches('.')).last()? {
            (ix, true) => Some(ix),
            (_, false) => None,
        }
    }

    /// If a *strictly shorter* entry covers the suffix `entry`, the index
    /// of the shortest such entry.
    ///
    /// This is the suffix-subsumption query behind the policy linter: with
    /// entries `il` and `co.il`, the entry `co.il` can never be the deciding
    /// rule (every host it covers is already covered by `il`), so
    /// `shadowing_entry("co.il")` reports the index of `il`. An entry never
    /// shadows itself, and `entry` need not be in the index.
    pub fn shadowing_entry(&self, entry: &str) -> Option<u32> {
        let entry = entry.trim_start_matches('.');
        if entry.is_empty() {
            return None;
        }
        let (ix, _) = self.covering(entry).find(|&(_, whole)| !whole)?;
        Some(ix)
    }

    /// Serialize into `w` (see [`DomainIndex::read_from`]).
    pub fn write_into(&self, w: &mut ByteWriter) {
        w.put_u32(self.len as u32);
        w.put_bytes(&self.labels);
        w.put_u32(self.edges.len() as u32);
        for e in &self.edges {
            w.put_u32(e.off);
            w.put_u16(e.len);
            w.put_u32(e.child);
        }
        w.put_u32(self.nodes.len() as u32);
        for n in &self.nodes {
            w.put_u32(n.edge_start);
            w.put_u32(n.edge_count);
            w.put_u32(n.terminal);
        }
    }

    /// Deserialize, validating every index: label slices inside the pool,
    /// edge runs inside the edge table, children inside the node table,
    /// terminals below the entry count. Violations fail closed.
    pub fn read_from(r: &mut ByteReader<'_>) -> Result<DomainIndex> {
        let bad = |what: &str| Error::InvalidConfig(format!("domain index: {what}"));
        let len = r.get_u32()? as usize;
        let labels = r.get_bytes()?.to_vec();
        if labels.len() > MAX_TABLE {
            return Err(bad("label pool exceeds the size ceiling"));
        }
        let edge_count = r.get_u32()? as usize;
        if edge_count > MAX_TABLE {
            return Err(bad("edge table exceeds the size ceiling"));
        }
        let mut edges = Vec::with_capacity(edge_count);
        for _ in 0..edge_count {
            let (off, elen, child) = (r.get_u32()?, r.get_u16()?, r.get_u32()?);
            if off as usize + elen as usize > labels.len() {
                return Err(bad("edge label outside the pool"));
            }
            edges.push(Edge {
                off,
                len: elen,
                child,
            });
        }
        let node_count = r.get_u32()? as usize;
        if node_count == 0 || node_count > MAX_TABLE {
            return Err(bad("node table empty or exceeds the size ceiling"));
        }
        let mut nodes = Vec::with_capacity(node_count);
        for _ in 0..node_count {
            let (edge_start, edge_count_n, terminal) = (r.get_u32()?, r.get_u32()?, r.get_u32()?);
            let end = edge_start
                .checked_add(edge_count_n)
                .ok_or_else(|| bad("edge run overflows"))?;
            if end as usize > edges.len() {
                return Err(bad("edge run outside the edge table"));
            }
            if terminal != NO_ENTRY && terminal as usize >= len {
                return Err(bad("terminal entry out of range"));
            }
            nodes.push(NodeRec {
                edge_start,
                edge_count: edge_count_n,
                terminal,
            });
        }
        for e in &edges {
            if e.child as usize >= nodes.len() {
                return Err(bad("edge child out of range"));
            }
        }
        Ok(DomainIndex {
            labels,
            edges,
            nodes,
            len,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;

    #[test]
    fn exact_and_subdomain_match() {
        let index = DomainIndex::from_entries(["facebook.com", "metacafe.com"]);
        assert!(index.matches("facebook.com"));
        assert!(index.matches("www.facebook.com"));
        assert!(index.matches("ar-ar.facebook.com"));
        assert!(!index.matches("notfacebook.com"));
        assert!(!index.matches("facebook.com.evil.net"));
        assert!(!index.matches("com"));
    }

    #[test]
    fn tld_entry_blocks_cctld() {
        let index = DomainIndex::from_entries([".il"]);
        assert!(index.matches("panet.co.il"));
        assert!(index.matches("il"));
        assert!(!index.matches("il.example.com"));
    }

    #[test]
    fn case_and_trailing_dot_insensitive() {
        let index = DomainIndex::from_entries(["Skype.COM"]);
        assert!(index.matches("download.skype.com"));
        assert!(index.matches("SKYPE.com."));
    }

    #[test]
    fn agrees_with_naive_on_fixed_cases() {
        let entries = ["facebook.com", ".il", "Skype.COM", "co.il", "jumblo.com"];
        let index = DomainIndex::from_entries(entries);
        for host in [
            "facebook.com",
            "www.facebook.com",
            "notfacebook.com",
            "il",
            "IL",
            "panet.co.il",
            "x.co.il",
            "download.skype.com",
            "SKYPE.com.",
            "skype.com.fake.org",
            "jumblo.com",
            "example.org",
            "",
            ".",
            "a..com",
        ] {
            assert_eq!(
                index.lookup(host),
                naive::domain_lookup(&entries, host),
                "host {host:?}"
            );
            assert_eq!(
                index.lookup_longest(host),
                naive::domain_lookup_longest(&entries, host),
                "host {host:?}"
            );
        }
    }

    #[test]
    fn shortest_and_longest_suffix() {
        let index = DomainIndex::from_entries(["il", "co.il", "panet.co.il"]);
        assert_eq!(index.lookup("panet.co.il"), Some(0));
        assert_eq!(index.lookup("idf.il"), Some(0));
        assert_eq!(index.lookup_longest("www.panet.co.il"), Some(2));
        assert_eq!(index.lookup_longest("x.co.il"), Some(1));
        assert_eq!(index.lookup_longest("idf.il"), Some(0));
        // An exact entry is its own longest match.
        assert_eq!(index.lookup_longest("co.il"), Some(1));
        assert_eq!(index.lookup_longest("example.com"), None);
        assert_eq!(index.lookup_longest(""), None);
    }

    #[test]
    fn shadowing_entry_reports_proper_suffixes_only() {
        let index = DomainIndex::from_entries(["il", "co.il", "panet.co.il", "metacafe.com"]);
        // `co.il` is shadowed by `il`; `panet.co.il` by the shortest cover.
        assert_eq!(index.shadowing_entry("co.il"), Some(0));
        assert_eq!(index.shadowing_entry("panet.co.il"), Some(0));
        // An entry never shadows itself.
        assert_eq!(index.shadowing_entry("il"), None);
        assert_eq!(index.shadowing_entry("metacafe.com"), None);
        // Names that are not entries report their shortest covering suffix.
        assert_eq!(index.shadowing_entry("x.co.il"), Some(0));
        assert_eq!(index.shadowing_entry("example.org"), None);
        assert_eq!(index.shadowing_entry(""), None);
        assert_eq!(index.shadowing_entry(".CO.IL"), Some(0));
    }

    #[test]
    fn entry_index_follows_first_occurrence_order() {
        let index = DomainIndex::from_entries(["co.il", "Badoo.com", "il", ".badoo.com"]);
        assert_eq!(index.entry_index("co.il"), Some(0));
        assert_eq!(index.entry_index("BADOO.COM"), Some(1));
        assert_eq!(index.entry_index(".il"), Some(2));
        // Covered names and path prefixes are not entries.
        assert_eq!(index.entry_index("x.co.il"), None);
        assert_eq!(index.entry_index("com"), None);
    }

    #[test]
    fn overlong_labels_are_named() {
        let long = format!("{}.com", "a".repeat(MAX_LABEL_LEN + 4));
        let reason = check_entry(&long).unwrap_err();
        assert!(reason.contains("65539 bytes"), "{reason}");
        assert!(check_entry(&format!("{}.com", "a".repeat(MAX_LABEL_LEN))).is_ok());
    }

    /// A label past the `u16` edge length used to wrap, so the entry
    /// matched hosts on its first `len mod 65536` bytes (`aaa.com` here).
    #[test]
    #[should_panic(expected = "exceeds the 65535-byte limit")]
    fn overlong_label_panics_instead_of_truncating() {
        let long = format!("{}.com", "a".repeat(MAX_LABEL_LEN + 4));
        DomainIndex::from_entries([long.as_str()]);
    }

    #[test]
    fn duplicate_entries_collapse() {
        let index = DomainIndex::from_entries(["badoo.com", ".badoo.com", "badoo.com"]);
        assert_eq!(index.len(), 1);
        assert!(index.matches("m.badoo.com"));
    }

    #[test]
    fn empty_index_and_empty_host() {
        let index = DomainIndex::from_entries([]);
        assert!(index.is_empty());
        assert!(!index.matches("anything.com"));
        let index = DomainIndex::from_entries(["x.com"]);
        assert!(!index.matches(""));
    }

    #[test]
    fn serialization_roundtrip_is_identity() {
        let index = DomainIndex::from_entries(["facebook.com", ".il", "skype.com", "co.il"]);
        let mut w = ByteWriter::new();
        index.write_into(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = DomainIndex::read_from(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(index, back);
        assert!(back.matches("www.facebook.com"));
        assert!(back.matches("panet.co.il"));
        assert!(!back.matches("example.org"));
    }

    #[test]
    fn corrupt_serializations_fail_closed() {
        let index = DomainIndex::from_entries(["facebook.com", ".il"]);
        let mut w = ByteWriter::new();
        index.write_into(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            assert!(
                DomainIndex::read_from(&mut ByteReader::new(&bytes[..cut])).is_err(),
                "cut {cut}"
            );
        }
        // A label-pool length lying past the end is caught by the reader.
        let mut bad = bytes.clone();
        bad[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(DomainIndex::read_from(&mut ByteReader::new(&bad)).is_err());
    }
}
