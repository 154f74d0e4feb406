//! Reference implementations used for differential testing and ablation.
//!
//! These are intentionally the simplest correct implementations of the
//! operations the optimized engines in this crate provide. Property tests
//! assert equivalence; the ablation benches in `filterscope-bench` quantify
//! how much the optimized engines buy.

use filterscope_core::Ipv4Cidr;
use std::net::Ipv4Addr;

/// All `(pattern index, start offset)` occurrences of any pattern in
/// `haystack`, by scanning every pattern at every offset.
pub fn find_all<P: AsRef<[u8]>>(patterns: &[P], haystack: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (pi, pat) in patterns.iter().enumerate() {
        let pat = pat.as_ref();
        if pat.is_empty() || pat.len() > haystack.len() {
            continue;
        }
        for start in 0..=(haystack.len() - pat.len()) {
            if &haystack[start..start + pat.len()] == pat {
                out.push((pi, start));
            }
        }
    }
    out
}

/// Does any pattern occur as a substring of `haystack`? Case-sensitive.
pub fn is_match<P: AsRef<[u8]>>(patterns: &[P], haystack: &[u8]) -> bool {
    patterns.iter().any(|p| {
        let p = p.as_ref();
        !p.is_empty() && haystack.windows(p.len()).any(|w| w == p)
    })
}

/// Linear-scan CIDR containment: is `addr` inside any of `blocks`?
pub fn cidr_contains(blocks: &[Ipv4Cidr], addr: Ipv4Addr) -> bool {
    blocks.iter().any(|b| b.contains(addr))
}

/// Suffix-check domain blacklist: does `host` equal, or end with a dot plus,
/// any entry? Entries beginning with `'.'` (e.g. `.il`) match any host with
/// that suffix, including the bare suffix itself.
pub fn domain_matches(entries: &[&str], host: &str) -> bool {
    let host = host.to_ascii_lowercase();
    entries.iter().any(|e| {
        let e = e.to_ascii_lowercase();
        if let Some(stripped) = e.strip_prefix('.') {
            host == stripped || host.ends_with(&e)
        } else {
            host == e || host.ends_with(&format!(".{e}"))
        }
    })
}

/// Distinct domain entries in first-occurrence order, normalized the way
/// `DomainIndex` stores them (leading dots stripped, lowercased); an
/// entry's position is its index.
pub fn domain_entries(entries: &[&str]) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for e in entries {
        let e = e.trim_start_matches('.').to_ascii_lowercase();
        if !out.contains(&e) {
            out.push(e);
        }
    }
    out
}

/// `(index, entry)` of every entry that equals `name` or ends it after a
/// dot.
fn domain_covers<'a>(
    entries: &'a [String],
    name: &'a str,
) -> impl Iterator<Item = (u32, &'a String)> + 'a {
    (0u32..)
        .zip(entries)
        .filter(move |(_, e)| name == e.as_str() || name.ends_with(&format!(".{e}")))
}

/// `host` lowercased without one trailing dot, or `None` when empty.
fn domain_host(host: &str) -> Option<String> {
    let host = host.strip_suffix('.').unwrap_or(host);
    (!host.is_empty()).then(|| host.to_ascii_lowercase())
}

/// Index of the shortest entry covering `host`.
pub fn domain_lookup(entries: &[&str], host: &str) -> Option<u32> {
    let (entries, host) = (domain_entries(entries), domain_host(host)?);
    let shortest = domain_covers(&entries, &host).min_by_key(|(_, e)| e.len());
    shortest.map(|(ix, _)| ix)
}

/// Index of the longest entry covering `host`.
pub fn domain_lookup_longest(entries: &[&str], host: &str) -> Option<u32> {
    let (entries, host) = (domain_entries(entries), domain_host(host)?);
    let longest = domain_covers(&entries, &host).max_by_key(|(_, e)| e.len());
    longest.map(|(ix, _)| ix)
}

/// Index of the shortest entry covering `entry` other than `entry` itself.
pub fn domain_shadowing_entry(entries: &[&str], entry: &str) -> Option<u32> {
    let entries = domain_entries(entries);
    let entry = entry.trim_start_matches('.').to_ascii_lowercase();
    if entry.is_empty() {
        return None;
    }
    let shortest = domain_covers(&entries, &entry)
        .filter(|(_, e)| **e != entry)
        .min_by_key(|(_, e)| e.len());
    shortest.map(|(ix, _)| ix)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_find_all_basics() {
        let hits = find_all(&["ab", "b"], b"abab");
        assert!(hits.contains(&(0, 0)));
        assert!(hits.contains(&(0, 2)));
        assert!(hits.contains(&(1, 1)));
        assert!(hits.contains(&(1, 3)));
        assert_eq!(hits.len(), 4);
    }

    #[test]
    fn naive_domain_suffix_semantics() {
        let entries = ["facebook.com", ".il"];
        assert!(domain_matches(&entries, "facebook.com"));
        assert!(domain_matches(&entries, "www.facebook.com"));
        assert!(!domain_matches(&entries, "notfacebook.com"));
        assert!(domain_matches(&entries, "panet.co.il"));
        assert!(!domain_matches(&entries, "il.example.com"));
    }

    #[test]
    fn naive_domain_lookups() {
        let entries = ["il", ".CO.il", "panet.co.il", "co.il"];
        assert_eq!(domain_entries(&entries), ["il", "co.il", "panet.co.il"]);
        assert_eq!(domain_lookup(&entries, "www.panet.co.il."), Some(0));
        assert_eq!(domain_lookup_longest(&entries, "WWW.panet.co.il"), Some(2));
        assert_eq!(domain_lookup_longest(&entries, "notpanet.co.il"), Some(1));
        assert_eq!(domain_lookup(&entries, "."), None);
        assert_eq!(domain_shadowing_entry(&entries, "panet.co.il"), Some(0));
        assert_eq!(domain_shadowing_entry(&entries, "il"), None);
    }

    #[test]
    fn naive_cidr_scan() {
        let blocks = vec![Ipv4Cidr::parse("84.229.0.0/16").unwrap()];
        assert!(cidr_contains(&blocks, "84.229.1.1".parse().unwrap()));
        assert!(!cidr_contains(&blocks, "84.230.0.0".parse().unwrap()));
    }
}
