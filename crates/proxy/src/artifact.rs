//! The compiled policy artifact: one versioned, CRC-checked binary file
//! holding everything a [`PolicyEngine`] needs, in its *compiled* form.
//!
//! `filterscope compile` serializes a policy — dense keyword DFA, flat
//! domain index, merged CIDR table, the three small hash-set tiers, the
//! source CPL text, and optionally the whole farm configuration — into a
//! single `header + section table + payload` file. Opening the artifact
//! deserializes the hot structures directly (no automaton construction,
//! no suffix-index building, no CIDR merging); the only text parsed at load time
//! is the embedded source CPL, kept so the `filterscope-policylint`
//! witness gate can rebuild a reference engine and prove the compiled
//! forms still decide identically before a hot-swap is accepted.
//!
//! ## Layout (all integers little-endian)
//!
//! ```text
//! magic        b"FSCP"
//! version      u32         (= 1)
//! section_count u32
//! section table, one row per section, sorted by id:
//!     id       u32
//!     offset   u64         relative to payload start
//!     len      u64
//!     crc      u32         CRC-32/ISO-HDLC of the section bytes
//! header_crc   u32         CRC-32 of every header byte above
//! payload      the sections, contiguous and in table order
//! ```
//!
//! Every structural invariant is re-validated on load and any violation —
//! bad magic, unknown version, table rows out of order or out of bounds,
//! CRC mismatch anywhere, trailing bytes, malformed section body — fails
//! closed with an error and leaves nothing half-built.

use crate::config::FarmConfig;
use crate::cpl::{parse_cpl, to_cpl};
use crate::engine::PolicyEngine;
use crate::policy_data::PolicyData;
use filterscope_core::{crc32, ByteReader, ByteWriter, Error, ProxyId, Result};
use filterscope_match::{AcDfa, CidrSet, DomainIndex};
use filterscope_tor::RelayIndex;
use std::sync::Arc;

/// File magic: "FilterScope Compiled Policy".
pub const MAGIC: [u8; 4] = *b"FSCP";

/// Current artifact format version.
pub const VERSION: u32 = 1;

/// Section ids, in file order.
pub const SEC_SOURCE_CPL: u32 = 1;
pub const SEC_KEYWORD_DFA: u32 = 2;
pub const SEC_DOMAIN_INDEX: u32 = 3;
pub const SEC_CIDR_RANGES: u32 = 4;
pub const SEC_REDIRECTS: u32 = 5;
pub const SEC_CUSTOM_PAGES: u32 = 6;
pub const SEC_CUSTOM_QUERIES: u32 = 7;
pub const SEC_FARM: u32 = 8;
pub const SEC_META: u32 = 9;

/// Upper bound on the section count a loader will accept.
const MAX_SECTIONS: usize = 64;

/// Bytes per section-table row: id + offset + len + crc.
const TABLE_ROW_LEN: usize = 4 + 8 + 8 + 4;

fn bad(what: impl Into<String>) -> Error {
    Error::InvalidConfig(format!("policy artifact: {}", what.into()))
}

/// A policy loaded from an artifact: the ready-to-serve engine plus the
/// provenance the witness gate and the hot-swap plumbing need.
pub struct CompiledPolicy {
    /// The engine, built from the compiled sections (not from the CPL).
    pub engine: PolicyEngine,
    /// The source policy, parsed from the embedded CPL section.
    pub source: PolicyData,
    /// The embedded CPL text verbatim.
    pub source_cpl: String,
    /// Artifact format version.
    pub version: u32,
    /// Engine seed recorded at compile time.
    pub seed: u64,
    /// Farm configuration, when the artifact was compiled with `--farm`.
    pub farm: Option<FarmConfig>,
}

/// Serialize `policy` (and optionally a farm configuration) into artifact
/// bytes. `seed` is the engine seed recorded in the META section and used
/// by deterministic tiers (the Tor window model) after load.
pub fn compile(policy: &PolicyData, seed: u64, farm: Option<&FarmConfig>) -> Vec<u8> {
    // Compile the hot structures exactly as `PolicyEngine::from_data` does.
    let keywords = AcDfa::build(&policy.keywords, true);
    let domains = DomainIndex::from_entries(policy.blocked_domains.iter().map(|s| s.as_str()));
    let subnets = CidrSet::from_blocks(policy.blocked_subnets.iter().copied());

    let mut sections: Vec<(u32, Vec<u8>)> = Vec::new();
    let sec = |id: u32, body: ByteWriter, out: &mut Vec<(u32, Vec<u8>)>| {
        out.push((id, body.into_bytes()));
    };

    let mut w = ByteWriter::new();
    w.put_str(&to_cpl(policy));
    sec(SEC_SOURCE_CPL, w, &mut sections);

    let mut w = ByteWriter::new();
    keywords.write_into(&mut w);
    sec(SEC_KEYWORD_DFA, w, &mut sections);

    let mut w = ByteWriter::new();
    domains.write_into(&mut w);
    sec(SEC_DOMAIN_INDEX, w, &mut sections);

    let mut w = ByteWriter::new();
    subnets.write_into(&mut w);
    sec(SEC_CIDR_RANGES, w, &mut sections);

    let mut w = ByteWriter::new();
    write_str_list(&mut w, policy.redirect_hosts.iter().map(|s| s.as_str()));
    sec(SEC_REDIRECTS, w, &mut sections);

    let mut w = ByteWriter::new();
    w.put_u32(policy.custom_pages.len() as u32);
    for (host, path) in &policy.custom_pages {
        w.put_str(host);
        w.put_str(path);
    }
    sec(SEC_CUSTOM_PAGES, w, &mut sections);

    let mut w = ByteWriter::new();
    write_str_list(&mut w, policy.custom_queries.iter().map(|s| s.as_str()));
    sec(SEC_CUSTOM_QUERIES, w, &mut sections);

    if let Some(farm) = farm {
        let mut w = ByteWriter::new();
        w.put_u64(farm.seed);
        w.put_u32(farm.error_per_cent_mille);
        w.put_u32(farm.proxied_per_cent_mille);
        w.put_u32(farm.proxies.len() as u32);
        for p in &farm.proxies {
            w.put_u8(p.id.index() as u8);
            w.put_u32(p.tor_rule_per_mille_cap);
        }
        sec(SEC_FARM, w, &mut sections);
    }

    let mut w = ByteWriter::new();
    w.put_u64(seed);
    sec(SEC_META, w, &mut sections);

    // Header: magic, version, section table, header CRC; then the payload.
    let mut header = ByteWriter::new();
    header.put_raw(&MAGIC);
    header.put_u32(VERSION);
    header.put_u32(sections.len() as u32);
    let mut offset = 0u64;
    for (id, body) in &sections {
        header.put_u32(*id);
        header.put_u64(offset);
        header.put_u64(body.len() as u64);
        header.put_u32(crc32(body));
        offset += body.len() as u64;
    }
    let header_crc = crc32(header.as_slice());
    header.put_u32(header_crc);

    let mut out = header.into_bytes();
    for (_, body) in sections {
        out.extend_from_slice(&body);
    }
    out
}

/// Deserialize an artifact, validating magic, version, the section table,
/// the header CRC, and every per-section CRC before touching any body.
/// `relays` enables the SG-44 Tor rule on the loaded engine, exactly as in
/// [`PolicyEngine::from_data`].
pub fn load(bytes: &[u8], relays: Option<Arc<RelayIndex>>) -> Result<CompiledPolicy> {
    let mut r = ByteReader::new(bytes);
    if r.get_raw(4)
        .map_err(|_| bad("file shorter than the magic"))?
        != MAGIC
    {
        return Err(bad("bad magic (not an FSCP artifact)"));
    }
    let version = r.get_u32()?;
    if version != VERSION {
        return Err(bad(format!(
            "unsupported version {version} (this build reads {VERSION})"
        )));
    }
    let section_count = r.get_u32()? as usize;
    if section_count == 0 || section_count > MAX_SECTIONS {
        return Err(bad("section count outside [1, 64]"));
    }

    // Read the table, then check the header CRC before trusting any row.
    let header_len = 4 + 4 + 4 + section_count * TABLE_ROW_LEN;
    let mut table = Vec::with_capacity(section_count);
    for _ in 0..section_count {
        let id = r.get_u32()?;
        let offset = r.get_u64()?;
        let len = r.get_u64()?;
        let crc = r.get_u32()?;
        table.push((id, offset, len, crc));
    }
    let stored_header_crc = r.get_u32()?;
    if crc32(&bytes[..header_len]) != stored_header_crc {
        return Err(bad("header CRC mismatch"));
    }

    let payload = &bytes[header_len + 4..];
    // Rows must be sorted by id (no duplicates) and tile the payload
    // exactly — contiguous, in order, no gaps, no trailing bytes.
    let mut expect_offset = 0u64;
    for (i, &(id, offset, len, _)) in table.iter().enumerate() {
        if i > 0 && id <= table[i - 1].0 {
            return Err(bad("section ids out of order or duplicated"));
        }
        if offset != expect_offset {
            return Err(bad("section offsets are not contiguous"));
        }
        expect_offset = offset
            .checked_add(len)
            .ok_or_else(|| bad("section extent overflows"))?;
    }
    if expect_offset != payload.len() as u64 {
        return Err(bad("payload length disagrees with the section table"));
    }

    let section = |id: u32| -> Result<&[u8]> {
        let &(_, offset, len, crc) = table
            .iter()
            .find(|row| row.0 == id)
            .ok_or_else(|| bad(format!("required section {id} is missing")))?;
        let body = &payload[offset as usize..(offset + len) as usize];
        if crc32(body) != crc {
            return Err(bad(format!("section {id} CRC mismatch")));
        }
        Ok(body)
    };
    // Verify every CRC up front, including sections this version ignores.
    for &(id, _, _, _) in &table {
        section(id)?;
    }

    let mut r = ByteReader::new(section(SEC_SOURCE_CPL)?);
    let source_cpl = r.get_str()?.to_string();
    r.expect_exhausted()?;
    let source = parse_cpl(&source_cpl)?;

    let mut r = ByteReader::new(section(SEC_KEYWORD_DFA)?);
    let keywords = AcDfa::read_from(&mut r)?;
    r.expect_exhausted()?;

    let mut r = ByteReader::new(section(SEC_DOMAIN_INDEX)?);
    let domains = DomainIndex::read_from(&mut r)?;
    r.expect_exhausted()?;

    let mut r = ByteReader::new(section(SEC_CIDR_RANGES)?);
    let subnets = CidrSet::read_from(&mut r)?;
    r.expect_exhausted()?;

    let mut r = ByteReader::new(section(SEC_REDIRECTS)?);
    let redirect_hosts = read_str_list(&mut r)?.into_iter().collect();
    r.expect_exhausted()?;

    let mut r = ByteReader::new(section(SEC_CUSTOM_PAGES)?);
    let n = r.get_u32()? as usize;
    let mut custom_pages = std::collections::HashSet::with_capacity(n);
    for _ in 0..n {
        let host = r.get_str()?.to_string();
        let path = r.get_str()?.to_string();
        custom_pages.insert((host, path));
    }
    r.expect_exhausted()?;

    let mut r = ByteReader::new(section(SEC_CUSTOM_QUERIES)?);
    let custom_queries = read_str_list(&mut r)?.into_iter().collect();
    r.expect_exhausted()?;

    let farm = match table.iter().find(|row| row.0 == SEC_FARM) {
        Some(_) => Some(read_farm(&mut ByteReader::new(section(SEC_FARM)?))?),
        None => None,
    };

    let mut r = ByteReader::new(section(SEC_META)?);
    let seed = r.get_u64()?;
    r.expect_exhausted()?;

    let engine = PolicyEngine {
        keywords,
        domains,
        subnets,
        redirect_hosts,
        custom_pages,
        custom_queries,
        relays,
        seed,
    };
    Ok(CompiledPolicy {
        engine,
        source,
        source_cpl,
        version,
        seed,
        farm,
    })
}

fn write_str_list<'a>(w: &mut ByteWriter, items: impl ExactSizeIterator<Item = &'a str>) {
    w.put_u32(items.len() as u32);
    for s in items {
        w.put_str(s);
    }
}

fn read_str_list(r: &mut ByteReader<'_>) -> Result<Vec<String>> {
    let n = r.get_u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        out.push(r.get_str()?.to_string());
    }
    Ok(out)
}

fn read_farm(r: &mut ByteReader<'_>) -> Result<FarmConfig> {
    let seed = r.get_u64()?;
    let error_per_cent_mille = r.get_u32()?;
    let proxied_per_cent_mille = r.get_u32()?;
    let n = r.get_u32()? as usize;
    if n != ProxyId::COUNT {
        return Err(bad(format!("farm section lists {n} proxies, expected 7")));
    }
    let mut proxies = Vec::with_capacity(n);
    for want in 0..n {
        let idx = r.get_u8()? as usize;
        if idx != want {
            return Err(bad("farm proxies out of order"));
        }
        let id = ProxyId::from_index(idx).ok_or_else(|| bad("farm proxy index out of range"))?;
        let mut cfg = crate::config::ProxyConfig::standard(id);
        cfg.tor_rule_per_mille_cap = r.get_u32()?;
        proxies.push(cfg);
    }
    r.expect_exhausted()?;
    Ok(FarmConfig {
        proxies,
        seed,
        error_per_cent_mille,
        proxied_per_cent_mille,
        // The FSCP farm section describes the Blue Coat deployment the
        // artifact was measured from; censor profiles are a simulation-side
        // concern and are not part of the serialized format.
        profile: crate::profile::ProfileKind::BlueCoat,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProxyConfig;
    use crate::decision::{Decision, Trigger};
    use crate::request::Request;
    use filterscope_core::Timestamp;
    use filterscope_logformat::RequestUrl;

    fn probe_urls() -> Vec<RequestUrl> {
        vec![
            RequestUrl::http("google.com", "/tbproxy/af/query"),
            RequestUrl::http("metacafe.com", "/"),
            RequestUrl::http("www.facebook.com", "/Syrian.Revolution").with_query("ref=ts"),
            RequestUrl::http("upload.youtube.com", "/upload"),
            RequestUrl::http("84.229.13.7", "/"),
            RequestUrl::http("example.org", "/benign"),
            RequestUrl::http("panet.co.il", "/"),
            RequestUrl::http("example.com", "/x").with_query("q=UltraSurf"),
        ]
    }

    #[test]
    fn roundtrip_preserves_every_decision() {
        let policy = PolicyData::standard();
        let bytes = compile(&policy, 7, None);
        let loaded = load(&bytes, None).unwrap();
        let reference = PolicyEngine::from_data(&policy, None, 7);
        for url in probe_urls() {
            assert_eq!(
                loaded.engine.decide_url(&url),
                reference.decide_url(&url),
                "{url:?}"
            );
        }
        assert_eq!(loaded.source, policy);
        assert_eq!(loaded.version, VERSION);
        assert_eq!(loaded.seed, 7);
        assert!(loaded.farm.is_none());
    }

    #[test]
    fn roundtrip_preserves_the_farm_configuration() {
        let policy = PolicyData::standard();
        for farm in [FarmConfig::default(), FarmConfig::tor_blocked_era()] {
            let bytes = compile(&policy, farm.seed, Some(&farm));
            let loaded = load(&bytes, None).unwrap();
            let got = loaded.farm.expect("farm section present");
            assert_eq!(got.seed, farm.seed);
            assert_eq!(got.error_per_cent_mille, farm.error_per_cent_mille);
            assert_eq!(got.proxied_per_cent_mille, farm.proxied_per_cent_mille);
            assert_eq!(got.proxies.len(), farm.proxies.len());
            for (a, b) in got.proxies.iter().zip(&farm.proxies) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.tor_rule_per_mille_cap, b.tor_rule_per_mille_cap);
                assert_eq!(a.default_category, b.default_category);
                assert_eq!(a.blocked_category, b.blocked_category);
            }
        }
    }

    #[test]
    fn farm_roundtrip_preserves_decisions_for_all_seven_proxies() {
        let policy = PolicyData::standard();
        let ts = Timestamp::parse_fields("2011-08-03", "12:00:00").unwrap();
        for farm in [FarmConfig::default(), FarmConfig::tor_blocked_era()] {
            let bytes = compile(&policy, farm.seed, Some(&farm));
            let loaded = load(&bytes, None).unwrap();
            let reference = PolicyEngine::from_data(&policy, None, farm.seed);
            let got_farm = loaded.farm.as_ref().expect("farm present");
            assert_eq!(got_farm.proxies.len(), 7);
            // The reconstructed per-proxy configs must drive the loaded
            // engine to the same decision as the original configs drive
            // the parse-built engine, for every one of the seven proxies.
            for (orig, got) in farm.proxies.iter().zip(&got_farm.proxies) {
                for url in probe_urls() {
                    let req = Request::get(ts, url.clone());
                    assert_eq!(
                        loaded.engine.decide(got, &req),
                        reference.decide(orig, &req),
                        "proxy {:?} url {url:?}",
                        orig.id
                    );
                }
            }
        }
    }

    #[test]
    fn loaded_engine_runs_the_full_decide_path() {
        let bytes = compile(&PolicyData::standard(), 42, None);
        let loaded = load(&bytes, None).unwrap();
        let cfg = ProxyConfig::standard(filterscope_core::ProxyId::Sg42);
        let ts = Timestamp::parse_fields("2011-08-03", "09:00:00").unwrap();
        let req = Request::get(ts, RequestUrl::http("google.com", "/tbproxy/af/query"));
        assert_eq!(
            loaded.engine.decide(&cfg, &req),
            Decision::Deny(Trigger::Keyword)
        );
    }

    #[test]
    fn bad_magic_and_version_fail_closed() {
        let bytes = compile(&PolicyData::standard(), 1, None);
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(load(&bad_magic, None).is_err());
        let mut bad_version = bytes.clone();
        bad_version[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert!(load(&bad_version, None).is_err());
        assert!(load(&bytes[..3], None).is_err());
    }

    #[test]
    fn every_truncation_fails_closed() {
        let bytes = compile(&PolicyData::standard(), 1, None);
        // Sample prefixes (every length would be slow on a full policy).
        for cut in (0..bytes.len()).step_by(101).chain([bytes.len() - 1]) {
            assert!(load(&bytes[..cut], None).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn single_bit_flips_fail_closed() {
        // A small policy keeps the exhaustive bit-flip sweep fast.
        let policy = PolicyData {
            keywords: vec!["proxy".into()],
            blocked_domains: vec!["il".into()],
            blocked_subnets: vec![filterscope_core::Ipv4Cidr::parse("84.228.0.0/15").unwrap()],
            redirect_hosts: vec!["upload.youtube.com".into()],
            custom_pages: vec![("www.facebook.com".into(), "/Syrian.Revolution".into())],
            custom_queries: vec!["ref=ts".into(), String::new()],
        };
        let bytes = compile(&policy, 3, None);
        let reference = load(&bytes, None).unwrap();
        let probes = probe_urls();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[i] ^= 1 << bit;
                // Either the loader rejects the flip, or (CRC collision —
                // impossible for single-bit flips, but keep the invariant
                // honest) the loaded engine still decides identically.
                if let Ok(loaded) = load(&flipped, None) {
                    for url in &probes {
                        assert_eq!(
                            loaded.engine.decide_url(url),
                            reference.engine.decide_url(url),
                            "flip byte {i} bit {bit} changed a decision"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn missing_required_section_fails_closed() {
        // Hand-build an artifact with only the META section.
        let mut body = ByteWriter::new();
        body.put_u64(1);
        let body = body.into_bytes();
        let mut header = ByteWriter::new();
        header.put_raw(&MAGIC);
        header.put_u32(VERSION);
        header.put_u32(1);
        header.put_u32(SEC_META);
        header.put_u64(0);
        header.put_u64(body.len() as u64);
        header.put_u32(crc32(&body));
        let crc = crc32(header.as_slice());
        header.put_u32(crc);
        let mut bytes = header.into_bytes();
        bytes.extend_from_slice(&body);
        let err = match load(&bytes, None) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("artifact without policy sections must be rejected"),
        };
        assert!(err.contains("missing"), "{err}");
    }
}
