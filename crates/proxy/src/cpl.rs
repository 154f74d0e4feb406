//! A CPL-flavoured policy text format.
//!
//! Blue Coat appliances are configured in CPL (Content Policy Language).
//! This module serializes a [`PolicyData`] to a small, CPL-inspired dialect
//! and parses it back, so policies can be stored, diffed, hand-edited, and
//! — the interesting use — *exported from the §5.4 inference* and re-run
//! against fresh traffic:
//!
//! ```text
//! ; filterscope policy
//! define condition blacklist_keywords
//!   url.substring="proxy"
//! end
//! define condition blocked_domains
//!   url.domain="metacafe.com"
//! end
//! define subnet blocked_subnets
//!   84.229.0.0/16
//! end
//! define condition redirect_hosts
//!   url.host="upload.youtube.com"
//! end
//! define condition blocked_pages
//!   url.host="www.facebook.com" url.path="/Syrian.Revolution"
//! end
//! define condition blocked_page_queries
//!   url.query="ref=ts"
//! end
//! ```

use crate::policy_data::PolicyData;
use filterscope_core::{Error, Ipv4Cidr, Result};
use filterscope_match::domain_index::check_entry;

/// Escape a value for a quoted CPL literal. Quotes and backslashes get a
/// backslash; newlines and carriage returns become `\n`/`\r` so that any
/// value survives the line-oriented format.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            _ => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Parse a quoted CPL literal starting at `s` (after the opening quote has
/// been located); returns (value, rest-after-closing-quote).
fn unquote(s: &str) -> Result<(String, &str)> {
    let bad = || Error::InvalidConfig(format!("bad CPL string literal near {s:?}"));
    let mut out = String::new();
    let mut chars = s.char_indices();
    loop {
        match chars.next() {
            Some((_, '\\')) => match chars.next() {
                Some((_, 'n')) => out.push('\n'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, c)) => out.push(c),
                None => return Err(bad()),
            },
            Some((i, '"')) => return Ok((out, &s[i + 1..])),
            Some((_, c)) => out.push(c),
            None => return Err(bad()),
        }
    }
}

/// Serialize a policy to the CPL dialect.
pub fn to_cpl(policy: &PolicyData) -> String {
    let mut out = String::new();
    out.push_str("; filterscope policy (CPL dialect)\n");

    out.push_str("define condition blacklist_keywords\n");
    for k in &policy.keywords {
        out.push_str(&format!("  url.substring={}\n", quote(k)));
    }
    out.push_str("end\n\n");

    out.push_str("define condition blocked_domains\n");
    for d in &policy.blocked_domains {
        out.push_str(&format!("  url.domain={}\n", quote(d)));
    }
    out.push_str("end\n\n");

    out.push_str("define subnet blocked_subnets\n");
    for s in &policy.blocked_subnets {
        out.push_str(&format!("  {s}\n"));
    }
    out.push_str("end\n\n");

    out.push_str("define condition redirect_hosts\n");
    for h in &policy.redirect_hosts {
        out.push_str(&format!("  url.host={}\n", quote(h)));
    }
    out.push_str("end\n\n");

    out.push_str("define condition blocked_pages\n");
    for (host, path) in &policy.custom_pages {
        out.push_str(&format!(
            "  url.host={} url.path={}\n",
            quote(host),
            quote(path)
        ));
    }
    out.push_str("end\n\n");

    out.push_str("define condition blocked_page_queries\n");
    for q in &policy.custom_queries {
        out.push_str(&format!("  url.query={}\n", quote(q)));
    }
    out.push_str("end\n");
    out
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    None,
    Keywords,
    Domains,
    Subnets,
    Redirects,
    Pages,
    Queries,
}

impl Section {
    /// The `define …` header naming this section in the dialect.
    fn name(self) -> &'static str {
        match self {
            Section::None => "",
            Section::Keywords => "condition blacklist_keywords",
            Section::Domains => "condition blocked_domains",
            Section::Subnets => "subnet blocked_subnets",
            Section::Redirects => "condition redirect_hosts",
            Section::Pages => "condition blocked_pages",
            Section::Queries => "condition blocked_page_queries",
        }
    }

    /// Bit used to track which sections a document has already defined.
    fn bit(self) -> u8 {
        match self {
            Section::None => 0,
            Section::Keywords => 1,
            Section::Domains => 2,
            Section::Subnets => 4,
            Section::Redirects => 8,
            Section::Pages => 16,
            Section::Queries => 32,
        }
    }
}

/// Extract the value of a leading `key="..."` attribute from `line`,
/// returning (value, rest-after-closing-quote). The attribute must start the
/// (whitespace-trimmed) line — stray text before it is a parse error.
fn take_attr<'a>(line: &'a str, key: &str) -> Result<(String, &'a str)> {
    let line = line.trim_start();
    let rest = line
        .strip_prefix(key)
        .and_then(|r| r.strip_prefix("=\""))
        .ok_or_else(|| Error::InvalidConfig(format!("expected {key}=\"...\", found {line:?}")))?;
    unquote(rest)
}

/// Fail when anything but whitespace follows the last attribute of a line.
fn expect_line_end(rest: &str) -> Result<()> {
    if rest.trim().is_empty() {
        Ok(())
    } else {
        Err(Error::InvalidConfig(format!(
            "trailing content {:?} after attribute",
            rest.trim()
        )))
    }
}

/// Parse the CPL dialect back into a [`PolicyData`].
///
/// Every parse error carries the 1-based line number it occurred on
/// ([`Error::MalformedRecord`]), and each `define` block may appear at most
/// once per document — a second `define` of the same section is rejected
/// with a named-section error.
pub fn parse_cpl(text: &str) -> Result<PolicyData> {
    let mut policy = PolicyData::empty();
    let mut section = Section::None;
    let mut seen: u8 = 0;
    let mut opened_at: u64 = 0;
    for (no, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with(';') {
            continue;
        }
        let lineno = (no + 1) as u64;
        let err = |reason: String| Error::MalformedRecord {
            line: lineno,
            reason,
        };
        // Positioned wrapper for the attribute/literal helpers.
        let at = |e: Error| match e {
            Error::MalformedRecord { .. } => e,
            other => err(other.to_string()),
        };
        if let Some(rest) = line.strip_prefix("define ") {
            if section != Section::None {
                return Err(err(format!("nested define inside \"{}\"", section.name())));
            }
            section = match rest.trim() {
                "condition blacklist_keywords" => Section::Keywords,
                "condition blocked_domains" => Section::Domains,
                "subnet blocked_subnets" => Section::Subnets,
                "condition redirect_hosts" => Section::Redirects,
                "condition blocked_pages" => Section::Pages,
                "condition blocked_page_queries" => Section::Queries,
                other => return Err(err(format!("unknown define {other:?}"))),
            };
            if seen & section.bit() != 0 {
                return Err(err(format!(
                    "duplicate define of section \"{}\"",
                    section.name()
                )));
            }
            seen |= section.bit();
            opened_at = lineno;
            continue;
        }
        if line == "end" {
            if section == Section::None {
                return Err(err("end outside define".to_string()));
            }
            section = Section::None;
            continue;
        }
        match section {
            Section::None => return Err(err("rule outside define block".to_string())),
            Section::Keywords => {
                let (v, rest) = take_attr(line, "url.substring").map_err(at)?;
                expect_line_end(rest).map_err(at)?;
                policy.keywords.push(v);
            }
            Section::Domains => {
                let (v, rest) = take_attr(line, "url.domain").map_err(at)?;
                expect_line_end(rest).map_err(at)?;
                check_entry(&v).map_err(err)?;
                policy.blocked_domains.push(v);
            }
            Section::Subnets => {
                policy
                    .blocked_subnets
                    .push(Ipv4Cidr::parse(line).map_err(at)?);
            }
            Section::Redirects => {
                let (v, rest) = take_attr(line, "url.host").map_err(at)?;
                expect_line_end(rest).map_err(at)?;
                policy.redirect_hosts.push(v);
            }
            Section::Pages => {
                let (host, rest) = take_attr(line, "url.host").map_err(at)?;
                let (path, rest) = take_attr(rest, "url.path").map_err(at)?;
                expect_line_end(rest).map_err(at)?;
                policy.custom_pages.push((host, path));
            }
            Section::Queries => {
                let (v, rest) = take_attr(line, "url.query").map_err(at)?;
                expect_line_end(rest).map_err(at)?;
                policy.custom_queries.push(v);
            }
        }
    }
    if section != Section::None {
        return Err(Error::MalformedRecord {
            line: opened_at,
            reason: format!("unterminated define block \"{}\"", section.name()),
        });
    }
    Ok(policy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_policy_roundtrips() {
        let policy = PolicyData::standard();
        let text = to_cpl(&policy);
        let back = parse_cpl(&text).expect("roundtrip parse");
        assert_eq!(back.normalized(), policy.normalized());
    }

    #[test]
    fn empty_policy_roundtrips() {
        let policy = PolicyData::empty();
        let back = parse_cpl(&to_cpl(&policy)).unwrap();
        assert_eq!(back, policy);
    }

    #[test]
    fn quoting_survives_special_characters() {
        let mut policy = PolicyData::empty();
        policy.keywords.push(r#"we"ird\key"#.to_string());
        policy
            .custom_pages
            .push(("www.facebook.com".into(), "/Path \"quoted\"".into()));
        policy.custom_queries.push("ref=ts&x=1".into());
        let back = parse_cpl(&to_cpl(&policy)).unwrap();
        assert_eq!(back, policy);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_cpl("define condition nonsense\nend\n").is_err());
        assert!(parse_cpl("url.substring=\"x\"\n").is_err()); // outside block
        assert!(parse_cpl("define condition blacklist_keywords\n").is_err()); // unterminated
        assert!(parse_cpl("define subnet blocked_subnets\n  not-a-subnet\nend\n").is_err());
        assert!(
            parse_cpl("define condition blacklist_keywords\n  url.substring=\"open\nend\n")
                .is_err()
        ); // unterminated string
    }

    /// Unwrap a parse error into its (line, reason) position.
    fn err_at(text: &str) -> (u64, String) {
        match parse_cpl(text) {
            Err(Error::MalformedRecord { line, reason }) => (line, reason),
            other => panic!("expected positioned parse error, got {other:?}"),
        }
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let (line, reason) = err_at("; c\n\ndefine condition blacklist_keywords\n  nope\nend\n");
        assert_eq!(line, 4);
        assert!(reason.contains("url.substring"), "{reason}");

        let (line, _) = err_at("define subnet blocked_subnets\n  1.2.3.4/8\n  oops\nend\n");
        assert_eq!(line, 3);

        let (line, reason) =
            err_at("define condition blacklist_keywords\n  url.substring=\"open\nend\n");
        assert_eq!(line, 2);
        assert!(reason.contains("literal"), "{reason}");

        // Unterminated blocks point at the line that opened them.
        let (line, reason) = err_at("; x\ndefine condition blocked_domains\n");
        assert_eq!(line, 2);
        assert!(reason.contains("blocked_domains"), "{reason}");

        // Trailing garbage after an attribute is rejected, with position.
        let (line, reason) =
            err_at("define condition redirect_hosts\n  url.host=\"a.com\" junk\nend\n");
        assert_eq!(line, 2);
        assert!(reason.contains("trailing"), "{reason}");
    }

    /// The domain index stores label lengths as `u16`; a longer label used
    /// to parse and then block every host matching its truncated prefix.
    #[test]
    fn overlong_domain_labels_rejected_with_position() {
        let long = "a".repeat(65_539);
        let text = format!("define condition blocked_domains\n  url.domain=\"{long}.com\"\nend\n");
        let (line, reason) = err_at(&text);
        assert_eq!(line, 2);
        assert!(reason.contains("65539 bytes"), "{reason}");
        let fits = format!(
            "define condition blocked_domains\n  url.domain=\"{}.com\"\nend\n",
            &long[4..]
        );
        assert!(parse_cpl(&fits).is_ok());
    }

    #[test]
    fn duplicate_define_blocks_rejected_by_name() {
        let text = "define condition blacklist_keywords\nend\n\
                    define condition blocked_domains\nend\n\
                    define condition blacklist_keywords\nend\n";
        let (line, reason) = err_at(text);
        assert_eq!(line, 5);
        assert!(reason.contains("duplicate define"), "{reason}");
        assert!(reason.contains("blacklist_keywords"), "{reason}");
        // All six sections once: fine (that is exactly what to_cpl emits).
        assert!(parse_cpl(&to_cpl(&PolicyData::standard())).is_ok());
    }

    #[test]
    fn newlines_in_values_roundtrip() {
        let mut policy = PolicyData::empty();
        policy.keywords.push("multi\nline".into());
        policy.keywords.push("carriage\rreturn".into());
        policy.keywords.push("literal\\n".into()); // backslash then 'n'
        policy.custom_queries.push("a\nb".into());
        let text = to_cpl(&policy);
        // The serialized form stays line-oriented: one rule per line.
        assert!(!text.contains("multi\nline"));
        let back = parse_cpl(&text).unwrap();
        assert_eq!(back, policy);
        // Fixed point: serialize→parse→serialize is identity on the text.
        assert_eq!(to_cpl(&back), text);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "; header\n\ndefine condition blacklist_keywords\n; inner comment\n  url.substring=\"proxy\"\nend\n";
        let p = parse_cpl(text).unwrap();
        assert_eq!(p.keywords, vec!["proxy".to_string()]);
    }

    #[test]
    fn parsed_policy_drives_the_engine() {
        use crate::engine::PolicyEngine;
        use crate::request::Request;
        use filterscope_core::{ProxyId, Timestamp};
        use filterscope_logformat::RequestUrl;

        let text = "define condition blacklist_keywords\n  url.substring=\"forbidden\"\nend\n\
                    define condition blocked_domains\n  url.domain=\"evil.example\"\nend\n";
        let policy = parse_cpl(text).unwrap();
        let engine = PolicyEngine::from_data(&policy, None, 1);
        let cfg = crate::config::ProxyConfig::standard(ProxyId::Sg42);
        let ts = Timestamp::parse_fields("2011-08-03", "09:00:00").unwrap();
        let blocked = Request::get(ts, RequestUrl::http("a.com", "/forbidden/x"));
        assert!(engine.decide(&cfg, &blocked).is_censored());
        let blocked2 = Request::get(ts, RequestUrl::http("www.evil.example", "/"));
        assert!(engine.decide(&cfg, &blocked2).is_censored());
        let fine = Request::get(ts, RequestUrl::http("ok.example", "/"));
        assert!(!engine.decide(&cfg, &fine).is_censored());
    }
}
