//! Text registry format: load user-supplied category data.
//!
//! One mapping per line — `domain-suffix<TAB or 2+ spaces>Category Name` —
//! with `#` comments and blank lines ignored. Category names are the
//! [`Category::name`] spellings (case-insensitive):
//!
//! ```text
//! # circumvention services
//! hidemyass.com   Anonymizers
//! skype.com       Instant Messaging
//! ```

use crate::category::Category;
use crate::db::CategoryDb;
use filterscope_core::{Error, Result};
use filterscope_match::domain_index::check_entry;

/// Parse registry text into `(suffix, category)` pairs.
pub fn parse_registry(text: &str) -> Result<Vec<(String, Category)>> {
    let mut out = Vec::new();
    for (no, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim_end();
        if line.trim().is_empty() {
            continue;
        }
        let err = |reason: String| Error::MalformedRecord {
            line: (no + 1) as u64,
            reason,
        };
        // The category name may contain spaces, so split on the FIRST run
        // of whitespace after the domain.
        let line = line.trim_start();
        let Some(split_at) = line.find(char::is_whitespace) else {
            return Err(err(format!("expected 'domain Category', got {line:?}")));
        };
        let domain = &line[..split_at];
        let category_name = line[split_at..].trim();
        let category = Category::from_name(category_name)
            .ok_or_else(|| err(format!("unknown category {category_name:?}")))?;
        check_entry(domain).map_err(err)?;
        out.push((domain.to_string(), category));
    }
    Ok(out)
}

/// Serialize `(suffix, category)` pairs to the registry text format.
pub fn registry_to_text<'a>(entries: impl IntoIterator<Item = &'a (String, Category)>) -> String {
    let mut out = String::from("# filterscope category registry\n");
    for (domain, category) in entries {
        out.push_str(&format!("{domain}\t{}\n", category.name()));
    }
    out
}

/// Convenience: parse registry text straight into a [`CategoryDb`].
pub fn load_db(text: &str) -> Result<CategoryDb> {
    let entries = parse_registry(text)?;
    Ok(CategoryDb::from_entries(
        entries.iter().map(|(d, c)| (d.as_str(), *c)),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_spaced_category_names() {
        let text = "# head\nskype.com\tInstant Messaging\nhidemyass.com  Anonymizers\n\
                    jeddahbikers.com   Forum/Bulletin Boards # trailing comment\n";
        let entries = parse_registry(text).unwrap();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].1, Category::InstantMessaging);
        assert_eq!(entries[2].1, Category::ForumBulletinBoards);
        let db = load_db(text).unwrap();
        assert_eq!(db.categorize("www.skype.com"), Category::InstantMessaging);
    }

    #[test]
    fn roundtrips_including_builtin_register() {
        let entries: Vec<(String, Category)> = crate::data::DOMAIN_CATEGORIES
            .iter()
            .map(|(d, c)| (d.to_string(), *c))
            .collect();
        let text = registry_to_text(&entries);
        let back = parse_registry(&text).unwrap();
        assert_eq!(back, entries);
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse_registry("just-a-domain\n").is_err());
        assert!(parse_registry("x.com NotACategory\n").is_err());
    }

    #[test]
    fn overlong_domain_labels_rejected_with_position() {
        let long = "a".repeat(65_539);
        let text = format!("x.com Games\n{long}.com Games\n");
        match parse_registry(&text) {
            Err(Error::MalformedRecord { line, reason }) => {
                assert_eq!(line, 2);
                assert!(reason.contains("65539 bytes"), "{reason}");
            }
            other => panic!("expected positioned parse error, got {other:?}"),
        }
        assert!(parse_registry(&format!("{}.com Games\n", &long[4..])).is_ok());
    }

    #[test]
    fn case_insensitive_category_names() {
        let entries = parse_registry("x.com instant messaging\n").unwrap();
        assert_eq!(entries[0].1, Category::InstantMessaging);
    }
}
