//! The category lookup engine.

use crate::category::Category;
use crate::data::DOMAIN_CATEGORIES;
use filterscope_match::DomainIndex;

/// Domain-suffix → category oracle.
///
/// Lookup semantics: `facebook.com` covers `www.facebook.com`; when
/// registrations nest, the most specific registered suffix wins
/// (`mail.yahoo.com` over `yahoo.com`).
#[derive(Debug)]
pub struct CategoryDb {
    index: DomainIndex,
    /// Category of each index entry.
    categories: Vec<Category>,
}

impl CategoryDb {
    /// Build from `(suffix, category)` pairs. Re-registering a suffix
    /// overwrites its category (last wins).
    pub fn from_entries<'a>(entries: impl IntoIterator<Item = (&'a str, Category)>) -> Self {
        let entries: Vec<(&str, Category)> = entries.into_iter().collect();
        let index = DomainIndex::from_entries(entries.iter().map(|&(suffix, _)| suffix));
        let mut categories = vec![Category::Unknown; index.len()];
        for (suffix, cat) in entries {
            let ix = index.entry_index(suffix).expect("every suffix is an entry");
            categories[ix as usize] = cat;
        }
        CategoryDb { index, categories }
    }

    /// The standard register (every domain the paper names).
    pub fn standard() -> Self {
        Self::from_entries(DOMAIN_CATEGORIES.iter().copied())
    }

    /// Category of `host`, or [`Category::Unknown`] when unregistered.
    pub fn categorize(&self, host: &str) -> Category {
        self.index
            .lookup_longest(host)
            .map(|ix| self.categories[ix as usize])
            .unwrap_or(Category::Unknown)
    }

    /// Is `host` an anonymizer (§7.2)?
    pub fn is_anonymizer(&self, host: &str) -> bool {
        self.categorize(host) == Category::Anonymizer
    }

    /// Number of registered suffixes.
    pub fn len(&self) -> usize {
        self.categories.len()
    }

    /// Is the register empty?
    pub fn is_empty(&self) -> bool {
        self.categories.is_empty()
    }
}

impl Default for CategoryDb {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categorizes_paper_domains() {
        let db = CategoryDb::standard();
        assert_eq!(db.categorize("metacafe.com"), Category::StreamingMedia);
        assert_eq!(db.categorize("www.skype.com"), Category::InstantMessaging);
        assert_eq!(db.categorize("facebook.com"), Category::SocialNetworking);
        assert_eq!(
            db.categorize("upload.youtube.com"),
            Category::StreamingMedia
        );
        assert_eq!(
            db.categorize("cdn7.cloudfront.net"),
            Category::ContentServer
        );
        assert_eq!(db.categorize("hotsptshld.com"), Category::Anonymizer);
        assert_eq!(db.categorize("unknown-host.example"), Category::Unknown);
    }

    #[test]
    fn longest_registered_suffix_wins() {
        let db = CategoryDb::from_entries([
            ("yahoo.com", Category::PortalSites),
            ("mail.yahoo.com", Category::Email),
        ]);
        assert_eq!(db.categorize("mail.yahoo.com"), Category::Email);
        assert_eq!(db.categorize("x.mail.yahoo.com"), Category::Email);
        assert_eq!(db.categorize("www.yahoo.com"), Category::PortalSites);
        assert_eq!(db.categorize("yahoo.com"), Category::PortalSites);
    }

    #[test]
    fn re_registration_last_wins() {
        let db = CategoryDb::from_entries([
            ("x.com", Category::Games),
            ("x.com", Category::GeneralNews),
        ]);
        assert_eq!(db.categorize("x.com"), Category::GeneralNews);
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn anonymizer_helper() {
        let db = CategoryDb::standard();
        assert!(db.is_anonymizer("hidemyass.com"));
        assert!(db.is_anonymizer("www.kproxy.com"));
        assert!(!db.is_anonymizer("facebook.com"));
    }

    #[test]
    fn nested_standard_entries() {
        let db = CategoryDb::standard();
        assert_eq!(db.categorize("www.gov.il"), Category::Government);
        assert_eq!(db.categorize("panet.co.il"), Category::GeneralNews);
        assert_eq!(db.categorize("random.il"), Category::Unknown);
        // live.com is IM (the MSN messenger service host in the logs),
        // nested distinct from the rest of the Microsoft estate.
        assert_eq!(db.categorize("login.live.com"), Category::InstantMessaging);
    }

    #[test]
    fn standard_register_loads_every_entry() {
        let db = CategoryDb::standard();
        assert_eq!(db.len(), crate::data::DOMAIN_CATEGORIES.len());
        for (suffix, cat) in crate::data::DOMAIN_CATEGORIES {
            assert_eq!(db.categorize(suffix), *cat, "suffix {suffix}");
        }
    }
}
