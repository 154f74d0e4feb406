//! Cross-substrate coherence: the policy, the geo register, the category
//! oracle and the workload catalogue must agree with each other, or the
//! reproduced tables silently drift.

use filterscope::categorizer::{Category, CategoryDb};
use filterscope::core::Ipv4Cidr;
use filterscope::geoip::{data as geo_data, Country};
use filterscope::matchers::DomainIndex;
use filterscope::proxy::config as policy;

#[test]
fn every_blocked_subnet_is_israeli_space() {
    let db = geo_data::standard_db();
    for s in policy::BLOCKED_SUBNETS {
        let block = Ipv4Cidr::parse(s).expect("policy subnet parses");
        for probe in [
            block.network(),
            block.nth(block.size() / 2),
            block.nth(block.size() - 1),
        ] {
            assert_eq!(
                db.lookup(probe),
                Some(Country::of("IL")),
                "blocked subnet {s} probe {probe} not Israeli"
            );
        }
    }
}

#[test]
fn table12_subnets_overlap_the_policy_correctly() {
    // The three "almost always censored" subnets are fully inside the
    // policy; the two mixed ones contain both blocked and unblocked space.
    let blocked: Vec<Ipv4Cidr> = policy::BLOCKED_SUBNETS
        .iter()
        .map(|s| Ipv4Cidr::parse(s).unwrap())
        .collect();
    let covered = |probe: std::net::Ipv4Addr| blocked.iter().any(|b| b.contains(probe));
    for fully in ["84.229.0.0/16", "46.120.0.0/15", "89.138.0.0/15"] {
        let b = Ipv4Cidr::parse(fully).unwrap();
        assert!(
            covered(b.network()) && covered(b.nth(b.size() - 1)),
            "{fully}"
        );
    }
    for mixed in ["212.150.0.0/16", "212.235.64.0/19"] {
        let b = Ipv4Cidr::parse(mixed).unwrap();
        let samples = (0..64u64).map(|i| b.nth(i * b.size() / 64));
        let hits = samples.filter(|p| covered(*p)).count();
        assert!(hits > 0, "{mixed} has no blocked slice");
        assert!(hits < 64, "{mixed} is fully blocked but should be mixed");
    }
}

#[test]
fn blocked_domains_span_the_table9_categories() {
    let db = CategoryDb::standard();
    let mut seen = std::collections::HashSet::new();
    for d in policy::BLOCKED_DOMAINS {
        let probe = if *d == "il" { "panet.co.il" } else { d };
        seen.insert(db.categorize(probe));
    }
    for needed in [
        Category::InstantMessaging,
        Category::StreamingMedia,
        Category::EducationReference,
        Category::GeneralNews,
        Category::OnlineShopping,
        Category::SocialNetworking,
        Category::ForumBulletinBoards,
        Category::Religion,
        Category::Unknown, // the NA tail
    ] {
        assert!(seen.contains(&needed), "no blocked domain in {needed:?}");
    }
}

#[test]
fn keywords_do_not_appear_in_blocked_domains() {
    // A domain containing a keyword would be keyword-censored, making the
    // domain rule unobservable — the §5.4 recovery relies on the rule
    // families being separable.
    for d in policy::BLOCKED_DOMAINS {
        for k in policy::KEYWORDS {
            assert!(
                !d.to_ascii_lowercase().contains(k),
                "blocked domain {d} contains keyword {k}"
            );
        }
    }
}

#[test]
fn redirect_hosts_are_not_also_domain_blocked() {
    // Redirect hosts must reach rule 2 before rule 4 would deny them; but a
    // redirect host under a blocked suffix would make Table 7 and Table 8
    // fight over the same traffic. The policy keeps some redirect hosts on
    // otherwise-blocked domains (share.metacafe.com) — the engine's rule
    // order resolves this (redirect wins), which this test pins down.
    use filterscope::core::{ProxyId, Timestamp};
    use filterscope::logformat::{ExceptionId, RequestUrl};
    use filterscope::prelude::*;

    let farm = ProxyFarm::standard();
    let ts = Timestamp::parse_fields("2011-08-03", "10:00:00").unwrap();
    for host in policy::REDIRECT_HOSTS {
        let rec = farm.process_on(
            &Request::get(ts, RequestUrl::http(host.to_string(), "/upload")),
            ProxyId::Sg42,
        );
        assert!(
            rec.exception == ExceptionId::PolicyRedirect || rec.exception == ExceptionId::None,
            "{host} got {:?} instead of redirect",
            rec.exception
        );
    }

    let index = DomainIndex::from_entries(policy::BLOCKED_DOMAINS.iter().copied());
    // And the overlap case specifically: share.metacafe.com is both under a
    // blocked domain and a redirect host; redirect must win.
    assert!(index.matches("share.metacafe.com"));
    let rec = farm.process_on(
        &Request::get(ts, RequestUrl::http("share.metacafe.com", "/v")),
        ProxyId::Sg42,
    );
    assert!(matches!(
        rec.exception,
        ExceptionId::PolicyRedirect | ExceptionId::None
    ));
}

#[test]
fn anonymizer_catalogue_is_categorized_as_anonymizer() {
    let db = CategoryDb::standard();
    // Every kw-bearing anonymizer seed the workload generates must be seen
    // as an Anonymizer by Fig. 10's join, or those requests vanish from it.
    for host in [
        "hotsptshld.com",
        "ultrareach.com",
        "ultrasurf.us",
        "kproxy.com",
        "hidemyass.com",
        "freegate.org",
        "gtunnel.org",
    ] {
        assert!(db.is_anonymizer(host), "{host}");
    }
}

#[test]
fn tor_consensus_avoids_registered_address_space() {
    // Synthetic relays must not collide with the geo register's country
    // blocks used by the IpHost class, or Table 11 counts Tor circuits as
    // country traffic.
    use filterscope::tor::{synthesize_consensus, SynthConsensusConfig};
    let db = geo_data::standard_db();
    let doc = synthesize_consensus(
        &SynthConsensusConfig::default(),
        filterscope::core::Date::new(2011, 8, 3).unwrap(),
    );
    let colliding = doc
        .relays
        .iter()
        .filter(|r| db.lookup(r.addr).is_some())
        .count();
    // A small overlap is tolerable (US blocks are broad); wholesale overlap
    // is not.
    assert!(
        colliding * 10 < doc.relays.len(),
        "{colliding} of {} relays sit in registered space",
        doc.relays.len()
    );
}
