//! Static workload data: domain mixes, URL templates, IP pools.
//!
//! Weights are calibrated against the paper's tables; each constant cites
//! the table it reproduces.

/// Top allowed domains and their share of *allowed* traffic, in per mille
/// (Table 4, left). The remainder goes to the Zipf long tail.
pub const TOP_ALLOWED: &[(&str, u32)] = &[
    ("google.com", 72),
    ("xvideos.com", 33),
    ("gstatic.com", 33),
    ("facebook.com", 25),
    ("microsoft.com", 24),
    ("fbcdn.net", 24),
    ("windowsupdate.com", 22),
    ("google-analytics.com", 18),
    ("doubleclick.net", 16),
    ("msn.com", 16),
    ("yahoo.com", 14),
    ("youtube.com", 12),
    ("twitter.com", 4),
    ("maktoob.com", 4),
    ("hi5.com", 2),
    ("flickr.com", 4),
    ("linkedin.com", 2),
    ("mbc.net", 2),
    ("aljazeera.net", 3),
    ("bbc.co.uk", 2),
    ("wikipedia-mirror.net", 1), // mirrors spring up when the original is blocked
    ("4shared.com", 3),
    ("mediafire.com", 3),
    ("adobe.com", 3),
    ("avast.com", 2),
    ("zynga-static.net", 2),
];

/// Browsing-path templates for generic traffic; `{}` is filled with a hash.
pub const GENERIC_PATHS: &[&str] = &[
    "/",
    "/index.php",
    "/home.php",
    "/images/banner{}.jpg",
    "/static/app{}.js",
    "/css/site.css",
    "/article/{}.html",
    "/watch/{}",
    "/profile/{}",
    "/search",
    "/api/v1/items/{}",
    "/connect/login{}",
    "/channel/{}",
    "/forum/topic{}",
    "/news/{}.html",
    "/thumb/{}.png",
    "/video/{}.flv",
    "/ads/serve/{}",
];

/// Facebook social-plugin elements and their weights, per Table 15 (share of
/// plugin traffic, per mille). Every one of these URLs carries the `proxy`
/// keyword in its query (`channel_url=...xd_proxy.php...`) or path.
pub const FB_PLUGINS: &[(&str, u32)] = &[
    ("/plugins/like.php", 430),
    ("/extern/login_status.php", 390),
    ("/plugins/likebox.php", 48),
    ("/plugins/send.php", 44),
    ("/plugins/comments.php", 34),
    ("/fbml/fbjs_ajax_proxy.php", 26),
    ("/connect/canvas_proxy.php", 25),
    ("/ajax/proxy.php", 1),
    ("/platform/page_proxy.php", 1),
    ("/plugins/facepile.php", 1),
];

/// The targeted Facebook pages and their request mixes, per Table 14:
/// `(page, narrow-query requests ‰, extended-query requests ‰)` — narrow
/// queries hit the custom category (censored), extended ones escape it.
/// Weights are per mille of targeted-page traffic.
pub const FB_PAGES: &[(&str, u32, u32)] = &[
    ("Syrian.Revolution", 210, 128),
    ("Syrian.revolution", 4, 0),
    ("syria.news.F.N.N", 27, 24),
    ("ShaamNews", 16, 566),
    ("fffm14", 6, 3),
    ("barada.channel", 4, 1),
    ("DaysOfRage", 3, 1),
    ("Syrian.R.V", 2, 1),
    ("YouthFreeSyria", 1, 0),
    ("sooryoon", 1, 0),
    ("Freedom.Of.Syria", 1, 0),
    ("SyrianDayOfRage", 1, 0),
];

/// Facebook pages that look similar but are NOT targeted (allowed, §6).
pub const FB_UNBLOCKED_PAGES: &[&str] = &[
    "Syrian.Revolution.Army",
    "Syrian.Revolution.Assad",
    "Syrian.Revolution.Caricature",
    "ShaamNewsNetwork",
];

/// Redirect hosts and their share of redirect traffic, per mille (Table 7).
pub const REDIRECT_HOST_MIX: &[(&str, u32)] = &[
    ("upload.youtube.com", 868),
    ("competition.mbc.net", 33),
    ("sharek.aljazeera.net", 29),
    ("upload.dailymotion.com", 20),
    ("share.metacafe.com", 15),
    ("submit.all4syria.info", 12),
    ("post.shaamtimes.net", 10),
    ("upload.syriantube.net", 8),
    ("contribute.barada-tv.net", 5),
];

/// Always-censored domains reached by ordinary browsing, with per-mille
/// weights of "other blocked domain" traffic. Calibrated against Table 8's
/// censored shares relative to this bucket's ~1 % slice of censored traffic
/// (`.il` 1.52 %, amazon 0.85 %, aawsat 0.70 %, jumblo 0.31 %, …). The
/// sentinel `NEWS_TAIL` weight is spread across [`NEWS_TAIL`].
pub const OTHER_BLOCKED_MIX: &[(&str, u32)] = &[
    ("panet.co.il", 100),
    ("haaretz.co.il", 30),
    ("ynet.co.il", 22),
    ("amazon.com", 84),
    ("aawsat.com", 70),
    ("jumblo.com", 31),
    ("jeddahbikers.com", 29),
    ("dailymotion.com", 26),
    ("badoo.com", 21),
    ("islamway.com", 20),
    ("netlog.com", 13),
    ("all4syria.info", 30),
    ("new-syria.com", 25),
    ("free-syria.com", 25),
    ("islammemo.cc", 20),
    ("alquds.co.uk", 18),
    ("elaph.com", 15),
    ("salamworld.com", 4),
    ("muslimup.com", 3),
    ("vimeo.com", 2),
    ("scribd.com", 1),
    ("justin.tv", 2),
    ("ustream.tv", 2),
    ("6arab.com", 8),
    ("montadayat.org", 7),
    ("damascus-forum.com", 6),
    ("shabablek.com", 5),
    ("souq.com", 4),
    ("wiktionary.org", 2),
];

/// The blocked news/opposition long tail; the remaining bucket weight after
/// [`OTHER_BLOCKED_MIX`] cycles across these hosts.
pub const NEWS_TAIL: &[&str] = &[
    "syriarevolutionnews.com",
    "alhiwar.net",
    "levantnews.com",
    "syriapol.com",
    "damaspost.net",
    "shaamtimes.net",
    "zamanalwsl.net",
    "souriahouria.com",
    "alkarama-sy.org",
    "halabnews.net",
    "homsrevolution.com",
    "darayanews.org",
    "ugarit-news.org",
    "sooryoon.net",
    "syriantube.net",
    "barada-tv.net",
    "orient-news.net",
    "al-sham-news.com",
    "freedomdays-sy.org",
    "tahrirsouri.com",
    "wattan-news.net",
    "syrialeaks.org",
    "deraa-news.com",
    "idlibnews.net",
    "kafranbel.org",
    "douma-coord.org",
    "lattakianews.net",
];

/// The OSN panel of §6 that is NOT censored wholesale: `(domain, per-mille
/// of OSN-allowed traffic, keyword-collateral per-mille within the domain)`.
/// The collateral rate reproduces Table 13's censored/allowed ratios (e.g.
/// skyrock ~30 %, linkedin ~3.7 %, hi5 ~1.4 %, twitter ~0.006 %).
pub const OSN_PANEL: &[(&str, u32, u32)] = &[
    ("twitter.com", 560, 1),
    ("flickr.com", 76, 1),
    ("hi5.com", 42, 14),
    ("linkedin.com", 37, 37),
    ("ning.com", 8, 1),
    ("skyrock.com", 2, 300),
    ("myspace.com", 120, 0),
    ("tumblr.com", 60, 0),
    ("instagram.com", 20, 0),
    ("last.fm", 40, 0),
    ("meetup.com", 1, 20),
    ("deviantart.com", 18, 0),
    ("livejournal.com", 16, 0),
];

/// Anonymizer services (§7.2): the curated hosts plus a synthetic long tail
/// ("821 'Anonymizer' domains" in Dsample). `(host template, weight ‰,
/// keyword per-mille)` — hosts whose requests sometimes carry blacklisted
/// keywords get partially censored (Fig. 10b's mixed ratios).
pub const ANONYMIZER_SEEDS: &[(&str, u32, u32)] = &[
    // Keyword-censored services. The keyword rate encodes how often the
    // service's URLs carry a blacklisted string — 1000 ⇒ always censored.
    // hotsptshld.com volume ⇒ the Table 10 `hotspotshield` count (1.71 % of
    // censored traffic); ultrareach/ultrasurf likewise.
    ("hotsptshld.com", 42, 1000),
    ("anchorfree.com", 20, 400),
    ("ultrareach.com", 17, 1000),
    ("ultrasurf.us", 10, 1000),
    ("kproxy.com", 25, 1000), // 'proxy' in the hostname itself
    ("proxify.com", 15, 1000),
    ("megaproxy.com", 10, 1000),
    ("hidemyass.com", 15, 80),
    ("anonymouse.org", 50, 10),
    // Services whose URLs carry no blacklisted keyword → never censored
    // (Freegate, GTunnel, GPass per §7.2).
    ("vtunnel.com", 50, 0),
    ("guardster.com", 20, 0),
    ("freegate.org", 60, 0),
    ("gtunnel.org", 30, 0),
    ("gpass1.com", 25, 0),
    ("your-freedom.net", 25, 0),
    ("cyberghostvpn.com", 20, 0),
    ("strongvpn.com", 15, 0),
    ("the-cloak.com", 12, 0),
    ("ninjacloak.com", 12, 0),
    ("webwarper.net", 10, 0),
];

/// Per-mille weight of the synthetic anonymizer long tail (the remainder
/// after the seeds), and its keyword rate.
pub const ANONYMIZER_TAIL_WEIGHT: u32 = 517;
/// Keyword rate of tail anonymizer hosts, per mille.
pub const ANONYMIZER_TAIL_KEYWORD: u32 = 5;

/// Number of synthetic long-tail anonymizer hosts (total distinct hosts ≈
/// the paper's 821 in the 4 % sample).
pub const ANONYMIZER_TAIL_HOSTS: u64 = 800;

/// BitTorrent tracker hosts: `(host, announce path, weight ‰)`. The
/// `tracker-proxy.furk.net` entry is keyword-censored — the paper's example
/// of blocked announces.
pub const TRACKERS: &[(&str, &str, u32)] = &[
    ("tracker.publicbt.com", "/announce", 380),
    ("tracker.openbittorrent.com", "/announce", 330),
    ("tracker.thepiratebay.org", "/announce", 180),
    ("exodus.desync.com", "/announce", 70),
    ("tracker-proxy.furk.net", "/announce.php", 3),
    ("tracker.btjunkie.org", "/announce.php", 37),
];

/// Country IP pools for the `DIPv4` class (Table 11): `(country code,
/// CIDR to draw from, weight per 10,000 of IP-host traffic)`. Israeli
/// traffic draws from both blocked and mostly-allowed subnets (Table 12's
/// two groups), which yields the paper's ~6.7 % Israeli censorship ratio
/// while the Netherlands dominates raw IP-literal volume.
pub const IP_POOLS: &[(&str, &str, u32)] = &[
    // Netherlands dominates IP-literal traffic (streaming/hosting).
    ("NL", "94.228.128.0/18", 5000),
    ("NL", "145.58.0.0/16", 3476),
    ("GB", "212.58.224.0/19", 800),
    ("GB", "80.68.80.0/20", 330),
    ("RU", "95.163.0.0/17", 130),
    ("RU", "217.69.128.0/20", 50),
    // Israel: mostly-allowed space plus draws inside each blocked subnet.
    ("IL", "80.179.0.0/16", 125),
    ("IL", "212.150.0.0/16", 16),
    ("IL", "212.235.64.0/19", 3),
    ("IL", "84.229.0.0/16", 1),
    ("IL", "46.120.0.0/15", 1),
    ("IL", "89.138.0.0/15", 1),
    ("SG", "203.116.0.0/16", 20),
    ("BG", "212.39.64.0/18", 20),
    ("KW", "168.187.0.0/16", 2),
    ("US", "8.0.0.0/9", 25),
];

/// Per-mille of IP-host requests whose path carries a blacklisted keyword
/// (`/proxy/...` open-proxy probes) — the source of the small censored
/// counts for NL/GB/RU in Table 11.
pub const IP_KEYWORD_PER_MILLE: u32 = 2;

/// Instant-messaging endpoints (all domain-censored), per mille of IM
/// traffic. The split reproduces Table 4's censored shares — skype.com
/// 6.83 % : live.com 5.98 % : ceipmsn.com 1.83 % ⇒ 465 : 410 : 125 — and
/// §5.1's observation that ~9 % of Skype requests are update attempts from
/// the Windows client.
pub const IM_ENDPOINTS: &[(&str, &str, u32)] = &[
    ("ui.skype.com", "/ui/0/5.3.0.120/en/getlatestversion", 100),
    ("download.skype.com", "/windows/SkypeSetup.exe", 45),
    ("www.skype.com", "/intl/en/home", 150),
    ("skype.com", "/", 50),
    ("apps.skype.com", "/api/feeds/{}", 120),
    ("messenger.live.com", "/login.srf", 90),
    ("live.com", "/", 30),
    ("login.live.com", "/ppsecure/post.srf", 90),
    (
        "config.messenger.msn.live.com",
        "/Config/MsgrConfig.asmx",
        70,
    ),
    ("chat.live.com", "/chat/session/{}", 90),
    ("skypeassets.live.com", "/static/client/{}", 40),
    ("sqm.ceipmsn.com", "/sqm/msn/sqmserver.dll", 125),
];

/// Tail-domain TLD mix for the Zipf long tail.
pub const TAIL_TLDS: [&str; 6] = ["com", "net", "org", "info", "sy", "co.uk"];

#[cfg(test)]
mod tests {
    use super::*;

    fn per_mille_sum(v: &[(&str, u32)]) -> u32 {
        v.iter().map(|(_, w)| *w).sum()
    }

    #[test]
    fn plugin_mix_sums_to_about_1000() {
        let s: u32 = FB_PLUGINS.iter().map(|(_, w)| *w).sum();
        assert!((990..=1010).contains(&s), "{s}");
    }

    #[test]
    fn redirect_mix_sums_to_1000() {
        assert_eq!(per_mille_sum(REDIRECT_HOST_MIX), 1000);
    }

    #[test]
    fn tracker_mix_sums_to_1000() {
        let s: u32 = TRACKERS.iter().map(|(_, _, w)| *w).sum();
        assert_eq!(s, 1000);
    }

    #[test]
    fn ip_pools_sum_to_10000() {
        let s: u32 = IP_POOLS.iter().map(|(_, _, w)| *w).sum();
        assert_eq!(s, 10_000);
    }

    #[test]
    fn im_endpoint_mix_sums_to_1000() {
        let s: u32 = IM_ENDPOINTS.iter().map(|(_, _, w)| *w).sum();
        assert_eq!(s, 1000);
    }

    #[test]
    fn anonymizer_seeds_plus_tail_sum_to_1000() {
        let s: u32 = ANONYMIZER_SEEDS.iter().map(|(_, w, _)| *w).sum();
        assert_eq!(s + ANONYMIZER_TAIL_WEIGHT, 1000);
    }

    #[test]
    fn blocked_mix_leaves_room_for_news_tail() {
        let s: u32 = OTHER_BLOCKED_MIX.iter().map(|(_, w)| *w).sum();
        assert!((500..1000).contains(&s), "mix sum {s}");
        assert!(!NEWS_TAIL.is_empty());
    }

    #[test]
    fn ip_pools_parse_as_cidrs() {
        for (_, cidr, _) in IP_POOLS {
            assert!(
                filterscope_core::Ipv4Cidr::parse(cidr).is_ok(),
                "bad cidr {cidr}"
            );
        }
    }

    #[test]
    fn fb_pages_match_policy_config() {
        // Every page generated must exist in the policy's target list, and
        // vice versa — otherwise Table 14 can't reproduce.
        for (page, _, _) in FB_PAGES {
            assert!(
                filterscope_proxy::config::FACEBOOK_BLOCKED_PAGES.contains(page),
                "page {page} not in policy"
            );
        }
        for page in filterscope_proxy::config::FACEBOOK_BLOCKED_PAGES {
            assert!(
                FB_PAGES.iter().any(|(p, _, _)| p == &page),
                "policy page {page} not generated"
            );
        }
    }

    #[test]
    fn redirect_hosts_match_policy_config() {
        for (host, _) in REDIRECT_HOST_MIX {
            assert!(
                filterscope_proxy::config::REDIRECT_HOSTS.contains(host),
                "{host} not in policy redirect list"
            );
        }
    }

    #[test]
    fn other_blocked_domains_are_actually_blocked() {
        use filterscope_match::DomainIndex;
        let index =
            DomainIndex::from_entries(filterscope_proxy::config::BLOCKED_DOMAINS.iter().copied());
        for (host, _) in OTHER_BLOCKED_MIX {
            assert!(index.matches(host), "{host} not blocked by policy");
        }
    }

    #[test]
    fn im_endpoints_are_domain_blocked() {
        use filterscope_match::DomainIndex;
        let index =
            DomainIndex::from_entries(filterscope_proxy::config::BLOCKED_DOMAINS.iter().copied());
        for (host, _, _) in IM_ENDPOINTS {
            assert!(index.matches(host), "{host} not blocked");
        }
    }

    #[test]
    fn top_allowed_hosts_are_not_domain_blocked() {
        use filterscope_match::DomainIndex;
        let index =
            DomainIndex::from_entries(filterscope_proxy::config::BLOCKED_DOMAINS.iter().copied());
        for (host, _) in TOP_ALLOWED {
            assert!(!index.matches(host), "{host} would be blocked");
        }
        for (host, _, _) in OSN_PANEL {
            assert!(!index.matches(host), "OSN {host} would be blocked");
        }
    }
}
