//! The serve daemon and file ingest share one record-ingest path: the same
//! bytes must produce the same analysis state whether they arrive as one
//! `Batch` frame payload (`proto::ingest_batch`) or sit in a log file
//! (`ParallelIngest`).

use filterscope_analysis::{AnalysisContext, AnalysisSuite, ParallelIngest};
use filterscope_core::{ProxyId, Timestamp};
use filterscope_logformat::record::RecordBuilder;
use filterscope_logformat::RequestUrl;
use filterscope_proxy::PolicyEngine;
use filterscope_stream::metrics::{ConnStats, ServerStats};
use filterscope_stream::proto::{ingest_batch, LineParser, Shard};
use interleave::IMutex;

fn record(host: &str, denied: bool) -> String {
    let builder = RecordBuilder::new(
        Timestamp::parse_fields("2011-08-03", "10:00:00").unwrap(),
        ProxyId::Sg42,
        RequestUrl::http(host, "/"),
    );
    let builder = if denied {
        builder.policy_denied()
    } else {
        builder
    };
    builder.build().write_csv()
}

/// Every line shape the two paths must agree on: CRLF and `\r\r\n`
/// endings, empty lines, a comment, invalid UTF-8, a wrong-width line, and
/// a `policy_denied` record.
fn mixed_bytes() -> Vec<u8> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(record("crlf.example", false).as_bytes());
    bytes.extend_from_slice(b"\r\n\n\r\n# a comment line\n");
    bytes.extend_from_slice(record("denied.example", true).as_bytes());
    bytes.extend_from_slice(b"\r\r\n");
    bytes.extend_from_slice(b"2011-08-03,\xff\xfe,not utf-8\n");
    bytes.extend_from_slice(b"too,few,fields\n");
    bytes.extend_from_slice(record("lf.example", false).as_bytes());
    bytes.push(b'\n');
    bytes
}

#[test]
fn batch_payload_and_file_ingest_give_identical_state() {
    let ctx = AnalysisContext::standard(None);
    let bytes = mixed_bytes();

    let stats = ServerStats::new();
    let conn = ConnStats::new(0, "parity".to_string());
    let delta = IMutex::new(Shard::new(AnalysisSuite::new(3)));
    let mut parser = LineParser::new();
    let outcome =
        ingest_batch::<PolicyEngine>(&mut parser, &bytes, &ctx, &delta, None, &conn, &stats);
    let shard = delta.into_inner();

    let path = std::env::temp_dir().join(format!(
        "filterscope-ingest-parity-{}.log",
        std::process::id()
    ));
    std::fs::write(&path, &bytes).unwrap();
    let (suite, file_stats) = ParallelIngest::new(1)
        .ingest_suite(std::slice::from_ref(&path), &ctx, 3)
        .unwrap();
    let _ = std::fs::remove_file(&path);

    assert_eq!(file_stats.records, 3);
    assert_eq!(file_stats.malformed, 2);
    assert_eq!(outcome.records, file_stats.records);
    assert_eq!(outcome.parse_errors, file_stats.malformed);
    assert_eq!(shard.records, file_stats.records);
    assert_eq!(shard.parse_errors, file_stats.malformed);
    assert!(
        shard.suite.save_bytes() == suite.save_bytes(),
        "batch and file ingest diverge"
    );
}
