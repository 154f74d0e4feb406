//! `serve`: the shipped `filterscope serve` binary as a child process,
//! with `--policy-artifact`, `--snap-log`, `--metrics` and a fixed
//! `--every-ms`, driven by this benchmark's own load generator.
//!
//! The load generator is one process with at most two connections and one
//! sender thread. All frames are pre-encoded at set-up: 500-line `Batch`
//! frames from the seeded corpus, split across the connections by proxy as
//! `stream_corpus` does. Load is open-loop at fixed offered rates (each
//! batch timed from its due time, however late the sender ran), then a
//! closed-loop flood limited only by TCP backpressure. Every phase runs
//! against a fresh daemon, so each phase has its own set-up sample and its
//! own final report to check.
//!
//! The traced run adds an in-process replica of the daemon's ingest and
//! snapshot path (`proto::ingest_batch` + `proto::snapshot_cycle` with a
//! sink calling `encode_value`, `SnapLog::append`, `render_all` and
//! `SnapshotWriter::write`), which must publish the daemon's final report.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use filterscope::analysis::{AnalysisContext, AnalysisSuite, Selection, SuiteParams};
use filterscope::core::Json;
use filterscope::logformat::frame::MAX_PAYLOAD;
use filterscope::logformat::Frame;
use filterscope::policylint::verify_artifact;
use filterscope::proxy::{artifact, PolicyData, PolicyEngine};
use filterscope::snapstore::{encode_value, FrameKind, SnapLog, SUITE_KEY};
use filterscope::stream::metrics::{ConnStats, ServerStats};
use filterscope::stream::proto::{
    self, ConnHandle, FoldTotals, LineParser, PublishCounters, Shard, SnapSink,
};
use filterscope::stream::snapshot::{SnapLogStatus, SnapshotWriter};
use filterscope::synth::stream_csv_lines;
use interleave::IMutex;

use crate::analyze;
use crate::generate;
use crate::trace::{self, Tracer};
use crate::util::{self, Metrics, Ops};
use crate::RunCtx;

/// Corpus scale of the pre-encoded traffic (≈ 367 K records); the flood
/// phase sends all of it.
pub const SERVE_SCALE: u64 = 2048;

/// Data lines per `Batch` frame (the `stream` client's default).
pub const BATCH_LINES: usize = 500;

/// Connections of the load generator (`nproc` on the reference box).
pub const CONNECTIONS: usize = 2;

/// The daemon's snapshot interval (`--every-ms`).
pub const EVERY_MS: u64 = 100;

/// Offered rates of the open-loop phases, in records per second, lowest
/// first. See BENCHMARK.json for how they were calibrated.
pub const RATES: [f64; 4] = [25_000.0, 50_000.0, 100_000.0, 400_000.0];

/// The rate freshness percentiles are reported at (below the knee).
pub const REFERENCE_RATE: f64 = 50_000.0;

/// Freshness p99 limit for a rate to count as sustained: five snapshot
/// intervals.
pub const LATENCY_LIMIT_MS: f64 = 500.0;

/// Share of `--seconds` each rate of [`RATES`] is offered for. The
/// reference rate runs longest (≈ 600 freshness samples at 10 s); the
/// overload rung needs only long enough for its backlog to grow clearly.
const RATE_SHARES: [f64; 4] = [0.1, 0.6, 0.15, 0.1];

/// Flood repeats; the flood metrics are their medians. Each sends the
/// whole corpus.
const FLOODS: usize = 5;

/// How long a phase may wait for its last snapshot or the daemon's exit.
const PHASE_TIMEOUT: Duration = Duration::from_secs(30);

/// One pre-encoded batch.
pub struct Batch {
    conn: usize,
    lines: u64,
    /// The whole encoded frame; the payload is `frame[header..]`.
    frame: Vec<u8>,
    header: usize,
}

impl Batch {
    fn payload(&self) -> &[u8] {
        &self.frame[self.header..]
    }
}

/// Pre-encode the seed's corpus as batches in send order, partitioned
/// across connections by proxy exactly as `stream_corpus` partitions it.
pub fn encode_batches(seed: u64, scale: u64) -> Vec<Batch> {
    let corpus = generate::corpus_for(seed, scale);
    let mut out = Vec::new();
    let mut bufs: Vec<(Vec<u8>, u64)> = vec![(Vec::new(), 0); CONNECTIONS];
    let flush = |conn: usize, buf: &mut (Vec<u8>, u64), out: &mut Vec<Batch>| {
        if buf.1 == 0 {
            return;
        }
        let payload = std::mem::take(&mut buf.0);
        let len = payload.len();
        let mut frame = Vec::with_capacity(len + 16);
        Frame::batch(payload)
            .encode_into(&mut frame)
            .expect("batch payload within the frame ceiling");
        out.push(Batch {
            conn,
            lines: buf.1,
            header: frame.len() - len,
            frame,
        });
        buf.1 = 0;
    };
    stream_csv_lines(&corpus, |proxy, _, line| {
        let conn = proxy.map_or(0, |p| p.index() % CONNECTIONS);
        let buf = &mut bufs[conn];
        if buf.0.len() + line.len() + 1 > MAX_PAYLOAD {
            flush(conn, buf, &mut out);
        }
        buf.0.extend_from_slice(line.as_bytes());
        buf.0.push(b'\n');
        buf.1 += 1;
        if buf.1 as usize >= BATCH_LINES {
            flush(conn, buf, &mut out);
        }
    });
    for (conn, buf) in bufs.iter_mut().enumerate() {
        flush(conn, buf, &mut out);
    }
    out
}

/// Digest of the pre-encoded frames (the serve workload's input).
#[cfg(test)]
pub fn input_digest(batches: &[Batch]) -> u64 {
    batches.iter().fold(util::FNV_SEED, |h, b| {
        util::fnv64(util::fnv64(h, &[b.conn as u8]), &b.frame)
    })
}

/// A running daemon.
struct Daemon {
    child: Child,
    ingest: SocketAddr,
    metrics: SocketAddr,
    snaps: PathBuf,
}

/// One HTTP/1.0 GET against the daemon's metrics endpoint; the body.
fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<String> {
    let mut sock = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
    sock.set_read_timeout(Some(Duration::from_secs(5)))?;
    write!(sock, "GET {path} HTTP/1.0\r\n\r\n")?;
    let mut page = String::new();
    sock.read_to_string(&mut page)?;
    Ok(page
        .split_once("\r\n\r\n")
        .map_or(String::new(), |(_, body)| body.to_string()))
}

fn gauge(page: &str, name: &str) -> Option<u64> {
    page.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .and_then(|v| v.trim().parse().ok())
}

fn parse_addr(line: &str, prefix: &str) -> Option<SocketAddr> {
    line.strip_prefix(prefix)?.trim().parse().ok()
}

impl Daemon {
    /// Spawn the daemon in `dir` and wait until it serves its first
    /// request. Returns the daemon and its set-up time: from the spawn
    /// until the metrics endpoint answers, which the daemon starts only
    /// after the artifact load, the witness check and the snap-log open.
    fn spawn(rc: &RunCtx, dir: &Path, artifact: &Path) -> Result<(Daemon, f64), String> {
        util::fresh_dir(dir).map_err(|e| e.to_string())?;
        let snaps = dir.join("snaps");
        let t0 = Instant::now();
        let mut child = Command::new(&rc.filterscope)
            .arg("serve")
            .arg("--snapshots")
            .arg(&snaps)
            .args(["--listen", "127.0.0.1:0", "--metrics", "127.0.0.1:0"])
            .args(["--every-ms", &EVERY_MS.to_string()])
            .arg("--policy-artifact")
            .arg(artifact)
            .arg("--snap-log")
            .arg(dir.join("snap.log"))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start filterscope serve: {e}"))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = BufReader::new(stdout).lines();
        let (mut ingest, mut metrics) = (None, None);
        while ingest.is_none() || metrics.is_none() {
            match lines.next() {
                Some(Ok(line)) => {
                    ingest = ingest.or_else(|| parse_addr(&line, "listening on "));
                    metrics = metrics.or_else(|| parse_addr(&line, "metrics on "));
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("serve exited before printing its addresses".into());
                }
            }
        }
        let (ingest, metrics) = (ingest.expect("parsed"), metrics.expect("parsed"));
        loop {
            if http_get(metrics, "/metrics").is_ok_and(|p| p.contains("filterscope_records_total"))
            {
                break;
            }
            if t0.elapsed() > PHASE_TIMEOUT {
                let _ = child.kill();
                let _ = child.wait();
                return Err("serve never answered on its metrics port".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        let setup = util::secs(t0);
        Ok((
            Daemon {
                child,
                ingest,
                metrics,
                snaps,
            },
            setup,
        ))
    }

    /// Ask for a graceful shutdown and wait for the exit.
    fn stop(mut self) -> Result<(), String> {
        let _ = http_get(self.metrics, "/shutdown");
        let t0 = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("serve exited with {status}")),
                Ok(None) if t0.elapsed() < PHASE_TIMEOUT => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("serve did not exit after /shutdown".into());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Only reached on an error path that skipped `stop`.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// What one phase measured.
#[derive(Default)]
struct PhaseResult {
    setup_s: f64,
    lines: u64,
    /// Freshness of each batch, ms (open-loop phases only).
    fresh_ms: Vec<f64>,
    /// How late the sender started each batch, ms.
    late_ms: Vec<f64>,
    /// Backlog samples (records sent − `filterscope_records_total`).
    backlog: Vec<u64>,
    /// Lines sent per wall second of the send window.
    achieved_rps: f64,
    /// Seconds from the first send until the final snapshot published.
    to_final_s: f64,
    peak_rss_mib: f64,
    report: String,
    ok: bool,
}

impl PhaseResult {
    /// Sustained: freshness p99 under the limit and no backlog growth
    /// (the last third of the samples no higher than the first third by
    /// more than two batches per connection or 2 % of the phase's lines).
    fn sustained(&self) -> bool {
        if self.fresh_ms.is_empty() || !self.ok {
            return false;
        }
        let third = (self.backlog.len() / 3).max(1);
        let mean = |s: &[u64]| s.iter().sum::<u64>() as f64 / s.len().max(1) as f64;
        let early = mean(&self.backlog[..third.min(self.backlog.len())]);
        let late = mean(&self.backlog[self.backlog.len().saturating_sub(third)..]);
        let slack = ((2 * BATCH_LINES * CONNECTIONS) as f64).max(0.02 * self.lines as f64);
        util::quantile(&self.fresh_ms, 0.99) <= LATENCY_LIMIT_MS && late - early <= slack
    }
}

/// The `total_requests` a published `summary.json` covers.
fn covered(summary: &Path) -> Option<u64> {
    let text = std::fs::read_to_string(summary).ok()?;
    Json::parse(&text).ok()?.get("total_requests")?.as_u64()
}

/// Run one phase: fresh daemon, send `batches` (paced at `rate`, or as
/// fast as TCP allows when `rate` is `None`), wait until every line is
/// ingested and published, stop the daemon, and check its report against
/// `expected`.
fn run_phase(
    rc: &RunCtx,
    name: &str,
    artifact: &Path,
    batches: &[Batch],
    rate: Option<f64>,
    expected: &str,
    ops: &mut Ops,
) -> PhaseResult {
    let mut out = PhaseResult::default();
    let (daemon, setup) = match Daemon::spawn(rc, &rc.work.join(name), artifact) {
        Ok(d) => d,
        Err(e) => {
            ops.record(false, || format!("{name}: {e}"));
            return out;
        }
    };
    out.setup_s = setup;
    let (pid, ingest, metrics) = (daemon.child.id(), daemon.ingest, daemon.metrics);
    let total: u64 = batches.iter().map(|b| b.lines).sum();
    out.lines = total;

    let stop = AtomicBool::new(false);
    let sent = AtomicU64::new(0);
    let publications: Mutex<Vec<(Instant, u64)>> = Mutex::new(Vec::new());
    let samples: Mutex<Vec<(Instant, u64)>> = Mutex::new(Vec::new());
    let rss = AtomicU64::new(0);
    let status_path = daemon.snaps.join("status.json");
    let summary_path = daemon.snaps.join("summary.json");
    let all_published = || {
        publications
            .lock()
            .expect("watcher lock")
            .last()
            .is_some_and(|(_, n)| *n >= total)
    };
    let await_published = || {
        let t0 = Instant::now();
        while t0.elapsed() < PHASE_TIMEOUT && !all_published() {
            std::thread::sleep(Duration::from_millis(1));
        }
    };

    let mut send_window = (Instant::now(), Instant::now());
    let mut send_error = None;
    let (page, stop_result) = std::thread::scope(|s| {
        // Publication watcher: a new `status.json` sequence means a new
        // snapshot (status is renamed last); its `summary.json` says how
        // many records it covers.
        s.spawn(|| {
            let mut seq = 0u64;
            while !stop.load(Ordering::SeqCst) {
                let now = Instant::now();
                let latest = std::fs::read_to_string(&status_path)
                    .ok()
                    .and_then(|t| Json::parse(&t).ok())
                    .and_then(|j| j.get("snapshot").and_then(Json::as_u64));
                if let Some(n) = latest.filter(|n| *n > seq) {
                    if let Some(c) = covered(&summary_path) {
                        seq = n;
                        publications.lock().expect("watcher lock").push((now, c));
                    }
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        // Backlog sampler: records sent minus records the daemon counted.
        s.spawn(|| {
            while !stop.load(Ordering::SeqCst) {
                let before = sent.load(Ordering::SeqCst);
                if let Ok(page) = http_get(metrics, "/metrics") {
                    if let Some(done) = gauge(&page, "filterscope_records_total") {
                        samples
                            .lock()
                            .expect("sampler lock")
                            .push((Instant::now(), before.saturating_sub(done)));
                    }
                }
                if let Some(mib) = util::peak_rss_mib(pid) {
                    rss.fetch_max((mib * 1024.0) as u64, Ordering::SeqCst);
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        });

        // The sender (this thread).
        match send_all(ingest, batches, rate, &sent, &mut out.late_ms) {
            Ok(window) => send_window = window,
            Err(e) => send_error = Some(e),
        }
        if rate.is_some() {
            // Open loop: every line must reach a periodic snapshot.
            await_published();
        }
        // Final gauges once every line is ingested, then a graceful stop.
        // A flood usually ends on the shutdown snapshot, which the watcher
        // sees land after the drain.
        let page = await_counted(metrics, total);
        if let Some(mib) = util::peak_rss_mib(pid) {
            rss.fetch_max((mib * 1024.0) as u64, Ordering::SeqCst);
        }
        let stopped = daemon.stop();
        await_published();
        stop.store(true, Ordering::SeqCst);
        (page, stopped)
    });
    let snaps = rc.work.join(name).join("snaps");
    out.report = std::fs::read_to_string(snaps.join("report.txt")).unwrap_or_default();
    out.peak_rss_mib = rss.load(Ordering::SeqCst) as f64 / 1024.0;

    let published = publications.into_inner().expect("watcher lock");
    let final_at = published.iter().find(|(_, n)| *n >= total).map(|(t, _)| *t);
    out.to_final_s = final_at.map_or(0.0, |t| t.duration_since(send_window.0).as_secs_f64());
    out.achieved_rps = total as f64 / send_window.1.duration_since(send_window.0).as_secs_f64();
    out.backlog = samples
        .into_inner()
        .expect("sampler lock")
        .into_iter()
        .filter(|(t, _)| *t >= send_window.0 && *t <= send_window.1)
        .map(|(_, b)| b)
        .collect();
    if let Some(rate) = rate {
        let mut cum = 0u64;
        for b in batches {
            let due = send_window.0 + Duration::from_secs_f64(cum as f64 / rate);
            cum += b.lines;
            if let Some((t, _)) = published.iter().find(|(_, n)| *n >= cum) {
                out.fresh_ms
                    .push(t.saturating_duration_since(due).as_secs_f64() * 1e3);
            }
        }
    }

    let counted = gauge(&page, "filterscope_records_total");
    let dropped = gauge(&page, "filterscope_connections_dropped_total");
    let checks = [
        (
            send_error.is_none(),
            format!("{name}: sending failed: {send_error:?}"),
        ),
        (
            stop_result.is_ok(),
            format!("{name}: daemon stop: {stop_result:?}"),
        ),
        (
            counted == Some(total),
            format!("{name}: daemon counted {counted:?} of {total} lines"),
        ),
        (
            dropped == Some(0),
            format!("{name}: {dropped:?} connections dropped"),
        ),
        (
            final_at.is_some(),
            format!("{name}: no snapshot ever covered all {total} lines"),
        ),
        (
            out.report == expected,
            format!("{name}: final report differs from analyze over the same records"),
        ),
    ];
    // The phase is one operation: it fails when any of its checks fails.
    let failures: Vec<String> = checks
        .into_iter()
        .filter(|(ok, _)| !ok)
        .map(|(_, what)| what)
        .collect();
    out.ok = failures.is_empty();
    ops.record(out.ok, || failures.join("; "));
    out
}

/// The metrics page once `filterscope_records_total` reaches `total` (or
/// the last page seen when the phase times out).
fn await_counted(addr: SocketAddr, total: u64) -> String {
    let t0 = Instant::now();
    loop {
        let page = http_get(addr, "/metrics").unwrap_or_default();
        let done = gauge(&page, "filterscope_records_total").is_some_and(|n| n >= total);
        if done || t0.elapsed() > PHASE_TIMEOUT {
            return page;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Connect, greet, send every batch (on schedule when `rate` is set) and
/// say goodbye. Returns the send window (first due time, last write done).
fn send_all(
    addr: SocketAddr,
    batches: &[Batch],
    rate: Option<f64>,
    sent: &AtomicU64,
    late_ms: &mut Vec<f64>,
) -> std::io::Result<(Instant, Instant)> {
    let mut socks = Vec::with_capacity(CONNECTIONS);
    for i in 0..CONNECTIONS {
        let mut sock = TcpStream::connect(addr)?;
        sock.set_nodelay(true)?;
        Frame::hello(&format!("conn-{i}"))
            .write_to(&mut sock)
            .map_err(std::io::Error::other)?;
        socks.push(sock);
    }
    let t0 = Instant::now();
    let mut cum = 0u64;
    for b in batches {
        if let Some(rate) = rate {
            let due = t0 + Duration::from_secs_f64(cum as f64 / rate);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            late_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        }
        socks[b.conn].write_all(&b.frame)?;
        cum += b.lines;
        sent.fetch_add(b.lines, Ordering::SeqCst);
    }
    let done = Instant::now();
    for sock in &mut socks {
        Frame::bye().write_to(sock).map_err(std::io::Error::other)?;
        sock.flush()?;
    }
    Ok((t0, done))
}

/// Batches of the prefix that carries `lines` lines (whole batches).
fn prefix(batches: &[Batch], lines: f64) -> usize {
    let mut cum = 0u64;
    batches
        .iter()
        .position(|b| {
            cum += b.lines;
            cum as f64 >= lines
        })
        .map_or(batches.len(), |i| i + 1)
}

/// The report `analyze` renders for each prefix length in `ends` (in
/// increasing order): the prefixes' lines go into segment files, and
/// prefix `i` is analyzed over segments `0..=i`.
fn reference_reports(
    rc: &RunCtx,
    batches: &[Batch],
    ends: &[usize],
    ctx: &AnalysisContext,
) -> Result<Vec<String>, String> {
    let dir = rc.work.join("reference");
    util::fresh_dir(&dir).map_err(|e| e.to_string())?;
    let mut segments = Vec::new();
    let mut start = 0;
    let mut reports = Vec::new();
    for (i, &end) in ends.iter().enumerate() {
        let path = dir.join(format!("segment{i:02}.log"));
        let mut file =
            std::io::BufWriter::new(std::fs::File::create(&path).map_err(|e| e.to_string())?);
        for b in &batches[start..end] {
            file.write_all(b.payload()).map_err(|e| e.to_string())?;
        }
        file.flush().map_err(|e| e.to_string())?;
        segments.push(path);
        start = end;
        let rendered = analyze::analyze(&segments, ctx, rc.threads).map_err(|e| e.to_string())?;
        reports.push(format!("{}\n", rendered.report));
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(reports)
}

pub fn run(rc: &RunCtx, metrics: &mut Metrics, ops: &mut Ops) {
    // Benchmark inputs (not timed): frames, the policy artifact, and the
    // report each phase's daemon must publish.
    let batches = encode_batches(rc.seed, SERVE_SCALE);
    let artifact_path = rc.work.join("policy.fscp");
    let artifact_bytes = artifact::compile(&PolicyData::standard(), 1, None);
    if let Err(e) = std::fs::write(&artifact_path, &artifact_bytes) {
        ops.record(false, || format!("cannot write the policy artifact: {e}"));
        return;
    }
    let ctx = AnalysisContext::standard(None);
    let secs = rc.seconds;
    let mut phases: Vec<(String, Option<f64>, usize)> = RATES
        .iter()
        .zip(RATE_SHARES)
        .map(|(&r, share)| {
            (
                format!("rate{}", r as u64),
                Some(r),
                prefix(&batches, r * secs * share),
            )
        })
        .collect();
    for i in 1..=FLOODS {
        phases.push((format!("flood{i}"), None, batches.len()));
    }
    let mut ends: Vec<usize> = phases.iter().map(|p| p.2).collect();
    ends.sort_unstable();
    ends.dedup();
    let reports = match reference_reports(rc, &batches, &ends, &ctx) {
        Ok(r) => r,
        Err(e) => {
            ops.record(false, || {
                format!("cannot build serve reference reports: {e}")
            });
            return;
        }
    };
    let expected = |end: usize| &reports[ends.iter().position(|e| *e == end).expect("planned end")];

    let mut setups = Vec::new();
    let mut max_rps = 0.0;
    let (mut late, mut fresh, mut ref_backlog) = (Vec::new(), Vec::new(), Vec::new());
    let (mut flood_rps, mut flood_rss) = (Vec::new(), Vec::new());
    let mut flood_report = String::new();
    for (name, rate, end) in &phases {
        let r = run_phase(
            rc,
            name,
            &artifact_path,
            &batches[..*end],
            *rate,
            expected(*end),
            ops,
        );
        setups.push(r.setup_s);
        let q = |p: f64| util::quantile(&r.fresh_ms, p);
        match rate {
            Some(rate) => {
                let sustained = r.sustained();
                eprintln!(
                    "perfbench: serve {name}: {} lines, achieved {:.0}/s, fresh p50 {:.1} ms p99 {:.1} ms over {} batches, backlog max {}, peak RSS {:.1} MiB, {}",
                    r.lines,
                    r.achieved_rps,
                    q(0.5),
                    q(0.99),
                    r.fresh_ms.len(),
                    r.backlog.iter().max().unwrap_or(&0),
                    r.peak_rss_mib,
                    if sustained { "sustained" } else { "not sustained" }
                );
                if sustained {
                    max_rps = r.achieved_rps;
                }
                if *rate == REFERENCE_RATE {
                    late = r.late_ms;
                    fresh = r.fresh_ms;
                    ref_backlog = r.backlog;
                }
            }
            None => {
                eprintln!(
                    "perfbench: serve {name}: {} lines in {:.3} s to the final snapshot, peak RSS {:.1} MiB",
                    r.lines, r.to_final_s, r.peak_rss_mib
                );
                if r.to_final_s > 0.0 {
                    flood_rps.push(r.lines as f64 / r.to_final_s);
                }
                flood_rss.push(r.peak_rss_mib);
                flood_report = r.report;
            }
        }
    }
    if !rc.trace {
        metrics.put("throughput_rps", util::median(&flood_rps), "1/s");
        metrics.put("sustained_rps", max_rps, "1/s");
        metrics.put("latency_p50_ms", util::quantile(&fresh, 0.5), "ms");
        metrics.put("latency_tail_ms", util::quantile(&fresh, 0.99), "ms");
        metrics.put("setup_s", util::median(&setups), "s");
        metrics.put("peak_rss_mib", util::median(&flood_rss), "MiB");
        return;
    }

    // Traced run: artifact load + witness check in-process, then the
    // replica of the daemon's ingest/snapshot path on the flood frames,
    // with spans off and on.
    let load_tracer = Tracer::new(true);
    let loaded = load_tracer.span(
        "proxy.artifact_load",
        0,
        || -> Result<PolicyEngine, String> {
            let compiled = artifact::load(&artifact_bytes, None).map_err(|e| e.to_string())?;
            let findings = verify_artifact(&compiled);
            if findings.is_empty() {
                Ok(compiled.engine)
            } else {
                Err(format!("{} witness findings", findings.len()))
            }
        },
    );
    let engine = match loaded {
        Ok(engine) => engine,
        Err(e) => {
            ops.record(false, || format!("artifact load: {e}"));
            return;
        }
    };
    let main = trace::current_thread();
    let pairs = crate::traced_pairs(|t| {
        let t0 = Instant::now();
        let out = replica(rc, &batches, &engine, &ctx, t);
        (out, util::secs(t0))
    });
    for result in &pairs.outputs {
        match result {
            Ok(out) => ops.record(out.report == flood_report, || {
                "serve replica's final report differs from the daemon's".into()
            }),
            Err(e) => ops.record(false, || format!("serve replica failed: {e}")),
        }
    }
    let selfs = trace::self_times(&pairs.tracer.spans());
    crate::write_spans(rc, &pairs.tracer);
    crate::put_layers(metrics, &pairs.tracer, &selfs);
    let load_selfs = trace::self_times(&load_tracer.spans());
    metrics.put(
        "proxy.artifact_load_s",
        trace::self_secs(&load_selfs, "proxy.artifact_load"),
        "s",
    );
    if let Some(Ok(out)) = pairs.outputs.last() {
        metrics.put("stream.snapshots", out.snapshots as f64, "count");
        metrics.put("analysis.state_bytes", out.state_bytes as f64, "bytes");
        metrics.put(
            "stream.ingest_batch_s",
            trace::self_secs(&selfs, "stream.ingest_batch") / out.records.max(1) as f64,
            "s/record",
        );
    }
    let accounted = trace::blocking_path_secs(&selfs, main, "bench.run");
    metrics.put("trace.overhead_ratio", pairs.overhead, "ratio");
    metrics.put(
        "trace.unaccounted_ratio",
        (pairs.wall - accounted).abs() / pairs.wall,
        "ratio",
    );
    metrics.put(
        "stream.backlog_max",
        ref_backlog.iter().copied().max().unwrap_or(0) as f64,
        "count",
    );
    metrics.put("loadgen.late_p99_ms", util::quantile(&late, 0.99), "ms");
}

/// What the replica published.
struct ReplicaOut {
    report: String,
    records: u64,
    snapshots: u64,
    state_bytes: u64,
}

/// The benchmark's [`SnapSink`]: the daemon's sink, call for call, with a
/// span around each call into `analysis`, `snapstore` and `stream`.
struct BenchSink<'a> {
    log: SnapLog,
    writer: SnapshotWriter,
    ctx: &'a AnalysisContext,
    tracer: &'a Tracer,
}

impl SnapSink for BenchSink<'_> {
    fn append_delta(
        &mut self,
        ts: u64,
        records: u64,
        parse_errors: u64,
        delta: &AnalysisSuite,
    ) -> Result<(), String> {
        let value = self.tracer.span("analysis.save", 0, || {
            encode_value(records, parse_errors, delta)
        });
        self.tracer
            .count("snapstore.append_bytes", value.len() as u64);
        self.tracer
            .span("snapstore.append", 0, || {
                self.log.append(FrameKind::Delta, ts, SUITE_KEY, value)
            })
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    fn should_checkpoint(&self) -> bool {
        self.log.should_compact()
    }

    fn checkpoint(
        &mut self,
        ts: u64,
        records: u64,
        parse_errors: u64,
        global: &AnalysisSuite,
    ) -> Result<(), String> {
        let value = self.tracer.span("analysis.save", 0, || {
            encode_value(records, parse_errors, global)
        });
        self.tracer
            .span("snapstore.append", 0, || {
                self.log.compact(ts, SUITE_KEY, value)
            })
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    fn publish(&mut self, counters: PublishCounters, global: &AnalysisSuite) -> Result<(), String> {
        let (report, summary) = self.tracer.span("analysis.render", 0, || {
            (
                format!("{}\n", global.render_all(self.ctx)),
                global.summary_json(self.ctx),
            )
        });
        let status = SnapLogStatus {
            log_seq: self.log.last_seq(),
            recovered_frames: 0,
        };
        self.tracer
            .span("stream.publish", 0, || {
                self.writer.write(
                    &report,
                    &summary,
                    counters.records,
                    counters.parse_errors,
                    Some(status),
                )
            })
            .map(|_| ())
            .map_err(|e| e.to_string())
    }
}

/// Replay every batch through the daemon's ingest path on this thread,
/// running a snapshot cycle every `--every-ms` of wall time and once more
/// at the end, as the daemon's drain does.
fn replica(
    rc: &RunCtx,
    batches: &[Batch],
    engine: &PolicyEngine,
    ctx: &AnalysisContext,
    tracer: &Tracer,
) -> Result<ReplicaOut, String> {
    let dir = rc.work.join("replica");
    util::fresh_dir(&dir).map_err(|e| e.to_string())?;
    let params = SuiteParams::new(3);
    let selection = Selection::default_suite();
    let stats = ServerStats::new();
    let conn_stats: Vec<Arc<ConnStats>> = (0..CONNECTIONS)
        .map(|i| Arc::new(ConnStats::new(i as u64, format!("conn-{i}"))))
        .collect();
    let shards: Vec<Arc<IMutex<Shard>>> = (0..CONNECTIONS)
        .map(|_| {
            Arc::new(IMutex::new(Shard::new(AnalysisSuite::with_selection(
                &params, &selection,
            ))))
        })
        .collect();
    let conns = IMutex::new(
        conn_stats
            .iter()
            .zip(&shards)
            .map(|(c, d)| ConnHandle {
                stats: Arc::clone(c),
                delta: Arc::clone(d),
            })
            .collect::<Vec<_>>(),
    );
    let mut parsers: Vec<LineParser> = (0..CONNECTIONS).map(|_| LineParser::new()).collect();
    let mut sink = BenchSink {
        log: SnapLog::open(&dir.join("snap.log"), 64 * 1024 * 1024).map_err(|e| e.to_string())?,
        writer: SnapshotWriter::new(&dir.join("snaps")).map_err(|e| e.to_string())?,
        ctx,
        tracer,
    };
    let mut global = AnalysisSuite::with_selection(&params, &selection);
    let mut folded = FoldTotals::default();
    let every = Duration::from_millis(EVERY_MS);
    let mut errors = Vec::new();
    let mut cycle =
        |global: &mut AnalysisSuite, folded: &mut FoldTotals, sink: &mut BenchSink<'_>| {
            let fresh = AnalysisSuite::with_selection(&params, &selection);
            errors.extend(tracer.span("stream.snapshot_cycle", 0, || {
                proto::snapshot_cycle(&conns, fresh, global, folded, &stats, sink)
            }));
        };
    let mut last = Instant::now();
    let mut records = 0u64;
    for (i, b) in batches.iter().enumerate() {
        let outcome = tracer.span("stream.ingest_batch", i as u64, || {
            proto::ingest_batch(
                &mut parsers[b.conn],
                b.payload(),
                ctx,
                &shards[b.conn],
                Some(engine),
                &conn_stats[b.conn],
                &stats,
            )
        });
        records += outcome.records;
        if last.elapsed() >= every {
            last = Instant::now();
            cycle(&mut global, &mut folded, &mut sink);
        }
    }
    cycle(&mut global, &mut folded, &mut sink);
    if let Some(e) = errors.first() {
        return Err(e.clone());
    }
    let report =
        std::fs::read_to_string(dir.join("snaps").join("report.txt")).map_err(|e| e.to_string())?;
    let out = ReplicaOut {
        report,
        records,
        snapshots: sink.writer.seq(),
        state_bytes: global.save_bytes().len() as u64,
    };
    let _ = std::fs::remove_dir_all(&dir);
    Ok(out)
}
