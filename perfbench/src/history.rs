//! `history`: a snap-log of per-window delta frames built at set-up
//! through `encode_value` and `SnapLog::append`, as the serve daemon's sink
//! writes them; then one closed-loop client runs a seeded mix of `at`,
//! `series` and `diff` queries. Each query is `read_frames` + the query +
//! rendering, the calls `filterscope history` composes.
//!
//! The query mix follows the one consumer the roadmap names for the
//! history API, the operator plane's "when did SG-44 start diverging?":
//! a session is a `series` of one metric over the whole log at the log's
//! time resolution (when did it change), a `diff` across one change
//! point of the log (what changed), and an `at` of the last instant
//! (what the state is now). Sessions repeat back to back, so the mix is
//! one query of each kind. The ratio follows that workflow; it is not
//! measured from operator traffic.

use std::path::{Path, PathBuf};
use std::time::Instant;

use filterscope::analysis::report::Table;
use filterscope::analysis::{AnalysisContext, AnalysisSuite, Selection, SuiteParams};
use filterscope::logformat::{LineSplitter, Schema};
use filterscope::snapstore::{
    diff, encode_value, metric, read_frames, series, suite_at, FrameKind, SnapLog, SUITE_KEY,
};
use filterscope::synth::stream_csv_lines;

use crate::generate;
use crate::trace::{self, Tracer};
use crate::util::{self, Metrics, Ops};
use crate::{Rng, RunCtx};

/// Corpus scale of the logged traffic (≈ 46 K records).
pub const HISTORY_SCALE: u64 = 16_384;

/// Delta frames in the log: one per simulated snapshot window.
pub const FRAMES: usize = 24;

/// The built log plus what every query's answer is checked against.
pub struct LogInput {
    pub path: PathBuf,
    /// Timestamp and cumulative record count after each frame.
    pub frames: Vec<(u64, u64)>,
    /// The batch pass over every logged record.
    pub batch: AnalysisSuite,
    pub batch_report: String,
}

impl LogInput {
    /// Records logged in frames with `ts <= t`.
    fn records_at(&self, t: u64) -> u64 {
        self.frames
            .iter()
            .take_while(|(ts, _)| *ts <= t)
            .last()
            .map_or(0, |(_, n)| *n)
    }
}

/// Build the snap-log for `seed` at `path`. Spans (when `tracer` is on)
/// cover `encode_value` and `SnapLog::append`.
pub fn build_log(
    seed: u64,
    scale: u64,
    path: &Path,
    ctx: &AnalysisContext,
    tracer: &Tracer,
) -> filterscope::core::Result<LogInput> {
    let corpus = generate::corpus_for(seed, scale);
    let mut lines: Vec<(u64, String)> = Vec::new();
    stream_csv_lines(&corpus, |_, ts, line| {
        lines.push((ts.epoch_seconds().max(0) as u64, line.to_string()))
    });
    let params = SuiteParams::new(3);
    let selection = Selection::default_suite();
    let schema = Schema::canonical();
    let mut splitter = LineSplitter::new();
    let mut batch = AnalysisSuite::with_selection(&params, &selection);
    if path.exists() {
        std::fs::remove_file(path)?;
    }
    let mut log = SnapLog::open(path, 0)?;
    let mut frames = Vec::with_capacity(FRAMES);
    let (mut max_ts, mut cumulative) = (0u64, 0u64);
    let n = lines.len();
    for w in 0..FRAMES {
        let window = &lines[w * n / FRAMES..(w + 1) * n / FRAMES];
        let mut delta = AnalysisSuite::with_selection(&params, &selection);
        let mut records = 0u64;
        for (i, (ts, line)) in window.iter().enumerate() {
            let view = schema.parse_view(&mut splitter, line, i as u64 + 1)?;
            delta.ingest(ctx, &view);
            batch.ingest(ctx, &view);
            max_ts = max_ts.max(*ts);
            records += 1;
        }
        let value = tracer.span("analysis.save", w as u64, || {
            encode_value(records, 0, &delta)
        });
        tracer.count("snapstore.append_bytes", value.len() as u64);
        tracer.span("snapstore.append", w as u64, || {
            log.append(FrameKind::Delta, max_ts, SUITE_KEY, value)
        })?;
        cumulative += records;
        frames.push((max_ts, cumulative));
    }
    let batch_report = batch.render_all(ctx);
    Ok(LogInput {
        path: path.to_path_buf(),
        frames,
        batch,
        batch_report,
    })
}

/// One query of the mix.
#[derive(Debug, Clone)]
enum Query {
    At(u64),
    Series(&'static str, u64),
    Diff(u64, u64),
}

/// `series` window width: one day. The corpus is generated day by day
/// and a frame is stamped with the latest record time it holds, so the
/// log's frames cluster at day ends and a day is the finest step at which
/// it answers "when".
const SERIES_STEP: u64 = 86_400;

/// The seeded query sequence: `count` queries in operator sessions of
/// `series`, `diff`, `at` (see the module documentation). Sessions walk a
/// seeded order of the analysis keys, and their `diff`s walk a seeded
/// order of the log's change points (consecutive distinct frame times),
/// so every run covers the whole log evenly.
fn queries(seed: u64, input: &LogInput, keys: &[&'static str], count: usize) -> Vec<Query> {
    let mut rng = Rng::new(seed ^ 0x4849_5354);
    let t_last = input.frames[FRAMES - 1].0;
    let mut times: Vec<u64> = input.frames.iter().map(|(ts, _)| *ts).collect();
    times.dedup();
    let mut changes: Vec<(u64, u64)> = times.windows(2).map(|w| (w[0], w[1])).collect();
    if changes.is_empty() {
        changes.push((t_last, t_last));
    }
    rng.shuffle(&mut changes);
    let mut order = keys.to_vec();
    rng.shuffle(&mut order);
    let mut out = Vec::with_capacity(count + 2);
    for session in 0.. {
        if out.len() >= count {
            break;
        }
        let (a, b) = changes[session % changes.len()];
        out.push(Query::Series(order[session % order.len()], SERIES_STEP));
        out.push(Query::Diff(a, b));
        out.push(Query::At(t_last));
    }
    out.truncate(count);
    out
}

/// Frames folded and frames read by one query (for the useful-work ratio).
#[derive(Default, Clone, Copy)]
struct Work {
    folded: u64,
    read: u64,
}

/// Run one query: read the log, answer, render; check the answer.
fn run_query(
    q: &Query,
    req: u64,
    input: &LogInput,
    ctx: &AnalysisContext,
    tracer: &Tracer,
) -> Result<Work, String> {
    let (frames, _) = tracer
        .span("snapstore.read", req, || read_frames(&input.path))
        .map_err(|e| e.to_string())?;
    let n = frames.len() as u64;
    tracer.count(
        "snapstore.read_bytes",
        frames
            .iter()
            .map(|f| f.value.len() as u64 + f.key.len() as u64)
            .sum(),
    );
    match *q {
        Query::At(t) => {
            let view = tracer
                .span("snapstore.query", req, || suite_at(&frames, t))
                .map_err(|e| e.to_string())?
                .ok_or("no state at the query instant")?;
            let report = tracer.span("analysis.render", req, || view.suite.render_all(ctx));
            if view.records != input.records_at(t) {
                return Err(format!(
                    "at {t}: {} records, logged {}",
                    view.records,
                    input.records_at(t)
                ));
            }
            if t >= input.frames[FRAMES - 1].0 && report != input.batch_report {
                return Err("at the last instant differs from the batch report".into());
            }
            Ok(Work {
                folded: view.frames_folded,
                read: n,
            })
        }
        Query::Series(key, step) => {
            let points = tracer
                .span("snapstore.query", req, || series(&frames, key, step))
                .map_err(|e| e.to_string())?;
            let table = tracer.span("analysis.render", req, || {
                let mut t = Table::new(
                    format!("{key} per {step}s window"),
                    &["Window start", "Value", "Cumulative"],
                );
                for p in &points {
                    t.row([
                        p.t0.to_string(),
                        p.value.to_string(),
                        p.cumulative.to_string(),
                    ]);
                }
                t.render()
            });
            std::hint::black_box(table);
            let want = metric(&input.batch, key).map_err(|e| e.to_string())?;
            let sum: u64 = points.iter().map(|p| p.value).sum();
            let last = points.last().map_or(0, |p| p.cumulative);
            if sum != want || last != want {
                return Err(format!(
                    "series {key}/{step}: sum {sum}, last {last}, batch {want}"
                ));
            }
            Ok(Work { folded: n, read: n })
        }
        Query::Diff(a, b) => {
            let d = tracer
                .span("snapstore.query", req, || diff(&frames, a, b))
                .map_err(|e| e.to_string())?;
            let table = tracer.span("analysis.render", req, || {
                let mut t = Table::new(
                    "Censored categories that changed",
                    &["Category", "From", "To"],
                );
                for row in d.categories.iter().chain(&d.domains) {
                    t.row([row.name.clone(), row.from.to_string(), row.to.to_string()]);
                }
                t.render()
            });
            std::hint::black_box(table);
            let want = (input.records_at(a), input.records_at(b));
            if d.records != want {
                return Err(format!(
                    "diff {a}..{b}: records {:?}, logged {want:?}",
                    d.records
                ));
            }
            let upto = |t: u64| input.frames.iter().filter(|(ts, _)| *ts <= t).count() as u64;
            Ok(Work {
                folded: upto(a) + upto(b),
                read: 2 * n,
            })
        }
    }
}

pub fn run(rc: &RunCtx, metrics: &mut Metrics, ops: &mut Ops) {
    let tracer = Tracer::new(rc.trace);
    let built = build_log(
        rc.seed,
        HISTORY_SCALE,
        &rc.work.join("snap.log"),
        &AnalysisContext::standard(None),
        &tracer,
    );
    let input = match built {
        Ok(input) => input,
        Err(e) => {
            ops.record(false, || format!("cannot build the snap-log: {e}"));
            return;
        }
    };
    // Set-up of the query side, before its first query: the analysis
    // context rendering needs, and a first read of the log that verifies
    // every frame's CRC.
    let mut setups = Vec::new();
    let mut ctx = None;
    for _ in 0..rc.setup_repeats {
        let t0 = Instant::now();
        let c = AnalysisContext::standard(None);
        if let Err(e) = read_frames(&input.path) {
            ops.record(false, || format!("cannot read the snap-log: {e}"));
            return;
        }
        setups.push(util::secs(t0));
        ctx = Some(c);
    }
    let ctx = ctx.expect("at least one set-up");
    let keys: Vec<&'static str> = input
        .batch
        .keys()
        .into_iter()
        .filter(|k| metric(&input.batch, k).is_ok())
        .collect();
    let plan = queries(rc.seed, &input, &keys, 100_000);

    let mut lat_ms = Vec::new();
    let mut work = Work::default();
    let main = trace::current_thread();
    util::reset_peak_rss();
    let loop_start = Instant::now();
    for (i, q) in plan.iter().enumerate() {
        if i >= 10 && util::secs(loop_start) >= rc.seconds {
            break;
        }
        let t0 = Instant::now();
        let result = tracer.span("bench.run", i as u64, || {
            run_query(q, i as u64, &input, &ctx, &tracer)
        });
        lat_ms.push(util::secs(t0) * 1e3);
        match result {
            Ok(w) => {
                work.folded += w.folded;
                work.read += w.read;
                ops.record(true, String::new);
            }
            Err(e) => ops.record(false, || format!("history query {q:?}: {e}")),
        }
    }
    let loop_wall = util::secs(loop_start);
    eprintln!(
        "perfbench: history ran {} queries over a {}-frame log",
        lat_ms.len(),
        FRAMES
    );

    if !rc.trace {
        // Closed loop: the completion rate is both the flat-out and the
        // sustained query rate.
        let qps = lat_ms.len() as f64 / (lat_ms.iter().sum::<f64>() / 1e3);
        metrics.put("throughput_rps", qps, "1/s");
        metrics.put("sustained_rps", qps, "1/s");
        metrics.put("latency_p50_ms", util::quantile(&lat_ms, 0.5), "ms");
        metrics.put("latency_tail_ms", util::quantile(&lat_ms, 0.9), "ms");
        metrics.put("setup_s", util::median(&setups), "s");
        metrics.put(
            "peak_rss_mib",
            util::peak_rss_mib(std::process::id()).unwrap_or(0.0),
            "MiB",
        );
        return;
    }

    // Tracing overhead: the same queries again with spans off.
    let quiet = Tracer::new(false);
    let t0 = Instant::now();
    for (i, q) in plan.iter().take(lat_ms.len()).enumerate() {
        let _ = run_query(q, i as u64, &input, &ctx, &quiet);
    }
    let untraced_wall = util::secs(t0);
    let selfs = trace::self_times(&tracer.spans());
    crate::write_spans(rc, &tracer);
    crate::put_layers(metrics, &tracer, &selfs);
    let accounted = trace::blocking_path_secs(&selfs, main, "bench.run")
        - trace::self_secs(&selfs, "analysis.save")
        - trace::self_secs(&selfs, "snapstore.append");
    metrics.put("trace.overhead_ratio", loop_wall / untraced_wall, "ratio");
    metrics.put(
        "trace.unaccounted_ratio",
        (loop_wall - accounted).abs() / loop_wall,
        "ratio",
    );
    metrics.put(
        "analysis.state_bytes",
        input.batch.save_bytes().len() as f64,
        "bytes",
    );
    metrics.put(
        "snapstore.frames_folded_ratio",
        work.folded as f64 / work.read.max(1) as f64,
        "ratio",
    );
}
