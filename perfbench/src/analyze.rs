//! `analyze`: day files generated at set-up (not timed) → the full
//! default-suite report and `summary.json`, at `nproc` threads, through the
//! calls `filterscope analyze` composes: `ParallelIngest::ingest_selected`
//! → `render_all` / `summary_json`.
//!
//! The traced replica runs the same shard plan one level lower —
//! `BlockReader::next_block`, `BlockParser::parse`,
//! `AnalysisSuite::ingest_block`, plan-order `merge` — with a span around
//! each call, and must render the same bytes.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use filterscope::analysis::pipeline::DEFAULT_SHARD_BYTES;
use filterscope::analysis::{
    AnalysisContext, AnalysisSuite, ParallelIngest, Selection, SuiteParams,
};
use filterscope::core::pool;
use filterscope::logformat::{
    scan_sections, BlockParser, BlockReader, Schema, DEFAULT_BLOCK_BYTES,
};

use crate::generate;
use crate::trace::{self, Tracer};
use crate::util::{self, Metrics, Ops};
use crate::RunCtx;

/// The report and summary a run must reproduce.
pub struct Rendered {
    pub report: String,
    pub summary: String,
    pub records: u64,
}

/// `filterscope analyze`'s default minimum support.
const MIN_SUPPORT: u64 = 3;

/// Analyze `paths` at `threads` workers and render, as the CLI does.
pub fn analyze(
    paths: &[PathBuf],
    ctx: &AnalysisContext,
    threads: usize,
) -> filterscope::core::Result<Rendered> {
    let ingest = ParallelIngest::new(threads);
    let params = SuiteParams::new(MIN_SUPPORT);
    let (suite, stats) =
        ingest.ingest_selected(paths, ctx, &params, &Selection::default_suite())?;
    Ok(Rendered {
        report: suite.render_all(ctx),
        summary: suite.summary_json(ctx),
        records: stats.records,
    })
}

/// One byte-range unit of the ingest plan (mirrors the pipeline's plan:
/// schema sections cut into `DEFAULT_SHARD_BYTES` shards).
struct Unit {
    path: PathBuf,
    start: u64,
    end: u64,
    aligned: bool,
    schema: Arc<Schema>,
}

fn plan(paths: &[PathBuf], tracer: &Tracer) -> std::io::Result<Vec<Unit>> {
    let mut units = Vec::new();
    for path in paths {
        let scan = tracer.span("logformat.scan_sections", 0, || scan_sections(path))?;
        for (i, (start, schema)) in scan.sections.iter().enumerate() {
            let end = scan.cuts.get(i).copied().unwrap_or(scan.bytes);
            if *start >= end {
                continue;
            }
            let len = end - start;
            let shards = len.div_ceil(DEFAULT_SHARD_BYTES).max(1);
            let (base, rem) = (len / shards, len % shards);
            let mut at = *start;
            for s in 0..shards {
                let take = base + u64::from(s < rem);
                units.push(Unit {
                    path: path.clone(),
                    start: at,
                    end: at + take,
                    aligned: s == 0,
                    schema: Arc::clone(schema),
                });
                at += take;
            }
        }
    }
    Ok(units)
}

/// The traced replica of [`analyze`].
fn analyze_traced(
    paths: &[PathBuf],
    ctx: &AnalysisContext,
    threads: usize,
    tracer: &Tracer,
) -> std::io::Result<Rendered> {
    let params = SuiteParams::new(MIN_SUPPORT);
    let selection = Selection::default_suite();
    let units = plan(paths, tracer)?;
    let shards = pool::run_indexed(
        threads,
        units.len(),
        |i| -> std::io::Result<(AnalysisSuite, u64)> {
            let unit = &units[i];
            let req = i as u64;
            let mut suite = AnalysisSuite::with_selection(&params, &selection);
            let mut reader = BlockReader::open(
                &unit.path,
                unit.start,
                unit.end,
                unit.aligned,
                DEFAULT_BLOCK_BYTES,
            )?;
            let mut parser = BlockParser::new();
            let mut line_no = 0u64;
            let mut records = 0u64;
            loop {
                let guard = tracer.enter("logformat.next_block", req);
                let Some(block) = reader.next_block()? else {
                    break;
                };
                drop(guard);
                tracer.count("logformat.parse_bytes", block.len() as u64);
                let guard = tracer.enter("logformat.parse", req);
                let (views, _malformed) = parser.parse(block, &unit.schema, &mut line_no);
                drop(guard);
                tracer.span("analysis.ingest_block", req, || {
                    suite.ingest_block(ctx, &views)
                });
                records += views.len() as u64;
            }
            Ok((suite, records))
        },
    );
    let mut merged = AnalysisSuite::with_selection(&params, &selection);
    let mut records = 0u64;
    for shard in shards {
        let (suite, n) = shard?;
        tracer.span("analysis.merge", 0, || merged.merge(suite));
        records += n;
    }
    let (report, summary) = tracer.span("analysis.render", 0, || {
        (merged.render_all(ctx), merged.summary_json(ctx))
    });
    Ok(Rendered {
        report,
        summary,
        records,
    })
}

/// Write the seed's day files into `dir` (benchmark input, not timed).
pub fn make_inputs(seed: u64, dir: &Path, threads: usize) -> std::io::Result<Vec<PathBuf>> {
    util::fresh_dir(dir)?;
    let corpus = generate::corpus_for(seed, generate::GEN_SCALE);
    let days = generate::write_corpus(&corpus, dir, threads)?;
    Ok(days.into_iter().map(|(p, _)| p).collect())
}

pub fn run(rc: &RunCtx, metrics: &mut Metrics, ops: &mut Ops) {
    let inputs = rc.work.join("days");
    let paths = match make_inputs(rc.seed, &inputs, rc.threads) {
        Ok(p) => p,
        Err(e) => {
            ops.record(false, || format!("cannot write analyze inputs: {e}"));
            return;
        }
    };
    // Set-up: what the first shard waits for — the analysis context (geo
    // and category registries) and the ingest plan, which scans every
    // input file for `#Fields:` sections. Its cost follows the machine's
    // load from one second to the next, so `setup_s` also samples it
    // before every pass and takes the median over the whole run.
    let quiet = Tracer::new(false);
    let set_up = || {
        let t0 = Instant::now();
        let c = AnalysisContext::standard(None);
        plan(&paths, &quiet).map(|_| (c, util::secs(t0)))
    };
    let mut setups = Vec::new();
    let mut ctx = None;
    for _ in 0..rc.setup_repeats {
        match set_up() {
            Ok((c, secs)) => {
                setups.push(secs);
                ctx = Some(c);
            }
            Err(e) => {
                ops.record(false, || format!("cannot plan the analyze inputs: {e}"));
                return;
            }
        }
    }
    let ctx = ctx.expect("at least one set-up");

    // The 1-thread reference every pass must reproduce byte for byte.
    let reference = match analyze(&paths, &ctx, 1) {
        Ok(r) => r,
        Err(e) => {
            ops.record(false, || format!("reference analyze failed: {e}"));
            return;
        }
    };
    let matches = |r: &Rendered| r.report == reference.report && r.summary == reference.summary;

    let mut passes = Vec::new();
    util::reset_peak_rss();
    let cpu0 = util::process_cpu_secs();
    let loop_start = Instant::now();
    let min_passes = if rc.trace { 3 } else { 5 };
    while passes.len() < min_passes || util::secs(loop_start) < rc.seconds {
        if !rc.trace {
            match set_up() {
                Ok((_, secs)) => setups.push(secs),
                Err(e) => ops.record(false, || format!("cannot plan the analyze inputs: {e}")),
            }
        }
        let t0 = Instant::now();
        match analyze(&paths, &ctx, rc.threads) {
            Ok(r) => {
                let wall = util::secs(t0);
                ops.record(matches(&r), || {
                    "analyze output differs from the 1-thread reference".into()
                });
                passes.push((r.records, wall));
            }
            Err(e) => {
                ops.record(false, || format!("analyze pass failed: {e}"));
                break;
            }
        }
    }
    let loop_wall = util::secs(loop_start);
    let cpu = util::process_cpu_secs() - cpu0;
    if !rc.trace {
        crate::put_batch_metrics(metrics, &passes);
        metrics.put("setup_s", util::median(&setups), "s");
        return;
    }

    // `core.scaling` from alternating 1-thread and nproc-thread passes.
    let (mut single, mut multi) = (Vec::new(), Vec::new());
    for _ in 0..generate::BASELINE_PASSES {
        for (threads, rates) in [(1, &mut single), (rc.threads, &mut multi)] {
            let t0 = Instant::now();
            match analyze(&paths, &ctx, threads) {
                Ok(r) => {
                    rates.push(r.records as f64 / util::secs(t0));
                    ops.record(matches(&r), || {
                        "analyze baseline output differs from the reference".into()
                    });
                }
                Err(e) => ops.record(false, || format!("analyze baseline failed: {e}")),
            }
        }
    }
    metrics.put(
        "core.scaling",
        util::median(&multi) / util::median(&single),
        "ratio",
    );
    metrics.put(
        "core.cpu_util",
        cpu / (loop_wall * rc.threads as f64),
        "ratio",
    );
    let main = trace::current_thread();
    let pairs = crate::traced_pairs(|t| {
        let t0 = Instant::now();
        let rendered = analyze_traced(&paths, &ctx, rc.threads, t);
        (rendered, util::secs(t0))
    });
    for result in &pairs.outputs {
        match result {
            Ok(r) => ops.record(matches(r), || {
                "analyze replica differs from the reference".into()
            }),
            Err(e) => ops.record(false, || format!("analyze replica failed: {e}")),
        }
    }
    let selfs = trace::self_times(&pairs.tracer.spans());
    crate::write_spans(rc, &pairs.tracer);
    crate::put_layers(metrics, &pairs.tracer, &selfs);
    let accounted = trace::blocking_path_secs(&selfs, main, "bench.run");
    metrics.put("trace.overhead_ratio", pairs.overhead, "ratio");
    metrics.put(
        "trace.unaccounted_ratio",
        (pairs.wall - accounted).abs() / pairs.wall,
        "ratio",
    );
}
