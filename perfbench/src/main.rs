//! End-to-end benchmark for filterscope.
//!
//! ```text
//! perfbench --workload generate|analyze|serve|history --seed N --seconds S
//!           --trace 0|1 --filterscope PATH
//! ```
//!
//! Builds the workload's inputs from `--seed`, measures for about
//! `--seconds`, checks every output, and prints one JSON result line last
//! on stdout: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics of a traced run with `--trace 1`. `perfbench/run.py` builds
//! this binary and `filterscope` from source and then runs it.

#![forbid(unsafe_code)]

mod analyze;
mod generate;
mod history;
mod serve;
mod trace;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;

use filterscope::proxy::hashing::splitmix;
use trace::{Span, Tracer};
use util::{Metrics, Ops};

/// Everything a workload needs to know about this run.
pub struct RunCtx {
    pub seed: u64,
    /// How long the workload measures (`--seconds`).
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory inside the checkout, removed at the end.
    pub work: PathBuf,
    /// Directory the traced run writes its spans to.
    pub out: PathBuf,
    /// The `filterscope` binary built from this checkout.
    pub filterscope: PathBuf,
    /// Worker threads of the batch workloads (`nproc`).
    pub threads: usize,
    /// Set-up repetitions whose median is `setup_s`.
    pub setup_repeats: usize,
}

pub const WORKLOADS: [&str; 4] = ["generate", "analyze", "serve", "history"];

/// End-to-end metrics (`--trace 0`) with their units, in report order.
/// Every workload reports every one; README.md maps them per workload.
pub const END_TO_END: [(&str, &str); 7] = [
    ("throughput_rps", "1/s"),
    ("sustained_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ops_ok_ratio", "ratio"),
];

/// The end-to-end metrics of a batch workload from its timed passes
/// (`(records, wall seconds)` each): median per-pass rate, the run's
/// mean rate, and the median and p90 pass time.
pub fn put_batch_metrics(metrics: &mut Metrics, passes: &[(u64, f64)]) {
    let rates: Vec<f64> = passes.iter().map(|(n, w)| *n as f64 / w).collect();
    let walls_ms: Vec<f64> = passes.iter().map(|(_, w)| w * 1e3).collect();
    let records: u64 = passes.iter().map(|(n, _)| n).sum();
    let wall: f64 = passes.iter().map(|(_, w)| w).sum();
    metrics.put("throughput_rps", util::median(&rates), "1/s");
    metrics.put("sustained_rps", records as f64 / wall, "1/s");
    metrics.put("latency_p50_ms", util::quantile(&walls_ms, 0.5), "ms");
    metrics.put("latency_tail_ms", util::quantile(&walls_ms, 0.9), "ms");
    metrics.put(
        "peak_rss_mib",
        util::peak_rss_mib(std::process::id()).unwrap_or(0.0),
        "MiB",
    );
}

/// Per-layer metrics (`--trace 1`) with their units. A layer idle on the
/// traced workload reports 0.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("synth.requests", "count"),
    ("synth.busy_s", "s"),
    ("proxy.decisions", "count"),
    ("proxy.busy_s", "s"),
    ("proxy.artifact_load_s", "s"),
    ("logformat.write_bytes", "bytes"),
    ("logformat.write_busy_s", "s"),
    ("logformat.read_wait_s", "s"),
    ("logformat.parse_busy_s", "s"),
    ("logformat.parse_bytes", "bytes"),
    ("analysis.ingest_busy_s", "s"),
    ("analysis.merge_s", "s"),
    ("analysis.render_s", "s"),
    ("analysis.save_s", "s"),
    ("analysis.state_bytes", "bytes"),
    ("stream.ingest_batch_s", "s/record"),
    ("stream.cycle_s", "s"),
    ("stream.publish_s", "s"),
    ("stream.snapshots", "count"),
    ("stream.backlog_max", "count"),
    ("snapstore.append_s", "s"),
    ("snapstore.append_bytes", "bytes"),
    ("snapstore.read_s", "s"),
    ("snapstore.read_bytes", "bytes"),
    ("snapstore.query_s", "s"),
    ("snapstore.frames_folded_ratio", "ratio"),
    ("core.cpu_util", "ratio"),
    ("core.scaling", "ratio"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unaccounted_ratio", "ratio"),
];

/// Span name → the per-layer self-time metric it feeds (summed when
/// several spans feed one metric).
const SPAN_METRICS: [(&str, &str); 18] = [
    ("synth.day_generator", "synth.busy_s"),
    ("synth.iter", "synth.busy_s"),
    ("proxy.farm_for", "proxy.busy_s"),
    ("proxy.process_batch", "proxy.busy_s"),
    ("proxy.artifact_load", "proxy.artifact_load_s"),
    ("logformat.write", "logformat.write_busy_s"),
    ("logformat.scan_sections", "logformat.read_wait_s"),
    ("logformat.next_block", "logformat.read_wait_s"),
    ("logformat.parse", "logformat.parse_busy_s"),
    ("analysis.ingest_block", "analysis.ingest_busy_s"),
    ("analysis.merge", "analysis.merge_s"),
    ("analysis.render", "analysis.render_s"),
    ("analysis.save", "analysis.save_s"),
    ("stream.snapshot_cycle", "stream.cycle_s"),
    ("stream.publish", "stream.publish_s"),
    ("snapstore.append", "snapstore.append_s"),
    ("snapstore.read", "snapstore.read_s"),
    ("snapstore.query", "snapstore.query_s"),
];

/// Counters recorded at layer boundaries, reported under their own name.
const COUNTERS: [&str; 6] = [
    "synth.requests",
    "proxy.decisions",
    "logformat.write_bytes",
    "logformat.parse_bytes",
    "snapstore.append_bytes",
    "snapstore.read_bytes",
];

/// Put the per-layer metrics the spans and counters give: self times and
/// counts. Workloads set the others; any left unset report 0.
pub fn put_layers(metrics: &mut Metrics, tracer: &Tracer, selfs: &[(Span, u64)]) {
    for (name, unit) in PER_LAYER {
        let mut spans = SPAN_METRICS.iter().filter(|(_, m)| *m == name).peekable();
        if spans.peek().is_some() {
            let secs = spans.fold(0.0, |acc, (span, _)| acc + trace::self_secs(selfs, span));
            metrics.put(name, secs, unit);
        }
    }
    for name in COUNTERS {
        let unit = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .map_or("count", |(_, u)| u);
        metrics.put(name, tracer.counter(name) as f64, unit);
    }
}

/// Replica runs behind `trace.overhead_ratio`, alternating spans off and on.
const REPLICA_PAIRS: usize = 3;

/// What [`traced_pairs`] measured.
pub struct TracedPairs<T> {
    /// Every replica run's result (untraced and traced), for the checks.
    pub outputs: Vec<T>,
    /// Median traced wall ÷ median untraced wall.
    pub overhead: f64,
    /// The last traced run's spans and wall seconds, for the per-layer
    /// metrics. Its root span is `bench.run`.
    pub tracer: Tracer,
    pub wall: f64,
}

/// Run `replica` [`REPLICA_PAIRS`] times with a disabled tracer and as
/// many times with an enabled one, alternating, so the overhead compares
/// the same code with and without spans under the same conditions. The
/// replica returns its result and the wall seconds of the work it timed
/// (its own output checks excluded).
pub fn traced_pairs<T>(mut replica: impl FnMut(&Tracer) -> (T, f64)) -> TracedPairs<T> {
    let (mut quiet_walls, mut traced_walls, mut outputs) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = Tracer::new(true);
    for _ in 0..REPLICA_PAIRS {
        let (out, wall) = replica(&Tracer::new(false));
        outputs.push(out);
        quiet_walls.push(wall);
        let tracer = Tracer::new(true);
        let (out, wall) = tracer.span("bench.run", 0, || replica(&tracer));
        outputs.push(out);
        traced_walls.push(wall);
        last = tracer;
    }
    TracedPairs {
        outputs,
        overhead: util::median(&traced_walls) / util::median(&quiet_walls),
        tracer: last,
        wall: *traced_walls.last().expect("at least one pair"),
    }
}

/// Write the traced run's spans under the output directory.
pub fn write_spans(rc: &RunCtx, tracer: &Tracer) {
    let path = rc.out.join(format!(
        "spans-{}-seed{}.tsv",
        rc.work
            .file_name()
            .map_or_else(String::new, |n| n.to_string_lossy().into_owned()),
        rc.seed
    ));
    let written = std::fs::create_dir_all(&rc.out).and_then(|()| tracer.write_out(&path));
    match written {
        Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write spans to {}: {e}", path.display()),
    }
}

/// Seeded splitmix64 stream for workload choices: the state advances by
/// the golden-ratio increment and each draw is `splitmix` of it.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        let z = splitmix(self.0);
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    filterscope: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut raw = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None::<u64>, None);
    let mut filterscope = None;
    while let Some(flag) = raw.next() {
        let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad --seed {value}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                })
            }
            "--filterscope" => filterscope = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
        filterscope: filterscope.ok_or("--filterscope is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !args.filterscope.is_file() {
        eprintln!(
            "perfbench: no filterscope binary at {}",
            args.filterscope.display()
        );
        return ExitCode::FAILURE;
    }
    let work =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = util::fresh_dir(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let rc = RunCtx {
        seed: args.seed,
        seconds: args.seconds as f64,
        trace: args.trace,
        out: PathBuf::from(".bench_out"),
        work,
        filterscope: args.filterscope,
        threads: filterscope::core::pool::available_threads(),
        setup_repeats: 9,
    };
    let mut metrics = Metrics::default();
    let mut ops = Ops::default();
    match args.workload.as_str() {
        "generate" => generate::run(&rc, &mut metrics, &mut ops),
        "analyze" => analyze::run(&rc, &mut metrics, &mut ops),
        "serve" => serve::run(&rc, &mut metrics, &mut ops),
        "history" => history::run(&rc, &mut metrics, &mut ops),
        _ => unreachable!("workload validated in parse_args"),
    }
    let _ = std::fs::remove_dir_all(&rc.work);

    // Report exactly the mode's metrics: every end-to-end metric untraced,
    // every per-layer metric traced. A metric a failed run never reached
    // reads 0 (the run is then also marked incorrect).
    metrics.put("ops_ok_ratio", ops.ok_ratio(), "ratio");
    let wanted: &[(&'static str, &'static str)] = if rc.trace { &PER_LAYER } else { &END_TO_END };
    let mut result = Metrics::default();
    for &(name, unit) in wanted {
        let value = metrics
            .0
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value);
        result.put(name, value, unit);
    }
    let correct = ops.failed == 0 && ops.attempted > 0;
    println!("{}", util::result_line(correct, ops, &result));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn metric_names_match_the_contract() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for name in &names {
            assert!(valid_name(name), "bad metric name {name}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "metric names repeat");
        for (_, metric) in SPAN_METRICS {
            assert!(
                PER_LAYER.iter().any(|(n, _)| *n == metric),
                "{metric} unlisted"
            );
        }
        for name in COUNTERS {
            assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name} unlisted");
        }
    }

    /// BENCHMARK.json at the repository root lists exactly these metrics.
    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json readable");
        let json = filterscope::core::Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            match json.get(key) {
                Some(filterscope::core::Json::Arr(items)) => items
                    .iter()
                    .map(|m| {
                        let field = |f: &str| match m.get(f) {
                            Some(filterscope::core::Json::Str(s)) => s.clone(),
                            _ => String::new(),
                        };
                        (field("name"), field("unit"))
                    })
                    .collect(),
                _ => Vec::new(),
            }
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        for (name, _) in listed("workloads") {
            assert!(valid_name(&name));
        }
    }

    #[test]
    fn same_seed_gives_identical_inputs() {
        assert_eq!(generate::input_digest(7), generate::input_digest(7));
        assert_ne!(generate::input_digest(7), generate::input_digest(8));
        let a = serve::input_digest(&serve::encode_batches(7, 1 << 20));
        let b = serve::input_digest(&serve::encode_batches(7, 1 << 20));
        let c = serve::input_digest(&serve::encode_batches(8, 1 << 20));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn same_seed_gives_identical_day_files_and_log() {
        let root = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.bench_work"))
            .join(format!("test-{}", std::process::id()));
        let digest_days = |seed: u64, dir: &str| {
            let corpus = generate::corpus_for(seed, 1 << 20);
            let dir = root.join(dir);
            util::fresh_dir(&dir).unwrap();
            let days = generate::write_corpus(&corpus, &dir, 2).unwrap();
            days.iter().fold(util::FNV_SEED, |h, (path, _)| {
                util::fnv64(h, &std::fs::read(path).unwrap())
            })
        };
        assert_eq!(digest_days(3, "a"), digest_days(3, "b"));
        assert_ne!(digest_days(3, "c"), digest_days(4, "d"));
        let ctx = filterscope::analysis::AnalysisContext::standard(None);
        let quiet = Tracer::new(false);
        let log_digest = |seed: u64, name: &str| {
            let path = root.join(name);
            history::build_log(seed, 1 << 20, &path, &ctx, &quiet).unwrap();
            util::fnv64(util::FNV_SEED, &std::fs::read(&path).unwrap())
        };
        assert_eq!(log_digest(5, "x.log"), log_digest(5, "y.log"));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn rng_is_seeded() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..4).map(|_| r.below(1000)).collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
    }
}
