//! `generate`: synthesize a corpus, classify it through the 7-proxy farm
//! and write the ELFF day files, at `nproc` threads.
//!
//! The untraced path is the composition `filterscope generate` runs
//! (`Corpus::par_map_day_shards` → `LogRecord::write_csv_into` into part
//! files → per-day concatenation behind the ELFF header), rebuilt here from
//! the crates' public calls because the command's helpers are private to
//! the binary. A parity check pins it byte-identical to the binary's
//! output. The traced replica drives the same units one level lower —
//! `DayGenerator::iter_range`, `ProxyFarm::process_batch`,
//! `write_csv_into` — so each layer gets its own span.

use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

use filterscope::core::pool;
use filterscope::logformat::fields::header_line;
use filterscope::logformat::LogRecord;
use filterscope::proxy::{ProxyFarm, Request};
use filterscope::synth::corpus::DayShard;
use filterscope::synth::{Corpus, DayGenerator, SynthConfig};

use crate::trace::{self, Tracer};
use crate::util::{self, Metrics, Ops};
use crate::RunCtx;

/// Corpus scale divisor: 751 M / 4096 ≈ 183 K records (≈ 46 MB of ELFF),
/// about half a second per pass on two cores.
pub const GEN_SCALE: u64 = 4096;

/// Scale of the parity check against `filterscope generate`: the binary's
/// own default (`--scale 65536`, ≈ 11.6 K records).
const PARITY_SCALE: u64 = 65_536;

/// Pairs of 1-thread and nproc-thread passes behind `core.scaling`.
pub const BASELINE_PASSES: usize = 3;

/// Requests classified per `process_batch` call (the synth crate's batch).
const PROCESS_BATCH: usize = 1024;

/// The corpus the workload generates for `seed`.
pub fn corpus_for(seed: u64, scale: u64) -> Corpus {
    let config = SynthConfig::new(scale).expect("benchmark scale is >= 1");
    Corpus::new(config.with_seed(seed))
}

/// Digest of the generated inputs: every record of a small corpus as CSV.
#[cfg(test)]
pub fn input_digest(seed: u64) -> u64 {
    let corpus = corpus_for(seed, 1 << 20);
    let mut h = util::FNV_SEED;
    let mut line = String::new();
    corpus.for_each_record(|r| {
        line.clear();
        r.write_csv_into(&mut line);
        h = util::fnv64(h, line.as_bytes());
    });
    h
}

fn part_path(out_dir: &Path, unit: &DayShard) -> PathBuf {
    out_dir.join(format!(
        "sg_access_{}.log.part{:04}",
        unit.day.date, unit.shard
    ))
}

fn write_part(path: &Path, records: &mut dyn Iterator<Item = LogRecord>) -> std::io::Result<u64> {
    let mut writer = BufWriter::new(File::create(path)?);
    let mut written = 0u64;
    let mut line = String::new();
    for rec in records {
        line.clear();
        rec.write_csv_into(&mut line);
        line.push('\n');
        writer.write_all(line.as_bytes())?;
        written += 1;
    }
    writer.flush()?;
    Ok(written)
}

fn assemble_day(day_path: &Path, out_dir: &Path, units: &[DayShard]) -> std::io::Result<()> {
    let mut out = BufWriter::new(File::create(day_path)?);
    if units.iter().any(|u| !u.is_empty()) {
        writeln!(out, "#Software: SGOS 4.1.4")?;
        writeln!(out, "{}", header_line())?;
    }
    for unit in units {
        let part = part_path(out_dir, unit);
        let mut reader = File::open(&part)?;
        std::io::copy(&mut reader, &mut out)?;
        drop(reader);
        std::fs::remove_file(&part)?;
    }
    out.flush()
}

/// Concatenate the plan's part files into day files, in period order.
fn assemble_all(
    plan: &[DayShard],
    counts: &[u64],
    out_dir: &Path,
    tracer: &Tracer,
) -> std::io::Result<Vec<(PathBuf, u64)>> {
    let mut days = Vec::new();
    let mut i = 0;
    while i < plan.len() {
        let n = plan[i].shards;
        let day_path = out_dir.join(format!("sg_access_{}.log", plan[i].day.date));
        tracer.span("logformat.write", i as u64, || {
            assemble_day(&day_path, out_dir, &plan[i..i + n])
        })?;
        days.push((day_path, counts[i..i + n].iter().sum()));
        i += n;
    }
    Ok(days)
}

/// Write the whole corpus as day files under `out_dir` on `threads`
/// workers, as `filterscope generate` does. Returns `(path, records)` per
/// day in period order.
pub fn write_corpus(
    corpus: &Corpus,
    out_dir: &Path,
    threads: usize,
) -> std::io::Result<Vec<(PathBuf, u64)>> {
    let plan = corpus.shard_plan(0);
    let results = corpus.par_map_day_shards(threads, 0, |unit, records| {
        write_part(&part_path(out_dir, &unit), records)
    });
    let counts = results.into_iter().collect::<std::io::Result<Vec<u64>>>()?;
    assemble_all(&plan, &counts, out_dir, &Tracer::new(false))
}

/// [`write_corpus`] one level lower, with a span around every call into
/// `synth`, `proxy` and `logformat`. Farms are shared between days with
/// the same active proxies and generators are built once per day, as
/// `par_map_day_shards` does.
pub fn write_corpus_traced(
    corpus: &Corpus,
    out_dir: &Path,
    threads: usize,
    tracer: &Tracer,
) -> std::io::Result<Vec<(PathBuf, u64)>> {
    let days = corpus.config().period.days().to_vec();
    let mut farms: Vec<Arc<ProxyFarm>> = Vec::with_capacity(days.len());
    for day in &days {
        let shared = farms
            .iter()
            .find(|f| f.active() == day.kind.active_proxies())
            .cloned();
        let farm = shared.unwrap_or_else(|| {
            Arc::new(tracer.span("proxy.farm_for", 0, || corpus.farm_for(*day)))
        });
        farms.push(farm);
    }
    let generators: Vec<Arc<DayGenerator>> = days
        .iter()
        .map(|d| Arc::new(tracer.span("synth.day_generator", 0, || corpus.day_generator(*d))))
        .collect();
    let plan = corpus.shard_plan(0);
    let results = pool::run_indexed(threads, plan.len(), |i| -> std::io::Result<u64> {
        let unit = plan[i];
        let ix = days
            .iter()
            .position(|d| d.date == unit.day.date)
            .expect("shard day is in the period");
        let (farm, generator) = (&farms[ix], &generators[ix]);
        let mut requests = generator.iter_range(unit.start..unit.end);
        let mut writer = BufWriter::new(File::create(part_path(out_dir, &unit))?);
        let mut reqs: Vec<Request> = Vec::with_capacity(PROCESS_BATCH);
        let mut records: Vec<LogRecord> = Vec::with_capacity(PROCESS_BATCH);
        let mut line = String::new();
        let mut written = 0u64;
        loop {
            reqs.clear();
            tracer.span("synth.iter", i as u64, || {
                reqs.extend(requests.by_ref().take(PROCESS_BATCH))
            });
            if reqs.is_empty() {
                break;
            }
            records.clear();
            tracer.span("proxy.process_batch", i as u64, || {
                farm.process_batch(&reqs, &mut records)
            });
            let bytes = tracer.span("logformat.write", i as u64, || -> std::io::Result<u64> {
                let mut bytes = 0u64;
                for rec in &records {
                    line.clear();
                    rec.write_csv_into(&mut line);
                    line.push('\n');
                    writer.write_all(line.as_bytes())?;
                    bytes += line.len() as u64;
                }
                Ok(bytes)
            })?;
            tracer.count("synth.requests", reqs.len() as u64);
            tracer.count("proxy.decisions", records.len() as u64);
            tracer.count("logformat.write_bytes", bytes);
            written += records.len() as u64;
        }
        tracer.span("logformat.write", i as u64, || writer.flush())?;
        Ok(written)
    });
    let counts = results.into_iter().collect::<std::io::Result<Vec<u64>>>()?;
    assemble_all(&plan, &counts, out_dir, tracer)
}

/// Digest and data-line count of a day-file set.
fn day_files_check(days: &[(PathBuf, u64)]) -> std::io::Result<(u64, u64)> {
    let mut h = util::FNV_SEED;
    let mut lines = 0u64;
    for (path, _) in days {
        let bytes = std::fs::read(path)?;
        h = util::fnv64(h, &bytes);
        lines += bytes
            .split(|&b| b == b'\n')
            .filter(|l| !l.is_empty() && l[0] != b'#')
            .count() as u64;
    }
    Ok((h, lines))
}

/// The in-process writer must produce exactly the bytes the binary's
/// `generate` writes at the binary's default seed.
fn cli_parity(rc: &RunCtx) -> Result<(), String> {
    let dir = rc.work.join("parity");
    let (cli, lib) = (dir.join("cli"), dir.join("lib"));
    util::fresh_dir(&dir).map_err(|e| e.to_string())?;
    let status = Command::new(&rc.filterscope)
        .args([
            "generate",
            "--scale",
            &PARITY_SCALE.to_string(),
            "--threads",
        ])
        .arg(rc.threads.to_string())
        .arg("--out")
        .arg(&cli)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("cannot run filterscope generate: {e}"))?;
    if !status.success() {
        return Err(format!("filterscope generate exited with {status}"));
    }
    std::fs::create_dir_all(&lib).map_err(|e| e.to_string())?;
    let config = SynthConfig::new(PARITY_SCALE).expect("scale >= 1");
    let days = write_corpus(&Corpus::new(config), &lib, rc.threads).map_err(|e| e.to_string())?;
    for (path, _) in &days {
        let name = path.file_name().expect("day file name");
        let ours = std::fs::read(path).map_err(|e| e.to_string())?;
        let theirs = std::fs::read(cli.join(name)).map_err(|e| e.to_string())?;
        if ours != theirs {
            return Err(format!(
                "{} differs from the binary's",
                name.to_string_lossy()
            ));
        }
    }
    let cli_files = std::fs::read_dir(&cli).map_err(|e| e.to_string())?.count();
    if cli_files != days.len() {
        return Err(format!(
            "binary wrote {cli_files} files, library {}",
            days.len()
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// One timed pass: records written (as the writer counted them and as
/// data lines on disk), wall seconds, and the day files' digest.
struct Pass {
    records: u64,
    lines: u64,
    wall: f64,
    digest: u64,
}

impl Pass {
    fn rate(&self) -> f64 {
        self.records as f64 / self.wall
    }
}

fn timed_pass(
    corpus: &Corpus,
    out: &Path,
    threads: usize,
    tracer: Option<&Tracer>,
) -> std::io::Result<Pass> {
    util::fresh_dir(out)?;
    let t0 = Instant::now();
    let days = match tracer {
        Some(t) => write_corpus_traced(corpus, out, threads, t)?,
        None => write_corpus(corpus, out, threads)?,
    };
    let wall = util::secs(t0);
    let (digest, lines) = day_files_check(&days)?;
    Ok(Pass {
        records: days.iter().map(|(_, n)| n).sum(),
        lines,
        wall,
        digest,
    })
}

/// Set-ups timed together per `setup_s` sample.
const SETUP_BATCH: usize = 4;

/// Set up [`SETUP_BATCH`] times: the corpus model and every day's farm and
/// generator, which the first unit of work waits for. Returns the last
/// corpus and the mean seconds of one set-up.
fn set_up(seed: u64) -> (Corpus, f64) {
    let t0 = Instant::now();
    let mut corpus = None;
    for _ in 0..SETUP_BATCH {
        let c = corpus_for(seed, GEN_SCALE);
        for day in c.config().period.days() {
            std::hint::black_box(c.farm_for(*day));
            std::hint::black_box(c.day_generator(*day));
        }
        corpus = Some(c);
    }
    let secs = util::secs(t0) / SETUP_BATCH as f64;
    (corpus.expect("SETUP_BATCH > 0"), secs)
}

pub fn run(rc: &RunCtx, metrics: &mut Metrics, ops: &mut Ops) {
    // One set-up takes a few ms and its cost follows the machine's load
    // from one second to the next, so `setup_s` samples a batch before
    // every pass and takes the median over the whole run.
    let (corpus, first_setup) = set_up(rc.seed);
    let mut setups = vec![first_setup];
    let expected = corpus.total_volume();
    let out = rc.work.join("gen");

    // Every record accounted for, and the same bytes as the first pass.
    let check = |pass: &Pass, first: Option<u64>, ops: &mut Ops| {
        let ok = pass.records == expected
            && pass.lines == expected
            && first.is_none_or(|d| d == pass.digest);
        ops.record(ok, || {
            format!(
                "generate wrote {} records ({} lines), corpus has {expected}; digest {:x} vs {:x?}",
                pass.records, pass.lines, pass.digest, first
            )
        });
    };

    let mut passes: Vec<Pass> = Vec::new();
    let mut first_digest = None;
    util::reset_peak_rss();
    let cpu0 = util::process_cpu_secs();
    let loop_start = Instant::now();
    let min_passes = if rc.trace { 3 } else { 5 };
    while passes.len() < min_passes || util::secs(loop_start) < rc.seconds {
        if !rc.trace {
            setups.push(set_up(rc.seed).1);
        }
        match timed_pass(&corpus, &out, rc.threads, None) {
            Ok(pass) => {
                check(&pass, first_digest, ops);
                first_digest.get_or_insert(pass.digest);
                passes.push(pass);
            }
            Err(e) => {
                ops.record(false, || format!("generate pass failed: {e}"));
                break;
            }
        }
    }
    let loop_wall = util::secs(loop_start);
    let cpu = util::process_cpu_secs() - cpu0;

    match cli_parity(rc) {
        Ok(()) => ops.record(true, String::new),
        Err(e) => ops.record(false, || format!("generate parity with the binary: {e}")),
    }

    if !rc.trace {
        let timed: Vec<(u64, f64)> = passes.iter().map(|p| (p.records, p.wall)).collect();
        crate::put_batch_metrics(metrics, &timed);
        metrics.put("setup_s", util::median(&setups), "s");
        return;
    }

    // Traced run: `core.scaling` from alternating 1-thread and nproc-thread
    // passes, then the replica with spans off and on. Every pass must
    // match the untraced passes' day files byte for byte.
    let (mut single, mut multi) = (Vec::new(), Vec::new());
    for _ in 0..BASELINE_PASSES {
        for (threads, rates) in [(1, &mut single), (rc.threads, &mut multi)] {
            match timed_pass(&corpus, &out, threads, None) {
                Ok(pass) => {
                    check(&pass, first_digest, ops);
                    rates.push(pass.rate());
                }
                Err(e) => ops.record(false, || format!("generate baseline pass failed: {e}")),
            }
        }
    }
    metrics.put(
        "core.scaling",
        util::median(&multi) / util::median(&single),
        "ratio",
    );
    let main = trace::current_thread();
    let pairs = crate::traced_pairs(|t| {
        let pass = timed_pass(&corpus, &out, rc.threads, Some(t));
        let wall = pass.as_ref().map_or(0.0, |p| p.wall);
        (pass, wall)
    });
    let _ = util::fresh_dir(&out);
    for result in &pairs.outputs {
        match result {
            Ok(pass) => check(pass, first_digest, ops),
            Err(e) => ops.record(false, || format!("generate replica pass failed: {e}")),
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
    metrics.put(
        "core.cpu_util",
        cpu / (loop_wall * rc.threads as f64),
        "ratio",
    );
}
