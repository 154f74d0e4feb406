//! Small helpers shared by the workloads: order statistics, digests,
//! process resource readings, and the result line.

use std::path::Path;
use std::time::Instant;

/// The `q` quantile (0..=1) of `values` by linear interpolation between
/// closest ranks; 0 without samples (a run without samples has already
/// failed a check).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// FNV-1a 64 over a byte stream, continued from `state`.
pub fn fnv64(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Peak resident set (VmHWM) of process `pid`, in MiB.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Reset this process's peak RSS to its current RSS (Linux
/// `clear_refs` mode 5), so a later [`peak_rss_mib`] covers only the work
/// after this point plus what stays resident. Best effort.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// CPU seconds (user + system) this process has used so far, every
/// thread included. `/proc` reports clock ticks of 1/100 s on Linux.
pub fn process_cpu_secs() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) / 100.0,
        _ => 0.0,
    }
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// A fresh, empty directory (removed first if present).
pub fn fresh_dir(path: &Path) -> std::io::Result<()> {
    if path.exists() {
        std::fs::remove_dir_all(path)?;
    }
    std::fs::create_dir_all(path)
}

/// One metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Named metrics in report order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.retain(|m| m.name != name);
        self.0.push(Metric { name, value, unit });
    }
}

/// Operation accounting behind `attempted`/`failed` and `ops_ok_ratio`.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Record one operation; `ok` is false when it errored or its output
    /// check failed. Failures are explained on stderr by `what`.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    pub fn ok_ratio(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }
}

/// The result line: one JSON object on a single line.
pub fn result_line(correct: bool, ops: Ops, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.attempted.max(1),
        ops.failed,
        body.join(", ")
    )
}

/// A finite float in JSON form with every digit Rust prints for it.
fn json_number(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains(['e', 'E']) {
        // `{:?}` may print `1e-7`; JSON accepts exponents, but keep a
        // mantissa with a decimal point for readers that expect one.
        format!("{v:e}")
    } else {
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn result_line_is_single_line_json() {
        let mut m = Metrics::default();
        m.put("latency_ms", 1.25, "ms");
        m.put("setup_s", 0.5, "s");
        let line = result_line(
            true,
            Ops {
                attempted: 3,
                failed: 0,
            },
            &m,
        );
        assert!(!line.contains('\n'));
        let parsed = filterscope::core::Json::parse(&line).expect("valid JSON");
        assert_eq!(parsed.get("attempted").and_then(|v| v.as_u64()), Some(3));
        let metrics = parsed.get("metrics").expect("metrics");
        assert_eq!(
            metrics
                .get("latency_ms")
                .and_then(|v| v.get("value"))
                .and_then(|v| v.as_f64()),
            Some(1.25)
        );
    }
}
