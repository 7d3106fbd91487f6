//! Small shared pieces: samples and percentiles, `/proc` readers, the
//! report a run prints, and the settings every result records.

use std::path::{Path, PathBuf};
use std::time::Duration;

/// Linux `USER_HZ`: the unit of utime/stime in `/proc/<pid>/stat`. It is
/// 100 on every mainstream kernel configuration.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// Latency samples of one run, in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e3);
    }

    pub fn push_ms(&mut self, ms: f64) {
        self.0.push(ms);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn count_within(&self, limit: f64) -> usize {
        self.0.iter().filter(|&&v| v <= limit).count()
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.iter().sum::<f64>() / self.0.len() as f64
    }

    /// Nearest-rank quantile, `q` in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&self.0, q)
    }
}

/// A percentile's name, `p95` for 0.95.
pub fn percentile_label(q: f64) -> String {
    format!("p{}", (q * 100.0).round())
}

pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// CPU time (user + system, all threads) of process `pid` so far.
pub fn process_cpu(pid: u32) -> Option<Duration> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line, so 11 and
    // 12 after the state field that starts `rest`.
    let ticks: f64 = fields.get(11)?.parse::<f64>().ok()? + fields.get(12)?.parse::<f64>().ok()?;
    Some(Duration::from_secs_f64(ticks / CLOCK_TICKS_PER_S))
}

/// The machine's (steal, total) CPU ticks so far, from `/proc/stat`.
pub fn host_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Prints the share of CPU time the hypervisor stole since `since` (a
/// [`host_ticks`] reading): on a shared virtual machine it explains runs
/// that read slow.
pub fn print_steal(since: (u64, u64)) {
    let (steal, total) = host_ticks();
    let share = (steal - since.0) as f64 / (total - since.1).max(1) as f64;
    println!(
        "host: {:.1}% of CPU time stolen by the hypervisor during measurement",
        100.0 * share
    );
}

/// Peak resident set (`VmHWM`) of process `pid`, in MB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The git revision of the checkout in the working directory, read from
/// `.git` directly so nothing outside the checkout is consulted.
pub fn git_revision() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none (not a git checkout)".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unresolved {reference}"))
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A private scratch directory inside the checkout, removed on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn new(label: &str) -> std::io::Result<Self> {
        let dir = PathBuf::from(".bench_work").join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either (fails harmlessly while
        // another work directory still lives in it).
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// What one run reports: the output-check failures, session counts, and
/// named metrics (value, unit).
#[derive(Debug, Default)]
pub struct Report {
    pub failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// (name, value, unit, samples it was computed from).
    pub metrics: Vec<(&'static str, f64, &'static str, usize)>,
}

impl Report {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push((name, value, unit, samples));
    }

    /// One line per metric, for people: name, value, unit, sample count.
    pub fn print(&self) {
        for (name, value, unit, samples) in &self.metrics {
            println!("  {name:<36} {value:>14.4} {unit:<6} n={samples}");
        }
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The single-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit, _)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Sums every number that follows `"key":` in `json` — enough to read
/// counters out of the daemon's rendered metrics report.
pub fn json_sum(json: &str, key: &str) -> f64 {
    let needle = format!("\"{key}\":");
    json.match_indices(&needle)
        .filter_map(|(at, _)| {
            let rest = json[at + needle.len()..].trim_start();
            let end = rest
                .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
                .unwrap_or(rest.len());
            rest[..end].parse::<f64>().ok()
        })
        .sum()
}

/// The part of `json` from the first `"from":` up to the first `"to":`
/// after it.
pub fn json_section<'a>(json: &'a str, from: &str, to: &str) -> &'a str {
    let start = json.find(&format!("\"{from}\":")).unwrap_or(json.len());
    let end = json[start..]
        .find(&format!("\"{to}\":"))
        .map_or(json.len(), |e| start + e);
    &json[start..end]
}
