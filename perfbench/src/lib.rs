//! The fgcite benchmark: five seeded workloads driven through the
//! public APIs of `fgc-server`, `fgc-dist`, `fgc-core`, `fgc-query`,
//! `fgc-rewrite`, `fgc-views` and `fgc-relation`.
//!
//! One run measures one workload. With tracing off it reports the
//! end-to-end metrics ([`END_TO_END`]); a traced run reports the
//! per-layer metrics ([`PER_LAYER`], [`LAYER_EXTRAS`]) by timing the
//! calls into each layer's public entry points from outside the
//! program. Every
//! response is checked against an in-process reference. See
//! `NOTES.md` for why each workload exists and what each metric is
//! predicted to move.

pub mod http;
pub mod versioned;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// End-to-end metrics every workload reports with tracing off, with
/// their units. `BENCHMARK.json` bounds how far each may worsen.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics every workload's traced run measures, with their
/// units: the result line of a traced run carries exactly these.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("query.eval_ms", "ms"),
    ("query.compile_us", "us"),
    ("core.extent_ms", "ms"),
    ("core.plan_hit_rate", "ratio"),
    ("core.render_ms", "ms"),
    ("core.cite_ms", "ms"),
    ("views.agg_ms", "ms"),
    ("views.distinct_citations", "count"),
    ("rewrite.search_ms", "ms"),
    ("rewrite.count", "count"),
    ("core.token_hit_rate", "ratio"),
    ("core.token_miss_ms", "ms"),
    ("trace.unaccounted_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Per-layer metrics of layers that only some workloads run (the front
/// door, the coordinator, commits and storage, version derivation).
/// They are printed with the traced run's metrics, as `n/a` where the
/// workload does not run the layer, and stay out of the result line.
pub const LAYER_EXTRAS: &[(&str, &str)] = &[
    ("server.front_ms", "ms"),
    ("server.batch_mean", "count"),
    ("server.decode_us", "us"),
    ("server.rejected", "count"),
    ("server.encode_ms", "ms"),
    ("server.body_kib", "KiB"),
    ("core.plan_ms", "ms"),
    ("relation.commit_ms", "ms"),
    ("storage.sync_ms", "ms"),
    ("storage.wal_bytes_per_commit", "B"),
    ("storage.load_history_ms", "ms"),
    ("storage.cache_hit_rate", "ratio"),
    ("fixity.derive_ms", "ms"),
    ("fixity.derived", "count"),
    ("fixity.rebuilt", "count"),
    ("fixity.shared", "count"),
    ("fixity.evictions", "count"),
    ("fixity.resident_kib_per_version", "KiB"),
    ("dist.coord_ms", "ms"),
    ("dist.overhead_ms", "ms"),
    ("dist.replica_calls_per_req", "count"),
    ("dist.replica_failures", "count"),
];

/// Workload-specific end-to-end figures. They are printed with the
/// gated set, as `n/a` where the workload does not have them, and stay
/// out of the result line (see `NOTES.md`).
pub const EXTRAS: &[(&str, &str)] = &[
    ("latency_p99_ms", "ms"),
    ("failed_frac", "ratio"),
    ("commit_p50_ms", "ms"),
    ("history_cite_p50_ms", "ms"),
];

/// The five workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Family-by-id and families-by-curator lookups at 5:1.
    Keyed,
    /// Type selections with 0.3–2.5 MB bodies.
    Scan,
    /// Whole-relation listings with one citation per tuple.
    Listing,
    /// Commit, head cite and history cite rounds on disk storage.
    Versioned,
    /// The keyed mix through a coordinator and two replicas.
    Scatter,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 5] = [
        Workload::Keyed,
        Workload::Scan,
        Workload::Listing,
        Workload::Versioned,
        Workload::Scatter,
    ];

    /// The name used on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Keyed => "keyed",
            Workload::Scan => "scan",
            Workload::Listing => "listing",
            Workload::Versioned => "versioned",
            Workload::Scatter => "scatter",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Instance sizes: `Full` is what the benchmark measures, `Tiny`
/// keeps the smoke test fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured sizes (see `NOTES.md`).
    Full,
    /// Small instances for the smoke test.
    Tiny,
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed for every generated input.
    pub seed: u64,
    /// Length of the measured phase in seconds.
    pub seconds: f64,
    /// Report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Instance sizes.
    pub scale: Scale,
}

/// A named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (from [`END_TO_END`], [`EXTRAS`], [`PER_LAYER`] or
    /// [`LAYER_EXTRAS`]).
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The workload that ran.
    pub workload: Workload,
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that failed: non-200s, transport errors, timeouts
    /// and outputs that differ from the reference.
    pub failed: u64,
    /// Exactly the [`END_TO_END`] metrics, or [`PER_LAYER`] when traced.
    pub metrics: Vec<Metric>,
    /// The [`EXTRAS`] (or, traced, [`LAYER_EXTRAS`]) this workload has.
    pub extras: Vec<Metric>,
    /// The [`EXTRAS`] (or [`LAYER_EXTRAS`]) this workload does not have.
    pub absent: Vec<&'static str>,
    /// Provenance: commit, cores, profile, seed, sizes, server config.
    pub stamp: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Whether every checked output matched its reference.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line: one JSON object, printed last on stdout.
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// Human-readable lines: the stamp and every metric with its unit.
    pub fn human_lines(&self) -> Vec<String> {
        let name = self.workload.name();
        let stamp: Vec<String> = self.stamp.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let mut lines = vec![format!("# {name} stamp: {}", stamp.join(" "))];
        for m in self.metrics.iter().chain(&self.extras) {
            lines.push(format!(
                "# {name} {:<34} {:>14} {}",
                m.name,
                format_value(m.value),
                m.unit
            ));
        }
        for absent in &self.absent {
            lines.push(format!("# {name} {absent:<34} {:>14}", "n/a"));
        }
        lines.push(format!(
            "# {name} attempted={} failed={}",
            self.attempted, self.failed
        ));
        lines
    }
}

fn format_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

/// A JSON number with every digit Rust's shortest round-trip
/// formatting gives ([`Collected::finish`] admits only finite values).
fn json_number(v: f64) -> String {
    format!("{v:?}")
}

/// Metric values collected during a run, keyed by name.
#[derive(Debug, Default)]
pub struct Collected {
    values: BTreeMap<&'static str, f64>,
}

impl Collected {
    /// Record a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        // `+ 0.0` turns the -0.0 of an empty float sum into 0.0
        self.values.insert(name, value + 0.0);
    }

    /// The metrics of `gated` in its order (each must have been
    /// recorded, as a finite number), the recorded metrics of `extras`,
    /// and the names of `extras` that were not recorded.
    #[allow(clippy::type_complexity)]
    pub fn finish(
        &self,
        gated: &[(&'static str, &'static str)],
        extras: &[(&'static str, &'static str)],
    ) -> Result<(Vec<Metric>, Vec<Metric>, Vec<&'static str>), String> {
        let metric = |&(name, unit): &(&'static str, &'static str)| {
            self.values
                .get(name)
                .map(|&value| Metric { name, value, unit })
        };
        let metrics = gated
            .iter()
            .map(|m| match metric(m) {
                Some(v) if v.value.is_finite() => Ok(v),
                Some(v) => Err(format!("metric `{}` is {}", v.name, v.value)),
                None => Err(format!("metric `{}` was not measured", m.0)),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let present = extras.iter().filter_map(metric).collect();
        let absent = extras
            .iter()
            .filter(|(name, _)| !self.values.contains_key(name))
            .map(|(name, _)| *name)
            .collect();
        Ok((metrics, present, absent))
    }
}

/// Run one workload.
pub fn run(options: &Options) -> Result<Outcome, String> {
    match options.workload {
        Workload::Versioned => versioned::run(options),
        _ => http::run(options),
    }
}

/// Exact order statistic at quantile `p` ∈ [0, 1] of sorted samples,
/// interpolating linearly between the two closest ranks.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Samples per slice of [`sliced_quantile`].
pub const SLICE: usize = 100;

/// Quantile `p` of samples kept in the order they were taken: the
/// exact order statistic ([`quantile`]) of each slice of about
/// [`SLICE`] consecutive samples, averaged over the slices. The host
/// can change speed for seconds at a time. A median over the whole run
/// then jumps with the share of the run spent slow, while each slice
/// mostly sees one speed and their mean moves in proportion to that
/// share (see `NOTES.md`, "Latency median").
pub fn sliced_quantile(in_order: &[f64], p: f64) -> f64 {
    let n = in_order.len();
    let slices = (n / SLICE).max(1);
    let total: f64 = (0..slices)
        .map(|i| {
            quantile(
                &sorted(in_order[i * n / slices..(i + 1) * n / slices].to_vec()),
                p,
            )
        })
        .sum();
    total / slices as f64
}

/// Whether an untraced run should set up once more for its set-up
/// median: at least three set-ups, more (up to nine) while they total
/// under two seconds, so the median of cheap set-ups is steady too.
pub fn more_set_ups(done: &[f64]) -> bool {
    done.len() < 3 || (done.len() < 9 && done.iter().sum::<f64>() < 2.0)
}

/// Sort samples for [`quantile`].
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Median of samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples.to_vec()), 0.5)
}

/// Arithmetic mean (0 for no samples).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// This process's peak resident set in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// Logical cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The repository root this benchmark was built from.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// Provenance shared by every workload: commit, a digest of the
/// program sources (the commit is `unknown` outside a git checkout),
/// cores, build profile and seed.
pub fn base_stamp(options: &Options) -> Vec<(&'static str, String)> {
    let root = repo_root();
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(&root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    vec![
        ("workload", options.workload.name().into()),
        ("commit", commit),
        ("source_fnv64", format!("{:016x}", source_digest(&root))),
        ("nproc", cores().to_string()),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
        ("seed", options.seed.to_string()),
        ("seconds", options.seconds.to_string()),
        ("trace", u8::from(options.trace).to_string()),
        ("scale", format!("{:?}", options.scale).to_lowercase()),
    ]
}

/// FNV-1a over the program's manifests and Rust sources (path and
/// content, in sorted path order), so results from a checkout without
/// git history still name the code they measured.
fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                out.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    walk(&root.join("src"), &mut files);
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        let rel = file.strip_prefix(root).unwrap_or(&file);
        let bytes = std::fs::read(&file).unwrap_or_default();
        for b in rel.to_string_lossy().bytes().chain(bytes) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Pinned instance seed: the served database is fixed per workload,
/// the run seed draws the request stream (keys, order, churn).
pub const INSTANCE_SEED: u64 = 0xC17E;

/// A GtoPdb-shaped instance of `families` families.
pub fn instance(families: usize) -> fgc_relation::Database {
    fgc_gtopdb::generate(
        &fgc_gtopdb::GeneratorConfig::default()
            .with_families(families)
            .with_seed(INSTANCE_SEED),
    )
}

/// Relation sizes of an instance, for the stamp.
pub fn instance_sizes(db: &fgc_relation::Database) -> String {
    ["Family", "FamilyIntro", "Person", "FC", "FIC"]
        .iter()
        .map(|r| format!("{r}:{}", db.relation(r).map_or(0, |rel| rel.len())))
        .collect::<Vec<_>>()
        .join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sliced_median_follows_the_share_of_slow_samples() {
        // 60% of the samples at 1.0, then 40% at 2.0: the median of
        // the whole is 1.0, the mean of slice medians is 1.4.
        let samples: Vec<f64> = (0..1000).map(|i| if i < 600 { 1.0 } else { 2.0 }).collect();
        assert_eq!(quantile(&sorted(samples.clone()), 0.5), 1.0);
        assert!((sliced_quantile(&samples, 0.5) - 1.4).abs() < 1e-9);
        // fewer samples than a slice: the plain order statistic
        assert_eq!(sliced_quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(sliced_quantile(&[], 0.5), 0.0);
    }
}
