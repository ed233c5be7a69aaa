//! The `versioned` workload: a single writer on `DiskStorage` runs
//! rounds of FIC churn commit → head citation → citation at a seeded
//! earlier version, in process through `VersionedCitationEngine`.

use crate::http::{body_of, ms, replay, timed_once, Replay};
use crate::{
    base_stamp, instance, instance_sizes, mean, peak_rss_mib, quantile, ratio, sliced_quantile,
    sorted, Collected, Options, Outcome, Scale, END_TO_END, EXTRAS, LAYER_EXTRAS, PER_LAYER,
};
use fgc_core::{CitationEngine, CiteRequest, QueryCitation, VersionedCitationEngine};
use fgc_gtopdb::paper_views;
use fgc_gtopdb::rng::SmallRng;
use fgc_query::{parse_query, ConjunctiveQuery};
use fgc_relation::storage::{DiskStorage, Storage, StorageOptions};
use fgc_relation::{tuple, Database, VersionedDatabase};
use fgc_rewrite::ViewDefs;
use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rounds per epoch whose citations are re-derived by a from-scratch
/// engine.
const CHECKED_ROUNDS: usize = 4;

/// Commits per epoch: the writer restarts from the persisted history
/// after this many, which bounds the history it holds.
const EPOCH: usize = 200;

/// Timed cold reopens after each epoch of an untraced run, besides the
/// epoch's own. A reopen takes 30-45 ms, and the host moves it between
/// a fast and a slow mode for seconds to minutes at a time; reopens
/// spread over the run sample more of it than a burst before the run.
const REOPENS_PER_EPOCH: usize = 4;

/// A data directory under the benchmark package, removed on drop.
struct DataDir(PathBuf);

impl DataDir {
    fn new(tag: &str) -> Result<DataDir, String> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("run-data")
            .join(format!("{tag}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(DataDir(dir))
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // only succeeds once the last run's directory is gone
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Seeded contributor churn on `FIC`: each commit adds one intro
/// contributor and removes one existing row.
struct Churn {
    rng: SmallRng,
    intro_families: Vec<String>,
    persons: usize,
}

/// One commit's edit: the family and person added, and which existing
/// `FIC` row (by position) is removed.
#[derive(Clone)]
struct Edit {
    family: String,
    person: String,
    victim: usize,
}

impl Churn {
    fn new(db: &Database, seed: u64) -> Churn {
        let intro_families = db
            .relation("FamilyIntro")
            .map(|r| r.iter().map(|t| t[0].to_string()).collect())
            .unwrap_or_default();
        let persons = db.relation("Person").map_or(1, |r| r.len().max(1));
        Churn {
            rng: SmallRng::seed_from_u64(seed),
            intro_families,
            persons,
        }
    }

    fn family(&mut self) -> String {
        self.intro_families[self.rng.gen_range(0..self.intro_families.len())].clone()
    }

    fn next(&mut self) -> Edit {
        Edit {
            family: self.family(),
            person: format!("p{}", self.rng.gen_range(0..self.persons)),
            victim: self.rng.gen_range(0..usize::MAX),
        }
    }
}

fn apply(edit: &Edit, db: &mut Database) -> fgc_relation::error::Result<()> {
    db.insert("FIC", tuple![edit.family.clone(), edit.person.clone()])?;
    let rows = db.relation("FIC")?.rows();
    let victim = rows[edit.victim % rows.len()].clone();
    if victim[0].to_string() != edit.family || victim[1].to_string() != edit.person {
        db.remove("FIC", &victim)?;
    }
    Ok(())
}

/// The keyed query cited at the head after a commit: the edited
/// family's intro page, whose citation lists its contributors.
fn intro_query(family: &str) -> String {
    format!("Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), F = {family:?}")
}

fn parse(q: &str) -> Result<ConjunctiveQuery, String> {
    parse_query(q).map_err(|e| format!("query: {e}"))
}

/// Digest of everything a citation answers with.
fn citation_digest(c: &QueryCitation) -> u64 {
    let mut h = DefaultHasher::new();
    for t in &c.tuples {
        h.write(format!("{:?}", t.tuple).as_bytes());
        h.write(t.citation.to_compact().as_bytes());
    }
    h.write(c.aggregate.to_compact().as_bytes());
    h.write_usize(c.rewritings.len());
    h.finish()
}

/// A cite to re-check against a from-scratch engine afterwards.
struct Cited {
    version: u64,
    query: String,
    digest: u64,
}

/// Sizes of the versioned workload.
fn sizes(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Full => (1_000, 48),
        Scale::Tiny => (40, 6),
    }
}

/// Timestamp of the `n`-th version.
fn timestamp(n: usize) -> u64 {
    n as u64 * 10
}

/// One round's measurements.
struct Round {
    commit: Duration,
    /// Commit start until the head citation returns.
    head: Duration,
    history: Duration,
    checks: [Cited; 2],
    /// Traced rounds only: derive, cite, stages, replay.
    trace: Option<RoundTrace>,
}

struct RoundTrace {
    derive: Duration,
    cite: Duration,
    stages: Vec<(&'static str, Duration)>,
    edit: Edit,
    query: String,
}

/// The running writer: engine, storage and seeded streams.
struct Writer {
    engine: VersionedCitationEngine,
    storage: Arc<dyn Storage>,
    churn: Churn,
    picks: SmallRng,
}

impl Writer {
    fn round(&mut self, traced: bool) -> Result<Round, String> {
        let edit = self.churn.next();
        let next = self.engine.history().len();
        let query = intro_query(&edit.family);
        let q = parse(&query)?;
        let t0 = Instant::now();
        let version = self
            .engine
            .commit_with(timestamp(next), format!("v{next}"), |db| apply(&edit, db))
            .map_err(|e| format!("commit: {e}"))?;
        let commit = t0.elapsed();
        let (citation, trace) = if traced {
            let (engine, derive) = timed_once(|| self.engine.engine_for_version(version));
            let engine = engine.map_err(|e| format!("derive: {e}"))?;
            let request = CiteRequest::query(q.clone()).with_stages(true);
            let (response, cite) = timed_once(|| engine.cite_request(&request));
            let response = response.map_err(|e| format!("head cite: {e}"))?;
            let trace = RoundTrace {
                derive,
                cite,
                stages: response.stages,
                edit: edit.clone(),
                query: query.clone(),
            };
            (response.citation, Some(trace))
        } else {
            let cited = self
                .engine
                .cite_head(&q)
                .map_err(|e| format!("head cite: {e}"))?;
            (cited.citation, None)
        };
        let head = t0.elapsed();
        let digest = citation_digest(&citation);

        let earlier = self.picks.gen_range(0..next) as u64;
        let family = self.churn.family();
        let past_query = intro_query(&family);
        let past = parse(&past_query)?;
        let t1 = Instant::now();
        let cited = self
            .engine
            .cite_at_version(earlier, &past)
            .map_err(|e| format!("history cite: {e}"))?;
        let history = t1.elapsed();
        Ok(Round {
            commit,
            head,
            history,
            checks: [
                Cited {
                    version,
                    query,
                    digest,
                },
                Cited {
                    version: earlier,
                    query: past_query,
                    digest: citation_digest(&cited.citation),
                },
            ],
            trace,
        })
    }
}

/// Build the base instance and a pre-committed history, persisted to
/// `dir` (not timed).
fn persist_history(
    dir: &Path,
    families: usize,
    commits: usize,
    seed: u64,
) -> Result<Database, String> {
    let db = instance(families);
    let mut history = VersionedDatabase::new();
    history
        .commit(db.clone(), timestamp(0), "v0")
        .map_err(|e| format!("base commit: {e}"))?;
    let mut churn = Churn::new(&db, seed ^ 0x4157);
    for n in 1..=commits {
        let edit = churn.next();
        history
            .commit_with(timestamp(n), format!("v{n}"), |d| apply(&edit, d))
            .map_err(|e| format!("history commit: {e}"))?;
    }
    let storage = DiskStorage::open(dir, StorageOptions::default())
        .map_err(|e| format!("open storage: {e}"))?;
    storage
        .sync(&history)
        .map_err(|e| format!("persist: {e}"))?;
    Ok(db)
}

/// Cold reopen of the persisted history, head engine build and a warm
/// pass of head citations.
fn set_up(dir: &Path, db: &Database, seed: u64) -> Result<(Writer, Duration), String> {
    let started = Instant::now();
    let storage: Arc<dyn Storage> = Arc::new(
        DiskStorage::open(dir, StorageOptions::default())
            .map_err(|e| format!("reopen storage: {e}"))?,
    );
    let engine = VersionedCitationEngine::from_storage(Arc::clone(&storage), paper_views())
        .map_err(|e| format!("cold reopen: {e}"))?;
    let mut churn = Churn::new(db, seed);
    for _ in 0..8 {
        let q = parse(&intro_query(&churn.family()))?;
        engine
            .cite_head(&q)
            .map_err(|e| format!("warm pass: {e}"))?;
    }
    let took = started.elapsed();
    Ok((
        Writer {
            engine,
            storage,
            churn: Churn::new(db, seed),
            picks: SmallRng::seed_from_u64(seed ^ 0x9e37),
        },
        took,
    ))
}

/// Re-cite a few rounds with engines built from scratch on the
/// snapshot; returns how many rounds disagree.
fn check(engine: &VersionedCitationEngine, rounds: &[Round]) -> Result<u64, String> {
    let stride = rounds.len().div_ceil(CHECKED_ROUNDS).max(1);
    let mut failed = 0;
    for round in rounds.iter().step_by(stride) {
        let mut ok = true;
        for cited in &round.checks {
            let (_, snapshot) = engine
                .history()
                .snapshot(cited.version)
                .map_err(|e| format!("snapshot: {e}"))?;
            let fresh = CitationEngine::new((**snapshot).clone(), paper_views())
                .map_err(|e| format!("reference engine: {e}"))?;
            let citation = fresh
                .cite(&parse(&cited.query)?)
                .map_err(|e| format!("reference cite: {e}"))?;
            ok &= citation_digest(&citation) == cited.digest;
        }
        if !ok {
            failed += 1;
        }
    }
    Ok(failed)
}

fn durations_ms(rounds: &[Round], f: impl Fn(&Round) -> Duration) -> Vec<f64> {
    sorted(rounds.iter().map(|r| ms(f(r))).collect())
}

/// Run the versioned workload.
pub fn run(options: &Options) -> Result<Outcome, String> {
    let (families, commits) = sizes(options.scale);
    let base = DataDir::new("versioned")?;
    let work = DataDir::new("epoch")?;
    let db = persist_history(&base.0, families, commits, options.seed)?;
    let mut stamp = base_stamp(options);
    stamp.extend([
        ("families", families.to_string()),
        ("instance", instance_sizes(&db)),
        ("persisted_versions", (commits + 1).to_string()),
        ("storage", "disk".to_string()),
        (
            "storage_options",
            format!("{:?}", StorageOptions::default()),
        ),
        ("writers", "1".to_string()),
        ("engine_capacity", "0 (unbounded, default)".to_string()),
    ]);
    let duration = Duration::from_secs_f64(options.seconds);
    let mut m = Collected::default();
    stamp.push(("epoch_commits", EPOCH.to_string()));

    if options.trace {
        let load_ms = {
            let storage = DiskStorage::open(&base.0, StorageOptions::default())
                .map_err(|e| format!("reopen storage: {e}"))?;
            let (history, took) = timed_once(|| storage.load_history());
            history.map_err(|e| format!("load history: {e}"))?;
            ms(took)
        };
        let run = measure(
            &base.0,
            &work.0,
            &db,
            options.seed,
            duration,
            Some(&mut m),
            None,
        )?;
        m.set("storage.load_history_ms", load_ms);
        let (metrics, extras, absent) = m.finish(PER_LAYER, LAYER_EXTRAS)?;
        return Ok(Outcome {
            workload: options.workload,
            attempted: (run.rounds.len() as u64).max(1),
            failed: run.failed,
            metrics,
            extras,
            absent,
            stamp,
        });
    }

    let mut setup_s = Vec::new();
    let run = measure(
        &base.0,
        &work.0,
        &db,
        options.seed,
        duration,
        None,
        Some(&mut setup_s),
    )?;
    // a short run tops the reopens up to the usual minimum
    while crate::more_set_ups(&setup_s) {
        restore(&base.0, &work.0)?;
        let (_, took) = set_up(&work.0, &db, options.seed)?;
        setup_s.push(took.as_secs_f64());
    }
    let rounds = &run.rounds;
    let in_order: Vec<f64> = rounds.iter().map(|r| ms(r.head)).collect();
    m.set("setup_s", crate::median(&setup_s));
    m.set(
        "throughput_rps",
        rounds.len() as f64 / run.measured.as_secs_f64(),
    );
    m.set("latency_p50_ms", sliced_quantile(&in_order, 0.5));
    let latencies = sorted(in_order);
    m.set("latency_p90_ms", quantile(&latencies, 0.9));
    m.set("latency_p99_ms", quantile(&latencies, 0.99));
    m.set(
        "commit_p50_ms",
        quantile(&durations_ms(rounds, |r| r.commit), 0.5),
    );
    m.set(
        "history_cite_p50_ms",
        quantile(&durations_ms(rounds, |r| r.history), 0.5),
    );
    m.set("failed_frac", ratio(run.failed as f64, rounds.len() as f64));
    m.set("peak_rss_mib", peak_rss_mib()?);
    let (metrics, extras, absent) = m.finish(END_TO_END, EXTRAS)?;
    stamp.push((
        "setup_s_samples",
        setup_s
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(","),
    ));
    stamp.push(("operations", rounds.len().to_string()));
    stamp.push(("epochs", run.epochs.to_string()));
    Ok(Outcome {
        workload: options.workload,
        attempted: (rounds.len() as u64).max(1),
        failed: if rounds.is_empty() { 1 } else { run.failed },
        metrics,
        extras,
        absent,
        stamp,
    })
}

/// The measured rounds of a run.
struct Measured {
    rounds: Vec<Round>,
    /// Time spent in rounds, epoch restarts excluded.
    measured: Duration,
    failed: u64,
    epochs: u64,
}

/// Run rounds for `duration` of round time, in epochs of at most
/// [`EPOCH`] commits. Each epoch starts from a fresh copy of the
/// persisted history (not round time), so memory and history
/// length stay bounded whatever the round rate. With `trace`, every
/// other round is traced and the first epoch's per-layer metrics go
/// into it. With `setups`, each epoch's cold reopen is timed into it,
/// followed by [`REOPENS_PER_EPOCH`] more once the epoch's writer is
/// gone (neither counts as round time).
#[allow(clippy::too_many_arguments)]
fn measure(
    base: &Path,
    work: &Path,
    db: &Database,
    seed: u64,
    duration: Duration,
    mut trace: Option<&mut Collected>,
    mut setups: Option<&mut Vec<f64>>,
) -> Result<Measured, String> {
    let mut run = Measured {
        rounds: Vec::new(),
        measured: Duration::ZERO,
        failed: 0,
        epochs: 0,
    };
    while run.measured < duration {
        restore(base, work)?;
        // each epoch draws its own churn and history picks
        let epoch_seed = seed ^ run.epochs.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let (mut writer, took) = set_up(work, db, epoch_seed)?;
        let mut rounds = Vec::new();
        let started = Instant::now();
        while rounds.len() < EPOCH && run.measured + started.elapsed() < duration {
            let traced = trace.is_some() && rounds.len() % 2 == 1;
            rounds.push(writer.round(traced)?);
        }
        run.measured += started.elapsed();
        run.failed += check(&writer.engine, &rounds)?;
        if let Some(m) = trace.take() {
            let (traced, untraced): (Vec<&Round>, Vec<&Round>) =
                rounds.iter().partition(|r| r.trace.is_some());
            trace_metrics(&writer, &untraced, &traced, m)?;
        }
        run.rounds.extend(rounds);
        run.epochs += 1;
        drop(writer);
        if let Some(setups) = setups.as_deref_mut() {
            setups.push(took.as_secs_f64());
            for _ in 0..REOPENS_PER_EPOCH {
                restore(base, work)?;
                let (_, took) = set_up(work, db, epoch_seed)?;
                setups.push(took.as_secs_f64());
            }
        }
    }
    Ok(run)
}

/// Replace `work` with a copy of the persisted history in `base`.
fn restore(base: &Path, work: &Path) -> Result<(), String> {
    fn copy(from: &Path, to: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(to)?;
        for entry in std::fs::read_dir(from)? {
            let entry = entry?;
            let target = to.join(entry.file_name());
            if entry.file_type()?.is_dir() {
                copy(&entry.path(), &target)?;
            } else {
                std::fs::copy(entry.path(), target)?;
            }
        }
        Ok(())
    }
    let _ = std::fs::remove_dir_all(work);
    copy(base, work).map_err(|e| format!("restore {}: {e}", work.display()))
}

/// Per-layer metrics of the traced rounds. The relation commit and the
/// storage sync, which `commit_with` runs back to back, are timed
/// apart by replaying the same edits on a shadow history persisted to
/// a second data directory.
fn trace_metrics(
    writer: &Writer,
    untraced: &[&Round],
    rounds: &[&Round],
    m: &mut Collected,
) -> Result<(), String> {
    let traces: Vec<&RoundTrace> = rounds.iter().filter_map(|r| r.trace.as_ref()).collect();
    let engine = &writer.engine;
    let head_db = engine
        .history()
        .head()
        .map(|(_, db)| Arc::clone(db))
        .ok_or("empty history")?;

    let shadow_dir = DataDir::new("shadow")?;
    let shadow_storage = DiskStorage::open(&shadow_dir.0, StorageOptions::default())
        .map_err(|e| format!("open shadow storage: {e}"))?;
    let mut shadow = VersionedDatabase::new();
    shadow
        .commit((*head_db).clone(), 0, "base")
        .map_err(|e| format!("shadow base: {e}"))?;
    shadow_storage
        .sync(&shadow)
        .map_err(|e| format!("shadow persist: {e}"))?;
    let wal0 = shadow_storage.stats().wal_bytes;
    let mut commit_ms = Vec::new();
    let mut sync_ms = Vec::new();
    for (n, t) in traces.iter().enumerate() {
        let (r, took) = timed_once(|| {
            shadow.commit_with(timestamp(n + 1), format!("s{n}"), |db| apply(&t.edit, db))
        });
        r.map_err(|e| format!("shadow commit: {e}"))?;
        commit_ms.push(ms(took));
        let (r, took) = timed_once(|| shadow_storage.sync(&shadow));
        r.map_err(|e| format!("shadow sync: {e}"))?;
        sync_ms.push(ms(took));
    }
    let wal_bytes = shadow_storage.stats().wal_bytes.saturating_sub(wal0);

    let head = engine
        .head_engine()
        .map_err(|e| format!("head engine: {e}"))?;
    let view_defs = ViewDefs::new(head.registry().iter().map(|v| v.view.clone()))
        .with_dependencies(fgc_query::Dependencies::from_catalog(
            head.database().catalog(),
        ));
    let mut replays: Vec<Replay> = Vec::new();
    for t in &traces {
        replays.push(replay(
            &head,
            &view_defs,
            None,
            &t.query,
            &body_of(&t.query, false),
        )?);
    }
    let stage = |name: &str| {
        mean(
            &traces
                .iter()
                .map(|t| {
                    t.stages
                        .iter()
                        .filter(|(n, _)| *n == name)
                        .map(|(_, d)| ms(*d))
                        .sum::<f64>()
                })
                .collect::<Vec<_>>(),
        )
    };
    let per_replay = |f: &dyn Fn(&Replay) -> f64| mean(&replays.iter().map(f).collect::<Vec<_>>());
    let round_ms = |rs: &[&Round]| mean(&rs.iter().map(|r| ms(r.head)).collect::<Vec<_>>());

    m.set("query.eval_ms", per_replay(&|r| r.eval_ms));
    m.set("query.compile_us", per_replay(&|r| r.compile_us));
    m.set("core.extent_ms", stage("extent"));
    m.set("core.plan_ms", stage("plan"));
    m.set("core.render_ms", stage("render"));
    m.set(
        "core.cite_ms",
        mean(&traces.iter().map(|t| ms(t.cite)).collect::<Vec<_>>()),
    );
    let plans = head.plan_stats();
    let tokens = head.cache_stats();
    m.set("core.plan_hit_rate", plans.hit_rate());
    m.set("core.token_hit_rate", tokens.hit_rate());
    m.set(
        "core.token_miss_ms",
        head.cache_compute_latency().mean() as f64 / 1e6,
    );
    m.set("views.agg_ms", per_replay(&|r| r.agg_ms));
    m.set("views.distinct_citations", per_replay(&|r| r.distinct));
    m.set("rewrite.search_ms", per_replay(&|r| r.search_ms));
    m.set("rewrite.count", per_replay(&|r| r.rewritings));
    m.set("relation.commit_ms", mean(&commit_ms));
    m.set("storage.sync_ms", mean(&sync_ms));
    m.set(
        "storage.wal_bytes_per_commit",
        ratio(wal_bytes as f64, traces.len() as f64),
    );
    m.set(
        "fixity.derive_ms",
        mean(&traces.iter().map(|t| ms(t.derive)).collect::<Vec<_>>()),
    );
    let versions = engine.version_stats();
    m.set("fixity.derived", versions.derived as f64);
    m.set("fixity.rebuilt", versions.rebuilt as f64);
    m.set("fixity.shared", versions.shared as f64);
    m.set("fixity.evictions", versions.engine_evictions as f64);
    m.set(
        "fixity.resident_kib_per_version",
        ratio(
            engine.memory_stats().resident_bytes as f64 / 1024.0,
            engine.history().len() as f64,
        ),
    );
    // round time the layers do not account for
    let accounted: f64 = traces
        .iter()
        .zip(&commit_ms)
        .zip(&sync_ms)
        .map(|((t, c), s)| c + s + ms(t.derive) + ms(t.cite))
        .sum();
    let measured: f64 = rounds.iter().map(|r| ms(r.head)).sum();
    m.set("trace.unaccounted_frac", 1.0 - ratio(accounted, measured));
    m.set(
        "trace.overhead_frac",
        ratio(round_ms(rounds), round_ms(untraced)) - 1.0,
    );
    m.set(
        "storage.cache_hit_rate",
        writer.storage.stats().cache_hit_rate(),
    );
    Ok(())
}
