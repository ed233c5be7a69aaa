//! # fgc-bench — the experiment harness (E1–E16)
//!
//! The paper ("A Model for Fine-Grained Data Citation", CIDR 2017)
//! publishes no quantitative evaluation; this crate turns each of its
//! qualitative claims into a measured experiment (see DESIGN.md §4.2
//! and EXPERIMENTS.md). Two entry points:
//!
//! * `cargo bench -p fgc-bench` — Criterion micro/meso benchmarks,
//!   one target per experiment;
//! * `cargo run -p fgc-bench --release` — prints the experiment
//!   tables (rows/series) that EXPERIMENTS.md records.
//!
//! E10 (the `e10_serving` bench and [`load::e10_table`]) drives the
//! `fgc-server` HTTP front-end end to end with the [`load`] module's
//! closed/open-loop generator — crud-bench style: closed loop for
//! peak throughput, open loop (latency charged from *scheduled*
//! departure) for coordinated-omission-free tail latency. E11
//! ([`load::e11_table`]) sweeps the same serving workload over shard
//! counts of the partitioned relation store. E12 ([`e12_table`])
//! diffs the compiled slot-frame evaluator against the retained seed
//! interpreter and the engine plan cache cold vs warm. E13
//! ([`e13_table`]) walks a K-commit history comparing delta-derived
//! version engines against rebuild-per-version. E15 ([`e15_table`])
//! prices the observability layer itself: histogram records, stage
//! spans, and the warm cite with stage timing on vs off. E16
//! ([`load::e16_table`] and the `e16_storage` bench) compares the
//! storage backends crud-bench style: mem's full-load-path cold start
//! vs disk's manifest open, then the E10 serving workload on each.
//! E18 ([`e18_table`] and the `e18_agg` bench) times the union Agg
//! fold over k distinct citations, n-ary vs pairwise.

use fgc_core::{
    baseline_coverage, CitationEngine, EngineOptions, OrderChoice, PageCitationStore, Policy,
    RewriteMode, VersionedCitationEngine,
};
use fgc_gtopdb::{generate, paper_instance, paper_views, GeneratorConfig, WorkloadGenerator};
use fgc_query::{evaluate, evaluate_annotated, parse_query, ConjunctiveQuery};
use fgc_relation::{Database, VersionedDatabase};
use fgc_rewrite::{best_rewritings, enumerate_rewritings, RewriteOptions, ViewDefs};
use fgc_semiring::{Natural, Polynomial, Why};
use fgc_views::ViewRegistry;
use std::fmt::Write as _;
use std::time::Instant;

pub mod load;

pub use load::{
    cite_bodies, e10_table, e11_table, e14_table, e16_table, run_load, start_dist_cluster,
    LoadConfig, LoadMode, LoadReport,
};

/// A printable experiment table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment id + claim.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let line = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let _ = writeln!(
            out,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// The table as a JSON document (`{title, headers, rows}`) — the
    /// machine-readable artifact the harness persists as
    /// `BENCH_<id>.json` next to the printable rendering.
    pub fn to_json(&self) -> fgc_views::Json {
        use fgc_views::Json;
        let row_json = |row: &Vec<String>| {
            Json::Array(row.iter().map(|cell| Json::str(cell.as_str())).collect())
        };
        Json::from_pairs([
            ("title", Json::str(self.title.as_str())),
            (
                "headers",
                Json::Array(self.headers.iter().map(|h| Json::str(h.as_str())).collect()),
            ),
            (
                "rows",
                Json::Array(self.rows.iter().map(row_json).collect()),
            ),
        ])
    }
}

fn ms(d: std::time::Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

/// The Example 2.3 query used across experiments.
pub fn example_query() -> ConjunctiveQuery {
    parse_query("Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = \"gpcr\"")
        .expect("static query")
}

/// Paper views as rewriting definitions.
pub fn paper_view_defs() -> ViewDefs {
    ViewDefs::new(paper_views().iter().map(|v| v.view.clone()))
}

/// A view set of size `n`: the paper's five views plus `n - 5`
/// derived selection/projection views (renamed copies over the same
/// relations, the realistic "many similar landing pages" case that
/// blows up enumeration).
pub fn view_defs_of_size(n: usize) -> ViewDefs {
    let mut defs: Vec<ConjunctiveQuery> = paper_views().iter().map(|v| v.view.clone()).collect();
    let mut i = 0usize;
    while defs.len() < n {
        let q = match i % 4 {
            0 => format!("lambda F. W{i}(F, N, Ty) :- Family(F, N, Ty)"),
            1 => format!("lambda Ty. W{i}(F, N, Ty) :- Family(F, N, Ty)"),
            2 => format!("lambda F. W{i}(F, Tx) :- FamilyIntro(F, Tx)"),
            _ => format!("lambda Ty. W{i}(F, N, Ty, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx)"),
        };
        defs.push(parse_query(&q).expect("static template"));
        i += 1;
    }
    defs.truncate(n);
    ViewDefs::new(defs)
}

/// Engine over a generated instance of `families` families.
pub fn engine_at_scale(families: usize, mode: RewriteMode, policy: Policy) -> CitationEngine {
    let db = generate(&GeneratorConfig::default().with_families(families));
    CitationEngine::new(db, paper_views())
        .expect("views validate")
        .with_policy(policy)
        .with_options(EngineOptions {
            mode,
            ..EngineOptions::default()
        })
}

/// Generated database at scale (shared by several experiments).
pub fn db_at_scale(families: usize) -> Database {
    generate(&GeneratorConfig::default().with_families(families))
}

/// [`engine_at_scale`] (pruned mode, default policy) with the base
/// store partitioned across `shards` shards under the GtoPdb key
/// spec — the engine the E11 sharding experiment serves.
pub fn sharded_engine_at_scale(families: usize, shards: usize) -> CitationEngine {
    engine_at_scale(families, RewriteMode::Pruned, Policy::default())
        .with_shards(shards, fgc_gtopdb::paper_shard_spec())
        .expect("GtoPdb shard spec resolves")
}

// =====================================================================
// E1 — rewriting enumeration: exhaustive vs pruned
// =====================================================================

/// E1 table: #views vs combinations tried and wall time, exhaustive
/// vs pruned. Claim: exhaustive enumeration is impractical (§3.2/§4);
/// the preference-pruned search stays flat when a small cover exists.
pub fn e1_table(view_counts: &[usize]) -> Table {
    let q = example_query();
    let mut rows = Vec::new();
    for &n in view_counts {
        let defs = view_defs_of_size(n);
        let t0 = Instant::now();
        let exhaustive = enumerate_rewritings(&q, &defs, RewriteOptions::default())
            .expect("enumeration succeeds");
        let t_ex = t0.elapsed();
        let t0 = Instant::now();
        let pruned =
            best_rewritings(&q, &defs, RewriteOptions::default()).expect("pruned search succeeds");
        let t_pr = t0.elapsed();
        rows.push(vec![
            n.to_string(),
            exhaustive.rewritings.len().to_string(),
            exhaustive.combinations_tried.to_string(),
            ms(t_ex),
            pruned.combinations_tried.to_string(),
            ms(t_pr),
            exhaustive.exhaustive.to_string(),
        ]);
    }
    Table {
        title: "E1 — rewriting enumeration vs pruned preference search (query: Ex 2.3)".into(),
        headers: vec![
            "views".into(),
            "rewritings".into(),
            "combos(exh)".into(),
            "ms(exh)".into(),
            "combos(pruned)".into(),
            "ms(pruned)".into(),
            "exhaustive".into(),
        ],
        rows,
    }
}

// =====================================================================
// E2 — citation latency vs database scale
// =====================================================================

/// E2 table: end-to-end `cite` latency per query class at increasing
/// scale. Claim: citations for general queries can be generated
/// automatically at interactive cost.
pub fn e2_table(scales: &[usize]) -> Table {
    let mut rows = Vec::new();
    for &families in scales {
        let engine = engine_at_scale(families, RewriteMode::Pruned, Policy::default());
        let mut workload = WorkloadGenerator::new(engine.database(), 11);
        for class in 0..3usize {
            let q = workload.query_from_template(class);
            // warm the extent cache so we measure steady-state cites
            let _ = engine.cite(&q).expect("cite succeeds");
            let q2 = workload.query_from_template(class);
            let t0 = Instant::now();
            let cited = engine.cite(&q2).expect("cite succeeds");
            let dt = t0.elapsed();
            rows.push(vec![
                families.to_string(),
                format!("T{class}"),
                cited.tuples.len().to_string(),
                ms(dt),
            ]);
        }
    }
    Table {
        title: "E2 — cite() latency vs database scale (pruned mode, warm extents)".into(),
        headers: vec![
            "families".into(),
            "query".into(),
            "tuples".into(),
            "ms".into(),
        ],
        rows,
    }
}

// =====================================================================
// E3 — orders make citations concise
// =====================================================================

/// E3 table: symbolic and JSON citation size under each §3.4 order.
pub fn e3_table() -> Table {
    let q = example_query();
    let mut rows = Vec::new();
    for (name, order) in [
        ("none", OrderChoice::None),
        ("fewest-views", OrderChoice::FewestViews),
        ("fewest-uncovered", OrderChoice::FewestUncovered),
        ("view-inclusion", OrderChoice::ViewInclusion),
        ("composite", OrderChoice::Composite),
    ] {
        let engine = CitationEngine::new(paper_instance(), paper_views())
            .expect("views validate")
            .with_policy(Policy::union_all().with_order(order))
            .with_options(EngineOptions {
                mode: RewriteMode::Exhaustive,
                ..EngineOptions::default()
            });
        let t0 = Instant::now();
        let cited = engine.cite(&q).expect("cite succeeds");
        let dt = t0.elapsed();
        rows.push(vec![
            name.to_string(),
            cited.rewritings.len().to_string(),
            cited.total_monomials().to_string(),
            cited.total_json_bytes().to_string(),
            ms(dt),
        ]);
    }
    Table {
        title: "E3 — citation size under the §3.4 orders (exhaustive +R, query: Ex 2.3)".into(),
        headers: vec![
            "order".into(),
            "rewritings".into(),
            "monomials".into(),
            "json-bytes".into(),
            "ms".into(),
        ],
        rows,
    }
}

// =====================================================================
// E4 — interpretations of the combining functions
// =====================================================================

/// E4 table: policy (union/join/default) vs citation size and time.
pub fn e4_table(families: usize) -> Table {
    let mut rows = Vec::new();
    for (name, policy) in [
        ("union-all", Policy::union_all()),
        ("join-all", Policy::join_all()),
        ("default", Policy::default()),
    ] {
        let engine = engine_at_scale(families, RewriteMode::Exhaustive, policy);
        let mut workload = WorkloadGenerator::new(engine.database(), 13);
        let q = workload.query_from_template(1);
        let _ = engine.cite(&q).expect("warmup");
        let t0 = Instant::now();
        let cited = engine.cite(&q).expect("cite succeeds");
        let dt = t0.elapsed();
        rows.push(vec![
            name.to_string(),
            cited.tuples.len().to_string(),
            cited.total_json_bytes().to_string(),
            ms(dt),
        ]);
    }
    Table {
        title: format!(
            "E4 — interpretations of +, ·, +R, Agg ({families} families, T1, exhaustive +R)"
        ),
        headers: vec![
            "policy".into(),
            "tuples".into(),
            "json-bytes".into(),
            "ms".into(),
        ],
        rows,
    }
}

// =====================================================================
// E5 — hard-coded pages vs the engine
// =====================================================================

/// E5 table: coverage and latency, baseline vs engine, on page-only
/// and mixed workloads.
pub fn e5_table(families: usize) -> Table {
    let db = db_at_scale(families);
    let views = paper_views();
    let t0 = Instant::now();
    let store = PageCitationStore::materialize(&db, &views).expect("materialize");
    let t_mat = t0.elapsed();
    let mut workload = WorkloadGenerator::new(&db, 17);
    let pages_only = workload.mixed(100, 0);
    let mixed = workload.mixed(50, 50);

    let engine = CitationEngine::new(db, views).expect("views validate");

    // baseline lookup latency (averaged over the page workload)
    let t0 = Instant::now();
    let mut hits = 0usize;
    for item in &pages_only {
        if let fgc_core::WorkloadItem::Page((v, p)) = item {
            if store.cite_page(v, p).is_some() {
                hits += 1;
            }
        }
    }
    let t_lookup = t0.elapsed() / pages_only.len() as u32;

    // engine ad-hoc latency (averaged over 10 queries, warm)
    let queries = WorkloadGenerator::new(engine.database(), 19).ad_hoc_batch(10);
    let _ = engine.cite(&queries[0]).expect("warmup");
    let t0 = Instant::now();
    for q in &queries {
        let _ = engine.cite(q).expect("cite succeeds");
    }
    let t_engine = t0.elapsed() / queries.len() as u32;

    let rows = vec![
        vec![
            "baseline".into(),
            format!("{:.2}", baseline_coverage(&store, &pages_only)),
            format!("{:.2}", baseline_coverage(&store, &mixed)),
            ms(t_lookup),
            format!("materialize {} pages in {}ms", store.len(), ms(t_mat)),
        ],
        vec![
            "engine".into(),
            format!("{:.2}", 1.0),
            format!("{:.2}", 1.0),
            ms(t_engine),
            format!("page hits also answerable: {hits}"),
        ],
    ];
    Table {
        title: format!("E5 — hard-coded page citations vs the engine ({families} families)"),
        headers: vec![
            "system".into(),
            "coverage(pages)".into(),
            "coverage(mixed)".into(),
            "ms/query".into(),
            "notes".into(),
        ],
        rows,
    }
}

// =====================================================================
// E6 — annotated evaluation overhead
// =====================================================================

/// E6 table: plain vs semiring-annotated evaluation. Claim (§4):
/// tuple-level citation annotations require query-processing changes;
/// this is their runtime price.
pub fn e6_table(families: usize) -> Table {
    let db = db_at_scale(families);
    let mut workload = WorkloadGenerator::new(&db, 23);
    let q = workload.query_from_template(1);
    let reps = 5u32;

    let t0 = Instant::now();
    for _ in 0..reps {
        let _ = evaluate(&db, &q).expect("evaluate");
    }
    let t_plain = t0.elapsed() / reps;

    let t0 = Instant::now();
    for _ in 0..reps {
        let _: Vec<(fgc_relation::Tuple, Natural)> =
            evaluate_annotated(&db, &q, |_, _| Natural(1)).expect("annotated");
    }
    let t_nat = t0.elapsed() / reps;

    let t0 = Instant::now();
    for _ in 0..reps {
        let _: Vec<(fgc_relation::Tuple, Why<String>)> =
            evaluate_annotated(&db, &q, |rel, row| Why::token(format!("{rel}:{row}")))
                .expect("annotated");
    }
    let t_why = t0.elapsed() / reps;

    let t0 = Instant::now();
    for _ in 0..reps {
        let _: Vec<(fgc_relation::Tuple, Polynomial<String>)> =
            evaluate_annotated(&db, &q, |rel, row| {
                Polynomial::token(format!("{rel}:{row}"))
            })
            .expect("annotated");
    }
    let t_poly = t0.elapsed() / reps;

    let rel = |t: std::time::Duration| {
        format!("{:.2}x", t.as_secs_f64() / t_plain.as_secs_f64().max(1e-12))
    };
    let rows = vec![
        vec!["plain".into(), ms(t_plain), "1.00x".into()],
        vec!["Natural (counting)".into(), ms(t_nat), rel(t_nat)],
        vec!["Why (witnesses)".into(), ms(t_why), rel(t_why)],
        vec!["N[X] polynomials".into(), ms(t_poly), rel(t_poly)],
    ];
    Table {
        title: format!("E6 — semiring-annotated evaluation overhead ({families} families, T1)"),
        headers: vec!["evaluation".into(), "ms".into(), "vs plain".into()],
        rows,
    }
}

// =====================================================================
// E7 — citation caching
// =====================================================================

/// E7 table: cold vs warm citation latency and hit rates.
pub fn e7_table(families: usize) -> Table {
    let engine = engine_at_scale(families, RewriteMode::Pruned, Policy::default());
    let mut workload = WorkloadGenerator::new(engine.database(), 29);
    let queries = workload.ad_hoc_batch(20);

    // cold pass: caches dropped before every query
    let t0 = Instant::now();
    for q in &queries {
        engine.clear_caches();
        let _ = engine.cite(q).expect("cite succeeds");
    }
    let cold = t0.elapsed() / queries.len() as u32;
    let stats_cold = engine.cache_stats();

    // warm pass: caches kept across (repeated) queries
    let _ = engine.cite(&queries[0]).expect("prime extents");
    let before_warm = engine.cache_stats();
    let t0 = Instant::now();
    for q in &queries {
        let _ = engine.cite(q).expect("cite succeeds");
    }
    let warm = t0.elapsed() / queries.len() as u32;
    let stats_warm = engine.cache_stats();
    let warm_hits = stats_warm.hits - before_warm.hits;
    let warm_misses = stats_warm.misses - before_warm.misses;
    let warm_rate = if warm_hits + warm_misses == 0 {
        1.0
    } else {
        warm_hits as f64 / (warm_hits + warm_misses) as f64
    };

    let rows = vec![
        vec![
            "cold".into(),
            ms(cold),
            format!("{:.2}", stats_cold.hit_rate()),
            stats_cold.entries.to_string(),
        ],
        vec![
            "warm".into(),
            ms(warm),
            format!("{warm_rate:.2}"),
            stats_warm.entries.to_string(),
        ],
    ];
    Table {
        title: format!(
            "E7 — citation + extent caches, cold vs warm ({families} families, 20 queries)"
        ),
        headers: vec![
            "pass".into(),
            "ms/query".into(),
            "hit rate".into(),
            "entries".into(),
        ],
        rows,
    }
}

// =====================================================================
// E8 — fixity
// =====================================================================

/// E8 table: version-chain cost and historical citation latency.
pub fn e8_table(version_counts: &[usize]) -> Table {
    let mut rows = Vec::new();
    for &versions in version_counts {
        let t0 = Instant::now();
        let mut history = VersionedDatabase::new();
        history
            .commit(paper_instance(), 0, "v0")
            .expect("first commit");
        for i in 1..versions {
            history
                .commit_with(i as u64 * 10, format!("v{i}"), |db| {
                    db.insert(
                        "Family",
                        fgc_relation::tuple![format!("g{i}"), format!("Generated-{i}"), "gpcr"],
                    )
                    .map(|_| ())
                })
                .expect("commit");
        }
        let t_build = t0.elapsed();

        let engine = VersionedCitationEngine::new(history, paper_views());
        let q = parse_query("Q(N) :- Family(F, N, Ty), Ty = \"gpcr\"").expect("static");
        // first historical citation (engine construction + cite)
        let t0 = Instant::now();
        let old = engine.cite_at_time(5, &q).expect("historical citation");
        let t_first = t0.elapsed();
        // repeat citation against the same snapshot (warm engine)
        let t0 = Instant::now();
        let _ = engine.cite_at_time(5, &q).expect("historical citation");
        let t_warm = t0.elapsed();
        rows.push(vec![
            versions.to_string(),
            ms(t_build),
            old.label.clone(),
            ms(t_first),
            ms(t_warm),
        ]);
    }
    Table {
        title: "E8 — fixity: version chains and historical citations".into(),
        headers: vec![
            "versions".into(),
            "build ms".into(),
            "resolved".into(),
            "first cite ms".into(),
            "warm cite ms".into(),
        ],
        rows,
    }
}

// =====================================================================
// E12 — compiled query plans and the engine plan cache
// =====================================================================

/// E12 table: interpreted vs compiled evaluation on the E2 workload
/// (every scale, every query class), plus `cite` latency with the
/// engine plan cache cold (cleared before every call) vs warm —
/// per-query on the E2 workload and batched (32 ad-hoc requests, 8
/// threads, `batch_families` families) on the E9 workload, where the
/// per-request planning cost is a visible fraction of serving time.
/// Claim (ISSUE 4 / ROADMAP "fast as the hardware allows"):
/// slot-frame execution beats the `HashMap`-binding interpreter, and
/// plan reuse removes parse-order-validate from the warm serving
/// path.
#[allow(deprecated)] // the interpreter is the E12 baseline
pub fn e12_table(scales: &[usize], batch_families: usize) -> Table {
    use fgc_query::{evaluate_interpreted, evaluate_plan_with, EvalOptions, QueryPlan};
    let mut rows = Vec::new();
    let reps = 5u32;
    for &families in scales {
        let db = db_at_scale(families);
        let mut workload = WorkloadGenerator::new(&db, 11); // E2's seed
                                                            // E2's three classes plus T4, the keyed single-family lookup
                                                            // (the landing-page serving pattern, where planning is a
                                                            // visible fraction of the cite); cheap queries get more reps
                                                            // so the margin is measured, not guessed
        for class in [0usize, 1, 2, 4] {
            let q = workload.query_from_template(class);
            // keyed lookups run in microseconds: give them enough
            // iterations that the timer resolves the comparison
            let eval_reps = if class == 4 { 2_000 } else { reps };
            let reps = if class == 4 { 50 } else { reps };

            let t0 = Instant::now();
            for _ in 0..eval_reps {
                let _ = evaluate_interpreted(&db, &q).expect("interpreted");
            }
            let t_interp = t0.elapsed() / eval_reps;

            // compile once, execute repeatedly — the plan-cache cost
            // model of a warm serving engine
            let plan = QueryPlan::compile(&q, &db).expect("plan compiles");
            let t0 = Instant::now();
            for _ in 0..eval_reps {
                let _ = evaluate_plan_with(&db, &plan, EvalOptions::default()).expect("compiled");
            }
            let t_compiled = t0.elapsed() / eval_reps;

            // end-to-end cite: plan cache cleared before the call
            // (cold) vs left warm; token/extent caches stay warm in
            // both so the delta isolates planning. The two passes
            // are *interleaved* — warm cite on cached plans, clear,
            // cold cite recompiles (and refills for the next round)
            // — so clock drift hits both sides equally.
            let engine = engine_at_scale(families, RewriteMode::Pruned, Policy::default());
            let _ = engine.cite(&q).expect("warmup");
            let mut warm_total = std::time::Duration::ZERO;
            let mut cold_total = std::time::Duration::ZERO;
            for _ in 0..reps {
                let t0 = Instant::now();
                let _ = engine.cite(&q).expect("cite succeeds");
                warm_total += t0.elapsed();
                engine.clear_plan_cache();
                let t0 = Instant::now();
                let _ = engine.cite(&q).expect("cite succeeds");
                cold_total += t0.elapsed();
            }
            let t_warm = warm_total / reps;
            let t_cold = cold_total / reps;
            let plans = engine.plan_stats();

            rows.push(vec![
                families.to_string(),
                format!("T{class}"),
                ms(t_interp),
                ms(t_compiled),
                format!(
                    "{:.2}x",
                    t_interp.as_secs_f64() / t_compiled.as_secs_f64().max(1e-12)
                ),
                ms(t_cold),
                ms(t_warm),
                format!("{}/{}", plans.hits, plans.misses),
            ]);
        }
    }

    // E9 workload: one shared engine, 32 ad-hoc keyed requests,
    // batch fan-out sized to the hardware (oversubscribing a small
    // box would only measure scheduler noise). Every request carries
    // its own answer + extent queries, so a cold batch re-plans
    // hundreds of queries — the regime the plan cache exists for.
    {
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let engine = engine_at_scale(batch_families, RewriteMode::Pruned, Policy::default());
        let mut workload = WorkloadGenerator::new(engine.database(), 47); // E9's seed
        let requests: Vec<fgc_core::CiteRequest> = workload
            .ad_hoc_batch(32)
            .into_iter()
            .map(fgc_core::CiteRequest::query)
            .collect();
        let _ = engine.cite_batch_threads(&requests, threads); // warm everything
        let mut warm_total = std::time::Duration::ZERO;
        let mut cold_total = std::time::Duration::ZERO;
        for _ in 0..reps {
            let t0 = Instant::now();
            let _ = engine.cite_batch_threads(&requests, threads);
            warm_total += t0.elapsed();
            engine.clear_plan_cache();
            let t0 = Instant::now();
            let _ = engine.cite_batch_threads(&requests, threads);
            cold_total += t0.elapsed();
        }
        let plans = engine.plan_stats();
        rows.push(vec![
            batch_families.to_string(),
            "E9 batch32".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            ms(cold_total / reps),
            ms(warm_total / reps),
            format!("{}/{}", plans.hits, plans.misses),
        ]);
    }

    Table {
        title:
            "E12 — compiled plans vs interpreter, and plan-cache cold vs warm (E2 + E9 workloads)"
                .into(),
        headers: vec![
            "families".into(),
            "query".into(),
            "interp ms".into(),
            "compiled ms".into(),
            "speedup".into(),
            "cite cold-plan ms".into(),
            "cite warm-plan ms".into(),
            "plan hits/misses".into(),
        ],
        rows,
    }
}

// =====================================================================
// E13 — incremental snapshot maintenance under commits
// =====================================================================

/// A K-commit history of small deltas over a generated GtoPdb
/// instance — the curated-database commit shape E13 measures:
/// contributor churn on `FIC` (one intro-contributor row added, one
/// removed per commit). `FIC` feeds only V2 and V5, so a derived
/// engine recomputes two view extents and keeps V1/V3/V4's extents,
/// tokens, and plans — the selective-invalidation case the
/// incremental path is built for.
pub fn commit_history(families: usize, commits: usize) -> VersionedDatabase {
    let mut history = VersionedDatabase::new();
    history
        .commit(db_at_scale(families), 0, "v0")
        .expect("first commit");
    for i in 1..=commits {
        history
            .commit_with(i as u64 * 10, format!("v{i}"), |db| {
                let fid = format!("f{}", (i * 13) % families.max(1));
                let pid = format!("p{}", (i * 7) % (families / 2).max(10));
                db.insert("FIC", fgc_relation::tuple![fid, pid])
                    .map(|_| ())?;
                let doomed = db.relation("FIC")?.rows().first().cloned();
                if let Some(t) = doomed {
                    db.remove("FIC", &t)?;
                }
                Ok(())
            })
            .expect("commit");
    }
    history
}

/// First-touch cite at every version of the history, oldest first —
/// with a warm ascending walk each non-root version can derive its
/// engine from its neighbor instead of rebuilding.
pub fn walk_history(engine: &VersionedCitationEngine, q: &ConjunctiveQuery) -> std::time::Duration {
    let versions = engine.history().len() as u64;
    let t0 = Instant::now();
    for v in 0..versions {
        let _ = engine.cite_at_version(v, q).expect("historical citation");
    }
    t0.elapsed()
}

/// E13 table: cite latency across a K-commit history — incremental
/// (delta-derived engines) vs rebuild-per-version, same citations.
pub fn e13_table(families: usize, commit_counts: &[usize]) -> Table {
    let q = parse_query("Q(N) :- Family(F, N, Ty), Ty = \"gpcr\"").expect("static");
    let mut rows = Vec::new();
    for &commits in commit_counts {
        let history = commit_history(families, commits);
        let incremental = VersionedCitationEngine::new(history.clone(), paper_views());
        let rebuild = VersionedCitationEngine::new(history, paper_views()).with_derive_threshold(0);
        let t_incremental = walk_history(&incremental, &q);
        let t_rebuild = walk_history(&rebuild, &q);
        let t0 = Instant::now();
        let _ = incremental
            .cite_at_version(commits as u64, &q)
            .expect("warm");
        let t_warm = t0.elapsed();
        let stats = incremental.version_stats();
        // Resident footprint of the whole incremental deployment —
        // every version warm — deduplicated by Arc identity. The
        // structural-sharing claim is that this grows with what the
        // commits touched (here: FIC copies), not versions × |DB|.
        let memory = incremental.memory_stats();
        rows.push(vec![
            families.to_string(),
            commits.to_string(),
            ms(t_incremental),
            ms(t_rebuild),
            format!(
                "{:.2}x",
                t_rebuild.as_secs_f64() / t_incremental.as_secs_f64().max(1e-9)
            ),
            format!("{}/{}/{}", stats.derived, stats.shared, stats.rebuilt),
            ms(t_warm),
            (memory.resident_bytes / 1024).to_string(),
            memory.shared_relations.to_string(),
        ]);
    }
    Table {
        title: "E13 — incremental snapshot maintenance: derived vs rebuilt engines \
                across a commit history"
            .into(),
        headers: vec![
            "families".into(),
            "commits".into(),
            "incremental walk ms".into(),
            "rebuild walk ms".into(),
            "speedup".into(),
            "derived/shared/rebuilt".into(),
            "warm cite ms".into(),
            "resident_kib".into(),
            "shared_relations".into(),
        ],
        rows,
    }
}

// =====================================================================
// E15 — observability overhead
// =====================================================================

/// E15 table: the price of the observability layer itself. Claim
/// (ROADMAP "observability"): a wait-free log-bucketed histogram
/// record is tens of nanoseconds, a stage span adds one record plus
/// two clock reads, and leaving stage timing on moves warm cite
/// latency by noise — so the instrumentation stays on in production.
pub fn e15_table(families: usize) -> Table {
    use fgc_obs::{set_stages_enabled, Histogram, StageSet, Trace, CITE_STAGES};
    use std::hint::black_box;

    let ns = |d: std::time::Duration| format!("{:.1}", d.as_secs_f64() * 1e9);
    let reps: u64 = 1_000_000;

    // raw histogram record over spread-out values
    let hist = Histogram::new();
    let t0 = Instant::now();
    for i in 0..reps {
        hist.record(black_box(i));
    }
    let t_record = t0.elapsed() / reps as u32;

    // quantile read: snapshot + p99 bucket walk
    let q_reps: u32 = 100_000;
    let t0 = Instant::now();
    for _ in 0..q_reps {
        black_box(hist.snapshot().quantile(0.99));
    }
    let t_quantile = t0.elapsed() / q_reps;

    // stage span: a closure through `StageSet::time` vs called bare
    let stages = StageSet::new(CITE_STAGES);
    let t0 = Instant::now();
    for i in 0..reps {
        black_box(stages.time("evaluate", || black_box(i)));
    }
    let t_span = t0.elapsed() / reps as u32;
    let t0 = Instant::now();
    for i in 0..reps {
        black_box(black_box(i));
    }
    let t_bare = t0.elapsed() / reps as u32;

    // the same span with an active trace collecting per-request notes
    let trace = Trace::start("e15");
    let t0 = Instant::now();
    for i in 0..reps {
        black_box(stages.time("evaluate", || black_box(i)));
    }
    let t_traced = t0.elapsed() / reps as u32;
    let _ = trace.finish();

    // warm cite with stage timing on vs off, interleaved so clock
    // drift hits both sides equally
    let engine = engine_at_scale(families, RewriteMode::Pruned, Policy::default());
    let mut workload = WorkloadGenerator::new(engine.database(), 83);
    let q = workload.query_from_template(1);
    let _ = engine.cite(&q).expect("warmup");
    let cite_reps = 30u32;
    let mut on_total = std::time::Duration::ZERO;
    let mut off_total = std::time::Duration::ZERO;
    for _ in 0..cite_reps {
        set_stages_enabled(true);
        let t0 = Instant::now();
        let _ = engine.cite(&q).expect("cite succeeds");
        on_total += t0.elapsed();
        set_stages_enabled(false);
        let t0 = Instant::now();
        let _ = engine.cite(&q).expect("cite succeeds");
        off_total += t0.elapsed();
    }
    set_stages_enabled(true); // the process-wide default
    let t_on = on_total / cite_reps;
    let t_off = off_total / cite_reps;

    let rows = vec![
        vec![
            "histogram record".into(),
            format!("{} ns", ns(t_record)),
            "wait-free: three relaxed atomics".into(),
        ],
        vec![
            "snapshot + p99 quantile".into(),
            format!("{} ns", ns(t_quantile)),
            "64-bucket walk per read".into(),
        ],
        vec![
            "stage span (no trace)".into(),
            format!("{} ns", ns(t_span)),
            format!("bare closure {} ns", ns(t_bare)),
        ],
        vec![
            "stage span (traced)".into(),
            format!("{} ns", ns(t_traced)),
            "adds the thread-local note".into(),
        ],
        vec![
            "warm cite, stages on".into(),
            format!("{} ms", ms(t_on)),
            String::new(),
        ],
        vec![
            "warm cite, stages off".into(),
            format!("{} ms", ms(t_off)),
            format!(
                "on/off {:.2}x",
                t_on.as_secs_f64() / t_off.as_secs_f64().max(1e-12)
            ),
        ],
    ];
    Table {
        title: format!("E15 — observability overhead ({families} families, warm T1 cite)"),
        headers: vec!["metric".into(), "per-op".into(), "notes".into()],
        rows,
    }
}

// =====================================================================
// A-series — ablations of our own design choices (DESIGN.md §6)
// =====================================================================

/// A1/A2 table: switch off one implementation choice at a time.
/// * A1: per-cite interpretation memo (identical symbolic expressions
///   share one interpreted citation);
/// * A2: secondary hash indexes on the base relations.
pub fn ablation_table(families: usize) -> Table {
    // A1 — interpretation memo
    let q_t0 = {
        let db = db_at_scale(families);
        let mut w = WorkloadGenerator::new(&db, 37);
        w.query_from_template(0)
    };
    let with_memo = engine_at_scale(families, RewriteMode::Pruned, Policy::default());
    let _ = with_memo.cite(&q_t0).expect("warmup");
    let t0 = Instant::now();
    let _ = with_memo.cite(&q_t0).expect("cite");
    let t_memo = t0.elapsed();
    let without_memo = engine_at_scale(families, RewriteMode::Pruned, Policy::default())
        .with_options(EngineOptions {
            memoize_interpretation: false,
            ..EngineOptions::default()
        });
    let _ = without_memo.cite(&q_t0).expect("warmup");
    let t0 = Instant::now();
    let _ = without_memo.cite(&q_t0).expect("cite");
    let t_no_memo = t0.elapsed();

    // A2 — secondary indexes (plain evaluation of the T2 join chain)
    let indexed_db = db_at_scale(families); // generator builds indexes
    let mut unindexed_db = fgc_gtopdb::create_schema();
    fgc_relation::loader::load_text(
        &mut unindexed_db,
        &fgc_relation::loader::dump_text(&indexed_db),
    )
    .expect("round trip");
    let q_t2 = {
        let mut w = WorkloadGenerator::new(&indexed_db, 41);
        w.query_from_template(2)
    };
    let t0 = Instant::now();
    let _ = evaluate(&indexed_db, &q_t2).expect("evaluate");
    let t_indexed = t0.elapsed();
    let t0 = Instant::now();
    let _ = evaluate(&unindexed_db, &q_t2).expect("evaluate");
    let t_unindexed = t0.elapsed();

    Table {
        title: format!("A1/A2 — ablations ({families} families)"),
        headers: vec!["variant".into(), "ms".into(), "vs enabled".into()],
        rows: vec![
            vec!["A1 memo on (cite T0)".into(), ms(t_memo), "1.00x".into()],
            vec![
                "A1 memo off".into(),
                ms(t_no_memo),
                format!(
                    "{:.2}x",
                    t_no_memo.as_secs_f64() / t_memo.as_secs_f64().max(1e-12)
                ),
            ],
            vec![
                "A2 indexes on (eval T2)".into(),
                ms(t_indexed),
                "1.00x".into(),
            ],
            vec![
                "A2 indexes off".into(),
                ms(t_unindexed),
                format!(
                    "{:.2}x",
                    t_unindexed.as_secs_f64() / t_indexed.as_secs_f64().max(1e-12)
                ),
            ],
        ],
    }
}

// =====================================================================
// E18 — the Agg fold over k distinct citations
// =====================================================================

/// The first `k` distinct tuple citations of the whole-family listing
/// `Q(F, N) :- Family(F, N, Ty)` over a generated GtoPdb instance of
/// `families` families (one distinct citation per family, so
/// `k ≤ families`) — the operands of the `listing` Agg fold.
pub fn listing_citations(families: usize, k: usize) -> Vec<fgc_views::Json> {
    let engine = engine_at_scale(families, RewriteMode::Pruned, Policy::default());
    let q = parse_query("Q(F, N) :- Family(F, N, Ty)").expect("static query");
    let citation = engine.cite(&q).expect("listing cites");
    let mut seen = std::collections::HashSet::new();
    let distinct: Vec<fgc_views::Json> = citation
        .tuples
        .into_iter()
        .map(|t| t.citation)
        .filter(|c| seen.insert(c.to_compact()))
        .take(k)
        .collect();
    assert_eq!(
        distinct.len(),
        k,
        "{families} families give fewer than {k} citations"
    );
    distinct
}

/// Median wall time of `f(k)` for each `k`, over at least `rounds`
/// rounds and about `budget`. Each round times every `k` once, so a
/// drift in host speed hits every `k` alike, and each timed call
/// follows an untimed one with the same `k`, so it finds the heap as
/// its own previous call left it rather than as a larger `k` did.
fn interleaved_medians(
    ks: &[usize],
    rounds: usize,
    budget: std::time::Duration,
    mut f: impl FnMut(usize) -> fgc_views::Json,
) -> Vec<std::time::Duration> {
    let started = Instant::now();
    let mut times = vec![Vec::new(); ks.len()];
    while times.first().is_some_and(|t| t.len() < rounds) || started.elapsed() < budget {
        for (t, &k) in times.iter_mut().zip(ks) {
            std::hint::black_box(f(k));
            let t0 = Instant::now();
            std::hint::black_box(f(k));
            t.push(t0.elapsed());
        }
    }
    times
        .into_iter()
        .map(|mut t| {
            t.sort();
            t[t.len() / 2]
        })
        .collect()
}

/// E18 table: the union Agg fold over k distinct GtoPdb citations,
/// as one [`CombineOp::fold`](fgc_core::CombineOp::fold) and as the
/// pairwise left fold of `CombineOp::apply` from `Null`. Claim: the
/// n-ary fold's time per record stays flat in k, while the pairwise
/// fold re-reads its k-record accumulator at every step. The pairwise
/// fold runs only for k ≤ `pairwise_cap`; both must agree byte for byte.
pub fn e18_table(ks: &[usize], pairwise_cap: usize) -> Table {
    use fgc_core::CombineOp;
    use fgc_views::Json;
    let max_k = ks.iter().copied().max().unwrap_or(0);
    let citations = listing_citations(max_k, max_k);
    let fold = |k: usize| CombineOp::Union.fold(&citations[..k]);
    let pairwise = |k: usize| {
        citations[..k]
            .iter()
            .fold(Json::Null, |acc, x| CombineOp::Union.apply(&acc, x))
    };
    let capped: Vec<usize> = ks.iter().copied().filter(|&k| k <= pairwise_cap).collect();
    for &k in &capped {
        assert_eq!(pairwise(k).to_compact(), fold(k).to_compact(), "k = {k}");
    }
    let t_fold = interleaved_medians(ks, 5, std::time::Duration::from_millis(1_500), fold);
    let t_pair = interleaved_medians(&capped, 3, std::time::Duration::ZERO, pairwise);
    let us_per =
        |d: std::time::Duration, k: usize| format!("{:.2}", d.as_secs_f64() * 1e6 / k as f64);
    let mut rows = Vec::new();
    for (i, &k) in ks.iter().enumerate() {
        let bytes: usize = citations[..k].iter().map(Json::size_bytes).sum();
        let (pair_ms, pair_us, speedup) = match capped.iter().position(|&c| c == k) {
            Some(j) => (
                ms(t_pair[j]),
                us_per(t_pair[j], k),
                format!(
                    "{:.1}x",
                    t_pair[j].as_secs_f64() / t_fold[i].as_secs_f64().max(1e-12)
                ),
            ),
            None => ("-".into(), "-".into(), "-".into()),
        };
        rows.push(vec![
            k.to_string(),
            format!("{:.1}", bytes as f64 / 1024.0),
            ms(t_fold[i]),
            us_per(t_fold[i], k),
            pair_ms,
            pair_us,
            speedup,
        ]);
    }
    Table {
        title: format!(
            "E18 — union Agg fold over k distinct GtoPdb citations: CombineOp::fold vs \
             pairwise apply fold (pairwise run for k ≤ {pairwise_cap} only)"
        ),
        headers: vec![
            "k".into(),
            "input_kib".into(),
            "fold_ms".into(),
            "fold_us_per_rec".into(),
            "pairwise_ms".into(),
            "pairwise_us_per_rec".into(),
            "speedup".into(),
        ],
        rows,
    }
}

/// All experiment tables with default (CI-sized) sweeps.
pub fn all_tables() -> Vec<Table> {
    vec![
        e1_table(&[5, 8, 12, 16, 24]),
        e2_table(&[100, 1_000, 10_000]),
        e3_table(),
        e4_table(1_000),
        e5_table(1_000),
        e6_table(1_000),
        e7_table(1_000),
        e8_table(&[4, 16, 64]),
        e10_table(1_000, &[1, 2, 4, 8]),
        e11_table(1_000, &[1, 2, 4, 8]),
        e12_table(&[100, 1_000, 10_000], 1_000),
        e13_table(1_000, &[4, 16, 64]),
        e15_table(1_000),
        e16_table(&[1_000]),
        e18_table(&[250, 500, 1_000, 2_000, 4_000], 1_000),
        ablation_table(1_000),
    ]
}

/// Registry accessor re-exported for the benches.
pub fn registry() -> ViewRegistry {
    paper_views()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = Table {
            title: "demo".into(),
            headers: vec!["a".into(), "long-header".into()],
            rows: vec![vec!["1".into(), "2".into()]],
        };
        let s = t.render();
        assert!(s.contains("## demo"));
        assert!(s.contains("long-header"));
    }

    #[test]
    fn view_defs_of_size_scales() {
        assert_eq!(view_defs_of_size(5).len(), 5);
        assert_eq!(view_defs_of_size(12).len(), 12);
    }

    #[test]
    fn e3_runs_on_paper_instance() {
        let t = e3_table();
        assert_eq!(t.rows.len(), 5);
        // the ordered rows must not exceed the unordered row's size
        let none_monomials: usize = t.rows[0][2].parse().unwrap();
        for row in &t.rows[1..] {
            let m: usize = row[2].parse().unwrap();
            assert!(m <= none_monomials);
        }
    }

    #[test]
    fn e1_small_sweep_runs() {
        let t = e1_table(&[5, 6]);
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    fn ablation_small_runs() {
        let t = ablation_table(50);
        assert_eq!(t.rows.len(), 4);
    }

    #[test]
    fn e8_small_sweep_runs() {
        let t = e8_table(&[2, 4]);
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[0][2], "v0"); // timestamp 5 resolves to v0
    }

    #[test]
    fn e13_small_sweep_runs() {
        let t = e13_table(60, &[3]);
        assert_eq!(t.rows.len(), 1);
        // ascending walk: every non-root version derived, none by
        // pure sharing (every commit touches FIC), one rebuild
        assert_eq!(t.rows[0][5], "3/0/1", "{:?}", t.rows[0]);
        // structural sharing is visible in the memory columns
        let resident_kib: usize = t.rows[0][7].parse().unwrap();
        let shared: usize = t.rows[0][8].parse().unwrap();
        assert!(resident_kib > 0, "{:?}", t.rows[0]);
        assert!(shared > 0, "{:?}", t.rows[0]);
    }

    #[test]
    fn e15_reports_overhead_rows_and_restores_the_gate() {
        let t = e15_table(50);
        assert_eq!(t.rows.len(), 6);
        // the on/off sweep must leave stage timing at its default
        assert!(fgc_obs::stages_enabled());
    }

    #[test]
    fn e18_small_sweep_runs() {
        let t = e18_table(&[8, 16], 8);
        assert_eq!(t.rows.len(), 2);
        assert_ne!(t.rows[0][4], "-"); // pairwise measured up to the cap
        assert_eq!(t.rows[1][4], "-");
    }

    #[test]
    fn e12_small_sweep_runs() {
        let t = e12_table(&[50], 50);
        assert_eq!(t.rows.len(), 5); // T0-T2 + T4 + E9 batch
        for row in &t.rows {
            // warm passes must have hit the plan cache
            let (hits, misses) = row[7].split_once('/').expect("hits/misses cell");
            assert!(hits.parse::<u64>().unwrap() > 0, "{row:?}");
            assert!(misses.parse::<u64>().unwrap() > 0, "{row:?}");
        }
    }
}
