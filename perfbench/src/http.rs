//! The HTTP workloads — `keyed`, `scan`, `listing` and `scatter` —
//! served by `CiteServer::start` / `DistServer::start` with
//! `ServerConfig::default()` (only the bind address changes) and
//! loaded by a closed loop of `nproc` client connections.

use crate::{
    base_stamp, instance, instance_sizes, mean, peak_rss_mib, quantile, ratio, sliced_quantile,
    sorted, Collected, Options, Outcome, Scale, Workload, END_TO_END, EXTRAS, LAYER_EXTRAS,
    PER_LAYER,
};
use fgc_core::{CitationEngine, CiteRequest, CiteResponse};
use fgc_dist::{fragment_handler, Coordinator, CoordinatorConfig, DistServer};
use fgc_gtopdb::rng::SmallRng;
use fgc_gtopdb::{paper_shard_spec, paper_views, present_types, WorkloadGenerator};
use fgc_query::{parse_query, EvalOptions, QueryPlan};
use fgc_relation::Database;
use fgc_rewrite::{best_rewritings, RewriteOptions, ViewDefs};
use fgc_server::{
    decode_cite_request, encode_response, parse_json, CiteServer, Client, QueryKind, ServerConfig,
    ServerStats,
};
use fgc_views::Json;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::Hasher;
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Type-selection templates of the `scan` workload (T0–T3).
const SCAN_TEMPLATES: [&str; 4] = [
    "Q(N) :- Family(F, N, Ty), Ty = {TYPE}",
    "Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = {TYPE}",
    "Q(Pn) :- Family(F, N, Ty), FC(F, C), Person(C, Pn, A), Ty = {TYPE}",
    "Q(Pn) :- Family(F, N, Ty), FamilyIntro(F, Tx), FIC(F, C), Person(C, Pn, A), Ty = {TYPE}",
];

/// The two whole-relation listings of the `listing` workload.
const LISTINGS: [&str; 2] = [
    "Q(F, N) :- Family(F, N, Ty)",
    "Q(F, Tx) :- FamilyIntro(F, Tx)",
];

/// T4 lookups per T5 lookup in the keyed mix. The batch window pairs
/// concurrent requests, and a T4 paired with a T5 waits for it: at 3:1
/// about 44% of requests wait on a T5, which put the median on the
/// cliff between the ~2 ms and ~9 ms modes and made it jump between
/// them from run to run. At 5:1 about 31% wait, so p50 lies inside the
/// fast mode and p90 inside the slow one.
const T4_PER_T5: usize = 5;

/// Minimum length of each client's seeded request sequence (cycled).
const DRAWS: usize = 8192;

/// Distinct inputs a traced run replays in process; means over the
/// traced operations weight each replayed input by its frequency.
const MAX_REPLAYS: usize = 64;

/// Stages that do not nest inside another stage of the response.
const TOP_LEVEL_STAGES: [&str; 5] = ["parse", "evaluate", "rewrite", "extent", "render"];

/// What one HTTP workload sends.
struct Plan {
    families: usize,
    clients: usize,
    scatter: bool,
    /// Distinct request bodies.
    bodies: Vec<String>,
    /// The same requests with `"stages": true`.
    traced_bodies: Vec<String>,
    /// Per client, the cyclic order in which it walks `bodies`.
    sequences: Vec<Vec<usize>>,
    /// Whether a run yields enough operations for a p99.
    p99: bool,
}

pub(crate) fn body_of(query: &str, stages: bool) -> String {
    let mut body = Json::from_pairs([("query", Json::str(query))]);
    if stages {
        body.set("stages", Json::Bool(true));
    }
    body.to_compact()
}

/// Family-by-id (T4) and families-by-curator (T5) lookups, alternating.
/// T4 keys come from `WorkloadGenerator`. T5 curators are a stratified
/// sample: curators sorted by how many families they curate, one drawn
/// per stratum, so every seed sees the same spread of T5 output sizes.
fn keyed_queries(db: &Database, seed: u64, distinct: usize) -> Vec<String> {
    let mut gen = WorkloadGenerator::new(db, seed);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x7a5c);
    let mut curated: HashMap<String, usize> = HashMap::new();
    if let Ok(fc) = db.relation("FC") {
        for row in fc.iter() {
            *curated.entry(row[1].to_string()).or_default() += 1;
        }
    }
    let mut curators: Vec<(usize, String)> = curated.into_iter().map(|(p, n)| (n, p)).collect();
    curators.sort();
    let strata = distinct / 2;
    (0..strata)
        .flat_map(|i| {
            let lo = i * curators.len() / strata;
            let hi = ((i + 1) * curators.len() / strata).max(lo + 1);
            let person = &curators[rng.gen_range(lo..hi)].1;
            [
                gen.query_from_template(4).to_string(),
                format!("Q(N) :- Family(F, N, Ty), FC(F, C), C = {person:?}"),
            ]
        })
        .collect()
}

fn plan(options: &Options, db: &Database) -> Plan {
    let tiny = options.scale == Scale::Tiny;
    let mut clients = crate::cores().clamp(1, 2);
    let mut rng = SmallRng::seed_from_u64(options.seed ^ 0x5eed_0fb0_d1e5);
    // each client walks its own shuffled passes; a pass holds request
    // i `copies[i]` times, so the mix is exact within a run and which
    // requests run side by side (and share a batch) averages out
    let mut passes = |copies: &[usize]| -> Vec<usize> {
        let pass: Vec<usize> = copies
            .iter()
            .enumerate()
            .flat_map(|(i, &n)| std::iter::repeat_n(i, n))
            .collect();
        let mut sequence = Vec::with_capacity(DRAWS + pass.len());
        while sequence.len() < DRAWS {
            let mut shuffled = pass.clone();
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, rng.gen_range(0..=i));
            }
            sequence.extend(shuffled);
        }
        sequence
    };
    let (queries, sequences, p99) = match options.workload {
        Workload::Keyed | Workload::Scatter => {
            // as many distinct T5 as T4 requests, each T4 sent
            // `T4_PER_T5` times as often
            let queries = keyed_queries(db, options.seed, if tiny { 16 } else { 128 });
            let copies: Vec<usize> = (0..queries.len())
                .map(|i| if i % 2 == 0 { T4_PER_T5 } else { 1 })
                .collect();
            let sequences = (0..clients).map(|_| passes(&copies)).collect();
            (queries, sequences, true)
        }
        Workload::Scan => {
            let mut queries = Vec::new();
            for template in SCAN_TEMPLATES {
                for ty in present_types(db) {
                    queries.push(template.replace("{TYPE}", &format!("{:?}", ty.to_string())));
                }
            }
            let copies = vec![1; queries.len()];
            let sequences = (0..clients).map(|_| passes(&copies)).collect();
            (queries, sequences, false)
        }
        Workload::Listing => {
            // one client: with two, the 1 ms batch window coalesces the
            // listings and the pair drifts in and out of lockstep, so
            // the median jumps between modes from run to run. One
            // whole-family listing per two intro listings puts p50 in
            // the intro mode and p90 in the whole-family mode.
            clients = 1;
            let queries: Vec<String> = LISTINGS.iter().map(|q| q.to_string()).collect();
            let mut order = vec![0, 1, 1];
            order.rotate_left(rng.gen_range(0..3));
            (queries, vec![order], false)
        }
        Workload::Versioned => unreachable!("versioned is not an HTTP workload"),
    };
    Plan {
        families: families(options.workload, options.scale),
        clients,
        scatter: options.workload == Workload::Scatter,
        bodies: queries.iter().map(|q| body_of(q, false)).collect(),
        traced_bodies: queries.iter().map(|q| body_of(q, true)).collect(),
        sequences,
        p99,
    }
}

/// Instance size of each HTTP workload.
fn families(workload: Workload, scale: Scale) -> usize {
    match (workload, scale) {
        (Workload::Keyed, Scale::Full) => 10_000,
        (Workload::Keyed, Scale::Tiny) => 200,
        (Workload::Scan | Workload::Scatter, Scale::Full) => 1_000,
        (Workload::Listing, Scale::Full) => 300,
        (_, Scale::Tiny) => 40,
        (Workload::Versioned, Scale::Full) => unreachable!("versioned is not an HTTP workload"),
    }
}

/// The server configuration every HTTP workload uses: the shipped
/// defaults with a free loopback port.
fn server_config() -> ServerConfig {
    ServerConfig::default().with_addr("127.0.0.1:0")
}

fn describe(config: &ServerConfig) -> String {
    format!(
        "threads:{},batch_window_ms:{},max_batch:{},queue_depth:{},max_body_bytes:{},\
         read_timeout_s:{},header_read_timeout_s:{},default_deadline_s:{},max_deadline_s:{}",
        config.threads,
        config.batch_window.as_secs_f64() * 1e3,
        config.max_batch,
        config.queue_depth,
        config.max_body_bytes,
        config.read_timeout.as_secs_f64(),
        config.header_read_timeout.as_secs_f64(),
        config.default_deadline.as_secs_f64(),
        config.max_deadline.as_secs_f64(),
    )
}

/// The running servers of one set-up.
enum Front {
    Single(CiteServer),
    Scatter {
        replicas: Vec<CiteServer>,
        front: DistServer,
    },
}

impl Front {
    fn addr(&self) -> SocketAddr {
        match self {
            Front::Single(s) => s.addr(),
            Front::Scatter { front, .. } => front.addr(),
        }
    }

    fn stats(&self) -> Arc<ServerStats> {
        match self {
            Front::Single(s) => s.stats(),
            Front::Scatter { front, .. } => front.stats(),
        }
    }

    /// Plan-cache and token-cache counters, and the mean token miss in
    /// ms, of the engines that evaluate: the served engine, or the
    /// replicas' engines summed.
    fn engine_stats(&self) -> (fgc_core::PlanCacheStats, fgc_core::CacheStats, f64) {
        let report = |e: &CitationEngine| {
            (
                e.plan_stats(),
                e.cache_stats(),
                e.cache_compute_latency().mean() as f64 / 1e6,
            )
        };
        match self {
            Front::Single(s) => report(&s.engine()),
            Front::Scatter { replicas, .. } => {
                let mut plans = fgc_core::PlanCacheStats::default();
                let mut tokens = fgc_core::CacheStats::default();
                let (mut miss_ns, mut misses) = (0u64, 0u64);
                for r in replicas {
                    let engine = r.engine();
                    let (p, t) = (engine.plan_stats(), engine.cache_stats());
                    plans.hits += p.hits;
                    plans.misses += p.misses;
                    tokens.hits += t.hits;
                    tokens.misses += t.misses;
                    let latency = engine.cache_compute_latency();
                    miss_ns += latency.sum;
                    misses += latency.count();
                }
                (plans, tokens, ratio(miss_ns as f64, misses as f64) / 1e6)
            }
        }
    }

    fn shutdown(self) {
        match self {
            Front::Single(s) => s.shutdown(),
            Front::Scatter { replicas, front } => {
                front.shutdown();
                for r in replicas {
                    r.shutdown();
                }
            }
        }
    }
}

/// Build the instance and engines, start the servers, and warm them
/// with one pass over every distinct request, split across the
/// clients' connections.
fn set_up(plan: &Plan, config: &ServerConfig) -> Result<(Front, Duration), String> {
    let started = Instant::now();
    let db = instance(plan.families);
    let front = if plan.scatter {
        let shards = 2;
        let mut replicas = Vec::with_capacity(shards);
        for shard in 0..shards {
            let engine = Arc::new(
                CitationEngine::new(db.clone(), paper_views())
                    .and_then(|e| e.with_shards(shards, paper_shard_spec()))
                    .map_err(|e| format!("replica engine: {e}"))?,
            );
            // role and shard are labels the coordinator validates
            // against at connect time, not tuning
            let replica = CiteServer::start_with_handler(
                Arc::clone(&engine),
                config
                    .clone()
                    .with_role("replica")
                    .with_shard(shard, shards),
                fragment_handler(engine),
            )
            .map_err(|e| format!("start replica: {e}"))?;
            replicas.push(replica);
        }
        let addrs = replicas.iter().map(CiteServer::addr).collect();
        let coordinator = Coordinator::connect(CoordinatorConfig::new(addrs))?;
        let front = DistServer::start(Arc::new(coordinator), config.clone())
            .map_err(|e| format!("start coordinator: {e}"))?;
        Front::Scatter { replicas, front }
    } else {
        let engine = CitationEngine::new(db, paper_views()).map_err(|e| format!("engine: {e}"))?;
        Front::Single(
            CiteServer::start(Arc::new(engine), config.clone())
                .map_err(|e| format!("start server: {e}"))?,
        )
    };
    let addr = front.addr();
    let warm: Result<(), String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..plan.clients)
            .map(|c| {
                scope.spawn(move || -> Result<(), String> {
                    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
                    for body in plan.bodies.iter().skip(c).step_by(plan.clients) {
                        let response = client
                            .post("/cite", body)
                            .map_err(|e| format!("warm pass: {e}"))?;
                        if response.status != 200 {
                            return Err(format!(
                                "warm pass answered {}: {}",
                                response.status, response.body
                            ));
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("warm-pass thread panicked"))
    });
    warm?;
    Ok((front, started.elapsed()))
}

/// A reference body: digest and length of everything before the
/// per-request fields `elapsed_us`, `cache_hits` and `cache_misses`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Reference {
    digest: u64,
    len: usize,
}

fn digest(bytes: &str) -> u64 {
    let mut h = DefaultHasher::new();
    h.write(bytes.as_bytes());
    h.finish()
}

/// Split a `/cite` body into its deterministic prefix and its parsed
/// per-request tail (`elapsed_us`, `cache_hits`, `cache_misses` and,
/// when asked for, `stages`). `None` if the body has another shape.
fn split_body(body: &str) -> Option<(&str, Json)> {
    let key = body.rfind("\"elapsed_us\"")?;
    let prefix = body[..key].trim_end_matches(' ').strip_suffix(',')?;
    let tail = parse_json(&format!("{{{}", &body[key..])).ok()?;
    let Json::Object(fields) = &tail else {
        return None;
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    match keys.as_slice() {
        ["elapsed_us", "cache_hits", "cache_misses"]
        | ["elapsed_us", "cache_hits", "cache_misses", "stages"] => Some((prefix, tail)),
        _ => None,
    }
}

/// In-process reference bodies: `cite_request` + `encode_response`
/// on `engine` for every distinct request.
fn references(engine: &CitationEngine, bodies: &[String]) -> Result<Vec<Reference>, String> {
    bodies
        .iter()
        .map(|body| {
            let request = decode(engine, body)?;
            let response = engine
                .cite_request(&request)
                .map_err(|e| format!("reference cite: {e}"))?;
            let encoded = encode_response(&response).to_compact();
            let (prefix, _) =
                split_body(&encoded).ok_or("reference body has an unexpected shape")?;
            Ok(Reference {
                digest: digest(prefix),
                len: prefix.len(),
            })
        })
        .collect()
}

fn decode(engine: &CitationEngine, body: &str) -> Result<CiteRequest, String> {
    let json = parse_json(body).map_err(|e| format!("request body: {e}"))?;
    decode_cite_request(&json, QueryKind::Datalog, engine.policy()).map_err(|e| e.0)
}

/// One client operation.
struct Op {
    input: usize,
    sent: Instant,
    latency: Duration,
    /// Digest of the deterministic body prefix of a well-formed 200;
    /// `None` for anything else.
    body: Option<Reference>,
    /// The parsed per-request tail, kept in traced phases.
    tail: Option<Json>,
    /// Whether the body matched its reference (set by [`Phase::verify`]).
    ok: bool,
}

/// A closed-loop phase: each client sends its next request only after
/// the previous reply's body is fully read.
struct Phase {
    ops: Vec<Op>,
    wall: Duration,
}

impl Phase {
    /// Mark each operation correct iff its body matches the reference.
    fn verify(&mut self, references: &[Reference]) {
        for op in &mut self.ops {
            op.ok = op.body == Some(references[op.input]);
        }
    }

    fn ok_latencies_ms(&self) -> Vec<f64> {
        sorted(
            self.ops
                .iter()
                .filter(|o| o.ok)
                .map(|o| ms(o.latency))
                .collect(),
        )
    }

    /// Latencies of correct operations in the order they were sent.
    fn ok_latencies_in_order_ms(&self) -> Vec<f64> {
        let mut ok: Vec<&Op> = self.ops.iter().filter(|o| o.ok).collect();
        ok.sort_by_key(|o| o.sent);
        ok.iter().map(|o| ms(o.latency)).collect()
    }

    fn failed(&self) -> u64 {
        self.ops.iter().filter(|o| !o.ok).count() as u64
    }
}

fn closed_loop(addr: SocketAddr, plan: &Plan, traced: bool, duration: Duration) -> Phase {
    let bodies = if traced {
        &plan.traced_bodies
    } else {
        &plan.bodies
    };
    let barrier = Barrier::new(plan.clients);
    let results: Vec<(Vec<Op>, Instant, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..plan.clients)
            .map(|c| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).ok();
                    barrier.wait();
                    let started = Instant::now();
                    let deadline = started + duration;
                    let mut ops = Vec::new();
                    let sequence = &plan.sequences[c];
                    let mut step = 0;
                    while Instant::now() < deadline {
                        let input = sequence[step % sequence.len()];
                        step += 1;
                        let t0 = Instant::now();
                        let response = match client.as_mut() {
                            Some(conn) => conn.post("/cite", &bodies[input]),
                            None => Err(std::io::Error::other("not connected")),
                        };
                        let latency = t0.elapsed();
                        let (body, tail) = match &response {
                            Ok(r) if r.status == 200 => match split_body(&r.body) {
                                Some((prefix, tail)) => (
                                    Some(Reference {
                                        digest: digest(prefix),
                                        len: prefix.len(),
                                    }),
                                    traced.then_some(tail),
                                ),
                                None => (None, None),
                            },
                            Ok(_) => (None, None),
                            Err(_) => {
                                client = Client::connect(addr).ok();
                                (None, None)
                            }
                        };
                        ops.push(Op {
                            input,
                            sent: t0,
                            latency,
                            body,
                            tail,
                            ok: false,
                        });
                    }
                    (ops, started, Instant::now())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let started = results.iter().map(|r| r.1).min();
    let ended = results.iter().map(|r| r.2).max();
    Phase {
        wall: match (started, ended) {
            (Some(s), Some(e)) => e.duration_since(s),
            _ => duration,
        },
        ops: results.into_iter().flat_map(|(ops, _, _)| ops).collect(),
    }
}

/// One more set-up; its engine, warmed over HTTP like the measured
/// one but built independently of it, gives the reference bodies.
fn fresh_reference(
    plan: &Plan,
    config: &ServerConfig,
) -> Result<(Duration, Vec<Reference>), String> {
    let (front, took) = set_up(plan, config)?;
    let reference = match &front {
        Front::Single(server) => references(&server.engine(), &plan.bodies),
        Front::Scatter { .. } => references(&single_engine(plan.families)?, &plan.bodies),
    };
    front.shutdown();
    Ok((took, reference?))
}

/// Run one HTTP workload. The measured set-up serves the run; the
/// other set-ups (for the set-up median and the reference) happen
/// after it, so memory they leave in the allocator does not count in
/// the run's peak resident set.
pub fn run(options: &Options) -> Result<Outcome, String> {
    let families = families(options.workload, options.scale);
    let (plan, sizes) = {
        // the instance is deterministic: this copy only draws constants
        let db = instance(families);
        (plan(options, &db), instance_sizes(&db))
    };
    let config = server_config();
    let mut stamp = base_stamp(options);
    stamp.extend([
        ("families", families.to_string()),
        ("instance", sizes),
        ("clients", plan.clients.to_string()),
        ("distinct_requests", plan.bodies.len().to_string()),
        ("server_config", describe(&config)),
        (
            "topology",
            if plan.scatter {
                "coordinator+2 replicas"
            } else {
                "single"
            }
            .into(),
        ),
    ]);
    let duration = Duration::from_secs_f64(options.seconds);
    let (front, took) = set_up(&plan, &config)?;
    let mut setup_s = vec![took.as_secs_f64()];
    let mut m = Collected::default();

    if options.trace {
        let (attempted, failed) = traced(&plan, front, duration, &mut m)?;
        let (metrics, extras, absent) = m.finish(PER_LAYER, LAYER_EXTRAS)?;
        return Ok(Outcome {
            workload: options.workload,
            attempted,
            failed,
            metrics,
            extras,
            absent,
            stamp,
        });
    }

    let mut phase = closed_loop(front.addr(), &plan, false, duration);
    let peak_rss = peak_rss_mib()?;
    front.shutdown();
    // scatter is checked against the single-process engine
    let (took, reference) = fresh_reference(&plan, &config)?;
    setup_s.push(took.as_secs_f64());
    while crate::more_set_ups(&setup_s) {
        let (front, took) = set_up(&plan, &config)?;
        setup_s.push(took.as_secs_f64());
        front.shutdown();
    }
    phase.verify(&reference);

    let latencies = phase.ok_latencies_ms();
    let attempted = phase.ops.len() as u64;
    let failed = phase.failed();
    m.set("setup_s", crate::median(&setup_s));
    m.set(
        "throughput_rps",
        latencies.len() as f64 / phase.wall.as_secs_f64(),
    );
    let in_order = phase.ok_latencies_in_order_ms();
    m.set("latency_p50_ms", sliced_quantile(&in_order, 0.5));
    m.set("latency_p90_ms", quantile(&latencies, 0.9));
    if plan.p99 {
        m.set("latency_p99_ms", quantile(&latencies, 0.99));
    }
    m.set("failed_frac", ratio(failed as f64, attempted as f64));
    m.set("peak_rss_mib", peak_rss);
    let (metrics, extras, absent) = m.finish(END_TO_END, EXTRAS)?;
    stamp.push((
        "setup_s_samples",
        setup_s
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(","),
    ));
    stamp.push(("operations", latencies.len().to_string()));
    Ok(Outcome {
        workload: options.workload,
        attempted: attempted.max(1),
        failed: if attempted == 0 { 1 } else { failed },
        metrics,
        extras,
        absent,
        stamp,
    })
}

/// The single-process engine over the workload's instance.
fn single_engine(families: usize) -> Result<CitationEngine, String> {
    CitationEngine::new(instance(families), paper_views()).map_err(|e| format!("engine: {e}"))
}

/// Per-input in-process replay timings, one call per layer entry point.
#[derive(Default)]
pub(crate) struct Replay {
    pub(crate) decode_us: f64,
    pub(crate) compile_us: f64,
    pub(crate) eval_ms: f64,
    pub(crate) search_ms: f64,
    pub(crate) rewritings: f64,
    pub(crate) cite_ms: f64,
    pub(crate) encode_ms: f64,
    pub(crate) agg_ms: f64,
    pub(crate) distinct: f64,
    pub(crate) coord_ms: f64,
}

pub(crate) fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Time one call of a stateful entry point (commit, sync, derive).
pub(crate) fn timed_once<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = std::hint::black_box(f());
    (out, t0.elapsed())
}

/// Time a call whose repetition changes nothing. A call under 50 ms
/// runs a second time and the faster run counts: a first call right
/// after a large response was freed sometimes stalls for ~10 ms in no
/// layer's code.
pub(crate) fn timed<T>(mut f: impl FnMut() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = std::hint::black_box(f());
    let took = t0.elapsed();
    if took >= Duration::from_millis(50) {
        return (out, took);
    }
    drop(out);
    let t0 = Instant::now();
    let out = std::hint::black_box(f());
    (out, took.min(t0.elapsed()))
}

/// Replay one request through each layer's public entry point.
pub(crate) fn replay(
    engine: &CitationEngine,
    view_defs: &ViewDefs,
    coordinator: Option<&Coordinator>,
    query: &str,
    body: &str,
) -> Result<Replay, String> {
    let mut r = Replay::default();
    let (request, took) = timed(|| decode(engine, body));
    let request = request?;
    r.decode_us = took.as_secs_f64() * 1e6;

    let q = parse_query(query).map_err(|e| format!("query: {e}"))?;
    let db = engine.database();
    let (compiled, took) = timed(|| QueryPlan::compile(&q, db));
    let compiled = compiled.map_err(|e| format!("compile: {e}"))?;
    r.compile_us = took.as_secs_f64() * 1e6;
    let (answers, took) =
        timed(|| fgc_query::evaluate_plan_with(db, &compiled, EvalOptions::default()));
    answers.map_err(|e| format!("evaluate: {e}"))?;
    r.eval_ms = ms(took);

    let (enumeration, took) = timed(|| best_rewritings(&q, view_defs, RewriteOptions::default()));
    r.rewritings = enumeration
        .map_err(|e| format!("rewrite: {e}"))?
        .rewritings
        .len() as f64;
    r.search_ms = ms(took);

    let (response, took) = timed(|| engine.cite_request(&request));
    let response: CiteResponse = response.map_err(|e| format!("cite: {e}"))?;
    r.cite_ms = ms(took);
    let (_, took) = timed(|| encode_response(&response).to_compact());
    r.encode_ms = ms(took);

    // Def. 3.4's Agg fold over the distinct tuple citations, as the
    // render stage performs it
    let mut seen = HashSet::new();
    let distinct: Vec<&Json> = response
        .citation
        .tuples
        .iter()
        .filter(|t| seen.insert(t.citation.to_compact()))
        .map(|t| &t.citation)
        .collect();
    r.distinct = distinct.len() as f64;
    let policy = engine.policy();
    let (_, took) = timed(|| {
        let mut aggregate = Json::Null;
        for g in &policy.global_citations {
            aggregate = policy.agg.apply(&aggregate, g);
        }
        for c in &distinct {
            aggregate = policy.agg.apply(&aggregate, c);
        }
        aggregate
    });
    r.agg_ms = ms(took);

    if let Some(coordinator) = coordinator {
        let ((status, body), took) = timed(|| coordinator.serve_request(&request));
        if status != 200 {
            return Err(format!("coordinator replay answered {status}: {body}"));
        }
        r.coord_ms = ms(took);
    }
    Ok(r)
}

fn pool_totals(coordinator: &Coordinator) -> (f64, f64) {
    let Json::Array(slots) = coordinator.pool_json() else {
        return (0.0, 0.0);
    };
    let field = |slot: &Json, key: &str| match slot.get(key) {
        Some(Json::Int(n)) => *n as f64,
        _ => 0.0,
    };
    slots.iter().fold((0.0, 0.0), |(calls, failures), s| {
        (calls + field(s, "calls"), failures + field(s, "failures"))
    })
}

fn stage_ms(tail: &Json, stage: &str) -> f64 {
    match tail.get("stages") {
        Some(Json::Object(fields)) => fields
            .iter()
            .filter(|(k, _)| k == stage)
            .map(|(_, v)| match v {
                Json::Int(us) => *us as f64 / 1e3,
                _ => 0.0,
            })
            .sum(),
        _ => 0.0,
    }
}

/// The traced run: an untraced closed-loop phase, a traced one whose
/// requests carry `"stages": true`, then an in-process replay of the
/// traced inputs through each layer. Returns (attempted, failed).
fn traced(
    plan: &Plan,
    front: Front,
    duration: Duration,
    m: &mut Collected,
) -> Result<(u64, u64), String> {
    let half = duration / 2;
    let mut untraced = closed_loop(front.addr(), plan, false, half);
    let stats = front.stats();
    let load = |a: &std::sync::atomic::AtomicU64| a.load(std::sync::atomic::Ordering::Relaxed);
    let (batches0, batched0, rejected0) = (
        load(&stats.batches),
        load(&stats.batched_requests),
        load(&stats.rejected),
    );
    let coordinator = match &front {
        Front::Scatter { front, .. } => Some(front.coordinator()),
        Front::Single(_) => None,
    };
    // pool counters are differences over the traced phase alone: the
    // warm pass before it and the in-process replay after it also call
    // the replicas
    let pool0 = coordinator.as_deref().map(pool_totals);
    let mut phase = closed_loop(front.addr(), plan, true, half);
    let (batches, batched, rejected) = (
        load(&stats.batches) - batches0,
        load(&stats.batched_requests) - batched0,
        load(&stats.rejected) - rejected0,
    );
    let pool = coordinator
        .as_deref()
        .map(pool_totals)
        .zip(pool0)
        .map(|((calls, failures), (calls0, failures0))| (calls - calls0, failures - failures0));

    // replay on the served engine, or for scatter on the single-process
    // engine, which is also the scatter reference
    let single = match &front {
        Front::Single(_) => None,
        Front::Scatter { .. } => Some(single_engine(plan.families)?),
    };
    let served = match &front {
        Front::Single(s) => Some(s.engine()),
        Front::Scatter { .. } => None,
    };
    let engine: &CitationEngine = match (&served, &single) {
        (Some(e), _) => e,
        (None, Some(e)) => e,
        (None, None) => unreachable!("one engine exists"),
    };
    let view_defs = ViewDefs::new(engine.registry().iter().map(|v| v.view.clone()))
        .with_dependencies(fgc_query::Dependencies::from_catalog(
            engine.database().catalog(),
        ));
    let mut replays: HashMap<usize, Replay> = HashMap::new();
    let queries: Vec<String> = plan
        .bodies
        .iter()
        .map(
            |b| match parse_json(b).ok().and_then(|j| j.get("query").cloned()) {
                Some(Json::Str(q)) => q,
                _ => String::new(),
            },
        )
        .collect();
    for op in &phase.ops {
        if !replays.contains_key(&op.input) && replays.len() < MAX_REPLAYS {
            let r = replay(
                engine,
                &view_defs,
                coordinator.as_deref(),
                &queries[op.input],
                &plan.bodies[op.input],
            )?;
            replays.insert(op.input, r);
        }
    }
    let (plans, tokens, miss_ms) = front.engine_stats();
    drop(coordinator);
    drop(served);
    front.shutdown();

    let reference = match &single {
        Some(e) => references(e, &plan.bodies)?,
        None => fresh_reference(plan, &server_config())?.1,
    };
    untraced.verify(&reference);
    phase.verify(&reference);

    let traced_ops: Vec<&Op> = phase
        .ops
        .iter()
        .filter(|o| o.ok && o.tail.is_some())
        .collect();
    let replayed_ops: Vec<&Op> = traced_ops
        .iter()
        .copied()
        .filter(|o| replays.contains_key(&o.input))
        .collect();
    let per_op = |f: &dyn Fn(&Op, &Json) -> f64| -> f64 {
        mean(
            &traced_ops
                .iter()
                .map(|o| f(o, o.tail.as_ref().expect("traced op")))
                .collect::<Vec<_>>(),
        )
    };
    let per_input = |f: &dyn Fn(&Replay) -> f64| -> f64 {
        mean(
            &replayed_ops
                .iter()
                .map(|o| f(&replays[&o.input]))
                .collect::<Vec<_>>(),
        )
    };
    let elapsed_ms = |t: &Json| match t.get("elapsed_us") {
        Some(Json::Int(us)) => *us as f64 / 1e3,
        _ => 0.0,
    };

    m.set(
        "server.front_ms",
        per_op(&|o, t| ms(o.latency) - elapsed_ms(t)),
    );
    m.set("server.batch_mean", ratio(batched as f64, batches as f64));
    m.set("server.decode_us", per_input(&|r| r.decode_us));
    m.set("server.rejected", rejected as f64);
    m.set("query.eval_ms", per_input(&|r| r.eval_ms));
    m.set("query.compile_us", per_input(&|r| r.compile_us));
    m.set("core.extent_ms", per_op(&|_, t| stage_ms(t, "extent")));
    m.set("core.plan_ms", per_op(&|_, t| stage_ms(t, "plan")));
    m.set("core.render_ms", per_op(&|_, t| stage_ms(t, "render")));
    m.set("server.encode_ms", per_input(&|r| r.encode_ms));
    m.set(
        "server.body_kib",
        per_op(&|o, _| o.body.map_or(0.0, |b| b.len as f64 / 1024.0)),
    );
    m.set("core.cite_ms", per_input(&|r| r.cite_ms));
    m.set("views.agg_ms", per_input(&|r| r.agg_ms));
    m.set("views.distinct_citations", per_input(&|r| r.distinct));
    m.set("rewrite.search_ms", per_input(&|r| r.search_ms));
    m.set("rewrite.count", per_input(&|r| r.rewritings));
    m.set("core.plan_hit_rate", plans.hit_rate());
    m.set("core.token_hit_rate", tokens.hit_rate());
    m.set("core.token_miss_ms", miss_ms);
    if let Some((calls, failures)) = pool {
        let coord_ms = per_input(&|r| r.coord_ms);
        m.set("dist.coord_ms", coord_ms);
        m.set("dist.overhead_ms", coord_ms - per_input(&|r| r.cite_ms));
        m.set(
            "dist.replica_calls_per_req",
            ratio(calls, phase.ops.len() as f64),
        );
        m.set("dist.replica_failures", failures);
    }
    // client-measured time the layers do not account for: queue
    // wait, socket I/O and the batch window
    let accounted: f64 = replayed_ops
        .iter()
        .map(|o| {
            let tail = o.tail.as_ref().expect("traced op");
            let r = &replays[&o.input];
            TOP_LEVEL_STAGES
                .iter()
                .map(|s| stage_ms(tail, s))
                .sum::<f64>()
                + r.decode_us / 1e3
                + r.encode_ms
        })
        .sum();
    let client_ms: f64 = replayed_ops.iter().map(|o| ms(o.latency)).sum();
    m.set("trace.unaccounted_frac", 1.0 - ratio(accounted, client_ms));
    let mean_ms = |p: &Phase| mean(&p.ok_latencies_ms());
    m.set(
        "trace.overhead_frac",
        ratio(mean_ms(&phase), mean_ms(&untraced)) - 1.0,
    );
    let attempted = (untraced.ops.len() + phase.ops.len()) as u64;
    Ok((attempted.max(1), untraced.failed() + phase.failed()))
}
