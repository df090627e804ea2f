//! End-to-end request benchmark for `certa`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <lineage_reads|mask_updates|durable_ingest> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One client thread drives the library through its public API in a
//! closed loop (the only other threads are the morsel pool's workers).
//! Every answer is checked against an untimed verification pass. The last
//! line of standard output is the result object; the line before it is the
//! full report (shape counts, host facts, secondary metrics), also written
//! under `.bench_out/`. With `--trace 1` the run reports per-layer metrics
//! and writes a Chrome trace there too. See `perfbench/README.md`.

mod common;
mod layers;
mod runner;
mod verify;
mod workloads;

use common::{median, peak_rss_mb, quantile, Json, Op};
use runner::{Env, RunStats, Shape};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::Kind;

/// Set-up repetitions per run, one before the loop and the rest spread
/// evenly over it; `setup_s` is their median.
const SETUP_REPS: usize = 21;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = 1u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(&v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
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
    let work_dir =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.kind.name(), std::process::id()));
    let outcome = run(&args, &work_dir);
    let _ = std::fs::remove_dir_all(&work_dir);
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// One set-up — instance generation, pipeline (or durable store) open,
/// and a warm-up read of every template — timed. Returns the instance.
fn setup_once(
    kind: Kind,
    seed: u64,
    dir: &std::path::Path,
) -> Result<(certa::data::Database, f64), String> {
    let started = Instant::now();
    let db = kind.setup(seed);
    let (target, mut pipeline) = runner::open_target(kind, &db, dir)?;
    for (_, sql) in kind.template_samples() {
        pipeline
            .execute(&sql, &target, kind.scheme())
            .map_err(|e| format!("warm-up read failed: {e}"))?;
    }
    let elapsed = started.elapsed().as_secs_f64();
    drop((target, pipeline));
    let _ = std::fs::remove_dir_all(dir);
    Ok((db, elapsed))
}

fn run(args: &Args, work_dir: &std::path::Path) -> Result<bool, String> {
    std::fs::create_dir_all(work_dir).map_err(|e| format!("work dir: {e}"))?;
    let kind = args.kind;
    let (base, first_setup_s) = setup_once(kind, args.seed, &work_dir.join("setup"))?;
    let mut setup_times = vec![first_setup_s];
    let verify_started = Instant::now();
    let plan = verify::plan(kind, args.seed, &base)?;
    let verify_s = verify_started.elapsed().as_secs_f64();
    let templates = explain_templates(kind, &base)?;
    let live_nulls = base.nulls().len();
    let rows = base.total_tuples();
    let checks = plan.checks.clone();
    let env = Env {
        kind,
        base,
        plan,
        work_dir: work_dir.to_path_buf(),
    };
    let budget = Duration::from_secs(args.seconds);
    let mut stats = RunStats::default();
    let mut layer_report = None;
    if args.trace {
        layer_report = Some(layers::traced_run(&env, budget, &mut stats)?);
    } else {
        // One episode per call, with a set-up repetition between two
        // episodes each time the loop has spent another share of its
        // budget, so the set-up times sample the whole run.
        let episode = Some(env.plan.ops.len() as u64);
        let share = budget.as_secs_f64() / SETUP_REPS as f64;
        while stats.busy_s < budget.as_secs_f64() {
            if runner::run(&env, budget, episode, &mut stats, None)? == 0 {
                break;
            }
            if stats.busy_s >= share * setup_times.len() as f64 && setup_times.len() < SETUP_REPS {
                setup_times.push(setup_once(kind, args.seed, &work_dir.join("setup"))?.1);
            }
        }
    }
    let setup_s = median(&setup_times);

    let shape = stats.shapes.first().cloned();
    let mut problems = stats.problems.clone();
    if stats.shapes.iter().any(|s| Some(s) != shape.as_ref()) {
        problems.push("episodes of one run differ in shape".to_string());
    }
    match &shape {
        Some(s) => problems.extend(shape_class(kind, s)),
        None => problems.push("no episode ran to the end; raise --seconds".to_string()),
    }
    let correct = stats.failed() == 0 && problems.is_empty();

    let quiet = quiet_profile(&env.plan.ops, &stats);
    let e2e = end_to_end(&quiet, setup_s);
    let metrics = match &layer_report {
        Some(layers) => metrics_json(&layers.metrics),
        None => metrics_json(&e2e),
    };
    let report = Json::obj(vec![
        ("workload", Json::str(kind.name())),
        ("seed", Json::int(args.seed)),
        ("seconds", Json::int(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("host", host_facts()),
        ("end_to_end", metrics_json(&e2e)),
        ("secondary", secondary(&stats, &quiet, verify_s)),
        (
            "shape",
            shape_json(shape.as_ref(), rows, live_nulls, &templates, &env),
        ),
        ("complete_episodes", Json::int(stats.shapes.len() as u64)),
        (
            "checks",
            Json::Obj(
                checks
                    .iter()
                    .map(|(k, n)| (k.to_string(), Json::int(*n as u64)))
                    .collect(),
            ),
        ),
        (
            "problems",
            Json::Arr(problems.iter().map(|p| Json::str(p.clone())).collect()),
        ),
        (
            "trace_file",
            layer_report
                .as_ref()
                .map_or(Json::Null, |l| Json::str(l.trace_file.clone())),
        ),
    ]);
    let rendered = report.render();
    let out_dir = PathBuf::from(".bench_out");
    if std::fs::create_dir_all(&out_dir).is_ok() {
        let name = format!(
            "{}-seed{}-trace{}.json",
            kind.name(),
            args.seed,
            u8::from(args.trace)
        );
        let _ = std::fs::write(out_dir.join(name), &rendered);
    }
    for p in &problems {
        eprintln!("perfbench: {p}");
    }
    println!("{rendered}");
    let result = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::int(stats.attempted)),
        ("failed", Json::int(stats.failed())),
        ("metrics", metrics),
    ]);
    println!("{}", result.render());
    Ok(correct)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The episode at quiet-host speed. Every episode of a run replays the
/// same requests on the same state, so the spread of one request's latency
/// over its repetitions is the host's: a shared host has slow phases of a
/// few seconds that slow every call alike (up to ~1.6x on a 2-vCPU VM),
/// and a figure over all repetitions measures how much of the run they
/// covered. Each call of the episode is therefore taken at its fastest
/// repetition (`RunStats::fastest_s`).
struct QuietProfile {
    /// One value per read of the episode, ascending.
    reads_ms: Vec<f64>,
    /// Busy seconds of one episode, every call at its fastest.
    episode_s: f64,
    /// Calls in one episode.
    episode_ops: usize,
}

fn quiet_profile(ops: &[Op], stats: &RunStats) -> QuietProfile {
    let reads_ms = ops
        .iter()
        .zip(&stats.fastest_s)
        .filter(|(op, _)| matches!(op, Op::Read { .. }))
        .map(|(_, s)| s * 1e3)
        .collect::<Vec<_>>();
    QuietProfile {
        reads_ms: sorted(&reads_ms),
        episode_s: stats.fastest_s.iter().sum(),
        episode_ops: ops.len(),
    }
}

/// The end-to-end metrics of an untraced run, at quiet-host speed.
fn end_to_end(quiet: &QuietProfile, setup_s: f64) -> Vec<(&'static str, f64, &'static str)> {
    vec![
        ("setup_s", setup_s, "s"),
        (
            "throughput_ops_s",
            quiet.episode_ops as f64 / quiet.episode_s,
            "1/s",
        ),
        ("read_p50_ms", quantile(&quiet.reads_ms, 0.5), "ms"),
        ("read_p95_ms", quantile(&quiet.reads_ms, 0.95), "ms"),
        ("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]
}

/// Metrics only some workloads have (`null` where a workload has no such
/// operation), sample counts, and the median read latency per template.
fn secondary(stats: &RunStats, quiet: &QuietProfile, verify_s: f64) -> Json {
    let reads = sorted(&stats.read_ms);
    let writes = sorted(&stats.write_ms);
    let mut by_template: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for (t, ms) in stats.read_template.iter().zip(&stats.read_ms) {
        by_template.entry(t).or_default().push(*ms);
    }
    Json::obj(vec![
        (
            "write_p50_ms",
            opt_num(!writes.is_empty(), quantile(&writes, 0.5)),
        ),
        (
            "write_p99_ms",
            opt_num(!writes.is_empty(), quantile(&writes, 0.99)),
        ),
        (
            "recovery_s",
            opt_num(!stats.recovery_s.is_empty(), median(&stats.recovery_s)),
        ),
        (
            "failed_share",
            Json::Num(stats.failed() as f64 / stats.attempted.max(1) as f64),
        ),
        (
            "degraded_share",
            opt_num(
                stats.reads > 0,
                stats.degraded as f64 / stats.reads.max(1) as f64,
            ),
        ),
        (
            "throughput_ops_s_all_repetitions",
            Json::Num(stats.completed as f64 / stats.busy_s.max(f64::MIN_POSITIVE)),
        ),
        (
            "read_p50_ms_all_repetitions",
            Json::Num(quantile(&reads, 0.5)),
        ),
        (
            "read_p95_ms_all_repetitions",
            Json::Num(quantile(&reads, 0.95)),
        ),
        (
            "read_p99_ms_all_repetitions",
            Json::Num(quantile(&reads, 0.99)),
        ),
        ("read_p99_ms", Json::Num(quantile(&quiet.reads_ms, 0.99))),
        ("read_samples", Json::int(reads.len() as u64)),
        ("read_samples_beyond_p99", Json::int(beyond(&reads, 0.99))),
        ("episode_reads", Json::int(quiet.reads_ms.len() as u64)),
        ("write_samples", Json::int(writes.len() as u64)),
        ("recoveries", Json::int(stats.recovery_s.len() as u64)),
        ("busy_s", Json::Num(stats.busy_s)),
        (
            "read_p50_ms_by_template",
            Json::Obj(
                by_template
                    .iter()
                    .map(|(t, v)| (t.to_string(), Json::Num(median(v))))
                    .collect(),
            ),
        ),
        ("verify_s", Json::Num(verify_s)),
    ])
}

fn metrics_json(list: &[(&str, f64, &str)]) -> Json {
    Json::Obj(
        list.iter()
            .map(|(n, v, u)| {
                (
                    n.to_string(),
                    Json::obj(vec![("value", Json::Num(*v)), ("unit", Json::str(*u))]),
                )
            })
            .collect(),
    )
}

fn opt_num(present: bool, v: f64) -> Json {
    if present {
        Json::Num(v)
    } else {
        Json::Null
    }
}

fn beyond(sorted: &[f64], q: f64) -> u64 {
    let cut = quantile(sorted, q);
    sorted.iter().filter(|v| **v > cut).count() as u64
}

/// The per-workload shape class the held-out seed must keep.
fn shape_class(kind: Kind, s: &Shape) -> Vec<String> {
    let mut bad = Vec::new();
    match kind {
        Kind::LineageReads => {
            if s.dispatch_lineage != s.recomputed || s.dispatch_mask + s.dispatch_enum != 0 {
                bad.push("a lineage_reads recompute left the lineage backend".to_string());
            }
            let degraded = s.degraded.len() as u64;
            if degraded == 0 || 2 * degraded >= s.reads {
                bad.push(format!(
                    "degraded reads {degraded} of {} are not a non-empty minority",
                    s.reads
                ));
            }
        }
        Kind::MaskUpdates => {
            if s.dispatch_mask != s.recomputed || s.dispatch_lineage + s.dispatch_enum != 0 {
                bad.push("a mask_updates recompute left the mask backend".to_string());
            }
            if s.served == 0 || s.refined == 0 || s.recomputed == 0 {
                bad.push("mask_updates misses a serve/refine/recompute decision".to_string());
            }
        }
        Kind::DurableIngest => {
            if s.dispatch_mask + s.dispatch_lineage + s.dispatch_enum != 0 {
                bad.push("a durable_ingest read reached an exact backend".to_string());
            }
            if s.wal_bytes == 0 || s.snapshot_bytes == 0 || s.recover_frames == 0 {
                bad.push("durable_ingest wrote no WAL, snapshot or replayable tail".to_string());
            }
        }
    }
    bad
}

/// `Pipeline::explain` of every template on the set-up instance.
fn explain_templates(
    kind: Kind,
    base: &certa::data::Database,
) -> Result<Vec<(String, Json)>, String> {
    let mut out = Vec::new();
    for (name, sql) in kind.template_samples() {
        let ex = verify::fresh_pipeline(kind)
            .explain(&sql, base)
            .map_err(|e| format!("explain failed: {e}"))?;
        out.push((
            name.to_string(),
            Json::obj(vec![
                ("worlds", Json::int(ex.backend.worlds as u64)),
                ("nulls", Json::int(ex.backend.nulls as u64)),
                ("pool", Json::int(ex.backend.pool as u64)),
                ("backend", Json::str(ex.backend.backend.to_string())),
            ]),
        ));
    }
    Ok(out)
}

fn shape_json(
    shape: Option<&Shape>,
    rows: usize,
    live_nulls: usize,
    templates: &[(String, Json)],
    env: &Env,
) -> Json {
    let mut fields = vec![
        ("rows", Json::int(rows as u64)),
        ("live_nulls", Json::int(live_nulls as u64)),
        ("episode_ops", Json::int(env.plan.ops.len() as u64)),
        ("templates", Json::Obj(templates.to_vec())),
    ];
    if let Some(s) = shape {
        let reads = s.reads.max(1) as f64;
        fields.extend([
            ("reads", Json::int(s.reads)),
            ("writes", Json::int(s.writes)),
            ("snapshots", Json::int(s.snapshots)),
            ("served", Json::int(s.served)),
            ("refined", Json::int(s.refined)),
            ("recomputed", Json::int(s.recomputed)),
            ("served_share", Json::Num(s.served as f64 / reads)),
            ("refined_share", Json::Num(s.refined as f64 / reads)),
            ("recomputed_share", Json::Num(s.recomputed as f64 / reads)),
            ("plan_hits", Json::int(s.plan_hits)),
            ("plan_misses", Json::int(s.plan_misses)),
            ("dispatch_mask", Json::int(s.dispatch_mask)),
            ("dispatch_lineage", Json::int(s.dispatch_lineage)),
            ("dispatch_enum", Json::int(s.dispatch_enum)),
            (
                "degraded_positions",
                Json::Arr(s.degraded.iter().map(|p| Json::int(*p as u64)).collect()),
            ),
            ("wal_bytes", Json::int(s.wal_bytes)),
            ("snapshot_bytes", Json::int(s.snapshot_bytes)),
            ("recover_frames", Json::int(s.recover_frames)),
        ]);
    }
    Json::obj(fields)
}

/// CPU count, morsel worker count, commit, build profile and flush policy.
fn host_facts() -> Json {
    let nproc = std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string());
    Json::obj(vec![
        ("nproc", Json::int(nproc as u64)),
        ("available_parallelism", Json::int(workers as u64)),
        (
            "morsel_workers",
            Json::int(certa::algebra::effective_threads(0) as u64),
        ),
        ("commit", Json::str(commit)),
        ("source_fingerprint", Json::str(source_fingerprint())),
        (
            "build_profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("client_threads", Json::int(1u64)),
        ("loop", Json::str("closed, one client")),
        (
            "durability_flush",
            Json::str(
                "as shipped: one write(2) per WAL frame, no fsync and no sync_durable \
                 (survives a process kill, not power loss)",
            ),
        ),
    ])
}

/// FNV-1a over the library sources the benchmark was built from, so a
/// result identifies its code even in a checkout without git metadata.
fn source_fingerprint() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(f).unwrap_or_default())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("fnv1a:{h:016x} over {} files", files.len())
}
