//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro <artifact> [--scale F] [--seed N] [--users N] [--items N] [--k N] [--plot]
//!
//! artifacts: table1 table2 table3 fig2 fig3 fig4 fig5 fig6 fig7 fig8
//!            fig9 fig10 fig11 fig12 fig13 fig14 fig15 fig16 fig17
//!            userstudy ablation fairness quality_stfast bench_batch
//!            bench_shard bench_admission bench_traffic bench_mutation
//!            lint modelcheck all
//!
//! `bench_batch` additionally writes `BENCH_batch.json` (single-summary
//! latency, batch throughput at sizes 1/4/16 and full, sharded 2/4-
//! replica throughput, admission-queue coalesced throughput and ticket
//! latency percentiles, allocation per summary, speedup vs the seed
//! path) for the cross-PR perf trajectory; `bench_shard` prints the
//! full per-shard-count scatter/gather sweep behind the JSON's
//! `shardN_batch_summaries_per_sec` keys; `bench_admission` prints the
//! producer-count × linger-window sweep behind its `admission_*` keys.
//! `bench_traffic` replays the seeded open-loop arrival tape (Zipf
//! inputs, on/off bursts, mixed methods, mutation barriers) at fixed
//! offered loads and *merges* the `traffic_*` keys — p50/p99/p99.9
//! ticket latency, offered-vs-served ratio, served/failed counts —
//! into `BENCH_batch.json`, leaving every other key as
//! `bench_batch` wrote it. `bench_mutation` measures the delta-aware
//! mutation pipeline — O(|touched|) ledger patching vs a rebuild-from-
//! scratch oracle, and serving throughput with a live non-barrier
//! weight-update stream — and *merges* its `mutation_*` /
//! `admission_live_*` keys the same way. `lint` runs the repo-invariant lint engine
//! (same scan as `cargo run --bin xlint`; non-zero exit on findings),
//! and `modelcheck` — in a `RUSTFLAGS="--cfg xsum_loom"` build — runs
//! the model-checked concurrency scenarios and merges their
//! `modelcheck_*` stats (schedules explored, wall time) into
//! `BENCH_batch.json` the same way.
//! ```
//!
//! Output is TSV (scenario, baseline, method, x, metric, value) matching
//! the series each paper figure plots. The default `--scale 0.05` runs in
//! seconds; `--scale 1.0` is the paper's Table II scale.

use xsum_bench::ctx::{Baseline, Ctx, CtxConfig};
use xsum_bench::experiments::{ablation, ancillary, fairness, perf, quality, tables, userstudy};
use xsum_bench::table::{print_rows, Row};
use xsum_metrics::TrackingAllocator;

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator::new();

struct Args {
    artifact: String,
    scale: f64,
    seed: u64,
    users_per_gender: usize,
    items_per_extreme: usize,
    top_k: usize,
    plot: bool,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        artifact: argv.first().cloned().unwrap_or_else(|| "all".to_string()),
        scale: 0.05,
        seed: 42,
        users_per_gender: 20,
        items_per_extreme: 10,
        top_k: 10,
        plot: false,
    };
    let mut i = 1;
    while i + 1 < argv.len() + 1 {
        match argv.get(i).map(|s| s.as_str()) {
            Some("--scale") => {
                args.scale = argv[i + 1].parse().expect("--scale takes a float");
                i += 2;
            }
            Some("--seed") => {
                args.seed = argv[i + 1].parse().expect("--seed takes an integer");
                i += 2;
            }
            Some("--users") => {
                args.users_per_gender = argv[i + 1].parse().expect("--users takes an integer");
                i += 2;
            }
            Some("--items") => {
                args.items_per_extreme = argv[i + 1].parse().expect("--items takes an integer");
                i += 2;
            }
            Some("--k") => {
                args.top_k = argv[i + 1].parse().expect("--k takes an integer");
                i += 2;
            }
            Some("--plot") => {
                args.plot = true;
                i += 1;
            }
            Some(other) => panic!("unknown flag {other}"),
            None => break,
        }
    }
    args
}

fn ctx_config(a: &Args) -> CtxConfig {
    CtxConfig {
        scale: a.scale,
        seed: a.seed,
        users_per_gender: a.users_per_gender,
        items_per_extreme: a.items_per_extreme,
        top_k: a.top_k,
        ..CtxConfig::default()
    }
}

/// Merge the `traffic_*` keys of `report` into the flat JSON object at
/// `path`: every pre-existing non-`traffic_` line passes through
/// byte-identical, any stale `traffic_` lines are replaced, and a
/// missing file starts a fresh object. The writer relies on the
/// one-key-per-line shape `BatchBenchReport::to_json` emits.
fn merge_traffic_keys(path: &str, report: &xsum_bench::traffic::TrafficReport) {
    let base = std::fs::read_to_string(path).unwrap_or_else(|_| "{\n}\n".to_string());
    let mut lines: Vec<String> = base
        .lines()
        .filter(|l| {
            let t = l.trim();
            !t.starts_with("\"traffic_") && !t.is_empty() && t != "}"
        })
        .map(str::to_string)
        .collect();
    if lines.is_empty() {
        lines.push("{".to_string());
    }
    // The line before our block must carry a trailing comma unless it
    // opens the object.
    if let Some(last) = lines.last_mut() {
        let t = last.trim_end();
        if !t.ends_with('{') && !t.ends_with(',') {
            *last = format!("{t},");
        }
    }
    let served_rps = report.served_rps.max(1e-12);
    lines.push(format!(
        concat!(
            "  \"traffic_offered_rps\": {:.3},\n",
            "  \"traffic_served_rps\": {:.3},\n",
            "  \"traffic_offered_vs_served_rps\": {:.4},\n",
            "  \"traffic_p50_latency_ms\": {:.6},\n",
            "  \"traffic_p99_latency_ms\": {:.6},\n",
            "  \"traffic_p999_latency_ms\": {:.6},\n",
            "  \"traffic_submitted\": {},\n",
            "  \"traffic_served\": {},\n",
            "  \"traffic_failed\": {},\n",
            "  \"traffic_mutations\": {}"
        ),
        report.offered_rps,
        report.served_rps,
        report.offered_rps / served_rps,
        report.p50_ms,
        report.p99_ms,
        report.p999_ms,
        report.submitted,
        report.served,
        report.failed,
        report.mutations,
    ));
    lines.push("}".to_string());
    let mut out = lines.join("\n");
    out.push('\n');
    std::fs::write(path, out).unwrap_or_else(|e| panic!("write {path}: {e}"));
}

/// Merge `modelcheck_*` keys (schedules explored + wall time per model
/// scenario) into the flat JSON object at `path`, with the same
/// pass-through discipline as [`merge_traffic_keys`]: pre-existing
/// non-`modelcheck_` lines stay byte-identical.
#[cfg(xsum_loom)]
fn merge_modelcheck_keys(path: &str, entries: &[(&str, usize, f64)]) {
    let base = std::fs::read_to_string(path).unwrap_or_else(|_| "{\n}\n".to_string());
    let mut lines: Vec<String> = base
        .lines()
        .filter(|l| {
            let t = l.trim();
            !t.starts_with("\"modelcheck_") && !t.is_empty() && t != "}"
        })
        .map(str::to_string)
        .collect();
    if lines.is_empty() {
        lines.push("{".to_string());
    }
    if let Some(last) = lines.last_mut() {
        let t = last.trim_end();
        if !t.ends_with('{') && !t.ends_with(',') {
            *last = format!("{t},");
        }
    }
    for (i, (name, schedules, ms)) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        lines.push(format!(
            "  \"modelcheck_{name}_schedules\": {schedules},\n  \"modelcheck_{name}_ms\": {ms:.3}{comma}"
        ));
    }
    lines.push("}".to_string());
    let mut out = lines.join("\n");
    out.push('\n');
    std::fs::write(path, out).unwrap_or_else(|e| panic!("write {path}: {e}"));
}

/// Merge the delta-mutation-pipeline keys of `report` into the flat
/// JSON object at `path`, with the same pass-through discipline as
/// [`merge_traffic_keys`]: stale `mutation_*` / `admission_live_*`
/// lines are replaced, every other pre-existing line stays
/// byte-identical.
fn merge_mutation_keys(path: &str, report: &xsum_bench::experiments::perf::MutationReport) {
    let base = std::fs::read_to_string(path).unwrap_or_else(|_| "{\n}\n".to_string());
    let mut lines: Vec<String> = base
        .lines()
        .filter(|l| {
            let t = l.trim();
            let stale = t.starts_with("\"mutation_") || t.starts_with("\"admission_live_");
            !stale && !t.is_empty() && t != "}"
        })
        .map(str::to_string)
        .collect();
    if lines.is_empty() {
        lines.push("{".to_string());
    }
    if let Some(last) = lines.last_mut() {
        let t = last.trim_end();
        if !t.ends_with('{') && !t.ends_with(',') {
            *last = format!("{t},");
        }
    }
    lines.push(format!(
        "  \"mutation_full_rebuild_ms\": {:.4},\n  \"mutation_delta_patch_ms\": {:.4},\n  \
         \"mutation_delta_speedup\": {:.2},\n  \
         \"admission_live_update_summaries_per_sec\": {:.1}",
        report.full_rebuild_ms,
        report.delta_patch_ms,
        report.speedup,
        report.live_update_summaries_per_sec,
    ));
    lines.push("}".to_string());
    let mut out = lines.join("\n");
    out.push('\n');
    std::fs::write(path, out).unwrap_or_else(|e| panic!("write {path}: {e}"));
}

/// `repro modelcheck` (model-checker build): run every passing model
/// scenario, print the exploration stats as TSV, and merge
/// `modelcheck_*` keys into BENCH_batch.json.
#[cfg(xsum_loom)]
fn run_modelcheck() {
    use xsum_core::modelcheck;
    /// A named model scenario returning (schedules explored, exhausted).
    type Scenario = (&'static str, fn() -> (usize, bool));
    let scenarios: &[Scenario] = &[
        ("pool_map_with_drop", || {
            let s = modelcheck::pool_map_with_and_drop();
            (s.schedules_explored, s.exhausted)
        }),
        ("pool_shutdown", || {
            let s = modelcheck::pool_shutdown_protocol(false);
            (s.schedules_explored, s.exhausted)
        }),
        ("ticket_set", || {
            let s = modelcheck::ticket_set_exactly_once();
            (s.schedules_explored, s.exhausted)
        }),
        ("linger_flush", || {
            let s = modelcheck::linger_flush_no_deadlock();
            (s.schedules_explored, s.exhausted)
        }),
        ("poison_recover", || {
            let s = modelcheck::poison_recover_no_lost_ticket();
            (s.schedules_explored, s.exhausted)
        }),
        ("breaker", || {
            let s = modelcheck::breaker_transitions_race_free();
            (s.schedules_explored, s.exhausted)
        }),
        ("wire_writer", || {
            let s = modelcheck::wire_writer_handshake();
            (s.schedules_explored, s.exhausted)
        }),
    ];
    let mut rows = Vec::new();
    let mut entries: Vec<(&str, usize, f64)> = Vec::new();
    for (name, run) in scenarios {
        let start = std::time::Instant::now();
        let (schedules, exhausted) = run();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        for (metric, value) in [
            ("modelcheck_schedules", schedules as f64),
            ("modelcheck_exhausted", exhausted as u8 as f64),
            ("modelcheck_ms", ms),
        ] {
            rows.push(Row::new(
                "model",
                "loom",
                "dfs+random",
                *name,
                metric,
                value,
            ));
        }
        entries.push((name, schedules, ms));
    }
    print_rows(&rows);
    merge_modelcheck_keys("BENCH_batch.json", &entries);
    eprintln!(
        "modelcheck: {} scenario(s), {} schedule(s) explored; merged modelcheck_* keys \
         into BENCH_batch.json",
        entries.len(),
        entries.iter().map(|(_, s, _)| s).sum::<usize>(),
    );
}

/// `repro modelcheck` in an ordinary build: the scenarios only exist
/// when the `xsum_graph::sync` facade sits on the loom shim.
#[cfg(not(xsum_loom))]
fn run_modelcheck() {
    eprintln!(
        "modelcheck: this binary was built without the model checker; rebuild with\n\
         \n    RUSTFLAGS=\"--cfg xsum_loom\" cargo run -p xsum-bench --bin repro -- modelcheck\n\
         \nto run the model scenarios (see CONCURRENCY.md)."
    );
    std::process::exit(2);
}

/// `repro lint`: the same workspace scan as `cargo run --bin xlint`,
/// exposed here so CI's static-analysis job and local repro runs share
/// one entry point.
fn run_lint() {
    // Compile-time manifest dir of this crate → workspace root. The
    // scan only runs from checkouts, where that path always exists.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    match xsum_bench::lint::lint_workspace(&root) {
        Ok(report) => {
            for finding in &report.findings {
                println!("{finding}\n");
            }
            eprintln!(
                "lint: {} file(s) scanned, {} finding(s)",
                report.files_scanned,
                report.findings.len()
            );
            if !report.clean() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("lint: scan failed: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args = parse_args();
    let cfg = ctx_config(&args);

    let quality_fig = |metric: &str| {
        let ctx = Ctx::build(cfg);
        let rows = quality::run(&ctx, &Baseline::MAIN);
        let filtered = quality::filter_metric(&rows, metric);
        if args.plot {
            print!("{}", xsum_bench::plot::sparklines(&filtered, metric));
        } else {
            print_rows(&filtered);
        }
    };

    match args.artifact.as_str() {
        "table1" => print!("{}", tables::table1()),
        "table2" => {
            let ctx = Ctx::build(cfg);
            print!("{}", tables::table2(&ctx));
        }
        "table3" => print_rows(&tables::table3_rows()),
        "fig2" => quality_fig("comprehensibility"),
        "fig3" => quality_fig("actionability"),
        "fig4" => quality_fig("diversity"),
        "fig5" => quality_fig("redundancy"),
        "fig6" => quality_fig("consistency"),
        "fig7" => quality_fig("relevance"),
        "fig8" => quality_fig("privacy"),
        "fig9" => {
            let ctx = Ctx::build(cfg);
            let mut rows = Vec::new();
            for b in Baseline::MAIN {
                rows.extend(perf::fig9(&ctx, b));
            }
            print_rows(&rows);
        }
        "fig10" => {
            let ctx = Ctx::build(cfg);
            let n = ctx.users.len();
            let sizes: Vec<usize> = [n / 8, n / 4, n / 2, n]
                .into_iter()
                .filter(|s| *s > 0)
                .collect();
            print_rows(&perf::fig10(&ctx, Baseline::Pgpr, &sizes));
        }
        "fig11" => {
            print_rows(&perf::fig11(
                args.scale,
                args.seed,
                2 * args.users_per_gender,
                args.users_per_gender,
                args.top_k,
            ));
        }
        "fig12" | "fig13" => {
            let mut ctx = Ctx::build(cfg);
            let rows = ancillary::fig12_13(&mut ctx);
            let metric = if args.artifact == "fig12" {
                "comprehensibility"
            } else {
                "diversity"
            };
            let rows: Vec<Row> = rows.into_iter().filter(|r| r.metric == metric).collect();
            print_rows(&rows);
        }
        "fig14" | "fig15" => {
            let rows = ancillary::fig14_15(cfg);
            let metric = if args.artifact == "fig14" {
                "comprehensibility"
            } else {
                "diversity"
            };
            let rows: Vec<Row> = rows.into_iter().filter(|r| r.metric == metric).collect();
            print_rows(&rows);
        }
        "fig16" => {
            let ctx = Ctx::build(cfg);
            print_rows(&ancillary::fig16(ctx));
        }
        "fig17" => {
            let ctx = Ctx::build(cfg);
            print_rows(&ancillary::fig17(&ctx));
        }
        "userstudy" => {
            let ctx = Ctx::build(cfg);
            print!("{}", userstudy::report(&ctx, 5));
        }
        "ablation" => {
            let ctx = Ctx::build(cfg);
            print_rows(&ablation::run(&ctx));
        }
        "fairness" => {
            let ctx = Ctx::build(cfg);
            let mut rows = Vec::new();
            for b in Baseline::MAIN {
                rows.extend(fairness::run(&ctx, b));
            }
            print_rows(&rows);
        }
        "quality_stfast" => {
            // The "Mehlhorn by default" gate: §V-B metrics for the KMB
            // closure vs the Mehlhorn closure on identical inputs, with
            // per-point Δ rows and a per-metric verdict on stderr.
            let ctx = Ctx::build(cfg);
            let rows = quality::fast_vs_kmb(&ctx, &Baseline::MAIN);
            print_rows(&rows);
            eprintln!("metric\tmean|Δ|\tmax|Δ|\tmean KMB value");
            for (metric, mean_abs, max_abs, kmb_scale) in quality::fast_vs_kmb_verdict(&rows) {
                eprintln!("{metric}\t{mean_abs:.6}\t{max_abs:.6}\t{kmb_scale:.6}");
            }
        }
        "bench_batch" => {
            // The BENCH trajectory artifact: engine vs seed path on the
            // largest synthetic scaling level, written machine-readably
            // so future PRs can diff regressions.
            let report = perf::batch_bench(
                xsum_datasets::ScalingLevel::G5,
                args.scale,
                args.seed,
                (2 * args.users_per_gender).max(32),
                args.top_k,
            );
            let json = report.to_json();
            std::fs::write("BENCH_batch.json", &json).expect("write BENCH_batch.json");
            print!("{json}");
            eprintln!(
                "bench_batch: ST-fast {:.2}x / KMB {:.2}x / persistent engine {:.2}x vs seed \
                 path at {} ({} summaries); engine single {:.3} ms vs free {:.3} ms; \
                 wrote BENCH_batch.json",
                report.fast_speedup,
                report.speedup,
                report.persistent_speedup,
                report.level,
                report.batch_size,
                report.persistent_single_ms,
                report.free_single_ms,
            );
            for lp in &report.levels {
                eprintln!(
                    "  {}: seed {:.3} ms/summary, KMB {:.0}/s ({:.2}x), \
                     ST-fast {:.0}/s ({:.2}x), batch {}",
                    lp.level,
                    lp.seed_single_ms,
                    lp.batch_per_sec,
                    lp.speedup,
                    lp.fast_batch_per_sec,
                    lp.fast_speedup,
                    lp.batch_size,
                );
            }
        }
        "bench_shard" => {
            // Per-shard-count scatter/gather throughput on the same
            // workload `bench_batch` measures (TSV; the 2- and 4-shard
            // points also land in BENCH_batch.json via bench_batch).
            let rows = perf::shard_bench(
                xsum_datasets::ScalingLevel::G5,
                args.scale,
                args.seed,
                (2 * args.users_per_gender).max(32),
                args.top_k,
                &[1, 2, 4],
            );
            print_rows(&rows);
        }
        "bench_traffic" => {
            // Open-loop serving trajectory: replay the seeded arrival
            // tape at fixed offered loads against a fresh admission
            // queue, print the per-load sweep as TSV, and merge the
            // highest load's `traffic_*` keys into BENCH_batch.json
            // (all pre-existing keys pass through byte-identical).
            let (ds, inputs) = perf::batch_inputs(
                xsum_datasets::ScalingLevel::G5,
                args.scale,
                args.seed,
                (2 * args.users_per_gender).max(32),
                args.top_k,
            );
            let g = &ds.kg.graph;
            g.freeze();
            let mut rows = Vec::new();
            let mut last = None;
            for &rps in &[100.0f64, 400.0] {
                let mut tcfg = xsum_bench::traffic::TrafficConfig::new(rps, 256);
                tcfg.seed = args.seed;
                let report = xsum_bench::traffic::run_traffic(g, &inputs, &tcfg);
                let x = format!("{rps:.0}rps");
                for (metric, value) in [
                    ("traffic_served_rps", report.served_rps),
                    ("traffic_p50_latency_ms", report.p50_ms),
                    ("traffic_p99_latency_ms", report.p99_ms),
                    ("traffic_p999_latency_ms", report.p999_ms),
                ] {
                    rows.push(Row::new(
                        "user-centric",
                        "random",
                        "mixed",
                        x.clone(),
                        metric,
                        value,
                    ));
                }
                last = Some(report);
            }
            print_rows(&rows);
            let report = last.expect("at least one offered load ran");
            merge_traffic_keys("BENCH_batch.json", &report);
            eprintln!(
                "bench_traffic: offered {:.0} rps, served {:.1} rps, p50 {:.3} ms, \
                 p99 {:.3} ms, p99.9 {:.3} ms; {} served / {} failed ({} mutations); \
                 merged traffic_* keys into BENCH_batch.json",
                report.offered_rps,
                report.served_rps,
                report.p50_ms,
                report.p99_ms,
                report.p999_ms,
                report.served,
                report.failed,
                report.mutations,
            );
        }
        "bench_admission" => {
            // Coalesced admission throughput + ticket latency across
            // producer counts × linger windows on the bench_batch
            // workload (TSV; the 4-producer/linger-8 point also lands
            // in BENCH_batch.json via bench_batch).
            let rows = perf::admission_bench(
                xsum_datasets::ScalingLevel::G5,
                args.scale,
                args.seed,
                (2 * args.users_per_gender).max(32),
                args.top_k,
                &[1, 2, 4, 8],
                &[1, 8, 32],
            );
            print_rows(&rows);
        }
        "bench_mutation" => {
            // Delta-aware mutation pipeline: O(|touched|) ledger patch
            // vs rebuild-from-scratch, and serving throughput with a live
            // non-barrier weight-update stream; merges `mutation_*` /
            // `admission_live_*` keys into BENCH_batch.json (all
            // pre-existing keys pass through byte-identical).
            let (rows, report) = perf::mutation_bench(
                xsum_datasets::ScalingLevel::G5,
                args.scale,
                args.seed,
                (2 * args.users_per_gender).max(32),
                args.top_k,
            );
            print_rows(&rows);
            merge_mutation_keys("BENCH_batch.json", &report);
            eprintln!(
                "bench_mutation: {} edges, {}-edge deltas — rebuild {:.3} ms vs ledger patch \
                 {:.3} ms ({:.1}x, {} cache patches); {:.0} summaries/s with a live update \
                 stream ({} edge updates applied); merged mutation_* / admission_live_* keys \
                 into BENCH_batch.json",
                report.edges,
                report.delta_edges,
                report.full_rebuild_ms,
                report.delta_patch_ms,
                report.speedup,
                report.cache_patches,
                report.live_update_summaries_per_sec,
                report.live_updates_applied,
            );
        }
        "lint" => run_lint(),
        "modelcheck" => run_modelcheck(),
        "all" => {
            println!("== table1 ==\n{}", tables::table1());
            let ctx = Ctx::build(cfg);
            println!("== table2 ==\n{}", tables::table2(&ctx));
            println!("== table3 ==");
            print_rows(&tables::table3_rows());
            println!("== figs 2-8 (quality sweep) ==");
            let rows = quality::run(&ctx, &Baseline::MAIN);
            print_rows(&rows);
            println!("== fig9 ==");
            let mut perf_rows = Vec::new();
            for b in Baseline::MAIN {
                perf_rows.extend(perf::fig9(&ctx, b));
            }
            print_rows(&perf_rows);
            println!("== fig10 ==");
            let n = ctx.users.len();
            let sizes: Vec<usize> = [n / 8, n / 4, n / 2, n]
                .into_iter()
                .filter(|s| *s > 0)
                .collect();
            print_rows(&perf::fig10(&ctx, Baseline::Pgpr, &sizes));
            println!("== fig11 ==");
            print_rows(&perf::fig11(
                args.scale,
                args.seed,
                2 * args.users_per_gender,
                args.users_per_gender,
                args.top_k,
            ));
            println!("== figs 12-13 ==");
            let mut ctx_lm = Ctx::build(cfg);
            print_rows(&ancillary::fig12_13(&mut ctx_lm));
            println!("== figs 14-15 (LFM1M) ==");
            print_rows(&ancillary::fig14_15(cfg));
            println!("== fig16 ==");
            print_rows(&ancillary::fig16(Ctx::build(cfg)));
            println!("== fig17 ==");
            print_rows(&ancillary::fig17(&ctx));
            println!("== userstudy ==");
            print!("{}", userstudy::report(&ctx, 3));
            println!("== ablation ==");
            print_rows(&ablation::run(&ctx));
            println!("== fairness ==");
            let mut fair_rows = Vec::new();
            for b in Baseline::MAIN {
                fair_rows.extend(fairness::run(&ctx, b));
            }
            print_rows(&fair_rows);
        }
        other => {
            eprintln!("unknown artifact '{other}'");
            eprintln!(
                "expected: table1 table2 table3 fig2..fig17 userstudy ablation fairness \
                 quality_stfast bench_batch bench_shard bench_admission bench_traffic \
                 bench_mutation lint modelcheck all"
            );
            std::process::exit(2);
        }
    }
}
