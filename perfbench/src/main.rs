//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <explain_ml1m|table3_g5|serve_wire> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from `--seed`, measures for about
//! `--seconds`, checks every output against the sequential free
//! functions, prints a readable report and, as the last line of stdout,
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` reports the end-to-end metrics, the timed ones normalised
//! by the host's speed (see [`calib`]); `--trace 1` runs the
//! traced layer replay instead and reports the per-layer metrics. The
//! full result (with the host block) and, when tracing, the recorded
//! spans are written under `.bench_out/`. Exits 1 if any output was
//! wrong, 2 on bad arguments.

mod batch;
mod calib;
mod fixture;
mod serve;
mod stats;
mod trace;

use std::time::Instant;

use fixture::{Fixture, Workload};
use xsum_core::{BatchMethod, PcstConfig, SteinerConfig};

/// The three summarizers every workload runs, in metric order, with
/// their default configs: ST (KMB), ST-fast (Mehlhorn closure), PCST.
pub fn methods() -> [BatchMethod; 3] {
    [
        BatchMethod::Steiner(SteinerConfig::default()),
        BatchMethod::SteinerFast(SteinerConfig::default()),
        BatchMethod::Pcst(PcstConfig::default()),
    ]
}

/// An end-to-end run sets up at least [`MIN_SETUPS`] times, and keeps
/// setting up until [`SETUP_BUDGET_S`] is spent (at most
/// [`MAX_SETUPS`] times); `setup_s` is the median of the set-ups'
/// times, normalised by the median of host probes taken before the
/// first set-up and after each one.
const MIN_SETUPS: usize = 3;
const SETUP_BUDGET_S: f64 = 3.0;
const MAX_SETUPS: usize = 25;

/// A timed unit of work (a batch workload's call, a `serve_wire`
/// closed-loop round) that would be shorter than this serves its inputs
/// enough times over to last this long, by its warm-up timing, but at
/// most [`MAX_COPIES`] times: in shorter units, waking threads, which a
/// busy shared host delays by a millisecond or more, decides the rates.
pub const MIN_TIMED_S: f64 = 0.05;
/// See [`MIN_TIMED_S`].
pub const MAX_COPIES: usize = 64;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric named `name`.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What one invocation produced.
pub struct Outcome {
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Operations whose outputs were checked.
    pub attempted: u64,
    /// Operations that failed, went unanswered or did not match.
    pub failed: u64,
    /// Extra report lines (context the metrics alone do not carry).
    pub notes: Vec<String>,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <explain_ml1m|table3_g5|serve_wire> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let outcome = if args.trace {
        trace::run(args.workload, args.seed)
    } else {
        end_to_end(args.workload, args.seed, args.seconds)
    };
    report(&args, &outcome);
    if outcome.failed > 0 {
        std::process::exit(1);
    }
}

/// The untraced run: set up several times, then run the workload's
/// loop on the last fixture.
fn end_to_end(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let mut host = calib::HostRef::new(xsum_graph::num_threads());
    let mut setups: Vec<f64> = Vec::new();
    let mut fix = None;
    let mut setup_slowness = vec![host.probe()];
    while setups.len() < MIN_SETUPS
        || (setups.iter().sum::<f64>() < SETUP_BUDGET_S && setups.len() < MAX_SETUPS)
    {
        drop(fix.take());
        let t = Instant::now();
        fix = Some(Fixture::build(workload, seed));
        setups.push(t.elapsed().as_secs_f64());
        setup_slowness.push(host.probe());
    }
    let mut fix = fix.expect("at least one set-up");
    let mut m = vec![Metric::new(
        "setup_s",
        stats::median(&setups) / stats::median(&setup_slowness),
        "s",
    )];
    let (attempted, failed, rss);
    let mut notes = vec![format!(
        "set-up as measured: median {} s over {} set-ups",
        stats::median(&setups),
        setups.len()
    )];
    let slowness;
    if workload.is_serving() {
        let inputs = fix.served_inputs();
        let run = serve::run_e2e(&fix.graph, &inputs, &mut host, seed, seconds);
        m.push(Metric::new("st_per_s", run.per_s[0], "1/s"));
        m.push(Metric::new("stfast_per_s", run.per_s[1], "1/s"));
        m.push(Metric::new("pcst_per_s", run.per_s[2], "1/s"));
        m.push(Metric::new(
            "serve_p50_ms",
            stats::median(&run.serve_ms),
            "ms",
        ));
        m.push(Metric::new(
            "serve_p99_ms",
            stats::quantile(&run.serve_ms, stats::tail_q(run.serve_ms.len())),
            "ms",
        ));
        m.push(Metric::new(
            "update_p50_ms",
            stats::median(&run.update_ms),
            "ms",
        ));
        m.push(Metric::new("serve_capacity_rps", run.capacity_rps, "1/s"));
        notes.extend([
            format!(
                "open loop: {} requests at {} req/s, {} mutation frames; \
                 generator late by at most {:.3} ms",
                run.serve_ms.len(),
                serve::SERVE_RATE,
                run.update_ms.len(),
                run.late_ms_max
            ),
            format!(
                "closed loop: {} rounds serving the {} inputs {:?} times over \
                 (mixed, ST, ST-fast, PCST)",
                run.rounds,
                inputs.len(),
                run.copies
            ),
            format!(
                "closed loop as measured (not normalised): ST {} ST-fast {} PCST {} mixed {} 1/s",
                run.raw_rps[0], run.raw_rps[1], run.raw_rps[2], run.raw_rps[3]
            ),
        ]);
        attempted = run.attempted;
        failed = run.failed;
        rss = run.rss_warm_mb;
        slowness = run.slowness;
    } else {
        let run = batch::run(&mut fix, &mut host, seed, seconds);
        m.push(Metric::new("st_per_s", run.per_s[0], "1/s"));
        m.push(Metric::new("stfast_per_s", run.per_s[1], "1/s"));
        m.push(Metric::new("pcst_per_s", run.per_s[2], "1/s"));
        m.push(Metric::new(
            "serve_p50_ms",
            stats::median(&run.round_call_ms),
            "ms",
        ));
        m.push(Metric::new(
            "serve_p99_ms",
            stats::quantile(&run.call_ms, stats::tail_q(run.call_ms.len())),
            "ms",
        ));
        m.push(Metric::new(
            "update_p50_ms",
            stats::median(&run.update_ms),
            "ms",
        ));
        m.push(Metric::new("serve_capacity_rps", run.all_per_s, "1/s"));
        notes.extend([
            format!(
                "closed loop: {} rounds, {} timed summarize_batch calls (serve_p99_ms is their \
                 {} quantile) serving the inputs {:?} times over (ST, ST-fast, PCST), {} updates",
                run.rounds,
                run.call_ms.len(),
                stats::tail_q(run.call_ms.len()),
                run.copies,
                run.update_ms.len()
            ),
            format!(
                "as measured (not normalised): ST {} ST-fast {} PCST {} summaries/s",
                run.raw_per_s[0], run.raw_per_s[1], run.raw_per_s[2]
            ),
        ]);
        attempted = run.attempted;
        failed = run.failed;
        rss = run.rss_warm_mb;
        slowness = run.slowness;
    }
    // The high-water mark once set up and warm: the timed loop then
    // grows it by allocator-arena churn that saturates, after a few
    // rounds, at a level that varies from seed to seed.
    m.insert(1, Metric::new("peak_rss_mb", rss, "MB"));
    notes.push(format!(
        "host slowness over {} probes of the timed loop: median {}, range {}-{} \
         (1 = a probe of {} s)",
        slowness.len(),
        stats::median(&slowness),
        stats::quantile(&slowness, 0.0),
        stats::quantile(&slowness, 1.0),
        calib::NOMINAL_S
    ));
    notes.push(format!("inputs: {}", fix.describe()));
    notes.push(format!(
        "{} set-ups; peak RSS at the end of the run {} MB",
        setups.len(),
        peak_rss_mb()
    ));
    Outcome {
        metrics: m,
        attempted,
        failed,
        notes,
    }
}

/// The process's resident-set high-water mark (MB), from
/// `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host and build facts every result carries.
fn host_block(args: &Args) -> Vec<(&'static str, String)> {
    vec![
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        ("engine_threads", xsum_graph::num_threads().to_string()),
        ("workload", args.workload.name().to_string()),
        ("scale", args.workload.scale().to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("git_rev", git_rev()),
        ("rustc", env!("PERFBENCH_RUSTC_VERSION").to_string()),
    ]
}

/// The checked-out commit, when run from a git work tree.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or(head),
        None => head,
    }
}

/// Quote `s` as a JSON string.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number (non-finite values, which JSON cannot carry, as 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn report(args: &Args, o: &Outcome) {
    let host = host_block(args);
    println!("# perfbench {}", args.workload.name());
    for (k, v) in &host {
        println!("host.{k}: {v}");
    }
    for n in &o.notes {
        println!("note: {n}");
    }
    let failed_frac = o.failed as f64 / o.attempted.max(1) as f64;
    println!(
        "checked: {} operations, {} failed (failed_frac {failed_frac})",
        o.attempted, o.failed
    );
    for m in &o.metrics {
        println!("{:<32} {:>16} {}", m.name, json_num(m.value), m.unit);
    }
    let metrics = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        o.failed == 0,
        o.attempted.max(1),
        o.failed
    );
    let host_json = host
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect::<Vec<_>>()
        .join(", ");
    let full = format!(
        "{{\"host\": {{{host_json}}}, \"failed_frac\": {}, \"result\": {line}}}\n",
        json_num(failed_frac)
    );
    let path = format!(
        "{}/{}-seed{}-trace{}.json",
        OUT_DIR,
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, full)) {
        eprintln!("perfbench: could not write {path}: {e}");
    }
    println!("{line}");
}

/// Where results and spans are written (relative to the working
/// directory, the repository root).
pub const OUT_DIR: &str = ".bench_out";
