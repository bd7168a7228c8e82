//! Whole-stack benchmark for the TinySDR workspace.
//!
//! ```text
//! perfbench --workload <waterfall|campaign|link|daemon> --seed <n>
//!           --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! An untraced run (`--trace 0`) measures the end-to-end metrics; a
//! traced run (`--trace 1`) replays one unit of the workload with spans
//! around every call into a layer, checks that the replay reproduces the
//! untraced output, and runs the per-layer probes. Every run prints each
//! metric with its unit, every output check and the digest of the
//! workload's canonical output, and ends stdout with one JSON line.
//! `python3 perfbench/run.py` builds this binary and runs it.

// A benchmark's instrument is the wall clock, which the workspace lint
// configuration keeps out of library code.
#![allow(clippy::disallowed_methods)]

mod campaign;
mod daemon;
mod inputs;
mod link;
mod probes;
mod report;
mod stats;
mod trace;
mod waterfall;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use report::Report;
use trace::Tracer;

const USAGE: &str = "usage: perfbench --workload <waterfall|campaign|link|daemon> \
                     --seed <n> --seconds <s> --trace <0|1> [--out <dir>]";

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Settings shared by every workload.
#[derive(Debug)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase, seconds.
    pub seconds: f64,
    /// Traced run?
    pub trace: bool,
    /// Output directory (reports, spans, scratch stores).
    pub out: PathBuf,
    /// Cores: engine shards and daemon workers.
    pub nproc: usize,
    /// Time origin of every span and of the daemon's clock.
    pub epoch: Instant,
}

impl Ctx {
    /// A tracer for thread `thread`, recording only in a traced run.
    pub fn tracer(&self, thread: u32) -> Tracer {
        Tracer::new(self.epoch, thread, self.trace)
    }
}

/// Run `f`, returning its result and wall seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Median wall seconds of [`SETUP_REPS`] runs of `setup`.
pub fn median_setup(mut setup: impl FnMut()) -> f64 {
    let walls: Vec<f64> = (0..SETUP_REPS).map(|_| timed(&mut setup).1).collect();
    stats::median(&walls).unwrap_or(0.0)
}

/// Run `unit(i)` for about `seconds`: once, then again while another
/// unit of the median length still fits. Returns each unit's wall
/// seconds.
pub fn timed_units(seconds: f64, mut unit: impl FnMut(usize)) -> Vec<f64> {
    let t0 = Instant::now();
    let mut walls: Vec<f64> = Vec::new();
    loop {
        let ((), w) = timed(|| unit(walls.len()));
        walls.push(w);
        let med = stats::median(&walls).unwrap_or(w);
        if t0.elapsed().as_secs_f64() + med > seconds {
            return walls;
        }
    }
}

/// Report a traced replay: the generic per-layer metrics every workload
/// carries, each span name's count and self time and each layer's self
/// time as extras, and the spans themselves under `ctx.out`.
///
/// `base_wall_s` is the untraced unit, `traced_wall_s` its traced
/// replay, and `parts_ns` the durations of the replay's parallel parts
/// (curves, blocks, jobs) run on one thread per core.
pub fn report_trace(
    ctx: &Ctx,
    rep: &mut Report,
    workload: &str,
    tr: &trace::Trace,
    (base_wall_s, traced_wall_s): (f64, f64),
    parts_ns: &[f64],
) {
    rep.layer("bench.trace_overhead", traced_wall_s / base_wall_s, "ratio");
    let busy_s = parts_ns.iter().sum::<f64>() / 1e9;
    rep.layer(
        "bench.parallel_efficiency",
        busy_s / (base_wall_s * ctx.nproc as f64),
        "ratio",
    );
    let straggler_ns = parts_ns.iter().copied().fold(0.0, f64::max);
    rep.layer("bench.straggler_ms", straggler_ns / 1e6, "ms");
    rep.extra("bench.untraced_wall_s", base_wall_s, "s");
    rep.extra("bench.traced_wall_s", traced_wall_s, "s");
    rep.extra("bench.spans", tr.spans().len() as f64, "count");
    for (name, st) in tr.by_name() {
        rep.extra(&format!("span.{name}.count"), st.count as f64, "count");
        rep.extra(
            &format!("span.{name}.self_ms"),
            st.self_ns as f64 / 1e6,
            "ms",
        );
    }
    for (layer, self_ns) in tr.self_by_layer() {
        rep.extra(
            &format!("layer.{layer}.self_ms"),
            self_ns as f64 / 1e6,
            "ms",
        );
    }
    let path = ctx
        .out
        .join(format!("{workload}-seed{}-spans.json", ctx.seed));
    if let Err(e) = tr.write_json(&path) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn parse_args() -> Result<(String, Ctx), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from("perfbench/out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["waterfall", "campaign", "link", "daemon"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok((
        workload,
        Ctx {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            out,
            nproc,
            epoch: Instant::now(),
        },
    ))
}

fn main() -> ExitCode {
    let (workload, ctx) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.out) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.out.display());
        return ExitCode::from(1);
    }
    println!(
        "perfbench {workload} seed {} seconds {} trace {} cores {}",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        ctx.nproc
    );
    let mut rep = Report::new(&workload, ctx.seed, ctx.trace);
    match workload.as_str() {
        "waterfall" => waterfall::run(&ctx, &mut rep),
        "campaign" => campaign::run(&ctx, &mut rep),
        "link" => link::run(&ctx, &mut rep),
        _ => daemon::run(&ctx, &mut rep),
    }
    if ctx.trace {
        probes::run(&ctx, &mut rep);
    } else {
        rep.e2e("peak_rss_mb", peak_rss_mb(), "MB");
    }
    rep.finish(&ctx.out);
    ExitCode::SUCCESS
}
