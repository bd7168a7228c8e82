//! # tinysdr-bench
//!
//! The reproduction harness: one function per table and figure of the
//! TinySDR paper, shared by the `repro` binary, the Criterion benches
//! and the workspace integration tests.
//!
//! Run everything with:
//!
//! ```text
//! cargo run -p tinysdr-bench --release --bin repro -- all
//! ```
//!
//! or a single experiment (`repro fig10`, `repro table6`, …). Each
//! experiment prints the measured series next to the paper's reference
//! values; EXPERIMENTS.md records a snapshot.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod link;
pub mod perf;
pub mod phy_experiments;
pub mod system_experiments;
pub mod trajectory;
pub mod waterfall;

/// Worker threads for the sharded benchmark runs: the machine's
/// parallelism, at least 2 so the sharded path is exercised even on a
/// single core. Reports are shard-invariant, so this never changes an
/// output; trajectory points record it as `cores`.
pub fn bench_shards() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .max(2)
}

/// A labelled series of `(x, y)` points — one curve of a figure.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// The data points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// New series.
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Append a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }
}

/// Render one or more series as an aligned text table.
pub fn print_series(title: &str, xlabel: &str, series: &[Series]) {
    println!("\n== {title} ==");
    print!("{xlabel:>12}");
    for s in series {
        print!("  {:>22}", s.label);
    }
    println!();
    let n = series.iter().map(|s| s.points.len()).max().unwrap_or(0);
    for i in 0..n {
        let x = series
            .iter()
            .find_map(|s| s.points.get(i).map(|p| p.0))
            .unwrap_or(f64::NAN);
        print!("{x:>12.2}");
        for s in series {
            match s.points.get(i) {
                Some(&(_, y)) => print!("  {y:>22.4}"),
                None => print!("  {:>22}", "-"),
            }
        }
        println!();
    }
}

/// Print a two-column fact table.
pub fn print_facts(title: &str, rows: &[(String, String)]) {
    println!("\n== {title} ==");
    let w = rows.iter().map(|(k, _)| k.len()).max().unwrap_or(8);
    for (k, v) in rows {
        println!("  {k:<w$}  {v}");
    }
}

/// Compare a measured value against the paper's and render a verdict.
pub fn verdict(name: &str, measured: f64, paper: f64, tol_frac: f64) -> String {
    let dev = if paper != 0.0 {
        (measured - paper) / paper
    } else {
        measured
    };
    let ok = dev.abs() <= tol_frac;
    format!(
        "{name}: measured {measured:.3} vs paper {paper:.3} ({:+.1}%) {}",
        dev * 100.0,
        if ok { "OK" } else { "CHECK" }
    )
}
