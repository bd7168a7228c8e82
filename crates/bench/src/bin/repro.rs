//! `repro` — regenerate every table and figure of the TinySDR paper.
//!
//! ```text
//! repro all                 # everything (plus a summary of verdicts)
//! repro table1..table6      # Tables 1-6
//! repro fig2 fig8 fig9 fig10 fig11 fig12 fig13 fig14 fig15a fig15b
//! repro sec51 sec52 sec53 sec6
//! repro waterfall           # PHY conformance waterfalls (not in `all`)
//! repro waterfall --columns # median one-thread CPU time per impairment column
//! repro energy              # power-state/energy axis (not in `all`)
//! repro campaign            # million-node campaign scaling (not in `all`)
//! repro perf                # hot-path perf gates + trajectories (not in `all`)
//! repro perf --label <text> # the same, naming both trajectory points
//!                           # (also for campaign and link)
//! repro link                # packet data plane: ARQ + multi-hop (not in `all`)
//! repro waterfall --equivalence <baseline.json>
//!                           # hold the full grid against a parent's report
//!                           # (also for link)
//! repro --quick all         # reduced trial counts for smoke runs
//! repro --json waterfall    # canonical JSON report on stdout
//! ```
//!
//! An unknown experiment name or flag prints the usage line and exits
//! 2, so a typo never passes as an empty run. A reader that closes the
//! pipe early (`repro all | head`) ends the run with exit 0, like any
//! other filter in a pipeline.
//!
//! Figs. 10–12 are views of the `waterfall` engine: each sweeps its
//! modems over the single clean chain (calibrated AWGN at the
//! receiver's noise figure) and reads every curve's sensitivity from
//! the sweep report. Figs. 8 and 15 run their own scenes.
//!
//! `--json` works for exactly one of `waterfall`, `campaign`,
//! `energy`, `perf`, or `link` and prints the experiment's canonical JSON
//! document — the *same* bytes a `tinysdr-testbedd` job of the same
//! kind stores as `report.json`, because both go through the one
//! `to_json` builder per report type. Nothing else is printed, so the
//! output pipes straight into `jq` or back into `from_json`.
//!
//! `waterfall` runs the sharded conformance sweep (`--quick` uses the
//! coarse grid and additionally asserts the sharded-vs-sequential
//! determinism contract — the CI smoke step). `energy` reproduces the
//! paper's µW-sleep / mW-active / mJ-per-update numbers through the
//! shared `tinysdr_power` model and projects battery life for a
//! duty-cycled 1000-node campaign (`--quick`: 64 nodes, plus the
//! campaign **energy** determinism contract assert — the second CI
//! smoke step). Both are excluded from `all` because the full runs are
//! deliberate long-haul measurements. `campaign` runs the scale
//! benchmark behind the streaming-aggregation stack: contract gates
//! (work-stealing == sequential, kill/resume == uninterrupted, both
//! asserted), the flat-report-memory check, and the
//! `BENCH_campaign.json` trajectory point (`--quick`: 20k nodes — the
//! third CI smoke step; full: 1M nodes). `perf` runs the hot-path
//! bit-identity gate (`apply` == its recorded digest, prepared-pass
//! replay == `apply`), times the modem workloads and the
//! quick waterfall grid, and writes the `BENCH_modem.json` /
//! `BENCH_waterfall.json` trajectory points next to the recorded
//! pre-refactor reference (`--quick`: CI-sized reps, no wall-clock
//! gate — the fourth CI smoke step; full: enforces the 1.5x speedup
//! floor on the recording machine). `link` runs the packet data plane:
//! the adversarial ARQ battery and the sharded-vs-sequential
//! determinism contract (per-hop energy included, both asserted in
//! `--quick` — the fifth CI smoke step), then the goodput-vs-RSSI
//! curve and the multi-hop OTA dissemination table, and writes the
//! `BENCH_link.json` trajectory point.
//!
//! `--equivalence <baseline.json>` runs `waterfall` (the full grid) or
//! `link` (full effort) at the sweep seed, as `--json` does, and holds
//! every point against the same point of the baseline, a parent's `repro
//! --json` report, with `tinysdr_bench::equivalence`'s gate. It prints
//! the rejected points and exits 1 if there are any; a baseline that
//! cannot be read or describes other points exits 2.

use tinysdr_bench::phy_experiments as phy;
use tinysdr_bench::system_experiments as sys;
use tinysdr_bench::{bench_shards, print_facts, print_series, verdict, Series};
use tinysdr_ble::modem::CC2650_SENSITIVITY_DBM;

struct Effort {
    packets: u32,
    symbols: usize,
    bits: usize,
}

const FULL: Effort = Effort {
    packets: 100,
    symbols: 400,
    bits: 100_000,
};
const QUICK: Effort = Effort {
    packets: 25,
    symbols: 120,
    bits: 20_000,
};

const USAGE: &str = "usage: repro [--quick] [--json] [--columns] [--label <text>] [--equivalence <baseline.json>] <all|table1..table6|fig2|fig8..fig15b|sec51..sec53|sec6|ablation|waterfall|energy|campaign|perf|link> ...";

/// Every experiment name `repro` accepts.
const EXPERIMENTS: &[&str] = &[
    "all",
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "fig2",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15a",
    "fig15b",
    "sec51",
    "sec52",
    "sec53",
    "sec6",
    "ablation",
    "waterfall",
    "energy",
    "campaign",
    "perf",
    "link",
];

/// Print a figure's curves as one table, then each curve's
/// sensitivity (`what`: the error rate it is read at).
fn print_curves(title: &str, what: &str, curves: &[(Series, Option<f64>)]) {
    let series: Vec<Series> = curves.iter().map(|(s, _)| s.clone()).collect();
    print_series(title, "RSSI dBm", &series);
    for (s, sens) in curves {
        if let Some(dbm) = sens {
            println!("  {} {what} sensitivity: {dbm:.1} dBm", s.label);
        }
    }
}

/// End the process quietly with exit 0 when stdout's reader is gone.
/// `print!` reports a write error as a panic whose message starts
/// `failed printing to stdout:`; for a broken pipe this hook exits
/// before the default hook prints it. Every other panic keeps
/// the default report.
fn exit_quietly_on_closed_stdout() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info.payload_as_str().unwrap_or_default();
        if msg.starts_with("failed printing to stdout") && msg.contains("Broken pipe") {
            std::process::exit(0);
        }
        default_hook(info);
    }));
}

/// The experiments that append trajectory points, which `--label`
/// names.
const LABELLED: [&str; 3] = ["perf", "campaign", "link"];

/// The experiments `--equivalence` holds against a baseline.
const GATED: [&str; 2] = ["waterfall", "link"];

/// Remove `flag <value>` from `args` and return the value: `None`
/// without the flag, an error when it has no value or comes twice.
fn take_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(at) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let value = args.get(at + 1).filter(|v| !v.starts_with("--")).cloned();
    let Some(value) = value else {
        return Err(format!("{flag} needs a value"));
    };
    args.drain(at..at + 2);
    if args.iter().any(|a| a == flag) {
        return Err(format!("{flag} given twice"));
    }
    Ok(Some(value))
}

fn main() {
    exit_quietly_on_closed_stdout();
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--label <text>` names the trajectory points of the experiments
    // that record them, `--equivalence <path>` names a baseline report:
    // neither value is an experiment name
    let (label, baseline) = take_value(&mut args, "--label")
        .and_then(|label| Ok((label, take_value(&mut args, "--equivalence")?)))
        .unwrap_or_else(|msg| {
            eprintln!("repro: {msg}\n{USAGE}");
            std::process::exit(2);
        });
    let quick = args.iter().any(|a| a == "--quick");
    let effort = if quick { QUICK } else { FULL };
    let wanted: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with('-'))
        .map(|s| s.as_str())
        .collect();
    // a typo must not pass as an empty run: unknown names and flags
    // exit 2 like a missing name does
    let unknown: Vec<&str> = args
        .iter()
        .map(|s| s.as_str())
        .filter(|a| match a.strip_prefix("--") {
            Some(flag) => !["quick", "json", "columns"].contains(&flag),
            None => !EXPERIMENTS.contains(a),
        })
        .collect();
    if !unknown.is_empty() {
        eprintln!("repro: unknown argument(s): {}\n{USAGE}", unknown.join(" "));
        std::process::exit(2);
    }
    if wanted.is_empty() {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    let json = args.iter().any(|a| a == "--json");
    if label.is_some() && (json || !wanted.iter().any(|w| LABELLED.contains(w))) {
        eprintln!(
            "repro: --label names the trajectory points of {} (never --json output)\n{USAGE}",
            LABELLED.join(", ")
        );
        std::process::exit(2);
    }
    let columns = args.iter().any(|a| a == "--columns");
    if let Some(path) = baseline {
        if quick
            || json
            || columns
            || label.is_some()
            || wanted.len() != 1
            || !GATED.contains(&wanted[0])
        {
            eprintln!(
                "repro: --equivalence holds one full run of {} against a baseline (never with --quick, --json, --columns or --label)\n{USAGE}",
                GATED.join(" or ")
            );
            std::process::exit(2);
        }
        std::process::exit(run_equivalence(wanted[0], &path));
    }
    if columns && (json || wanted != ["waterfall"]) {
        eprintln!(
            "repro: --columns times the columns of `waterfall` alone (never --json)\n{USAGE}"
        );
        std::process::exit(2);
    }
    if json {
        run_json(&wanted, quick);
        return;
    }
    if columns {
        run_columns_cmd(quick);
        return;
    }
    let all = wanted.contains(&"all");
    let want = |name: &str| all || wanted.contains(&name);
    let seed = 0xBEEF;

    if want("table1") {
        print_facts("Table 1: SDR platform comparison", &sys::table1());
    }
    if want("fig2") {
        print_facts("Fig 2: radio module power per platform", &sys::fig2());
    }
    if want("table2") {
        print_facts("Table 2: off-the-shelf I/Q radio modules", &sys::table2());
    }
    if want("table3") {
        print_facts("Table 3: power domains", &sys::table3());
    }
    if want("table4") {
        print_facts("Table 4: operation timing", &sys::table4());
    }
    if want("table5") {
        print_facts("Table 5: cost breakdown (1000 units)", &sys::table5());
    }
    if want("table6") {
        print_facts("Table 6: FPGA utilization for LoRa", &sys::table6());
    }
    if want("fig8") {
        let (spectrum, spur) = phy::fig8();
        print_series(
            "Fig 8: single-tone spectrum (around 915 MHz)",
            "MHz",
            &[decimate(spectrum, 16)],
        );
        println!("  worst spur: {spur:.1} dBc  (paper: no unexpected harmonics)");
    }
    if want("fig9") {
        print_series(
            "Fig 9: single-tone TX power consumption",
            "dBm out",
            &sys::fig9(),
        );
        let c = tinysdr_core::profile::fig9_curve(false);
        // lint: allow(unjustified-panic, fig9_curve emits the 0 dBm grid point by construction)
        let p0 = c.iter().find(|p| p.0 == 0.0).unwrap().1;
        // lint: allow(unjustified-panic, fig9_curve emits the 14 dBm grid point by construction)
        let p14 = c.iter().find(|p| p.0 == 14.0).unwrap().1;
        println!("  {}", verdict("platform @0 dBm (mW)", p0, 231.0, 0.05));
        println!("  {}", verdict("platform @14 dBm (mW)", p14, 283.0, 0.05));
    }
    if want("fig10") {
        print_curves(
            "Fig 10: LoRa modulator PER vs RSSI (%)",
            "10%-PER",
            &phy::fig10(effort.packets, seed),
        );
        println!("  paper: -126 dBm at SF8/BW125");
    }
    if want("fig11") {
        print_curves(
            "Fig 11: LoRa demodulator chirp SER vs RSSI (%)",
            "10%-SER",
            &phy::fig11(effort.symbols, seed),
        );
        println!("  paper: demodulates down to -126 dBm (SF8/BW125)");
    }
    if want("fig12") {
        let (curve, sens) = phy::fig12(effort.bits, seed);
        print_series(
            "Fig 12: BLE beacon BER vs RSSI",
            "RSSI dBm",
            std::slice::from_ref(&curve),
        );
        if let Some(s) = sens {
            println!(
                "  BER=1e-3 sensitivity: {s:.1} dBm (paper: -94; CC2650 ref {CC2650_SENSITIVITY_DBM:.0})"
            );
        }
    }
    if want("fig13") {
        let (rows, _env) = sys::fig13();
        print_facts("Fig 13: BLE beacons on 3 advertising channels", &rows);
    }
    if want("fig14") {
        for (label, cdf, mean_s) in sys::fig14(42) {
            let mut s = Series::new(format!("{label} CDF"));
            for (x, y) in cdf {
                s.push(x, y);
            }
            print_series(
                &format!("Fig 14: OTA programming time — {label}"),
                "minutes",
                &[s],
            );
            println!("  mean: {mean_s:.0} s");
        }
        println!("  paper means: LoRa FPGA 150 s, BLE FPGA 59 s, MCU 39 s");
    }
    if want("fig15a") {
        let curves = phy::fig15a(effort.symbols / 2, seed);
        print_series(
            "Fig 15a: concurrent orthogonal LoRa, equal power (SER %)",
            "RSSI dBm",
            &curves,
        );
        for (lane, loss) in phy::fig15a_loss_db(&curves, effort.symbols / 2, seed) {
            let loss = loss
                .map(|db| format!("{db:.2} dB"))
                .unwrap_or_else(|| "no crossing".into());
            println!("  {lane} loss vs solo 10%-SER sensitivity: {loss}");
        }
        println!("  paper: ~2 dB (BW125) / ~0.5 dB (BW250) loss vs solo sensitivity");
    }
    if want("fig15b") {
        let curve = phy::fig15b(effort.symbols / 2, seed);
        print_series(
            "Fig 15b: interferer sweep, BW125 fixed at -123 dBm (SER %)",
            "interferer dBm",
            &[curve],
        );
        println!("  paper: error rate climbs once the interferer exceeds ~-116 dBm");
    }
    if want("sec51") {
        print_facts("Sec 5.1: benchmarks", &sys::sec51());
    }
    if want("sec52") {
        print_facts("Sec 5.2: case studies", &sys::sec52());
    }
    if want("sec53") {
        print_facts("Sec 5.3: OTA programming", &sys::sec53());
    }
    if want("sec6") {
        print_facts("Sec 6: concurrent reception", &sys::sec6());
    }
    if want("ablation") {
        print_facts(
            "Ablation (Sec 7): broadcast OTA & rate adaptation",
            &sys::ablation(42),
        );
    }
    // deliberately NOT part of `all`: the full conformance grid and the
    // 1000-node energy campaign are long-haul measurements, not figures
    if wanted.contains(&"waterfall") {
        run_waterfall_cmd(quick, seed);
    }
    if wanted.contains(&"campaign") {
        // contract gates (work-stealing == sequential, kill/resume ==
        // uninterrupted) followed by the flat-memory scale measurement
        // and the BENCH_campaign.json trajectory point. Quick: 20k
        // nodes (CI smoke); full: the ROADMAP's million-node fleet.
        let nodes = if quick { 20_000 } else { 1_000_000 };
        tinysdr_bench::campaign::campaign(nodes, 42, quick, label.as_deref());
    }
    if wanted.contains(&"perf") {
        // hot-path bit-identity gate (asserted) + timed modem and
        // quick-grid waterfall runs; writes the BENCH_modem.json and
        // BENCH_waterfall.json trajectory points uploaded by the CI
        // perf-smoke job. The wall-clock speedup floor is enforced only
        // in the full run (CI runners are not the recording machine).
        tinysdr_bench::perf::perf(quick, label.as_deref());
    }
    if wanted.contains(&"energy") {
        // full: the ROADMAP-scale duty-cycled fleet; quick: 64 nodes +
        // the campaign energy determinism contract (CI smoke). Seed 42
        // is the canonical testbed seed (same as fig14 and ablation),
        // not the PHY sweep seed — campaign experiments share it so
        // their campuses are comparable.
        let nodes = if quick { 64 } else { 1000 };
        sys::energy(nodes, 42, quick);
    }
    if wanted.contains(&"link") {
        // adversarial ARQ battery + (quick) sharded==sequential
        // determinism contract with per-hop energy, then the
        // goodput-vs-RSSI curve and multi-hop OTA dissemination table;
        // writes the BENCH_link.json trajectory point. Uses the PHY
        // sweep seed: the curve inherits its loss from the same
        // impairment chain as the waterfalls.
        tinysdr_bench::link::link(seed, quick, label.as_deref());
    }
}

/// `--json` mode: run exactly one of the long-haul experiments and
/// print its canonical JSON document — nothing else — to stdout. The
/// builders are the ones the testbed daemon's job runner calls, so the
/// bytes here equal the daemon's stored `report.json` for the same
/// experiment parameters.
fn run_json(wanted: &[&str], quick: bool) {
    use tinysdr_bench::waterfall::{run_waterfall, WaterfallConfig};
    if wanted.len() != 1 {
        eprintln!("--json takes exactly one of: waterfall, campaign, energy, perf, link");
        std::process::exit(2);
    }
    // same seeds and node counts as the human-readable commands: the
    // PHY sweep seed for waterfall, the canonical testbed seed 42 for
    // the campaign experiments
    let doc = match wanted[0] {
        "waterfall" => {
            let cfg = if quick {
                WaterfallConfig::quick(0xBEEF)
            } else {
                WaterfallConfig::full(0xBEEF)
            };
            let shards = bench_shards();
            run_waterfall(&cfg.sharded(shards)).to_json()
        }
        "campaign" => {
            let nodes = if quick { 20_000 } else { 1_000_000 };
            tinysdr_bench::campaign::campaign_json(nodes, 42)
        }
        "energy" => {
            let nodes = if quick { 64 } else { 1000 };
            sys::energy_json(nodes, 42)
        }
        "perf" => tinysdr_bench::perf::measure_perf(quick).to_json(),
        "link" => tinysdr_bench::link::link_json(0xBEEF, quick),
        other => {
            eprintln!(
                "--json does not support '{other}' (only waterfall, campaign, energy, perf, link)"
            );
            std::process::exit(2);
        }
    };
    print!("{}", doc.write_pretty());
}

/// `--equivalence`: run `experiment` (`waterfall` or `link`) as `--json`
/// does and hold it against the baseline report at `path`. Returns the
/// exit code: 0 when no point is rejected, 1 otherwise. A baseline that
/// cannot be read, is not a report of `experiment` or describes other
/// points ends the process with exit 2.
fn run_equivalence(experiment: &str, path: &str) -> i32 {
    use tinysdr_bench::equivalence::{compare, link_counts, waterfall_counts};
    use tinysdr_bench::waterfall::{run_waterfall, WaterfallConfig, WaterfallReport};
    use tinysdr_ota::json::Value;
    let refuse = |msg: String| -> ! {
        eprintln!("repro: {msg}");
        std::process::exit(2);
    };
    let doc = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {path}: {e}"))
        .and_then(|text| Value::parse(&text).map_err(|e| format!("{path}: {e}")))
        .unwrap_or_else(|msg| refuse(msg));
    let foreign = || format!("{path} is not a `repro --json {experiment}` report");
    // the two reports' counts, and for the waterfall the reports
    let (base, run, reports) = if experiment == "waterfall" {
        let base = WaterfallReport::from_json(&doc).unwrap_or_else(|| refuse(foreign()));
        let rep = run_waterfall(&WaterfallConfig::full(0xBEEF).sharded(bench_shards()));
        (
            waterfall_counts(&base),
            waterfall_counts(&rep),
            Some((base, rep)),
        )
    } else {
        let base = link_counts(&doc).unwrap_or_else(|| refuse(foreign()));
        let doc = tinysdr_bench::link::link_json(0xBEEF, false);
        // lint: allow(unjustified-panic, link_json writes the document link_counts reads)
        let run = link_counts(&doc).expect("link_json writes a link report");
        (base, run, None)
    };
    let verdict = compare(&base, &run)
        .unwrap_or_else(|msg| refuse(format!("{path} does not describe this run: {msg}")));
    println!("\n== Equivalence: {experiment} at seed 0xBEEF against {path} ==");
    println!(
        "  {} points, Fisher's exact test at family-wise alpha {} (Bonferroni: p < {:.2e} rejects)",
        verdict.points,
        tinysdr_bench::equivalence::ALPHA,
        verdict.threshold
    );
    if let Some((label, p)) = &verdict.smallest {
        println!("  smallest p: {p:.2e} ({label})");
    }
    println!("  rejected: {}", verdict.rejected.len());
    for r in &verdict.rejected {
        println!(
            "    {}: {} -> {} errors of {}, p = {:.2e}",
            r.label, r.baseline, r.errors, r.trials, r.p
        );
    }
    if let Some((base, rep)) = reports {
        println!("\n== 1%-error sensitivity (dBm): baseline, run, shift ==");
        for ((sc, imp, before), (_, _, after)) in base
            .sensitivity_table(0.01)
            .into_iter()
            .zip(rep.sensitivity_table(0.01))
        {
            let dbm = |s: Option<f64>| s.map_or(format!("{:>8}", "-"), |s| format!("{s:>8.2}"));
            let shift = before
                .zip(after)
                .map_or(format!("{:>7}", "-"), |(b, a)| format!("{:>+7.2}", a - b));
            println!(
                "  {sc:<24} {imp:<12} {} {} {shift}",
                dbm(before),
                dbm(after)
            );
        }
    }
    i32::from(!verdict.rejected.is_empty())
}

/// `waterfall --columns`: the median one-thread CPU time of each
/// impairment column over the grid (`--quick`: the quick grid, three
/// runs a column; full: the full grid, five). Seed 1, the benchmark's
/// waterfall seed, so the table splits the time that benchmark reads.
fn run_columns_cmd(quick: bool) {
    use tinysdr_bench::waterfall::{column_cpu_s, WaterfallConfig};
    let (cfg, reps) = if quick {
        (WaterfallConfig::quick(1), 3)
    } else {
        (WaterfallConfig::full(1), 5)
    };
    let grid = if quick { "quick" } else { "full" };
    println!("\n== One-thread CPU per column: {grid} grid, seed 1, median of {reps} runs ==");
    let columns = column_cpu_s(&cfg, reps);
    let ms = |s: Option<f64>| match s {
        Some(s) => format!("{:>8.0} ms", s * 1e3),
        None => format!("{:>11}", "n/a"),
    };
    for (label, s) in &columns {
        println!("  {label:<12} {}", ms(*s));
    }
    let total: Option<f64> = columns.iter().map(|(_, s)| *s).sum();
    println!("  {:<12} {}", "total", ms(total));
}

/// The PHY conformance waterfalls: sharded sweep, per-scenario curves,
/// 1%-error sensitivity table; in `--quick` mode also asserts the
/// sharded-vs-sequential determinism contract (with the 802.15.4
/// scenario included) and the 802.15.4 spec sensitivity floor.
fn run_waterfall_cmd(quick: bool, seed: u64) {
    use tinysdr_bench::waterfall::{run_waterfall, WaterfallConfig};
    use tinysdr_zigbee::modem::SPEC_SENSITIVITY_DBM;
    let cfg = if quick {
        WaterfallConfig::quick(seed)
    } else {
        WaterfallConfig::full(seed)
    };
    let shards = bench_shards();
    let rep = run_waterfall(&cfg.clone().sharded(shards));
    if quick {
        let seq = run_waterfall(&cfg);
        assert_eq!(
            seq, rep,
            "waterfall determinism contract violated: sharded != sequential"
        );
        println!(
            "determinism contract: {shards} shards == sequential, bit-identical on {} points",
            rep.points.len()
        );
        let zb = rep
            .sensitivity_dbm("802.15.4 OQPSK", "clean", 0.01)
            // lint: allow(unjustified-panic, repro asserts a paper anchor and must abort loudly)
            .expect("802.15.4 curve must cross 1% SER");
        assert!(
            zb <= SPEC_SENSITIVITY_DBM,
            "802.15.4 sensitivity {zb:.1} dBm misses the spec's -85 dBm floor"
        );
        println!("802.15.4 1%-SER sensitivity {zb:.1} dBm <= spec floor -85 dBm");
    }
    for sc in rep.scenario_labels() {
        print_series(
            &format!("Waterfall: {sc} (error %)"),
            "RSSI dBm",
            &rep.to_series(&sc),
        );
    }
    println!("\n== 1%-error sensitivity (dBm) and RX energy per delivered bit (nJ) ==");
    let rx_mw =
        tinysdr_core::profile::platform_power_mw(tinysdr_core::profile::OperatingPoint::LoRaRx);
    let energy = tinysdr_bench::waterfall::energy_per_bit_table(&cfg, &rep, rx_mw, 0.01);
    for (sc, imp, sens) in rep.sensitivity_table(0.01) {
        // pair by (scenario, impairment) key, never by row position
        let nj = energy
            .iter()
            .find(|(s, i, _)| *s == sc && *i == imp)
            .and_then(|(_, _, v)| *v);
        let s = sens
            .map(|s| format!("{s:>8.1}"))
            .unwrap_or_else(|| format!("{:>8}", "no cross"));
        let e = nj
            .map(|e| format!("{e:>10.1}"))
            .unwrap_or_else(|| format!("{:>10}", "-"));
        println!("  {sc:<24} {imp:<12} {s} {e}");
    }
    println!("  paper anchors: LoRa -126 dBm @ SF8/BW125 (Figs. 10-11); BLE -94 dBm (Fig. 12);");
    println!("  802.15.4 spec floor -85 dBm, typical silicon ~-97 dBm");
    println!("  energy priced at the {rx_mw:.0} mW RX platform point through PhyModem air time");
}

/// Thin out a dense spectrum series for terminal display.
fn decimate(s: Series, keep_every: usize) -> Series {
    let mut out = Series::new(s.label.clone());
    for (i, &(x, y)) in s.points.iter().enumerate() {
        if i % keep_every == 0 {
            out.push(x, y);
        }
    }
    out
}
