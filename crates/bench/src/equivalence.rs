//! The statistical-equivalence gate for deliberate re-pins.
//!
//! Bit-identity is the default contract: a kernel change keeps every
//! report's digest. A change that moves draws on purpose (a new noise
//! source, a reordered sum) cannot keep them, and lands instead when its
//! report cannot be told from its parent's: `repro waterfall
//! --equivalence <baseline.json>` and `repro link --equivalence
//! <baseline.json>` compare the run, point by point, with a parent's
//! `repro --json` report.
//!
//! Each point is one pair of error counts at equal trials. Both runs
//! carry noise, so neither is taken as the truth: the point's test is
//! Fisher's exact two-sample test ([`fisher_exact_p`]), and a point is
//! rejected when its p-value falls below [`ALPHA`] divided by the number
//! of points (Bonferroni), so a pure reseed fails the whole gate with
//! probability at most [`ALPHA`]. The absolute references (the paper
//! anchors, the theory oracles, the noise calibration) stay tier-1
//! tests; this gate only says that the history did not move.

use tinysdr_dsp::stats::{fisher_exact_p, ErrorRate};
use tinysdr_ota::json::Value;

use crate::waterfall::WaterfallReport;

/// Family-wise significance level: the probability that a report
/// equivalent to its baseline is rejected anywhere.
pub const ALPHA: f64 = 0.01;

/// One compared point: what it measures and its counts.
#[derive(Debug, Clone, PartialEq)]
pub struct Count {
    /// The point, as the gate prints it.
    pub label: String,
    /// Errors observed.
    pub errors: u64,
    /// Trials observed.
    pub trials: u64,
}

/// A point the gate rejected.
#[derive(Debug, Clone, PartialEq)]
pub struct Rejection {
    /// The point's label.
    pub label: String,
    /// The baseline's errors.
    pub baseline: u64,
    /// The run's errors.
    pub errors: u64,
    /// Trials, equal on both sides.
    pub trials: u64,
    /// The two-sided p-value of Fisher's exact test.
    pub p: f64,
}

/// The gate's result over one report.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Points compared.
    pub points: usize,
    /// The per-point rejection threshold, [`ALPHA`] over `points`.
    pub threshold: f64,
    /// The smallest p-value and its point's label (`None` without
    /// points).
    pub smallest: Option<(String, f64)>,
    /// Every point whose p-value fell below `threshold`.
    pub rejected: Vec<Rejection>,
}

/// Every point of a waterfall report, labelled by scenario, impairment
/// and RSSI.
pub fn waterfall_counts(report: &WaterfallReport) -> Vec<Count> {
    report
        .points
        .iter()
        .map(|p| Count {
            label: format!("{} / {} @ {} dBm", p.scenario, p.impairment, p.rssi_dbm),
            errors: p.errors,
            trials: p.trials,
        })
        .collect()
}

/// The data- and ACK-frame loss counts of every goodput point of a
/// `link_json` document; `None` when the document is not one. The
/// document stores each loss as `lost / trials`, and its `quick` flag
/// fixes the trials, so each count is recovered exactly (a loss that is
/// not such a ratio makes the document foreign).
pub fn link_counts(doc: &Value) -> Option<Vec<Count>> {
    if doc.get("experiment")?.as_str()? != "link" {
        return None;
    }
    let trials = u64::from(crate::link::per_trials(doc.get("quick")?.as_bool()?));
    let mut out = Vec::new();
    for point in doc.get("goodput")?.as_arr()? {
        let rssi = point.get("rssi_dbm")?.as_f64()?;
        for frames in ["data", "ack"] {
            let loss = point.get(&format!("{frames}_loss"))?.as_f64()?;
            let errors = (loss * trials as f64).round();
            if !(0.0..=trials as f64).contains(&errors) || errors / trials as f64 != loss {
                return None;
            }
            out.push(Count {
                label: format!("{frames} frames @ {rssi} dBm"),
                errors: errors as u64,
                trials,
            });
        }
    }
    Some(out)
}

/// Compare a run with its baseline, point by point. An error when the
/// two do not describe the same points at the same trials: the baseline
/// is then another experiment's report, not a parent of this one.
pub fn compare(baseline: &[Count], run: &[Count]) -> Result<Verdict, String> {
    if baseline.len() != run.len() {
        return Err(format!(
            "the baseline has {} points, the run {}",
            baseline.len(),
            run.len()
        ));
    }
    let threshold = ALPHA / run.len().max(1) as f64;
    let mut verdict = Verdict {
        points: run.len(),
        threshold,
        smallest: None,
        rejected: Vec::new(),
    };
    for (b, r) in baseline.iter().zip(run) {
        if b.label != r.label || b.trials != r.trials {
            return Err(format!(
                "baseline point {} ({} trials) against run point {} ({} trials)",
                b.label, b.trials, r.label, r.trials
            ));
        }
        let counter = |errors| {
            let mut c = ErrorRate::new();
            c.record_batch(errors, r.trials);
            c
        };
        let p = fisher_exact_p(&counter(b.errors), &counter(r.errors));
        if verdict.smallest.as_ref().is_none_or(|(_, min)| p < *min) {
            verdict.smallest = Some((r.label.clone(), p));
        }
        if p < threshold {
            verdict.rejected.push(Rejection {
                label: r.label.clone(),
                baseline: b.errors,
                errors: r.errors,
                trials: r.trials,
                p,
            });
        }
    }
    Ok(verdict)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count(label: &str, errors: u64, trials: u64) -> Count {
        Count {
            label: label.into(),
            errors,
            trials,
        }
    }

    #[test]
    fn a_moved_point_is_rejected_and_noise_is_not() {
        let baseline = [
            count("a", 50, 1000),
            count("b", 10, 100),
            count("c", 0, 100),
        ];
        let run = [
            count("a", 52, 1000),
            count("b", 11, 100),
            count("c", 0, 100),
        ];
        let verdict = compare(&baseline, &run).expect("same points");
        assert_eq!(verdict.points, 3);
        assert_eq!(verdict.threshold, ALPHA / 3.0);
        assert!(verdict.rejected.is_empty(), "{verdict:?}");
        let (label, p) = verdict.smallest.expect("points were compared");
        assert!(label == "a" || label == "b");
        assert!(p > 0.5);
        // 50 against 120 errors of 1000 is far past any noise
        let moved = [
            count("a", 120, 1000),
            count("b", 11, 100),
            count("c", 0, 100),
        ];
        let verdict = compare(&baseline, &moved).expect("same points");
        assert_eq!(verdict.rejected.len(), 1);
        let r = &verdict.rejected[0];
        assert_eq!(
            (r.label.as_str(), r.baseline, r.errors, r.trials),
            ("a", 50, 120, 1000)
        );
        assert!(r.p < verdict.threshold);
    }

    #[test]
    fn a_foreign_baseline_is_an_error() {
        let run = [count("a", 5, 100), count("b", 5, 100)];
        for baseline in [
            vec![count("a", 5, 100)],
            vec![count("a", 5, 100), count("c", 5, 100)],
            vec![count("a", 5, 100), count("b", 5, 99)],
        ] {
            assert!(compare(&baseline, &run).is_err(), "{baseline:?}");
        }
    }

    #[test]
    fn link_counts_recover_the_loss_ratios() {
        let point = |rssi_dbm: f64, data: f64, ack: f64| {
            Value::Obj(vec![
                ("rssi_dbm".into(), Value::num(rssi_dbm)),
                ("data_loss".into(), Value::num(data)),
                ("ack_loss".into(), Value::num(ack)),
            ])
        };
        let doc = |loss: f64| {
            Value::Obj(vec![
                ("experiment".into(), Value::str("link")),
                ("quick".into(), Value::Bool(false)),
                (
                    "goodput".into(),
                    Value::Arr(vec![
                        point(-100.0, 149.0 / 150.0, 47.0 / 150.0),
                        point(-98.0, loss, 0.0),
                    ]),
                ),
            ])
        };
        let counts = link_counts(&doc(108.0 / 150.0)).expect("a link report");
        let got: Vec<(&str, u64, u64)> = counts
            .iter()
            .map(|c| (c.label.as_str(), c.errors, c.trials))
            .collect();
        assert_eq!(
            got,
            [
                ("data frames @ -100 dBm", 149, 150),
                ("ack frames @ -100 dBm", 47, 150),
                ("data frames @ -98 dBm", 108, 150),
                ("ack frames @ -98 dBm", 0, 150),
            ]
        );
        // not a ratio of the document's trials, or not a link report
        assert_eq!(link_counts(&doc(0.5001)), None);
        assert_eq!(
            link_counts(&Value::Obj(vec![("kind".into(), Value::str("waterfall"))])),
            None
        );
    }
}
