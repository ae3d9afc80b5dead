//! `vrbench compare A… -- B…`: two sets of result files, one verdict per
//! workload × end-to-end metric.
//!
//! The rule is the one in the choosing-metrics guide, §6 and §8. B is
//! `worse` when its median is worse than A's by more than the metric's
//! bound and by more than A's own run-to-run spread (the distance between
//! its quartiles). B is `better` when it wins at least nine tenths of the
//! pairs (i-th file of A against i-th of B, ties for neither side) and the
//! medians differ by more than that spread. Otherwise the two are the
//! `same` — unless either side's spread is wider than the bound, or a side
//! has fewer than [`MIN_RUNS`] runs and so no spread to speak of, in which
//! case the runs cannot tell, and the verdict is `unresolved`.
//!
//! A figure a workload derives from another of its figures
//! ([`metrics::derived_from`]) is printed with its verdict but not counted:
//! it is the same row twice.

use std::collections::BTreeMap;

use crate::json::{self, Value};
use crate::metrics::{self, Better, Decl};
use crate::stats::{self, Quartiles};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Fewest runs a side needs before its quartiles mean anything.
pub const MIN_RUNS: usize = 5;

/// Judge B against A for one metric.
pub fn judge(
    a: &[f64],
    b: &[f64],
    better: Better,
    bound: f64,
) -> Option<(Quartiles, Quartiles, Verdict)> {
    let (qa, qb) = (stats::quartiles(a)?, stats::quartiles(b)?);
    // Signed so that positive means B is worse, as a share of A's median.
    let sign = if better == Better::Lower { 1.0 } else { -1.0 };
    let base = qa.median.abs().max(f64::MIN_POSITIVE);
    let worse_by = sign * (qb.median - qa.median) / base;
    let a_spread = qa.spread();
    let pairs = a.len().min(b.len());
    let wins = a
        .iter()
        .zip(b)
        .filter(|(x, y)| sign * (*y - *x) < 0.0)
        .count();
    let verdict = if pairs < MIN_RUNS {
        Verdict::Unresolved
    } else if worse_by > bound && worse_by > a_spread {
        Verdict::Worse
    } else if pairs > 0 && wins as f64 >= 0.9 * pairs as f64 && -worse_by > a_spread {
        Verdict::Better
    } else if a_spread.max(qb.spread()) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Same
    };
    Some((qa, qb, verdict))
}

/// (workload, metric) → the values a set of files holds, in file order.
type Samples = BTreeMap<(String, String), Vec<f64>>;

fn load(paths: &[String]) -> Result<Samples, String> {
    let mut samples = Samples::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let workloads = doc
            .get("workloads")
            .and_then(Value::as_object)
            .ok_or(format!("{path}: no \"workloads\" object"))?;
        for (workload, result) in workloads {
            let metrics = result
                .get("metrics")
                .and_then(Value::as_object)
                .ok_or(format!("{path}: {workload} has no \"metrics\" object"))?;
            for (metric, entry) in metrics {
                let value = entry.get("value").and_then(Value::as_f64).ok_or(format!(
                    "{path}: {workload}/{metric} has no numeric \"value\""
                ))?;
                samples
                    .entry((workload.clone(), metric.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(samples)
}

/// `Ok(false)` when some metric is `worse`.
pub fn main(args: &[String]) -> Result<bool, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("compare wants: A.json... -- B.json...")?;
    let (a_paths, b_paths) = (&args[..split], &args[split + 1..]);
    if a_paths.is_empty() || b_paths.is_empty() {
        return Err("compare wants at least one file on each side of --".into());
    }
    let (a, b) = (load(a_paths)?, load(b_paths)?);
    let decls: BTreeMap<String, Decl> = metrics::end_to_end()
        .into_iter()
        .chain(metrics::per_layer())
        .map(|d| (d.name.clone(), d))
        .collect();

    println!(
        "{:<15} {:<40} {:>13} {:>27} {:>13} {:>27} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "A median",
        "A quartiles (n)",
        "B median",
        "B quartiles (n)",
        "change",
        "bound"
    );
    let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    for ((workload, metric), a_values) in &a {
        let (Some(b_values), Some(decl)) = (
            b.get(&(workload.clone(), metric.clone())),
            decls.get(metric),
        ) else {
            continue;
        };
        // Per-layer metrics have no bound: show the change, give no verdict.
        let Some((qa, qb, verdict)) = judge(
            a_values,
            b_values,
            decl.better,
            decl.bound.unwrap_or(f64::MAX),
        ) else {
            continue;
        };
        let change = if qa.median != 0.0 {
            (qb.median - qa.median) / qa.median.abs() * 100.0
        } else {
            0.0
        };
        let quartiles = |q: &Quartiles| format!("{:.5} .. {:.5} ({})", q.q1, q.q3, q.n);
        let (bound, label) = match (decl.bound, metrics::derived_from(workload, metric)) {
            (Some(bound), None) => {
                *counts.entry(verdict.label()).or_default() += 1;
                (
                    format!("{:.0}%", bound * 100.0),
                    verdict.label().to_string(),
                )
            }
            (Some(bound), Some(source)) => (
                format!("{:.0}%", bound * 100.0),
                format!("{} (derived from {source}, not counted)", verdict.label()),
            ),
            (None, _) => ("-".to_string(), "-".to_string()),
        };
        println!(
            "{workload:<15} {metric:<40} {:>13.5} {:>27} {:>13.5} {:>27} {change:>+7.2}% {bound:>6}  {label}",
            qa.median,
            quartiles(&qa),
            qb.median,
            quartiles(&qb),
        );
    }
    let summary: Vec<String> = counts
        .iter()
        .map(|(label, n)| format!("{n} {label}"))
        .collect();
    println!(
        "end-to-end verdicts: {}",
        if summary.is_empty() {
            "none".into()
        } else {
            summary.join(", ")
        }
    );
    Ok(!counts.contains_key(Verdict::Worse.label()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
        judge(a, b, better, bound).unwrap().2
    }

    #[test]
    fn two_draws_of_one_distribution_are_the_same() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let b = [100.2, 99.8, 100.9, 99.1, 100.1];
        assert_eq!(verdict(&a, &b, Better::Lower, 0.10), Verdict::Same);
        assert_eq!(verdict(&a, &b, Better::Higher, 0.10), Verdict::Same);
    }

    #[test]
    fn a_shift_beyond_the_bound_is_worse_in_the_metric_s_direction() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slow = [120.0, 121.0, 119.0, 120.5, 119.5];
        assert_eq!(verdict(&a, &slow, Better::Lower, 0.10), Verdict::Worse);
        // The same numbers are a gain when higher is better.
        assert_eq!(verdict(&a, &slow, Better::Higher, 0.10), Verdict::Better);
        assert_eq!(verdict(&slow, &a, Better::Higher, 0.10), Verdict::Worse);
    }

    #[test]
    fn a_gain_needs_nine_tenths_of_the_pairs_and_more_than_the_spread() {
        let a = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9,
        ];
        let fast: Vec<f64> = a.iter().map(|x| x - 5.0).collect();
        assert_eq!(verdict(&a, &fast, Better::Lower, 0.10), Verdict::Better);
        // Two of ten pairs lost: not a gain, though the median moved.
        let mut mixed = fast.clone();
        mixed[0] = 100.5;
        mixed[1] = 101.5;
        assert_eq!(verdict(&a, &mixed, Better::Lower, 0.10), Verdict::Same);
        // Every pair won, but by less than A's own spread.
        let hair: Vec<f64> = a.iter().map(|x| x - 0.01).collect();
        assert_eq!(verdict(&a, &hair, Better::Lower, 0.10), Verdict::Same);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_same() {
        let a = [80.0, 100.0, 120.0, 90.0, 110.0];
        let b = [85.0, 105.0, 115.0, 95.0, 100.0];
        assert_eq!(verdict(&a, &b, Better::Lower, 0.10), Verdict::Unresolved);
        // ...and a shift inside that spread is not called worse.
        let shifted: Vec<f64> = a.iter().map(|x| x * 1.15).collect();
        assert_eq!(
            verdict(&a, &shifted, Better::Lower, 0.10),
            Verdict::Unresolved
        );
    }

    #[test]
    fn too_few_runs_are_unresolved() {
        assert_eq!(
            verdict(&[100.0; 4], &[200.0; 4], Better::Lower, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&[100.0; 5], &[200.0; 5], Better::Lower, 0.10),
            Verdict::Worse
        );
    }

    #[test]
    fn empty_sides_give_no_verdict() {
        assert!(judge(&[], &[1.0], Better::Lower, 0.1).is_none());
        assert!(judge(&[1.0], &[], Better::Lower, 0.1).is_none());
    }
}
