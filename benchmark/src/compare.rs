//! `--compare a.json b.json`: per-metric relative difference between two
//! result files, judged against each end-to-end metric's bound.

use crate::json::Json;
use crate::metrics::{Better, MetricDef, END_TO_END, PER_LAYER};

/// One result file: workload → metric → value.
type Results = Vec<(String, Vec<(String, f64)>)>;

fn load(path: &str) -> Result<Results, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or_else(|| format!("{path}: no \"workloads\" object"))?;
    let mut out = Vec::new();
    for (name, w) in workloads {
        let mut metrics = Vec::new();
        for section in ["end_to_end", "per_layer"] {
            let Some(values) = w.get(section).and_then(Json::as_obj) else {
                continue;
            };
            for (metric, v) in values {
                if let Some(value) = v.get("value").and_then(Json::as_f64) {
                    metrics.push((metric.clone(), value));
                }
            }
        }
        out.push((name.clone(), metrics));
    }
    Ok(out)
}

/// How much worse `new` is than `old` as a share of `old` (negative when
/// it is better).
pub fn worsening(def: &MetricDef, old: f64, new: f64) -> f64 {
    if old == 0.0 {
        return 0.0;
    }
    match def.better {
        Better::Lower => (new - old) / old.abs(),
        Better::Higher => (old - new) / old.abs(),
    }
}

/// Print the comparison; returns how many end-to-end metrics breached
/// their bound.
pub fn compare(old_path: &str, new_path: &str) -> Result<usize, String> {
    let (old, new) = (load(old_path)?, load(new_path)?);
    let mut breaches = 0;
    println!(
        "{:<16} {:<34} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "old", "new", "worse by", "bound"
    );
    for (workload, old_metrics) in &old {
        let Some((_, new_metrics)) = new.iter().find(|(w, _)| w == workload) else {
            println!("{workload:<16} missing from {new_path}");
            continue;
        };
        for (metric, old_value) in old_metrics {
            let Some((_, new_value)) = new_metrics.iter().find(|(m, _)| m == metric) else {
                continue;
            };
            let bounded = END_TO_END.iter().find(|d| d.name == metric);
            let Some(def) = bounded.or_else(|| PER_LAYER.iter().find(|d| d.name == metric)) else {
                continue;
            };
            let worse = worsening(def, *old_value, *new_value);
            let verdict = match bounded {
                Some(d) if worse > d.bound => {
                    breaches += 1;
                    format!("{:>6.1}%  BREACH", d.bound * 100.0)
                }
                Some(d) => format!("{:>6.1}%", d.bound * 100.0),
                None => "      -".to_string(),
            };
            println!(
                "{workload:<16} {metric:<34} {old_value:>14.5} {new_value:>14.5} {:>8.2}% {verdict}",
                worse * 100.0
            );
        }
    }
    Ok(breaches)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        let lower = END_TO_END
            .iter()
            .find(|d| d.name == "query_p50_ms")
            .unwrap();
        let higher = END_TO_END.iter().find(|d| d.name == "ops_per_s").unwrap();
        assert!((worsening(lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(lower, 10.0, 9.0) + 0.1).abs() < 1e-12);
        assert!((worsening(higher, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!((worsening(higher, 100.0, 110.0) + 0.1).abs() < 1e-12);
        assert_eq!(worsening(lower, 0.0, 5.0), 0.0);
    }
}
