//! The metric registry: every name this benchmark prints, with its unit,
//! direction and — for end-to-end metrics — the bound by which it may
//! worsen before a change counts as a regression. `BENCHMARK.json` at the
//! repository root repeats the end-to-end table; a unit test keeps the
//! two in step.

use std::collections::BTreeMap;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (latencies, set-up, stored bytes).
    Lower,
    /// Larger is better (throughput, hit shares).
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    #[cfg(test)]
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's fixed description.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Relative worsening that counts as a regression (end-to-end only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one of
/// these (see the README for which phase of a workload measures which).
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.20),
    e2e("capacity_qps", "1/s", Higher, 0.20),
    e2e("query_p50_ms", "ms", Lower, 0.20),
    e2e("write_ack_p50_ms", "ms", Lower, 0.20),
    e2e("first_touch_p50_ms", "ms", Lower, 0.25),
    e2e("recover_p50_ms", "ms", Lower, 0.25),
    e2e("stored_bytes_per_user_byte", "B/B", Lower, 0.01),
];

/// Numbers from the traced run; no bounds. A workload that does not cross
/// a layer reports 0 for it. The first three are what a user sees — the
/// tails of the read and write latencies and the time to reopen a
/// snapshot — but too unsteady on a shared two-core host to gate a change
/// on (see the README).
pub const PER_LAYER: &[MetricDef] = &[
    layer("query_p99_ms", "ms", Lower),
    layer("write_ack_p99_ms", "ms", Lower),
    layer("open_p50_ms", "ms", Lower),
    layer("joingraph.compile_us", "us", Lower),
    layer("xmldb.parse_mb_per_s", "MB/s", Higher),
    layer("index.build_ms_per_doc", "ms", Lower),
    layer("index.sample_us", "us", Lower),
    layer("index.value_probe_ns", "ns", Lower),
    layer("engine.session_us", "us", Lower),
    layer("engine.base_list_builds", "count", Lower),
    layer("engine.base_list_hits", "count", Higher),
    layer("engine.plan_hits", "count", Higher),
    layer("engine.plan_misses", "count", Lower),
    layer("engine.plan_demotions", "count", Lower),
    layer("engine.scratch_miss_share", "share", Lower),
    layer("engine.submit_us", "us", Lower),
    layer("engine.queue_depth_mean", "count", Lower),
    layer("engine.queue_depth_max", "count", Lower),
    layer("engine.slo_miss_share", "share", Lower),
    layer("gen.max_lateness_ms", "ms", Lower),
    layer("optimizer.sample_work_share", "share", Lower),
    layer("optimizer.overhead_ms_p50", "ms", Lower),
    layer("optimizer.plan_regret", "ratio", Lower),
    layer("plan.replay_ms_p50", "ms", Lower),
    layer("guard.overhead_share", "share", Lower),
    layer("guard.spot_checks_per_run", "count", Lower),
    layer("ops.exec_work_per_query", "count", Lower),
    layer("ops.edge_kind.step", "count", Lower),
    layer("ops.edge_kind.idx-nl", "count", Lower),
    layer("ops.edge_kind.hash", "count", Lower),
    layer("ops.edge_kind.select", "count", Lower),
    layer("ops.staircase.child_us", "us", Lower),
    layer("ops.staircase.desc_us", "us", Lower),
    layer("ops.staircase.anc_us", "us", Lower),
    layer("ops.valjoin.hash_us", "us", Lower),
    layer("ops.valjoin.index_nl_us", "us", Lower),
    layer("par.dispatch_us", "us", Lower),
    layer("par.par_map_us", "us", Lower),
    layer("storage.open_ms", "ms", Lower),
    layer("storage.doc_decode_ms", "ms", Lower),
    layer("storage.loads_per_cycle", "count", Lower),
    layer("storage.pages_read_per_query", "count", Lower),
    layer("storage.pool.hit_share", "share", Higher),
    layer("storage.pool.misses", "count", Lower),
    layer("storage.pool.evictions", "count", Lower),
    layer("storage.pool.prefetch_hit_share", "share", Higher),
    layer("storage.pool.ghost_promotions", "count", Lower),
    layer("storage.save_ms", "ms", Lower),
    layer("storage.compression_ratio", "ratio", Lower),
    layer("wal.append_commit_us", "us", Lower),
    layer("wal.acks_per_fsync", "ratio", Higher),
    layer("wal.bytes_per_record", "B", Lower),
    layer("wal.bytes_per_user_byte", "B/B", Lower),
    layer("device.writes", "count", Lower),
    layer("device.write_bytes", "B", Lower),
    layer("device.flushes", "count", Lower),
    layer("recovery.checkpoint_ms_p50", "ms", Lower),
    layer("recovery.checkpoint_stall_ms_max", "ms", Lower),
    layer("recovery.replayed_records", "count", Lower),
    layer("recovery.torn_tail_bytes", "B", Lower),
    layer("proc.cpu_user_ms_per_op", "ms", Lower),
    layer("proc.cpu_sys_ms_per_op", "ms", Lower),
    layer("proc.minor_faults_per_op", "count", Lower),
    layer("proc.peak_rss_mb", "MB", Lower),
    layer("trace.overhead_share", "share", Lower),
    layer("trace.accounted_share", "share", Higher),
];

#[cfg(test)]
/// Is `name` a legal metric name under the builder contract: starts with
/// a letter or digit, then letters, digits, `_`, `.`, `-`; at most 64.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
/// Is `unit` legal: letters, digits, `_`, `/`, `%`, `.`, `-`; 1 to 16.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The values one run measured for one of the two tables. Setting a name
/// the table does not define is a bug in the benchmark and panics.
#[derive(Debug, Clone)]
pub struct Values {
    table: &'static [MetricDef],
    values: BTreeMap<&'static str, f64>,
}

impl Values {
    /// An empty value set over [`END_TO_END`].
    pub fn end_to_end() -> Values {
        Values {
            table: END_TO_END,
            values: BTreeMap::new(),
        }
    }

    /// A value set over [`PER_LAYER`], every metric starting at 0 (a
    /// workload that never crosses a layer leaves its metrics there).
    pub fn per_layer() -> Values {
        Values {
            table: PER_LAYER,
            values: PER_LAYER.iter().map(|d| (d.name, 0.0)).collect(),
        }
    }

    /// Record `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = self
            .table
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the registry"));
        self.values.insert(def.name, value);
    }

    /// Table entries with their values, in table order; `Err` names the
    /// first metric that was never set or is not a finite number.
    pub fn complete(&self) -> Result<Vec<(&'static MetricDef, f64)>, String> {
        self.table
            .iter()
            .map(|d| match self.values.get(d.name) {
                Some(v) if v.is_finite() => Ok((d, *v)),
                Some(v) => Err(format!("metric {} is {v}", d.name)),
                None => Err(format!("metric {} was never measured", d.name)),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn names_and_units_obey_the_contract() {
        assert!(END_TO_END.len() <= 16, "at most 16 end-to-end metrics");
        assert!(PER_LAYER.len() <= 128, "at most 128 per-layer metrics");
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "bad metric name {:?}", d.name);
            assert!(valid_unit(d.unit), "bad unit {:?} on {}", d.unit, d.name);
            assert!(seen.insert(d.name), "metric {} defined twice", d.name);
        }
        for d in END_TO_END {
            assert!(
                d.bound > 0.0 && d.bound <= 0.25,
                "{} bound {}",
                d.name,
                d.bound
            );
        }
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    #[test]
    fn name_check_rejects_what_the_contract_rejects() {
        for ok in ["a", "9lives", "ops.edge_kind.idx-nl", "query_p99_ms"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            ".hidden",
            "-x",
            "has space",
            "slash/y",
            "ünï",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("1/s") && valid_unit("B/B") && valid_unit("%"));
        assert!(!valid_unit("") && !valid_unit("per second") && !valid_unit("µs"));
    }

    #[test]
    fn values_report_missing_and_non_finite_metrics() {
        let mut v = Values::end_to_end();
        assert!(v.complete().unwrap_err().contains("setup_s"));
        for d in END_TO_END {
            v.set(d.name, 1.0);
        }
        assert_eq!(v.complete().unwrap().len(), END_TO_END.len());
        v.set("ops_per_s", f64::NAN);
        assert!(v.complete().unwrap_err().contains("ops_per_s"));
        assert_eq!(
            Values::per_layer().complete().unwrap().len(),
            PER_LAYER.len()
        );
    }

    #[test]
    #[should_panic(expected = "not in the registry")]
    fn unknown_metric_names_panic() {
        Values::end_to_end().set("made_up", 1.0);
    }

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// binary prints. They must say the same thing.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let check = |key: &str, table: &[MetricDef], bounded: bool| {
            let listed = doc.get(key).unwrap().as_arr().unwrap();
            assert_eq!(listed.len(), table.len(), "{key} length");
            for (j, d) in listed.iter().zip(table) {
                assert_eq!(j.get("name").unwrap().as_str(), Some(d.name));
                assert_eq!(j.get("unit").unwrap().as_str(), Some(d.unit), "{}", d.name);
                assert_eq!(j.get("better").unwrap().as_str(), Some(d.better.word()));
                if bounded {
                    assert_eq!(
                        j.get("bound").unwrap().as_f64(),
                        Some(d.bound),
                        "{}",
                        d.name
                    );
                }
            }
        };
        check("end_to_end", END_TO_END, true);
        check("per_layer", PER_LAYER, false);
        let names: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(names, crate::workloads::NAMES);
    }
}
