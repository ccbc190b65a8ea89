//! What a run reports: the end-to-end and per-layer metric names the
//! benchmark declares in `BENCHMARK.json`, and the run's outcome.

use anonreg_obs::Json;

/// End-to-end metrics, printed by every workload when tracing is off:
/// `(name, unit)`. What each means on each workload is tabulated in the
/// README beside this file.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
    ("rate_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed by every workload when tracing is on:
/// `(name, unit)`. A layer that is not on a workload's path reads 0
/// there.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("build.sim_ms", "ms"),
    ("explore.wall_ms", "ms"),
    ("explore.fixed_ms", "ms"),
    ("explore.unattributed_ms", "ms"),
    ("explore.step_ms", "ms"),
    ("explore.canon_ms", "ms"),
    ("explore.dedup_ms", "ms"),
    ("explore.steal_ms", "ms"),
    ("explore.idle_ms", "ms"),
    ("explore.states", "count"),
    ("explore.edges", "count"),
    ("explore.states_per_s", "states/s"),
    ("explore.dedup_ratio", "ratio"),
    ("explore.bloom_neg_ratio", "ratio"),
    ("explore.steals", "count"),
    ("explore.graph_drop_ms", "ms"),
    ("analysis.safety_ms", "ms"),
    ("analysis.scc_ms", "ms"),
    ("analysis.renaming_replay_ms", "ms"),
    ("analysis.election_replay_ms", "ms"),
    ("analysis.obstruction_ms", "ms"),
    ("analysis.solo_runs", "count"),
    ("analysis.solo_ops_max", "count"),
    ("canon.ns_per_state", "ns/state"),
    ("canon.code_bytes", "bytes"),
    ("cache.certify_ms", "ms"),
    ("cache.selfcheck_ms", "ms"),
    ("cache.replay_ms", "ms"),
    ("cache.replay_states_per_s", "states/s"),
    ("cache.bytes_per_state", "bytes/state"),
    ("cache.warm_hit_ratio", "ratio"),
    ("cache.cert_bytes", "bytes"),
    ("runtime.enter_us_p50", "us"),
    ("runtime.exit_us_p50", "us"),
    ("runtime.ops_per_acquire", "ops"),
    ("runtime.doorway_ms", "ms"),
    ("runtime.waiting_ms", "ms"),
    ("runtime.critical_ms", "ms"),
    ("mem.setup_rss_mib", "MiB"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage", "ratio"),
    ("trace.unattributed_ms", "ms"),
    ("trace.spans", "count"),
];

/// Named values in insertion order.
#[derive(Clone, Debug, Default)]
pub struct Values(pub Vec<(&'static str, f64)>);

impl Values {
    /// Sets `name` (replacing an earlier value).
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// The value of `name`, if set.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// The outcome of one workload run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Operations attempted (instances, families, acquires).
    pub attempted: u64,
    /// Operations that failed a correctness check.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// End-to-end values, by the names of [`END_TO_END`].
    pub e2e: Values,
    /// The workload's own metrics (`verdict_ms_p50`, `cold_ms`, ...)
    /// with units, for the workload record line.
    pub named: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer values, by the names of [`PER_LAYER`] (traced run).
    pub layers: Values,
    /// Sample counts behind the percentiles, for the record line.
    pub samples: Vec<(&'static str, u64)>,
    /// Wall time of each untraced pass, in milliseconds, for the record
    /// line (empty where the workload has no passes).
    pub pass_ms: Vec<f64>,
}

/// Failure descriptions kept per run.
const KEEP_FAILURES: usize = 8;

impl Report {
    /// Counts one operation, failed when `result` is an error.
    pub fn tally(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            if self.failures.len() < KEEP_FAILURES {
                self.failures.push(why);
            }
        }
    }

    /// The final result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, the latter holding every declared metric of the
    /// run's kind.
    #[must_use]
    pub fn result_line(&self, trace: bool) -> Json {
        let (declared, values): (&[(&str, &str)], &Values) = if trace {
            (&PER_LAYER, &self.layers)
        } else {
            (&END_TO_END, &self.e2e)
        };
        let metrics = declared
            .iter()
            .map(|&(name, unit)| {
                let value = values
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                (
                    name.to_string(),
                    Json::obj(vec![
                        ("value", Json::F64(value)),
                        ("unit", Json::Str(unit.into())),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            (
                "correct",
                Json::Bool(self.failed == 0 && self.attempted > 0),
            ),
            ("attempted", Json::U64(self.attempted)),
            ("failed", Json::U64(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root declares exactly the
    /// metrics this file prints, with the same units.
    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, ours) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap().to_string(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                    )
                })
                .collect();
            let ours: Vec<(String, String)> = ours
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        for &(name, _) in &END_TO_END {
            r.e2e.set(name, 1.5);
        }
        r.tally(Ok(()));
        r.tally(Err("flipped".into()));
        let line = r.result_line(false);
        let Json::Obj(fields) = &line else { panic!() };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(line.get("failed"), Some(&Json::U64(1)));
    }
}
