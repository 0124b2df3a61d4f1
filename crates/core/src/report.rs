//! Experiment results.

use horse_net::flow::FlowId;
use horse_sim::{ClockMode, ModeTransition, SimDuration, SimTime};
use horse_stats::{json_f64, json_string, Json, SeriesSet};
use horse_trace::TraceSummary;

/// Peak resident set size of this process in bytes (Linux `VmHWM` from
/// `/proc/self/status`; 0 on other platforms or read failure). Process-wide
/// and monotone: in a sweep batch it reports the high-water mark across
/// every run so far, not this run's increment.
pub fn peak_rss_bytes() -> u64 {
    #[cfg(target_os = "linux")]
    {
        let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
            return 0;
        };
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                let kb: u64 = rest
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse()
                    .unwrap_or(0);
                return kb * 1024;
            }
        }
        0
    }
    #[cfg(not(target_os = "linux"))]
    {
        0
    }
}

/// Resets the kernel's peak-RSS accounting to the *current* RSS by writing
/// `5` to `/proc/self/clear_refs`, so the next [`peak_rss_bytes`] reads a
/// per-phase high-water mark instead of a process-lifetime one. Without
/// this, the second and later rows of a multi-row benchmark inherit the
/// largest earlier row's peak and report garbage. Returns `false` where
/// the kernel doesn't support the reset (non-Linux, locked-down
/// containers) — callers should then treat peaks as lifetime-monotone.
pub fn reset_peak_rss() -> bool {
    #[cfg(target_os = "linux")]
    {
        std::fs::write("/proc/self/clear_refs", b"5").is_ok()
    }
    #[cfg(not(target_os = "linux"))]
    {
        false
    }
}

/// Everything a finished experiment reports — the inputs for the demo's
/// goodput graph (per TE approach) and for Figure 3's execution times.
#[derive(Debug, Clone, Default)]
pub struct ExperimentReport {
    /// Scenario label (e.g. `"sdn-ecmp-k4"`).
    pub label: String,
    /// Virtual time the experiment covered.
    pub horizon: SimTime,
    /// Time series; `"aggregate"` holds the total host arrival rate in
    /// bits/s (the demo's goodput graph).
    pub goodput: SeriesSet,
    /// DES↔FTI transitions (Figure 1's timeline).
    pub transitions: Vec<ModeTransition>,
    /// Virtual time spent in FTI mode.
    pub fti_time: SimDuration,
    /// Virtual time spent in DES mode.
    pub des_time: SimDuration,
    /// Wall-clock seconds spent building topology + control plane
    /// ("time required to create the topology").
    pub wall_setup_secs: f64,
    /// Wall-clock seconds spent executing the experiment.
    pub wall_run_secs: f64,
    /// Data-plane events processed by the engine.
    pub events_processed: u64,
    /// Control-plane messages exchanged.
    pub control_msgs: u64,
    /// FIB installs (BGP) or FLOW_MODs applied (SDN).
    pub table_writes: u64,
    /// Flows the workload requested.
    pub flows_requested: usize,
    /// Flows that obtained a path.
    pub flows_routed: usize,
    /// Bounded flows that completed, with completion times.
    pub completions: Vec<(FlowId, SimTime)>,
    /// Flow completion times (seconds from each flow's start) for bounded
    /// transfers — the FCT distribution flow-level workloads report.
    pub flow_completion_secs: Vec<f64>,
    /// When the last requested flow obtained a path (BGP convergence /
    /// SDN rule installation done).
    pub all_routed_at: Option<SimTime>,
    /// Hedera elephant moves (0 elsewhere).
    pub scheduler_moves: u64,
    /// Control-plane pump steps executed.
    pub pump_steps: u64,
    /// Cumulative emulated nodes across pump steps (`n × steps`) — the
    /// work a poll-everyone pump would do.
    pub pump_nodes_total: u64,
    /// Nodes the pump actually polled/drained.
    pub pump_nodes_touched: u64,
    /// Full flow-table walks (timeout checks + expiry sweeps).
    pub pump_table_scans: u64,
    /// Intra-run drain workers the pump was configured with (1 = serial;
    /// `HORSE_RUN_THREADS`). A cost/config field: runs at different
    /// worker counts must still be semantically identical.
    pub pump_run_threads: u64,
    /// Pump rounds whose drain ran on the work-stealing pool.
    pub pump_parallel_rounds: u64,
    /// Nodes drained inside parallel rounds.
    pub pump_parallel_nodes: u64,
    /// Fluid-solver invocations (scoped + full).
    pub fluid_solves: u64,
    /// Directed links seeding scoped solves (dirty-set size).
    pub fluid_seed_dlinks: u64,
    /// Flows visited by component closures across all solves.
    pub fluid_flows_touched: u64,
    /// Waterfill scratch buffers reused warm from the pool.
    pub fluid_scratch_reuses: u64,
    /// Completion predictions pushed onto the finish-time heap.
    pub fluid_heap_pushes: u64,
    /// Stale heap entries popped and dropped (lazy invalidation).
    pub fluid_heap_stale_pops: u64,
    /// Scoped solves whose components were sharded on the pool.
    pub fluid_parallel_rounds: u64,
    /// Components solved inside parallel rounds.
    pub fluid_parallel_components: u64,
    /// BGP decision-process invocations (all speakers).
    pub rib_decide_calls: u64,
    /// Decision calls answered from the per-prefix memo cache.
    pub rib_decide_cache_hits: u64,
    /// Cached decisions dropped by RIB mutations.
    pub rib_invalidations: u64,
    /// Candidates examined by decision recomputes.
    pub rib_candidate_touches: u64,
    /// Distinct path-attribute sets interned.
    pub rib_attr_interns: u64,
    /// Attribute-set intern hits (deep clones avoided).
    pub rib_attr_reuses: u64,
    /// Peak attribute-store size summed over speakers.
    pub rib_attr_store_peak: u64,
    /// Export-policy results served from per-peer caches.
    pub rib_export_cache_hits: u64,
    /// Export-policy computations (cache misses).
    pub rib_export_cache_misses: u64,
    /// Peak resident set size of the process in bytes (Linux `VmHWM`;
    /// 0 where unavailable). Process-wide, so sweep batches sharing a
    /// process see the max across runs so far.
    pub mem_peak_rss_bytes: u64,
    /// Distinct prefixes interned, summed over speakers.
    pub mem_prefix_ids: u64,
    /// Distinct peer addresses interned, summed over speakers.
    pub mem_peer_ids: u64,
    /// Entries in the run's shared path-attribute pool.
    pub mem_attr_entries: u64,
    /// Estimated bytes held by the shared path-attribute pool.
    pub mem_attr_bytes_est: u64,
    /// Trace totals for the run (all-zero when tracing was off).
    pub trace: TraceSummary,
}

/// Declares the report's cost counters once, as `"json_key" => field`, in
/// the order [`ExperimentReport::to_json`] writes them after
/// `scheduler_moves`. The JSON writer, [`ExperimentReport::from_json`] and
/// [`ExperimentReport::semantic_json`] (which prints them as zero) all run
/// off this table. A cost counter measures *how hard the engine worked*
/// (pump effort, solver and RIB caching, memory shape, trace volume);
/// anything describing *what the experiment computed* does not belong
/// here, because semantic comparisons ignore every listed counter. A field
/// left out of the table is not written at all.
macro_rules! cost_counters {
    ($($key:literal => $($field:ident).+,)+) => {
        /// Number of entries in the cost-counter table.
        const COST_COUNTERS: usize = [$($key),+].len();

        impl ExperimentReport {
            /// Every cost counter with its JSON key, in JSON order.
            fn cost_counters(&self) -> [(&'static str, u64); COST_COUNTERS] {
                [$(($key, self.$($field).+)),+]
            }

            /// Every cost counter's slot, keyed as in [`Self::cost_counters`].
            fn cost_counter_slots(&mut self) -> [(&'static str, &mut u64); COST_COUNTERS] {
                [$(($key, &mut self.$($field).+)),+]
            }
        }
    };
}

cost_counters! {
    "pump_steps" => pump_steps,
    "pump_nodes_total" => pump_nodes_total,
    "pump_nodes_touched" => pump_nodes_touched,
    "pump_table_scans" => pump_table_scans,
    "pump_run_threads" => pump_run_threads,
    "pump_parallel_rounds" => pump_parallel_rounds,
    "pump_parallel_nodes" => pump_parallel_nodes,
    "fluid_solves" => fluid_solves,
    "fluid_seed_dlinks" => fluid_seed_dlinks,
    "fluid_flows_touched" => fluid_flows_touched,
    "fluid_scratch_reuses" => fluid_scratch_reuses,
    "fluid_heap_pushes" => fluid_heap_pushes,
    "fluid_heap_stale_pops" => fluid_heap_stale_pops,
    "fluid_parallel_rounds" => fluid_parallel_rounds,
    "fluid_parallel_components" => fluid_parallel_components,
    "rib_decide_calls" => rib_decide_calls,
    "rib_decide_cache_hits" => rib_decide_cache_hits,
    "rib_invalidations" => rib_invalidations,
    "rib_candidate_touches" => rib_candidate_touches,
    "rib_attr_interns" => rib_attr_interns,
    "rib_attr_reuses" => rib_attr_reuses,
    "rib_attr_store_peak" => rib_attr_store_peak,
    "rib_export_cache_hits" => rib_export_cache_hits,
    "rib_export_cache_misses" => rib_export_cache_misses,
    "mem_peak_rss_bytes" => mem_peak_rss_bytes,
    "mem_prefix_ids" => mem_prefix_ids,
    "mem_peer_ids" => mem_peer_ids,
    "mem_attr_entries" => mem_attr_entries,
    "mem_attr_bytes_est" => mem_attr_bytes_est,
    "trace_events" => trace.events,
    "trace_dropped" => trace.dropped,
    "trace_fti_attributed_ns" => trace.fti_attributed_ns,
    "trace_conversations" => trace.conversations,
}

impl ExperimentReport {
    /// Time-weighted mean of the aggregate goodput, bits/s.
    pub fn goodput_mean_bps(&self) -> f64 {
        self.goodput
            .get("aggregate")
            .and_then(|s| s.time_weighted_mean())
            .unwrap_or(0.0)
    }

    /// Final aggregate goodput sample, bits/s.
    pub fn goodput_final_bps(&self) -> f64 {
        self.goodput
            .get("aggregate")
            .and_then(|s| s.last())
            .map(|(_, v)| v)
            .unwrap_or(0.0)
    }

    /// Peak aggregate goodput, bits/s.
    pub fn goodput_peak_bps(&self) -> f64 {
        self.goodput
            .get("aggregate")
            .and_then(|s| s.max())
            .unwrap_or(0.0)
    }

    /// Fraction of virtual time spent in FTI mode.
    pub fn fti_fraction(&self) -> f64 {
        let total = self.fti_time.as_secs_f64() + self.des_time.as_secs_f64();
        if total <= 0.0 {
            0.0
        } else {
            self.fti_time.as_secs_f64() / total
        }
    }

    /// Number of mode transitions after the initial DES entry.
    pub fn transition_count(&self) -> usize {
        self.transitions.len().saturating_sub(1)
    }

    /// Renders the transition log as `(t, mode)` rows (Figure 1 data).
    pub fn transition_rows(&self) -> Vec<(f64, &'static str)> {
        self.transitions
            .iter()
            .map(|t| {
                (
                    t.at.as_secs_f64(),
                    match t.mode {
                        ClockMode::Des => "DES",
                        ClockMode::Fti => "FTI",
                    },
                )
            })
            .collect()
    }

    /// FCT percentile over completed transfers (`q` in `[0, 1]`); `None` when
    /// nothing completed.
    pub fn fct_quantile(&self, q: f64) -> Option<f64> {
        if self.flow_completion_secs.is_empty() {
            return None;
        }
        let mut v = self.flow_completion_secs.clone();
        v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN FCTs"));
        let idx = ((q.clamp(0.0, 1.0) * (v.len() - 1) as f64).round()) as usize;
        Some(v[idx])
    }

    /// JSON dump for the bench harnesses. Times are nanosecond integers so
    /// [`ExperimentReport::from_json`] round-trips exactly.
    pub fn to_json(&self) -> String {
        self.write_json(false)
    }

    /// JSON with cost-only fields (wall times and every `cost_counters!`
    /// entry) zeroed — two runs are semantically identical iff these
    /// strings are byte-identical, regardless of how the pump was scheduled.
    pub fn semantic_json(&self) -> String {
        self.write_json(true)
    }

    /// The one JSON writer behind [`Self::to_json`] and
    /// [`Self::semantic_json`]; `semantic` prints every cost field as zero.
    fn write_json(&self, semantic: bool) -> String {
        use std::fmt::Write as _;
        let wall = |secs: f64| json_f64(if semantic { 0.0 } else { secs });
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"label\": {},", json_string(&self.label));
        let _ = writeln!(out, "  \"horizon_ns\": {},", self.horizon.as_nanos());
        out.push_str("  \"goodput\": {");
        for (i, name) in self.goodput.names().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    {}: [", json_string(name));
            let series = self.goodput.get(name).expect("name from names()");
            for (j, (t, v)) in series.points().iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "[{}, {}]", t.as_nanos(), json_f64(*v));
            }
            out.push(']');
        }
        out.push_str("\n  },\n");
        out.push_str("  \"transitions\": [");
        for (i, tr) in self.transitions.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let mode = match tr.mode {
                ClockMode::Des => "DES",
                ClockMode::Fti => "FTI",
            };
            let _ = write!(out, "[{}, \"{mode}\"]", tr.at.as_nanos());
        }
        out.push_str("],\n");
        let _ = writeln!(out, "  \"fti_time_ns\": {},", self.fti_time.as_nanos());
        let _ = writeln!(out, "  \"des_time_ns\": {},", self.des_time.as_nanos());
        let _ = writeln!(
            out,
            "  \"wall_setup_secs\": {},",
            wall(self.wall_setup_secs)
        );
        let _ = writeln!(out, "  \"wall_run_secs\": {},", wall(self.wall_run_secs));
        let _ = writeln!(out, "  \"events_processed\": {},", self.events_processed);
        let _ = writeln!(out, "  \"control_msgs\": {},", self.control_msgs);
        let _ = writeln!(out, "  \"table_writes\": {},", self.table_writes);
        let _ = writeln!(out, "  \"flows_requested\": {},", self.flows_requested);
        let _ = writeln!(out, "  \"flows_routed\": {},", self.flows_routed);
        out.push_str("  \"completions\": [");
        for (i, (id, t)) in self.completions.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "[{}, {}]", id.0, t.as_nanos());
        }
        out.push_str("],\n");
        out.push_str("  \"flow_completion_secs\": [");
        for (i, s) in self.flow_completion_secs.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_f64(*s));
        }
        out.push_str("],\n");
        match self.all_routed_at {
            Some(t) => {
                let _ = writeln!(out, "  \"all_routed_at_ns\": {},", t.as_nanos());
            }
            None => out.push_str("  \"all_routed_at_ns\": null,\n"),
        }
        let _ = write!(out, "  \"scheduler_moves\": {}", self.scheduler_moves);
        for (key, value) in self.cost_counters() {
            let _ = write!(out, ",\n  \"{key}\": {}", if semantic { 0 } else { value });
        }
        out.push_str("\n}");
        out
    }

    /// Parses a report produced by [`ExperimentReport::to_json`]. A cost
    /// counter that is absent reads as 0 (dumps predating it lack the key);
    /// one that is present but not a `u64` is an error.
    pub fn from_json(text: &str) -> Result<ExperimentReport, String> {
        let v = Json::parse(text)?;
        let field = |k: &str| v.get(k).ok_or_else(|| format!("missing field '{k}'"));
        let num =
            |k: &str| -> Result<u64, String> { field(k)?.as_u64().ok_or(format!("bad '{k}'")) };
        let f64_of =
            |k: &str| -> Result<f64, String> { field(k)?.as_f64().ok_or(format!("bad '{k}'")) };

        let mut goodput = SeriesSet::new();
        if let Json::Obj(series) = field("goodput")? {
            for (name, pts) in series {
                let pts = pts.as_array().ok_or("bad series")?;
                for p in pts {
                    let [t, val] = p.as_array().ok_or("bad point")? else {
                        return Err("bad point".into());
                    };
                    let t = t.as_u64().ok_or("bad point time")?;
                    let val = val.as_f64().ok_or("bad point value")?;
                    goodput.push(name, SimTime::from_nanos(t), val);
                }
            }
        } else {
            return Err("bad 'goodput'".into());
        }

        let mut transitions = Vec::new();
        for tr in field("transitions")?.as_array().ok_or("bad transitions")? {
            let [at, mode] = tr.as_array().ok_or("bad transition")? else {
                return Err("bad transition".into());
            };
            let at = SimTime::from_nanos(at.as_u64().ok_or("bad transition time")?);
            let mode = match mode.as_str() {
                Some("DES") => ClockMode::Des,
                Some("FTI") => ClockMode::Fti,
                other => return Err(format!("bad transition mode {other:?}")),
            };
            transitions.push(ModeTransition { at, mode });
        }

        let mut completions = Vec::new();
        for c in field("completions")?.as_array().ok_or("bad completions")? {
            let [id, t] = c.as_array().ok_or("bad completion")? else {
                return Err("bad completion".into());
            };
            completions.push((
                FlowId(id.as_u64().ok_or("bad completion id")?),
                SimTime::from_nanos(t.as_u64().ok_or("bad completion time")?),
            ));
        }

        let flow_completion_secs = field("flow_completion_secs")?
            .as_array()
            .ok_or("bad flow_completion_secs")?
            .iter()
            .map(|s| s.as_f64().ok_or("bad fct"))
            .collect::<Result<Vec<f64>, _>>()?;

        let all_routed_at = match field("all_routed_at_ns")? {
            Json::Null => None,
            other => Some(SimTime::from_nanos(
                other.as_u64().ok_or("bad all_routed_at_ns")?,
            )),
        };

        let mut report = ExperimentReport {
            label: field("label")?.as_str().ok_or("bad label")?.to_string(),
            horizon: SimTime::from_nanos(num("horizon_ns")?),
            goodput,
            transitions,
            fti_time: SimDuration::from_nanos(num("fti_time_ns")?),
            des_time: SimDuration::from_nanos(num("des_time_ns")?),
            wall_setup_secs: f64_of("wall_setup_secs")?,
            wall_run_secs: f64_of("wall_run_secs")?,
            events_processed: num("events_processed")?,
            control_msgs: num("control_msgs")?,
            table_writes: num("table_writes")?,
            flows_requested: num("flows_requested")? as usize,
            flows_routed: num("flows_routed")? as usize,
            completions,
            flow_completion_secs,
            all_routed_at,
            scheduler_moves: num("scheduler_moves")?,
            ..ExperimentReport::default()
        };
        for (key, counter) in report.cost_counter_slots() {
            if v.get(key).is_some() {
                *counter = num(key)?;
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report whose every cost counter holds a distinct nonzero value.
    fn sample_report() -> ExperimentReport {
        let mut r = ExperimentReport {
            label: "t".to_string(),
            horizon: SimTime::from_millis(10),
            transitions: vec![ModeTransition {
                at: SimTime::ZERO,
                mode: ClockMode::Des,
            }],
            fti_time: SimDuration::from_millis(3),
            des_time: SimDuration::from_millis(7),
            wall_setup_secs: 1.5,
            wall_run_secs: 2.5,
            events_processed: 11,
            control_msgs: 22,
            table_writes: 33,
            flows_requested: 4,
            flows_routed: 4,
            ..ExperimentReport::default()
        };
        for (i, (_, counter)) in r.cost_counter_slots().into_iter().enumerate() {
            *counter = 100 + i as u64;
        }
        r
    }

    #[test]
    fn semantic_json_zeroes_every_cost_key() {
        let sem = sample_report().semantic_json();
        let v = Json::parse(&sem).expect("semantic_json parses");
        let Json::Obj(fields) = &v else {
            panic!("semantic_json is not an object");
        };
        let mut checked = 0;
        for (key, value) in fields {
            let is_cost = key.starts_with("pump_")
                || key.starts_with("fluid_")
                || key.starts_with("rib_")
                || key.starts_with("mem_")
                || key.starts_with("trace_")
                || key.starts_with("wall_");
            if !is_cost {
                continue;
            }
            checked += 1;
            assert_eq!(
                value.as_f64(),
                Some(0.0),
                "cost key {key:?} not zeroed in semantic_json"
            );
        }
        // Every table entry plus the two wall times; a miscount means a
        // cost-prefixed key is written outside the `cost_counters!` table.
        assert_eq!(checked, COST_COUNTERS + 2, "unexpected number of cost keys");
    }

    #[test]
    fn to_json_round_trips_byte_exact() {
        let mut r = sample_report();
        r.goodput.push("aggregate", SimTime::from_millis(1), 2.5e9);
        r.completions.push((FlowId(7), SimTime::from_nanos(9)));
        r.flow_completion_secs.push(0.125);
        r.all_routed_at = Some(SimTime::from_millis(2));
        let json = r.to_json();
        let parsed = ExperimentReport::from_json(&json).expect("parse");
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn cost_counters_default_when_absent_and_reject_bad_values() {
        let r = sample_report();
        let json = r.to_json();
        let line = format!("\n  \"rib_decide_calls\": {},", r.rib_decide_calls);
        assert!(json.contains(&line), "counter line not found in {json}");
        // Dumps predating a counter lack its key: it reads as 0.
        let legacy = json.replacen(&line, "", 1);
        let parsed = ExperimentReport::from_json(&legacy).expect("parse legacy");
        assert_eq!(parsed.rib_decide_calls, 0);
        assert_eq!(parsed.rib_decide_cache_hits, r.rib_decide_cache_hits);
        // A present key must hold a u64.
        for bad in ["\"x\"", "-3", "1.5", "null"] {
            let text = json.replacen(&line, &format!("\n  \"rib_decide_calls\": {bad},"), 1);
            assert_eq!(
                ExperimentReport::from_json(&text).err().as_deref(),
                Some("bad 'rib_decide_calls'"),
                "rib_decide_calls = {bad} must be rejected"
            );
        }
    }

    #[test]
    fn short_arrays_are_errors_not_panics() {
        let mut r = sample_report();
        r.goodput.push("g", SimTime::ZERO, 1.0);
        r.completions.push((FlowId(7), SimTime::from_nanos(9)));
        let json = r.to_json();
        assert!(ExperimentReport::from_json(&json).is_ok());
        for (whole, short, what) in [
            (
                format!("[[0, {}]]", json_f64(1.0)),
                "[[0]]",
                "goodput point",
            ),
            ("[[0, \"DES\"]]".to_string(), "[[0]]", "transition"),
            ("[[7, 9]]".to_string(), "[[7]]", "completion"),
        ] {
            assert!(json.contains(&whole), "{what} not found in {json}");
            let bad = json.replacen(&whole, short, 1);
            assert!(
                ExperimentReport::from_json(&bad).is_err(),
                "short {what} must be rejected"
            );
        }
    }
}
