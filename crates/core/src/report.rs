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
#[derive(Debug, Clone)]
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
        use std::fmt::Write as _;
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
            json_f64(self.wall_setup_secs)
        );
        let _ = writeln!(
            out,
            "  \"wall_run_secs\": {},",
            json_f64(self.wall_run_secs)
        );
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
        let _ = writeln!(out, "  \"scheduler_moves\": {},", self.scheduler_moves);
        let _ = writeln!(out, "  \"pump_steps\": {},", self.pump_steps);
        let _ = writeln!(out, "  \"pump_nodes_total\": {},", self.pump_nodes_total);
        let _ = writeln!(
            out,
            "  \"pump_nodes_touched\": {},",
            self.pump_nodes_touched
        );
        let _ = writeln!(out, "  \"pump_table_scans\": {},", self.pump_table_scans);
        let _ = writeln!(out, "  \"pump_run_threads\": {},", self.pump_run_threads);
        let _ = writeln!(
            out,
            "  \"pump_parallel_rounds\": {},",
            self.pump_parallel_rounds
        );
        let _ = writeln!(
            out,
            "  \"pump_parallel_nodes\": {},",
            self.pump_parallel_nodes
        );
        let _ = writeln!(out, "  \"fluid_solves\": {},", self.fluid_solves);
        let _ = writeln!(out, "  \"fluid_seed_dlinks\": {},", self.fluid_seed_dlinks);
        let _ = writeln!(
            out,
            "  \"fluid_flows_touched\": {},",
            self.fluid_flows_touched
        );
        let _ = writeln!(
            out,
            "  \"fluid_scratch_reuses\": {},",
            self.fluid_scratch_reuses
        );
        let _ = writeln!(out, "  \"fluid_heap_pushes\": {},", self.fluid_heap_pushes);
        let _ = writeln!(
            out,
            "  \"fluid_heap_stale_pops\": {},",
            self.fluid_heap_stale_pops
        );
        let _ = writeln!(
            out,
            "  \"fluid_parallel_rounds\": {},",
            self.fluid_parallel_rounds
        );
        let _ = writeln!(
            out,
            "  \"fluid_parallel_components\": {},",
            self.fluid_parallel_components
        );
        let _ = writeln!(out, "  \"rib_decide_calls\": {},", self.rib_decide_calls);
        let _ = writeln!(
            out,
            "  \"rib_decide_cache_hits\": {},",
            self.rib_decide_cache_hits
        );
        let _ = writeln!(out, "  \"rib_invalidations\": {},", self.rib_invalidations);
        let _ = writeln!(
            out,
            "  \"rib_candidate_touches\": {},",
            self.rib_candidate_touches
        );
        let _ = writeln!(out, "  \"rib_attr_interns\": {},", self.rib_attr_interns);
        let _ = writeln!(out, "  \"rib_attr_reuses\": {},", self.rib_attr_reuses);
        let _ = writeln!(
            out,
            "  \"rib_attr_store_peak\": {},",
            self.rib_attr_store_peak
        );
        let _ = writeln!(
            out,
            "  \"rib_export_cache_hits\": {},",
            self.rib_export_cache_hits
        );
        let _ = writeln!(
            out,
            "  \"rib_export_cache_misses\": {},",
            self.rib_export_cache_misses
        );
        let _ = writeln!(
            out,
            "  \"mem_peak_rss_bytes\": {},",
            self.mem_peak_rss_bytes
        );
        let _ = writeln!(out, "  \"mem_prefix_ids\": {},", self.mem_prefix_ids);
        let _ = writeln!(out, "  \"mem_peer_ids\": {},", self.mem_peer_ids);
        let _ = writeln!(out, "  \"mem_attr_entries\": {},", self.mem_attr_entries);
        let _ = writeln!(
            out,
            "  \"mem_attr_bytes_est\": {},",
            self.mem_attr_bytes_est
        );
        let _ = writeln!(out, "  \"trace_events\": {},", self.trace.events);
        let _ = writeln!(out, "  \"trace_dropped\": {},", self.trace.dropped);
        let _ = writeln!(
            out,
            "  \"trace_fti_attributed_ns\": {},",
            self.trace.fti_attributed_ns
        );
        let _ = writeln!(
            out,
            "  \"trace_conversations\": {}",
            self.trace.conversations
        );
        out.push('}');
        out
    }

    /// Every cost-only `u64` counter in the report, as one table. This is
    /// the single place that decides what [`ExperimentReport::semantic_json`]
    /// zeroes: any counter that measures *how hard the engine worked* (pump
    /// effort, RIB caching, memory shape, trace volume) belongs here;
    /// anything describing *what the experiment computed* does not. Adding
    /// a counter to the struct without adding it here would leak it into
    /// semantic comparisons, so the unit test below checks every
    /// `pump_`/`rib_`/`mem_`/`trace_`-prefixed JSON key comes out zero.
    fn cost_counters_mut(&mut self) -> [&mut u64; 33] {
        [
            &mut self.pump_steps,
            &mut self.pump_nodes_total,
            &mut self.pump_nodes_touched,
            &mut self.pump_table_scans,
            &mut self.pump_run_threads,
            &mut self.pump_parallel_rounds,
            &mut self.pump_parallel_nodes,
            &mut self.fluid_solves,
            &mut self.fluid_seed_dlinks,
            &mut self.fluid_flows_touched,
            &mut self.fluid_scratch_reuses,
            &mut self.fluid_heap_pushes,
            &mut self.fluid_heap_stale_pops,
            &mut self.fluid_parallel_rounds,
            &mut self.fluid_parallel_components,
            &mut self.rib_decide_calls,
            &mut self.rib_decide_cache_hits,
            &mut self.rib_invalidations,
            &mut self.rib_candidate_touches,
            &mut self.rib_attr_interns,
            &mut self.rib_attr_reuses,
            &mut self.rib_attr_store_peak,
            &mut self.rib_export_cache_hits,
            &mut self.rib_export_cache_misses,
            &mut self.mem_peak_rss_bytes,
            &mut self.mem_prefix_ids,
            &mut self.mem_peer_ids,
            &mut self.mem_attr_entries,
            &mut self.mem_attr_bytes_est,
            &mut self.trace.events,
            &mut self.trace.dropped,
            &mut self.trace.fti_attributed_ns,
            &mut self.trace.conversations,
        ]
    }

    /// The cost-only wall-clock fields, zeroed alongside the counters.
    fn cost_walls_mut(&mut self) -> [&mut f64; 2] {
        [&mut self.wall_setup_secs, &mut self.wall_run_secs]
    }

    /// JSON with cost-only fields (wall times, pump counters) zeroed —
    /// two runs are semantically identical iff these strings are
    /// byte-identical, regardless of how the pump was scheduled.
    pub fn semantic_json(&self) -> String {
        let mut r = self.clone();
        for wall in r.cost_walls_mut() {
            *wall = 0.0;
        }
        for counter in r.cost_counters_mut() {
            *counter = 0;
        }
        r.to_json()
    }

    /// Parses a report produced by [`ExperimentReport::to_json`].
    pub fn from_json(text: &str) -> Result<ExperimentReport, String> {
        let v = Json::parse(text)?;
        let field = |k: &str| v.get(k).ok_or_else(|| format!("missing field '{k}'"));
        let num =
            |k: &str| -> Result<u64, String> { field(k)?.as_u64().ok_or(format!("bad '{k}'")) };
        let f64_of =
            |k: &str| -> Result<f64, String> { field(k)?.as_f64().ok_or(format!("bad '{k}'")) };
        let opt_num = |k: &str| -> u64 { v.get(k).and_then(|j| j.as_u64()).unwrap_or(0) };

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

        Ok(ExperimentReport {
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
            // Absent in pre-pump-stats dumps: default to 0.
            pump_steps: opt_num("pump_steps"),
            pump_nodes_total: opt_num("pump_nodes_total"),
            pump_nodes_touched: opt_num("pump_nodes_touched"),
            pump_table_scans: opt_num("pump_table_scans"),
            // Absent in pre-parallel-pump dumps: default to 0.
            pump_run_threads: opt_num("pump_run_threads"),
            pump_parallel_rounds: opt_num("pump_parallel_rounds"),
            pump_parallel_nodes: opt_num("pump_parallel_nodes"),
            // Absent in pre-flow-arena dumps: default to 0.
            fluid_solves: opt_num("fluid_solves"),
            fluid_seed_dlinks: opt_num("fluid_seed_dlinks"),
            fluid_flows_touched: opt_num("fluid_flows_touched"),
            fluid_scratch_reuses: opt_num("fluid_scratch_reuses"),
            fluid_heap_pushes: opt_num("fluid_heap_pushes"),
            fluid_heap_stale_pops: opt_num("fluid_heap_stale_pops"),
            fluid_parallel_rounds: opt_num("fluid_parallel_rounds"),
            fluid_parallel_components: opt_num("fluid_parallel_components"),
            // Absent in pre-rib-stats dumps: default to 0.
            rib_decide_calls: opt_num("rib_decide_calls"),
            rib_decide_cache_hits: opt_num("rib_decide_cache_hits"),
            rib_invalidations: opt_num("rib_invalidations"),
            rib_candidate_touches: opt_num("rib_candidate_touches"),
            rib_attr_interns: opt_num("rib_attr_interns"),
            rib_attr_reuses: opt_num("rib_attr_reuses"),
            rib_attr_store_peak: opt_num("rib_attr_store_peak"),
            rib_export_cache_hits: opt_num("rib_export_cache_hits"),
            rib_export_cache_misses: opt_num("rib_export_cache_misses"),
            // Absent in pre-mem-stats dumps: default to 0.
            mem_peak_rss_bytes: opt_num("mem_peak_rss_bytes"),
            mem_prefix_ids: opt_num("mem_prefix_ids"),
            mem_peer_ids: opt_num("mem_peer_ids"),
            mem_attr_entries: opt_num("mem_attr_entries"),
            mem_attr_bytes_est: opt_num("mem_attr_bytes_est"),
            // Absent in pre-trace dumps: default to 0.
            trace: TraceSummary {
                events: opt_num("trace_events"),
                dropped: opt_num("trace_dropped"),
                fti_attributed_ns: opt_num("trace_fti_attributed_ns"),
                conversations: opt_num("trace_conversations"),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> ExperimentReport {
        ExperimentReport {
            label: "t".to_string(),
            horizon: SimTime::from_millis(10),
            goodput: SeriesSet::new(),
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
            completions: Vec::new(),
            flow_completion_secs: Vec::new(),
            all_routed_at: None,
            scheduler_moves: 0,
            pump_steps: 1,
            pump_nodes_total: 2,
            pump_nodes_touched: 3,
            pump_table_scans: 4,
            pump_run_threads: 23,
            pump_parallel_rounds: 24,
            pump_parallel_nodes: 25,
            fluid_solves: 26,
            fluid_seed_dlinks: 27,
            fluid_flows_touched: 28,
            fluid_scratch_reuses: 29,
            fluid_heap_pushes: 30,
            fluid_heap_stale_pops: 31,
            fluid_parallel_rounds: 32,
            fluid_parallel_components: 33,
            rib_decide_calls: 5,
            rib_decide_cache_hits: 6,
            rib_invalidations: 7,
            rib_candidate_touches: 8,
            rib_attr_interns: 9,
            rib_attr_reuses: 10,
            rib_attr_store_peak: 11,
            rib_export_cache_hits: 12,
            rib_export_cache_misses: 13,
            mem_peak_rss_bytes: 18,
            mem_prefix_ids: 19,
            mem_peer_ids: 20,
            mem_attr_entries: 21,
            mem_attr_bytes_est: 22,
            trace: TraceSummary {
                events: 14,
                dropped: 15,
                fti_attributed_ns: 16,
                conversations: 17,
            },
        }
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
        // 33 counters + 2 wall times; a miscount here means a counter was
        // added to the struct but not to `cost_counters_mut`.
        assert_eq!(checked, 35, "unexpected number of cost keys");
    }

    #[test]
    fn trace_summary_round_trips_through_json() {
        let r = sample_report();
        let parsed = ExperimentReport::from_json(&r.to_json()).expect("parse");
        assert_eq!(parsed.trace, r.trace);
        // Pre-trace dumps (no trace_* keys) default to zero.
        let legacy = sample_report().semantic_json();
        let parsed = ExperimentReport::from_json(&legacy).expect("parse");
        assert_eq!(parsed.trace, TraceSummary::default());
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
