//! What the traced replay records at each layer boundary, and the
//! per-layer metrics derived from it.

use sparsegossip_conngraph::{Components, SpatialHash};
use sparsegossip_core::RuntimeStats;

/// Busy time of each layer entry point in nanoseconds, summed over the
/// traced runs.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTimes {
    /// `WalkEngine::step_all` / `step_all_into`.
    pub walk: u64,
    /// `SpatialHash::apply_moves` / `rebuild`.
    pub hash: u64,
    /// `components_from_seeds_on_by` / `components_on_by`.
    pub label: u64,
    /// `Process::exchange` of broadcast and gossip, the placement
    /// exchange included.
    pub exchange: u64,
    /// `Process::exchange` of the protocol twin, which is one
    /// `NodeRuntime::tick`, the placement tick included.
    pub tick: u64,
    /// Traced step time: the span of each step (and of the placement
    /// exchange) from its first layer call to the end of its last, the
    /// denominator of every layer share. The layers partition each
    /// span, so the shares of a workload sum to 1; the work counting
    /// between spans is tracing overhead (`trace.overhead`).
    pub total: u64,
}

/// Seed-pure work counts at the layer boundaries, summed over the
/// traced runs: two traced runs of one seed give equal counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerCounts {
    /// Runs replayed.
    pub runs: u64,
    /// Walk steps.
    pub steps: u64,
    /// Σ k · steps.
    pub agent_steps: u64,
    /// Agents whose position changed in a walk step.
    pub moved: u64,
    /// Moves that changed spatial-hash bucket.
    pub crossings: u64,
    /// Agents covered by labelling calls.
    pub labelled: u64,
    /// Components produced by labelling calls.
    pub components: u64,
    /// The largest bucket count of any spatial hash the runs built.
    pub buckets: u64,
    /// The memory of that hash's arrays, computed from its sizes.
    pub hash_bytes: u64,
    /// Twin ticks, the placement tick included.
    pub ticks: u64,
    /// Σ k · ticks.
    pub node_ticks: u64,
    /// Twin messages sent (payloads and acks).
    pub sent: u64,
    /// Twin messages delivered.
    pub delivered: u64,
    /// Twin retransmissions.
    pub retransmits: u64,
    /// Twin anti-entropy digests.
    pub digests: u64,
}

impl LayerCounts {
    /// Records the end of a run of `k` agents that took `steps` steps.
    pub fn add_run(&mut self, k: usize, steps: u64) {
        self.runs += 1;
        self.steps += steps;
        self.agent_steps += k as u64 * steps;
    }

    /// Records one labelling call's output.
    pub fn add_components(&mut self, comps: &Components) {
        self.components += comps.count() as u64;
        self.labelled += (0..comps.count())
            .map(|c| comps.size(c) as u64)
            .sum::<u64>();
    }

    /// Records the size of a spatial hash over `k` agents; `linked` says
    /// whether it was maintained incrementally.
    pub fn add_hash(&mut self, hash: &SpatialHash, k: usize, linked: bool) {
        let buckets = u64::from(hash.buckets_per_side()).pow(2);
        let k = k as u64;
        // u32 words: `offsets` and `cursor` (buckets + 1 each), `agents`
        // and `occupied` (up to k each); linked mode adds `head`
        // (buckets) and `next` (k).
        let mut words = 2 * (buckets + 1) + 2 * k;
        if linked {
            words += buckets + k;
        }
        self.buckets = self.buckets.max(buckets);
        self.hash_bytes = self.hash_bytes.max(4 * words);
    }

    /// Records a twin run's message counters and tick count.
    pub fn add_twin(&mut self, k: usize, ticks: u64, stats: &RuntimeStats) {
        self.ticks += ticks;
        self.node_ticks += k as u64 * ticks;
        self.sent += stats.sent;
        self.delivered += stats.delivered;
        self.retransmits += stats.retransmits;
        self.digests += stats.digests;
    }
}

/// The analysis-layer measurements of the twin sweep (zero on the
/// simulation workloads, which do not enter that layer).
#[derive(Clone, Copy, Debug, Default)]
pub struct AnalysisTimes {
    /// Σ single-thread wall time of every sweep run through
    /// `ScenarioSpec::run_seed_with_scratch`, in seconds.
    pub run_s_sum: f64,
    /// `run_s_sum` ÷ (threads × wall of `ScenarioSweep::run_with_store`).
    pub parallel_efficiency: f64,
    /// Records in the checkpoint store.
    pub records: u64,
    /// Size of the checkpoint store file.
    pub store_bytes: u64,
    /// Wall time of `ResultStore::open_resume`, in seconds.
    pub resume_s: f64,
    /// Wall time of rendering the fresh and the resumed report
    /// (`ScenarioSweepReport::to_json`), in seconds.
    pub report_s: f64,
}

/// One named metric: name, value and unit.
pub type Metric = (&'static str, f64, &'static str);

/// The per-layer metrics, in `BENCHMARK.json` order. Layers a workload
/// does not enter report 0.
#[must_use]
pub fn per_layer_metrics(
    t: &LayerTimes,
    c: &LayerCounts,
    a: &AnalysisTimes,
    overhead: f64,
) -> Vec<Metric> {
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let share = |ns: u64| ratio(ns, t.total);
    vec![
        (
            "walks.step.ns_per_agent",
            ratio(t.walk, c.agent_steps),
            "ns",
        ),
        ("walks.step.share", share(t.walk), "ratio"),
        (
            "walks.step.moved_frac",
            ratio(c.moved, c.agent_steps),
            "ratio",
        ),
        ("conngraph.hash.ns_per_step", ratio(t.hash, c.steps), "ns"),
        ("conngraph.hash.share", share(t.hash), "ratio"),
        (
            "conngraph.hash.crossings_per_step",
            ratio(c.crossings, c.steps),
            "count",
        ),
        ("conngraph.hash.buckets", c.buckets as f64, "count"),
        (
            "conngraph.hash.computed_bytes",
            c.hash_bytes as f64,
            "bytes",
        ),
        ("conngraph.label.ns_per_step", ratio(t.label, c.steps), "ns"),
        ("conngraph.label.share", share(t.label), "ratio"),
        (
            "conngraph.label.agents_per_step",
            ratio(c.labelled, c.steps),
            "count",
        ),
        (
            "conngraph.label.components_per_step",
            ratio(c.components, c.steps),
            "count",
        ),
        (
            "core.exchange.ns_per_step",
            ratio(t.exchange, c.steps),
            "ns",
        ),
        ("core.exchange.share", share(t.exchange), "ratio"),
        ("protocol.tick.ns_per_tick", ratio(t.tick, c.ticks), "ns"),
        ("protocol.tick.share", share(t.tick), "ratio"),
        (
            "protocol.msgs.sent_per_node_tick",
            ratio(c.sent, c.node_ticks),
            "count",
        ),
        (
            "protocol.msgs.delivered_ratio",
            ratio(c.delivered, c.sent),
            "ratio",
        ),
        ("protocol.msgs.retransmits", c.retransmits as f64, "count"),
        ("protocol.msgs.digests", c.digests as f64, "count"),
        ("analysis.sweep.run_s_sum", a.run_s_sum, "s"),
        (
            "analysis.sweep.parallel_efficiency",
            a.parallel_efficiency,
            "ratio",
        ),
        ("analysis.store.records", a.records as f64, "count"),
        ("analysis.store.bytes", a.store_bytes as f64, "bytes"),
        ("analysis.store.resume_s", a.resume_s, "s"),
        ("analysis.report.s", a.report_s, "s"),
        ("trace.overhead", overhead, "ratio"),
    ]
}
