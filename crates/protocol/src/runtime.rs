use core::fmt;
use core::mem;

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use sparsegossip_conngraph::SpatialHash;
use sparsegossip_grid::Point;
use sparsegossip_walks::{derive_seed, BitSet};

use crate::fault::{FaultPlan, RecoveryConfig};
use crate::message::{Envelope, Event, EventLog, Payload};
use crate::network::NetworkConfig;

/// Salt XORed into the master seed before deriving per-node streams, so
/// node 0's RNG is decorrelated from a mobility generator seeded with
/// the same master (`derive_seed(m, 0)` is exactly SplitMix64's first
/// output from state `m`, which is how `SmallRng::seed_from_u64` seeds
/// xoshiro). The constant is ASCII `"protocol"`.
pub const NODE_STREAM_SALT: u64 = 0x7072_6F74_6F63_6F6C;

/// Message counters accumulated over a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Messages sent (payloads and acks, including later-dropped ones).
    pub sent: u64,
    /// Messages delivered to their destination.
    pub delivered: u64,
    /// Messages lost in transit (loss draws, partition blocks, and
    /// arrivals at a crashed node).
    pub dropped: u64,
    /// `StartGossip` timer firings.
    pub timers: u64,
    /// Node crashes injected by the fault plan.
    pub crashes: u64,
    /// Node restarts after a crash.
    pub restarts: u64,
    /// Retransmissions issued by the retry queue.
    pub retransmits: u64,
    /// Anti-entropy digests sent (timer digests and digest replies).
    pub digests: u64,
}

/// Why a tick could not complete.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RuntimeError {
    /// A send-phase worker thread panicked; the runtime's state is no
    /// longer trustworthy and the run must be abandoned.
    SendWorkerPanicked,
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::SendWorkerPanicked => write!(f, "a send-phase worker thread panicked"),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// One unacked `Gossip` offer remembered for retransmission.
#[derive(Clone, Copy, Debug)]
struct RetryEntry {
    peer: u32,
    /// Retransmissions already issued for this entry.
    attempt: u32,
    /// Earliest tick the next retransmission may go out.
    next_at: u64,
}

/// Exponential backoff after `attempt` retransmissions: 2, 4, 8, …
/// ticks, capped at 64.
fn backoff(attempt: u32) -> u64 {
    1u64 << (attempt + 1).min(6)
}

/// Everything one node owns: its RNG stream and its protocol state.
#[derive(Clone, Debug)]
struct NodeState {
    rng: SmallRng,
    informed: bool,
    informed_at: Option<u64>,
    /// Peers this node has *evidence* know the rumor (received a
    /// `Gossip` or `GossipAck` from them) — never re-offer to these.
    peers_known: BitSet,
    /// Peers offered the rumor this tick (resend suppression within a
    /// tick; cleared when the tick ends).
    sent_to: BitSet,
    sent_this_tick: u32,
    /// Whether the node is running (crashes take it down until
    /// `down_until`; a down node neither sends nor receives).
    up: bool,
    /// First tick a crashed node may restart on.
    down_until: u64,
    /// Unacked offers awaiting retransmission (empty unless
    /// retransmission is enabled).
    retry: Vec<RetryEntry>,
}

/// One computed (not yet applied) send, produced by a node's send phase.
#[derive(Clone, Copy, Debug)]
struct SendAction {
    env: Envelope,
    dropped: bool,
    /// Whether the retry queue (not a first offer) produced this send.
    retransmit: bool,
}

/// The deterministic message-passing runtime the protocol twin runs on.
///
/// Each agent of the mobility model is a node; per logical tick the
/// caller hands the runtime the walkers' current positions, and the
/// runtime floods `Gossip` messages along the visibility graph those
/// positions induce (Manhattan distance ≤ `radius`, found by the
/// labelling's pair scan, [`SpatialHash::for_each_candidate_pair`]).
/// All scheduling is by logical (tick, round) order with canonical
/// within-round sorting, and all randomness comes from per-node
/// [`SmallRng`] streams derived via [`derive_seed`] — runs are
/// byte-reproducible and independent of the worker-thread count.
///
/// A tick proceeds in *rounds*: messages sent with zero delay are
/// delivered in the next round of the same tick, so on an ideal network
/// the rumor floods an entire connected component within one tick —
/// exactly the simulator's radio-faster-than-movement regime.
///
/// Fault injection ([`FaultPlan`]) and recovery ([`RecoveryConfig`])
/// are strictly opt-in: with [`FaultPlan::NONE`] and
/// [`RecoveryConfig::OFF`] (the defaults) not a single extra RNG draw
/// is made and not a single extra event is logged, so the event-log
/// hash is byte-identical to the pre-fault runtime.
#[derive(Clone, Debug)]
pub struct NodeRuntime {
    net: NetworkConfig,
    fault: FaultPlan,
    recovery: RecoveryConfig,
    workers: usize,
    source: u32,
    nodes: Vec<NodeState>,
    /// Mirror of the per-node `informed` flags, for cheap iteration.
    informed: BitSet,
    informed_count: usize,
    completed_at: Option<u64>,
    /// Messages in flight to a later tick.
    future: Vec<Envelope>,
    /// Messages delivered in the current round.
    pending: Vec<Envelope>,
    /// Messages scheduled for the next round of the current tick.
    next_pending: Vec<Envelope>,
    /// Nodes informed during the current round (they flood next).
    fresh: Vec<u32>,
    actions: Vec<SendAction>,
    hash: SpatialHash,
    /// Visible pairs of the current tick, each once.
    edges: Vec<(u32, u32)>,
    /// CSR adjacency of the current tick's visibility graph.
    neighbors: Vec<u32>,
    offsets: Vec<usize>,
    log: EventLog,
    stats: RuntimeStats,
    #[cfg(test)]
    force_worker_panic: bool,
}

impl NodeRuntime {
    /// Creates a runtime of `k` nodes with `source` initially informed.
    ///
    /// `seed` roots every node's private RNG stream
    /// (`derive_seed(seed ^ NODE_STREAM_SALT, node)`); it may safely
    /// equal the mobility seed. `workers` is the scheduler thread
    /// count — it never affects results, only wall-clock time.
    ///
    /// # Panics
    ///
    /// Panics if `source >= k` (callers validate agent counts).
    #[must_use]
    pub fn new(k: usize, source: usize, net: NetworkConfig, seed: u64, workers: usize) -> Self {
        assert!(source < k, "source {source} out of range for k = {k}");
        let nodes = (0..k)
            .map(|i| NodeState {
                rng: SmallRng::seed_from_u64(derive_seed(seed ^ NODE_STREAM_SALT, i as u64)),
                informed: i == source,
                informed_at: (i == source).then_some(0),
                peers_known: BitSet::new(k),
                sent_to: BitSet::new(k),
                sent_this_tick: 0,
                up: true,
                down_until: 0,
                retry: Vec::new(),
            })
            .collect();
        let mut informed = BitSet::new(k);
        informed.insert(source);
        Self {
            net,
            fault: FaultPlan::NONE,
            recovery: RecoveryConfig::OFF,
            workers: workers.max(1),
            source: source as u32,
            nodes,
            informed,
            informed_count: 1,
            completed_at: None,
            future: Vec::new(),
            pending: Vec::new(),
            next_pending: Vec::new(),
            fresh: Vec::new(),
            actions: Vec::new(),
            hash: SpatialHash::default(),
            edges: Vec::new(),
            neighbors: Vec::new(),
            offsets: Vec::new(),
            log: EventLog::new(false),
            stats: RuntimeStats::default(),
            #[cfg(test)]
            force_worker_panic: false,
        }
    }

    /// Sets the scheduler worker-thread count (`≥ 1`; results are
    /// identical for every value).
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
    }

    /// The configured worker-thread count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Installs a fault plan. With [`FaultPlan::NONE`] (the default)
    /// no crash draw is ever made and no delivery is ever blocked.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = plan;
    }

    /// The installed fault plan.
    #[must_use]
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault
    }

    /// Installs a recovery configuration. Retry queues pre-reserve the
    /// configured capacity so steady-state ticks stay allocation-free.
    pub fn set_recovery(&mut self, recovery: RecoveryConfig) {
        self.recovery = recovery;
        if recovery.retransmit() {
            let cap = recovery.retry_cap() as usize;
            for node in &mut self.nodes {
                node.retry.reserve(cap);
            }
        }
    }

    /// The installed recovery configuration.
    #[must_use]
    pub fn recovery(&self) -> &RecoveryConfig {
        &self.recovery
    }

    /// Enables or disables full event-record keeping (the rolling log
    /// hash is always maintained).
    pub fn set_recording(&mut self, on: bool) {
        self.log.set_recording(on);
    }

    /// The event log (hash always valid; records only when recording).
    #[must_use]
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// Message counters so far.
    #[must_use]
    pub fn stats(&self) -> &RuntimeStats {
        &self.stats
    }

    /// The network configuration this runtime was built with.
    #[must_use]
    pub fn net(&self) -> &NetworkConfig {
        &self.net
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the runtime has zero nodes (never true — `k ≥ 1`).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The set of informed nodes.
    #[must_use]
    pub fn informed(&self) -> &BitSet {
        &self.informed
    }

    /// Number of informed nodes.
    #[must_use]
    pub fn informed_count(&self) -> usize {
        self.informed_count
    }

    /// Whether `node` is currently up (crashed nodes are down until
    /// their restart tick).
    #[must_use]
    pub fn is_up(&self, node: usize) -> bool {
        self.nodes[node].up
    }

    /// Tick on which `node` first learned the rumor, if it has.
    #[must_use]
    pub fn informed_at(&self, node: usize) -> Option<u64> {
        self.nodes[node].informed_at
    }

    /// Tick on which the last node learned the rumor, if the broadcast
    /// has completed.
    #[must_use]
    pub fn completed_at(&self) -> Option<u64> {
        self.completed_at
    }

    /// Whether every node is informed.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.completed_at.is_some()
    }

    /// Advances the protocol by one logical tick at time `time`, with
    /// the walkers at `positions` and visibility radius `radius` on a
    /// `side × side` grid. Returns whether the broadcast is complete.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::SendWorkerPanicked`] if a send-phase worker
    /// thread panicked; the runtime must then be abandoned.
    ///
    /// # Panics
    ///
    /// Panics if `positions.len()` differs from the node count.
    pub fn tick(
        &mut self,
        time: u64,
        positions: &[Point],
        radius: u32,
        side: u32,
    ) -> Result<bool, RuntimeError> {
        assert_eq!(
            positions.len(),
            self.nodes.len(),
            "position count must match node count"
        );
        if self.completed_at.is_some() {
            return Ok(true);
        }
        self.rebuild_adjacency(positions, radius, side);
        self.fault_phase(time);
        let gossip_tick = time.is_multiple_of(self.net.gossip_interval());

        // Arrivals scheduled by earlier ticks, in canonical order.
        self.pending.clear();
        let mut i = 0;
        while i < self.future.len() {
            if self.future[i].deliver_at == time {
                self.pending.push(self.future.swap_remove(i));
            } else {
                i += 1;
            }
        }
        self.anti_entropy_phase(time);
        self.pending.sort_unstable_by_key(Envelope::canonical_key);

        // Timers fire at tick start, for nodes informed before the tick.
        if gossip_tick {
            for node in self.informed.iter_ones() {
                self.log.push(Event::StartGossip {
                    tick: time,
                    node: node as u32,
                });
                self.stats.timers += 1;
            }
        }

        let mut round: u32 = 0;
        loop {
            // Deliver this round's messages. Delivery is where faults
            // bite: arrivals at a crashed node and partition-crossing
            // arrivals are dropped (both checks are free of RNG draws,
            // so the no-fault path's draw sequence is untouched).
            self.fresh.clear();
            for idx in 0..self.pending.len() {
                let env = self.pending[idx];
                if !self.nodes[env.dst as usize].up
                    || self.fault.partitions().blocks(time, env.src, env.dst)
                {
                    self.stats.dropped += 1;
                    self.log.push(Event::Drop {
                        tick: time,
                        round,
                        env,
                    });
                    continue;
                }
                self.stats.delivered += 1;
                self.log.push(Event::Deliver {
                    tick: time,
                    round,
                    env,
                });
                self.deliver(env, time, round);
            }
            self.pending.clear();

            // Send phase: round 0 floods from every informed node;
            // later rounds only from nodes informed this round (the
            // others' eligible peer sets can only have shrunk).
            if gossip_tick {
                if round == 0 {
                    self.send_phase_all(time)?;
                } else {
                    self.send_phase_fresh(time);
                }
                self.apply_actions(time, round);
            }

            if self.next_pending.is_empty() {
                break;
            }
            mem::swap(&mut self.pending, &mut self.next_pending);
            self.pending.sort_unstable_by_key(Envelope::canonical_key);
            round += 1;
        }

        // Per-tick send bookkeeping resets when the tick ends.
        for node in &mut self.nodes {
            if node.sent_this_tick > 0 {
                node.sent_to.clear();
                node.sent_this_tick = 0;
            }
        }

        if self.informed_count == self.nodes.len() {
            self.completed_at = Some(time);
        }
        Ok(self.completed_at.is_some())
    }

    /// The crash/restart phase, run at tick start before any delivery.
    /// When `crash_prob > 0` every node consumes exactly one crash draw
    /// per tick — up or down, source or not — so crash realizations
    /// are identical across recovery configurations and worker counts.
    /// The source is exempt from crashing (the rumor itself must
    /// survive, as in the paper's model); down nodes restart once
    /// `down_until` is reached, still state-less.
    fn fault_phase(&mut self, time: u64) {
        let p = self.fault.crash_prob();
        if p <= 0.0 {
            return;
        }
        let delay = self.fault.restart_delay();
        // hot: census row `faulty_twin_ticks_allocate_only_for_queue_growth`
        for i in 0..self.nodes.len() {
            let crash = self.nodes[i].rng.random_bool(p);
            if !self.nodes[i].up {
                if time >= self.nodes[i].down_until {
                    self.nodes[i].up = true;
                    self.stats.restarts += 1;
                    self.log.push(Event::Restart {
                        tick: time,
                        node: i as u32,
                    });
                }
                continue;
            }
            if crash && i as u32 != self.source {
                let node = &mut self.nodes[i];
                node.up = false;
                node.down_until = time.saturating_add(delay);
                node.informed_at = None;
                node.peers_known.clear();
                node.sent_to.clear();
                node.sent_this_tick = 0;
                node.retry.clear();
                if node.informed {
                    node.informed = false;
                    self.informed.remove(i);
                    self.informed_count -= 1;
                }
                self.stats.crashes += 1;
                self.log.push(Event::Crash {
                    tick: time,
                    node: i as u32,
                });
            }
        }
    }

    /// The anti-entropy phase: on digest ticks every up node with at
    /// least one visible neighbor sends a digest of its rumor state to
    /// one uniformly drawn neighbor. Digests are control traffic —
    /// subject to loss and delay, exempt from the send cap.
    fn anti_entropy_phase(&mut self, time: u64) {
        let interval = self.recovery.anti_entropy_interval();
        if interval == 0 || !time.is_multiple_of(interval) {
            return;
        }
        let net = self.net;
        // hot: census row `faulty_twin_ticks_allocate_only_for_queue_growth`
        for i in 0..self.nodes.len() {
            let (start, end) = (self.offsets[i], self.offsets[i + 1]);
            if start == end || !self.nodes[i].up {
                continue;
            }
            let node = &mut self.nodes[i];
            let dst = self.neighbors[node.rng.random_range(start..end)];
            let dropped = node.rng.random_bool(net.drop_prob());
            let delay = if !dropped && net.delay_max() > 0 {
                node.rng.random_range(0..=net.delay_max())
            } else {
                0
            };
            let env = Envelope {
                src: i as u32,
                dst,
                payload: Payload::Digest {
                    rumor: 0,
                    has: node.informed,
                },
                sent_at: time,
                deliver_at: time.saturating_add(delay),
            };
            self.stats.sent += 1;
            self.stats.digests += 1;
            self.log.push(Event::Send {
                tick: time,
                round: 0,
                env,
            });
            if dropped {
                self.stats.dropped += 1;
                self.log.push(Event::Drop {
                    tick: time,
                    round: 0,
                    env,
                });
            } else if delay == 0 {
                self.pending.push(env);
            } else {
                self.future.push(env);
            }
        }
    }

    /// Rebuilds the CSR adjacency of the visibility graph at the
    /// current positions, with per-node neighbor lists sorted ascending.
    ///
    /// One pair scan collects the edges and counts degrees; a prefix sum
    /// makes the counts row ends, which the fill decrements to row starts.
    // hot: census row `faulty_twin_ticks_allocate_only_for_queue_growth`
    fn rebuild_adjacency(&mut self, positions: &[Point], radius: u32, side: u32) {
        self.hash.rebuild(positions, radius, side);
        let (edges, offsets) = (&mut self.edges, &mut self.offsets);
        edges.clear();
        offsets.clear();
        offsets.resize(positions.len() + 1, 0);
        self.hash.for_each_candidate_pair(|a, b| {
            if positions[a as usize].manhattan(positions[b as usize]) <= radius {
                edges.push((a, b));
                offsets[a as usize] += 1;
                offsets[b as usize] += 1;
            }
        });
        let mut end = 0;
        for o in offsets.iter_mut() {
            end += *o;
            *o = end;
        }
        self.neighbors.clear();
        self.neighbors.resize(end, 0);
        for &(a, b) in edges.iter() {
            for (from, to) in [(a, b), (b, a)] {
                offsets[from as usize] -= 1;
                self.neighbors[offsets[from as usize]] = to;
            }
        }
        for row in offsets.windows(2) {
            if row[1] - row[0] >= 2 {
                self.neighbors[row[0]..row[1]].sort_unstable();
            }
        }
    }

    /// Sends a control-plane reply (`GossipAck`, digest reply, or
    /// digest-pulled `Gossip`) from `src`: loss and delay drawn from
    /// the replier's own stream, cap-exempt, routed to the next round
    /// (zero delay) or a future tick.
    fn control_reply(&mut self, src: u32, dst: u32, payload: Payload, time: u64, round: u32) {
        let net = self.net;
        let node = &mut self.nodes[src as usize];
        let dropped = node.rng.random_bool(net.drop_prob());
        let delay = if !dropped && net.delay_max() > 0 {
            node.rng.random_range(0..=net.delay_max())
        } else {
            0
        };
        let env = Envelope {
            src,
            dst,
            payload,
            sent_at: time,
            deliver_at: time.saturating_add(delay),
        };
        self.stats.sent += 1;
        if matches!(payload, Payload::Digest { .. }) {
            self.stats.digests += 1;
        }
        self.log.push(Event::Send {
            tick: time,
            round,
            env,
        });
        if dropped {
            self.stats.dropped += 1;
            self.log.push(Event::Drop {
                tick: time,
                round,
                env,
            });
        } else if delay == 0 {
            self.next_pending.push(env);
        } else {
            self.future.push(env);
        }
    }

    /// Processes one delivered envelope: learn, maybe become informed,
    /// and acknowledge gossip or answer digests.
    fn deliver(&mut self, env: Envelope, time: u64, round: u32) {
        let dst = env.dst as usize;
        match env.payload {
            Payload::Gossip { rumor } => {
                self.nodes[dst].peers_known.insert(env.src as usize);
                if !self.nodes[dst].informed {
                    self.nodes[dst].informed = true;
                    self.nodes[dst].informed_at = Some(time);
                    self.informed.insert(dst);
                    self.informed_count += 1;
                    self.fresh.push(env.dst);
                }
                // Ack so the sender stops re-offering. Control traffic:
                // subject to loss and delay, exempt from the send cap.
                self.control_reply(env.dst, env.src, Payload::GossipAck { rumor }, time, round);
            }
            Payload::GossipAck { .. } => {
                self.nodes[dst].peers_known.insert(env.src as usize);
            }
            Payload::Digest { rumor, has } => {
                if has {
                    // The sender holds the rumor: that is ack-grade
                    // evidence. An uninformed receiver pulls it by
                    // confessing its own miss.
                    self.nodes[dst].peers_known.insert(env.src as usize);
                    if !self.nodes[dst].informed {
                        self.control_reply(
                            env.dst,
                            env.src,
                            Payload::Digest { rumor, has: false },
                            time,
                            round,
                        );
                    }
                } else {
                    // The sender lacks the rumor: any recorded ack
                    // evidence for it is stale (a crash wiped its
                    // state). Forget it; an informed receiver pushes
                    // the rumor straight back.
                    self.nodes[dst].peers_known.remove(env.src as usize);
                    if self.nodes[dst].informed {
                        self.nodes[dst].sent_to.insert(env.src as usize);
                        self.nodes[dst].sent_this_tick += 1;
                        self.control_reply(
                            env.dst,
                            env.src,
                            Payload::Gossip { rumor },
                            time,
                            round,
                        );
                    }
                }
            }
        }
    }

    /// Round-0 send phase: every informed node offers the rumor to its
    /// eligible neighbors. This is the only phase that fans out across
    /// worker threads — each node's sends depend only on its own state
    /// and RNG plus the shared read-only adjacency, and the per-chunk
    /// results are concatenated in node order, so the outcome is
    /// identical for every worker count.
    fn send_phase_all(&mut self, time: u64) -> Result<(), RuntimeError> {
        self.actions.clear();
        let net = self.net;
        let rec = self.recovery;
        let neighbors = &self.neighbors;
        let offsets = &self.offsets;
        let workers = self.workers.min(self.nodes.len()).max(1);
        if workers == 1 {
            for (i, node) in self.nodes.iter_mut().enumerate() {
                if node.informed {
                    let nb = &neighbors[offsets[i]..offsets[i + 1]];
                    node_sends(node, i as u32, nb, net, rec, time, &mut self.actions);
                }
            }
            return Ok(());
        }
        #[cfg(test)]
        let force_panic = self.force_worker_panic;
        let chunk = self.nodes.len().div_ceil(workers);
        let chunk_results: Vec<Option<Vec<SendAction>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .nodes
                .chunks_mut(chunk)
                .enumerate()
                .map(|(ci, nodes)| {
                    scope.spawn(move || {
                        #[cfg(test)]
                        assert!(!force_panic, "test-injected worker panic");
                        let base = ci * chunk;
                        let mut out = Vec::new();
                        for (off, node) in nodes.iter_mut().enumerate() {
                            if node.informed {
                                let i = base + off;
                                let nb = &neighbors[offsets[i]..offsets[i + 1]];
                                node_sends(node, i as u32, nb, net, rec, time, &mut out);
                            }
                        }
                        out
                    })
                })
                .collect();
            // Join *every* handle before the scope ends: an unjoined
            // panicked thread re-panics the scope itself, whereas a
            // joined one surfaces here as `None` and becomes a typed
            // error the caller can propagate.
            handles.into_iter().map(|h| h.join().ok()).collect()
        });
        let mut panicked = false;
        for part in chunk_results {
            match part {
                Some(mut p) => self.actions.append(&mut p),
                None => panicked = true,
            }
        }
        if panicked {
            self.actions.clear();
            return Err(RuntimeError::SendWorkerPanicked);
        }
        Ok(())
    }

    /// Later-round send phase: only nodes informed during the round
    /// just delivered flood further (sequential — `fresh` is tiny).
    fn send_phase_fresh(&mut self, time: u64) {
        let net = self.net;
        let rec = self.recovery;
        let neighbors = &self.neighbors;
        let offsets = &self.offsets;
        for idx in 0..self.fresh.len() {
            let i = self.fresh[idx] as usize;
            let nb = &neighbors[offsets[i]..offsets[i + 1]];
            node_sends(
                &mut self.nodes[i],
                i as u32,
                nb,
                net,
                rec,
                time,
                &mut self.actions,
            );
        }
    }

    /// Commits computed sends in node order: logs them, routes each to
    /// the next round (zero delay), a future tick, or the drop counter.
    fn apply_actions(&mut self, time: u64, round: u32) {
        let mut actions = mem::take(&mut self.actions);
        for a in &actions {
            self.stats.sent += 1;
            if a.retransmit {
                self.stats.retransmits += 1;
            }
            self.log.push(Event::Send {
                tick: time,
                round,
                env: a.env,
            });
            if a.dropped {
                self.stats.dropped += 1;
                self.log.push(Event::Drop {
                    tick: time,
                    round,
                    env: a.env,
                });
            } else if a.env.deliver_at == time {
                self.next_pending.push(a.env);
            } else {
                self.future.push(a.env);
            }
        }
        actions.clear();
        self.actions = actions;
    }
}

/// One node's send computation: first service the retry queue (when
/// retransmission is on), then offer the rumor to every neighbor not
/// yet known informed, not yet offered this tick, and not already
/// queued for backoff — up to the per-tick cap, drawing loss and delay
/// from the node's private RNG.
fn node_sends(
    node: &mut NodeState,
    i: u32,
    neighbors: &[u32],
    net: NetworkConfig,
    rec: RecoveryConfig,
    time: u64,
    out: &mut Vec<SendAction>,
) {
    if rec.retransmit() {
        retry_pass(node, i, neighbors, net, rec, time, out);
    }
    for &j in neighbors {
        if net.send_cap() != 0 && node.sent_this_tick >= net.send_cap() {
            break;
        }
        if node.peers_known.contains(j as usize) || node.sent_to.contains(j as usize) {
            continue;
        }
        if rec.retransmit() && node.retry.iter().any(|e| e.peer == j) {
            // Already offered and awaiting ack: the retry queue owns
            // the resend schedule, don't re-offer eagerly.
            continue;
        }
        node.sent_to.insert(j as usize);
        node.sent_this_tick += 1;
        let dropped = node.rng.random_bool(net.drop_prob());
        let delay = if !dropped && net.delay_max() > 0 {
            node.rng.random_range(0..=net.delay_max())
        } else {
            0
        };
        out.push(SendAction {
            env: Envelope {
                src: i,
                dst: j,
                payload: Payload::Gossip { rumor: 0 },
                sent_at: time,
                deliver_at: time.saturating_add(delay),
            },
            dropped,
            retransmit: false,
        });
        if rec.retransmit() && (node.retry.len() as u32) < rec.retry_cap() {
            node.retry.push(RetryEntry {
                peer: j,
                attempt: 0,
                next_at: time.saturating_add(backoff(0)),
            });
        }
    }
}

/// Services one node's retry queue: drop entries whose peer has acked,
/// retransmit entries that are due and whose peer is visible (with
/// exponential backoff, sharing the per-tick send budget but never
/// blocked by the cap), and give up past `max_retries`.
fn retry_pass(
    node: &mut NodeState,
    i: u32,
    neighbors: &[u32],
    net: NetworkConfig,
    rec: RecoveryConfig,
    time: u64,
    out: &mut Vec<SendAction>,
) {
    // hot: census row `faulty_twin_ticks_allocate_only_for_queue_growth`
    {
        let mut idx = 0;
        while idx < node.retry.len() {
            let entry = node.retry[idx];
            if node.peers_known.contains(entry.peer as usize) {
                node.retry.swap_remove(idx);
                continue;
            }
            if entry.next_at > time || neighbors.binary_search(&entry.peer).is_err() {
                idx += 1;
                continue;
            }
            node.sent_to.insert(entry.peer as usize);
            node.sent_this_tick += 1;
            let dropped = node.rng.random_bool(net.drop_prob());
            let delay = if !dropped && net.delay_max() > 0 {
                node.rng.random_range(0..=net.delay_max())
            } else {
                0
            };
            out.push(SendAction {
                env: Envelope {
                    src: i,
                    dst: entry.peer,
                    payload: Payload::Gossip { rumor: 0 },
                    sent_at: time,
                    deliver_at: time.saturating_add(delay),
                },
                dropped,
                retransmit: true,
            });
            let attempt = entry.attempt + 1;
            if attempt >= rec.max_retries() {
                node.retry.swap_remove(idx);
            } else {
                node.retry[idx].attempt = attempt;
                node.retry[idx].next_at = time.saturating_add(backoff(attempt));
                idx += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{PartitionSchedule, PartitionWindow};
    use proptest::prelude::*;

    fn line(k: usize, spacing: u32) -> Vec<Point> {
        (0..k).map(|i| Point::new(i as u32 * spacing, 0)).collect()
    }

    /// Drives the runtime over static positions until completion or
    /// `max_ticks`.
    fn run_static(
        rt: &mut NodeRuntime,
        positions: &[Point],
        radius: u32,
        side: u32,
        max_ticks: u64,
    ) -> Option<u64> {
        for t in 0..max_ticks {
            if rt.tick(t, positions, radius, side).expect("tick runs") {
                return rt.completed_at();
            }
        }
        rt.completed_at()
    }

    /// One tick's layout for [`NodeRuntime::rebuild_adjacency`]:
    /// `(positions, radius, side)`. A quarter of the radii are 0 and a
    /// quarter reach past the side (a single bucket); half the layouts
    /// crowd into a 3×3 corner, stacking agents on shared cells.
    fn arb_tick(k: usize) -> impl Strategy<Value = (Vec<Point>, u32, u32)> {
        (1u32..=128, 0u32..4, any::<bool>()).prop_flat_map(move |(side, pick, crowd)| {
            let spread = if crowd { side.min(3) } else { side };
            let coords = proptest::collection::vec((0..spread, 0..spread), k..k + 1);
            (0..=side + 2, coords).prop_map(move |(r, coords)| {
                let r = match pick {
                    0 => 0,
                    1 => side + r % 3,
                    _ => r,
                };
                let positions = coords.into_iter().map(|(x, y)| Point::new(x, y)).collect();
                (positions, r, side)
            })
        })
    }

    proptest! {
        #[test]
        fn adjacency_equals_brute_force_neighbor_lists(
            ticks in (2usize..=96).prop_flat_map(|k| proptest::collection::vec(arb_tick(k), 1..6)),
        ) {
            // One runtime over several ticks of moving positions, so the
            // edge, offset and neighbor buffers are reused across
            // geometries and graph sizes.
            let k = ticks[0].0.len();
            let mut rt = NodeRuntime::new(k, 0, NetworkConfig::IDEAL, 1, 1);
            for (positions, r, side) in &ticks {
                rt.rebuild_adjacency(positions, *r, *side);
                prop_assert_eq!(rt.offsets.len(), k + 1);
                prop_assert_eq!(rt.offsets[k], rt.neighbors.len());
                for (i, p) in positions.iter().enumerate() {
                    let brute: Vec<u32> = (0..k as u32)
                        .filter(|&j| j as usize != i && positions[j as usize].manhattan(*p) <= *r)
                        .collect();
                    prop_assert_eq!(&rt.neighbors[rt.offsets[i]..rt.offsets[i + 1]], &brute[..]);
                }
            }
        }
    }

    #[test]
    fn adjacency_links_stacks_at_radius_zero_and_all_pairs_in_one_bucket() {
        let positions = [
            Point::new(2, 2),
            Point::new(0, 0),
            Point::new(2, 2),
            Point::new(2, 2),
            Point::new(1, 0),
        ];
        let rows = |rt: &NodeRuntime| -> Vec<Vec<u32>> {
            rt.offsets
                .windows(2)
                .map(|w| rt.neighbors[w[0]..w[1]].to_vec())
                .collect()
        };
        let mut rt = NodeRuntime::new(5, 0, NetworkConfig::IDEAL, 1, 1);
        rt.rebuild_adjacency(&positions, 0, 4);
        let stacks: [&[u32]; 5] = [&[2, 3], &[], &[0, 3], &[0, 2], &[]];
        assert_eq!(rows(&rt), stacks);
        // r ≥ side: one bucket, and every pair is within reach.
        rt.rebuild_adjacency(&positions, 6, 4);
        let all: [&[u32]; 5] = [
            &[1, 2, 3, 4],
            &[0, 2, 3, 4],
            &[0, 1, 3, 4],
            &[0, 1, 2, 4],
            &[0, 1, 2, 3],
        ];
        assert_eq!(rows(&rt), all);
    }

    #[test]
    fn ideal_network_floods_a_component_in_one_tick() {
        let positions = line(5, 1);
        let mut rt = NodeRuntime::new(5, 0, NetworkConfig::IDEAL, 7, 1);
        let done = run_static(&mut rt, &positions, 1, 16, 10);
        assert_eq!(done, Some(0), "a connected line floods at placement");
        assert_eq!(rt.informed_count(), 5);
        assert_eq!(rt.stats().dropped, 0);
        // 4 gossip hops, each acked.
        assert_eq!(rt.stats().sent, 8);
        assert_eq!(rt.stats().delivered, 8);
    }

    #[test]
    fn disconnected_nodes_stay_uninformed() {
        let positions = line(3, 10);
        let mut rt = NodeRuntime::new(3, 1, NetworkConfig::IDEAL, 7, 1);
        let done = run_static(&mut rt, &positions, 1, 64, 5);
        assert_eq!(done, None);
        assert_eq!(rt.informed_count(), 1);
        assert_eq!(rt.informed_at(1), Some(0));
        assert_eq!(rt.informed_at(0), None);
    }

    #[test]
    fn total_loss_never_informs_anyone() {
        let positions = line(4, 1);
        let net = NetworkConfig::new(1.0, 0, 0, 1).unwrap();
        let mut rt = NodeRuntime::new(4, 0, net, 7, 1);
        let done = run_static(&mut rt, &positions, 1, 16, 20);
        assert_eq!(done, None);
        assert_eq!(rt.informed_count(), 1);
        assert!(rt.stats().dropped > 0);
        assert_eq!(rt.stats().delivered, 0);
    }

    #[test]
    fn delay_defers_delivery_by_whole_ticks() {
        // Exactly-one-tick delay: the neighbor learns on tick 1, not 0.
        let positions = line(2, 1);
        let net = NetworkConfig::new(0.0, 1, 0, 1).unwrap();
        // Hunt for a seed whose first delay draw is 1 (not 0) so the
        // test pins the deferred path deterministically.
        let seed = (0..64)
            .find(|&s| {
                let mut rt = NodeRuntime::new(2, 0, net, s, 1);
                rt.tick(0, &positions, 1, 8).expect("tick runs");
                rt.informed_count() == 1
            })
            .expect("some seed draws delay 1 first");
        let mut rt = NodeRuntime::new(2, 0, net, seed, 1);
        assert!(!rt.tick(0, &positions, 1, 8).expect("tick runs"));
        assert!(rt.tick(1, &positions, 1, 8).expect("tick runs"));
        assert_eq!(rt.informed_at(1), Some(1));
    }

    #[test]
    fn send_cap_throttles_fanout_per_tick() {
        // A star: node 0 sees 4 peers; cap 1 informs one peer per tick.
        let positions = vec![
            Point::new(1, 1),
            Point::new(0, 1),
            Point::new(2, 1),
            Point::new(1, 0),
            Point::new(1, 2),
        ];
        let net = NetworkConfig::new(0.0, 0, 1, 1).unwrap();
        let mut rt = NodeRuntime::new(5, 0, net, 7, 1);
        rt.tick(0, &positions, 1, 8).expect("tick runs");
        // Peers of node 0 can also relay among themselves only if
        // adjacent; in this star they are not (pairwise distance 2),
        // so exactly one new node learns per tick.
        assert_eq!(rt.informed_count(), 2);
        rt.tick(1, &positions, 1, 8).expect("tick runs");
        assert_eq!(rt.informed_count(), 3);
    }

    #[test]
    fn gossip_interval_pauses_flooding_between_firings() {
        let positions = line(2, 1);
        let net = NetworkConfig::new(0.0, 0, 0, 3).unwrap();
        let mut rt = NodeRuntime::new(2, 0, net, 7, 1);
        // Tick 0 is divisible by every interval: floods immediately.
        assert!(rt.tick(0, &positions, 1, 8).expect("tick runs"));
        assert_eq!(rt.completed_at(), Some(0));

        // With the source informed only *after* tick 0 (source = 1 and
        // nodes apart at t=0), nothing can happen on ticks 1..3.
        let apart = line(2, 5);
        let mut rt = NodeRuntime::new(2, 0, net, 7, 1);
        assert!(!rt.tick(0, &apart, 1, 16).expect("tick runs"));
        assert!(!rt.tick(1, &positions, 1, 16).expect("tick runs"));
        assert!(!rt.tick(2, &positions, 1, 16).expect("tick runs"));
        assert!(rt.tick(3, &positions, 1, 16).expect("tick runs"));
        assert_eq!(rt.completed_at(), Some(3));
    }

    #[test]
    fn worker_counts_do_not_change_the_log_hash() {
        let positions: Vec<Point> = (0..32)
            .map(|i| Point::new((i % 8) * 2, (i / 8) * 2))
            .collect();
        let net = NetworkConfig::new(0.2, 2, 2, 1).unwrap();
        let mut reference = None;
        for workers in [1usize, 2, 8] {
            let mut rt = NodeRuntime::new(32, 0, net, 99, workers);
            for t in 0..50 {
                if rt.tick(t, &positions, 3, 32).expect("tick runs") {
                    break;
                }
            }
            let signature = (rt.log().hash(), rt.completed_at(), *rt.stats());
            match &reference {
                None => reference = Some(signature),
                Some(r) => assert_eq!(*r, signature, "workers={workers} diverged"),
            }
        }
    }

    #[test]
    fn worker_counts_do_not_change_the_log_hash_under_faults() {
        let positions: Vec<Point> = (0..32)
            .map(|i| Point::new((i % 8) * 2, (i / 8) * 2))
            .collect();
        let net = NetworkConfig::new(0.2, 1, 2, 1).unwrap();
        let plan = FaultPlan::new(
            0.05,
            3,
            PartitionSchedule::new(vec![PartitionWindow { start: 5, end: 15 }]).unwrap(),
        )
        .unwrap();
        let mut reference = None;
        for workers in [1usize, 2, 8] {
            let mut rt = NodeRuntime::new(32, 0, net, 99, workers);
            rt.set_fault_plan(plan.clone());
            rt.set_recovery(RecoveryConfig::new(true, 4));
            for t in 0..60 {
                if rt.tick(t, &positions, 3, 32).expect("tick runs") {
                    break;
                }
            }
            let signature = (rt.log().hash(), rt.completed_at(), *rt.stats());
            match &reference {
                None => reference = Some(signature),
                Some(r) => assert_eq!(*r, signature, "workers={workers} diverged"),
            }
        }
    }

    #[test]
    fn crashes_lose_state_and_restart() {
        // crash_prob 1: node 1 crashes on every up tick (the source is
        // exempt). With restart_delay 1 it oscillates down/up forever.
        let positions = line(2, 1);
        let plan = FaultPlan::new(1.0, 1, PartitionSchedule::EMPTY).unwrap();
        let mut rt = NodeRuntime::new(2, 0, NetworkConfig::IDEAL, 7, 1);
        rt.set_fault_plan(plan);
        rt.set_recording(true);
        // t0: node 1 crashes before delivery; the offer is dropped.
        assert!(!rt.tick(0, &positions, 1, 8).expect("tick runs"));
        assert!(!rt.is_up(1));
        assert_eq!(rt.informed_count(), 1);
        assert_eq!(rt.stats().crashes, 1);
        // t1: node 1 restarts (state-less) and learns via the offer.
        assert!(rt.tick(1, &positions, 1, 8).expect("tick runs"));
        assert!(rt.is_up(1));
        assert_eq!(rt.stats().restarts, 1);
        assert_eq!(rt.informed_at(1), Some(1));
        let kinds: Vec<String> = rt
            .log()
            .records()
            .iter()
            .filter(|e| matches!(e, Event::Crash { .. } | Event::Restart { .. }))
            .map(Event::to_string)
            .collect();
        assert_eq!(kinds, vec!["t=0 crash node=1", "t=1 restart node=1"]);
    }

    #[test]
    fn source_is_exempt_from_crashing() {
        let positions = line(3, 1);
        let plan = FaultPlan::new(1.0, 2, PartitionSchedule::EMPTY).unwrap();
        let mut rt = NodeRuntime::new(3, 1, NetworkConfig::IDEAL, 11, 1);
        rt.set_fault_plan(plan);
        for t in 0..10 {
            rt.tick(t, &positions, 1, 8).expect("tick runs");
            assert!(rt.is_up(1), "source went down at t={t}");
            assert!(rt.informed().contains(1), "source lost the rumor at t={t}");
            assert!(rt.informed_count() >= 1);
        }
        assert!(rt.stats().crashes > 0, "non-source nodes do crash");
    }

    #[test]
    fn partition_blocks_cross_side_delivery_until_heal() {
        // Find a window start whose hash split separates nodes 0 and 1.
        let start = (0..64)
            .find(|&s| {
                let w = PartitionWindow {
                    start: s,
                    end: s + 1,
                };
                w.side_of(0) != w.side_of(1)
            })
            .expect("some window separates two nodes");
        assert_eq!(start, 0, "the hunt below assumes a t=0 window");
        let sched = PartitionSchedule::new(vec![PartitionWindow { start: 0, end: 5 }]).unwrap();
        assert!(sched.blocks(0, 0, 1), "window must separate the pair");
        let positions = line(2, 1);
        let plan = FaultPlan::new(0.0, 1, sched).unwrap();
        let mut rt = NodeRuntime::new(2, 0, NetworkConfig::IDEAL, 7, 1);
        rt.set_fault_plan(plan);
        let done = run_static(&mut rt, &positions, 1, 8, 20);
        assert_eq!(done, Some(5), "completion lands exactly on the heal tick");
        assert_eq!(rt.stats().dropped, 5, "one blocked offer per blocked tick");
    }

    #[test]
    fn retransmission_recovers_from_heavy_loss() {
        let positions = line(4, 1);
        let net = NetworkConfig::new(0.6, 0, 0, 1).unwrap();
        let mut rt = NodeRuntime::new(4, 0, net, 3, 1);
        rt.set_recovery(RecoveryConfig::new(true, 0));
        let done = run_static(&mut rt, &positions, 1, 16, 400);
        assert!(done.is_some(), "retransmission must push through 60% loss");
        assert!(rt.stats().retransmits > 0, "the retry queue must fire");
    }

    #[test]
    fn retransmission_backs_off_instead_of_reoffering_every_tick() {
        // Node 1 is permanently deaf (partitioned away from node 0 for
        // the whole run). Without retransmission node 0 re-offers every
        // tick; with it, offers follow the backoff schedule and give up
        // after max_retries, so far fewer sends go out.
        let start = 0;
        let sched = PartitionSchedule::new(vec![PartitionWindow { start, end: 1_000 }]).unwrap();
        assert!(sched.blocks(start, 0, 1));
        let positions = line(2, 1);
        let ticks = 64;
        let sends_with = |rec: RecoveryConfig| {
            let mut rt = NodeRuntime::new(2, 0, NetworkConfig::IDEAL, 7, 1);
            rt.set_fault_plan(FaultPlan::new(0.0, 1, sched.clone()).unwrap());
            rt.set_recovery(rec);
            run_static(&mut rt, &positions, 1, 8, ticks);
            rt.stats().sent
        };
        let eager = sends_with(RecoveryConfig::OFF);
        let paced = sends_with(RecoveryConfig::new(true, 0));
        assert_eq!(eager, ticks, "one re-offer per tick without retransmission");
        assert!(
            paced < eager / 4,
            "backoff must thin the offer stream: {paced} vs {eager}"
        );
    }

    #[test]
    fn anti_entropy_reinforms_a_restarted_node() {
        // Gossip timers fire only at t=0 (interval 1000), so after node
        // 1 crashes and restarts, only anti-entropy can re-teach it.
        let positions = line(2, 1);
        let net = NetworkConfig::new(0.0, 0, 0, 1_000).unwrap();
        let plan = FaultPlan::new(1.0, 1, PartitionSchedule::EMPTY).unwrap();
        let run = |anti_entropy: u64| {
            let mut rt = NodeRuntime::new(2, 0, net, 7, 1);
            rt.set_fault_plan(plan.clone());
            rt.set_recovery(RecoveryConfig::new(false, anti_entropy));
            // t0: node 1 crashes; the t0 offer is dropped on arrival.
            rt.tick(0, &positions, 1, 8).expect("tick runs");
            // t1: node 1 restarts, state-less; no gossip timer fires.
            rt.tick(1, &positions, 1, 8).expect("tick runs");
            rt.informed_at(1)
        };
        assert_eq!(run(0), None, "without anti-entropy the node stays dark");
        assert_eq!(run(1), Some(1), "a digest exchange re-teaches the rumor");
    }

    /// Crash ticks of `node` in a recorded log.
    fn crash_ticks(rt: &NodeRuntime, node: u32) -> Vec<u64> {
        rt.log()
            .records()
            .iter()
            .filter_map(|e| match *e {
                Event::Crash { tick, node: n } if n == node => Some(tick),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn anti_entropy_forgets_stale_ack_evidence() {
        // Nodes 0 and 1 are adjacent and node 2 is out of range, so
        // completion never latches and every tick runs. Node 1 learns
        // and acks at t0, then crashes once. Gossip timers fire every
        // tick, yet node 0 never re-offers: the ack left node 1 in its
        // `peers_known`. Only a digest-miss clears that stale evidence.
        let positions = [Point::new(0, 0), Point::new(1, 0), Point::new(6, 6)];
        let plan = FaultPlan::new(0.05, 2, PartitionSchedule::EMPTY).unwrap();
        let ticks = 40;
        let run = |seed: u64, anti_entropy: u64| {
            let mut rt = NodeRuntime::new(3, 0, NetworkConfig::IDEAL, seed, 1);
            rt.set_fault_plan(plan.clone());
            rt.set_recovery(RecoveryConfig::new(false, anti_entropy));
            rt.set_recording(true);
            assert_eq!(run_static(&mut rt, &positions, 1, 8, ticks), None);
            rt
        };
        let crashes_once = |rt: &NodeRuntime| matches!(crash_ticks(rt, 1)[..], [t] if t > 0);
        let seed = (0..256)
            .find(|&s| crashes_once(&run(s, 1)) && crashes_once(&run(s, 0)))
            .expect("some seed crashes node 1 exactly once after t0");

        let off = run(seed, 0);
        let acked_at_t0 = |rt: &NodeRuntime| {
            rt.log().records().iter().any(|e| {
                matches!(e, Event::Send { tick: 0, env, .. }
                    if env.src == 1 && env.payload == Payload::GossipAck { rumor: 0 })
            })
        };
        assert!(acked_at_t0(&off));
        assert!(off.is_up(1));
        assert_eq!(off.informed_at(1), None, "stale evidence pins node 1 dark");
        assert!(off.nodes[0].peers_known.contains(1));

        // Replay the anti-entropy run up to the crash tick: node 0 still
        // holds node 1's ack although node 1 lost the rumor.
        let crash = crash_ticks(&run(seed, 1), 1)[0];
        let mut rt = NodeRuntime::new(3, 0, NetworkConfig::IDEAL, seed, 1);
        rt.set_fault_plan(plan.clone());
        rt.set_recovery(RecoveryConfig::new(false, 1));
        rt.set_recording(true);
        for t in 0..=crash {
            rt.tick(t, &positions, 1, 8).expect("tick runs");
        }
        assert!(acked_at_t0(&rt));
        assert!(!rt.informed().contains(1));
        assert!(rt.nodes[0].peers_known.contains(1), "stale ack evidence");

        // A digest-miss from node 1 makes node 0 forget the evidence and
        // push the rumor straight back.
        let mut probe = rt.clone();
        let miss = Envelope {
            src: 1,
            dst: 0,
            payload: Payload::Digest {
                rumor: 0,
                has: false,
            },
            sent_at: crash,
            deliver_at: crash,
        };
        probe.deliver(miss, crash, 0);
        assert!(!probe.nodes[0].peers_known.contains(1));
        assert!(probe
            .next_pending
            .iter()
            .any(|e| e.src == 0 && e.dst == 1 && e.payload == Payload::Gossip { rumor: 0 }));

        // End to end: after the restart, node 1's digest-miss reaches
        // node 0, which pushes `Gossip` in the same tick and re-informs
        // node 1.
        for t in crash + 1..ticks {
            rt.tick(t, &positions, 1, 8).expect("tick runs");
        }
        let records = rt.log().records();
        let at = records
            .iter()
            .position(|e| {
                matches!(e, Event::Deliver { tick, env, .. }
                    if *tick > crash && env.src == 1 && env.payload == miss.payload)
            })
            .expect("the restarted node confesses its miss");
        let Event::Deliver { tick: healed, .. } = records[at] else {
            unreachable!("position matched a delivery")
        };
        assert!(records[at..].iter().any(|e| {
            matches!(e, Event::Send { tick, env, .. }
                if *tick == healed && env.src == 0 && env.dst == 1
                    && env.payload == Payload::Gossip { rumor: 0 })
        }));
        assert_eq!(rt.informed_at(1), Some(healed));
    }

    #[test]
    fn crashes_are_survivable_with_full_recovery() {
        // Fifteen nodes on a connected patch plus one out of range, so
        // completion never latches and all 600 ticks run. With
        // retransmission and anti-entropy the patch stays informed
        // through the crashes; without recovery the neighbors' stale
        // ack evidence pins every crashed node dark for good.
        let mut positions: Vec<Point> = (0..15).map(|i| Point::new(i % 4, i / 4)).collect();
        positions.push(Point::new(7, 7));
        let net = NetworkConfig::new(0.1, 0, 0, 1).unwrap();
        let plan = FaultPlan::new(0.02, 2, PartitionSchedule::EMPTY).unwrap();
        // Mean informed count over the second half of the run.
        let run = |rec: RecoveryConfig| {
            let mut rt = NodeRuntime::new(16, 0, net, 2011, 1);
            rt.set_fault_plan(plan.clone());
            rt.set_recovery(rec);
            let mut informed = 0;
            for t in 0..600 {
                assert!(!rt.tick(t, &positions, 2, 8).expect("tick runs"));
                if t >= 300 {
                    informed += rt.informed_count();
                }
            }
            assert!(rt.stats().crashes >= 15, "crashes keep hitting the patch");
            (informed as f64 / 300.0, rt)
        };
        let (with, rt) = run(RecoveryConfig::new(true, 2));
        assert!(rt.stats().digests > 0 && rt.stats().retransmits > 0);
        let (without, _) = run(RecoveryConfig::OFF);
        assert!(with >= 13.0, "recovery keeps the patch informed: {with}");
        assert!(
            without <= 2.0,
            "without recovery crashed nodes stay dark: {without}"
        );
    }

    #[test]
    fn worker_panic_surfaces_as_typed_error() {
        let positions = line(8, 1);
        let mut rt = NodeRuntime::new(8, 0, NetworkConfig::IDEAL, 7, 4);
        rt.force_worker_panic = true;
        let err = rt.tick(0, &positions, 1, 16).expect_err("worker panicked");
        assert_eq!(err, RuntimeError::SendWorkerPanicked);
        assert!(err.to_string().contains("worker thread panicked"));
    }

    #[test]
    fn recording_captures_the_event_sequence() {
        let positions = line(2, 1);
        let mut rt = NodeRuntime::new(2, 0, NetworkConfig::IDEAL, 7, 1);
        rt.set_recording(true);
        rt.tick(0, &positions, 1, 8).expect("tick runs");
        let lines: Vec<String> = rt.log().records().iter().map(Event::to_string).collect();
        assert_eq!(
            lines,
            vec![
                "t=0 timer node=0",
                "t=0 r=0 send 0->1 gossip rumor=0 deliver=0",
                "t=0 r=1 deliver 0->1 gossip rumor=0 sent=0",
                "t=0 r=1 send 1->0 ack rumor=0 deliver=0",
                "t=0 r=2 deliver 1->0 ack rumor=0 sent=0",
            ]
        );
        assert_eq!(rt.log().len(), 5);
    }
}
