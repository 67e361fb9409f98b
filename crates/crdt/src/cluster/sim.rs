//! The fault-injected cluster simulator.
//!
//! A [`Cluster`] runs `n` replicas of one [`DeltaCrdt`] state over a
//! simulated network driven by a [`Schedule`]: ambient loss, duplication
//! and reordering from the baseline [`DeliveryPolicy`], plus timed
//! partitions, asymmetric links, crash-restarts, dropped acks and stale
//! digests. Replication is the acked anti-entropy protocol of
//! [`protocol`](super::protocol) — deltas only, never full states — so
//! convergence is a property the protocol *earns*, step by step, rather
//! than one the simulator grants by fiat.
//!
//! Three properties the test suites lean on:
//!
//! * **Determinism.** Every probabilistic choice draws from one seeded
//!   PRNG and every container iterates in a canonical order, so a run is
//!   a pure function of `(initial state, updates, schedule, config)`. The
//!   [`transcript`](Cluster::transcript) records each event; replaying
//!   the same seed yields a byte-identical transcript.
//! * **Durability model.** Local updates are written through to a durable
//!   snapshot; replicated state received from peers is volatile. A crash
//!   discards volatile state and the restart resumes from the snapshot
//!   with a fresh generation — so a replica's *own* writes survive any
//!   crash, and everything else is re-earned through anti-entropy.
//! * **The oracle stays honest.** [`settle`](Cluster::settle) — the
//!   omniscient "deliver everything instantly" join the old full-state
//!   simulator used as its engine — survives only as a *test oracle*: it
//!   computes the state every replica must eventually reach, and the
//!   suites assert the protocol actually reaches it.

use lambda_join_core::rng::XorShift64;

use std::collections::BTreeMap;

use super::delta::DeltaCrdt;
use super::protocol::{DeltaVerdict, Generation, Inbound, Msg, Outbound, Payload};
use super::schedule::{DeliveryPolicy, Fault, Schedule};
use crate::gcounter::ReplicaId;

/// Protocol tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// A replica initiates anti-entropy with its peers every this many
    /// steps (staggered by replica id so syncs interleave).
    pub sync_interval: u64,
    /// Base retransmission timeout in steps; backoff doubles per attempt.
    pub retry_timeout: u64,
    /// Transmissions per delta before the sender abandons the stream and
    /// resets the link onto a fresh epoch.
    pub max_attempts: u32,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            sync_interval: 2,
            retry_timeout: 4,
            max_attempts: 5,
        }
    }
}

/// Traffic and fault counters for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncStats {
    /// Delta messages put on the wire (originals and retransmissions).
    pub delta_msgs: u64,
    /// Total approximate delta bytes on the wire.
    pub delta_bytes: u64,
    /// What the same transmissions would have cost under full-state
    /// gossip: the sender's full `wire_size` at each delta send.
    pub full_state_bytes_equiv: u64,
    /// Ack replies sent.
    pub acks: u64,
    /// Nack replies sent.
    pub nacks: u64,
    /// Retransmissions.
    pub retries: u64,
    /// Messages lost to policy drops, partitions or degraded links.
    pub drops: u64,
    /// Messages duplicated by the network.
    pub dups: u64,
    /// Links abandoned and rebased onto a new epoch.
    pub link_resets: u64,
    /// Crash-restarts executed.
    pub restarts: u64,
    /// Keepalive probes sent on quiescent links.
    pub heartbeats: u64,
}

#[derive(Debug, Clone)]
struct Node<S: DeltaCrdt> {
    /// Volatile replica state: everything merged so far.
    state: S,
    /// Durable snapshot: local writes (write-through) plus explicit
    /// [`Cluster::persist`] checkpoints. What a restart recovers.
    durable: S,
    /// Crash-restart incarnation counter.
    generation: Generation,
    /// `Some(step)` while crashed: the step the replica restarts.
    down_until: Option<u64>,
    /// Sender-side link state, per peer.
    outbound: BTreeMap<ReplicaId, Outbound<S>>,
    /// Receiver-side link state, per peer.
    inbound: BTreeMap<ReplicaId, Inbound>,
}

#[derive(Debug, Clone)]
struct Envelope<S: DeltaCrdt> {
    deliver_at: u64,
    id: u64,
    msg: Msg<S>,
}

/// A simulated cluster of delta-CRDT replicas under a fault schedule.
#[derive(Debug, Clone)]
pub struct Cluster<S: DeltaCrdt + Clone> {
    nodes: Vec<Node<S>>,
    /// The common starting state — the sound rebase point for link resets
    /// (every replica, restarted or not, is at or above it).
    initial: S,
    schedule: Schedule,
    config: ClusterConfig,
    rng: XorShift64,
    now: u64,
    next_id: u64,
    inflight: Vec<Envelope<S>>,
    stats: SyncStats,
    transcript: Vec<String>,
}

impl<S: DeltaCrdt + Clone> Cluster<S> {
    /// A cluster of `n` replicas starting from `initial`, driven by
    /// `schedule` with protocol knobs `config`.
    pub fn new(n: usize, initial: S, schedule: Schedule, config: ClusterConfig) -> Self {
        assert!(n > 0, "a cluster needs at least one replica");
        let nodes = (0..n)
            .map(|_| Node {
                state: initial.clone(),
                durable: initial.clone(),
                generation: 0,
                down_until: None,
                outbound: BTreeMap::new(),
                inbound: BTreeMap::new(),
            })
            .collect();
        let rng = XorShift64::new(schedule.seed);
        Cluster {
            nodes,
            initial,
            schedule,
            config,
            rng,
            now: 0,
            next_id: 0,
            inflight: Vec::new(),
            stats: SyncStats::default(),
            transcript: Vec::new(),
        }
    }

    /// Convenience: a cluster under a faultless lossy policy (the old
    /// `replica::Cluster::new` signature, for the ported tests).
    pub fn with_policy(n: usize, initial: S, seed: u64, policy: DeliveryPolicy) -> Self {
        Cluster::new(
            n,
            initial,
            Schedule::from_policy(seed, policy),
            ClusterConfig::default(),
        )
    }

    /// The number of replicas.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the cluster is empty (never — see [`Cluster::new`]).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The current simulation step.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Replica `i`'s volatile state.
    pub fn state(&self, i: usize) -> &S {
        &self.nodes[i].state
    }

    /// Replica `i`'s durable snapshot.
    pub fn durable(&self, i: usize) -> &S {
        &self.nodes[i].durable
    }

    /// Traffic counters so far.
    pub fn stats(&self) -> &SyncStats {
        &self.stats
    }

    /// The event transcript so far (replaying the same schedule yields a
    /// byte-identical transcript — the determinism tests join and compare
    /// these).
    pub fn transcript(&self) -> &[String] {
        &self.transcript
    }

    /// Applies a local update at replica `i` and writes it through to the
    /// durable snapshot. Returns `false` (update refused) while `i` is
    /// crashed.
    pub fn update(&mut self, i: usize, f: impl FnOnce(&mut S)) -> bool {
        if self.nodes[i].down_until.is_some() {
            return false;
        }
        let node = &mut self.nodes[i];
        let pre = node.state.summary();
        f(&mut node.state);
        if let Some(delta) = node.state.delta_since(&pre) {
            node.durable.merge_delta(&delta);
        }
        true
    }

    /// Checkpoints replica `i`'s *entire* volatile state (including
    /// replicated data) into its durable snapshot.
    pub fn persist(&mut self, i: usize) {
        let node = &mut self.nodes[i];
        node.durable = node.state.clone();
    }

    /// **Test oracle**: the join of every replica's surviving state — the
    /// value each replica must eventually converge to if no further
    /// updates or crashes occur. (Crashed replicas contribute their
    /// durable snapshot; their volatile state is already lost.) This does
    /// *not* touch the cluster: the protocol has to get there itself.
    pub fn settle(&self) -> S {
        let mut acc = self.initial.clone();
        for node in &self.nodes {
            acc = acc.join(&node.state);
        }
        acc
    }

    /// Whether every replica is up and all states are equal.
    pub fn converged(&self) -> bool {
        if self.nodes.iter().any(|n| n.down_until.is_some()) {
            return false;
        }
        self.nodes.windows(2).all(|w| w[0].state == w[1].state)
    }

    /// The step after which no scheduled fault is active.
    pub fn fault_horizon(&self) -> u64 {
        self.schedule
            .faults
            .iter()
            .map(|f| match f {
                Fault::Partition { at, heal_after, .. } => at + heal_after,
                Fault::Link { at, duration, .. } => at + duration,
                Fault::Crash { at, down_for, .. } => at + down_for,
                Fault::DropAcks { at, duration, .. } => at + duration,
                Fault::StaleDigest { at, duration, .. } => at + duration,
            })
            .max()
            .unwrap_or(0)
    }

    /// Steps until the cluster converges (after the fault horizon), up to
    /// `max_steps`. Returns the step count at convergence.
    pub fn run_to_convergence(&mut self, max_steps: u64) -> Option<u64> {
        let horizon = self.fault_horizon();
        for _ in 0..max_steps {
            if self.now >= horizon && self.converged() {
                return Some(self.now);
            }
            self.step();
        }
        if self.now >= horizon && self.converged() {
            Some(self.now)
        } else {
            None
        }
    }

    /// Runs one simulation step: crash/restart transitions, scheduled
    /// syncs, retransmissions, then message delivery.
    pub fn step(&mut self) {
        let now = self.now;
        self.apply_crashes(now);
        self.apply_restarts(now);
        let outgoing = self.collect_syncs(now);
        self.enqueue_all(now, outgoing);
        let outgoing = self.collect_retries(now);
        self.enqueue_all(now, outgoing);
        self.deliver(now);
        self.now = now + 1;
    }

    fn apply_crashes(&mut self, now: u64) {
        for fault in &self.schedule.faults {
            if let Fault::Crash {
                at,
                replica,
                down_for,
            } = fault
            {
                if *at == now {
                    let i = *replica as usize;
                    if i < self.nodes.len() {
                        let node = &mut self.nodes[i];
                        let until = now + (*down_for).max(1);
                        node.down_until = Some(node.down_until.map_or(until, |u| u.max(until)));
                        // Volatile state dies now; the durable snapshot is
                        // all that survives.
                        node.state = node.durable.clone();
                        self.transcript.push(format!("t{now} crash r{replica}"));
                    }
                }
            }
        }
    }

    fn apply_restarts(&mut self, now: u64) {
        for (i, node) in self.nodes.iter_mut().enumerate() {
            if let Some(until) = node.down_until {
                if now >= until {
                    node.down_until = None;
                    node.generation += 1;
                    node.state = node.durable.clone();
                    node.inbound.clear();
                    node.outbound.clear();
                    self.stats.restarts += 1;
                    self.transcript
                        .push(format!("t{now} restart r{i} gen{}", node.generation));
                }
            }
        }
    }

    fn collect_syncs(&mut self, now: u64) -> Vec<Msg<S>> {
        let n = self.nodes.len();
        let interval = self.config.sync_interval.max(1);
        let base = self.initial.summary();
        let mut out = Vec::new();
        for i in 0..n {
            if self.nodes[i].down_until.is_some() || (now + i as u64) % interval != 0 {
                continue;
            }
            let mut sent = Vec::new();
            let Node {
                state,
                outbound,
                generation,
                ..
            } = &mut self.nodes[i];
            let self_gen = *generation;
            for j in 0..n as ReplicaId {
                if j as usize == i {
                    continue;
                }
                let link = outbound
                    .entry(j)
                    .or_insert_with(|| Outbound::new(base.clone()));
                if let Some(msg) = link.sync(state, i as ReplicaId, j, self_gen, now) {
                    if let Payload::Delta { seq, bytes, .. } = &msg.payload {
                        sent.push((j, *seq, *bytes, state.wire_size()));
                    }
                    out.push(msg);
                } else if link.buffer.is_empty() {
                    // Quiescent link: probe so a silently restarted peer
                    // (whose stale generation would otherwise never show)
                    // gets discovered and re-synced.
                    out.push(Msg {
                        from: i as ReplicaId,
                        to: j,
                        src_gen: self_gen,
                        dst_gen: link.peer_gen,
                        epoch: link.epoch,
                        payload: Payload::Heartbeat,
                    });
                }
            }
            for (j, seq, bytes, full) in sent {
                self.stats.delta_msgs += 1;
                self.stats.delta_bytes += bytes as u64;
                self.stats.full_state_bytes_equiv += full as u64;
                self.transcript
                    .push(format!("t{now} sync r{i}->r{j} seq{seq} {bytes}B"));
            }
        }
        out
    }

    fn collect_retries(&mut self, now: u64) -> Vec<Msg<S>> {
        let base = self.initial.summary();
        let retry_timeout = self.config.retry_timeout.max(1);
        let max_attempts = self.config.max_attempts.max(1);
        let mut out = Vec::new();
        let mut events = Vec::new();
        for (i, node) in self.nodes.iter_mut().enumerate() {
            if node.down_until.is_some() {
                continue;
            }
            let self_gen = node.generation;
            for (j, link) in node.outbound.iter_mut() {
                let (peer_gen, epoch) = (link.peer_gen, link.epoch);
                let Some(entry) = link.due_retry(now, retry_timeout) else {
                    continue;
                };
                if entry.attempts >= max_attempts {
                    // Give up on this stream: rebase onto a new epoch.
                    link.reset(base.clone());
                    self.stats.link_resets += 1;
                    events.push(format!("t{now} reset r{i}->r{j} epoch{}", link.epoch));
                } else {
                    entry.attempts += 1;
                    entry.sent_at = now;
                    self.stats.retries += 1;
                    self.stats.delta_msgs += 1;
                    self.stats.delta_bytes += entry.bytes as u64;
                    events.push(format!(
                        "t{now} retry r{i}->r{j} seq{} try{}",
                        entry.seq, entry.attempts
                    ));
                    out.push(Msg {
                        from: i as ReplicaId,
                        to: *j,
                        src_gen: self_gen,
                        dst_gen: peer_gen,
                        epoch,
                        payload: Payload::Delta {
                            seq: entry.seq,
                            delta: entry.delta.clone(),
                            bytes: entry.bytes,
                        },
                    });
                }
            }
        }
        // A retry costs the full-state ledger too: the old protocol
        // retransmitted whole states on every gossip.
        for msg in &out {
            let from = msg.from as usize;
            self.stats.full_state_bytes_equiv += self.nodes[from].state.wire_size() as u64;
        }
        self.transcript.extend(events);
        out
    }

    /// Pushes messages through the lossy network: baseline drops and
    /// duplicates, randomized delays.
    fn enqueue_all(&mut self, now: u64, msgs: Vec<Msg<S>>) {
        let policy = self.schedule.policy;
        for msg in msgs {
            if matches!(msg.payload, Payload::Heartbeat) {
                self.stats.heartbeats += 1;
            }
            if self.rng.chance(policy.drop_pct) {
                self.stats.drops += 1;
                self.transcript
                    .push(format!("t{now} netdrop r{}->r{}", msg.from, msg.to));
                continue;
            }
            let copies = if self.rng.chance(policy.duplicate_pct) {
                self.stats.dups += 1;
                2
            } else {
                1
            };
            for _ in 0..copies {
                let delay = if policy.max_delay == 0 {
                    0
                } else {
                    self.rng.below(policy.max_delay + 1)
                };
                let id = self.next_id;
                self.next_id += 1;
                self.inflight.push(Envelope {
                    deliver_at: now + delay,
                    id,
                    msg: msg.clone(),
                });
            }
        }
    }

    fn deliver(&mut self, now: u64) {
        let mut due: Vec<Envelope<S>> = Vec::new();
        let mut rest: Vec<Envelope<S>> = Vec::new();
        for env in self.inflight.drain(..) {
            if env.deliver_at <= now {
                due.push(env);
            } else {
                rest.push(env);
            }
        }
        self.inflight = rest;
        // Canonical order, then a seeded shuffle: delivery order within a
        // step is adversarial but replayable.
        due.sort_by_key(|e| e.id);
        for k in (1..due.len()).rev() {
            let j = self.rng.below(k as u64 + 1) as usize;
            due.swap(k, j);
        }
        let mut replies = Vec::new();
        for env in due {
            let msg = env.msg;
            let (from, to) = (msg.from, msg.to);
            if self.partitioned(now, from, to) {
                self.stats.drops += 1;
                self.transcript
                    .push(format!("t{now} partdrop r{from}->r{to}"));
                continue;
            }
            if let Some(pct) = self.degraded(now, from, to) {
                if self.rng.chance(pct) {
                    self.stats.drops += 1;
                    self.transcript
                        .push(format!("t{now} linkdrop r{from}->r{to}"));
                    continue;
                }
            }
            let dst = to as usize;
            if dst >= self.nodes.len() || self.nodes[dst].down_until.is_some() {
                self.stats.drops += 1;
                self.transcript
                    .push(format!("t{now} downdrop r{from}->r{to}"));
                continue;
            }
            match msg.payload {
                Payload::Delta { seq, delta, .. } => {
                    if let Some(reply) =
                        self.on_delta(now, from, to, msg.src_gen, msg.epoch, seq, delta)
                    {
                        replies.push(reply);
                    }
                }
                Payload::Ack { upto } => {
                    self.on_ack(
                        now,
                        from,
                        to,
                        msg.src_gen,
                        msg.dst_gen,
                        msg.epoch,
                        upto,
                        false,
                    );
                }
                Payload::Nack { expected } => {
                    self.on_ack(
                        now,
                        from,
                        to,
                        msg.src_gen,
                        msg.dst_gen,
                        msg.epoch,
                        expected,
                        true,
                    );
                }
                Payload::Heartbeat => {
                    // A probe addressed to a previous incarnation of this
                    // replica: nack so the sender rebases its link. A
                    // matching generation needs no reply.
                    if msg.dst_gen != self.nodes[dst].generation && !self.dropping_acks(now, to) {
                        self.stats.nacks += 1;
                        replies.push(Msg {
                            from: to,
                            to: from,
                            src_gen: self.nodes[dst].generation,
                            dst_gen: msg.src_gen,
                            epoch: msg.epoch,
                            payload: Payload::Nack { expected: 0 },
                        });
                    }
                }
            }
        }
        self.enqueue_all(now, replies);
    }

    /// Handles a delta arriving at `to` from `from`; returns the reply to
    /// transmit, if any.
    #[allow(clippy::too_many_arguments)]
    fn on_delta(
        &mut self,
        now: u64,
        from: ReplicaId,
        to: ReplicaId,
        src_gen: Generation,
        epoch: u32,
        seq: u64,
        delta: S,
    ) -> Option<Msg<S>> {
        let node = &mut self.nodes[to as usize];
        let verdict = node
            .inbound
            .entry(from)
            .or_default()
            .on_delta(src_gen, epoch, seq);
        let payload = match verdict {
            DeltaVerdict::Merge { ack_upto } => {
                node.state.merge_delta(&delta);
                self.transcript
                    .push(format!("t{now} merge r{from}->r{to} seq{seq}"));
                Payload::Ack { upto: ack_upto }
            }
            DeltaVerdict::Duplicate { ack_upto } => Payload::Ack { upto: ack_upto },
            DeltaVerdict::Gap { expected } => Payload::Nack { expected },
            DeltaVerdict::Stale => return None,
        };
        if self.dropping_acks(now, to) {
            self.transcript.push(format!("t{now} ackdrop r{to}"));
            return None;
        }
        // Stale digests: the reply advertises one less than the truth.
        let payload = if self.stale_digests(now, to, from) {
            match payload {
                Payload::Ack { upto } => Payload::Ack {
                    upto: upto.saturating_sub(1),
                },
                Payload::Nack { expected } => Payload::Nack {
                    expected: expected.saturating_sub(1),
                },
                p => p,
            }
        } else {
            payload
        };
        match &payload {
            Payload::Ack { .. } => self.stats.acks += 1,
            Payload::Nack { .. } => self.stats.nacks += 1,
            _ => unreachable!("replies are acks or nacks"),
        }
        Some(Msg {
            from: to,
            to: from,
            // Replies carry the *replier's* generation (so the sender can
            // detect restarts) and echo the delta's generation as
            // `dst_gen` (so stale incarnations discard them).
            src_gen: self.nodes[to as usize].generation,
            dst_gen: src_gen,
            epoch,
            payload,
        })
    }

    /// Handles an ack (`nack == false`) or nack (`true`) arriving at `to`
    /// (the original delta sender) from `from` (the replier).
    #[allow(clippy::too_many_arguments)]
    fn on_ack(
        &mut self,
        now: u64,
        from: ReplicaId,
        to: ReplicaId,
        replier_gen: Generation,
        echoed_gen: Generation,
        epoch: u32,
        count: u64,
        nack: bool,
    ) {
        let base = self.initial.summary();
        let node = &mut self.nodes[to as usize];
        if echoed_gen != node.generation {
            // A reply addressed to a previous incarnation of ourselves.
            return;
        }
        let Some(link) = node.outbound.get_mut(&from) else {
            return;
        };
        if replier_gen > link.peer_gen {
            // The peer restarted: everything we believed it held is
            // suspect. Rebase the link on the cluster's common initial
            // state (a sound lower bound for any incarnation).
            link.peer_gen = replier_gen;
            link.reset(base);
            self.stats.link_resets += 1;
            self.transcript.push(format!(
                "t{now} peer-restart r{to} sees r{from} gen{replier_gen}"
            ));
            return;
        }
        if replier_gen < link.peer_gen || epoch != link.epoch {
            return;
        }
        if nack {
            // Everything below `count` was merged; rewind the rest.
            link.ack(count);
            link.rewind(count);
            self.transcript
                .push(format!("t{now} nack r{from}->r{to} expect{count}"));
        } else {
            link.ack(count);
        }
    }

    // --- fault-window queries ---------------------------------------------

    fn partitioned(&self, now: u64, a: ReplicaId, b: ReplicaId) -> bool {
        self.schedule.faults.iter().any(|f| match f {
            Fault::Partition {
                at,
                groups,
                heal_after,
            } => {
                if !(*at <= now && now < at + heal_after) {
                    return false;
                }
                let ga = groups.iter().position(|g| g.contains(&a));
                let gb = groups.iter().position(|g| g.contains(&b));
                match (ga, gb) {
                    (Some(x), Some(y)) => x != y,
                    // A replica in no group is isolated from everyone.
                    _ => true,
                }
            }
            _ => false,
        })
    }

    fn degraded(&self, now: u64, from: ReplicaId, to: ReplicaId) -> Option<u8> {
        self.schedule
            .faults
            .iter()
            .filter_map(|f| match f {
                Fault::Link {
                    at,
                    from: f_from,
                    to: f_to,
                    drop_pct,
                    duration,
                } if *f_from == from && *f_to == to && *at <= now && now < at + duration => {
                    Some(*drop_pct)
                }
                _ => None,
            })
            .max()
    }

    fn dropping_acks(&self, now: u64, replica: ReplicaId) -> bool {
        self.schedule.faults.iter().any(|f| {
            matches!(f, Fault::DropAcks { at, replica: r, duration }
                if *r == replica && *at <= now && now < at + duration)
        })
    }

    fn stale_digests(&self, now: u64, from: ReplicaId, to: ReplicaId) -> bool {
        self.schedule.faults.iter().any(|f| {
            matches!(f, Fault::StaleDigest { at, from: f, to: t, duration }
                if *f == from && *t == to && *at <= now && now < at + duration)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gset::GSet;
    use crate::mvreg::MvReg;

    fn run_gset(schedule: Schedule) -> Cluster<GSet<u64>> {
        let mut cluster = Cluster::new(4, GSet::new(), schedule, ClusterConfig::default());
        for turn in 0u64..20 {
            let writer = (turn % 4) as usize;
            cluster.update(writer, |s| s.insert(turn));
            cluster.step();
        }
        cluster
    }

    #[test]
    fn gset_cluster_converges_under_adversary() {
        let mut cluster = run_gset(Schedule::from_policy(42, DeliveryPolicy::default()));
        let oracle = cluster.settle();
        let steps = cluster
            .run_to_convergence(500)
            .expect("anti-entropy must converge");
        assert!(steps < 500);
        for i in 0..4 {
            assert_eq!(cluster.state(i), &oracle, "replica {i} diverged");
        }
        assert_eq!(oracle.len(), 20);
    }

    #[test]
    fn convergence_is_schedule_independent() {
        // Different adversaries, same writes ⇒ same final state.
        let mut a = run_gset(Schedule::adversarial(7, 4, 20));
        let mut b = run_gset(Schedule::adversarial(1234, 4, 20));
        a.run_to_convergence(2000).expect("a converges");
        b.run_to_convergence(2000).expect("b converges");
        assert_eq!(a.state(0), b.state(0));
    }

    #[test]
    fn mvreg_cluster_keeps_concurrent_writes() {
        let schedule = Schedule::from_policy(5, DeliveryPolicy::default()).partition(
            0,
            vec![vec![0], vec![1], vec![2]],
            6,
        );
        let mut cluster = Cluster::new(3, MvReg::new(), schedule, ClusterConfig::default());
        // Three isolated concurrent writers.
        for i in 0..3u32 {
            cluster.update(i as usize, |r| r.write(i, format!("w{i}")));
        }
        cluster.run_to_convergence(500).expect("converges");
        assert_eq!(cluster.state(0).sibling_count(), 3);
    }

    #[test]
    fn duplication_is_harmless() {
        let policy = DeliveryPolicy {
            duplicate_pct: 100,
            drop_pct: 0,
            max_delay: 3,
        };
        let mut cluster: Cluster<GSet<u64>> = Cluster::with_policy(3, GSet::new(), 11, policy);
        cluster.update(0, |s| s.insert(1));
        cluster.update(1, |s| s.insert(2));
        cluster.run_to_convergence(200).expect("converges");
        assert_eq!(cluster.state(2).len(), 2);
        assert!(cluster.stats().dups > 0, "the adversary did duplicate");
    }

    #[test]
    fn crash_restart_recovers_durable_writes() {
        let schedule = Schedule::reliable(3).crash(4, 0, 5);
        let mut cluster: Cluster<GSet<u64>> =
            Cluster::new(3, GSet::new(), schedule, ClusterConfig::default());
        cluster.update(0, |s| s.insert(77));
        let mut refused = false;
        for step in 0..12 {
            cluster.step();
            if step == 5 {
                // Mid-crash: updates are refused, not lost.
                refused = !cluster.update(0, |s| s.insert(99));
            }
        }
        assert!(refused, "a crashed replica must refuse writes");
        cluster.run_to_convergence(200).expect("converges");
        assert!(cluster.state(1).contains(&77), "durable write survived");
        assert!(
            !cluster.state(1).contains(&99),
            "refused write never happened"
        );
        assert!(cluster.stats().restarts >= 1);
    }

    #[test]
    fn transcripts_replay_byte_for_byte() {
        let run = |seed| {
            let mut c = run_gset(Schedule::adversarial(seed, 4, 20));
            c.run_to_convergence(2000);
            c.transcript().join("\n")
        };
        assert_eq!(run(21), run(21));
        assert_ne!(run(21), run(22));
    }

    #[test]
    fn delta_traffic_beats_full_state_gossip() {
        let mut cluster: Cluster<GSet<u64>> =
            Cluster::with_policy(4, GSet::new(), 9, DeliveryPolicy::reliable());
        for turn in 0u64..200 {
            cluster.update((turn % 4) as usize, |s| s.insert(turn));
            cluster.step();
        }
        cluster.run_to_convergence(500).expect("converges");
        let stats = cluster.stats();
        assert!(
            stats.delta_bytes * 5 <= stats.full_state_bytes_equiv,
            "deltas should be ≥5× cheaper: {} vs {}",
            stats.delta_bytes,
            stats.full_state_bytes_equiv
        );
    }
}
