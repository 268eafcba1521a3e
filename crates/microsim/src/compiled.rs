//! The compiled simulation engine: the index-resolved, string-free hot
//! path behind [`Simulation::run`].
//!
//! [`Simulation::run_reference`] is the engine's executable specification:
//! readable, but it resolves a `BTreeMap`-of-`String` placement lookup for
//! every call event, materialises the full arrival schedule up front and
//! scans all of a node's cores to find the earliest-available one.
//! [`CompiledSim`] performs all of that work once, at compile time:
//!
//! * every `placement.node_of(service)` lookup is resolved to a flat node
//!   index per call;
//! * per-(call, node) service times and shared-channel transmission times
//!   are precomputed into dense arrays, using the *same* floating-point
//!   expressions as the reference engine so results stay bit-identical;
//! * the up-front `Vec` of all arrivals (plus the 4x-capacity global event
//!   heap) is replaced by [`LazyArrivals`], which draws the next arrival
//!   from the workload RNG only when the previous one enters the system,
//!   keeping memory proportional to in-flight requests;
//! * the O(cores) linear scan per call admission is replaced by a
//!   [`CoreHeap`] min-heap of core free times;
//! * the global event heap is replaced by a calendar queue (`Calendar`):
//!   sorted buckets over one slab, sized to the live event count and as
//!   wide as a few mean event gaps, so scheduling and popping an event
//!   cost O(1) on average instead of O(log events).
//!
//! # Determinism
//!
//! A compiled run is bit-identical to the reference engine for the same
//! seed. Three properties guarantee it:
//!
//! 1. [`LazyArrivals`] consumes the workload RNG in exactly the reference
//!    order (one inter-arrival draw per attempt, one thinning draw per
//!    candidate of a ramp phase, one mix draw per accepted arrival of an
//!    unrestricted phase).
//! 2. Events are ordered by `(time, class, seq)` where arrivals get class
//!    0 and derived events class 1 — the same tie-break the reference
//!    engine achieves by numbering all arrivals before any derived event.
//!    Keys are unique (every event takes a fresh `seq`) and every push
//!    lands above the last popped key, so any exact min-queue pops the same
//!    sequence: the calendar is interchangeable with a binary heap.
//! 3. [`CoreHeap`] removes one instance of the minimum free time and
//!    inserts the finish time, the same multiset transformation the
//!    reference's first-minimum linear scan performs, so tied cores are
//!    indistinguishable.
//!
//! The equivalence is enforced by unit tests here and by the property
//! suite in the workspace's `tests/microsim_equivalence.rs`.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use junkyard_obs::{EventKind, NoopRecorder, Recorder, TraceEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::metrics::{CompletedRequest, NodeQueueStats, NodeUtilization, RunMetrics};
use crate::sim::{
    flow_hash, Phase, QueueDiscipline, RssTable, SimError, Simulation, Workload,
    CLIENT_REQUEST_BYTES, RPC_SYS_OVERHEAD_MS,
};

/// A min-heap of resource free times: one entry per core (or client
/// worker), popping the earliest-available slot in O(log cores) instead of
/// the reference engine's O(cores) scan.
///
/// Only free *times* are tracked, not slot identities: reserving a slot is
/// "remove one instance of the minimum, insert the finish time", which is
/// exactly the state transition of the reference engine's first-minimum
/// linear scan (tied slots are indistinguishable by value).
#[derive(Debug, Clone)]
pub struct CoreHeap {
    free_at: BinaryHeap<Slot>,
}

/// A free time in the heap, stored as raw `f64` bits: simulation times are
/// non-negative and finite, where the IEEE-754 bit pattern is monotone in
/// the value, so a single integer compare replaces `f64::total_cmp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot(u64);

impl Ord for Slot {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: `BinaryHeap` is a max-heap, we pop the smallest time.
        other.0.cmp(&self.0)
    }
}

impl PartialOrd for Slot {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl CoreHeap {
    /// Creates a heap of `slots` resources, all free from `free_from`.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero or `free_from` is negative.
    #[must_use]
    pub fn new(slots: usize, free_from: f64) -> Self {
        assert!(slots > 0, "a resource pool needs at least one slot");
        assert!(
            free_from >= 0.0,
            "slot free times are simulation timestamps (non-negative)"
        );
        // Normalise -0.0 (which passes the assert) to +0.0: the raw-bit
        // ordering is only monotone for positively signed values.
        let free_from = free_from + 0.0;
        let mut free_at = BinaryHeap::with_capacity(slots);
        for _ in 0..slots {
            free_at.push(Slot(free_from.to_bits()));
        }
        Self { free_at }
    }

    /// Claims the earliest-available slot for work arriving at `now` and
    /// returns the work's start time. The caller must hand the slot back
    /// with [`CoreHeap::finish_at`] once the finish time is known.
    pub fn begin(&mut self, now: f64) -> f64 {
        let Slot(avail) = self
            .free_at
            .pop()
            .expect("begin/finish_at calls are paired, so a slot is free");
        now.max(f64::from_bits(avail))
    }

    /// Returns a claimed slot to the pool, free again from `at`.
    pub fn finish_at(&mut self, at: f64) {
        debug_assert!(at >= 0.0, "slot free times are non-negative");
        self.free_at.push(Slot(at.to_bits()));
    }

    /// The earliest free time in the pool, without claiming the slot —
    /// used by the bounded-queue admission check, which must know a call's
    /// start time before deciding whether to reserve anything.
    ///
    /// # Panics
    ///
    /// Panics if every slot is claimed.
    #[must_use]
    pub fn next_free(&self) -> f64 {
        let slot = self
            .free_at
            .peek()
            .expect("peek requires at least one unclaimed slot");
        f64::from_bits(slot.0)
    }

    /// Number of currently unclaimed slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.free_at.len()
    }

    /// `true` when every slot is claimed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.free_at.is_empty()
    }
}

/// One pre-resolved call: target node index, per-node service times and
/// shared-channel transmission times, all computed once at compile time.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CompiledCall {
    node: u32,
    same_node: bool,
    user_secs: f64,
    sys_secs: f64,
    request_tx_secs: f64,
    response_tx_secs: f64,
}

/// One pre-resolved request type: flat call array with per-stage ranges.
#[derive(Debug, Clone, PartialEq)]
struct CompiledType {
    /// `calls[lo..hi]` ranges, one per stage, in execution order.
    stage_ranges: Vec<(u32, u32)>,
    calls: Vec<CompiledCall>,
    client_cost_secs: f64,
    client_response_tx_secs: f64,
}

/// A [`Simulation`] lowered to dense index-addressed tables, ready to run
/// workloads without any per-event string lookups or allocations.
///
/// Build one with [`Simulation::compile`] (or [`CompiledSim::compile`]) and
/// reuse it across workloads — compilation resolves the placement and
/// service-time maths once, and [`CompiledSim::run`] is `&self`, so a
/// compiled simulation can be shared across sweep worker threads. Two
/// compiled simulations compare equal only when every table matches, so
/// they replay any workload identically.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledSim {
    node_names: Vec<String>,
    node_cores: Vec<u32>,
    /// Network cores per node (zero under the combined layout).
    net_cores: Vec<u32>,
    /// Application cores per node (all cores under the combined layout).
    app_cores: Vec<u32>,
    /// One RSS indirection table per node (a single-queue table under
    /// centralised FCFS).
    rss: Vec<RssTable>,
    dfcfs: bool,
    queue_size: Option<usize>,
    types: Vec<CompiledType>,
    type_names: Vec<String>,
    weights: Vec<f64>,
    total_weight: f64,
    colocated_client: bool,
    client_workers: u32,
    intra_secs: f64,
    inter_secs: f64,
    client_latency_secs: f64,
    client_request_tx_secs: f64,
}

/// Lazily generated open-loop arrivals: `(time, request type index)` pairs
/// drawn phase by phase from the workload RNG.
///
/// The iterator consumes the RNG in exactly the order of the reference
/// engine's up-front generation loop, so the produced sequence is
/// bit-identical — but only one arrival exists at a time instead of the
/// whole schedule.
#[derive(Debug, Clone)]
pub struct LazyArrivals<'a> {
    rng: StdRng,
    phases: &'a [Phase],
    fixed_types: Vec<Option<usize>>,
    weights: &'a [f64],
    total_weight: f64,
    phase_idx: usize,
    phase_start: f64,
    t: f64,
}

impl Iterator for LazyArrivals<'_> {
    type Item = (f64, usize);

    fn next(&mut self) -> Option<(f64, usize)> {
        while self.phase_idx < self.phases.len() {
            let phase = &self.phases[self.phase_idx];
            let peak = phase.peak_qps();
            if peak > 0.0 {
                let u: f64 = self.rng.random::<f64>().max(1e-12);
                self.t += -u.ln() / peak;
                if self.t < self.phase_start + phase.duration_s() {
                    if phase.is_ramp() {
                        // Thinning for time-varying phases: candidates are
                        // drawn at the peak rate and accepted with
                        // probability rate(t)/peak — the identical draw
                        // order as the reference generation loop. A
                        // rejected candidate stays in this phase and draws
                        // the next candidate.
                        let accept: f64 = self.rng.random();
                        if accept * peak > phase.rate_at(self.t - self.phase_start) {
                            continue;
                        }
                    }
                    let type_idx = match self.fixed_types[self.phase_idx] {
                        Some(idx) => idx,
                        None => {
                            // The reference engine's weighted pick, with the
                            // identical subtraction order.
                            let mut pick = self.rng.random::<f64>() * self.total_weight;
                            let mut chosen = self.weights.len() - 1;
                            for (i, w) in self.weights.iter().enumerate() {
                                if pick < *w {
                                    chosen = i;
                                    break;
                                }
                                pick -= w;
                            }
                            chosen
                        }
                    };
                    return Some((self.t, type_idx));
                }
            }
            // Phase exhausted (or idle): move to the next one. The draw that
            // overshot the phase end is consumed and discarded, exactly as
            // in the reference generation loop.
            self.phase_start += phase.duration_s();
            self.t = self.phase_start;
            self.phase_idx += 1;
        }
        None
    }
}

/// Event step of the compiled engine, indexing into the flat call arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CStep {
    Arrive,
    Dispatch { stage: u32 },
    CallArrived { stage: u32, call: u32 },
    CallNetDone { stage: u32, call: u32 },
    CallFinished { stage: u32, call: u32 },
    Complete,
}

/// A node's application cores, shaped by the queue discipline: one shared
/// pool under centralised FCFS (a [`CoreHeap`] multiset of free times), or
/// per-core free times under distributed FCFS, where core identity matters
/// because the RSS table pins each flow to one core.
#[derive(Debug, Clone)]
enum AppPool {
    Central(CoreHeap),
    Distributed(Vec<f64>),
}

/// Arrivals sort before derived events at equal times, mirroring the
/// reference engine's all-arrivals-first sequence numbering.
const CLASS_ARRIVAL: u128 = 0;
const CLASS_DERIVED: u128 = 1;

/// Packs the `(time, class, seq)` ordering into one integer key: the
/// `f64` bit pattern of a non-negative time is monotone in the value, so
/// `time bits . class bit . 63-bit seq` compares as a single `u128` —
/// one branch per heap comparison instead of a float/class/seq cascade.
#[inline]
fn event_key(time: f64, class: u128, seq: u64) -> u128 {
    debug_assert!(time >= 0.0, "event times are non-negative");
    debug_assert!(seq < 1 << 63, "sequence numbers stay below 2^63");
    (u128::from(time.to_bits()) << 64) | (class << 63) | u128::from(seq)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CEvent {
    key: u128,
    request: u32,
    step: CStep,
}

impl CEvent {
    /// The event's timestamp, recovered from the key's upper 64 bits.
    #[inline]
    fn time(&self) -> f64 {
        f64::from_bits((self.key >> 64) as u64)
    }
}

/// Ticks per simulated second of a fresh calendar: buckets of 2^-14 s
/// (~61 µs), about four mean event gaps of SocialNetwork at 1,000 qps on
/// the ten-Pixel cloudlet.
const CALENDAR_START_SCALE: f64 = 16_384.0;

/// Bucket count of a fresh calendar (a power of two).
const CALENDAR_MIN_BUCKETS: usize = 256;

/// A resize sets the bucket width to this many mean gaps between popped
/// events (Brown suggests about three), rounded to a power of two...
const CALENDAR_GAPS_PER_BUCKET: f64 = 4.0;

/// ...when at least this many pops since the last resize measure the gap.
const CALENDAR_MIN_SAMPLE: u64 = 64;

/// End of a calendar list (bucket heads and `next` links are slab indices).
const NIL: u32 = u32::MAX;

/// A slab node: an event, its tick under the current bucket width and the
/// next node of its bucket list (or of the free list).
#[derive(Debug, Clone, Copy)]
struct Node {
    event: CEvent,
    tick: u64,
    next: u32,
}

/// The event queue of [`CompiledSim::run_with`]: a calendar queue (R.
/// Brown, "Calendar queues", CACM 31(10), 1988) over the packed `(time,
/// class, seq)` keys.
///
/// Simulated time is cut into ticks of one bucket width; tick `t` lives in
/// bucket `t mod buckets`, so `buckets` consecutive ticks make one
/// calendar "year". Each bucket is a singly linked list in ascending key
/// order, threaded through one slab of nodes with a free list, so the
/// queue makes a single growing allocation.
///
/// Popping scans forward from the current tick for the first bucket whose
/// head falls in the tick being scanned. When a whole year holds no such
/// head, the smallest head seen during that scan is the minimum. The scan
/// never moves backwards, which is valid because the event loop only
/// pushes keys above the last popped one (see [`Calendar::push`]).
///
/// The bucket count doubles when live events exceed twice the bucket
/// count and halves (down to [`CALENDAR_MIN_BUCKETS`]) when they fall
/// below half of it. Each such resize also re-chooses the bucket width
/// from the mean gap between the events popped since the last resize, so
/// a dense overload gets narrow buckets and a light load wide ones. The
/// width only changes how fast the queue runs: the pop order is fixed by
/// the keys alone.
#[derive(Debug)]
struct Calendar {
    slab: Vec<Node>,
    free: u32,
    /// Per-bucket list heads; the length is a power of two.
    heads: Vec<u32>,
    /// Ticks per simulated second, a power of two, so `time * scale` is
    /// exact and an event's tick never depends on rounding.
    scale: f64,
    /// Time and tick of the last popped event.
    now: f64,
    tick: u64,
    len: usize,
    /// Pops since the last resize, which happened at simulated time
    /// `resized_at`.
    pops: u64,
    resized_at: f64,
}

impl Calendar {
    fn new() -> Self {
        Self {
            slab: Vec::with_capacity(CALENDAR_MIN_BUCKETS),
            free: NIL,
            heads: vec![NIL; CALENDAR_MIN_BUCKETS],
            scale: CALENDAR_START_SCALE,
            now: 0.0,
            tick: 0,
            len: 0,
            pops: 0,
            resized_at: 0.0,
        }
    }

    #[inline]
    fn bucket(&self, tick: u64) -> usize {
        (tick as usize) & (self.heads.len() - 1)
    }

    /// Inserts `event`, whose key must exceed every key popped so far. The
    /// event loop guarantees that: derived events are scheduled at or after
    /// `now` with a fresh, larger `seq`, and the next arrival is admitted
    /// while an arrival at or before it is handled.
    fn push(&mut self, event: CEvent) {
        let node = Node {
            event,
            tick: 0,
            next: NIL,
        };
        let index = if self.free == NIL {
            debug_assert!(self.slab.len() < NIL as usize, "slab indices fit u32");
            self.slab.push(node);
            (self.slab.len() - 1) as u32
        } else {
            let index = self.free;
            self.free = self.slab[index as usize].next;
            self.slab[index as usize] = node;
            index
        };
        self.link(index, event.key);
        self.len += 1;
        if self.len > 2 * self.heads.len() {
            self.resize(2 * self.heads.len());
        }
    }

    /// Files slab node `index`, holding an event with `key`, into its
    /// bucket's sorted list. Callers pass the key they hold: re-reading it
    /// from the node `push` has just written measured slower.
    fn link(&mut self, index: u32, key: u128) {
        let tick = (f64::from_bits((key >> 64) as u64) * self.scale) as u64;
        debug_assert!(tick >= self.tick, "calendar pushes never go back in time");
        let bucket = self.bucket(tick);
        let mut prev = NIL;
        let mut cur = self.heads[bucket];
        while cur != NIL && self.slab[cur as usize].event.key < key {
            prev = cur;
            cur = self.slab[cur as usize].next;
        }
        self.slab[index as usize].tick = tick;
        self.slab[index as usize].next = cur;
        if prev == NIL {
            self.heads[bucket] = index;
        } else {
            self.slab[prev as usize].next = index;
        }
    }

    /// Removes and returns the event with the smallest key.
    fn pop(&mut self) -> Option<CEvent> {
        if self.len == 0 {
            return None;
        }
        let mut found = NIL;
        let mut smallest = NIL;
        for tick in self.tick..self.tick + self.heads.len() as u64 {
            let head = self.heads[self.bucket(tick)];
            if head == NIL {
                continue;
            }
            let node = &self.slab[head as usize];
            if node.tick == tick {
                found = head;
                break;
            }
            if smallest == NIL || node.event.key < self.slab[smallest as usize].event.key {
                smallest = head;
            }
        }
        if found == NIL {
            // A whole year without a due head: every bucket was visited,
            // and each head is its bucket's minimum.
            found = smallest;
        }
        let Node { event, tick, next } = self.slab[found as usize];
        let bucket = self.bucket(tick);
        self.heads[bucket] = next;
        self.slab[found as usize].next = self.free;
        self.free = found;
        self.len -= 1;
        self.now = event.time();
        self.tick = tick;
        self.pops += 1;
        if self.len < self.heads.len() / 2 && self.heads.len() > CALENDAR_MIN_BUCKETS {
            self.resize(self.heads.len() / 2);
        }
        Some(event)
    }

    /// Re-files every live event into `buckets` buckets, first re-choosing
    /// the bucket width from the events popped since the last resize.
    fn resize(&mut self, buckets: usize) {
        if self.pops >= CALENDAR_MIN_SAMPLE && self.now > self.resized_at {
            let gap = (self.now - self.resized_at) / self.pops as f64;
            let exponent = -(CALENDAR_GAPS_PER_BUCKET * gap).log2().round();
            // Widths from 2^-20 s (~1 µs) to 2^-10 s (~1 ms).
            self.scale = 2_f64.powi(exponent.clamp(10.0, 20.0) as i32);
            self.tick = (self.now * self.scale) as u64;
        }
        self.pops = 0;
        self.resized_at = self.now;
        let heads = std::mem::replace(&mut self.heads, vec![NIL; buckets]);
        for mut cur in heads {
            while cur != NIL {
                let next = self.slab[cur as usize].next;
                self.link(cur, self.slab[cur as usize].event.key);
                cur = next;
            }
        }
    }
}

/// Per-request state, slab-allocated and recycled on completion so the
/// resident set tracks in-flight requests, not total arrivals.
#[derive(Debug, Clone, Copy)]
struct ReqState {
    arrival: f64,
    type_idx: u32,
    outstanding_calls: u32,
    stage_end: f64,
    /// SplitMix64 hash of the request's global arrival index, fed to the
    /// RSS indirection table (same value as the reference engine's).
    flow: u64,
    /// Set when any call of the request was dropped by a bounded queue:
    /// the request terminates once its in-flight calls drain.
    dropped: bool,
}

/// Sends `tx` seconds of traffic through the shared channel at `now` and
/// returns the delivery time (the reference engine's `send` for the
/// cross-node / client cases).
#[inline]
fn via_channel(link_avail: &mut f64, now: f64, tx: f64, latency: f64) -> f64 {
    if tx > 0.0 {
        let start = now.max(*link_avail);
        *link_avail = start + tx;
        start + tx + latency
    } else {
        now + latency
    }
}

impl CompiledSim {
    /// Lowers a validated simulation into dense tables.
    ///
    /// All placement lookups, per-node service-time divisions and
    /// shared-channel transmission times happen here, once, using the same
    /// floating-point expressions as the reference engine.
    #[must_use]
    pub fn compile(sim: &Simulation) -> Self {
        let app = sim.app();
        let nodes = sim.nodes();
        let placement = sim.placement();
        let network = sim.network();
        let frontend_node = placement
            .node_of(app.frontend())
            .expect("placement covers the frontend");

        let mut types = Vec::with_capacity(app.request_types().len());
        let mut type_names = Vec::with_capacity(app.request_types().len());
        for request_type in app.request_types() {
            let mut calls = Vec::new();
            let mut stage_ranges = Vec::with_capacity(request_type.stages().len());
            for stage in request_type.stages() {
                let lo = u32::try_from(calls.len()).expect("call count fits u32");
                for call in stage.calls() {
                    let target = placement
                        .node_of(call.service())
                        .expect("placement covers every service");
                    calls.push(CompiledCall {
                        node: u32::try_from(target).expect("node count fits u32"),
                        same_node: target == frontend_node,
                        user_secs: nodes[target].service_secs(call.cpu_ms()),
                        sys_secs: nodes[target].service_secs(RPC_SYS_OVERHEAD_MS),
                        request_tx_secs: network.transmission_secs(call.request_bytes()),
                        response_tx_secs: network.transmission_secs(call.response_bytes()),
                    });
                }
                let hi = u32::try_from(calls.len()).expect("call count fits u32");
                stage_ranges.push((lo, hi));
            }
            types.push(CompiledType {
                stage_ranges,
                calls,
                client_cost_secs: nodes[0].service_secs(request_type.client_cost_ms()),
                client_response_tx_secs: network
                    .transmission_secs(request_type.response_to_client_bytes()),
            });
            type_names.push(request_type.name().to_owned());
        }

        let weights: Vec<f64> = app.request_types().iter().map(|r| r.weight()).collect();
        let total_weight: f64 = weights.iter().sum();

        let model = sim.server_model();
        let dfcfs = model.discipline() == QueueDiscipline::DistributedFcfs;
        let mut net_cores = Vec::with_capacity(nodes.len());
        let mut app_cores = Vec::with_capacity(nodes.len());
        let mut rss = Vec::with_capacity(nodes.len());
        for node in nodes {
            let (net, app_pool) = model.layout().split(node.cores());
            net_cores.push(u32::try_from(net).expect("core count fits u32"));
            app_cores.push(u32::try_from(app_pool).expect("core count fits u32"));
            rss.push(RssTable::new(if dfcfs { app_pool } else { 1 }));
        }

        Self {
            node_names: nodes.iter().map(|n| n.name().to_owned()).collect(),
            node_cores: nodes.iter().map(crate::node::NodeSpec::cores).collect(),
            net_cores,
            app_cores,
            rss,
            dfcfs,
            queue_size: model.queue_size(),
            types,
            type_names,
            weights,
            total_weight,
            colocated_client: sim.colocated_client(),
            client_workers: app.client_workers(),
            intra_secs: network.hop_latency_secs(true),
            inter_secs: network.hop_latency_secs(false),
            client_latency_secs: network.client_latency_ms()
                / junkyard_carbon::units::MILLIS_PER_SEC,
            client_request_tx_secs: network.transmission_secs(CLIENT_REQUEST_BYTES),
        }
    }

    /// Position of a request type by name.
    fn type_index(&self, name: &str) -> Result<usize, SimError> {
        self.type_names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| SimError::UnknownRequestType(name.to_owned()))
    }

    /// The lazy arrival sequence of `workload`: `(time, type index)` pairs
    /// in time order, bit-identical to the reference engine's up-front
    /// schedule for the same seed.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownRequestType`] if a phase names a request
    /// type the application does not define.
    pub fn arrivals<'a>(&'a self, workload: &'a Workload) -> Result<LazyArrivals<'a>, SimError> {
        let mut fixed_types = Vec::with_capacity(workload.phases().len());
        for phase in workload.phases() {
            fixed_types.push(match phase.request_type() {
                Some(name) => Some(self.type_index(name)?),
                None => None,
            });
        }
        Ok(LazyArrivals {
            rng: StdRng::seed_from_u64(workload.seed()),
            phases: workload.phases(),
            fixed_types,
            weights: &self.weights,
            total_weight: self.total_weight,
            phase_idx: 0,
            phase_start: 0.0,
            t: 0.0,
        })
    }

    /// Runs the workload through the compiled hot path and returns the
    /// collected metrics, bit-identical to
    /// [`Simulation::run_reference`] for the same seed.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownRequestType`] if a phase names a request
    /// type the application does not define.
    pub fn run(&self, workload: &Workload) -> Result<RunMetrics, SimError> {
        // Path-qualified: the lint's call graph resolves `.run_with(` by
        // name, which would reach `SweepConfig::run_with` from fan-outs.
        CompiledSim::run_with(self, workload, &mut NoopRecorder)
    }

    /// [`CompiledSim::run`] with observability hooks: admissions, queue
    /// drops and completions are reported to `recorder` on the
    /// simulated-time axis.
    ///
    /// The recorder is generic (not `dyn`) so the [`NoopRecorder`]
    /// instantiation — the one `run` uses — monomorphises `enabled()`
    /// to a constant `false` and the hooks vanish from the hot loop:
    /// an untraced run is bit-identical to (and as fast as) one built
    /// without this crate's hooks.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownRequestType`] if a phase names a request
    /// type the application does not define.
    pub fn run_with<R: Recorder>(
        &self,
        workload: &Workload,
        recorder: &mut R,
    ) -> Result<RunMetrics, SimError> {
        let mut arrivals = self.arrivals(workload)?;
        let total_duration = workload.total_duration_s();
        let buckets = total_duration.ceil() as usize + 2;

        // Dense per-(node, second) accumulators, `node * buckets + second`;
        // wrapped into `NodeUtilization` traces after the run.
        let mut util_user: Vec<f64> = vec![0.0; self.node_cores.len() * buckets];
        let mut util_sys: Vec<f64> = vec![0.0; self.node_cores.len() * buckets];
        let mut net_pools: Vec<Option<CoreHeap>> = self
            .net_cores
            .iter()
            .map(|&c| (c > 0).then(|| CoreHeap::new(c as usize, 0.0)))
            .collect();
        let mut app_pools: Vec<AppPool> = self
            .app_cores
            .iter()
            .map(|&c| {
                if self.dfcfs {
                    AppPool::Distributed(vec![0.0; c as usize])
                } else {
                    AppPool::Central(CoreHeap::new(c as usize, 0.0))
                }
            })
            .collect();
        // Per-queue start times of admitted-but-waiting calls (pushed in
        // nondecreasing order, pruned from the front), mirroring the
        // reference engine's occupancy accounting exactly.
        let mut waiting: Vec<Vec<VecDeque<f64>>> = self
            .app_cores
            .iter()
            .map(|&app| vec![VecDeque::new(); if self.dfcfs { app as usize } else { 1 }])
            .collect();
        let mut queue_drops: Vec<Vec<u64>> = waiting.iter().map(|q| vec![0_u64; q.len()]).collect();
        let mut calls_arrived: Vec<u64> = vec![0; self.node_cores.len()];
        let mut calls_served: Vec<u64> = vec![0; self.node_cores.len()];
        let mut dropped_arrivals: Vec<f64> = Vec::new();
        let mut client = CoreHeap::new(self.client_workers as usize, 0.0);
        let mut link_avail = 0.0_f64;

        let mut events = Calendar::new();
        let mut states: Vec<ReqState> = Vec::with_capacity(256);
        let mut free_slots: Vec<u32> = Vec::new();
        // Completions are kept for the whole run (they are the output), so
        // pre-size them from the offered load; everything else stays
        // proportional to in-flight requests.
        let expected_arrivals = workload
            .phases()
            .iter()
            .map(|p| p.mean_qps() * p.duration_s())
            .sum::<f64>() as usize;
        let mut completions: Vec<CompletedRequest> =
            Vec::with_capacity(expected_arrivals.saturating_add(16).min(1 << 24));
        let mut seq = 0_u64;
        let mut offered = 0_usize;
        let mut processed = 0_u64;

        // Keeps exactly one future arrival in the queue: admit the next one
        // when the current one enters the system.
        fn admit(
            arrival: Option<(f64, usize)>,
            states: &mut Vec<ReqState>,
            free_slots: &mut Vec<u32>,
            events: &mut Calendar,
            seq: &mut u64,
            offered: &mut usize,
        ) {
            let Some((t, type_idx)) = arrival else {
                return;
            };
            let state = ReqState {
                arrival: t,
                type_idx: u32::try_from(type_idx).expect("request-type count fits u32"),
                outstanding_calls: 0,
                stage_end: t,
                // `*offered` is the request's global arrival index: admit
                // runs once per arrival, in arrival order, exactly like
                // the reference engine's schedule indices.
                flow: flow_hash(*offered as u64),
                dropped: false,
            };
            let slot = match free_slots.pop() {
                Some(slot) => {
                    states[slot as usize] = state;
                    slot
                }
                None => {
                    states.push(state);
                    u32::try_from(states.len() - 1).expect("in-flight request count fits u32")
                }
            };
            events.push(CEvent {
                key: event_key(t, CLASS_ARRIVAL, *seq),
                request: slot,
                step: CStep::Arrive,
            });
            *seq += 1;
            *offered += 1;
        }

        admit(
            arrivals.next(),
            &mut states,
            &mut free_slots,
            &mut events,
            &mut seq,
            &mut offered,
        );

        while let Some(event) = events.pop() {
            processed += 1;
            let now = event.time();
            let request = event.request as usize;
            let ty = &self.types[states[request].type_idx as usize];
            let mut push = |time: f64, step: CStep, seq: &mut u64| {
                events.push(CEvent {
                    key: event_key(time, CLASS_DERIVED, *seq),
                    request: event.request,
                    step,
                });
                *seq += 1;
            };

            match event.step {
                CStep::Arrive => {
                    if recorder.enabled() {
                        let type_idx = states[request].type_idx;
                        recorder.event(TraceEvent::new(
                            EventKind::Admit,
                            now,
                            &format!("type{type_idx}"),
                            1.0,
                        ));
                    }
                    let ready = if self.colocated_client {
                        let cost = ty.client_cost_secs;
                        let start = client.begin(now);
                        let end = start + cost;
                        client.finish_at(end);
                        end + self.intra_secs
                    } else {
                        via_channel(
                            &mut link_avail,
                            now,
                            self.client_request_tx_secs,
                            self.client_latency_secs,
                        )
                    };
                    push(ready, CStep::Dispatch { stage: 0 }, &mut seq);
                    admit(
                        arrivals.next(),
                        &mut states,
                        &mut free_slots,
                        &mut events,
                        &mut seq,
                        &mut offered,
                    );
                }
                CStep::Dispatch { stage } => {
                    let (lo, hi) = ty.stage_ranges[stage as usize];
                    states[request].outstanding_calls = hi - lo;
                    states[request].stage_end = now;
                    for call_idx in lo..hi {
                        let call = &ty.calls[call_idx as usize];
                        let delivered = if call.same_node {
                            now + self.intra_secs
                        } else {
                            via_channel(&mut link_avail, now, call.request_tx_secs, self.inter_secs)
                        };
                        push(
                            delivered,
                            CStep::CallArrived {
                                stage,
                                call: call_idx,
                            },
                            &mut seq,
                        );
                    }
                }
                CStep::CallArrived { stage, call } => {
                    let spec = &ty.calls[call as usize];
                    let node = spec.node as usize;
                    calls_arrived[node] += 1;
                    if let Some(pool) = &mut net_pools[node] {
                        // Dedicated layout: network processing first, on
                        // the earliest-free network core (unbounded — the
                        // application queue downstream is what the bound
                        // protects).
                        let start = pool.begin(now);
                        pool.finish_at(start + spec.sys_secs);
                        let second = (start.max(0.0).floor() as usize).min(buckets - 1);
                        util_sys[node * buckets + second] += spec.sys_secs;
                        push(
                            start + spec.sys_secs,
                            CStep::CallNetDone { stage, call },
                            &mut seq,
                        );
                        continue;
                    }
                    // Combined layout: admission against the discipline's
                    // application queue, then one reservation covering
                    // system and application work.
                    let queue = if self.dfcfs {
                        self.rss[node].queue_of(states[request].flow)
                    } else {
                        0
                    };
                    let avail = match &app_pools[node] {
                        AppPool::Central(heap) => heap.next_free(),
                        AppPool::Distributed(avail) => avail[queue],
                    };
                    let start = now.max(avail);
                    if let Some(cap) = self.queue_size {
                        if start > now {
                            let q = &mut waiting[node][queue];
                            while q.front().is_some_and(|&s| s <= now) {
                                q.pop_front();
                            }
                            if q.len() >= cap {
                                queue_drops[node][queue] += 1;
                                if recorder.enabled() {
                                    recorder.event(TraceEvent::new(
                                        EventKind::Drop,
                                        now,
                                        &format!("node{node}:q{queue}"),
                                        1.0,
                                    ));
                                }
                                let state = &mut states[request];
                                state.dropped = true;
                                state.outstanding_calls -= 1;
                                if state.outstanding_calls == 0 {
                                    dropped_arrivals.push(state.arrival);
                                    free_slots.push(event.request);
                                }
                                continue;
                            }
                            q.push_back(start);
                        }
                    }
                    let finish = start + spec.user_secs + spec.sys_secs;
                    match &mut app_pools[node] {
                        AppPool::Central(heap) => {
                            let begun = heap.begin(now);
                            debug_assert_eq!(begun.to_bits(), start.to_bits());
                            heap.finish_at(finish);
                        }
                        AppPool::Distributed(avail) => avail[queue] = finish,
                    }
                    // The reference's `NodeUtilization::bucket` clamp, on
                    // the flat accumulators.
                    let second = (start.max(0.0).floor() as usize).min(buckets - 1);
                    let slot = node * buckets + second;
                    util_user[slot] += spec.user_secs;
                    util_sys[slot] += spec.sys_secs;
                    push(finish, CStep::CallFinished { stage, call }, &mut seq);
                }
                CStep::CallNetDone { stage, call } => {
                    // Network processing done: queue for an application
                    // core. This is where the dedicated layout's bound
                    // applies — a drop here has already burnt network-core
                    // time on the doomed call.
                    let spec = &ty.calls[call as usize];
                    let node = spec.node as usize;
                    let queue = if self.dfcfs {
                        self.rss[node].queue_of(states[request].flow)
                    } else {
                        0
                    };
                    let avail = match &app_pools[node] {
                        AppPool::Central(heap) => heap.next_free(),
                        AppPool::Distributed(avail) => avail[queue],
                    };
                    let start = now.max(avail);
                    if let Some(cap) = self.queue_size {
                        if start > now {
                            let q = &mut waiting[node][queue];
                            while q.front().is_some_and(|&s| s <= now) {
                                q.pop_front();
                            }
                            if q.len() >= cap {
                                queue_drops[node][queue] += 1;
                                if recorder.enabled() {
                                    recorder.event(TraceEvent::new(
                                        EventKind::Drop,
                                        now,
                                        &format!("node{node}:q{queue}"),
                                        1.0,
                                    ));
                                }
                                let state = &mut states[request];
                                state.dropped = true;
                                state.outstanding_calls -= 1;
                                if state.outstanding_calls == 0 {
                                    dropped_arrivals.push(state.arrival);
                                    free_slots.push(event.request);
                                }
                                continue;
                            }
                            q.push_back(start);
                        }
                    }
                    match &mut app_pools[node] {
                        AppPool::Central(heap) => {
                            let begun = heap.begin(now);
                            debug_assert_eq!(begun.to_bits(), start.to_bits());
                            heap.finish_at(start + spec.user_secs);
                        }
                        AppPool::Distributed(avail) => avail[queue] = start + spec.user_secs,
                    }
                    let second = (start.max(0.0).floor() as usize).min(buckets - 1);
                    util_user[node * buckets + second] += spec.user_secs;
                    push(
                        start + spec.user_secs,
                        CStep::CallFinished { stage, call },
                        &mut seq,
                    );
                }
                CStep::CallFinished { stage, call } => {
                    let spec = &ty.calls[call as usize];
                    calls_served[spec.node as usize] += 1;
                    let replied = if spec.same_node {
                        now + self.intra_secs
                    } else {
                        via_channel(&mut link_avail, now, spec.response_tx_secs, self.inter_secs)
                    };
                    let state = &mut states[request];
                    if replied > state.stage_end {
                        state.stage_end = replied;
                    }
                    state.outstanding_calls -= 1;
                    if state.outstanding_calls == 0 {
                        if state.dropped {
                            // A sibling call was dropped: terminate the
                            // request once its in-flight calls drain.
                            dropped_arrivals.push(state.arrival);
                            free_slots.push(event.request);
                        } else {
                            let next_time = state.stage_end;
                            let next_step = if (stage as usize) + 1 < ty.stage_ranges.len() {
                                CStep::Dispatch { stage: stage + 1 }
                            } else {
                                CStep::Complete
                            };
                            push(next_time, next_step, &mut seq);
                        }
                    }
                }
                CStep::Complete => {
                    let done = if self.colocated_client {
                        now + self.intra_secs
                    } else {
                        via_channel(
                            &mut link_avail,
                            now,
                            ty.client_response_tx_secs,
                            self.client_latency_secs,
                        )
                    };
                    let arrival = states[request].arrival;
                    if recorder.enabled() {
                        recorder.event(TraceEvent::new(
                            EventKind::Complete,
                            arrival,
                            "",
                            (done - arrival) * 1_000.0,
                        ));
                    }
                    completions.push(CompletedRequest::new(arrival, (done - arrival) * 1_000.0));
                    free_slots.push(event.request);
                }
            }
        }

        let utilization: Vec<NodeUtilization> = self
            .node_names
            .iter()
            .zip(&self.node_cores)
            .enumerate()
            .map(|(node, (name, &node_cores))| {
                NodeUtilization::from_core_seconds(
                    name.as_str(),
                    node_cores,
                    util_user[node * buckets..(node + 1) * buckets].to_vec(),
                    util_sys[node * buckets..(node + 1) * buckets].to_vec(),
                )
            })
            .collect();

        let queue_stats: Vec<NodeQueueStats> = self
            .node_names
            .iter()
            .enumerate()
            .map(|(node, name)| {
                NodeQueueStats::new(
                    name.as_str(),
                    calls_arrived[node],
                    calls_served[node],
                    queue_drops[node].clone(),
                )
            })
            .collect();
        Ok(
            RunMetrics::new(total_duration, offered, completions, utilization)
                .with_events(processed)
                .with_queue_stats(dropped_arrivals, queue_stats),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{hotel_reservation, social_network, SN_COMPOSE_POST};
    use crate::network::NetworkModel;
    use crate::node::{ten_pixel_cloudlet, NodeSpec};
    use crate::placement::Placement;

    fn phone_sim(app: crate::app::Application) -> Simulation {
        let nodes = ten_pixel_cloudlet();
        let placement = Placement::swarm_spread(&app, &nodes, 11).unwrap();
        Simulation::new(app, nodes, placement, NetworkModel::phone_wifi()).unwrap()
    }

    /// The order the calendar replaced: `BinaryHeap` is a max-heap, so the
    /// comparison is reversed to pop the smallest key first.
    impl Ord for CEvent {
        fn cmp(&self, other: &Self) -> Ordering {
            other.key.cmp(&self.key)
        }
    }

    impl PartialOrd for CEvent {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    /// Feeds one seeded monotone trace to a [`Calendar`] and to a
    /// `BinaryHeap<CEvent>`, asserting identical pops. Step `i` pushes
    /// `0..=fanout(i)` events at `now + gap` with fresh sequence numbers (an
    /// arrival-class event at `now` only after an arrival was popped, as in
    /// the event loop), then pops one; the end drains both queues. Returns
    /// the calendar, the peak live event count and the peak bucket count.
    fn replay(
        seed: u64,
        steps: usize,
        fanout: impl Fn(usize) -> u32,
        gap: impl Fn(&mut StdRng) -> f64,
    ) -> (Calendar, usize, usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut calendar = Calendar::new();
        let mut heap = BinaryHeap::new();
        let (mut now, mut arrival_popped, mut seq) = (0.0, true, 0_u64);
        let (mut peak, mut buckets) = (0, 0);
        for step in 0..steps {
            for _ in 0..rng.random::<u32>() % (fanout(step) + 1) {
                let time = now + gap(&mut rng);
                let class = if time > now || arrival_popped {
                    u128::from(rng.random::<u32>() % 2)
                } else {
                    CLASS_DERIVED
                };
                let event = CEvent {
                    key: event_key(time, class, seq),
                    request: (seq % 97) as u32,
                    step: CStep::Complete,
                };
                seq += 1;
                calendar.push(event);
                heap.push(event);
                peak = peak.max(heap.len());
                buckets = buckets.max(calendar.heads.len());
            }
            let popped = calendar.pop();
            assert_eq!(popped, heap.pop());
            if let Some(event) = popped {
                now = event.time();
                arrival_popped = (event.key >> 63) & 1 == CLASS_ARRIVAL;
            }
        }
        while let Some(event) = heap.pop() {
            assert_eq!(calendar.pop(), Some(event));
        }
        assert_eq!(calendar.pop(), None);
        (calendar, peak, buckets)
    }

    #[test]
    fn calendar_breaks_timestamp_ties_by_class_then_seq() {
        for seed in 0..8 {
            // Gaps of 0 or 0.1 ms: many events share a timestamp, in both
            // classes, inside one bucket.
            replay(
                seed,
                4_000,
                |_| 3,
                |rng| f64::from(rng.random::<u32>() % 2) * 1e-4,
            );
        }
    }

    #[test]
    fn calendar_matches_heap_through_growth_and_shrinking() {
        for seed in 0..4 {
            // Four pushes per pop on average climb past several growth
            // thresholds (twice the bucket count); then half a push per pop
            // drains the queue through the halvings while pushes continue.
            let (calendar, peak, buckets) = replay(
                seed,
                6_000,
                |step| if step < 2_000 { 8 } else { 1 },
                |rng| rng.random::<f64>() * 0.05,
            );
            assert!(peak > 8 * CALENDAR_MIN_BUCKETS, "peak {peak}");
            assert!(buckets >= peak / 2, "buckets {buckets} for peak {peak}");
            assert_eq!(calendar.heads.len(), CALENDAR_MIN_BUCKETS);
            // The resizes re-chose the bucket width from the pop density.
            assert_ne!(calendar.scale, CALENDAR_START_SCALE);
        }
    }

    #[test]
    fn calendar_finds_events_more_than_a_year_ahead() {
        // A fresh year is 256 buckets of 2^-14 s (~16 ms); gaps of up to
        // 2 s leave whole years empty, so pops take the direct-search path.
        for seed in 0..8 {
            let (_, _, buckets) = replay(seed, 2_000, |_| 2, |rng| rng.random::<f64>() * 2.0);
            assert_eq!(buckets, CALENDAR_MIN_BUCKETS);
        }
    }

    #[test]
    fn calendar_reuses_freed_slab_slots() {
        // About one push per pop over 20k steps: the slab never holds more
        // nodes than were ever live at once.
        let (calendar, peak, _) = replay(5, 20_000, |_| 2, |rng| rng.random::<f64>() * 0.01);
        assert_eq!(calendar.slab.len(), peak);
        assert!(peak < 1_000, "peak {peak}");
    }

    #[test]
    fn core_heap_orders_reservations_by_free_time() {
        let mut heap = CoreHeap::new(2, 0.0);
        let s1 = heap.begin(0.0);
        heap.finish_at(s1 + 5.0);
        let s2 = heap.begin(1.0);
        heap.finish_at(s2 + 5.0);
        // Both cores busy until 5.0/6.0; the next reservation queues on the
        // first-free core.
        assert_eq!(heap.begin(2.0), 5.0);
        heap.finish_at(7.0);
        assert_eq!(heap.len(), 2);
        assert!(!heap.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn empty_core_heap_panics() {
        let _ = CoreHeap::new(0, 0.0);
    }

    #[test]
    fn negative_zero_free_time_is_normalised() {
        let mut heap = CoreHeap::new(2, -0.0);
        let start = heap.begin(0.0);
        heap.finish_at(start + 0.001);
        // The second core is still free from (+)0.0, so work at 0.0 starts
        // immediately instead of queueing behind the busy core.
        assert_eq!(heap.begin(0.0), 0.0);
        heap.finish_at(0.002);
    }

    #[test]
    fn lazy_arrivals_match_reference_schedule() {
        let sim = phone_sim(hotel_reservation());
        let compiled = sim.compile();
        let workload = Workload::phased(
            vec![
                Phase::idle(1.0),
                Phase::new(300.0, 2.0, None),
                Phase::new(150.0, 1.0, Some("search-hotel")),
            ],
            9,
        );
        let lazy: Vec<(f64, usize)> = compiled.arrivals(&workload).unwrap().collect();
        assert!(!lazy.is_empty());
        // Time-ordered, inside the loaded phases only.
        for pair in lazy.windows(2) {
            assert!(pair[0].0 <= pair[1].0);
        }
        assert!(lazy.iter().all(|(t, _)| *t >= 1.0 && *t < 4.0));
        // The reference engine offers exactly as many requests.
        let reference = sim.run_reference(&workload).unwrap();
        assert_eq!(lazy.len(), reference.offered());
    }

    #[test]
    fn compiled_run_is_bit_identical_to_reference() {
        let sim = phone_sim(social_network());
        for workload in [
            Workload::steady(800.0, 2.0, Some(SN_COMPOSE_POST), 42),
            Workload::steady(500.0, 2.0, None, 7),
            Workload::phased(
                vec![
                    Phase::idle(1.0),
                    Phase::new(400.0, 2.0, None),
                    Phase::idle(0.5),
                ],
                3,
            ),
            Workload::phased(
                vec![
                    Phase::ramp(100.0, 900.0, 2.0, None),
                    Phase::ramp(900.0, 200.0, 1.5, Some(SN_COMPOSE_POST)),
                ],
                11,
            ),
        ] {
            let reference = sim.run_reference(&workload).unwrap();
            let compiled = sim.run(&workload).unwrap();
            assert_eq!(reference, compiled);
        }
    }

    #[test]
    fn ramp_arrivals_follow_the_time_varying_rate() {
        let sim = phone_sim(hotel_reservation());
        let compiled = sim.compile();
        // A 0 -> 1,000 qps ramp over 8 s offers ~4,000 requests, three
        // quarters of them in the second half.
        let workload = Workload::phased(vec![Phase::ramp(0.0, 1_000.0, 8.0, None)], 5);
        let arrivals: Vec<(f64, usize)> = compiled.arrivals(&workload).unwrap().collect();
        let total = arrivals.len() as f64;
        assert!((3_400.0..4_600.0).contains(&total), "offered {total}");
        let second_half = arrivals.iter().filter(|(t, _)| *t >= 4.0).count() as f64;
        let share = second_half / total;
        assert!(
            (0.70..0.80).contains(&share),
            "second-half share {share} should be ~0.75"
        );
        // Arrival times stay ordered and inside the phase.
        for pair in arrivals.windows(2) {
            assert!(pair[0].0 <= pair[1].0);
        }
        assert!(arrivals.iter().all(|(t, _)| (0.0..8.0).contains(t)));
    }

    #[test]
    fn flat_ramp_is_bit_identical_to_a_constant_phase() {
        // A ramp with equal endpoints takes the constant-phase path (no
        // thinning draw), so the arrival stream is unchanged.
        let sim = phone_sim(social_network());
        let compiled = sim.compile();
        let constant = Workload::phased(vec![Phase::new(600.0, 2.0, None)], 9);
        let flat_ramp = Workload::phased(vec![Phase::ramp(600.0, 600.0, 2.0, None)], 9);
        let a: Vec<(f64, usize)> = compiled.arrivals(&constant).unwrap().collect();
        let b: Vec<(f64, usize)> = compiled.arrivals(&flat_ramp).unwrap().collect();
        assert_eq!(a, b);
        assert_eq!(sim.run(&constant).unwrap(), sim.run(&flat_ramp).unwrap());
    }

    #[test]
    fn compiled_colocated_client_matches_reference() {
        let app = social_network();
        let nodes = vec![NodeSpec::c5("c5", 36, 72.0)];
        let placement = Placement::single_node(&app);
        let sim = Simulation::new(app, nodes, placement, NetworkModel::single_node_loopback())
            .unwrap()
            .with_colocated_client(true);
        let workload = Workload::steady(2_500.0, 2.0, Some(SN_COMPOSE_POST), 4);
        assert_eq!(
            sim.run_reference(&workload).unwrap(),
            sim.run(&workload).unwrap()
        );
    }

    #[test]
    fn unknown_request_type_is_reported() {
        let sim = phone_sim(hotel_reservation());
        let err = sim
            .compile()
            .run(&Workload::steady(10.0, 1.0, Some("nope"), 0))
            .unwrap_err();
        assert!(matches!(err, SimError::UnknownRequestType(_)));
    }
}
