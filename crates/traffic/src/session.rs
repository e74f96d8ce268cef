//! The packet simulator: a resumable, fault-aware run of FIFO per-link
//! queues served by a repeating TDMA frame.
//!
//! [`TrafficSession`] is the workspace's one packet-level simulator. It runs
//! in **segments**: [`advance`](TrafficSession::advance) runs the clock
//! forward a given number of slots and returns, leaving queues, arrival
//! samplers and in-flight packets intact so the caller can mutate the world
//! between segments:
//!
//! * [`fail_link`](TrafficSession::fail_link) /
//!   [`restore_link`](TrafficSession::restore_link) — a dead link stops
//!   serving; its queued packets strand until rescued or the link returns;
//! * [`swap_frame`](TrafficSession::swap_frame) — install a repaired frame
//!   mid-run (the new frame starts counting its slot 0 at the swap slot);
//! * [`set_routes`](TrafficSession::set_routes) — install a new
//!   [`ForwardingTable`]; packets already in flight follow the new table
//!   from wherever they are (hop-by-hop forwarding, not source routing);
//! * [`rescue_stranded`](TrafficSession::rescue_stranded) — re-home packets
//!   stuck on dead or no-longer-served links via the current table,
//!   dropping those with nowhere to go;
//! * [`pause_source`](TrafficSession::pause_source) /
//!   [`resume_source`](TrafficSession::resume_source) — the admission
//!   controller's lever: a paused source injects nothing, and resuming
//!   fast-forwards its arrival process past the paused interval.
//!
//! Packets follow either explicit per-source link paths, resolved to link
//! indices once at construction — how [`TrafficEngine`](crate::TrafficEngine)
//! runs a [`FlowSet`], as one segment over its horizon — or a hop-by-hop
//! forwarding table, the reading of a
//! [`RoutingForest`](scream_topology::RoutingForest) that makes rerouting
//! well-defined for packets already mid-path.
//!
//! The simulation is event-driven, never slot-driven: the only events are
//! arrivals and per-hop departures. Service is FIFO, so a packet's
//! departure slot is fixed when it joins a queue — the next scheduled slot
//! at or after both its ready slot and the slot its predecessor left the
//! server — which [`FrameService::next_service_slot`] answers in
//! O(log #windows). A segment costs O(packet-hops · log #windows + events),
//! whatever the frame's slot count. Segmentation is transparent: departure
//! assignments are FIFO-reconstructed from the queue state at every segment
//! start, which yields the slots a continuous run would have assigned.
//! Arrivals are seeded per source and the event queue breaks timestamp ties
//! in scheduling order, so the same inputs replay the same run.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use scream_netsim::{EventQueue, SimTime};
use scream_scheduling::FrameService;
use scream_topology::{Link, NodeId, RoutingForest};

use crate::engine::{TrafficConfig, TrafficError};
use crate::flow::{ArrivalProcess, ArrivalSampler, FlowSet};
use crate::report::{self, DelayStats, LinkLoad, StabilityVerdict};

/// Hop-by-hop routing state: each node's uplink toward its gateway, plus
/// which nodes are sinks (gateways). Built from a routing forest — including
/// a partial one, where cut-off nodes simply have no next hop.
#[derive(Debug, Clone, PartialEq)]
pub struct ForwardingTable {
    next_hop: Vec<Option<Link>>,
    sink: Vec<bool>,
}

impl ForwardingTable {
    /// Builds the table from a routing forest: every reachable non-gateway
    /// node forwards on its tree edge, gateways are sinks, and cut-off nodes
    /// (partial forests) forward nowhere.
    pub fn from_forest(forest: &RoutingForest) -> Self {
        let n = forest.node_count();
        let next_hop = (0..n as u32)
            .map(NodeId::new)
            .map(|v| forest.is_reachable(v).then(|| forest.link_of(v)).flatten())
            .collect();
        let sink = (0..n as u32)
            .map(NodeId::new)
            .map(|v| forest.is_reachable(v) && forest.is_gateway(v))
            .collect();
        Self { next_hop, sink }
    }

    /// Number of nodes covered.
    pub fn node_count(&self) -> usize {
        self.next_hop.len()
    }

    /// The uplink `node` forwards on, or `None` for sinks and cut-off nodes.
    pub fn next_hop(&self, node: NodeId) -> Option<Link> {
        self.next_hop.get(node.index()).copied().flatten()
    }

    /// Whether `node` is a delivery sink (gateway).
    pub fn is_sink(&self, node: NodeId) -> bool {
        self.sink.get(node.index()).copied().unwrap_or(false)
    }

    /// The links of `node`'s path to its sink under this table, bounded by
    /// the node count (a malformed table cannot loop forever).
    pub fn path_links(&self, node: NodeId) -> Vec<Link> {
        let mut links = Vec::new();
        let mut current = node;
        for _ in 0..self.node_count() {
            let Some(link) = self.next_hop(current) else {
                break;
            };
            links.push(link);
            current = link.tail;
            if self.is_sink(current) {
                break;
            }
        }
        links
    }
}

/// One traffic source: a node injecting packets toward its gateway.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Source {
    /// The injecting node.
    pub node: NodeId,
    /// Its arrival process.
    pub arrival: ArrivalProcess,
}

/// How a session picks each packet's next link.
#[derive(Debug)]
enum Routing {
    /// Source `i` sends along a fixed path; `hops[i][h]` is the registry
    /// index of its `h`-th link, resolved once so forwarding needs no lookup.
    Paths { hops: Vec<Vec<u32>> },
    /// Hop-by-hop forwarding on a table.
    Table(ForwardingTable),
}

/// Where a packet goes next.
enum Step {
    /// Join the queue of the link with this registry index.
    Forward(u32),
    /// Leave the network at its destination.
    Deliver,
    /// Nowhere to go: the packet is lost.
    Drop,
}

/// A packet in a session queue: its source, how many links it has crossed,
/// and when it was created.
#[derive(Debug, Clone, Copy)]
struct SessionPacket {
    source: u32,
    hop: u32,
    created: SimTime,
}

/// Per-link FIFO queue plus the TDMA server cursor.
#[derive(Debug, Default)]
struct SessionQueue {
    queue: VecDeque<SessionPacket>,
    /// `(absolute slot, used, capacity)` of the last assigned service slot.
    cursor: Option<(u64, u32, u32)>,
    dead: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SessionEvent {
    Arrival { source: u32 },
    Departure { link: u32 },
}

/// Measurements of one [`advance`](TrafficSession::advance) segment.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentReport {
    /// First slot of the segment (inclusive).
    pub start_slot: u64,
    /// One past the last slot of the segment.
    pub end_slot: u64,
    /// Packets injected during the segment.
    pub injected: u64,
    /// Packets delivered to a sink during the segment.
    pub delivered: u64,
    /// Packets dropped during the segment (no route at a live hop).
    pub dropped: u64,
    /// In-flight packets when the segment ended.
    pub backlog_end: u64,
}

impl SegmentReport {
    /// Delivered ÷ injected over this segment, in percent (100 when nothing
    /// was injected — an idle segment loses nothing).
    pub fn delivery_pct(&self) -> f64 {
        if self.injected == 0 {
            100.0
        } else {
            self.delivered as f64 / self.injected as f64 * 100.0
        }
    }
}

/// Cumulative counters over a whole session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize)]
pub struct SessionTotals {
    /// Packets injected since the session started.
    pub injected: u64,
    /// Packets delivered to a sink.
    pub delivered: u64,
    /// Packets dropped (no route at a live hop, or unrescuable strands).
    pub dropped: u64,
    /// Stranded packets re-homed onto new routes by rescue passes.
    pub rescued: u64,
    /// Packets currently queued somewhere.
    pub in_flight: u64,
    /// Maximum concurrent in-flight packets ever observed.
    pub peak_backlog: u64,
}

/// The resumable traffic simulation. See the module docs.
#[derive(Debug)]
pub struct TrafficSession {
    frame: Arc<FrameService>,
    /// Absolute slot at which `frame` was installed (its slot 0).
    frame_epoch: u64,
    routing: Routing,
    sources: Vec<Source>,
    samplers: Vec<ArrivalSampler>,
    /// Per source, an arrival instant (absolute slots) drawn past the end of
    /// an earlier segment and not yet scheduled.
    pending_arrival: Vec<Option<f64>>,
    paused: Vec<bool>,
    /// Link registry: stable indices across frame swaps and reroutes.
    links: Vec<Link>,
    link_index: HashMap<Link, u32>,
    queues: Vec<SessionQueue>,
    now_slot: u64,
    slot_ns: u64,
    slot_duration: SimTime,
    totals: SessionTotals,
    delays_slots: Vec<f64>,
}

impl TrafficSession {
    /// Creates a session serving `sources` over `routes` with the repeating
    /// `frame`. Source `i` draws its arrivals from seed `config.seed + i · φ`
    /// — the seeding of flow `i` in a [`TrafficEngine`](crate::TrafficEngine)
    /// run. The `horizon_frames` field of `config` is ignored — the caller
    /// paces the session with [`advance`](Self::advance).
    ///
    /// # Errors
    ///
    /// * [`TrafficError::EmptyFrame`] for a frame with no slots;
    /// * [`TrafficError::NoFlows`] for an empty source list;
    /// * [`TrafficError::ZeroSlotDuration`] for a zero slot duration.
    pub fn new(
        frame: FrameService,
        sources: Vec<Source>,
        routes: ForwardingTable,
        config: TrafficConfig,
    ) -> Result<Self, TrafficError> {
        if frame.is_empty() {
            return Err(TrafficError::EmptyFrame);
        }
        if sources.is_empty() {
            return Err(TrafficError::NoFlows);
        }
        if config.slot_duration == SimTime::ZERO {
            return Err(TrafficError::ZeroSlotDuration);
        }
        Ok(Self::build(
            Arc::new(frame),
            sources,
            Routing::Table(routes),
            config,
        ))
    }

    /// A session sending flow `i`'s packets along its explicit route, with
    /// the route links registered in first-appearance order. The caller has
    /// validated the frame, flows and slot duration.
    pub(crate) fn on_paths(
        frame: Arc<FrameService>,
        flows: &FlowSet,
        config: TrafficConfig,
    ) -> Self {
        let sources = flows
            .flows()
            .iter()
            .map(|flow| Source {
                node: flow.source,
                arrival: flow.arrival,
            })
            .collect();
        let mut session = Self::build(frame, sources, Routing::Paths { hops: Vec::new() }, config);
        let hops = flows
            .flows()
            .iter()
            .map(|flow| {
                flow.route
                    .iter()
                    .map(|&link| session.link_idx(link))
                    .collect()
            })
            .collect();
        session.routing = Routing::Paths { hops };
        session
    }

    fn build(
        frame: Arc<FrameService>,
        sources: Vec<Source>,
        routing: Routing,
        config: TrafficConfig,
    ) -> Self {
        let samplers = sources
            .iter()
            .enumerate()
            .map(|(i, source)| {
                let seed = config
                    .seed
                    .wrapping_add((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
                ArrivalSampler::new(source.arrival, seed)
            })
            .collect();
        let pending_arrival = vec![None; sources.len()];
        let paused = vec![false; sources.len()];
        Self {
            frame,
            frame_epoch: 0,
            routing,
            samplers,
            pending_arrival,
            paused,
            sources,
            links: Vec::new(),
            link_index: HashMap::new(),
            queues: Vec::new(),
            now_slot: 0,
            slot_ns: config.slot_duration.as_nanos(),
            slot_duration: config.slot_duration,
            totals: SessionTotals::default(),
            delays_slots: Vec::new(),
        }
    }

    /// The current absolute slot (start of the next segment).
    pub fn now_slot(&self) -> u64 {
        self.now_slot
    }

    /// The frame currently being served.
    pub fn frame(&self) -> &FrameService {
        &self.frame
    }

    /// The current forwarding table (empty while the session routes along
    /// explicit paths).
    pub fn routes(&self) -> &ForwardingTable {
        static NO_TABLE: ForwardingTable = ForwardingTable {
            next_hop: Vec::new(),
            sink: Vec::new(),
        };
        match &self.routing {
            Routing::Table(table) => table,
            Routing::Paths { .. } => &NO_TABLE,
        }
    }

    /// Cumulative counters since the session started.
    pub fn totals(&self) -> SessionTotals {
        self.totals
    }

    /// End-to-end delay statistics over every packet delivered so far.
    pub fn delay(&self) -> DelayStats {
        DelayStats::from_delays(self.delays_slots.clone())
    }

    /// [`delay`](Self::delay) without copying the samples.
    pub(crate) fn into_delay(self) -> DelayStats {
        DelayStats::from_delays(self.delays_slots)
    }

    fn link_idx(&mut self, link: Link) -> u32 {
        let next = self.links.len() as u32;
        let idx = *self.link_index.entry(link).or_insert(next);
        if idx == next {
            self.links.push(link);
            self.queues.push(SessionQueue::default());
        }
        idx
    }

    /// Marks `link` dead: it stops serving and packets queued on it strand
    /// (until [`rescue_stranded`](Self::rescue_stranded) or
    /// [`restore_link`](Self::restore_link)).
    pub fn fail_link(&mut self, link: Link) {
        let idx = self.link_idx(link);
        self.queues[idx as usize].dead = true;
        scream_obs::counter_add("traffic.link_failures", 1);
    }

    /// Brings a failed link back into service.
    pub fn restore_link(&mut self, link: Link) {
        let idx = self.link_idx(link);
        self.queues[idx as usize].dead = false;
    }

    /// Whether `link` is currently marked dead.
    pub fn is_link_dead(&self, link: Link) -> bool {
        self.link_index
            .get(&link)
            .map(|&i| self.queues[i as usize].dead)
            .unwrap_or(false)
    }

    /// Installs a repaired frame. The new frame's slot 0 is the current
    /// slot, so service windows are phase-aligned with the swap, not with
    /// the session origin. Queued packets are re-assigned to the new frame's
    /// slots at the start of the next segment.
    pub fn swap_frame(&mut self, frame: FrameService) -> Result<(), TrafficError> {
        if frame.is_empty() {
            return Err(TrafficError::EmptyFrame);
        }
        self.frame = Arc::new(frame);
        self.frame_epoch = self.now_slot;
        for queue in &mut self.queues {
            queue.cursor = None;
        }
        scream_obs::counter_add("traffic.frame_swaps", 1);
        Ok(())
    }

    /// Installs a new forwarding table. Packets already in flight follow it
    /// from their current position at their next hop.
    pub fn set_routes(&mut self, routes: ForwardingTable) {
        self.routing = Routing::Table(routes);
    }

    /// Pauses a source (admission control): it injects nothing until
    /// resumed. Unknown nodes are ignored.
    pub fn pause_source(&mut self, node: NodeId) {
        if let Some(i) = self.sources.iter().position(|s| s.node == node) {
            self.paused[i] = true;
        }
    }

    /// Resumes a paused source, fast-forwarding its arrival process past the
    /// paused interval (arrivals that would have occurred while paused are
    /// discarded, not batched).
    pub fn resume_source(&mut self, node: NodeId) {
        let Some(i) = self.sources.iter().position(|s| s.node == node) else {
            return;
        };
        if !self.paused[i] {
            return;
        }
        self.paused[i] = false;
        let now = self.now_slot as f64;
        let mut next = self.pending_arrival[i];
        while next.map(|t| t < now).unwrap_or(true) {
            let drawn = self.samplers[i].next_arrival_slots();
            if drawn >= now {
                next = Some(drawn);
                break;
            }
            next = Some(drawn);
        }
        self.pending_arrival[i] = next;
    }

    /// Whether `node`'s source is currently paused.
    pub fn is_source_paused(&self, node: NodeId) -> bool {
        self.sources
            .iter()
            .position(|s| s.node == node)
            .map(|i| self.paused[i])
            .unwrap_or(false)
    }

    /// Re-homes packets stranded on links that are dead or no longer served
    /// by the current frame: each is re-enqueued at its head node's current
    /// next hop (counted as rescued), or dropped if the node has none.
    /// Returns `(rescued, dropped)`.
    pub fn rescue_stranded(&mut self) -> (u64, u64) {
        let mut rescued = 0u64;
        let mut dropped = 0u64;
        for idx in 0..self.links.len() {
            let link = self.links[idx];
            let stranded = {
                let q = &self.queues[idx];
                q.dead || self.frame.service_slots(link) == 0
            };
            if !stranded || self.queues[idx].queue.is_empty() {
                continue;
            }
            let packets: Vec<SessionPacket> = self.queues[idx].queue.drain(..).collect();
            self.queues[idx].cursor = None;
            let target = self.routes().next_hop(link.head).filter(|&t| t != link);
            match target {
                Some(target) => {
                    let tidx = self.link_idx(target) as usize;
                    rescued += packets.len() as u64;
                    self.queues[tidx].queue.extend(packets);
                    // Fresh assignments for the merged queue next segment.
                    self.queues[tidx].cursor = None;
                }
                None => {
                    dropped += packets.len() as u64;
                    self.totals.in_flight -= packets.len() as u64;
                }
            }
        }
        self.totals.rescued += rescued;
        self.totals.dropped += dropped;
        scream_obs::counter_add("traffic.rescued", rescued);
        scream_obs::counter_add("traffic.rescue_dropped", dropped);
        (rescued, dropped)
    }

    /// Per-link offered load vs. service share under the **current** routes,
    /// frame, fault state and pause state, with the analytic stability
    /// verdict. Dead links count as zero service, so any offered load on
    /// them is an infinite bottleneck.
    pub fn analytic_loads(&self) -> (Vec<LinkLoad>, StabilityVerdict) {
        let share = |link| {
            if self.is_link_dead(link) {
                0.0
            } else {
                self.frame.service_share(link)
            }
        };
        let active = (0..self.sources.len()).filter(|&i| !self.paused[i]);
        let rate = |i: usize| self.sources[i].arrival.mean_rate();
        match &self.routing {
            Routing::Paths { hops } => report::link_loads(
                active.map(|i| (rate(i), hops[i].iter().map(|&h| self.links[h as usize]))),
                share,
            ),
            Routing::Table(table) => report::link_loads(
                active.map(|i| (rate(i), table.path_links(self.sources[i].node))),
                share,
            ),
        }
    }

    /// `FrameService::next_service_slot` in absolute session slots: the
    /// frame repeats from `frame_epoch`, not from slot 0.
    fn next_service_abs(&self, link: Link, from_abs: u64) -> Option<(u64, u32)> {
        let from_rel = from_abs.saturating_sub(self.frame_epoch);
        self.frame
            .next_service_slot(link, from_rel)
            .map(|n| (n.slot + self.frame_epoch, n.capacity))
    }

    /// Assigns the departure slot for a packet joining `link`'s FIFO queue
    /// with the given ready slot, honoring per-slot service capacity.
    /// `None` for dead links and links the frame never serves (the packet
    /// waits until the link returns or is rescued).
    fn assign_departure(&mut self, link_idx: u32, ready: u64) -> Option<u64> {
        let link = self.links[link_idx as usize];
        if self.queues[link_idx as usize].dead {
            return None;
        }
        if let Some((slot, used, capacity)) = self.queues[link_idx as usize].cursor {
            if ready <= slot {
                if used < capacity {
                    self.queues[link_idx as usize].cursor = Some((slot, used + 1, capacity));
                    return Some(slot);
                }
                let (next, capacity) = self.next_service_abs(link, slot + 1)?;
                self.queues[link_idx as usize].cursor = Some((next, 1, capacity));
                return Some(next);
            }
        }
        let (next, capacity) = self.next_service_abs(link, ready)?;
        self.queues[link_idx as usize].cursor = Some((next, 1, capacity));
        Some(next)
    }

    /// Assigns the next departure from `link_idx` for a packet ready at
    /// slot `ready` and schedules its event (at the end of the assigned
    /// slot) if it falls inside the segment.
    fn schedule_departure(
        &mut self,
        queue: &mut EventQueue<SessionEvent>,
        end: SimTime,
        link_idx: u32,
        ready: u64,
    ) {
        if let Some(slot) = self.assign_departure(link_idx, ready) {
            let at = self.slot_duration.saturating_mul(slot + 1);
            if at <= end {
                queue.schedule(at, SessionEvent::Departure { link: link_idx });
            }
        }
    }

    /// Schedules `source`'s arrival drawn at `slots`, or keeps it pending
    /// for a later segment when it falls at or past `end`.
    fn schedule_arrival(
        &mut self,
        queue: &mut EventQueue<SessionEvent>,
        end: SimTime,
        source: u32,
        slots: f64,
    ) {
        let at = SimTime::from_nanos((slots * self.slot_ns as f64).round() as u64);
        if at < end {
            queue.schedule(at.max(queue.now()), SessionEvent::Arrival { source });
        } else {
            self.pending_arrival[source as usize] = Some(slots);
        }
    }

    /// Where `packet` goes after crossing link `from`, or at injection when
    /// `from` is `None`.
    fn next_step(&mut self, packet: SessionPacket, from: Option<u32>) -> Step {
        let link = match (&self.routing, from) {
            (Routing::Paths { hops }, _) => {
                return match hops[packet.source as usize].get(packet.hop as usize) {
                    Some(&idx) => Step::Forward(idx),
                    None => Step::Deliver,
                };
            }
            (Routing::Table(table), None) => {
                table.next_hop(self.sources[packet.source as usize].node)
            }
            (Routing::Table(table), Some(from)) => {
                let node = self.links[from as usize].tail;
                if table.is_sink(node) {
                    return Step::Deliver;
                }
                table.next_hop(node)
            }
        };
        match link {
            Some(link) => Step::Forward(self.link_idx(link)),
            None => Step::Drop,
        }
    }

    /// Moves an in-flight `packet` that crossed link `from` (or was just
    /// injected) at time `now` on to its next queue, out of the network, or
    /// to the drop count.
    fn forward(
        &mut self,
        queue: &mut EventQueue<SessionEvent>,
        end: SimTime,
        packet: SessionPacket,
        from: Option<u32>,
        now: SimTime,
    ) {
        match self.next_step(packet, from) {
            Step::Forward(idx) => {
                self.queues[idx as usize].queue.push_back(packet);
                // Ready for the first slot starting at or after `now`.
                let ready = now.as_nanos().div_ceil(self.slot_ns);
                self.schedule_departure(queue, end, idx, ready);
            }
            Step::Deliver => {
                self.totals.delivered += 1;
                self.totals.in_flight -= 1;
                let delay = now.saturating_sub(packet.created);
                self.delays_slots
                    .push(delay.as_nanos() as f64 / self.slot_ns as f64);
            }
            Step::Drop => {
                self.totals.dropped += 1;
                self.totals.in_flight -= 1;
            }
        }
    }

    /// Runs the simulation forward `slots` slots and returns the segment's
    /// measurements. Departure assignments are FIFO-reconstructed from the
    /// queue state at the segment start, so pausing and resuming at any
    /// boundary does not change what a continuous run would have done.
    pub fn advance(&mut self, slots: u64) -> SegmentReport {
        let start_slot = self.now_slot;
        let end_slot = start_slot + slots;
        let end = self.slot_duration.saturating_mul(end_slot);
        let before = self.totals;
        let mut queue: EventQueue<SessionEvent> = EventQueue::new();

        // Reconstruct departure assignments for everything queued: reset
        // cursors, then re-assign in FIFO order with ready = segment start.
        for q in &mut self.queues {
            q.cursor = None;
        }
        for idx in 0..self.links.len() as u32 {
            let backlog = self.queues[idx as usize].queue.len();
            for _ in 0..backlog {
                self.schedule_departure(&mut queue, end, idx, start_slot);
            }
        }
        // Arm arrivals for every unpaused source.
        for i in 0..self.sources.len() as u32 {
            if !self.paused[i as usize] {
                let slots = match self.pending_arrival[i as usize].take() {
                    Some(slots) => slots,
                    None => self.samplers[i as usize].next_arrival_slots(),
                };
                self.schedule_arrival(&mut queue, end, i, slots);
            }
        }

        queue.run_until(end, |q, ev| match ev.event {
            SessionEvent::Arrival { source } => {
                self.totals.injected += 1;
                self.totals.in_flight += 1;
                let packet = SessionPacket {
                    source,
                    hop: 0,
                    created: ev.time,
                };
                self.forward(q, end, packet, None, ev.time);
                // Departures never raise the in-flight count, and a packet
                // dropped at injection left it where it was.
                self.totals.peak_backlog = self.totals.peak_backlog.max(self.totals.in_flight);
                let slots = self.samplers[source as usize].next_arrival_slots();
                self.schedule_arrival(q, end, source, slots);
            }
            SessionEvent::Departure { link } => {
                let mut packet = self.queues[link as usize]
                    .queue
                    .pop_front()
                    .expect("departure events match queued packets one to one");
                packet.hop += 1;
                self.forward(q, end, packet, Some(link), ev.time);
            }
        });
        self.now_slot = end_slot;
        let segment = SegmentReport {
            start_slot,
            end_slot,
            injected: self.totals.injected - before.injected,
            delivered: self.totals.delivered - before.delivered,
            dropped: self.totals.dropped - before.dropped,
            backlog_end: self.totals.in_flight,
        };
        scream_obs::set_slot(end_slot);
        scream_obs::counter_add("traffic.injected", segment.injected);
        scream_obs::counter_add("traffic.delivered", segment.delivered);
        scream_obs::counter_add("traffic.dropped", segment.dropped);
        scream_obs::gauge_set("traffic.backlog", segment.backlog_end);
        scream_obs::event(
            "traffic.segment",
            &[
                ("injected", segment.injected),
                ("delivered", segment.delivered),
                ("dropped", segment.dropped),
                ("backlog", segment.backlog_end),
            ],
        );
        segment
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::TrafficEngine;
    use crate::flow::FlowSet;
    use scream_scheduling::Schedule;
    use scream_topology::{DemandVector, Graph, GraphKind};

    fn link(a: u32, b: u32) -> Link {
        Link::new(NodeId::new(a), NodeId::new(b))
    }

    /// A path 3→2→1→0 with gateway 0, served round-robin one link per slot.
    fn path_setup() -> (Schedule, ForwardingTable) {
        let table = ForwardingTable::from_forest(&path_forest());
        let frame =
            Schedule::from_slots(vec![vec![link(3, 2)], vec![link(2, 1)], vec![link(1, 0)]]);
        (frame, table)
    }

    fn path_forest() -> RoutingForest {
        let mut g = Graph::new(4, GraphKind::Undirected);
        for (u, v) in [(0u32, 1u32), (1, 2), (2, 3)] {
            g.add_edge(NodeId::new(u), NodeId::new(v)).unwrap();
        }
        RoutingForest::shortest_path(&g, &[NodeId::new(0)], 1).unwrap()
    }

    fn session(frame: &Schedule, table: ForwardingTable, rate: f64, seed: u64) -> TrafficSession {
        let sources = vec![Source {
            node: NodeId::new(3),
            arrival: ArrivalProcess::deterministic(rate),
        }];
        let mut config = TrafficConfig::new(1);
        config.seed = seed;
        TrafficSession::new(FrameService::from_schedule(frame), sources, table, config).unwrap()
    }

    #[test]
    fn forwarding_table_paths_follow_the_forest() {
        let (_, table) = path_setup();
        assert_eq!(
            table.path_links(NodeId::new(3)),
            vec![link(3, 2), link(2, 1), link(1, 0)]
        );
        assert!(table.is_sink(NodeId::new(0)));
        assert_eq!(table.next_hop(NodeId::new(0)), None);
    }

    #[test]
    fn session_matches_engine_on_an_uninterrupted_run() {
        // Same path, same seed, same horizon: a table-routed session must
        // reproduce the path-routed run — the engine's report and a
        // path-routed session advanced directly — exactly.
        let (frame, table) = path_setup();
        let horizon_frames = 40u64;
        let demands = DemandVector::from_vec(vec![0, 1, 1, 1]);
        let flows = FlowSet::along_forest_with(&path_forest(), &demands, 0.2, |_, r| {
            ArrivalProcess::poisson(r)
        });
        let config = TrafficConfig::new(horizon_frames).with_seed(11);
        let engine = TrafficEngine::on_schedule(&frame, flows.clone(), config).unwrap();
        let report = engine.run();
        let mut paths = TrafficSession::on_paths(
            Arc::new(FrameService::from_schedule(&frame)),
            &flows,
            config,
        );
        paths.advance(horizon_frames * 3);

        // The forest has sources {1, 2, 3}; the engine seeds flows by index
        // in node order, so the session must list sources the same way.
        let sources: Vec<Source> = [1u32, 2, 3]
            .iter()
            .map(|&n| Source {
                node: NodeId::new(n),
                arrival: ArrivalProcess::poisson(0.2),
            })
            .collect();
        let mut session =
            TrafficSession::new(FrameService::from_schedule(&frame), sources, table, config)
                .unwrap();
        let segment = session.advance(horizon_frames * 3);
        assert_eq!(
            (segment.injected, segment.delivered, segment.dropped),
            (report.injected, report.delivered, 0)
        );
        assert_eq!(
            session.totals(),
            SessionTotals {
                injected: report.injected,
                delivered: report.delivered,
                dropped: 0,
                rescued: 0,
                in_flight: report.final_backlog,
                peak_backlog: report.peak_backlog,
            }
        );
        assert_eq!(session.totals(), paths.totals());
        assert_eq!(session.delay(), report.delay);
        assert_eq!(session.delay(), paths.delay());
        assert_eq!(
            session.analytic_loads(),
            (report.link_loads, report.verdict)
        );
        assert!(report.delivered > 0);
    }

    #[test]
    fn segmentation_is_transparent() {
        // Advancing in many small segments must give the same cumulative
        // counts as one big segment (fresh identical session).
        let (frame, table) = path_setup();
        let mut one = session(&frame, table.clone(), 0.25, 7);
        let big = one.advance(120);
        let mut many = session(&frame, table, 0.25, 7);
        let mut injected = 0;
        let mut delivered = 0;
        for _ in 0..12 {
            let s = many.advance(10);
            injected += s.injected;
            delivered += s.delivered;
        }
        assert_eq!(injected, big.injected);
        assert_eq!(delivered, big.delivered);
        assert_eq!(many.totals(), one.totals());
        assert!((many.delay().mean_slots - one.delay().mean_slots).abs() < 1e-9);
    }

    #[test]
    fn a_dead_link_strands_packets_and_the_verdict_turns_overloaded() {
        let (frame, table) = path_setup();
        let mut s = session(&frame, table, 0.25, 3);
        let before = s.advance(60);
        assert!(before.delivered > 0);
        let (_, verdict) = s.analytic_loads();
        assert!(verdict.is_stable());

        s.fail_link(link(2, 1));
        let during = s.advance(60);
        assert_eq!(
            during.delivered, 0,
            "everything funnels through the dead link"
        );
        assert!(during.backlog_end > 0, "strands accumulate");
        let (loads, verdict) = s.analytic_loads();
        assert!(!verdict.is_stable());
        let dead = loads.iter().find(|l| l.link == link(2, 1)).unwrap();
        assert!(dead.utilization().is_infinite());
    }

    #[test]
    fn restore_link_resumes_service_for_stranded_packets() {
        let (frame, table) = path_setup();
        let mut s = session(&frame, table, 0.25, 3);
        s.fail_link(link(2, 1));
        let during = s.advance(40);
        assert_eq!(during.delivered, 0);
        s.restore_link(link(2, 1));
        let after = s.advance(80);
        assert!(after.delivered > 0, "strands drain once the link returns");
        let (_, verdict) = s.analytic_loads();
        assert!(verdict.is_stable());
    }

    #[test]
    fn rescue_reroutes_strands_and_drops_the_unroutable() {
        // Diamond: 3 can reach gateway 0 via 2 or via 1. Start via 2, kill
        // (2,0), reroute via 1, rescue.
        let mut g = Graph::new(4, GraphKind::Undirected);
        for (u, v) in [(0u32, 1u32), (0, 2), (3, 1), (3, 2)] {
            g.add_edge(NodeId::new(u), NodeId::new(v)).unwrap();
        }
        let dead = link(2, 0);
        // Build a table routing 3 → 2 → 0 by pruning the (3,1) option.
        let via2 = RoutingForest::shortest_path(
            &g.without_edges([(NodeId::new(3), NodeId::new(1))]),
            &[NodeId::new(0)],
            1,
        )
        .unwrap();
        let frame = Schedule::from_slots(vec![
            vec![link(3, 2)],
            vec![dead],
            vec![link(3, 1)],
            vec![link(1, 0)],
        ]);
        let sources = vec![Source {
            node: NodeId::new(3),
            arrival: ArrivalProcess::deterministic(0.2),
        }];
        let mut s = TrafficSession::new(
            FrameService::from_schedule(&frame),
            sources,
            ForwardingTable::from_forest(&via2),
            TrafficConfig::new(1),
        )
        .unwrap();
        s.advance(20);
        s.fail_link(dead);
        s.advance(20);
        let stranded = s
            .link_index
            .get(&dead)
            .map(|&i| s.queues[i as usize].queue.len())
            .unwrap_or(0);
        assert!(stranded > 0, "packets pile on the dead link");

        // Reroute around the failure and rescue: 2's packets re-home via
        // 2 → ... under the new table. In the pruned graph without (2,0),
        // node 2 routes via 3 → 1 → 0.
        let rerouted = RoutingForest::shortest_path(
            &g.without_edges([(dead.head, dead.tail)]),
            &[NodeId::new(0)],
            1,
        )
        .unwrap();
        s.set_routes(ForwardingTable::from_forest(&rerouted));
        let (rescued, dropped) = s.rescue_stranded();
        assert_eq!(rescued as usize, stranded);
        assert_eq!(dropped, 0);
        // The rescued packets need service on their rescue path; the frame
        // already serves (3,1) and (1,0)... but 2 routes via (2,3) which the
        // frame never serves, so they strand again until a frame swap. Swap
        // in a frame that serves the rescue path.
        let repaired =
            Schedule::from_slots(vec![vec![link(2, 3)], vec![link(3, 1)], vec![link(1, 0)]]);
        s.swap_frame(FrameService::from_schedule(&repaired))
            .unwrap();
        let (rescued2, dropped2) = s.rescue_stranded();
        assert_eq!((rescued2, dropped2), (0, 0), "nothing left stranded");
        let after = s.advance(120);
        assert!(after.delivered > 0, "rescued packets reach the gateway");
        assert_eq!(s.totals().rescued, rescued);
    }

    #[test]
    fn rescue_drops_packets_with_no_remaining_route() {
        let (frame, table) = path_setup();
        let mut s = session(&frame, table, 0.25, 9);
        s.advance(40);
        s.fail_link(link(1, 0));
        s.advance(40);
        // Cut node 1 off entirely: the partial forest reaches only {0}.
        let g = Graph::new(4, GraphKind::Undirected);
        let (orphaned, _) = RoutingForest::shortest_path_partial(&g, &[NodeId::new(0)], 1).unwrap();
        s.set_routes(ForwardingTable::from_forest(&orphaned));
        let before = s.totals();
        let (rescued, dropped) = s.rescue_stranded();
        assert_eq!(rescued, 0);
        assert!(dropped > 0, "unroutable strands are dropped");
        assert_eq!(s.totals().dropped, before.dropped + dropped);
        assert_eq!(s.totals().in_flight, before.in_flight - dropped);
    }

    #[test]
    fn paused_sources_inject_nothing_and_resume_cleanly() {
        let (frame, table) = path_setup();
        let mut s = session(&frame, table, 0.25, 5);
        s.pause_source(NodeId::new(3));
        let paused = s.advance(40);
        assert_eq!(paused.injected, 0);
        s.resume_source(NodeId::new(3));
        let resumed = s.advance(40);
        assert!(resumed.injected > 0);
        // Fast-forward: roughly the paused interval's arrivals are gone.
        assert!(resumed.injected <= 11);
    }

    #[test]
    fn frame_swap_phase_aligns_to_the_swap_slot() {
        // A frame serving the link only in its first slot: after a swap at
        // slot 30, service happens at slots 30, 33, 36... (epoch-relative),
        // not at 30, 32, 34 (origin-relative would hit 32's frame start).
        let l = link(1, 0);
        let frame = Schedule::from_slots(vec![vec![l], vec![], vec![]]);
        let mut g = Graph::new(2, GraphKind::Undirected);
        g.add_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        let forest = RoutingForest::shortest_path(&g, &[NodeId::new(0)], 1).unwrap();
        let sources = vec![Source {
            node: NodeId::new(1),
            arrival: ArrivalProcess::deterministic(0.25),
        }];
        let mut s = TrafficSession::new(
            FrameService::from_schedule(&frame),
            sources,
            ForwardingTable::from_forest(&forest),
            TrafficConfig::new(1),
        )
        .unwrap();
        s.advance(30);
        let delivered_before = s.totals().delivered;
        s.swap_frame(FrameService::from_schedule(&frame)).unwrap();
        let seg = s.advance(30);
        assert!(s.totals().delivered > delivered_before);
        // Same frame, same phase relative to the swap: throughput holds.
        assert!(seg.delivered >= 6);
    }

    #[test]
    fn construction_rejects_degenerate_inputs() {
        let (frame, table) = path_setup();
        let empty_frame = FrameService::from_schedule(&Schedule::new());
        let sources = vec![Source {
            node: NodeId::new(3),
            arrival: ArrivalProcess::deterministic(0.1),
        }];
        assert!(matches!(
            TrafficSession::new(
                empty_frame,
                sources.clone(),
                table.clone(),
                TrafficConfig::new(1)
            ),
            Err(TrafficError::EmptyFrame)
        ));
        assert!(matches!(
            TrafficSession::new(
                FrameService::from_schedule(&frame),
                Vec::new(),
                table.clone(),
                TrafficConfig::new(1)
            ),
            Err(TrafficError::NoFlows)
        ));
        let mut zero = TrafficConfig::new(1);
        zero.slot_duration = SimTime::ZERO;
        assert!(matches!(
            TrafficSession::new(FrameService::from_schedule(&frame), sources, table, zero),
            Err(TrafficError::ZeroSlotDuration)
        ));
    }
}
