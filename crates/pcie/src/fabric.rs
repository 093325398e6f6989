//! Root complex + switch fabric with interposer slots and bus taps.
//!
//! The fabric is the meeting point of ccAI's architecture (Fig. 3):
//!
//! * the **host** (TVM / untrusted software) submits TLPs downstream;
//! * each **port** holds one endpoint ([`crate::PcieDevice`]);
//! * a port may carry an [`Interposer`] — a component that sees every TLP
//!   in both directions and may pass, transform, answer, or drop it. The
//!   PCIe-SC is implemented as an interposer in `ccai-core`;
//! * passive **taps** observe (but cannot modify) all traffic on the
//!   shared bus segment — this is where the §2.2 snooping adversary sits.
//!   Note taps see traffic *between* host and interposer, i.e. the
//!   physically exposed PCIe link; the interposer→device segment is the
//!   internal PCIe connection inside the sealed chassis (§6 Sealing).

use crate::device::{HostMemory, PcieDevice};
use crate::fault::{CompletionVerdict, FaultEvent, FaultInjector, FaultPlan};
use crate::link::{LinkConfig, LinkSpeed};
use crate::list::TlpList;
use crate::tlp::{CplStatus, Tlp, TlpPool, TlpPoolStats, TlpType};
use crate::Bdf;
use ccai_sim::{DetHashMap, Hop, Severity, SimDuration, Telemetry};
use std::fmt;

/// Lines of the fabric's link-time memo (a power of two).
const LINK_TIME_LINES: usize = 64;

/// Identifies a fabric port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortId(pub u8);

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "port{}", self.0)
    }
}

/// What an interposer decided to do with a TLP. Both lists hold one
/// packet inline, so passing, answering or dropping a packet allocates
/// nothing.
#[derive(Debug, Default)]
pub struct InterposeOutcome {
    /// TLPs to forward onward in the original direction.
    pub forward: TlpList,
    /// TLPs to send back in the opposite direction (e.g. completions the
    /// interposer itself generates for its own MMIO registers).
    pub reply: TlpList,
}

impl InterposeOutcome {
    /// Passes the packet through untouched.
    pub fn pass(tlp: Tlp) -> Self {
        InterposeOutcome { forward: TlpList::one(tlp), reply: TlpList::new() }
    }

    /// Drops the packet silently.
    pub fn drop_packet() -> Self {
        InterposeOutcome::default()
    }

    /// Answers the packet directly without forwarding.
    pub fn answer(reply: Tlp) -> Self {
        InterposeOutcome { forward: TlpList::new(), reply: TlpList::one(reply) }
    }

    /// Appends `other`'s packets after this outcome's own.
    pub fn absorb(&mut self, other: InterposeOutcome) {
        self.forward.join(other.forward);
        self.reply.join(other.reply);
    }
}

/// A component interposed between the bus and one port's endpoint.
pub trait Interposer: fmt::Debug {
    /// A TLP travelling downstream (bus → device).
    fn on_downstream(&mut self, tlp: Tlp) -> InterposeOutcome;

    /// A TLP travelling upstream (device → bus).
    fn on_upstream(&mut self, tlp: Tlp) -> InterposeOutcome;

    /// A burst of upstream TLPs pulled in one pump round.
    ///
    /// The default simply folds [`Interposer::on_upstream`] over the
    /// batch; interposers that can amortise per-packet work across a
    /// burst (the PCIe-SC amortises filter dispatch and telemetry
    /// stamping, §5 metadata batching) override it. Implementations must
    /// process packets in order and preserve per-packet observable
    /// behaviour — golden traces treat the batch as a pure fast path.
    fn on_upstream_batch(&mut self, tlps: Vec<Tlp>) -> InterposeOutcome {
        let mut out = InterposeOutcome::default();
        for tlp in tlps {
            out.absorb(self.on_upstream(tlp));
        }
        out
    }

    /// Downcasting support so owners can inspect concrete interposer
    /// state (counters, alerts) while it lives in the fabric.
    fn as_any(&self) -> &dyn std::any::Any;

    /// Mutable downcasting support.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

/// A passive observer of the exposed bus segment.
pub trait BusTap: fmt::Debug {
    /// Observes a TLP. `downstream` is true for host→device traffic.
    fn observe(&mut self, tlp: &Tlp, downstream: bool);
}

/// An *active* attacker on the exposed bus segment: may modify or drop
/// packets in flight (§2.2 tampering/deletion attacks). Applied after the
/// taps, before the interposer.
pub trait WireAttack: fmt::Debug {
    /// Returns the (possibly mangled) packet, or `None` to delete it.
    fn mangle(&mut self, tlp: Tlp, downstream: bool) -> Option<Tlp>;
}

struct Port {
    device: Box<dyn PcieDevice>,
    interposer: Option<Box<dyn Interposer>>,
}

/// Typed accounting of the in-flight TLPs lost when a link is severed by
/// [`Fabric::hot_unplug`].
///
/// A hot-unplug is not a silent disappearance: every packet that was on
/// the severed segment becomes a *typed* loss. Posted writes vanish (the
/// requester gets no signal — exactly why the driver's retry path
/// re-verifies), non-posted reads never complete (the requester's timeout
/// / retry absorbs them), and completions already in flight toward the
/// port are dropped on the floor.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct UnplugReport {
    /// Posted writes (DMA write-back, doorbells) lost on the wire.
    pub lost_writes: usize,
    /// Non-posted read requests lost before a completion could form.
    pub lost_reads: usize,
    /// Messages (interrupts, vendor-defined) lost on the wire.
    pub lost_messages: usize,
    /// Completions already in flight toward the severed port (including
    /// ones a `DelayCompletion` fault was holding back).
    pub lost_completions: usize,
}

impl UnplugReport {
    /// Total TLPs lost to the sever.
    pub fn total(&self) -> usize {
        self.lost_writes + self.lost_reads + self.lost_messages + self.lost_completions
    }
}

/// Everything [`Fabric::hot_unplug`] tears off a port: the detached
/// device, the interposer if one was installed, and the typed in-flight
/// losses.
pub type UnpluggedPort = (Box<dyn PcieDevice>, Option<Box<dyn Interposer>>, UnplugReport);

impl fmt::Debug for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Port")
            .field("device", &self.device)
            .field("interposed", &self.interposer.is_some())
            .finish()
    }
}

/// The PCIe fabric: root complex, switch, ports, interposers and taps.
///
/// Routing is by address range for memory requests (BAR windows registered
/// with [`Fabric::map_range`]) and by BDF for completions and config
/// requests.
#[derive(Debug)]
pub struct Fabric {
    /// Slot `n` holds port `n`'s endpoint, if attached.
    ports: Vec<Option<Port>>,
    address_map: Vec<(std::ops::Range<u64>, PortId)>,
    bdf_map: DetHashMap<Bdf, PortId>,
    taps: Vec<Box<dyn BusTap>>,
    wire_attack: Option<Box<dyn WireAttack>>,
    /// Interrupt/other messages delivered to the host.
    host_inbox: Vec<Tlp>,
    /// Seeded fault injector on the upstream link segment, if installed.
    fault: Option<FaultInjector>,
    /// Read completions held back by a `DelayCompletion` fault, flushed
    /// (and counted as moved) at the start of the next pump cycle.
    delayed: Vec<(PortId, Tlp)>,
    /// Host-bound control completions held back by a control-path
    /// `DelayCompletion` fault, flushed at the next `host_request`.
    delayed_to_host: Vec<Tlp>,
    /// Telemetry hub: every TLP crossing the exposed bus segment charges
    /// link-transit time as a [`Hop::Link`] span.
    telemetry: Telemetry,
    /// The exposed bus segment's link model, built once instead of per
    /// packet on the wire hot path.
    bus_link: LinkConfig,
    /// `bus_link.dma_time` per wire size, memoised direct-mapped by the
    /// size's low bits: the f64 pricing runs on a line's first use or
    /// when two sizes take turns on it, not once per TLP.
    link_time: [(u64, SimDuration); LINK_TIME_LINES],
    /// Recycled payload storage for the DMA hot path: device-write
    /// payloads retire into the pool, read completions are built from it.
    pool: TlpPool,
}

impl Fabric {
    /// Creates an empty fabric reporting to `telemetry`, which it also
    /// hands to every fault injector it installs.
    pub fn new(telemetry: Telemetry) -> Self {
        Fabric {
            ports: Vec::new(),
            address_map: Vec::new(),
            bdf_map: DetHashMap::default(),
            taps: Vec::new(),
            wire_attack: None,
            host_inbox: Vec::new(),
            fault: None,
            delayed: Vec::new(),
            delayed_to_host: Vec::new(),
            telemetry,
            bus_link: LinkConfig::new(LinkSpeed::Gen4, 16),
            link_time: [(0, SimDuration::ZERO); LINK_TIME_LINES],
            pool: TlpPool::new(),
        }
    }

    fn port(&self, port: PortId) -> Option<&Port> {
        self.ports.get(usize::from(port.0)).and_then(Option::as_ref)
    }

    fn port_mut(&mut self, port: PortId) -> Option<&mut Port> {
        self.ports.get_mut(usize::from(port.0)).and_then(Option::as_mut)
    }

    /// Recycling counters of the fabric's TLP payload pool.
    pub fn pool_stats(&self) -> TlpPoolStats {
        self.pool.stats()
    }

    /// Attaches a device to `port`.
    ///
    /// # Panics
    ///
    /// Panics if the port is already occupied or the device's BDF is
    /// already attached.
    pub fn attach(&mut self, port: PortId, device: Box<dyn PcieDevice>) {
        assert!(self.port(port).is_none(), "{port} already occupied");
        let bdf = device.bdf();
        assert!(
            !self.bdf_map.contains_key(&bdf),
            "device {bdf} already attached"
        );
        self.bdf_map.insert(bdf, port);
        let slot = usize::from(port.0);
        if self.ports.len() <= slot {
            self.ports.resize_with(slot + 1, || None);
        }
        self.ports[slot] = Some(Port { device, interposer: None });
    }

    /// Severs the link to `port`: the device (and any interposer) is
    /// detached, every TLP still in flight on the segment becomes a typed
    /// loss in the returned [`UnplugReport`], and all routing entries
    /// (BDFs and BAR windows) pointing at the port disappear — subsequent
    /// requests to the region complete as Unsupported Request, which the
    /// driver's retry path surfaces as a hard error.
    ///
    /// Returns `None` if the port is empty.
    pub fn hot_unplug(&mut self, port: PortId) -> Option<UnpluggedPort> {
        let mut entry = self.ports.get_mut(usize::from(port.0))?.take()?;
        let mut report = UnplugReport::default();
        // TLPs queued at the severed endpoint were "on the wire" from the
        // device's point of view; classify and drop them.
        for tlp in entry.device.poll_outbound() {
            let ty = tlp.header().tlp_type();
            if ty.is_write() {
                report.lost_writes += 1;
            } else if ty.is_read() {
                report.lost_reads += 1;
            } else if ty.is_completion() {
                report.lost_completions += 1;
            } else {
                report.lost_messages += 1;
            }
        }
        // Completions a DelayCompletion fault was holding back for this
        // port will never be deliverable — they are lost too.
        let before = self.delayed.len();
        self.delayed.retain(|(p, _)| *p != port);
        report.lost_completions += before - self.delayed.len();
        self.bdf_map.retain(|_, p| *p != port);
        self.address_map.retain(|(_, p)| *p != port);
        self.telemetry.record(
            Severity::Warn,
            "fabric.hot_unplug",
            None,
            None,
            format!(
                "port={} lost_writes={} lost_reads={} lost_msgs={} lost_cpls={}",
                port.0,
                report.lost_writes,
                report.lost_reads,
                report.lost_messages,
                report.lost_completions
            ),
        );
        self.telemetry.counter_add("fabric.unplug.count", 1);
        self.telemetry.counter_add("fabric.unplug.lost_tlps", report.total() as u64);
        Some((entry.device, entry.interposer, report))
    }

    /// Hot-plugs a replacement endpoint into an empty `port`: attaches the
    /// device and registers its BAR windows in one step, recording the
    /// admission in telemetry. The caller is responsible for gating the
    /// plug behind attestation — the fabric only restores connectivity.
    ///
    /// # Panics
    ///
    /// Panics like [`Fabric::attach`] / [`Fabric::map_range`] if the port
    /// or a window is still occupied.
    pub fn hot_plug(
        &mut self,
        port: PortId,
        device: Box<dyn PcieDevice>,
        ranges: Vec<std::ops::Range<u64>>,
    ) {
        self.attach(port, device);
        for range in ranges {
            self.map_range(range, port);
        }
        self.telemetry.record(
            Severity::Info,
            "fabric.hot_plug",
            None,
            None,
            format!("port={}", port.0),
        );
        self.telemetry.counter_add("fabric.plug.count", 1);
    }

    /// Installs an interposer in front of `port`'s endpoint.
    ///
    /// # Panics
    ///
    /// Panics if the port is empty or already interposed.
    pub fn interpose(&mut self, port: PortId, interposer: Box<dyn Interposer>) {
        let entry = self.port_mut(port).expect("port not attached");
        assert!(entry.interposer.is_none(), "{port} already interposed");
        entry.interposer = Some(interposer);
    }

    /// Removes and returns the interposer at `port`, if any.
    pub fn remove_interposer(&mut self, port: PortId) -> Option<Box<dyn Interposer>> {
        self.port_mut(port).and_then(|p| p.interposer.take())
    }

    /// Borrows the interposer at `port`, if any.
    pub fn interposer(&self, port: PortId) -> Option<&dyn Interposer> {
        self.port(port).and_then(|p| p.interposer.as_deref())
    }

    /// Mutably borrows the interposer at `port`, if any.
    pub fn interposer_mut(&mut self, port: PortId) -> Option<&mut (dyn Interposer + 'static)> {
        match self.port_mut(port) {
            Some(p) => match &mut p.interposer {
                Some(ip) => Some(ip.as_mut()),
                None => None,
            },
            None => None,
        }
    }

    /// Adds a passive bus tap.
    pub fn add_tap(&mut self, tap: Box<dyn BusTap>) {
        self.taps.push(tap);
    }

    /// Installs an active wire attacker on the exposed segment.
    pub fn set_wire_attack(&mut self, attack: Box<dyn WireAttack>) {
        self.wire_attack = Some(attack);
    }

    /// Removes the wire attacker.
    #[doc(hidden)]
    pub fn clear_wire_attack(&mut self) -> Option<Box<dyn WireAttack>> {
        self.wire_attack.take()
    }

    /// Installs a seeded fault injector on the upstream link segment.
    /// Replaces any previous injector (and its trace).
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        self.fault = Some(FaultInjector::new(plan, self.telemetry.clone()));
    }

    /// Removes the fault injector, returning it (with its trace).
    pub fn clear_faults(&mut self) -> Option<FaultInjector> {
        self.fault.take()
    }

    /// The fault trace recorded so far (empty without an injector).
    pub fn fault_trace(&self) -> Vec<FaultEvent> {
        self.fault
            .as_ref()
            .map(|f| f.trace().to_vec())
            .unwrap_or_default()
    }

    fn wire(&mut self, tlp: Tlp, downstream: bool) -> Option<Tlp> {
        self.charge_link((tlp.payload().len() as u64).max(32));
        self.tap_all(&tlp, downstream);
        match &mut self.wire_attack {
            Some(attack) => attack.mangle(tlp, downstream),
            None => Some(tlp),
        }
    }

    /// Books the bus transit of `wire_bytes` as a [`Hop::Link`] span.
    fn charge_link(&mut self, wire_bytes: u64) {
        // No TLP is 0 bytes on the wire, so an unused line never matches.
        let line = &mut self.link_time[wire_bytes as usize % LINK_TIME_LINES];
        if line.0 != wire_bytes {
            *line = (wire_bytes, self.bus_link.dma_time(wire_bytes));
        }
        self.telemetry.advance_span(Hop::Link, None, line.1);
    }

    /// Maps an additional BDF (e.g. a virtual function of a multi-tenant
    /// device, §9) to a port for ID-routed traffic (config cycles).
    ///
    /// # Panics
    ///
    /// Panics if the BDF is already mapped.
    #[doc(hidden)]
    pub fn map_bdf(&mut self, bdf: Bdf, port: PortId) {
        assert!(!self.bdf_map.contains_key(&bdf), "BDF {bdf} already mapped");
        self.bdf_map.insert(bdf, port);
    }

    /// Maps a host address range to a port (a BAR window).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or overlaps an existing window.
    pub fn map_range(&mut self, range: std::ops::Range<u64>, port: PortId) {
        assert!(range.start < range.end, "empty address range");
        for (existing, _) in &self.address_map {
            assert!(
                range.end <= existing.start || range.start >= existing.end,
                "address range overlap"
            );
        }
        self.address_map.push((range, port));
    }

    /// Borrows the device at `port` for inspection.
    pub fn device(&self, port: PortId) -> Option<&dyn PcieDevice> {
        self.port(port).map(|p| p.device.as_ref())
    }

    /// Mutably borrows the device at `port`.
    pub fn device_mut(&mut self, port: PortId) -> Option<&mut (dyn PcieDevice + '_)> {
        match self.port_mut(port) {
            Some(p) => Some(p.device.as_mut()),
            None => None,
        }
    }

    /// Messages (e.g. interrupts) that reached the host since the last
    /// call.
    #[doc(hidden)]
    pub fn drain_host_inbox(&mut self) -> Vec<Tlp> {
        std::mem::take(&mut self.host_inbox)
    }

    fn route(&self, tlp: &Tlp) -> Option<PortId> {
        let header = tlp.header();
        match header.tlp_type() {
            TlpType::MemRead | TlpType::MemWrite | TlpType::IoRead | TlpType::IoWrite => {
                let addr = header.address().expect("memory/io TLP has address");
                self.address_map
                    .iter()
                    .find(|(range, _)| range.contains(&addr))
                    .map(|(_, port)| *port)
            }
            TlpType::CfgRead | TlpType::CfgWrite => {
                header.completer().and_then(|bdf| self.bdf_map.get(&bdf).copied())
            }
            TlpType::Completion | TlpType::CompletionData => {
                self.bdf_map.get(&header.requester()).copied()
            }
            TlpType::Message => None, // broadcast/host-routed
        }
    }

    fn tap_all(&mut self, tlp: &Tlp, downstream: bool) {
        for tap in &mut self.taps {
            tap.observe(tlp, downstream);
        }
    }

    /// Submits a host-originated request and returns the responses that
    /// made it back to the host (completions, or nothing for posted
    /// writes and filtered packets).
    pub fn host_request(&mut self, tlp: Tlp) -> Vec<Tlp> {
        // Completions a control-path fault delayed arrive ahead of this
        // request's own replies (they were in flight first).
        let mut to_host = std::mem::take(&mut self.delayed_to_host);
        let Some(tlp) = self.wire(tlp, true) else {
            return to_host; // deleted on the wire
        };
        // The injected control-fault segment sits between the root
        // complex and the switch: a pass-through unless the plan arms
        // `fault_control_path`.
        let Some(injector) = self.fault.as_mut().filter(|f| f.faults_control_path()) else {
            self.route_host_request(tlp, &mut to_host);
            return to_host;
        };
        for tlp in injector.fault_control_request(tlp) {
            let mut replies = Vec::new();
            self.route_host_request(tlp, &mut replies);
            let injector = self.fault.as_mut().expect("armed above");
            for reply in replies {
                match injector.fault_control_reply(reply) {
                    CompletionVerdict::Deliver(tlp) => to_host.push(tlp),
                    CompletionVerdict::Dropped => {}
                    CompletionVerdict::Delayed(tlp) => self.delayed_to_host.push(tlp),
                }
            }
        }
        to_host
    }

    /// Routes one (post-fault-segment) host request to its port and
    /// appends the replies that reached the host side of the wire.
    fn route_host_request(&mut self, tlp: Tlp, to_host: &mut Vec<Tlp>) {
        let Some(port_id) = self.route(&tlp) else {
            // Unroutable: master abort — synthesize UR completion for
            // non-posted requests.
            to_host.extend(unsupported_request_reply(&tlp));
            return;
        };

        // Downstream through the interposer.
        let port = self.port_mut(port_id).expect("routed port exists");
        let outcome = match &mut port.interposer {
            Some(ip) => ip.on_downstream(tlp),
            None => InterposeOutcome::pass(tlp),
        };
        outcome.reply.for_each(|reply| {
            if let Some(reply) = self.wire(reply, false) {
                to_host.push(reply);
            }
        });

        // Deliver to the device; its completions climb back up through the
        // interposer. Each stage's list holds a single packet inline, so a
        // round trip allocates no list of its own.
        let port = self.port_mut(port_id).expect("routed port exists");
        let upstream = outcome.forward.flat_map(|tlp| port.device.handle(tlp));
        let forwarded_up = upstream.flat_map(|tlp| match &mut port.interposer {
            Some(ip) => {
                let outcome = ip.on_upstream(tlp);
                // Replies in the upstream direction head back to the
                // device.
                outcome.reply.for_each(|back| {
                    port.device.handle(back);
                });
                outcome.forward
            }
            None => TlpList::one(tlp),
        });
        forwarded_up.for_each(|tlp| {
            if let Some(tlp) = self.wire(tlp, false) {
                to_host.push(tlp);
            }
        });
    }

    /// Pumps device-initiated traffic: drains every device's outbound
    /// queue, routes DMA to `host_memory`, loops completions back, and
    /// collects messages into the host inbox. Returns the number of TLPs
    /// moved.
    pub fn pump(&mut self, host_memory: &mut dyn HostMemory) -> usize {
        let mut moved = 0;
        // Flush completions a `DelayCompletion` fault held back last
        // cycle. They count as moved so `while pump() > 0` loops keep
        // draining until every delayed packet has arrived.
        let delayed = std::mem::take(&mut self.delayed);
        for (origin, reply) in delayed {
            moved += 1;
            self.deliver_completion_to_device(origin, reply);
        }
        for slot in 0..self.ports.len() {
            let port_id = PortId(slot as u8);
            while let Some(port) = self.port_mut(port_id) {
                let outbound = port.device.poll_outbound();
                if outbound.is_empty() {
                    break;
                }
                // One burst per poll round: the interposer amortises
                // filter dispatch + telemetry stamping over the batch.
                moved += outbound.len();
                let outcome = match &mut port.interposer {
                    Some(ip) => ip.on_upstream_batch(outbound),
                    None => InterposeOutcome { forward: outbound.into(), reply: TlpList::new() },
                };
                outcome.reply.for_each(|back| {
                    port.device.handle(back);
                });
                // The injected fault segment sits between the interposer
                // and the host: the PCIe-SC has already classified and
                // encrypted this traffic, so every surviving mutation is
                // caught by the integrity layer, not hidden from it.
                let to_bus_all = match &mut self.fault {
                    Some(injector) => {
                        let mut all = outcome.forward.into_vec();
                        injector.fault_upstream_batch(&mut all);
                        all.into()
                    }
                    None => outcome.forward,
                };
                to_bus_all.for_each(|tlp| {
                    if let Some(tlp) = self.wire(tlp, false) {
                        self.deliver_upstream(port_id, tlp, host_memory);
                    }
                });
            }
        }
        moved
    }

    /// Handles one device-initiated TLP that reached the bus.
    fn deliver_upstream(
        &mut self,
        origin: PortId,
        tlp: Tlp,
        host_memory: &mut dyn HostMemory,
    ) {
        let header = *tlp.header();
        match header.tlp_type() {
            TlpType::MemWrite => {
                let addr = header.address().expect("memory TLP");
                host_memory.dma_write(header.requester(), addr, tlp.payload());
                // The payload has landed in host memory; its storage goes
                // back to the pool for the next completion.
                self.pool.recycle(tlp.into_payload());
            }
            TlpType::MemRead => {
                let addr = header.address().expect("memory TLP");
                let len = header.payload_len() as usize;
                let mut data = self.pool.take();
                let reply = if host_memory.dma_read_into(header.requester(), addr, len, &mut data)
                {
                    Tlp::completion_with_data(
                        Bdf::new(0, 0, 0), // root complex
                        header.requester(),
                        header.tag(),
                        data,
                    )
                } else {
                    self.pool.recycle(data);
                    Tlp::completion(
                        Bdf::new(0, 0, 0),
                        header.requester(),
                        header.tag(),
                        CplStatus::UnsupportedRequest,
                    )
                };
                // The completion crosses the faulted link segment raw,
                // before the interposer sees it: a corrupted ciphertext
                // chunk must still reach the SC so its integrity check
                // (not luck) is what keeps it out of the device.
                let reply = match &mut self.fault {
                    Some(injector) => match injector.fault_completion(reply) {
                        CompletionVerdict::Deliver(tlp) => tlp,
                        CompletionVerdict::Dropped => return,
                        CompletionVerdict::Delayed(tlp) => {
                            self.delayed.push((origin, tlp));
                            return;
                        }
                    },
                    None => reply,
                };
                self.deliver_completion_to_device(origin, reply);
            }
            TlpType::Message => {
                self.host_inbox.push(tlp);
            }
            _ => {
                // Peer-to-peer and other flows are not modelled.
                self.host_inbox.push(tlp);
            }
        }
    }

    /// Delivers one read completion down to the device at `origin`,
    /// through the wire (taps + attacker) and the port's interposer.
    fn deliver_completion_to_device(&mut self, origin: PortId, reply: Tlp) {
        let Some(reply) = self.wire(reply, true) else {
            return; // deleted on the wire
        };
        // Back down through the interposer to the device.
        let port = self.port_mut(origin).expect("port exists");
        let forwarded = match &mut port.interposer {
            Some(ip) => {
                let outcome = ip.on_downstream(reply);
                // Replies go back upstream; rare, ignore routing.
                outcome.reply.for_each(|up| self.host_inbox.push(up));
                outcome.forward
            }
            None => TlpList::one(reply),
        };
        let port = self.ports[usize::from(origin.0)].as_mut().expect("port exists");
        forwarded.for_each(|tlp| {
            // The device copies the payload into its own memory; the
            // buffer then serves the next read completion.
            port.device.deliver_completion(&tlp);
            self.pool.recycle(tlp.into_payload());
        });
    }
}

fn unsupported_request_reply(tlp: &Tlp) -> Option<Tlp> {
    let header = tlp.header();
    header.tlp_type().is_read().then(|| {
        Tlp::completion(
            Bdf::new(0, 0, 0),
            header.requester(),
            header.tag(),
            CplStatus::UnsupportedRequest,
        )
    })
}

// --- snapshot support -------------------------------------------------

ccai_sim::snapshot_state!(PortId { 0 });

impl Fabric {
    /// Serializes the fabric's mutable transit state: every in-flight
    /// queue (host inbox, delayed device completions, delayed host-bound
    /// completions) and the fault injector (plan + seeded-stream
    /// position), when installed.
    ///
    /// Topology — attached devices, interposers, address/BDF maps, taps —
    /// is *not* serialized; the restoring side rebuilds it from its own
    /// configuration and then lays this transit state on top.
    pub fn encode_snapshot(&self, enc: &mut ccai_sim::snapshot::Encoder) {
        enc.put(&self.host_inbox);
        enc.put(&self.delayed);
        enc.put(&self.delayed_to_host);
        enc.bool(self.fault.is_some());
        if let Some(injector) = &self.fault {
            injector.encode_snapshot(enc);
        }
    }

    /// Restores the transit state captured by
    /// [`Fabric::encode_snapshot`]. The fabric must already carry the
    /// same topology (devices attached, interposers installed) as the
    /// snapshotted one. A snapshotted fault injector resumes mid-stream
    /// on this fabric's telemetry hub; an absent one clears any installed
    /// injector.
    ///
    /// # Errors
    ///
    /// Any [`ccai_sim::snapshot::SnapshotError`] on corrupt input; the
    /// fabric is left untouched on failure.
    pub fn restore_snapshot(
        &mut self,
        dec: &mut ccai_sim::snapshot::Decoder<'_>,
    ) -> Result<(), ccai_sim::snapshot::SnapshotError> {
        let host_inbox = dec.get()?;
        let delayed = dec.get()?;
        let delayed_to_host = dec.get()?;
        let fault = if dec.bool()? {
            Some(FaultInjector::restore_snapshot(dec, self.telemetry.clone())?)
        } else {
            None
        };
        self.host_inbox = host_inbox;
        self.delayed = delayed;
        self.delayed_to_host = delayed_to_host;
        self.fault = fault;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{ScratchEndpoint, VecHostMemory};

    fn host() -> Bdf {
        Bdf::new(0, 0, 0)
    }

    fn build_fabric() -> Fabric {
        let mut fabric = Fabric::new(Telemetry::default());
        let dev = ScratchEndpoint::new(Bdf::new(1, 0, 0), 0x10_0000, 0x1000);
        fabric.attach(PortId(0), Box::new(dev));
        fabric.map_range(0x10_0000..0x10_1000, PortId(0));
        fabric
    }

    #[test]
    fn mmio_write_then_read_round_trip() {
        let mut fabric = build_fabric();
        let none = fabric.host_request(Tlp::memory_write(host(), 0x10_0040, vec![7, 8, 9]));
        assert!(none.is_empty());
        let replies = fabric.host_request(Tlp::memory_read(host(), 0x10_0040, 3, 1));
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].payload(), &[7, 8, 9]);
    }

    #[test]
    fn unrouted_read_gets_unsupported_request() {
        let mut fabric = build_fabric();
        let replies = fabric.host_request(Tlp::memory_read(host(), 0xdead_0000, 4, 2));
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].header().cpl_status(), Some(CplStatus::UnsupportedRequest));
    }

    #[test]
    fn unrouted_posted_write_is_dropped() {
        let mut fabric = build_fabric();
        let replies = fabric.host_request(Tlp::memory_write(host(), 0xdead_0000, vec![1]));
        assert!(replies.is_empty());
    }

    #[test]
    fn config_routes_by_bdf() {
        let mut fabric = build_fabric();
        let replies =
            fabric.host_request(Tlp::config_read(host(), Bdf::new(1, 0, 0), 0x00, 0));
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].payload()[..2], 0x1234u16.to_le_bytes());
    }

    #[derive(Debug)]
    struct CountingTap {
        seen: std::rc::Rc<std::cell::RefCell<usize>>,
    }
    impl BusTap for CountingTap {
        fn observe(&mut self, _tlp: &Tlp, _down: bool) {
            *self.seen.borrow_mut() += 1;
        }
    }

    #[test]
    fn taps_see_both_directions() {
        let mut fabric = build_fabric();
        let seen = std::rc::Rc::new(std::cell::RefCell::new(0));
        fabric.add_tap(Box::new(CountingTap { seen: seen.clone() }));
        fabric.host_request(Tlp::memory_read(host(), 0x10_0000, 4, 0));
        assert_eq!(*seen.borrow(), 2, "request + completion");
    }

    /// An interposer that blocks writes to the low half of the BAR and
    /// XORs read completions.
    #[derive(Debug)]
    struct TestGate;
    impl Interposer for TestGate {
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
        fn on_downstream(&mut self, tlp: Tlp) -> InterposeOutcome {
            if tlp.header().tlp_type() == TlpType::MemWrite
                && tlp.header().address().unwrap_or(0) < 0x10_0800
            {
                InterposeOutcome::drop_packet()
            } else {
                InterposeOutcome::pass(tlp)
            }
        }
        fn on_upstream(&mut self, tlp: Tlp) -> InterposeOutcome {
            if tlp.header().tlp_type() == TlpType::CompletionData {
                let flipped: Vec<u8> = tlp.payload().iter().map(|b| b ^ 0xFF).collect();
                InterposeOutcome::pass(tlp.with_payload(flipped))
            } else {
                InterposeOutcome::pass(tlp)
            }
        }
    }

    #[test]
    fn interposer_filters_and_transforms() {
        let mut fabric = build_fabric();
        fabric.interpose(PortId(0), Box::new(TestGate));

        // Blocked write leaves RAM untouched.
        fabric.host_request(Tlp::memory_write(host(), 0x10_0000, vec![1, 2, 3]));
        // Allowed write in the high half.
        fabric.host_request(Tlp::memory_write(host(), 0x10_0800, vec![0x0F]));

        let replies = fabric.host_request(Tlp::memory_read(host(), 0x10_0800, 1, 0));
        assert_eq!(replies[0].payload(), &[0xF0], "completion transformed");

        let replies = fabric.host_request(Tlp::memory_read(host(), 0x10_0000, 3, 0));
        assert_eq!(replies[0].payload(), &[0xFF, 0xFF, 0xFF], "zeros flipped");
    }

    #[test]
    fn pump_with_queued_outbound() {
        let mut fabric = Fabric::new(Telemetry::default());
        let mut dev = ScratchEndpoint::new(Bdf::new(1, 0, 0), 0x10_0000, 0x1000);
        dev.queue_outbound(Tlp::memory_write(Bdf::new(1, 0, 0), 0x40, vec![5, 6, 7]));
        dev.queue_outbound(Tlp::message(Bdf::new(1, 0, 0), 0x21));
        fabric.attach(PortId(0), Box::new(dev));
        fabric.map_range(0x10_0000..0x10_1000, PortId(0));

        let mut mem = VecHostMemory::new(0x100);
        let moved = fabric.pump(&mut mem);
        assert_eq!(moved, 2);
        assert_eq!(&mem.as_slice()[0x40..0x43], &[5, 6, 7]);
        let inbox = fabric.drain_host_inbox();
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].header().message_code(), Some(0x21));
    }

    /// Once the device has copied a read completion's payload, the buffer
    /// goes back to the pool and the next completion is built from it.
    #[test]
    fn delivered_completion_payloads_return_to_the_pool() {
        let dev = Bdf::new(1, 0, 0);
        let mut fabric = Fabric::new(Telemetry::default());
        fabric.attach(PortId(0), Box::new(ScratchEndpoint::new(dev, 0x10_0000, 0x1000)));
        fn scratch(fabric: &mut Fabric) -> &mut ScratchEndpoint {
            let any = fabric.device_mut(PortId(0)).and_then(|d| d.as_any_mut());
            any.and_then(|a| a.downcast_mut::<ScratchEndpoint>()).expect("scratch endpoint")
        }
        let mut mem = VecHostMemory::new(0x1000);
        for round in 0..2u8 {
            assert!(mem.dma_write(dev, 0x200, &[0xC0 | round; 64]));
            scratch(&mut fabric).queue_outbound(Tlp::memory_read(dev, 0x200, 64, round));
            assert_eq!(fabric.pump(&mut mem), 1);
            assert_eq!(&scratch(&mut fabric).ram()[..64], &[0xC0 | round; 64]);
            let round = u64::from(round);
            let stats = TlpPoolStats { hits: round, misses: 1, recycled: round + 1 };
            assert_eq!(fabric.pool_stats(), stats);
        }
    }

    #[test]
    #[should_panic(expected = "already occupied")]
    fn double_attach_rejected() {
        let mut fabric = build_fabric();
        let dev = ScratchEndpoint::new(Bdf::new(2, 0, 0), 0x20_0000, 0x1000);
        fabric.attach(PortId(0), Box::new(dev));
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_ranges_rejected() {
        let mut fabric = build_fabric();
        fabric.map_range(0x10_0800..0x10_0900, PortId(0));
    }

    #[test]
    fn hot_unplug_turns_in_flight_tlps_into_typed_losses() {
        let mut fabric = Fabric::new(Telemetry::default());
        let mut dev = ScratchEndpoint::new(Bdf::new(1, 0, 0), 0x10_0000, 0x1000);
        // Mid-DMA: a posted write-back, a read request, and an interrupt
        // are all still on the wire when the link is severed.
        dev.queue_outbound(Tlp::memory_write(Bdf::new(1, 0, 0), 0x40, vec![5, 6, 7]));
        dev.queue_outbound(Tlp::memory_read(Bdf::new(1, 0, 0), 0x80, 4, 9));
        dev.queue_outbound(Tlp::message(Bdf::new(1, 0, 0), 0x21));
        fabric.attach(PortId(0), Box::new(dev));
        fabric.map_range(0x10_0000..0x10_1000, PortId(0));

        let (_dev, interposer, report) = fabric.hot_unplug(PortId(0)).expect("port occupied");
        assert!(interposer.is_none());
        assert_eq!(report.lost_writes, 1);
        assert_eq!(report.lost_reads, 1);
        assert_eq!(report.lost_messages, 1);
        assert_eq!(report.lost_completions, 0);
        assert_eq!(report.total(), 3);

        // The severed region no longer routes: reads complete as UR, the
        // shape the driver's retry path escalates as a hard error.
        let replies = fabric.host_request(Tlp::memory_read(host(), 0x10_0000, 4, 0));
        assert_eq!(replies[0].header().cpl_status(), Some(CplStatus::UnsupportedRequest));
        assert!(fabric.hot_unplug(PortId(0)).is_none(), "second unplug is a no-op");
    }

    #[test]
    fn memoised_link_charge_equals_the_link_model() {
        let hub = Telemetry::default();
        let mut fabric = Fabric::new(hub.clone());
        let link = LinkConfig::new(LinkSpeed::Gen4, 16);
        for bytes in [1u64, 31, 32, 33, 256, 4095, 4096, 4097, 1 << 20] {
            for use_ in ["first", "repeat"] {
                let before = hub.now();
                fabric.charge_link(bytes);
                let charged = hub.now().duration_since(before);
                assert_eq!(charged, link.dma_time(bytes), "{bytes} B, {use_} use");
            }
        }
        // A TLP on the wire is priced at its payload, 32 bytes at least.
        for len in [1usize, 31, 32, 33, 4096] {
            let before = hub.now();
            fabric.wire(Tlp::memory_write(host(), 0x10_0000, vec![0; len]), true);
            let charged = hub.now().duration_since(before);
            assert_eq!(charged, link.dma_time((len as u64).max(32)), "{len} B payload");
        }
    }

    #[test]
    fn hot_plug_restores_routing_after_unplug() {
        let mut fabric = build_fabric();
        fabric.host_request(Tlp::memory_write(host(), 0x10_0040, vec![1, 2, 3]));
        let _ = fabric.hot_unplug(PortId(0)).expect("port occupied");

        // A fresh blade in the same slot, same window — traffic flows again.
        let fresh = ScratchEndpoint::new(Bdf::new(1, 0, 0), 0x10_0000, 0x1000);
        let windows = std::iter::once(0x10_0000..0x10_1000).collect();
        fabric.hot_plug(PortId(0), Box::new(fresh), windows);
        fabric.host_request(Tlp::memory_write(host(), 0x10_0040, vec![9, 9, 9]));
        let replies = fabric.host_request(Tlp::memory_read(host(), 0x10_0040, 3, 1));
        assert_eq!(replies[0].payload(), &[9, 9, 9], "replacement serves the window");
    }
}
