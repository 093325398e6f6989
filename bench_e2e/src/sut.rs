//! The system under test: what an epoch deploys, how one request is
//! sent through it, and what is read off it afterwards.
//!
//! Untraced requests call only the program's own entry points:
//! `ShardedFleet::deploy`/`serve`, `ConfidentialSystem::build`/
//! `load_model`, and `XpuDriver::dma_to_device`/`dma_from_device` on
//! `ConfidentialSystem::parts()`. The traced variants send the same
//! calls through the wrappers of `trace.rs`.

use crate::sheet::{Kind, Workload};
use crate::trace::{CountingTap, Layer, TracedInterposer, TracedPort, TracedStager, Tracer};
use ccai_core::system::{layout, ConfidentialSystem, SystemMode};
use ccai_llm::ShardedFleet;
use ccai_pcie::{FaultPlan, PortId};
use ccai_sim::telemetry::ALL_HOPS;
use ccai_tvm::{DmaStager, DriverError, GuestMemory, RetryPolicy, TlpPort, XpuDriver};
use ccai_xpu::XpuSpec;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// `ConfidentialSystem::build` attaches the xPU (and interposes the
/// PCIe-SC) at this port.
const XPU_PORT: PortId = PortId(0);

/// Attempts per transfer under the heavy fault plan. A link flap drops
/// three packets in a row and a chat-sized transfer is one or two
/// packets, so failed attempts come in streaks: with 8 attempts about one
/// request in 10^5 exhausted them (six of ten seeds had a failed request);
/// 16 squares that. Back-off is simulated time and costs no wall time.
const FAULTED_ATTEMPTS: u32 = 16;

/// What an epoch deploys.
pub enum Sut {
    Fleet(ShardedFleet),
    System(Box<ConfidentialSystem>),
}

/// One request's input.
pub struct Request<'a> {
    pub tenant: u32,
    pub payload: &'a [u8],
}

impl Sut {
    /// Deploys a fresh fleet or system for `workload` and loads
    /// `weights`. A faulted workload arms `FaultPlan::heavy(fault_seed +
    /// replica id)` on the data path of every replica and gives its
    /// driver [`FAULTED_ATTEMPTS`] attempts per transfer.
    pub fn deploy(
        workload: &Workload,
        mode: SystemMode,
        weights: &[u8],
        fault_seed: Option<u64>,
    ) -> Result<Sut, String> {
        let spec = XpuSpec::a100();
        let mut sut = match workload.kind {
            Kind::Chat { shards, .. } => Sut::Fleet(
                ShardedFleet::deploy(spec, mode, weights, shards).map_err(|e| e.to_string())?,
            ),
            Kind::Bulk { .. } => {
                Sut::Fleet(ShardedFleet::deploy(spec, mode, weights, 1).map_err(|e| e.to_string())?)
            }
            Kind::KvSwap { .. } => {
                let mut system = ConfidentialSystem::build(spec, mode);
                system.load_model(weights).map_err(|e| e.to_string())?;
                Sut::System(Box::new(system))
            }
        };
        if let Some(fault_seed) = fault_seed {
            sut.for_each_system_mut(|id, system| {
                system.inject_faults(FaultPlan::heavy(fault_seed.wrapping_add(u64::from(id))));
                system.driver_mut().set_retry_policy(RetryPolicy {
                    max_attempts: FAULTED_ATTEMPTS,
                    backoff_base: 2,
                    ..RetryPolicy::default()
                });
            });
        }
        Ok(sut)
    }

    fn for_each_system_mut(&mut self, mut f: impl FnMut(u32, &mut ConfidentialSystem)) {
        match self {
            Sut::Fleet(fleet) => {
                for id in fleet.replica_ids() {
                    f(id, fleet.shard_system_mut(id));
                }
            }
            Sut::System(system) => f(0, system),
        }
    }

    /// Wraps every replica's PCIe-SC and taps its bus for a traced epoch.
    pub fn instrument(&mut self, tracer: &Rc<Tracer>) {
        self.for_each_system_mut(|_, system| {
            let fabric = system.fabric_mut();
            if let Some(inner) = fabric.remove_interposer(XPU_PORT) {
                fabric.interpose(
                    XPU_PORT,
                    Box::new(TracedInterposer {
                        inner,
                        tracer: Rc::clone(tracer),
                    }),
                );
            }
            fabric.add_tap(Box::new(CountingTap {
                tracer: Rc::clone(tracer),
            }));
        });
    }

    /// Sends one request the way a caller of the program would.
    pub fn request(&mut self, request: &Request<'_>) -> Result<Vec<u8>, String> {
        match self {
            Sut::Fleet(fleet) => fleet
                .serve(request.tenant, request.payload)
                .map_err(|e| e.to_string()),
            Sut::System(system) => with_parts(system, None, |driver, port, memory, stager| {
                swap(driver, port, memory, stager, request.payload)
            })
            .map_err(|e| e.to_string()),
        }
    }

    /// Sends one request through the tracing wrappers. The fleet branch
    /// repeats `ShardedFleet::serve` and `ConfidentialSystem::
    /// run_inference` call for call.
    pub fn request_traced(
        &mut self,
        tracer: &Rc<Tracer>,
        index: u32,
        request: &Request<'_>,
    ) -> Result<Vec<u8>, String> {
        let _root = tracer.enter_request(index);
        match self {
            Sut::Fleet(fleet) => {
                let home = {
                    let _span = tracer.enter(Layer::Route);
                    if fleet.quarantined_tenants().contains(&request.tenant) {
                        return Err(format!(
                            "tenant {} is quarantined fleet-wide",
                            request.tenant
                        ));
                    }
                    fleet.shard_of(request.tenant)
                };
                with_parts(
                    fleet.shard_system_mut(home),
                    Some(tracer),
                    |driver, port, memory, stager| {
                        let result = {
                            let _span = tracer.enter(Layer::Driver);
                            driver.run_inference(
                                port,
                                memory,
                                stager,
                                request.payload,
                                layout::DEV_INPUT,
                                layout::DEV_OUTPUT,
                            )
                        }?;
                        stager.release_all();
                        Ok(result)
                    },
                )
                .map_err(|e: DriverError| format!("shard workload failed: driver error: {e}"))
            }
            Sut::System(system) => {
                with_parts(system, Some(tracer), |driver, port, memory, stager| {
                    let _span = tracer.enter(Layer::Driver);
                    swap(driver, port, memory, stager, request.payload)
                })
                .map_err(|e| e.to_string())
            }
        }
    }

    /// Reads the simulated clock, the trace digests and every counter the
    /// gates and the per-layer metrics use.
    pub fn probe(&mut self) -> Probe {
        let mut probe = Probe::default();
        if let Sut::Fleet(fleet) = self {
            probe.add(
                "fleet.quarantined_tenants",
                fleet.quarantined_tenants().len() as u64,
            );
        }
        self.for_each_system_mut(|_, system| probe.read(system));
        probe
    }

    /// Golden-snapshot size and the time one replica takes to resume
    /// from it.
    pub fn snapshot_cost(&self) -> (usize, f64) {
        let owned;
        let template = match self {
            Sut::Fleet(fleet) => fleet.template(),
            Sut::System(system) => {
                owned = system.snapshot();
                &owned
            }
        };
        let started = Instant::now();
        let resumed = ConfidentialSystem::resume(template);
        let ms = started.elapsed().as_secs_f64() * 1e3;
        drop(resumed);
        (template.as_bytes().len(), ms)
    }
}

/// Borrows the driver, port, memory and stager of `system` the way
/// `ConfidentialSystem::run_inference` does: the Adaptor's port and the
/// Adaptor as stager under ccAI, the bare fabric and the identity stager
/// in vanilla mode. With a tracer, port and stager are wrapped.
fn with_parts<R>(
    system: &mut ConfidentialSystem,
    tracer: Option<&Rc<Tracer>>,
    f: impl FnOnce(&XpuDriver, &mut dyn TlpPort, &mut GuestMemory, &mut dyn DmaStager) -> R,
) -> R {
    let (driver, fabric, memory, stager, adaptor) = system.parts();
    let mut adaptor_port;
    let port: &mut dyn TlpPort = match adaptor {
        Some(adaptor) => {
            adaptor_port = adaptor.port(fabric);
            &mut adaptor_port
        }
        None => fabric,
    };
    match tracer {
        None => f(driver, port, memory, stager),
        Some(tracer) => f(
            driver,
            &mut TracedPort {
                inner: port,
                tracer,
            },
            memory,
            &mut TracedStager {
                inner: stager,
                tracer,
            },
        ),
    }
}

/// Swaps one KV block in and back out, then releases the staging window.
fn swap(
    driver: &XpuDriver,
    port: &mut dyn TlpPort,
    memory: &mut GuestMemory,
    stager: &mut dyn DmaStager,
    block: &[u8],
) -> Result<Vec<u8>, DriverError> {
    let result = driver
        .dma_to_device(port, memory, stager, block, layout::DEV_INPUT)
        .and_then(|()| {
            driver.dma_from_device(port, memory, stager, layout::DEV_INPUT, block.len() as u64)
        });
    stager.release_all();
    result
}

/// Counters and simulated-time readings summed over every replica, plus
/// each replica's trace digest.
#[derive(Debug, Clone, Default)]
pub struct Probe {
    pub values: BTreeMap<&'static str, u64>,
    pub digests: Vec<u64>,
    /// Wall time the `telemetry_snapshot()` calls took.
    pub snapshot_ns: u64,
}

impl Probe {
    /// The simulated state read: two probes of the same seeded epoch must
    /// agree on it whether or not the epoch was traced.
    pub fn state(&self) -> (&BTreeMap<&'static str, u64>, &[u64]) {
        (&self.values, &self.digests)
    }

    fn add(&mut self, key: &'static str, value: u64) {
        *self.values.entry(key).or_insert(0) += value;
    }

    pub fn get(&self, key: &str) -> u64 {
        self.values.get(key).copied().unwrap_or(0)
    }

    /// `self − earlier`, counter by counter.
    pub fn since(&self, earlier: &Probe) -> Probe {
        Probe {
            values: self
                .values
                .iter()
                .map(|(&key, &value)| (key, value - earlier.get(key)))
                .collect(),
            digests: self.digests.clone(),
            snapshot_ns: self.snapshot_ns,
        }
    }

    fn read(&mut self, system: &mut ConfidentialSystem) {
        let started = Instant::now();
        let snapshot = system.telemetry_snapshot();
        self.snapshot_ns += started.elapsed().as_nanos() as u64;
        self.digests.push(snapshot.digest);
        self.add("sim.now_ps", snapshot.now.as_picos());
        self.add("sim.events", snapshot.events_recorded);
        self.add("sim.idle_ps", snapshot.idle_total.as_picos());
        for (hop, report) in ALL_HOPS.iter().zip(&snapshot.hops) {
            self.add(hop.as_str(), report.total.as_picos());
        }
        let completions = snapshot
            .counters
            .iter()
            .find(|(name, _)| name == "xpu.dma.completions");
        self.add("xpu.dma_completions", completions.map_or(0, |(_, n)| *n));

        let a = system.adaptor_counters();
        self.add("adaptor.bytes_encrypted", a.bytes_encrypted);
        self.add("adaptor.bytes_decrypted", a.bytes_decrypted);
        self.add("adaptor.sc_mmio_writes", a.sc_mmio_writes);
        self.add("adaptor.mmio_tags", a.mmio_tags);
        self.add("adaptor.rekeys", a.rekeys);
        self.add("adaptor.transfer_retries", a.transfer_retries);
        self.add("adaptor.control_retries", a.control_retries);
        self.add("adaptor.driver_mmio_writes", a.driver_mmio_writes);
        self.add("adaptor.driver_mmio_reads", a.driver_mmio_reads);
        let sc = system.sc_counters();
        self.add("sc.packets_seen", sc.packets_seen);
        self.add("sc.packets_blocked", sc.packets_blocked);
        self.add("sc.chunks_decrypted", sc.chunks_decrypted);
        self.add("sc.chunks_encrypted", sc.chunks_encrypted);
        self.add("sc.control_accesses", sc.control_accesses);
        self.add("sc.tags_received", sc.tags_received);
        if let Some(sc) = system.sc() {
            self.add("sc.auth_failures", sc.engine_stats().auth_failures);
        }
        self.add("driver.dma_retries", system.driver().dma_retries());
        self.add("driver.control_retries", system.driver().control_retries());
        self.add("xpu.dma_refetches", system.dma_refetches());
        self.add("xpu.dma_read_bytes", system.dma_read_bytes_requested());
        self.add("fault.events", system.fault_trace().len() as u64);
        let pool = system.fabric_mut().pool_stats();
        self.add("pool.hits", pool.hits);
        self.add("pool.misses", pool.misses);
    }
}
