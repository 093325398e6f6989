//! Outside-in tracing: spans recorded from the benchmark's own files,
//! around the calls into each layer of the program.
//!
//! The program has no spans of its own. The traced run therefore wraps
//! the public seams a request crosses — the `TlpPort` the driver submits
//! TLPs through, the `DmaStager` it stages with, the `HostMemory` handed
//! to `pump`, the PCIe-SC `Interposer` on the xPU port — and adds a
//! counting `BusTap`. Each wrapper forwards every call unchanged, so the
//! traced path is the program's path (`epoch.rs` checks that it is).
//!
//! A layer's self time is its span's duration minus its child spans.

use ccai_pcie::fabric::BusTap;
use ccai_pcie::{Bdf, HostMemory, InterposeOutcome, Interposer, Tlp};
use ccai_tvm::stager::IntegrityError;
use ccai_tvm::{DmaStager, GuestMemory, StagedBuffer, TlpPort};
use std::cell::RefCell;
use std::fmt;
use std::io::{self, Write};
use std::rc::Rc;
use std::time::Instant;

/// The boundaries spans are recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Request,
    Route,
    Driver,
    AdaptorStage,
    AdaptorAlloc,
    AdaptorRecover,
    AdaptorTransferFailed,
    AdaptorRelease,
    FabricRequest,
    FabricPump,
    ScDownstream,
    ScUpstream,
    MemoryRead,
    MemoryWrite,
}

impl Layer {
    pub const COUNT: usize = 14;

    /// The span name written to `trace-<workload>.jsonl`.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Request => "request",
            Layer::Route => "llm.fleet.route",
            Layer::Driver => "tvm.driver",
            Layer::AdaptorStage => "core.adaptor.stage",
            Layer::AdaptorAlloc => "core.adaptor.alloc",
            Layer::AdaptorRecover => "core.adaptor.recover",
            Layer::AdaptorTransferFailed => "core.adaptor.transfer_failed",
            Layer::AdaptorRelease => "core.adaptor.release",
            Layer::FabricRequest => "pcie.fabric.request",
            Layer::FabricPump => "pcie.fabric.pump",
            Layer::ScDownstream => "core.sc.downstream",
            Layer::ScUpstream => "core.sc.upstream",
            Layer::MemoryRead => "tvm.guest_memory.read",
            Layer::MemoryWrite => "tvm.guest_memory.write",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

/// One span. Its id is its index in the epoch's span list.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    pub parent: u32,
    pub request: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Counts taken at the same boundaries as the spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceCounts {
    /// `on_upstream_batch` calls and the TLPs they carried.
    pub upstream_batches: u64,
    pub upstream_batch_tlps: u64,
    /// TLPs and encoded bytes the bus tap saw, both directions.
    pub tap_tlps: u64,
    pub tap_wire_bytes: u64,
}

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u32,
    counts: TraceCounts,
}

/// Span recorder shared by every wrapper of one traced epoch. Spans stay
/// in memory; nothing is written while requests run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    inner: RefCell<Inner>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    id: u32,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end_ns = self.tracer.origin.elapsed().as_nanos() as u64;
        let mut inner = self.tracer.inner.borrow_mut();
        inner.spans[self.id as usize].end_ns = end_ns;
        inner.open.pop();
    }
}

impl Tracer {
    pub fn new() -> Rc<Tracer> {
        Rc::new(Tracer {
            origin: Instant::now(),
            inner: RefCell::default(),
        })
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&self, layer: Layer) -> SpanGuard<'_> {
        let mut inner = self.inner.borrow_mut();
        let id = inner.spans.len() as u32;
        let parent = inner.open.last().copied().unwrap_or(NO_PARENT);
        let request = inner.request;
        inner.open.push(id);
        // The clock is read last on entry and first on exit, so the
        // recorder's own bookkeeping lands in the parent's self time.
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        inner.spans.push(Span {
            layer,
            parent,
            request,
            start_ns,
            end_ns: start_ns,
        });
        SpanGuard { tracer: self, id }
    }

    /// Opens the root span of request `index`.
    pub fn enter_request(&self, index: u32) -> SpanGuard<'_> {
        self.inner.borrow_mut().request = index;
        self.enter(Layer::Request)
    }

    /// Drops everything recorded so far (the warm-up's spans) and makes
    /// room for `spans` more without reallocating under a request.
    pub fn reset(&self, spans: usize) {
        let mut inner = self.inner.borrow_mut();
        inner.spans = Vec::with_capacity(spans);
        inner.counts = TraceCounts::default();
    }

    /// Takes the recorded spans and counts.
    pub fn take(&self) -> (Vec<Span>, TraceCounts) {
        let mut inner = self.inner.borrow_mut();
        (
            std::mem::take(&mut inner.spans),
            std::mem::take(&mut inner.counts),
        )
    }

    fn count(&self, f: impl FnOnce(&mut TraceCounts)) {
        f(&mut self.inner.borrow_mut().counts);
    }
}

/// Per-layer totals of one or more traced epochs.
#[derive(Debug, Clone, Default)]
pub struct LayerTotals {
    pub self_ns: [u64; Layer::COUNT],
    pub span_ns: [u64; Layer::COUNT],
    pub calls: [u64; Layer::COUNT],
    pub spans: u64,
    pub counts: TraceCounts,
}

impl LayerTotals {
    /// Adds one epoch's spans: a span's self time is its duration minus
    /// the durations of the spans it is the parent of.
    pub fn add(&mut self, spans: &[Span], counts: TraceCounts) {
        let mut self_ns: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for span in spans {
            if span.parent != NO_PARENT {
                let child = span.end_ns - span.start_ns;
                let parent = &mut self_ns[span.parent as usize];
                *parent = parent.saturating_sub(child);
            }
        }
        for (span, own) in spans.iter().zip(self_ns) {
            let layer = span.layer as usize;
            self.self_ns[layer] += own;
            self.span_ns[layer] += span.end_ns - span.start_ns;
            self.calls[layer] += 1;
        }
        self.spans += spans.len() as u64;
        self.counts.upstream_batches += counts.upstream_batches;
        self.counts.upstream_batch_tlps += counts.upstream_batch_tlps;
        self.counts.tap_tlps += counts.tap_tlps;
        self.counts.tap_wire_bytes += counts.tap_wire_bytes;
    }

    pub fn self_ns(&self, layer: Layer) -> u64 {
        self.self_ns[layer as usize]
    }

    pub fn span_ns(&self, layer: Layer) -> u64 {
        self.span_ns[layer as usize]
    }

    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    /// Share of the request spans that the layers below them account
    /// for: Σ self time of every non-root span ÷ Σ request span.
    pub fn coverage(&self) -> f64 {
        let root = self.span_ns(Layer::Request);
        let layers: u64 = self.self_ns.iter().sum::<u64>() - self.self_ns(Layer::Request);
        layers as f64 / root as f64
    }
}

/// Writes spans as one JSON object per line:
/// `{id, name, parent, request, start_ns, end_ns}`.
pub fn write_jsonl(out: &mut impl Write, spans: &[Span]) -> io::Result<()> {
    for (id, span) in spans.iter().enumerate() {
        let parent = if span.parent == NO_PARENT {
            "null".to_string()
        } else {
            span.parent.to_string()
        };
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
            span.layer.name(),
            span.request,
            span.start_ns,
            span.end_ns
        )?;
    }
    Ok(())
}

// --- wrappers -----------------------------------------------------------

/// The TLP port the driver and the Adaptor submit through.
pub struct TracedPort<'a> {
    pub inner: &'a mut dyn TlpPort,
    pub tracer: &'a Rc<Tracer>,
}

impl fmt::Debug for TracedPort<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TracedPort({:?})", self.inner)
    }
}

impl TlpPort for TracedPort<'_> {
    fn request(&mut self, tlp: Tlp) -> Vec<Tlp> {
        let _span = self.tracer.enter(Layer::FabricRequest);
        self.inner.request(tlp)
    }

    fn pump(&mut self, memory: &mut dyn HostMemory) -> usize {
        let _span = self.tracer.enter(Layer::FabricPump);
        let mut memory = TracedMemory {
            inner: memory,
            tracer: self.tracer,
        };
        self.inner.pump(&mut memory)
    }
}

/// The host memory the fabric moves DMA payloads in and out of.
struct TracedMemory<'a> {
    inner: &'a mut dyn HostMemory,
    tracer: &'a Rc<Tracer>,
}

impl HostMemory for TracedMemory<'_> {
    fn dma_read(&mut self, requester: Bdf, addr: u64, len: usize) -> Option<Vec<u8>> {
        let _span = self.tracer.enter(Layer::MemoryRead);
        self.inner.dma_read(requester, addr, len)
    }

    fn dma_write(&mut self, requester: Bdf, addr: u64, data: &[u8]) -> bool {
        let _span = self.tracer.enter(Layer::MemoryWrite);
        self.inner.dma_write(requester, addr, data)
    }

    fn dma_read_into(&mut self, requester: Bdf, addr: u64, len: usize, out: &mut Vec<u8>) -> bool {
        let _span = self.tracer.enter(Layer::MemoryRead);
        self.inner.dma_read_into(requester, addr, len, out)
    }
}

/// The kernel DMA-staging service (the Adaptor under ccAI).
pub struct TracedStager<'a> {
    pub inner: &'a mut dyn DmaStager,
    pub tracer: &'a Rc<Tracer>,
}

impl fmt::Debug for TracedStager<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TracedStager({:?})", self.inner)
    }
}

impl DmaStager for TracedStager<'_> {
    fn stage_to_device(
        &mut self,
        port: &mut dyn TlpPort,
        memory: &mut GuestMemory,
        data: &[u8],
    ) -> StagedBuffer {
        let _span = self.tracer.enter(Layer::AdaptorStage);
        self.inner.stage_to_device(port, memory, data)
    }

    fn alloc_from_device(
        &mut self,
        port: &mut dyn TlpPort,
        memory: &mut GuestMemory,
        len: u64,
    ) -> StagedBuffer {
        let _span = self.tracer.enter(Layer::AdaptorAlloc);
        self.inner.alloc_from_device(port, memory, len)
    }

    fn recover_from_device(
        &mut self,
        port: &mut dyn TlpPort,
        memory: &mut GuestMemory,
        buffer: StagedBuffer,
    ) -> Result<Vec<u8>, IntegrityError> {
        let _span = self.tracer.enter(Layer::AdaptorRecover);
        self.inner.recover_from_device(port, memory, buffer)
    }

    fn transfer_failed(
        &mut self,
        port: &mut dyn TlpPort,
        memory: &mut GuestMemory,
        buffer: &StagedBuffer,
    ) {
        let _span = self.tracer.enter(Layer::AdaptorTransferFailed);
        self.inner.transfer_failed(port, memory, buffer);
    }

    fn release_all(&mut self) {
        let _span = self.tracer.enter(Layer::AdaptorRelease);
        self.inner.release_all();
    }
}

/// The PCIe-SC on the xPU port. `as_any` forwards to the wrapped
/// interposer, so `ConfidentialSystem::sc()` still finds the `PcieSc`.
pub struct TracedInterposer {
    pub inner: Box<dyn Interposer>,
    pub tracer: Rc<Tracer>,
}

impl fmt::Debug for TracedInterposer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TracedInterposer({:?})", self.inner)
    }
}

impl Interposer for TracedInterposer {
    fn on_downstream(&mut self, tlp: Tlp) -> InterposeOutcome {
        let _span = self.tracer.enter(Layer::ScDownstream);
        self.inner.on_downstream(tlp)
    }

    fn on_upstream(&mut self, tlp: Tlp) -> InterposeOutcome {
        let _span = self.tracer.enter(Layer::ScUpstream);
        self.inner.on_upstream(tlp)
    }

    fn on_upstream_batch(&mut self, tlps: Vec<Tlp>) -> InterposeOutcome {
        self.tracer.count(|c| {
            c.upstream_batches += 1;
            c.upstream_batch_tlps += tlps.len() as u64;
        });
        let _span = self.tracer.enter(Layer::ScUpstream);
        self.inner.on_upstream_batch(tlps)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self.inner.as_any_mut()
    }
}

/// Counts what crosses the exposed bus segment.
#[derive(Debug)]
pub struct CountingTap {
    pub tracer: Rc<Tracer>,
}

impl BusTap for CountingTap {
    fn observe(&mut self, tlp: &Tlp, _downstream: bool) {
        self.tracer.count(|c| {
            c.tap_tlps += 1;
            c.tap_wire_bytes += tlp.wire_len() as u64;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = [
            Span {
                layer: Layer::Request,
                parent: NO_PARENT,
                request: 0,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                layer: Layer::Driver,
                parent: 0,
                request: 0,
                start_ns: 10,
                end_ns: 90,
            },
            Span {
                layer: Layer::FabricRequest,
                parent: 1,
                request: 0,
                start_ns: 20,
                end_ns: 50,
            },
            Span {
                layer: Layer::ScDownstream,
                parent: 2,
                request: 0,
                start_ns: 25,
                end_ns: 45,
            },
            Span {
                layer: Layer::FabricRequest,
                parent: 1,
                request: 0,
                start_ns: 60,
                end_ns: 70,
            },
        ];
        let mut totals = LayerTotals::default();
        totals.add(&spans, TraceCounts::default());
        assert_eq!(totals.self_ns(Layer::Request), 20);
        assert_eq!(totals.self_ns(Layer::Driver), 40);
        assert_eq!(totals.self_ns(Layer::FabricRequest), 20);
        assert_eq!(totals.self_ns(Layer::ScDownstream), 20);
        assert_eq!(totals.calls(Layer::FabricRequest), 2);
        assert!((totals.coverage() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn nested_guards_record_parents_and_close_in_order() {
        let tracer = Tracer::new();
        {
            let _root = tracer.enter_request(7);
            let _child = tracer.enter(Layer::Driver);
        }
        let _sibling = tracer.enter_request(8);
        drop(_sibling);
        let (spans, _) = tracer.take();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].parent, spans[0].request), (NO_PARENT, 7));
        assert_eq!((spans[1].parent, spans[1].request), (0, 7));
        assert_eq!((spans[2].parent, spans[2].request), (NO_PARENT, 8));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let mut out = Vec::new();
        write_jsonl(&mut out, &spans).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 3);
        for line in text.lines() {
            crate::json::Json::parse(line).unwrap();
        }
    }
}
