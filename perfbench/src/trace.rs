//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only by the benchmark, around the public calls it
//! makes into each layer. They stay in memory until the run ends, then are
//! summarised (self time = a span minus the spans it caused) and optionally
//! written out as JSON lines.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// A layer boundary the benchmark records a span at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One solve request, from call to certificate.
    Request,
    /// `fsp::neh` seeding the incumbent.
    Neh,
    /// `FspProblem::bound` on the host (root bound, and the shadow bound of
    /// every batch node).
    HostBound,
    /// `make_backend`: building the bounding backend of one solve.
    BackendMake,
    /// `BestFirstPool` pops and the selection-time prune check.
    Select,
    /// `FspProblem::branch_into`.
    Branch,
    /// `BoundingBackend::bound_batch`.
    BoundBatch,
    /// `CostReport::record_backend_batch` (the solver's per-batch books).
    CostRecord,
    /// Elimination: leaves, incumbent updates, prunes and pool pushes.
    Eliminate,
    /// A `SolveService::request` answered from a stored certificate.
    ServiceHit,
    /// A `SolveService::request` that solved cold.
    ServiceMiss,
    /// A `SolveService::request` warm-started from a cached donor.
    ServiceWarm,
    /// `InstanceKey::of` + `ConfigKey::of`.
    CacheKey,
}

impl Layer {
    /// The span name, which is the metric prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Request => "request",
            Layer::Neh => "fsp.neh",
            Layer::HostBound => "fsp.bound",
            Layer::BackendMake => "gpu_bnb.backend.make",
            Layer::Select => "bb.select",
            Layer::Branch => "bb.branch",
            Layer::BoundBatch => "gpu_bnb.backend.bound_batch",
            Layer::CostRecord => "gpu_bnb.cost.record",
            Layer::Eliminate => "bb.eliminate",
            Layer::ServiceHit => "gpu_bnb.service.request.hit",
            Layer::ServiceMiss => "gpu_bnb.service.request.miss",
            Layer::ServiceWarm => "gpu_bnb.service.request.warm",
            Layer::CacheKey => "gpu_bnb.cache.key",
        }
    }
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    parent: Option<u32>,
    request: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Per-layer totals of a finished trace.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    /// Spans recorded.
    pub calls: u64,
    /// Summed span durations, in seconds.
    pub total_s: f64,
    /// Summed self time (duration minus child spans), in seconds.
    pub self_s: f64,
}

/// Records spans against one epoch.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span of `layer` caused by `parent` on behalf of `request`.
    pub fn open(&mut self, layer: Layer, parent: Option<SpanId>, request: u32) -> SpanId {
        let id = SpanId(u32::try_from(self.spans.len()).expect("fewer than 2^32 spans"));
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            parent: parent.map(|p| p.0),
            request,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Closes an open span.
    pub fn close(&mut self, id: SpanId) {
        let end = self.now_ns();
        self.spans[id.0 as usize].end_ns = end;
    }

    /// Changes the layer of a span whose kind is known only once it ends
    /// (a service request's cache disposition).
    pub fn retag(&mut self, id: SpanId, layer: Layer) {
        self.spans[id.0 as usize].layer = layer;
    }

    /// Duration of a closed span, in seconds.
    pub fn seconds(&self, id: SpanId) -> f64 {
        let span = &self.spans[id.0 as usize];
        (span.end_ns - span.start_ns) as f64 * 1e-9
    }

    /// Totals per layer, in the order layers were first recorded.
    pub fn totals(&self) -> Vec<(Layer, LayerTotals)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut totals: Vec<(Layer, LayerTotals)> = Vec::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let duration = span.end_ns - span.start_ns;
            let at = match totals.iter().position(|(layer, _)| *layer == span.layer) {
                Some(at) => at,
                None => {
                    totals.push((span.layer, LayerTotals::default()));
                    totals.len() - 1
                }
            };
            let entry = &mut totals[at].1;
            entry.calls += 1;
            entry.total_s += duration as f64 * 1e-9;
            entry.self_s += duration.saturating_sub(children) as f64 * 1e-9;
        }
        totals
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"parent\": {parent}, \"request\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                span.layer.name(),
                span.request,
                span.start_ns,
                span.end_ns
            )?;
        }
        out.flush()
    }
}

/// Looks up one layer's totals (zero when the layer recorded no span).
pub fn layer(totals: &[(Layer, LayerTotals)], layer: Layer) -> LayerTotals {
    totals
        .iter()
        .find(|(l, _)| *l == layer)
        .map_or(LayerTotals::default(), |(_, t)| *t)
}
