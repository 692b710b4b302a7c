//! Spans recorded from outside the program, around calls into its
//! public API.
//!
//! A [`Recorder`] wraps each slave endpoint the fleet master fans out
//! to, so every collect call becomes a child span of the diagnosis in
//! flight. With one diagnosis in flight at a time, the tracer's
//! "current diagnosis" is unambiguous.

use fchain_core::{ComponentFinding, SlaveEndpoint, SlaveError};
use fchain_metrics::{AppId, ComponentId, Tick};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One finished span: times are ns since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id, unique within the tracer.
    pub id: u64,
    /// Layer boundary the span covers, e.g. `diagnose` or `collect`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// The diagnosis (request) the span belongs to; 0 outside one.
    pub request: u64,
}

/// One collect call as the master made it, kept so the traced run can
/// replay the same request against the daemon and the codec.
#[derive(Debug, Clone)]
pub struct Call {
    /// Diagnosis the call belongs to.
    pub request: u64,
    /// Pool host the endpoint reaches.
    pub host: usize,
    /// Tenant scope of the endpoint.
    pub app: AppId,
    /// Violation tick asked about.
    pub violation_at: Tick,
    /// Per-call window override, if any.
    pub lookback: Option<u64>,
    /// What the endpoint answered.
    pub findings: Result<Vec<ComponentFinding>, SlaveError>,
    /// Span start, ns since the epoch.
    pub start_ns: u64,
    /// Span end, ns since the epoch.
    pub end_ns: u64,
}

/// In-memory span store, written out when the benchmark ends.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    /// `(request id, span id)` of the diagnosis in flight; `(0, 0)` when
    /// none is.
    current: Mutex<(u64, u64)>,
    spans: Mutex<Vec<Span>>,
    calls: Mutex<Vec<Call>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            current: Mutex::new((0, 0)),
            spans: Mutex::new(Vec::new()),
            calls: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// ns since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// ns since the epoch at `t`.
    pub fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// A fresh id (span or request).
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Marks `request` (with root span `span`) as the diagnosis in flight.
    pub fn begin(&self, request: u64, span: u64) {
        *self.current.lock().expect("tracer lock poisoned") = (request, span);
    }

    /// Clears the diagnosis in flight.
    pub fn end(&self) {
        *self.current.lock().expect("tracer lock poisoned") = (0, 0);
    }

    fn current(&self) -> (u64, u64) {
        *self.current.lock().expect("tracer lock poisoned")
    }

    /// Stores a finished span.
    pub fn record(&self, span: Span) {
        self.spans.lock().expect("tracer lock poisoned").push(span);
    }

    /// Removes and returns the collect calls of `request`.
    pub fn take_calls(&self, request: u64) -> Vec<Call> {
        let mut calls = self.calls.lock().expect("tracer lock poisoned");
        let (mine, rest): (Vec<Call>, Vec<Call>) =
            calls.drain(..).partition(|c| c.request == request);
        *calls = rest;
        mine
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("tracer lock poisoned").iter() {
            let line = serde_json::json!({
                "id": s.id,
                "name": s.name,
                "start_ns": s.start_ns,
                "end_ns": s.end_ns,
                "parent": s.parent,
                "request": s.request,
            });
            let line = serde_json::to_string(&line).map_err(std::io::Error::other)?;
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// A recording wrapper around one slave endpoint.
#[derive(Debug)]
pub struct Recorder {
    inner: Arc<dyn SlaveEndpoint>,
    tracer: Arc<Tracer>,
    host: usize,
    app: AppId,
}

impl Recorder {
    /// Wraps `inner`, the endpoint of tenant `app` on pool host `host`.
    pub fn new(
        inner: Arc<dyn SlaveEndpoint>,
        tracer: Arc<Tracer>,
        host: usize,
        app: AppId,
    ) -> Self {
        Recorder {
            inner,
            tracer,
            host,
            app,
        }
    }

    fn timed(
        &self,
        violation_at: Tick,
        lookback: Option<u64>,
        call: impl FnOnce() -> Result<Vec<ComponentFinding>, SlaveError>,
    ) -> Result<Vec<ComponentFinding>, SlaveError> {
        let (request, parent) = self.tracer.current();
        let start_ns = self.tracer.now_ns();
        let findings = call();
        let end_ns = self.tracer.now_ns();
        self.tracer.record(Span {
            id: self.tracer.next_id(),
            name: "collect",
            start_ns,
            end_ns,
            parent: (parent != 0).then_some(parent),
            request,
        });
        self.tracer
            .calls
            .lock()
            .expect("tracer lock poisoned")
            .push(Call {
                request,
                host: self.host,
                app: self.app,
                violation_at,
                lookback,
                findings: findings.clone(),
                start_ns,
                end_ns,
            });
        findings
    }
}

impl SlaveEndpoint for Recorder {
    fn monitored_components(&self) -> Vec<ComponentId> {
        self.inner.monitored_components()
    }

    fn collect(&self, violation_at: Tick) -> Result<Vec<ComponentFinding>, SlaveError> {
        self.timed(violation_at, None, || self.inner.collect(violation_at))
    }

    fn collect_sequential(&self, violation_at: Tick) -> Result<Vec<ComponentFinding>, SlaveError> {
        self.timed(violation_at, None, || {
            self.inner.collect_sequential(violation_at)
        })
    }

    fn collect_with_lookback(
        &self,
        violation_at: Tick,
        lookback: u64,
    ) -> Result<Vec<ComponentFinding>, SlaveError> {
        self.timed(violation_at, Some(lookback), || {
            self.inner.collect_with_lookback(violation_at, lookback)
        })
    }

    fn collect_sequential_with_lookback(
        &self,
        violation_at: Tick,
        lookback: u64,
    ) -> Result<Vec<ComponentFinding>, SlaveError> {
        self.timed(violation_at, Some(lookback), || {
            self.inner
                .collect_sequential_with_lookback(violation_at, lookback)
        })
    }
}

/// Total length of the union of `[start, end)` intervals, in ns.
pub fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut open: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match open {
            Some((os, oe)) if s <= oe => open = Some((os, oe.max(e))),
            Some((os, oe)) => {
                total += oe - os;
                open = Some((s, e));
            }
            None => open = Some((s, e)),
        }
    }
    total + open.map_or(0, |(s, e)| e - s)
}
