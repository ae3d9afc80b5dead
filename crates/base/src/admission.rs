//! Multi-tenant admission control: the robustness core of the query
//! server.
//!
//! A long-running server in front of the engines must stay predictable
//! when offered more work than the hardware can absorb. This module
//! provides an [`AdmissionController`] that every request passes
//! through before it may touch an engine:
//!
//! * a **bounded admission queue** — at most `max_concurrent` requests
//!   execute at once; up to `queue_depth` more may wait (blocking,
//!   deadline-aware); beyond that the request is rejected immediately
//!   instead of growing an unbounded backlog;
//! * **per-tenant concurrency quotas** — one tenant cannot occupy
//!   every slot and starve the rest;
//! * **priority-aware load shedding** — when the saturation gauge
//!   (published to the metrics registry as `admission.saturation`)
//!   crosses the degrade threshold, low-priority requests are admitted
//!   *degraded* (the caller runs them on a cheaper configuration);
//!   past the shed threshold they are rejected outright. High-priority
//!   requests are only ever refused by a full queue, their own
//!   tenant's quota/breaker, or a drain;
//! * **per-tenant circuit breakers** — `breaker_trip` consecutive
//!   failures open the tenant's breaker for a cooldown that doubles
//!   per trip (bounded); after the cooldown a single half-open probe
//!   is admitted, and its outcome closes or re-opens the breaker;
//! * **graceful drain** — [`begin_drain`](AdmissionController::begin_drain)
//!   stops admission (including waking queued waiters with a
//!   `Draining` rejection) while [`await_idle`](AdmissionController::await_idle)
//!   lets the owner flush in-flight work before shutting down.
//!
//! Every decision is counted, globally and per tenant, and the counts
//! are mirrored into the process metrics registry under `admission.*`
//! so the stress driver and the live `/metrics` endpoint see the same
//! accounting the server reports.

use crate::json::{Layout::{Block, Inline}, Writer};
use crate::obs::slo::SloTracker;
use crate::sync::{Condvar, Mutex};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Request classification
// ---------------------------------------------------------------------------

/// Priority class a request declares at admission. Two classes keep
/// the shedding contract crisp: under saturation, `Low` work degrades
/// and then sheds; `High` work never sheds on load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Priority {
    High,
    Low,
}

impl std::str::FromStr for Priority {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "high" | "hi" => Ok(Priority::High),
            "low" | "lo" => Ok(Priority::Low),
            other => Err(format!("priority must be high or low, got {other:?}")),
        }
    }
}

impl Priority {
    /// Stable lowercase label used on the wire, in logs and in metrics.
    pub fn label(&self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Low => "low",
        }
    }
}

impl std::fmt::Display for Priority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Why a request was refused. The server maps these onto `SHED`
/// responses; the stress driver folds them into its verdict (only
/// low-priority work may shed on load).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// Saturation crossed the shed threshold (low priority only).
    Saturated,
    /// The bounded admission queue is full.
    QueueFull,
    /// The tenant is at its concurrency quota.
    Quota,
    /// The tenant's circuit breaker is open.
    BreakerOpen,
    /// The server is draining and admits nothing new.
    Draining,
    /// The request's deadline expired while it waited in the queue.
    DeadlineExpired,
}

impl ShedReason {
    /// Stable lower-snake label used in wire responses and metrics.
    pub fn label(&self) -> &'static str {
        match self {
            ShedReason::Saturated => "saturated",
            ShedReason::QueueFull => "queue_full",
            ShedReason::Quota => "quota",
            ShedReason::BreakerOpen => "breaker_open",
            ShedReason::Draining => "draining",
            ShedReason::DeadlineExpired => "deadline_expired",
        }
    }
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Admission-control policy knobs.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Requests executing concurrently (≥ 1).
    pub max_concurrent: usize,
    /// Requests allowed to wait for a slot once `max_concurrent` is
    /// reached; the queue is the only place a request blocks.
    pub queue_depth: usize,
    /// Concurrent requests one tenant may hold (≥ 1).
    pub tenant_quota: usize,
    /// Saturation (occupied slots + queue, over `max_concurrent`) at
    /// which low-priority admissions are flagged degraded.
    pub degrade_load: f64,
    /// Saturation at which low-priority admissions are shed outright.
    pub shed_load: f64,
    /// Consecutive failures that trip a tenant's breaker.
    pub breaker_trip: u32,
    /// Base breaker cooldown; doubles per successive trip (bounded at
    /// 2⁶ × base) so a persistently failing tenant backs off harder.
    pub breaker_cooldown: Duration,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            max_concurrent: crate::sync::hardware_parallelism(),
            queue_depth: 16,
            tenant_quota: 4,
            degrade_load: 0.75,
            shed_load: 1.25,
            breaker_trip: 3,
            breaker_cooldown: Duration::from_millis(250),
        }
    }
}

// ---------------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    /// Normal operation; failures are being counted.
    Closed,
    /// Tripped: everything from this tenant is rejected until `until`.
    Open { until: Instant },
    /// Cooldown elapsed: exactly one probe request may pass; its
    /// outcome decides between `Closed` and a re-`Open`.
    HalfOpen { probing: bool },
}

#[derive(Debug)]
struct Breaker {
    state: BreakerState,
    consecutive_failures: u32,
    /// Successive trips without an intervening success (backoff
    /// exponent, capped).
    trips: u32,
    total_trips: u64,
}

impl Breaker {
    fn new() -> Self {
        Self {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            trips: 0,
            total_trips: 0,
        }
    }

    /// Whether a request may pass now. Returns `(allowed, is_probe)`.
    fn check(&mut self, now: Instant) -> (bool, bool) {
        match self.state {
            BreakerState::Closed => (true, false),
            BreakerState::Open { until } if now < until => (false, false),
            BreakerState::Open { .. } => {
                self.state = BreakerState::HalfOpen { probing: true };
                (true, true)
            }
            BreakerState::HalfOpen { probing: false } => {
                self.state = BreakerState::HalfOpen { probing: true };
                (true, true)
            }
            BreakerState::HalfOpen { probing: true } => (false, false),
        }
    }

    fn trip(&mut self, now: Instant, base: Duration) {
        let cooldown = base.saturating_mul(1u32 << self.trips.min(6));
        self.state = BreakerState::Open { until: now + cooldown };
        self.trips += 1;
        self.total_trips += 1;
        self.consecutive_failures = 0;
    }

    fn on_outcome(&mut self, ok: bool, probe: bool, now: Instant, trip_at: u32, base: Duration) {
        if ok {
            self.state = BreakerState::Closed;
            self.consecutive_failures = 0;
            self.trips = 0;
            return;
        }
        if probe {
            // A failed probe re-opens immediately with deeper backoff.
            self.trip(now, base);
            return;
        }
        self.consecutive_failures += 1;
        if self.consecutive_failures >= trip_at {
            self.trip(now, base);
        }
    }
}

// ---------------------------------------------------------------------------
// Accounting
// ---------------------------------------------------------------------------

/// Per-tenant decision and outcome counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantCounters {
    pub admitted: u64,
    /// Admitted after blocking in the queue (subset of `admitted`).
    pub queue_waited: u64,
    /// Total microseconds admitted requests spent queued. The full
    /// distribution is in the `admission.queue_wait_us.<tenant>`
    /// registry histogram; the ledger keeps the total so the stress
    /// driver can cross-check without scraping `/metrics`.
    pub queue_wait_us: u64,
    /// Admitted with the degraded flag set (subset of `admitted`).
    pub degraded: u64,
    pub shed_saturated: u64,
    pub shed_queue_full: u64,
    pub shed_quota: u64,
    pub shed_breaker: u64,
    pub shed_draining: u64,
    pub shed_deadline: u64,
    pub completed_ok: u64,
    pub failed: u64,
    pub breaker_trips: u64,
    /// OK completions answered from a semantic side index (no scan).
    pub index_served: u64,
    /// OK completions that scanned/decoded their inputs. Every `OK`
    /// response is one or the other, so per tenant
    /// `index_served + rescan_served` equals the driver-visible OK
    /// count exactly (cancelled completions are in neither).
    pub rescan_served: u64,
}

impl TenantCounters {
    /// Every shed, regardless of reason.
    pub fn shed_total(&self) -> u64 {
        self.shed_saturated
            + self.shed_queue_full
            + self.shed_quota
            + self.shed_breaker
            + self.shed_draining
            + self.shed_deadline
    }

    fn shed_slot(&mut self, reason: ShedReason) -> &mut u64 {
        match reason {
            ShedReason::Saturated => &mut self.shed_saturated,
            ShedReason::QueueFull => &mut self.shed_queue_full,
            ShedReason::Quota => &mut self.shed_quota,
            ShedReason::BreakerOpen => &mut self.shed_breaker,
            ShedReason::Draining => &mut self.shed_draining,
            ShedReason::DeadlineExpired => &mut self.shed_deadline,
        }
    }
}

/// Point-in-time view of the controller: live occupancy plus the
/// per-tenant ledger. Tenants are ordered, so the JSON rendering is
/// deterministic.
#[derive(Debug, Clone, Default)]
pub struct AdmissionSnapshot {
    pub active: usize,
    pub queued: usize,
    pub draining: bool,
    pub tenants: BTreeMap<String, TenantCounters>,
}

impl AdmissionSnapshot {
    /// Sum of one counter across tenants.
    fn total(&self, f: impl Fn(&TenantCounters) -> u64) -> u64 {
        self.tenants.values().map(f).sum()
    }

    /// Deterministic JSON rendering (the server's `STATS` body).
    pub fn to_json(&self) -> String {
        self.to_json_with_slo(None)
    }

    /// [`to_json`](Self::to_json), optionally followed by the
    /// tracker's document as an `"slo"` member.
    pub fn to_json_with_slo(&self, slo: Option<&SloTracker>) -> String {
        let mut w = Writer::new();
        w.object(Block);
        w.member("active", self.active).member("queued", self.queued);
        w.member("draining", self.draining);
        w.member("admitted", self.total(|t| t.admitted));
        w.member("degraded", self.total(|t| t.degraded));
        w.member("shed", self.total(|t| t.shed_total()));
        w.member("breaker_trips", self.total(|t| t.breaker_trips));
        w.member("index_served", self.total(|t| t.index_served));
        w.member("rescan_served", self.total(|t| t.rescan_served));
        w.member("queue_waited", self.total(|t| t.queue_waited));
        w.member("queue_wait_us", self.total(|t| t.queue_wait_us));
        w.key("tenants").object(Block);
        for (name, t) in &self.tenants {
            w.key(name).object(Inline);
            w.member("admitted", t.admitted).member("degraded", t.degraded);
            w.member("shed_saturated", t.shed_saturated);
            w.member("shed_queue_full", t.shed_queue_full);
            w.member("shed_quota", t.shed_quota).member("shed_breaker", t.shed_breaker);
            w.member("shed_draining", t.shed_draining);
            w.member("shed_deadline", t.shed_deadline);
            w.member("completed_ok", t.completed_ok).member("failed", t.failed);
            w.member("breaker_trips", t.breaker_trips);
            w.member("index_served", t.index_served);
            w.member("rescan_served", t.rescan_served);
            w.member("queue_waited", t.queue_waited);
            w.member("queue_wait_us", t.queue_wait_us).end();
        }
        w.end();
        if let Some(slo) = slo {
            slo.write_json(w.key("slo"));
        }
        w.end();
        w.finish()
    }
}

// ---------------------------------------------------------------------------
// Controller
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct State {
    active: usize,
    queued: usize,
    per_tenant_active: BTreeMap<String, usize>,
    breakers: BTreeMap<String, Breaker>,
    counters: BTreeMap<String, TenantCounters>,
    draining: bool,
}

/// The admission gate. Shared (`Arc`) between the server's connection
/// handlers; every public method takes `&self`.
#[derive(Debug)]
pub struct AdmissionController {
    cfg: AdmissionConfig,
    state: Mutex<State>,
    /// Signals queued waiters: a slot freed, or a drain began.
    slot_freed: Condvar,
    /// Signals the drain path: active reached zero.
    idle: Condvar,
}

/// An admitted request's RAII slot. Owns an `Arc` of its controller,
/// so it may travel to whichever thread executes the request. Dropping
/// it releases the slot; the owner should first settle the outcome
/// with [`succeed`](Permit::succeed) or [`fail`](Permit::fail) so the
/// tenant's breaker sees it (an unsettled drop counts as success for
/// the breaker — releasing must never trip anything).
#[derive(Debug)]
pub struct Permit {
    controller: std::sync::Arc<AdmissionController>,
    tenant: String,
    /// The caller should run this request on a cheaper configuration.
    degraded: bool,
    /// This permit is the tenant's half-open breaker probe.
    probe: bool,
    /// Arrival-minted request id, when admitted via
    /// [`AdmissionController::admit_request`].
    request_id: Option<u64>,
    /// Time this request spent blocked in the admission queue.
    queue_wait: Duration,
    settled: bool,
}

impl Permit {
    /// Whether the controller asked for degraded execution.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// The tenant this permit belongs to.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// The arrival-minted request id carried through admission, if the
    /// request came in via [`AdmissionController::admit_request`].
    pub fn request_id(&self) -> Option<u64> {
        self.request_id
    }

    /// How long the request waited in the admission queue (zero when a
    /// slot was free at arrival).
    pub fn queue_wait(&self) -> Duration {
        self.queue_wait
    }

    /// Settle the request as succeeded and release the slot.
    pub fn succeed(mut self) {
        self.settle(true);
    }

    /// Settle the request as failed (feeding the tenant's breaker) and
    /// release the slot.
    pub fn fail(mut self) {
        self.settle(false);
    }

    fn settle(&mut self, ok: bool) {
        if self.settled {
            return;
        }
        self.settled = true;
        self.controller.release(&self.tenant, ok, self.probe);
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        // An unsettled drop (e.g. the handler unwound) releases the
        // slot as a success so the breaker only reacts to explicit
        // failures.
        self.settle(true);
    }
}

impl AdmissionController {
    /// Build a controller; degenerate configs are clamped sane.
    pub fn new(cfg: AdmissionConfig) -> Self {
        let cfg = AdmissionConfig {
            max_concurrent: cfg.max_concurrent.max(1),
            tenant_quota: cfg.tenant_quota.max(1),
            breaker_trip: cfg.breaker_trip.max(1),
            ..cfg
        };
        Self {
            cfg,
            state: Mutex::new(State {
                active: 0,
                queued: 0,
                per_tenant_active: BTreeMap::new(),
                breakers: BTreeMap::new(),
                counters: BTreeMap::new(),
                draining: false,
            }),
            slot_freed: Condvar::new(),
            idle: Condvar::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &AdmissionConfig {
        &self.cfg
    }

    /// Saturation: occupied slots plus queue length over the
    /// concurrency limit. 1.0 means every slot busy and nothing
    /// queued; the shed threshold is typically above 1.0 (slots busy
    /// *and* a backlog).
    fn saturation(&self, st: &State) -> f64 {
        (st.active + st.queued) as f64 / self.cfg.max_concurrent as f64
    }

    /// Publish the live occupancy to the metrics registry — the
    /// saturation gauge is the signal the shedding policy keys on, and
    /// exposing it makes the decision auditable from `/metrics`.
    fn publish_gauges(&self, st: &State) {
        crate::obs::metrics::gauge("admission.active").set(st.active as f64);
        crate::obs::metrics::gauge("admission.queued").set(st.queued as f64);
        crate::obs::metrics::gauge("admission.saturation").set(self.saturation(st));
    }

    fn note_shed(&self, st: &mut State, tenant: &str, reason: ShedReason) -> ShedReason {
        *st.counters.entry(tenant.to_string()).or_default().shed_slot(reason) += 1;
        crate::obs::metrics::counter(&format!("admission.shed.{}", reason.label())).inc();
        reason
    }

    /// Request admission for `tenant` at `priority`. Blocks in the
    /// bounded queue while all slots are busy (respecting `deadline`);
    /// returns a [`Permit`] on success or the [`ShedReason`] on
    /// refusal. This is the only blocking point a request passes
    /// through before execution. Takes `&Arc<Self>` so the permit can
    /// outlive the caller's borrow and move to an executor thread.
    pub fn admit(
        self: &std::sync::Arc<Self>,
        tenant: &str,
        priority: Priority,
        deadline: Option<Instant>,
    ) -> Result<Permit, ShedReason> {
        self.admit_inner(tenant, priority, deadline, None)
    }

    /// [`admit`](Self::admit) with request-scoped identity: the
    /// permit carries the [`RequestCtx`](crate::obs::qlog::RequestCtx)
    /// id so every downstream decision (route, plan, spans, query log)
    /// is attributable to the arrival that caused it.
    pub fn admit_request(
        self: &std::sync::Arc<Self>,
        req: &crate::obs::qlog::RequestCtx,
        deadline: Option<Instant>,
    ) -> Result<Permit, ShedReason> {
        self.admit_inner(&req.tenant, req.priority, deadline, Some(req.id))
    }

    fn admit_inner(
        self: &std::sync::Arc<Self>,
        tenant: &str,
        priority: Priority,
        deadline: Option<Instant>,
        request_id: Option<u64>,
    ) -> Result<Permit, ShedReason> {
        let now = Instant::now();
        let mut st = self.state.lock();
        if st.draining {
            return Err(self.note_shed(&mut st, tenant, ShedReason::Draining));
        }
        // Breaker first: a tripped tenant is refused before it can
        // occupy queue space.
        let (allowed, probe) = st
            .breakers
            .entry(tenant.to_string())
            .or_insert_with(Breaker::new)
            .check(now);
        if !allowed {
            return Err(self.note_shed(&mut st, tenant, ShedReason::BreakerOpen));
        }
        // Load shedding for low priority, off the same saturation
        // number the gauge publishes.
        let saturation = self.saturation(&st);
        let degraded = if priority == Priority::Low {
            if saturation >= self.cfg.shed_load {
                self.release_probe(&mut st, tenant, probe);
                return Err(self.note_shed(&mut st, tenant, ShedReason::Saturated));
            }
            saturation >= self.cfg.degrade_load
        } else {
            false
        };
        // Tenant quota.
        if st.per_tenant_active.get(tenant).copied().unwrap_or(0) >= self.cfg.tenant_quota {
            self.release_probe(&mut st, tenant, probe);
            return Err(self.note_shed(&mut st, tenant, ShedReason::Quota));
        }
        // Slot or bounded queue.
        let mut queue_wait = Duration::ZERO;
        let mut waited = false;
        if st.active >= self.cfg.max_concurrent {
            if st.queued >= self.cfg.queue_depth {
                self.release_probe(&mut st, tenant, probe);
                return Err(self.note_shed(&mut st, tenant, ShedReason::QueueFull));
            }
            let wait_start = Instant::now();
            waited = true;
            st.queued += 1;
            self.publish_gauges(&st);
            loop {
                if st.draining {
                    st.queued -= 1;
                    self.release_probe(&mut st, tenant, probe);
                    self.publish_gauges(&st);
                    return Err(self.note_shed(&mut st, tenant, ShedReason::Draining));
                }
                if st.active < self.cfg.max_concurrent
                    && st.per_tenant_active.get(tenant).copied().unwrap_or(0)
                        < self.cfg.tenant_quota
                {
                    st.queued -= 1;
                    queue_wait = wait_start.elapsed();
                    break;
                }
                let wait = match deadline {
                    Some(d) => {
                        let now = Instant::now();
                        if now >= d {
                            st.queued -= 1;
                            self.release_probe(&mut st, tenant, probe);
                            self.publish_gauges(&st);
                            return Err(self.note_shed(
                                &mut st,
                                tenant,
                                ShedReason::DeadlineExpired,
                            ));
                        }
                        d - now
                    }
                    // No deadline: re-check periodically so a drain or
                    // a freed quota slot is never missed for long.
                    None => Duration::from_millis(50),
                };
                let (guard, _timed_out) = self.slot_freed.wait_timeout(st, wait);
                st = guard;
            }
        }
        st.active += 1;
        *st.per_tenant_active.entry(tenant.to_string()).or_insert(0) += 1;
        let wait_us = queue_wait.as_micros() as u64;
        {
            let c = st.counters.entry(tenant.to_string()).or_default();
            c.admitted += 1;
            if degraded {
                c.degraded += 1;
            }
            if waited {
                c.queue_waited += 1;
                c.queue_wait_us += wait_us;
            }
        }
        crate::obs::metrics::counter("admission.admitted").inc();
        if degraded {
            crate::obs::metrics::counter("admission.degraded").inc();
        }
        // Every admission lands in the tenant's queue-wait histogram
        // (zero for a free slot), so its count equals `admitted` and
        // p50/p95/p99 describe what admission actually cost the tenant.
        crate::obs::metrics::histogram(&format!("admission.queue_wait_us.{tenant}"))
            .observe(wait_us);
        self.publish_gauges(&st);
        drop(st);
        Ok(Permit {
            controller: std::sync::Arc::clone(self),
            tenant: tenant.to_string(),
            degraded,
            probe,
            request_id,
            queue_wait,
            settled: false,
        })
    }

    /// A refusal after the breaker handed out its half-open probe must
    /// hand the probe back, or the breaker would wedge waiting for an
    /// outcome that never comes.
    fn release_probe(&self, st: &mut State, tenant: &str, probe: bool) {
        if probe {
            if let Some(b) = st.breakers.get_mut(tenant) {
                if b.state == (BreakerState::HalfOpen { probing: true }) {
                    b.state = BreakerState::HalfOpen { probing: false };
                }
            }
        }
    }

    /// Release a permit's slot and feed the outcome to the tenant's
    /// breaker.
    fn release(&self, tenant: &str, ok: bool, probe: bool) {
        let now = Instant::now();
        let mut st = self.state.lock();
        st.active = st.active.saturating_sub(1);
        if let Some(n) = st.per_tenant_active.get_mut(tenant) {
            *n = n.saturating_sub(1);
        }
        let trips_before = st.breakers.get(tenant).map(|b| b.total_trips).unwrap_or(0);
        if let Some(b) = st.breakers.get_mut(tenant) {
            b.on_outcome(ok, probe, now, self.cfg.breaker_trip, self.cfg.breaker_cooldown);
        }
        let trips_after = st.breakers.get(tenant).map(|b| b.total_trips).unwrap_or(0);
        {
            let c = st.counters.entry(tenant.to_string()).or_default();
            if ok {
                c.completed_ok += 1;
            } else {
                c.failed += 1;
            }
            c.breaker_trips += trips_after - trips_before;
        }
        if trips_after > trips_before {
            crate::obs::metrics::counter("admission.breaker_trips").inc();
        }
        self.publish_gauges(&st);
        let idle = st.active == 0;
        drop(st);
        self.slot_freed.notify_all();
        if idle {
            self.idle.notify_all();
        }
    }

    /// Stop admitting: every subsequent [`admit`](Self::admit) — and
    /// every request already waiting in the queue — is refused with
    /// [`ShedReason::Draining`]. In-flight permits are unaffected;
    /// pair with [`await_idle`](Self::await_idle) to flush them.
    pub fn begin_drain(&self) {
        let mut st = self.state.lock();
        st.draining = true;
        self.publish_gauges(&st);
        drop(st);
        self.slot_freed.notify_all();
    }

    /// Whether a drain has begun.
    pub fn draining(&self) -> bool {
        self.state.lock().draining
    }

    /// Block until no request is in flight, or `timeout` elapses.
    /// Returns whether the controller reached idle.
    pub fn await_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut st = self.state.lock();
        while st.active > 0 {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _timed_out) = self.idle.wait_timeout(st, deadline - now);
            st = guard;
        }
        true
    }

    /// Record which execution route served an OK completion: the
    /// semantic side index, or a scan of the inputs. Called by the
    /// server alongside `Permit::succeed` (never for cancellations),
    /// so per tenant `index_served + rescan_served` equals the
    /// driver-visible OK count exactly.
    pub fn note_route(&self, tenant: &str, index: bool) {
        let mut st = self.state.lock();
        let c = st.counters.entry(tenant.to_string()).or_default();
        if index {
            c.index_served += 1;
            crate::obs::metrics::counter("admission.index_served").inc();
        } else {
            c.rescan_served += 1;
            crate::obs::metrics::counter("admission.rescan_served").inc();
        }
    }

    /// Point-in-time accounting snapshot.
    pub fn snapshot(&self) -> AdmissionSnapshot {
        let st = self.state.lock();
        AdmissionSnapshot {
            active: st.active,
            queued: st.queued,
            draining: st.draining,
            tenants: st.counters.clone(),
        }
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn cfg() -> AdmissionConfig {
        AdmissionConfig {
            max_concurrent: 2,
            queue_depth: 2,
            tenant_quota: 2,
            degrade_load: 0.75,
            shed_load: 1.25,
            breaker_trip: 2,
            breaker_cooldown: Duration::from_millis(40),
        }
    }

    #[test]
    fn admits_until_queue_overflows() {
        let ctl = Arc::new(AdmissionController::new(AdmissionConfig { queue_depth: 0, ..cfg() }));
        let a = ctl.admit("t", Priority::High, None).unwrap();
        let _b = ctl.admit("u", Priority::High, None).unwrap();
        // Slots full, queue depth 0: immediate QueueFull for a third
        // tenant (quota/shed don't apply first).
        assert_eq!(ctl.admit("v", Priority::High, None).unwrap_err(), ShedReason::QueueFull);
        a.succeed();
        let snap = ctl.snapshot();
        assert_eq!(snap.active, 1);
        assert_eq!(snap.tenants["v"].shed_queue_full, 1);
        assert_eq!(snap.tenants["t"].completed_ok, 1);
    }

    #[test]
    fn queued_request_gets_the_freed_slot() {
        let ctl = Arc::new(AdmissionController::new(cfg()));
        let a = ctl.admit("t", Priority::High, None).unwrap();
        let _b = ctl.admit("u", Priority::High, None).unwrap();
        let ctl2 = Arc::clone(&ctl);
        let waiter = std::thread::spawn(move || {
            ctl2.admit("v", Priority::High, None).map(|p| p.succeed()).is_ok()
        });
        std::thread::sleep(Duration::from_millis(30));
        a.succeed();
        assert!(waiter.join().unwrap(), "queued request must be admitted after a release");
    }

    #[test]
    fn queue_wait_respects_the_deadline() {
        let ctl = Arc::new(AdmissionController::new(cfg()));
        let _a = ctl.admit("t", Priority::High, None).unwrap();
        let _b = ctl.admit("u", Priority::High, None).unwrap();
        let t0 = Instant::now();
        let err = ctl
            .admit("v", Priority::High, Some(Instant::now() + Duration::from_millis(50)))
            .unwrap_err();
        assert_eq!(err, ShedReason::DeadlineExpired);
        assert!(t0.elapsed() >= Duration::from_millis(45));
        assert_eq!(ctl.snapshot().tenants["v"].shed_deadline, 1);
    }

    #[test]
    fn tenant_quota_isolates_tenants() {
        let ctl = Arc::new(AdmissionController::new(AdmissionConfig {
            max_concurrent: 8,
            tenant_quota: 2,
            ..cfg()
        }));
        let _a = ctl.admit("t", Priority::High, None).unwrap();
        let _b = ctl.admit("t", Priority::High, None).unwrap();
        assert_eq!(ctl.admit("t", Priority::High, None).unwrap_err(), ShedReason::Quota);
        // Another tenant is unaffected.
        assert!(ctl.admit("u", Priority::High, None).is_ok());
        assert_eq!(ctl.snapshot().tenants["t"].shed_quota, 1);
    }

    #[test]
    fn low_priority_degrades_then_sheds_under_load() {
        let ctl = Arc::new(AdmissionController::new(AdmissionConfig {
            max_concurrent: 2,
            queue_depth: 8,
            tenant_quota: 8,
            ..cfg()
        }));
        // Empty: low priority admitted cleanly.
        let a = ctl.admit("lo", Priority::Low, None).unwrap();
        assert!(!a.degraded());
        let _b = ctl.admit("hi", Priority::High, None).unwrap();
        // active 2 / max 2 = 1.0 >= degrade_load: a third low admit
        // would queue; give it a short deadline and verify it reports
        // DeadlineExpired (not Saturated — 1.0 < shed_load 1.25).
        let err = ctl
            .admit("lo", Priority::Low, Some(Instant::now() + Duration::from_millis(20)))
            .unwrap_err();
        assert_eq!(err, ShedReason::DeadlineExpired);
        // Push saturation past shed_load (1.25): with both slots busy
        // one queued waiter makes (active + queued) / max = 1.5.
        let ctl2 = Arc::clone(&ctl);
        let waiter = std::thread::spawn(move || {
            // Parks in the queue (saturation becomes 1.5).
            ctl2.admit("hi", Priority::High, Some(Instant::now() + Duration::from_millis(400)))
        });
        std::thread::sleep(Duration::from_millis(50));
        let err = ctl.admit("lo", Priority::Low, None).unwrap_err();
        assert_eq!(err, ShedReason::Saturated, "low priority must shed past the threshold");
        // High priority still only queues/expires, never sheds on load.
        drop(a);
        let _ = waiter.join().unwrap();
        let snap = ctl.snapshot();
        assert_eq!(snap.tenants["lo"].shed_saturated, 1);
        assert_eq!(snap.tenants["hi"].shed_saturated, 0);
    }

    #[test]
    fn degraded_flag_set_between_degrade_and_shed_thresholds() {
        let ctl = Arc::new(AdmissionController::new(AdmissionConfig {
            max_concurrent: 4,
            queue_depth: 8,
            tenant_quota: 8,
            degrade_load: 0.5,
            shed_load: 2.0,
            ..cfg()
        }));
        let _a = ctl.admit("x", Priority::High, None).unwrap();
        let _b = ctl.admit("x", Priority::High, None).unwrap();
        // Saturation 0.5 >= degrade_load: low admits degraded, high
        // does not.
        let lo = ctl.admit("lo", Priority::Low, None).unwrap();
        assert!(lo.degraded());
        let hi = ctl.admit("hi", Priority::High, None).unwrap();
        assert!(!hi.degraded());
        let snap = ctl.snapshot();
        assert_eq!(snap.tenants["lo"].degraded, 1);
        assert_eq!(snap.tenants["hi"].degraded, 0);
    }

    #[test]
    fn breaker_trips_half_opens_and_recloses() {
        let ctl = Arc::new(AdmissionController::new(cfg()));
        // Two consecutive failures trip the breaker (breaker_trip=2).
        ctl.admit("t", Priority::High, None).unwrap().fail();
        ctl.admit("t", Priority::High, None).unwrap().fail();
        let err = ctl.admit("t", Priority::High, None).unwrap_err();
        assert_eq!(err, ShedReason::BreakerOpen);
        // Other tenants are unaffected.
        ctl.admit("u", Priority::High, None).unwrap().succeed();
        // After the cooldown, exactly one probe passes.
        std::thread::sleep(Duration::from_millis(50));
        let probe = ctl.admit("t", Priority::High, None).unwrap();
        assert_eq!(
            ctl.admit("t", Priority::High, None).unwrap_err(),
            ShedReason::BreakerOpen,
            "only one half-open probe may be in flight"
        );
        probe.succeed();
        // Probe success closes the breaker.
        ctl.admit("t", Priority::High, None).unwrap().succeed();
        let snap = ctl.snapshot();
        assert_eq!(snap.tenants["t"].breaker_trips, 1);
        assert!(snap.tenants["t"].shed_breaker >= 2);
    }

    #[test]
    fn failed_probe_reopens_with_deeper_backoff() {
        let ctl = Arc::new(AdmissionController::new(cfg()));
        ctl.admit("t", Priority::High, None).unwrap().fail();
        ctl.admit("t", Priority::High, None).unwrap().fail();
        std::thread::sleep(Duration::from_millis(50));
        // Half-open probe fails: breaker re-opens with doubled
        // cooldown (80ms), so 50ms later it is still open.
        ctl.admit("t", Priority::High, None).unwrap().fail();
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(ctl.admit("t", Priority::High, None).unwrap_err(), ShedReason::BreakerOpen);
        // ...but after the full backoff it half-opens again.
        std::thread::sleep(Duration::from_millis(60));
        ctl.admit("t", Priority::High, None).unwrap().succeed();
        assert_eq!(ctl.snapshot().tenants["t"].breaker_trips, 2);
    }

    #[test]
    fn drain_refuses_new_work_and_flushes_in_flight() {
        let ctl = Arc::new(AdmissionController::new(cfg()));
        let permit = ctl.admit("t", Priority::High, None).unwrap();
        ctl.begin_drain();
        assert!(ctl.draining());
        assert_eq!(ctl.admit("u", Priority::High, None).unwrap_err(), ShedReason::Draining);
        // Not idle while the permit is out.
        assert!(!ctl.await_idle(Duration::from_millis(30)));
        let finisher = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(40));
            permit.succeed();
        });
        assert!(ctl.await_idle(Duration::from_millis(500)), "drain must observe idle");
        finisher.join().unwrap();
        assert_eq!(ctl.snapshot().tenants["u"].shed_draining, 1);
    }

    #[test]
    fn drain_wakes_queued_waiters() {
        let ctl = Arc::new(AdmissionController::new(cfg()));
        let _a = ctl.admit("t", Priority::High, None).unwrap();
        let _b = ctl.admit("u", Priority::High, None).unwrap();
        let ctl2 = Arc::clone(&ctl);
        let waiter = std::thread::spawn(move || ctl2.admit("v", Priority::High, None).err());
        std::thread::sleep(Duration::from_millis(30));
        ctl.begin_drain();
        assert_eq!(waiter.join().unwrap(), Some(ShedReason::Draining));
    }

    #[test]
    fn unsettled_drop_releases_without_feeding_the_breaker() {
        let ctl = Arc::new(AdmissionController::new(cfg()));
        for _ in 0..5 {
            drop(ctl.admit("t", Priority::High, None).unwrap());
        }
        // Five unsettled drops: slot accounting intact, breaker calm.
        let held = ctl.admit("t", Priority::High, None).unwrap();
        let snap = ctl.snapshot();
        assert_eq!(snap.active, 1);
        assert_eq!(snap.tenants["t"].breaker_trips, 0);
        assert_eq!(snap.tenants["t"].completed_ok, 5);
        held.succeed();
    }

    #[test]
    fn route_accounting_splits_ok_completions_per_tenant() {
        let ctl = Arc::new(AdmissionController::new(cfg()));
        ctl.admit("a", Priority::High, None).unwrap().succeed();
        ctl.note_route("a", true);
        ctl.admit("a", Priority::High, None).unwrap().succeed();
        ctl.note_route("a", false);
        ctl.admit("b", Priority::Low, None).unwrap().succeed();
        ctl.note_route("b", false);
        let snap = ctl.snapshot();
        let a = snap.tenants["a"];
        let b = snap.tenants["b"];
        assert_eq!((a.index_served, a.rescan_served), (1, 1));
        assert_eq!((b.index_served, b.rescan_served), (0, 1));
        assert_eq!(a.index_served + a.rescan_served, a.completed_ok);
        let json = snap.to_json();
        assert!(json.contains("\"index_served\": 1,\n"), "totals line:\n{json}");
        assert!(json.contains("\"rescan_served\": 2,\n"), "totals line:\n{json}");
    }

    #[test]
    fn queue_wait_is_measured_and_ledgered() {
        let ctl = Arc::new(AdmissionController::new(cfg()));
        let a = ctl.admit("t", Priority::High, None).unwrap();
        // A free slot at arrival: zero wait, not counted as queued.
        assert_eq!(a.queue_wait(), Duration::ZERO);
        assert_eq!(a.request_id(), None);
        let _b = ctl.admit("u", Priority::High, None).unwrap();
        let ctl2 = Arc::clone(&ctl);
        let waiter = std::thread::spawn(move || {
            let req = crate::obs::qlog::RequestCtx {
                id: 7,
                tenant: "v".into(),
                priority: Priority::High,
            };
            ctl2.admit_request(&req, None)
        });
        std::thread::sleep(Duration::from_millis(30));
        a.succeed();
        let permit = waiter.join().unwrap().expect("queued request admitted");
        assert_eq!(permit.request_id(), Some(7), "admit_request threads the arrival id");
        assert!(
            permit.queue_wait() >= Duration::from_millis(20),
            "measured wait {:?} must cover the blocked interval",
            permit.queue_wait()
        );
        permit.succeed();
        let snap = ctl.snapshot();
        assert_eq!(snap.tenants["v"].queue_waited, 1);
        assert!(snap.tenants["v"].queue_wait_us >= 20_000);
        assert_eq!(snap.tenants["t"].queue_waited, 0);
        assert_eq!(snap.tenants["t"].queue_wait_us, 0);
        let json = snap.to_json();
        assert!(json.contains("\"queue_waited\": 1,"), "ledger json:\n{json}");
    }

    #[test]
    fn concurrent_hammering_accounts_every_request_exactly_once() {
        let ctl = Arc::new(AdmissionController::new(AdmissionConfig {
            max_concurrent: 3,
            queue_depth: 3,
            tenant_quota: 3,
            ..cfg()
        }));
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let ctl = Arc::clone(&ctl);
                std::thread::spawn(move || {
                    let tenant = if i % 2 == 0 { "even" } else { "odd" };
                    let mut admitted = 0u64;
                    let mut shed = 0u64;
                    for _ in 0..50 {
                        match ctl.admit(
                            tenant,
                            Priority::Low,
                            Some(Instant::now() + Duration::from_millis(20)),
                        ) {
                            Ok(p) => {
                                admitted += 1;
                                std::thread::sleep(Duration::from_micros(200));
                                p.succeed();
                            }
                            Err(_) => shed += 1,
                        }
                    }
                    (admitted, shed)
                })
            })
            .collect();
        let (mut admitted, mut shed) = (0u64, 0u64);
        for t in threads {
            let (a, s) = t.join().unwrap();
            admitted += a;
            shed += s;
        }
        assert_eq!(admitted + shed, 400, "every request settles exactly once");
        let snap = ctl.snapshot();
        assert_eq!(snap.active, 0, "all slots returned");
        assert_eq!(snap.queued, 0, "queue drained");
        let ledger_admitted: u64 = snap.tenants.values().map(|t| t.admitted).sum();
        let ledger_shed: u64 = snap.tenants.values().map(|t| t.shed_total()).sum();
        assert_eq!(ledger_admitted, admitted);
        assert_eq!(ledger_shed, shed);
        let ok: u64 = snap.tenants.values().map(|t| t.completed_ok).sum();
        assert_eq!(ok, admitted, "every admitted request completed");
    }
}
