//! Hierarchical trace capture: per-thread bounded ring buffers of
//! begin/end events with span IDs and parent links.
//!
//! Where the rest of `sram-probe` aggregates (counters, histograms),
//! this module records *structure*: which span ran inside which, on
//! which thread, for how long. The design constraints, in order:
//!
//! 1. **Lock-free hot path.** Emitting an event is a handful of relaxed
//!    atomic stores into a thread-owned ring buffer slot guarded by a
//!    per-slot sequence word (a seqlock). No mutex, no allocation, no
//!    syscall. Only the registration slow paths (first event on a
//!    thread, first use of a span name) take a lock.
//! 2. **Fixed byte budget.** Each thread owns one ring of
//!    [`slot capacity`](ring_slots) fixed-size slots. When the ring
//!    wraps, the oldest event is overwritten and counted in
//!    `probe.trace.dropped` — capture keeps the most recent window,
//!    which is what a live server wants.
//! 3. **Safe Rust.** The workspace forbids `unsafe`, so the seqlock is
//!    built from individually atomic `u64` words: a torn read cannot be
//!    undefined behavior, only a detectably inconsistent slot, which
//!    the reader discards.
//!
//! Tracing is **off by default** and independent of the metric
//! [`crate::Level`]: the `SRAM_TRACE` environment variable (`1`)
//! enables it at startup, [`set_tracing`] flips it at runtime, and
//! [`force`] enables it for the lifetime of a guard (used by
//! `sram-serve`'s per-request `"trace": true` flag). When disabled,
//! [`trace_span!`](crate::trace_span) is one relaxed atomic load and a
//! branch.
//!
//! Captured events export three ways: [`chrome_trace_json`] (loadable
//! in `chrome://tracing` or <https://ui.perfetto.dev>),
//! [`flame_summary`] (top-N self-time text table), and [`span_tree`]
//! (one request's subtree, which `sram-serve` inlines into responses).

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, Mutex, OnceLock, PoisonError};
use std::time::Instant;

use crate::hash::splitmix64;
use crate::snapshot::format_nanos;

/// Maximum `(key, value)` argument pairs one event can carry.
pub const MAX_ARGS: usize = 4;

/// Payload words per slot: meta, id, parent, t, dur, 2×arg-keys,
/// 4×arg-values.
const PAYLOAD_WORDS: usize = 11;

/// Slot size in words (payload plus the seqlock word).
const SLOT_WORDS: usize = PAYLOAD_WORDS + 1;

/// Default ring capacity in slots per thread (× 96 bytes per slot).
const DEFAULT_SLOTS: usize = 8192;

/// Bounds on the `SRAM_TRACE_SLOTS` override.
const MIN_SLOTS: usize = 256;
const MAX_SLOTS: usize = 1 << 20;

/// Retries before a capture gives up on a slot being rewritten under it.
const READ_RETRIES: usize = 4;

/// Event phase, Chrome trace-event vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Span begin (`"ph":"B"`).
    Begin,
    /// Span end (`"ph":"E"`).
    End,
    /// Complete event with an explicit duration (`"ph":"X"`) — used
    /// for retroactively recorded intervals like queue waits that may
    /// overlap the emitting thread's own span stack.
    Complete,
}

impl Phase {
    fn from_code(code: u64) -> Self {
        match code {
            0 => Phase::Begin,
            1 => Phase::End,
            _ => Phase::Complete,
        }
    }

    fn code(self) -> u64 {
        match self {
            Phase::Begin => 0,
            Phase::End => 1,
            Phase::Complete => 2,
        }
    }
}

// ---------------------------------------------------------------------
// Enable state
// ---------------------------------------------------------------------

/// Sentinel meaning "not yet initialized from the environment".
const STATE_UNINIT: u32 = u32::MAX;

/// Bit 0: base enable (`SRAM_TRACE` / [`set_tracing`]); bits 1…: the
/// count of live [`ForceGuard`]s, shifted left by one. A single word so
/// the disabled fast path is one relaxed load.
static STATE: AtomicU32 = AtomicU32::new(STATE_UNINIT);

fn init_state() -> u32 {
    let base = match std::env::var("SRAM_TRACE") {
        Ok(value) if value.trim() == "1" => 1,
        _ => 0,
    };
    // A concurrent set_tracing/force may have initialized first; it wins.
    match STATE.compare_exchange(STATE_UNINIT, base, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => base,
        Err(current) => current,
    }
}

fn state() -> u32 {
    let s = STATE.load(Ordering::Relaxed);
    if s == STATE_UNINIT {
        init_state()
    } else {
        s
    }
}

/// `true` when trace events are being recorded — the fast path every
/// [`trace_span!`](crate::trace_span) checks first.
#[inline]
pub fn tracing_enabled() -> bool {
    state() != 0
}

/// Enables or disables tracing at runtime, superseding `SRAM_TRACE`.
/// Does not affect live [`force`] guards.
pub fn set_tracing(on: bool) {
    let _ = state();
    let _ = STATE.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
        Some(if on { s | 1 } else { s & !1 })
    });
}

/// Keeps tracing enabled while alive, regardless of the base setting.
/// Guards nest (a counter, not a flag).
#[derive(Debug)]
#[must_use = "tracing stays forced only while the guard is alive"]
pub struct ForceGuard(());

/// Force-enables tracing for the lifetime of the returned guard.
/// `sram-serve` uses this to honor a single request's `"trace": true`
/// without flipping the global switch.
pub fn force() -> ForceGuard {
    let _ = state();
    STATE.fetch_add(2, Ordering::Relaxed);
    ForceGuard(())
}

impl Drop for ForceGuard {
    fn drop(&mut self) {
        STATE.fetch_sub(2, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------
// Per-root sampling
// ---------------------------------------------------------------------

/// Default seed for [`sample`] when `SRAM_TRACE_SAMPLE_SEED` is unset
/// — fixed so two runs of the same workload sample the same roots.
pub const DEFAULT_SAMPLE_SEED: u64 = 0x5EED_7E1E;

/// Sentinel: sampling config not yet read from the environment. The
/// bit pattern is a specific NaN no clamped rate can produce.
const SAMPLE_UNINIT: u64 = u64::MAX;

static SAMPLE_RATE_BITS: AtomicU64 = AtomicU64::new(SAMPLE_UNINIT);
static SAMPLE_SEED: AtomicU64 = AtomicU64::new(DEFAULT_SAMPLE_SEED);

fn sample_rate() -> f64 {
    let bits = SAMPLE_RATE_BITS.load(Ordering::Relaxed);
    if bits != SAMPLE_UNINIT {
        return f64::from_bits(bits);
    }
    let rate = std::env::var("SRAM_TRACE_SAMPLE")
        .ok()
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map_or(1.0, |r| {
            if r.is_finite() {
                r.clamp(0.0, 1.0)
            } else {
                1.0
            }
        });
    let seed = std::env::var("SRAM_TRACE_SAMPLE_SEED")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or(DEFAULT_SAMPLE_SEED);
    SAMPLE_SEED.store(seed, Ordering::Relaxed);
    SAMPLE_RATE_BITS.store(rate.to_bits(), Ordering::Relaxed);
    rate
}

/// Overrides the sampling rate (clamped to `[0, 1]`) and seed at
/// runtime, superseding `SRAM_TRACE_SAMPLE` / `SRAM_TRACE_SAMPLE_SEED`.
pub fn set_sampling(rate: f64, seed: u64) {
    let rate = if rate.is_finite() {
        rate.clamp(0.0, 1.0)
    } else {
        1.0
    };
    SAMPLE_SEED.store(seed, Ordering::Relaxed);
    SAMPLE_RATE_BITS.store(rate.to_bits(), Ordering::Relaxed);
}

/// The effective `(rate, seed)` sampling configuration.
#[must_use]
pub fn sampling() -> (f64, u64) {
    let rate = sample_rate();
    (rate, SAMPLE_SEED.load(Ordering::Relaxed))
}

/// Probabilistically force-enables tracing for one root (a request, a
/// search, any unit with a stable `key`): returns a [`ForceGuard`]
/// for a deterministic, seeded fraction `rate` of keys and `None` for
/// the rest. At rate 1 every root traces (the pre-sampling behavior);
/// at rate 0 none do; in between a loaded node keeps tracing a
/// representative sample without ring pressure, and the sampled
/// subset is identical across runs with the same seed.
#[must_use]
pub fn sample(key: u64) -> Option<ForceGuard> {
    let rate = sample_rate();
    if rate >= 1.0 {
        return Some(force());
    }
    if rate <= 0.0 {
        return None;
    }
    let hash = splitmix64(SAMPLE_SEED.load(Ordering::Relaxed) ^ key);
    // Top 53 bits as a uniform fraction in [0, 1).
    let fraction = (hash >> 11) as f64 / (1u64 << 53) as f64;
    (fraction < rate).then(force)
}

// ---------------------------------------------------------------------
// Cross-process trace context
// ---------------------------------------------------------------------

/// Domain separator mixed into [`trace_id`] so trace ids never collide
/// with the [`sample`] hash stream for the same key.
const TRACE_ID_SALT: u64 = 0x7_1D5A_17ED_5EED;

/// A deterministic trace id for a root `key`: the same splitmix64
/// stream construction as [`sample`], salted so the id stream and the
/// sampling decision stream are independent. Never returns 0 (0 is
/// the "no span" sentinel throughout this module).
#[must_use]
pub fn trace_id(key: u64) -> u64 {
    let id = splitmix64(SAMPLE_SEED.load(Ordering::Relaxed) ^ TRACE_ID_SALT ^ key);
    if id == 0 {
        1
    } else {
        id
    }
}

/// Propagated trace context: what a router sends along with a
/// forwarded request so the receiving node's span tree nests under the
/// caller's root instead of starting a disconnected fragment.
///
/// The wire form ([`TraceCtx::encode`]) is a W3C-`traceparent`-shaped
/// string, `00-<16 hex trace id>-<16 hex parent span>-<01|00>`, where
/// the final flag byte carries the sampling decision: the *sender*
/// samples (via [`sample`]), and a `00` flag tells the receiver to
/// skip tracing entirely — one seeded decision governs the whole
/// cross-process tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// The distributed trace this request belongs to.
    pub trace_id: u64,
    /// The sender-side span the receiver's root should parent under.
    pub parent_span: u64,
    /// The sender's sampling decision; `false` short-circuits all
    /// receiver-side recording.
    pub sampled: bool,
}

impl TraceCtx {
    /// Renders the wire form: `00-{trace_id:016x}-{parent:016x}-{01|00}`.
    #[must_use]
    pub fn encode(&self) -> String {
        format!(
            "00-{:016x}-{:016x}-{}",
            self.trace_id,
            self.parent_span,
            if self.sampled { "01" } else { "00" }
        )
    }

    /// Parses the wire form. Returns `None` for anything malformed: a
    /// wrong version, field count, field width, non-hex digits, or an
    /// unknown flag byte.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        let mut parts = s.split('-');
        let (version, trace, parent, flags) =
            (parts.next()?, parts.next()?, parts.next()?, parts.next()?);
        if parts.next().is_some() || version != "00" {
            return None;
        }
        if trace.len() != 16 || parent.len() != 16 {
            return None;
        }
        let trace_id = u64::from_str_radix(trace, 16).ok()?;
        let parent_span = u64::from_str_radix(parent, 16).ok()?;
        let sampled = match flags {
            "01" => true,
            "00" => false,
            _ => return None,
        };
        Some(Self {
            trace_id,
            parent_span,
            sampled,
        })
    }
}

// ---------------------------------------------------------------------
// Clock, span ids, name interning
// ---------------------------------------------------------------------

static ANCHOR: LazyLock<Instant> = LazyLock::new(Instant::now);

/// Nanoseconds since the process's trace epoch (first use).
#[must_use]
pub fn now_ns() -> u64 {
    u64::try_from(ANCHOR.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Span ids are process-global and never reused; 0 means "no parent".
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

#[derive(Default)]
struct NameTable {
    by_name: HashMap<&'static str, u32>,
    names: Vec<&'static str>,
}

static NAMES: LazyLock<Mutex<NameTable>> = LazyLock::new(|| Mutex::new(NameTable::default()));

/// Interns a span or argument name, returning its stable numeric id.
/// Call sites cache the id (the [`trace_span!`](crate::trace_span)
/// macro does so in a per-site `OnceLock`), so the intern lock is a
/// once-per-name cost.
#[must_use]
pub fn intern(name: &'static str) -> u32 {
    let mut table = NAMES.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(&id) = table.by_name.get(name) {
        return id;
    }
    let id = u32::try_from(table.names.len()).unwrap_or(u32::MAX);
    if id != u32::MAX {
        table.names.push(name);
        table.by_name.insert(name, id);
    }
    id
}

fn name_snapshot() -> Vec<&'static str> {
    NAMES
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .names
        .clone()
}

// ---------------------------------------------------------------------
// Ring buffers
// ---------------------------------------------------------------------

/// Ring capacity in slots per thread: `SRAM_TRACE_SLOTS` rounded down
/// to a power of two and clamped to `[256, 1 Mi]`; default 8192
/// (768 KiB per thread).
#[must_use]
pub fn ring_slots() -> usize {
    static SLOTS: LazyLock<usize> = LazyLock::new(|| {
        let requested = std::env::var("SRAM_TRACE_SLOTS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(DEFAULT_SLOTS);
        let clamped = requested.clamp(MIN_SLOTS, MAX_SLOTS);
        // Power of two so the wrap mask is a single AND.
        if clamped.is_power_of_two() {
            clamped
        } else {
            (clamped / 2 + 1).next_power_of_two()
        }
    });
    *SLOTS
}

/// One thread's event ring. The owning thread is the only writer; any
/// thread may read during [`capture`]. Each slot is a seqlock: the
/// sequence word holds `2 × event_index + 1` while the write is in
/// flight and `2 × event_index + 2` once complete, so a reader can both
/// detect torn slots and recover the per-thread emission order.
struct RingBuffer {
    tid: u32,
    capacity: usize,
    /// Monotonic count of events ever written to this ring.
    head: AtomicU64,
    /// Event indices below this are logically cleared.
    floor: AtomicU64,
    slots: Box<[AtomicU64]>,
}

impl RingBuffer {
    fn new(tid: u32, capacity: usize) -> Self {
        let mut slots = Vec::with_capacity(capacity * SLOT_WORDS);
        slots.resize_with(capacity * SLOT_WORDS, || AtomicU64::new(0));
        Self {
            tid,
            capacity,
            head: AtomicU64::new(0),
            floor: AtomicU64::new(0),
            slots: slots.into_boxed_slice(),
        }
    }

    /// Writer-side push; owner thread only.
    fn push(&self, payload: &[u64; PAYLOAD_WORDS]) {
        let head = self.head.load(Ordering::Relaxed);
        let base = (head as usize & (self.capacity - 1)) * SLOT_WORDS;
        self.slots[base].store(head * 2 + 1, Ordering::Release);
        for (offset, &word) in payload.iter().enumerate() {
            self.slots[base + 1 + offset].store(word, Ordering::Release);
        }
        self.slots[base].store(head * 2 + 2, Ordering::Release);
        self.head.store(head + 1, Ordering::Release);
        if head >= self.capacity as u64 {
            note_dropped();
        }
    }

    /// Reader-side decode of every consistent, uncleared slot.
    fn read_into(&self, names: &[&'static str], out: &mut Vec<TraceEvent>) {
        let floor = self.floor.load(Ordering::Acquire);
        let mut payload = [0u64; PAYLOAD_WORDS];
        for slot in 0..self.capacity {
            let base = slot * SLOT_WORDS;
            for _ in 0..READ_RETRIES {
                let before = self.slots[base].load(Ordering::Acquire);
                if before == 0 || before % 2 == 1 {
                    // Empty, or a write is in flight right now; a torn
                    // event is worth less than a stalled capture.
                    break;
                }
                for (offset, word) in payload.iter_mut().enumerate() {
                    *word = self.slots[base + 1 + offset].load(Ordering::Acquire);
                }
                let after = self.slots[base].load(Ordering::Acquire);
                if before != after {
                    continue; // overwritten mid-read; retry
                }
                let index = before / 2 - 1;
                if index >= floor {
                    out.push(decode(self.tid, index, &payload, names));
                }
                break;
            }
        }
    }
}

static BUFFERS: LazyLock<Mutex<Vec<Arc<RingBuffer>>>> = LazyLock::new(|| Mutex::new(Vec::new()));

/// Rings whose owning thread has exited, available for reuse so a
/// server accepting many short-lived connections does not grow the
/// buffer set without bound.
static POOL: LazyLock<Mutex<Vec<Arc<RingBuffer>>>> = LazyLock::new(|| Mutex::new(Vec::new()));

fn dropped_counter() -> &'static crate::Counter {
    static HANDLE: OnceLock<&'static crate::Counter> = OnceLock::new();
    HANDLE.get_or_init(|| crate::counter("probe.trace.dropped"))
}

static DROPPED: AtomicU64 = AtomicU64::new(0);

fn note_dropped() {
    DROPPED.fetch_add(1, Ordering::Relaxed);
    // Mirrored into the metric registry (bypassing the level gate —
    // a drop must be visible whenever it happens).
    dropped_counter().inc();
}

/// Events overwritten before any capture saw them, process lifetime
/// total (also exported as the `probe.trace.dropped` counter).
#[must_use]
pub fn dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

struct LocalTrace {
    buf: Arc<RingBuffer>,
    /// Open spans on this thread, innermost last.
    stack: Vec<u64>,
    /// Cross-thread parents adopted via [`adopt_parent`].
    adopted: Vec<u64>,
}

impl LocalTrace {
    fn new() -> Self {
        let pooled = POOL.lock().unwrap_or_else(PoisonError::into_inner).pop();
        let buf = pooled.unwrap_or_else(|| {
            let mut buffers = BUFFERS.lock().unwrap_or_else(PoisonError::into_inner);
            let ring = Arc::new(RingBuffer::new(
                u32::try_from(buffers.len()).unwrap_or(u32::MAX),
                ring_slots(),
            ));
            buffers.push(Arc::clone(&ring));
            ring
        });
        Self {
            buf,
            stack: Vec::new(),
            adopted: Vec::new(),
        }
    }
}

impl Drop for LocalTrace {
    fn drop(&mut self) {
        // Return the ring for reuse; its events stay readable (the Arc
        // also lives in BUFFERS) until another thread recycles it.
        POOL.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Arc::clone(&self.buf));
    }
}

thread_local! {
    static LOCAL: RefCell<Option<LocalTrace>> = const { RefCell::new(None) };
}

fn with_local<R>(f: impl FnOnce(&mut LocalTrace) -> R) -> Option<R> {
    LOCAL
        .try_with(|cell| {
            let mut slot = cell.borrow_mut();
            f(slot.get_or_insert_with(LocalTrace::new))
        })
        .ok()
}

#[allow(clippy::too_many_arguments)]
fn emit(
    local: &mut LocalTrace,
    phase: Phase,
    name_id: u32,
    id: u64,
    parent: u64,
    t_ns: u64,
    dur_ns: u64,
    args: &[(u32, i64)],
) {
    let argc = args.len().min(MAX_ARGS);
    let mut payload = [0u64; PAYLOAD_WORDS];
    payload[0] = u64::from(name_id) | (phase.code() << 32) | ((argc as u64) << 40);
    payload[1] = id;
    payload[2] = parent;
    payload[3] = t_ns;
    payload[4] = dur_ns;
    for (i, &(key, value)) in args.iter().take(argc).enumerate() {
        payload[5 + i / 2] |= u64::from(key) << (32 * (i % 2));
        payload[7 + i] = value as u64;
    }
    local.buf.push(&payload);
}

fn decode(
    tid: u32,
    index: u64,
    payload: &[u64; PAYLOAD_WORDS],
    names: &[&'static str],
) -> TraceEvent {
    let resolve = |id: u32| names.get(id as usize).copied().unwrap_or("<unknown>");
    let meta = payload[0];
    let name_id = (meta & 0xffff_ffff) as u32;
    let phase = Phase::from_code((meta >> 32) & 0xff);
    let argc = ((meta >> 40) & 0xff) as usize;
    let mut args = Vec::with_capacity(argc.min(MAX_ARGS));
    for i in 0..argc.min(MAX_ARGS) {
        let key = ((payload[5 + i / 2] >> (32 * (i % 2))) & 0xffff_ffff) as u32;
        args.push((resolve(key), payload[7 + i] as i64));
    }
    TraceEvent {
        name: resolve(name_id),
        phase,
        id: payload[1],
        parent: payload[2],
        tid,
        seq: index,
        t_ns: payload[3],
        dur_ns: payload[4],
        args,
    }
}

// ---------------------------------------------------------------------
// Span guards and explicit emission
// ---------------------------------------------------------------------

/// RAII trace span: emits a begin event on creation and an end event
/// (carrying any [`args`](TraceSpan::arg)) on drop. Created by the
/// [`trace_span!`](crate::trace_span) macro; bind it to a named
/// variable, not `_`, or it ends immediately.
#[derive(Debug)]
#[must_use = "binding a trace span to `_` drops it immediately; use `let _span = ...`"]
pub struct TraceSpan {
    id: u64,
    name_id: u32,
    args: [(u32, i64); MAX_ARGS],
    argc: u8,
    live: bool,
}

impl TraceSpan {
    /// A no-op guard (what disabled call sites get).
    pub const fn disabled() -> Self {
        Self {
            id: 0,
            name_id: 0,
            args: [(0, 0); MAX_ARGS],
            argc: 0,
            live: false,
        }
    }

    /// Begins a span for an interned name now. Returns a disabled guard
    /// when tracing is off.
    pub fn begin(name_id: u32) -> Self {
        Self::begin_at(name_id, now_ns())
    }

    /// Begins a span with an explicit (earlier) start timestamp — used
    /// when the decision to trace is made after the work started, e.g.
    /// a request parsed before its `"trace": true` flag was visible.
    pub fn begin_at(name_id: u32, t_ns: u64) -> Self {
        if !tracing_enabled() {
            return Self::disabled();
        }
        let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
        let emitted = with_local(|local| {
            let parent = local
                .stack
                .last()
                .copied()
                .or_else(|| local.adopted.last().copied())
                .unwrap_or(0);
            emit(local, Phase::Begin, name_id, id, parent, t_ns, 0, &[]);
            local.stack.push(id);
        });
        if emitted.is_none() {
            return Self::disabled();
        }
        Self {
            id,
            name_id,
            args: [(0, 0); MAX_ARGS],
            argc: 0,
            live: true,
        }
    }

    /// Whether this guard records anything.
    #[must_use]
    pub fn is_recording(&self) -> bool {
        self.live
    }

    /// This span's id (0 when disabled) — the parent handle other
    /// threads adopt via [`adopt_parent`] or [`emit_complete`].
    #[must_use]
    pub fn id(&self) -> u64 {
        if self.live {
            self.id
        } else {
            0
        }
    }

    /// Attaches a `(key, value)` argument, recorded on the end event.
    /// At most [`MAX_ARGS`] stick; later ones are silently ignored.
    pub fn arg(&mut self, key: &'static str, value: i64) {
        if self.live && usize::from(self.argc) < MAX_ARGS {
            self.args[usize::from(self.argc)] = (intern(key), value);
            self.argc += 1;
        }
    }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        let end = now_ns();
        let (id, name_id) = (self.id, self.name_id);
        let args = &self.args[..usize::from(self.argc)];
        let _ = with_local(|local| {
            // Spans normally end innermost-first; tolerate out-of-order
            // drops rather than corrupting the stack.
            if local.stack.last() == Some(&id) {
                local.stack.pop();
            } else {
                local.stack.retain(|&open| open != id);
            }
            emit(local, Phase::End, name_id, id, 0, end, 0, args);
        });
    }
}

/// Begins a span by name at an explicit start time (rare-path
/// convenience that interns on every call; hot paths use the
/// [`trace_span!`](crate::trace_span) macro's cached id).
pub fn span_at(name: &'static str, t_ns: u64) -> TraceSpan {
    if !tracing_enabled() {
        return TraceSpan::disabled();
    }
    TraceSpan::begin_at(intern(name), t_ns)
}

/// Emits one complete (`"X"`) event for an interval measured
/// elsewhere, parented to `parent` (0 for none). Used for intervals
/// that cannot be RAII spans — e.g. a queue wait whose start was
/// stamped by the enqueuing thread — and rendered on a side lane so an
/// overlap with the emitting thread's own spans cannot break begin/end
/// nesting.
pub fn emit_complete(
    name: &'static str,
    parent: u64,
    start_ns: u64,
    end_ns: u64,
    args: &[(&'static str, i64)],
) {
    if !tracing_enabled() {
        return;
    }
    let name_id = intern(name);
    let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
    let mut encoded = [(0u32, 0i64); MAX_ARGS];
    let argc = args.len().min(MAX_ARGS);
    for (slot, &(key, value)) in encoded.iter_mut().zip(args.iter().take(argc)) {
        *slot = (intern(key), value);
    }
    let _ = with_local(|local| {
        emit(
            local,
            Phase::Complete,
            name_id,
            id,
            parent,
            start_ns,
            end_ns.saturating_sub(start_ns),
            &encoded[..argc],
        );
    });
}

/// Makes `parent` the default parent for spans this thread opens while
/// the guard lives (only when the thread's own span stack is empty).
/// This is how a worker thread nests its work under a request's root
/// span that lives on the connection thread.
#[derive(Debug)]
#[must_use = "the adopted parent applies only while the guard is alive"]
pub struct AdoptGuard {
    id: u64,
    active: bool,
}

/// Adopts a cross-thread parent span id for the current thread.
pub fn adopt_parent(id: u64) -> AdoptGuard {
    let active = id != 0 && with_local(|local| local.adopted.push(id)).is_some();
    AdoptGuard { id, active }
}

impl Drop for AdoptGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let id = self.id;
        let _ = with_local(|local| {
            if local.adopted.last() == Some(&id) {
                local.adopted.pop();
            } else {
                local.adopted.retain(|&open| open != id);
            }
        });
    }
}

// ---------------------------------------------------------------------
// Capture and export
// ---------------------------------------------------------------------

/// One decoded trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span name (interned).
    pub name: &'static str,
    /// Begin, end, or complete.
    pub phase: Phase,
    /// Span id; begin/end pairs share it.
    pub id: u64,
    /// Parent span id (0 = root). Set on begin and complete events.
    pub parent: u64,
    /// Ring index of the emitting thread.
    pub tid: u32,
    /// Per-thread emission sequence number.
    pub seq: u64,
    /// Event time (begin time for complete events), ns since the trace
    /// epoch.
    pub t_ns: u64,
    /// Duration for complete events; 0 for begin/end.
    pub dur_ns: u64,
    /// `(key, value)` arguments (end and complete events).
    pub args: Vec<(&'static str, i64)>,
}

/// Copies every live event out of every thread's ring, ordered by
/// timestamp (per-thread emission order breaks ties). The most recent
/// `ring_slots()` events per thread survive; older ones were
/// overwritten and counted in [`dropped`].
#[must_use]
pub fn capture() -> Vec<TraceEvent> {
    let buffers: Vec<Arc<RingBuffer>> = BUFFERS
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    let names = name_snapshot();
    let mut events = Vec::new();
    for buffer in &buffers {
        buffer.read_into(&names, &mut events);
    }
    events.sort_by_key(|e| (e.t_ns, e.tid, e.seq));
    events
}

/// Logically clears every ring (events already written become
/// invisible to [`capture`]; the byte budget is untouched). The
/// [`dropped`] total is cumulative and not reset.
pub fn clear() {
    let buffers: Vec<Arc<RingBuffer>> = BUFFERS
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    for buffer in &buffers {
        buffer
            .floor
            .store(buffer.head.load(Ordering::Acquire), Ordering::Release);
    }
}

/// Complete events render on a separate Chrome lane (`tid + 1000`) so
/// their overlap with the thread's own stack stays legal.
const COMPLETE_LANE_OFFSET: u32 = 1000;

/// Renders events as Chrome trace-event JSON — an object with a
/// `"traceEvents"` array — loadable in `chrome://tracing` and Perfetto.
/// Timestamps are microseconds (`ts`/`dur`), as the format requires.
/// All events share `pid` 1; multi-process captures go through
/// [`chrome_trace_json_labeled`], which gives each source its own lane.
#[must_use]
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    chrome_trace_json_labeled(&[(1, "sram", events)])
}

/// Renders several event sources (e.g. a router and each cluster node)
/// into one Chrome trace. Each `(pid, label, events)` source renders
/// under its own `pid`, announced with a `process_name` metadata (`M`)
/// event so viewers show the label instead of a bare number — without
/// this, merged node+router captures all land on `pid` 1 and draw on
/// top of each other.
#[must_use]
pub fn chrome_trace_json_labeled(sources: &[(u32, &str, &[TraceEvent])]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for (pid, label, events) in sources {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape(label),
        );
        for event in *events {
            out.push(',');
            let (ph, tid) = match event.phase {
                Phase::Begin => ("B", event.tid),
                Phase::End => ("E", event.tid),
                Phase::Complete => ("X", event.tid + COMPLETE_LANE_OFFSET),
            };
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"sram\",\"ph\":\"{ph}\",\"pid\":{pid},\"tid\":{tid},\"ts\":{:.3}",
                escape(event.name),
                event.t_ns as f64 / 1e3,
            );
            if event.phase == Phase::Complete {
                let _ = write!(out, ",\"dur\":{:.3}", event.dur_ns as f64 / 1e3);
            }
            let mut wrote_args = false;
            if event.id != 0 {
                let _ = write!(out, ",\"args\":{{\"span\":{}", event.id);
                wrote_args = true;
                if event.parent != 0 {
                    let _ = write!(out, ",\"parent\":{}", event.parent);
                }
            }
            for (key, value) in &event.args {
                if !wrote_args {
                    out.push_str(",\"args\":{");
                    wrote_args = true;
                    let _ = write!(out, "\"{}\":{value}", escape(key));
                } else {
                    let _ = write!(out, ",\"{}\":{value}", escape(key));
                }
            }
            if wrote_args {
                out.push('}');
            }
            out.push('}');
        }
    }
    out.push_str("]}");
    out
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// One reconstructed span interval.
#[derive(Debug, Clone)]
struct Interval {
    name: &'static str,
    parent: u64,
    start_ns: u64,
    end_ns: u64,
    args: Vec<(&'static str, i64)>,
}

/// Pairs begin/end events (and adopts complete events) into intervals
/// keyed by span id. Unmatched begins (span still open at capture) are
/// closed at the latest timestamp seen.
fn intervals(events: &[TraceEvent]) -> HashMap<u64, Interval> {
    let horizon = events
        .iter()
        .map(|e| e.t_ns.saturating_add(e.dur_ns))
        .max()
        .unwrap_or(0);
    let mut spans: HashMap<u64, Interval> = HashMap::new();
    for event in events {
        match event.phase {
            Phase::Begin => {
                spans.insert(
                    event.id,
                    Interval {
                        name: event.name,
                        parent: event.parent,
                        start_ns: event.t_ns,
                        end_ns: horizon,
                        args: Vec::new(),
                    },
                );
            }
            Phase::End => {
                if let Some(interval) = spans.get_mut(&event.id) {
                    interval.end_ns = event.t_ns;
                    interval.args = event.args.clone();
                }
                // An end whose begin was overwritten is unusable: we
                // know neither its start nor its parent.
            }
            Phase::Complete => {
                spans.insert(
                    event.id,
                    Interval {
                        name: event.name,
                        parent: event.parent,
                        start_ns: event.t_ns,
                        end_ns: event.t_ns.saturating_add(event.dur_ns),
                        args: event.args.clone(),
                    },
                );
            }
        }
    }
    spans
}

/// Renders a top-N self-time table by span name. Self time is a span's
/// duration minus its direct children's durations, summed over every
/// occurrence of the name — the classic flame-graph aggregation,
/// without leaving the terminal.
#[must_use]
pub fn flame_summary(events: &[TraceEvent], top_n: usize) -> String {
    let spans = intervals(events);
    // Direct-child time per parent span id.
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for interval in spans.values() {
        if interval.parent != 0 {
            *child_ns.entry(interval.parent).or_insert(0) +=
                interval.end_ns.saturating_sub(interval.start_ns);
        }
    }
    // Aggregate by name: (count, total, self).
    let mut by_name: HashMap<&'static str, (u64, u64, u64)> = HashMap::new();
    for (id, interval) in &spans {
        let total = interval.end_ns.saturating_sub(interval.start_ns);
        let own = total.saturating_sub(child_ns.get(id).copied().unwrap_or(0));
        let entry = by_name.entry(interval.name).or_insert((0, 0, 0));
        entry.0 += 1;
        entry.1 += total;
        entry.2 += own;
    }
    let mut rows: Vec<(&'static str, (u64, u64, u64))> = by_name.into_iter().collect();
    rows.sort_by(|a, b| b.1 .2.cmp(&a.1 .2).then(a.0.cmp(b.0)));
    rows.truncate(top_n.max(1));

    if rows.is_empty() {
        return String::from("  (no trace events captured)\n");
    }
    let name_width = rows.iter().map(|(n, _)| n.len()).max().unwrap_or(0).max(16);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  {:<name_width$}  {:>8}  {:>10}  {:>10}",
        "span", "count", "total", "self"
    );
    for (name, (count, total, own)) in rows {
        let _ = writeln!(
            out,
            "  {name:<name_width$}  {count:>8}  {:>10}  {:>10}",
            format_nanos(total as f64),
            format_nanos(own as f64),
        );
    }
    out
}

/// One node of a reconstructed span tree.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// Span name.
    pub name: &'static str,
    /// Start, ns since the trace epoch.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
    /// Arguments recorded on the span's end (or complete) event.
    pub args: Vec<(&'static str, i64)>,
    /// Child spans, by start time.
    pub children: Vec<SpanNode>,
}

/// Tree depth guard: a parent cycle (possible only from a torn or
/// recycled slot) must not recurse forever.
const MAX_TREE_DEPTH: usize = 64;

/// Reconstructs the span tree rooted at span id `root` from captured
/// events — how a traced `sram-serve` request gets its own trace
/// inlined into the response. Returns `None` when the root's begin
/// event was already overwritten.
#[must_use]
pub fn span_tree(events: &[TraceEvent], root: u64) -> Option<SpanNode> {
    let spans = intervals(events);
    let mut children: HashMap<u64, Vec<u64>> = HashMap::new();
    for (&id, interval) in &spans {
        if interval.parent != 0 {
            children.entry(interval.parent).or_default().push(id);
        }
    }
    build_node(root, &spans, &children, 0)
}

fn build_node(
    id: u64,
    spans: &HashMap<u64, Interval>,
    children: &HashMap<u64, Vec<u64>>,
    depth: usize,
) -> Option<SpanNode> {
    if depth >= MAX_TREE_DEPTH {
        return None;
    }
    let interval = spans.get(&id)?;
    let mut kids: Vec<SpanNode> = children
        .get(&id)
        .map(|ids| {
            ids.iter()
                .filter_map(|&child| build_node(child, spans, children, depth + 1))
                .collect()
        })
        .unwrap_or_default();
    kids.sort_by_key(|k| k.start_ns);
    Some(SpanNode {
        name: interval.name,
        start_ns: interval.start_ns,
        dur_ns: interval.end_ns.saturating_sub(interval.start_ns),
        args: interval.args.clone(),
        children: kids,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Trace tests share the global enable state and rings; serialize
    /// them (other modules' tests never touch tracing).
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A tiny Chrome-trace well-formedness check: every `B` has a
    /// matching later `E` with the same tid, LIFO-nested per tid.
    fn assert_chrome_well_formed(events: &[TraceEvent]) {
        let mut stacks: HashMap<u32, Vec<u64>> = HashMap::new();
        for event in events {
            match event.phase {
                Phase::Begin => stacks.entry(event.tid).or_default().push(event.id),
                Phase::End => {
                    let top = stacks.entry(event.tid).or_default().pop();
                    assert_eq!(top, Some(event.id), "E must close the innermost B");
                }
                Phase::Complete => {}
            }
        }
        for (tid, stack) in stacks {
            assert!(stack.is_empty(), "unclosed spans on tid {tid}: {stack:?}");
        }
    }

    #[test]
    fn disabled_span_is_inert() {
        let _guard = serial();
        assert!(!TraceSpan::disabled().is_recording());
        assert_eq!(TraceSpan::disabled().id(), 0);
        let mut span = TraceSpan::disabled();
        span.arg("ignored", 1);
        drop(span); // must not emit or touch the ring
    }

    #[test]
    fn spans_nest_and_capture_decodes() {
        let _guard = serial();
        let force = force();
        let (outer_id, inner_id) = {
            let outer = crate::trace_span!("test.outer_a");
            let inner = {
                let mut inner = crate::trace_span!("test.inner_a");
                inner.arg("examined", 42);
                inner.arg("feasible", 7);
                inner.id()
            };
            (outer.id(), inner)
        };
        let events = capture();
        drop(force);

        let begin = events
            .iter()
            .find(|e| e.id == inner_id && e.phase == Phase::Begin)
            .expect("inner begin");
        assert_eq!(begin.name, "test.inner_a");
        assert_eq!(begin.parent, outer_id, "parent link is the open outer span");
        let end = events
            .iter()
            .find(|e| e.id == inner_id && e.phase == Phase::End)
            .expect("inner end");
        assert_eq!(end.args, vec![("examined", 42), ("feasible", 7)]);
        let ours: Vec<TraceEvent> = events
            .iter()
            .filter(|e| e.id == inner_id || e.id == outer_id)
            .cloned()
            .collect();
        assert_chrome_well_formed(&ours);
    }

    #[test]
    fn trace_span_macro_is_disabled_without_force() {
        let _guard = serial();
        // Base state may have been initialized from the env by another
        // test; pin it off explicitly.
        set_tracing(false);
        let span = crate::trace_span!("test.should_not_record");
        assert!(!span.is_recording());
        drop(span);
        assert!(
            !capture().iter().any(|e| e.name == "test.should_not_record"),
            "disabled span must not emit"
        );
    }

    #[test]
    fn set_tracing_round_trips() {
        let _guard = serial();
        set_tracing(true);
        assert!(tracing_enabled());
        let span = crate::trace_span!("test.enabled_by_set");
        assert!(span.is_recording());
        drop(span);
        set_tracing(false);
        assert!(!tracing_enabled());
        // A force guard overrides the base state and nests.
        let f1 = force();
        let f2 = force();
        assert!(tracing_enabled());
        drop(f1);
        assert!(tracing_enabled());
        drop(f2);
        assert!(!tracing_enabled());
    }

    #[test]
    fn sampling_is_deterministic_and_proportional() {
        let _guard = serial();
        set_tracing(false);

        // Rate 1 always traces, rate 0 never does.
        set_sampling(1.0, DEFAULT_SAMPLE_SEED);
        assert!(sample(42).is_some());
        set_sampling(0.0, DEFAULT_SAMPLE_SEED);
        assert!(sample(42).is_none());

        // At rate r the sampled fraction of keys approaches r, and the
        // guard actually forces tracing while held.
        let n = 10_000u64;
        set_sampling(0.25, 7);
        let mut first: Vec<bool> = Vec::with_capacity(n as usize);
        let mut hits = 0u64;
        for key in 0..n {
            let guard = sample(key);
            if guard.is_some() {
                hits += 1;
                assert!(tracing_enabled(), "guard must force tracing");
            }
            first.push(guard.is_some());
        }
        assert!(!tracing_enabled(), "all guards dropped");
        let fraction = hits as f64 / n as f64;
        assert!(
            (fraction - 0.25).abs() < 0.02,
            "sampled fraction {fraction} far from rate 0.25"
        );

        // Same seed → identical subset; different seed → different one.
        let second: Vec<bool> = (0..n).map(|key| sample(key).is_some()).collect();
        assert_eq!(first, second, "same seed must sample the same roots");
        set_sampling(0.25, 8);
        let reseeded: Vec<bool> = (0..n).map(|key| sample(key).is_some()).collect();
        assert_ne!(first, reseeded, "a new seed must pick a new subset");

        set_sampling(1.0, DEFAULT_SAMPLE_SEED);
    }

    #[test]
    fn emit_complete_records_an_x_event() {
        let _guard = serial();
        let force = force();
        let root = span_at("test.root_x", now_ns());
        let root_id = root.id();
        emit_complete("test.queue_wait_x", root_id, 100, 350, &[("batch", 3)]);
        drop(root);
        let events = capture();
        drop(force);
        let x = events
            .iter()
            .find(|e| e.name == "test.queue_wait_x")
            .expect("complete event");
        assert_eq!(x.phase, Phase::Complete);
        assert_eq!(x.parent, root_id);
        assert_eq!((x.t_ns, x.dur_ns), (100, 250));
        assert_eq!(x.args, vec![("batch", 3)]);
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let _guard = serial();
        let before_drops = dropped();
        let ring = RingBuffer::new(9999, MIN_SLOTS);
        let payload = [7u64; PAYLOAD_WORDS];
        for _ in 0..(MIN_SLOTS + 10) {
            ring.push(&payload);
        }
        assert_eq!(dropped() - before_drops, 10, "overwrites are counted");
        assert!(
            dropped_counter().get() >= 10,
            "mirrored into probe.trace.dropped"
        );
        let mut out = Vec::new();
        ring.read_into(&[], &mut out);
        assert_eq!(out.len(), MIN_SLOTS, "ring keeps the newest window");
        let min_seq = out.iter().map(|e| e.seq).min().unwrap();
        assert_eq!(min_seq, 10, "the 10 oldest events were overwritten");
    }

    #[test]
    fn clear_hides_prior_events() {
        let _guard = serial();
        let force = force();
        let marker = {
            let span = crate::trace_span!("test.cleared_away");
            span.id()
        };
        clear();
        assert!(
            !capture().iter().any(|e| e.id == marker),
            "cleared events must not be captured"
        );
        let kept = {
            let span = crate::trace_span!("test.kept_after_clear");
            span.id()
        };
        assert!(capture().iter().any(|e| e.id == kept));
        drop(force);
    }

    #[test]
    fn chrome_export_is_valid_and_nested() {
        let _guard = serial();
        let force = force();
        clear();
        {
            let _outer = crate::trace_span!("test.chrome_outer");
            let _inner = crate::trace_span!("test.chrome_inner");
        }
        let events: Vec<TraceEvent> = capture()
            .into_iter()
            .filter(|e| e.name.starts_with("test.chrome_"))
            .collect();
        drop(force);
        assert_chrome_well_formed(&events);
        let json = chrome_trace_json(&events);
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.contains("\"ph\":\"B\""), "{json}");
        assert!(json.contains("\"ph\":\"E\""), "{json}");
        assert!(json.contains("\"name\":\"test.chrome_inner\""), "{json}");
        // Balanced braces/brackets — cheap structural validity check.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes, "{json}");
    }

    #[test]
    fn flame_summary_attributes_self_time() {
        let _guard = serial();
        let force = force();
        clear();
        {
            let _outer = crate::trace_span!("test.flame_outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            let inner = crate::trace_span!("test.flame_inner");
            std::thread::sleep(std::time::Duration::from_millis(2));
            drop(inner);
        }
        let events: Vec<TraceEvent> = capture()
            .into_iter()
            .filter(|e| e.name.starts_with("test.flame_"))
            .collect();
        drop(force);
        let summary = flame_summary(&events, 10);
        assert!(summary.contains("test.flame_outer"), "{summary}");
        assert!(summary.contains("test.flame_inner"), "{summary}");
        let spans = intervals(&events);
        let outer = spans
            .values()
            .find(|s| s.name == "test.flame_outer")
            .unwrap();
        let inner = spans
            .values()
            .find(|s| s.name == "test.flame_inner")
            .unwrap();
        let outer_total = outer.end_ns - outer.start_ns;
        let inner_total = inner.end_ns - inner.start_ns;
        assert!(
            outer_total > inner_total,
            "outer contains inner: {outer_total} vs {inner_total}"
        );
    }

    #[test]
    fn span_tree_reconstructs_request_shape() {
        let _guard = serial();
        let force = force();
        let root_id = {
            let root = span_at("test.tree_root", now_ns());
            let id = root.id();
            emit_complete("test.tree_parse", id, now_ns(), now_ns() + 10, &[]);
            {
                let mut child = crate::trace_span!("test.tree_exec");
                child.arg("capacity", 4096);
            }
            id
        };
        let events = capture();
        drop(force);
        let tree = span_tree(&events, root_id).expect("root present");
        assert_eq!(tree.name, "test.tree_root");
        let child_names: Vec<&str> = tree.children.iter().map(|c| c.name).collect();
        assert!(child_names.contains(&"test.tree_parse"), "{child_names:?}");
        assert!(child_names.contains(&"test.tree_exec"), "{child_names:?}");
        let exec = tree
            .children
            .iter()
            .find(|c| c.name == "test.tree_exec")
            .unwrap();
        assert_eq!(exec.args, vec![("capacity", 4096)]);
        // An id nobody emitted has no tree.
        assert!(span_tree(&events, u64::MAX).is_none());
    }

    #[test]
    fn cross_thread_adoption_parents_worker_spans() {
        let _guard = serial();
        let force = force();
        let root = span_at("test.adopt_root", now_ns());
        let root_id = root.id();
        #[expect(
            clippy::disallowed_methods,
            reason = "the test joins the worker on the next line to read its span id"
        )]
        let worker_span = std::thread::spawn(move || {
            let _adopt = adopt_parent(root_id);
            let span = crate::trace_span!("test.adopt_child");
            span.id()
        })
        .join()
        .unwrap();
        drop(root);
        let events = capture();
        drop(force);
        let begin = events
            .iter()
            .find(|e| e.id == worker_span && e.phase == Phase::Begin)
            .expect("worker begin");
        assert_eq!(begin.parent, root_id, "worker span parents to adopted root");
        let tree = span_tree(&events, root_id).unwrap();
        assert!(tree.children.iter().any(|c| c.name == "test.adopt_child"));
    }

    #[test]
    fn intern_is_stable() {
        let a = intern("test.intern_name");
        let b = intern("test.intern_name");
        assert_eq!(a, b);
        assert_ne!(a, intern("test.intern_other"));
    }

    #[test]
    fn ring_slots_is_a_power_of_two_in_bounds() {
        let slots = ring_slots();
        assert!(slots.is_power_of_two());
        assert!((MIN_SLOTS..=MAX_SLOTS).contains(&slots));
    }

    #[test]
    fn trace_ctx_round_trips_through_the_wire_form() {
        for ctx in [
            TraceCtx {
                trace_id: 0xdead_beef_cafe_0001,
                parent_span: 42,
                sampled: true,
            },
            TraceCtx {
                trace_id: 1,
                parent_span: u64::MAX,
                sampled: false,
            },
        ] {
            let wire = ctx.encode();
            assert_eq!(TraceCtx::parse(&wire), Some(ctx), "{wire}");
        }
        let wire = TraceCtx {
            trace_id: 0xabc,
            parent_span: 7,
            sampled: true,
        }
        .encode();
        assert_eq!(wire, "00-0000000000000abc-0000000000000007-01");
    }

    #[test]
    fn trace_ctx_rejects_malformed_input() {
        for bad in [
            "",
            "00-0000000000000abc-0000000000000007", // missing flags
            "01-0000000000000abc-0000000000000007-01", // wrong version
            "00-0000000000000abc-0000000000000007-02", // unknown flag
            "00-0000000000000abc-0000000000000007-01-00", // extra field
            "00-abc-0000000000000007-01",           // short trace id
            "00-0000000000000abc-00000000000000zz-01", // non-hex
        ] {
            assert_eq!(TraceCtx::parse(bad), None, "{bad}");
        }
    }

    #[test]
    fn trace_id_is_deterministic_and_nonzero() {
        let _guard = serial();
        let (rate, seed) = sampling();
        set_sampling(rate, DEFAULT_SAMPLE_SEED);
        let a = trace_id(7);
        assert_eq!(a, trace_id(7), "same key, same seed → same id");
        assert_ne!(a, trace_id(8));
        assert_ne!(a, 0);
        // Distinct from the sampling hash stream for the same key.
        assert_ne!(a, splitmix64(DEFAULT_SAMPLE_SEED ^ 7));
        set_sampling(rate, seed);
    }

    #[test]
    fn labeled_chrome_export_gives_each_source_its_own_pid() {
        let _guard = serial();
        let force = force();
        clear();
        {
            let _span = crate::trace_span!("test.labeled_export");
        }
        let events: Vec<TraceEvent> = capture()
            .into_iter()
            .filter(|e| e.name == "test.labeled_export")
            .collect();
        drop(force);
        let json = chrome_trace_json_labeled(&[(1, "router", &events), (2, "node-0", &events)]);
        assert!(json.contains("\"ph\":\"M\""), "{json}");
        assert!(json.contains("\"args\":{\"name\":\"router\"}"), "{json}");
        assert!(json.contains("\"args\":{\"name\":\"node-0\"}"), "{json}");
        assert!(json.contains("\"pid\":2"), "{json}");
        let opens = json.matches('{').count();
        assert_eq!(opens, json.matches('}').count(), "{json}");
        // The single-source path still pins everything to pid 1.
        let solo = chrome_trace_json(&events);
        assert!(!solo.contains("\"pid\":2"), "{solo}");
    }
}
