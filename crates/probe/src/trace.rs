//! Hierarchical trace capture: begin/end events with span IDs and
//! parent links, in per-thread bounded ring buffers or in one
//! request's own scope.
//!
//! Where the rest of `sram-probe` aggregates (counters, histograms),
//! this module records *structure*: which span ran inside which, on
//! which thread, for how long. The design constraints, in order:
//!
//! 1. **Lock-free hot path.** Emitting a ring event is a handful of
//!    relaxed atomic stores into a thread-owned ring buffer slot
//!    guarded by a per-slot sequence word (a seqlock). No mutex, no
//!    allocation, no syscall. Only the registration slow paths (first
//!    event on a thread, first use of a span name) take a lock. A
//!    scoped event appends to its request's buffer under that buffer's
//!    own lock, which only the request's threads share.
//! 2. **Fixed byte budget.** Each recording thread owns one ring of
//!    [`ring_slots`] fixed-size slots. When the ring wraps, the oldest
//!    event is overwritten and counted in `probe.trace.dropped` —
//!    capture keeps the most recent window.
//! 3. **Safe Rust.** The workspace forbids `unsafe`, so the seqlock is
//!    built from individually atomic `u64` words: a torn read cannot be
//!    undefined behavior, only a detectably inconsistent slot, which
//!    the reader discards.
//!
//! Tracing is **off by default** and independent of the metric
//! [`crate::Level`]. Two things turn recording on:
//!
//! * **Process-wide tracing** — the `SRAM_TRACE` environment variable
//!   (`1`) at startup or [`set_tracing`] at runtime: every thread's
//!   spans go to its ring (allocated on the thread's first ring write),
//!   read back with [`capture`].
//! * **A [`Scope`]** — one request's own event buffer (`sram-serve`'s
//!   per-request `"trace": true` flag). The thread that opens it, and
//!   any thread that [`adopt`]s its [`TraceContext`], records into it;
//!   every other thread records nothing, and no ring is touched unless
//!   process-wide tracing is also on.
//!
//! With neither, [`trace_span!`](crate::trace_span) is one relaxed
//! atomic load and a branch.
//!
//! Captured events export two ways: [`chrome_trace_json`] (loadable
//! in `chrome://tracing` or <https://ui.perfetto.dev>) and [`span_tree`]
//! (one request's subtree, which `sram-serve` inlines into responses).

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, Mutex, PoisonError};
use std::time::Instant;

use crate::hash::splitmix64;
use crate::json::escape_into;

/// Maximum `(key, value)` argument pairs one event can carry.
const MAX_ARGS: usize = 4;

/// Payload words per slot: meta, id, parent, t, dur, 2×arg-keys,
/// 4×arg-values.
const PAYLOAD_WORDS: usize = 11;

/// Slot size in words (payload plus the seqlock word).
const SLOT_WORDS: usize = PAYLOAD_WORDS + 1;

/// Ring capacity in slots per thread (× 96 bytes per slot): 768 KiB.
const SLOTS: usize = 8192;

// A power of two, so the wrap mask is a single AND.
const _: () = assert!(SLOTS.is_power_of_two());

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

/// Bit 0: process-wide tracing (`SRAM_TRACE` / [`set_tracing`]); bits
/// 1…: the count of live [`Scope`]s, shifted left by one. A single word
/// so the disabled fast path is one relaxed load.
static STATE: AtomicU32 = AtomicU32::new(STATE_UNINIT);

fn init_state() -> u32 {
    let base = match crate::env_var!("SRAM_TRACE").get() {
        Some(value) if value.trim() == "1" => 1,
        _ => 0,
    };
    // A concurrent set_tracing/Scope::begin may have initialized first;
    // it wins.
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

/// `true` when some thread may be recording — process-wide tracing is
/// on or a [`Scope`] is live. The fast path every
/// [`trace_span!`](crate::trace_span) checks first.
#[inline]
pub fn tracing_enabled() -> bool {
    state() != 0
}

/// Whether process-wide tracing (rings on every thread) is on.
fn ring_tracing() -> bool {
    state() & 1 == 1
}

/// Enables or disables process-wide tracing at runtime, superseding
/// `SRAM_TRACE`. Does not affect live [`Scope`]s.
pub fn set_tracing(on: bool) {
    let _ = state();
    let _ = STATE.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
        Some(if on { s | 1 } else { s & !1 })
    });
}

// ---------------------------------------------------------------------
// Per-root sampling
// ---------------------------------------------------------------------

/// Default seed for [`sampled`] when `SRAM_TRACE_SAMPLE_SEED` is unset
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
    let rate = crate::env_var!("SRAM_TRACE_SAMPLE")
        .get()
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map_or(1.0, |r| {
            if r.is_finite() {
                r.clamp(0.0, 1.0)
            } else {
                1.0
            }
        });
    let seed = crate::env_var!("SRAM_TRACE_SAMPLE_SEED")
        .get()
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

/// The per-root sampling decision for a root (a request, a search, any
/// unit with a stable `key`): `true` for a deterministic, seeded
/// fraction `rate` of keys. At rate 1 every root traces; at rate 0
/// none do; in between a loaded node keeps tracing a representative
/// sample, and the sampled subset is identical across runs with the
/// same seed.
#[must_use]
pub fn sampled(key: u64) -> bool {
    let rate = sample_rate();
    if rate >= 1.0 {
        return true;
    }
    if rate <= 0.0 {
        return false;
    }
    let hash = splitmix64(SAMPLE_SEED.load(Ordering::Relaxed) ^ key);
    // Top 53 bits as a uniform fraction in [0, 1).
    let fraction = (hash >> 11) as f64 / (1u64 << 53) as f64;
    fraction < rate
}

// ---------------------------------------------------------------------
// Cross-process trace context
// ---------------------------------------------------------------------

/// Domain separator mixed into [`trace_id`] so trace ids never collide
/// with the [`sampled`] hash stream for the same key.
const TRACE_ID_SALT: u64 = 0x7_1D5A_17ED_5EED;

/// A deterministic trace id for a root `key`: the same splitmix64
/// stream construction as [`sampled`], salted so the id stream and the
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
/// samples (via [`sampled`]), and a `00` flag tells the receiver to
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
/// Span names go through [`probe_handle!`](crate::probe_handle)`(trace
/// "…")` or [`trace_span!`](crate::trace_span), which check the name
/// against the [`catalogue`](crate::catalogue) and cache the id per
/// call site; a direct call is a disallowed method.
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

/// Ring capacity in slots per thread (8192).
#[must_use]
pub const fn ring_slots() -> usize {
    SLOTS
}

/// One thread's event ring. The owning thread is the only writer; any
/// thread may read during [`capture`]. Each slot is a seqlock: the
/// sequence word holds `2 × event_index + 1` while the write is in
/// flight and `2 × event_index + 2` once complete, so a reader can both
/// detect torn or overwritten slots and recover the per-thread emission
/// order.
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

    /// Writer-side push; owner thread only. Overwriting an event that no
    /// [`clear`] has released counts as a drop.
    fn push(&self, payload: &[u64; PAYLOAD_WORDS]) {
        let head = self.head.load(Ordering::Relaxed);
        let base = (head as usize & (self.capacity - 1)) * SLOT_WORDS;
        self.slots[base].store(head * 2 + 1, Ordering::Release);
        for (offset, &word) in payload.iter().enumerate() {
            self.slots[base + 1 + offset].store(word, Ordering::Release);
        }
        self.slots[base].store(head * 2 + 2, Ordering::Release);
        self.head.store(head + 1, Ordering::Release);
        let overwritten = head.checked_sub(self.capacity as u64);
        if overwritten.is_some_and(|index| index >= self.floor.load(Ordering::Relaxed)) {
            note_dropped();
        }
    }

    /// Reader-side decode of the live window `[max(floor, head −
    /// capacity), head)`. A slot whose sequence word no longer names the
    /// expected event was overwritten (or is being) and is skipped.
    fn read_into(&self, names: &[&'static str], out: &mut Vec<TraceEvent>) {
        let head = self.head.load(Ordering::Acquire);
        let floor = self.floor.load(Ordering::Acquire);
        let mut payload = [0u64; PAYLOAD_WORDS];
        for index in floor.max(head.saturating_sub(self.capacity as u64))..head {
            let base = (index as usize & (self.capacity - 1)) * SLOT_WORDS;
            let sealed = index * 2 + 2;
            if self.slots[base].load(Ordering::Acquire) != sealed {
                continue;
            }
            for (offset, word) in payload.iter_mut().enumerate() {
                *word = self.slots[base + 1 + offset].load(Ordering::Acquire);
            }
            if self.slots[base].load(Ordering::Acquire) == sealed {
                out.push(decode(self.tid, index, &payload, names));
            }
        }
    }
}

/// Every ring ever allocated; [`capture`] and [`clear`] walk them.
static BUFFERS: LazyLock<Mutex<Vec<Arc<RingBuffer>>>> = LazyLock::new(|| Mutex::new(Vec::new()));

/// A thread's trace identity: the `tid` its events carry, the count of
/// events it has put in scopes (their `seq`), and its ring once one was
/// allocated. Parked in [`FREE_SLOTS`] when its thread exits and taken
/// by the next new thread, so a server accepting many short-lived
/// connections does not grow the ring set without bound.
#[derive(Default)]
struct ThreadSlot {
    tid: u32,
    scope_seq: u64,
    ring: Option<Arc<RingBuffer>>,
}

static FREE_SLOTS: Mutex<Vec<ThreadSlot>> = Mutex::new(Vec::new());
static NEXT_TID: AtomicU32 = AtomicU32::new(0);

static DROPPED: AtomicU64 = AtomicU64::new(0);

fn note_dropped() {
    DROPPED.fetch_add(1, Ordering::Relaxed);
    // Mirrored into the metric registry (bypassing the level gate —
    // a drop must be visible whenever it happens).
    crate::probe_handle!(counter "probe.trace.dropped").inc();
}

/// Events overwritten before any capture or [`clear`] released them,
/// process lifetime total (also exported as the `probe.trace.dropped`
/// counter).
#[must_use]
pub fn dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// One scope's encoded events, in arrival order.
#[derive(Debug, Default)]
struct ScopeBuf {
    events: Mutex<Vec<RawEvent>>,
}

/// An encoded event and the thread that emitted it.
#[derive(Debug, Clone, Copy)]
struct RawEvent {
    tid: u32,
    seq: u64,
    payload: [u64; PAYLOAD_WORDS],
}

/// An opened scope or adopted context on one thread's frame stack.
struct Frame {
    /// Matches the frame to its [`AdoptGuard`].
    id: u64,
    /// Where events go; `None` for a context adopted from a thread that
    /// was in no scope.
    scope: Option<Arc<ScopeBuf>>,
    /// Parent for spans opened while the thread's own stack is empty.
    parent: u64,
}

/// Frame ids are process-global and never reused; 0 means "no frame".
static NEXT_FRAME: AtomicU64 = AtomicU64::new(1);

/// A recording span open on this thread and where its begin event went,
/// so its end event follows.
struct OpenSpan {
    id: u64,
    scope: Option<Arc<ScopeBuf>>,
    ring: bool,
}

struct LocalTrace {
    slot: ThreadSlot,
    /// Open spans on this thread, innermost last.
    stack: Vec<OpenSpan>,
    /// Opened scopes and adopted contexts, innermost last.
    frames: Vec<Frame>,
}

impl LocalTrace {
    fn new() -> Self {
        let parked = FREE_SLOTS
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop();
        let slot = parked.unwrap_or_else(|| ThreadSlot {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            ..ThreadSlot::default()
        });
        Self {
            slot,
            stack: Vec::new(),
            frames: Vec::new(),
        }
    }

    /// The scope this thread's events go to: its innermost frame's.
    fn scope(&self) -> Option<Arc<ScopeBuf>> {
        self.frames.last().and_then(|frame| frame.scope.clone())
    }

    /// The parent of a span opened now: the innermost open span, else
    /// the innermost frame's parent.
    fn parent(&self) -> u64 {
        self.stack
            .last()
            .map(|open| open.id)
            .or_else(|| self.frames.last().map(|frame| frame.parent))
            .unwrap_or(0)
    }

    /// Writes one event to `scope` and, when `ring`, to this thread's
    /// ring, allocating the ring on its first write.
    fn emit(&mut self, scope: Option<&ScopeBuf>, ring: bool, payload: &[u64; PAYLOAD_WORDS]) {
        if ring {
            let tid = self.slot.tid;
            let ring = self.slot.ring.get_or_insert_with(|| {
                let ring = Arc::new(RingBuffer::new(tid, ring_slots()));
                BUFFERS
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(Arc::clone(&ring));
                ring
            });
            ring.push(payload);
        }
        if let Some(scope) = scope {
            let event = RawEvent {
                tid: self.slot.tid,
                seq: self.slot.scope_seq,
                payload: *payload,
            };
            self.slot.scope_seq += 1;
            scope
                .events
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(event);
        }
    }
}

impl Drop for LocalTrace {
    fn drop(&mut self) {
        // Park the identity for the next new thread; the ring's events
        // stay readable until that thread overwrites them.
        FREE_SLOTS
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(std::mem::take(&mut self.slot));
    }
}

thread_local! {
    static LOCAL: RefCell<Option<LocalTrace>> = const { RefCell::new(None) };
}

/// Runs `f` on this thread's trace state. A thread without one gets it
/// only when `create`, so a thread that records nothing never takes a
/// tid.
fn with_local<R>(create: bool, f: impl FnOnce(&mut LocalTrace) -> R) -> Option<R> {
    LOCAL
        .try_with(|cell| {
            let mut local = cell.borrow_mut();
            if local.is_none() && !create {
                return None;
            }
            Some(f(local.get_or_insert_with(LocalTrace::new)))
        })
        .ok()
        .flatten()
}

fn encode(
    phase: Phase,
    name_id: u32,
    id: u64,
    parent: u64,
    t_ns: u64,
    dur_ns: u64,
    args: &[(u32, i64)],
) -> [u64; PAYLOAD_WORDS] {
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
    payload
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
/// (carrying any [`args`](TraceSpan::arg)) on drop, to the scope and
/// ring the span started in. Created by the
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
    /// when this thread records nothing.
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
        let ring = ring_tracing();
        with_local(ring, |local| {
            let scope = local.scope();
            if scope.is_none() && !ring {
                return None;
            }
            let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
            let begin = encode(Phase::Begin, name_id, id, local.parent(), t_ns, 0, &[]);
            local.emit(scope.as_deref(), ring, &begin);
            local.stack.push(OpenSpan { id, scope, ring });
            Some(Self {
                id,
                name_id,
                args: [(0, 0); MAX_ARGS],
                argc: 0,
                live: true,
            })
        })
        .flatten()
        .unwrap_or_else(Self::disabled)
    }

    /// This span's id (0 when disabled) — the parent handle a
    /// [`Scope::context`] carries to other threads.
    #[must_use]
    pub fn id(&self) -> u64 {
        if self.live {
            self.id
        } else {
            0
        }
    }

    /// Attaches a `(key, value)` argument, recorded on the end event.
    /// At most `MAX_ARGS` stick; later ones are silently ignored.
    pub fn arg(&mut self, key: &'static str, value: i64) {
        if self.live && usize::from(self.argc) < MAX_ARGS {
            // Argument keys are not probe names: no catalogue row.
            #[allow(clippy::disallowed_methods)]
            let key = intern(key);
            self.args[usize::from(self.argc)] = (key, value);
            self.argc += 1;
        }
    }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        let id = self.id;
        let args = &self.args[..usize::from(self.argc)];
        let end = encode(Phase::End, self.name_id, id, 0, now_ns(), 0, args);
        let _ = with_local(false, |local| {
            // Spans normally end innermost-first; tolerate out-of-order
            // drops rather than corrupting the stack.
            let at = local.stack.iter().rposition(|open| open.id == id)?;
            let open = local.stack.remove(at);
            local.emit(open.scope.as_deref(), open.ring, &end);
            Some(())
        });
    }
}

/// What a thread working for another thread's request adopts: the
/// request's scope plus the span its work nests under. Cheap to clone,
/// so it travels with a queued job or into a worker closure.
#[derive(Debug, Clone, Default)]
pub struct TraceContext {
    scope: Option<Arc<ScopeBuf>>,
    parent: u64,
}

impl TraceContext {
    /// This thread's context: the scope its spans record into and the
    /// span a new one would parent to — what a thread hands the workers
    /// it fans out to. Empty when this thread records nothing.
    #[must_use]
    pub fn current() -> Self {
        if !tracing_enabled() {
            return Self::default();
        }
        with_local(false, |local| Self {
            scope: local.scope(),
            parent: local.parent(),
        })
        .unwrap_or_default()
    }

    /// Emits one complete (`"X"`) event for an interval measured
    /// elsewhere, parented to this context's span, into its scope (and
    /// this thread's ring under process-wide tracing). Used for
    /// intervals that cannot be RAII spans — e.g. a queue wait whose
    /// start was stamped by the enqueuing thread — and rendered on a
    /// side lane so an overlap with the emitting thread's own spans
    /// cannot break begin/end nesting. `name` is a span-name id from
    /// [`probe_handle!`](crate::probe_handle)`(trace "…")`.
    pub fn emit_complete(
        &self,
        name: u32,
        start_ns: u64,
        end_ns: u64,
        args: &[(&'static str, i64)],
    ) {
        let ring = ring_tracing();
        if self.scope.is_none() && !ring {
            return;
        }
        let mut encoded = [(0u32, 0i64); MAX_ARGS];
        let argc = args.len().min(MAX_ARGS);
        for (slot, &(key, value)) in encoded.iter_mut().zip(args.iter().take(argc)) {
            // Argument keys are not probe names: no catalogue row.
            #[allow(clippy::disallowed_methods)]
            let key = intern(key);
            *slot = (key, value);
        }
        let complete = encode(
            Phase::Complete,
            name,
            NEXT_SPAN.fetch_add(1, Ordering::Relaxed),
            self.parent,
            start_ns,
            end_ns.saturating_sub(start_ns),
            &encoded[..argc],
        );
        let _ = with_local(true, |local| {
            local.emit(self.scope.as_deref(), ring, &complete);
        });
    }
}

/// Keeps an adopted context (or an opened scope) on this thread's frame
/// stack while alive.
#[derive(Debug)]
#[must_use = "the adopted context applies only while the guard is alive"]
pub struct AdoptGuard {
    /// 0 when nothing was adopted.
    frame: u64,
}

impl AdoptGuard {
    fn push(scope: Option<Arc<ScopeBuf>>, parent: u64) -> Self {
        let id = NEXT_FRAME.fetch_add(1, Ordering::Relaxed);
        let pushed = with_local(true, |local| local.frames.push(Frame { id, scope, parent }));
        Self {
            frame: if pushed.is_some() { id } else { 0 },
        }
    }
}

/// Makes `ctx` this thread's innermost frame while the guard lives:
/// spans opened here record into its scope and, when this thread's own
/// span stack is empty, parent to its span. This is how a worker thread
/// nests its work under a request that lives on another thread.
pub fn adopt(ctx: &TraceContext) -> AdoptGuard {
    if ctx.scope.is_none() && ctx.parent == 0 {
        return AdoptGuard { frame: 0 };
    }
    AdoptGuard::push(ctx.scope.clone(), ctx.parent)
}

impl Drop for AdoptGuard {
    fn drop(&mut self) {
        if self.frame == 0 {
            return;
        }
        let id = self.frame;
        let _ = with_local(false, |local| {
            if local.frames.last().is_some_and(|frame| frame.id == id) {
                local.frames.pop();
            } else {
                local.frames.retain(|frame| frame.id != id);
            }
        });
    }
}

/// One traced request's own event buffer. The thread that starts the
/// request opens it (and finishes it: the type is not `Send`); threads
/// working for the request join it by [`adopt`]ing a
/// [`context`](Scope::context). While any scope is live,
/// [`trace_span!`](crate::trace_span) leaves its one-load fast path, but
/// a thread in no scope still records nothing unless process-wide
/// tracing is on.
#[derive(Debug)]
#[must_use = "a scope records only while alive; read it back with `finish`"]
pub struct Scope {
    buf: Arc<ScopeBuf>,
    _frame: AdoptGuard,
    /// The frame lives on the opening thread's stack.
    _same_thread: PhantomData<*const ()>,
}

impl Scope {
    /// Opens a scope on this thread. Spans opened in it keep the
    /// parents they would have had without it.
    pub fn begin() -> Self {
        let _ = state();
        STATE.fetch_add(2, Ordering::Relaxed);
        let buf = Arc::new(ScopeBuf::default());
        let parent = with_local(false, |local| local.frames.last().map_or(0, |f| f.parent));
        Self {
            _frame: AdoptGuard::push(Some(Arc::clone(&buf)), parent.unwrap_or(0)),
            buf,
            _same_thread: PhantomData,
        }
    }

    /// The context another thread adopts to record into this scope,
    /// nesting under span `parent`.
    #[must_use]
    pub fn context(&self, parent: u64) -> TraceContext {
        TraceContext {
            scope: Some(Arc::clone(&self.buf)),
            parent,
        }
    }

    /// Closes the scope and returns its events, ordered as [`capture`]
    /// orders its own. If this thread is still inside an enclosing
    /// scope, the events are handed to that scope too.
    #[must_use]
    pub fn finish(self) -> Vec<TraceEvent> {
        let buf = Arc::clone(&self.buf);
        drop(self);
        let raw = std::mem::take(&mut *buf.events.lock().unwrap_or_else(PoisonError::into_inner));
        if let Some(outer) = with_local(false, |local| local.scope()).flatten() {
            outer
                .events
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .extend_from_slice(&raw);
        }
        let names = name_snapshot();
        let mut events: Vec<TraceEvent> = raw
            .iter()
            .map(|event| decode(event.tid, event.seq, &event.payload, &names))
            .collect();
        events.sort_by_key(|e| (e.t_ns, e.tid, e.seq));
        events
    }
}

impl Drop for Scope {
    fn drop(&mut self) {
        STATE.fetch_sub(2, Ordering::Relaxed);
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

/// Copies every uncleared event out of every thread's ring (rings
/// exist only on threads that recorded under process-wide tracing),
/// ordered by timestamp (per-thread emission order breaks ties). The
/// most recent `ring_slots()` events per thread survive; older ones
/// were overwritten and counted in [`dropped`].
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
/// Every event renders under `pid` 1, which a `process_name` metadata
/// (`M`) event labels `sram`.
#[must_use]
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut out = String::from(
        "{\"traceEvents\":[{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"sram\"}}",
    );
    for event in events {
        let (ph, tid) = match event.phase {
            Phase::Begin => ("B", event.tid),
            Phase::End => ("E", event.tid),
            Phase::Complete => ("X", event.tid + COMPLETE_LANE_OFFSET),
        };
        out.push_str(",{\"name\":\"");
        escape_into(&mut out, event.name);
        let _ = write!(
            out,
            "\",\"cat\":\"sram\",\"ph\":\"{ph}\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3}",
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
            out.push_str(if wrote_args { ",\"" } else { ",\"args\":{\"" });
            wrote_args = true;
            escape_into(&mut out, key);
            let _ = write!(out, "\":{value}");
        }
        if wrote_args {
            out.push('}');
        }
        out.push('}');
    }
    out.push_str("]}");
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
/// or [`Scope::finish`]ed events — how a traced `sram-serve` request
/// gets its own trace inlined into the response. Returns `None` when
/// the root's begin event is missing.
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
// These tests trace names of their own, so they intern directly rather
// than through the catalogue-checked macros.
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    /// Trace tests share the global enable state and rings; serialize
    /// them (other modules' tests never touch tracing).
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// What `trace_span!` expands to, minus the catalogue check.
    fn span(name: &'static str) -> TraceSpan {
        if tracing_enabled() {
            TraceSpan::begin(intern(name))
        } else {
            TraceSpan::disabled()
        }
    }

    /// Runs `f` on a fresh thread and returns its result.
    fn on_fresh_thread<R: Send>(f: impl FnOnce() -> R + Send) -> R {
        #[expect(
            clippy::expect_used,
            reason = "a panicking test thread fails the test at the join"
        )]
        std::thread::scope(|scope| scope.spawn(f).join().expect("test thread panicked"))
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
        assert!(!TraceSpan::disabled().live);
        assert_eq!(TraceSpan::disabled().id(), 0);
        let mut span = TraceSpan::disabled();
        span.arg("ignored", 1);
        drop(span); // must not emit or touch the ring
    }

    #[test]
    fn spans_nest_and_capture_decodes() {
        let _guard = serial();
        set_tracing(true);
        let (outer_id, inner_id) = {
            let outer = span("test.outer_a");
            let inner = {
                let mut inner = span("test.inner_a");
                inner.arg("examined", 42);
                inner.arg("feasible", 7);
                inner.id()
            };
            (outer.id(), inner)
        };
        let events = capture();
        set_tracing(false);

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
    fn trace_span_macro_is_disabled_when_nothing_records() {
        let _guard = serial();
        // Base state may have been initialized from the env by another
        // test; pin it off explicitly.
        set_tracing(false);
        let span = span("test.should_not_record");
        assert!(!span.live);
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
        let span = span("test.enabled_by_set");
        assert!(span.live);
        drop(span);
        set_tracing(false);
        assert!(!tracing_enabled());
        // Live scopes hold the fast path open and nest.
        let outer = Scope::begin();
        let inner = Scope::begin();
        assert!(tracing_enabled());
        drop(inner);
        assert!(tracing_enabled());
        drop(outer);
        assert!(!tracing_enabled());
    }

    #[test]
    fn sampling_is_deterministic_and_proportional() {
        let _guard = serial();

        // Rate 1 always traces, rate 0 never does.
        set_sampling(1.0, DEFAULT_SAMPLE_SEED);
        assert!(sampled(42));
        set_sampling(0.0, DEFAULT_SAMPLE_SEED);
        assert!(!sampled(42));

        // At rate r the sampled fraction of keys approaches r.
        let n = 10_000u64;
        set_sampling(0.25, 7);
        let first: Vec<bool> = (0..n).map(sampled).collect();
        let hits = first.iter().filter(|&&hit| hit).count();
        let fraction = hits as f64 / n as f64;
        assert!(
            (fraction - 0.25).abs() < 0.02,
            "sampled fraction {fraction} far from rate 0.25"
        );
        assert!(!tracing_enabled(), "a sampling decision records nothing");

        // Same seed → identical subset; different seed → different one.
        let second: Vec<bool> = (0..n).map(sampled).collect();
        assert_eq!(first, second, "same seed must sample the same roots");
        set_sampling(0.25, 8);
        let reseeded: Vec<bool> = (0..n).map(sampled).collect();
        assert_ne!(first, reseeded, "a new seed must pick a new subset");

        set_sampling(1.0, DEFAULT_SAMPLE_SEED);
    }

    #[test]
    fn emit_complete_records_an_x_event() {
        let _guard = serial();
        let scope = Scope::begin();
        let root = TraceSpan::begin_at(intern("test.root_x"), now_ns());
        let root_id = root.id();
        scope.context(root_id).emit_complete(
            intern("test.queue_wait_x"),
            100,
            350,
            &[("batch", 3)],
        );
        drop(root);
        let events = scope.finish();
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
        const SMALL: usize = 256;
        let ring = RingBuffer::new(9999, SMALL);
        let payload = [7u64; PAYLOAD_WORDS];
        for _ in 0..(SMALL + 10) {
            ring.push(&payload);
        }
        assert_eq!(dropped() - before_drops, 10, "overwrites are counted");
        assert!(
            crate::probe_handle!(counter "probe.trace.dropped").get() >= 10,
            "mirrored into probe.trace.dropped"
        );
        let mut out = Vec::new();
        ring.read_into(&[], &mut out);
        assert_eq!(out.len(), SMALL, "ring keeps the newest window");
        let min_seq = out.iter().map(|e| e.seq).min().unwrap();
        assert_eq!(min_seq, 10, "the 10 oldest events were overwritten");
    }

    /// Emits `n` complete events named `name` into this thread's ring
    /// (process-wide tracing must be on).
    fn write_ring(name: &'static str, n: usize) {
        let ctx = TraceContext::default();
        for i in 0..n as u64 {
            ctx.emit_complete(intern(name), i, i + 1, &[]);
        }
    }

    #[test]
    fn overwriting_cleared_events_is_not_a_drop() {
        let _guard = serial();
        set_tracing(true);
        let (after_refill, after_one_more) = on_fresh_thread(|| {
            write_ring("test.drop_first", ring_slots());
            clear();
            let before = dropped();
            write_ring("test.drop_second", ring_slots());
            let after_refill = dropped() - before;
            write_ring("test.drop_third", 1);
            (after_refill, dropped() - before)
        });
        set_tracing(false);
        assert_eq!(after_refill, 0, "every overwritten event was cleared");
        assert_eq!(after_one_more, 1, "the next write overwrites a live event");
    }

    #[test]
    fn capture_after_clear_returns_exactly_the_new_events() {
        let _guard = serial();
        set_tracing(true);
        let events = on_fresh_thread(|| {
            write_ring("test.window_old", 100);
            clear();
            write_ring("test.window_new", 5);
            capture()
        });
        set_tracing(false);
        let tid = events
            .iter()
            .find(|e| e.name == "test.window_new")
            .expect("new events captured")
            .tid;
        let mine: Vec<(&str, u64)> = events
            .iter()
            .filter(|e| e.tid == tid)
            .map(|e| (e.name, e.t_ns))
            .collect();
        let expected: Vec<(&str, u64)> = (0..5).map(|t| ("test.window_new", t)).collect();
        assert_eq!(mine, expected);
    }

    #[test]
    fn clear_hides_prior_events() {
        let _guard = serial();
        set_tracing(true);
        let marker = {
            let span = span("test.cleared_away");
            span.id()
        };
        clear();
        assert!(
            !capture().iter().any(|e| e.id == marker),
            "cleared events must not be captured"
        );
        let kept = {
            let span = span("test.kept_after_clear");
            span.id()
        };
        assert!(capture().iter().any(|e| e.id == kept));
        set_tracing(false);
    }

    #[test]
    fn a_scope_records_only_its_own_threads() {
        let _guard = serial();
        set_tracing(false);
        clear();
        let rings_before = BUFFERS.lock().unwrap().len();
        let scope = Scope::begin();
        let a = span("test.iso_a");
        assert!(a.live);
        let b_recorded = on_fresh_thread(|| {
            let b = span("test.iso_b");
            b.live
        });
        drop(a);
        let events = scope.finish();
        assert!(!b_recorded, "a thread outside the scope records nothing");
        assert_eq!(events.len(), 2, "{events:?}");
        assert!(events.iter().all(|e| e.name == "test.iso_a"), "{events:?}");
        assert!(!capture().iter().any(|e| e.name == "test.iso_b"));
        assert_eq!(
            BUFFERS.lock().unwrap().len(),
            rings_before,
            "scoped recording allocates no ring"
        );
    }

    #[test]
    fn a_finished_inner_scope_hands_its_events_outward() {
        let _guard = serial();
        let outer = Scope::begin();
        let inner = Scope::begin();
        let id = {
            let span = span("test.nested_scope");
            span.id()
        };
        let inner_events = inner.finish();
        let outer_events = outer.finish();
        assert_eq!(inner_events.len(), 2);
        assert_eq!(outer_events, inner_events);
        assert!(outer_events.iter().all(|e| e.id == id));
    }

    #[test]
    fn a_scope_under_process_wide_tracing_also_writes_the_ring() {
        let _guard = serial();
        set_tracing(true);
        clear();
        let scope = Scope::begin();
        let id = {
            let span = span("test.both");
            span.id()
        };
        let scoped = scope.finish();
        let ringed = capture();
        set_tracing(false);
        assert_eq!(scoped.len(), 2);
        assert_eq!(ringed.iter().filter(|e| e.id == id).count(), 2);
    }

    #[test]
    fn chrome_export_is_valid_and_nested() {
        let _guard = serial();
        let scope = Scope::begin();
        {
            let _outer = span("test.chrome_outer");
            let _inner = span("test.chrome_inner");
        }
        let events = scope.finish();
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
    fn chrome_export_of_a_fixed_event_list_keeps_its_bytes() {
        let event = |name, phase, id, parent, tid, t_ns, dur_ns, args| TraceEvent {
            name,
            phase,
            id,
            parent,
            tid,
            seq: 0,
            t_ns,
            dur_ns,
            args,
        };
        let events = [
            event("serve.request", Phase::Begin, 7, 0, 3, 1_000, 0, vec![]),
            event("a \"b\"\\c", Phase::Begin, 8, 7, 3, 1_500, 0, vec![]),
            event("a \"b\"\\c", Phase::End, 8, 0, 3, 2_250, 0, vec![("n", -4)]),
            event(
                "serve.queue_wait",
                Phase::Complete,
                9,
                7,
                3,
                1_100,
                333,
                vec![("batch", 2), ("depth", 5)],
            ),
            event("untracked", Phase::Complete, 0, 0, 0, 12, 1, vec![]),
            event("serve.request", Phase::End, 7, 0, 3, 3_000_001, 0, vec![]),
        ];
        let expected = concat!(
            r#"{"traceEvents":[{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"sram"}},"#,
            r#"{"name":"serve.request","cat":"sram","ph":"B","pid":1,"tid":3,"ts":1.000,"args":{"span":7}},"#,
            r#"{"name":"a \"b\"\\c","cat":"sram","ph":"B","pid":1,"tid":3,"ts":1.500,"args":{"span":8,"parent":7}},"#,
            r#"{"name":"a \"b\"\\c","cat":"sram","ph":"E","pid":1,"tid":3,"ts":2.250,"args":{"span":8,"n":-4}},"#,
            r#"{"name":"serve.queue_wait","cat":"sram","ph":"X","pid":1,"tid":1003,"ts":1.100,"dur":0.333,"#,
            r#""args":{"span":9,"parent":7,"batch":2,"depth":5}},"#,
            r#"{"name":"untracked","cat":"sram","ph":"X","pid":1,"tid":1000,"ts":0.012,"dur":0.001},"#,
            r#"{"name":"serve.request","cat":"sram","ph":"E","pid":1,"tid":3,"ts":3000.001,"args":{"span":7}}]}"#,
        );
        assert_eq!(chrome_trace_json(&events), expected);
    }

    #[test]
    fn span_tree_reconstructs_request_shape() {
        let _guard = serial();
        let scope = Scope::begin();
        let root_id = {
            let root = TraceSpan::begin_at(intern("test.tree_root"), now_ns());
            let id = root.id();
            scope.context(id).emit_complete(
                intern("test.tree_parse"),
                now_ns(),
                now_ns() + 10,
                &[],
            );
            {
                let mut child = span("test.tree_exec");
                child.arg("capacity", 4096);
            }
            id
        };
        let events = scope.finish();
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
        // A child's interval lies inside its parent's.
        assert!(exec.start_ns >= tree.start_ns, "{tree:?}");
        assert!(
            exec.start_ns + exec.dur_ns <= tree.start_ns + tree.dur_ns,
            "{tree:?}"
        );
        // An id nobody emitted has no tree.
        assert!(span_tree(&events, u64::MAX).is_none());
    }

    #[test]
    fn cross_thread_adoption_parents_worker_spans() {
        let _guard = serial();
        let scope = Scope::begin();
        let root = TraceSpan::begin_at(intern("test.adopt_root"), now_ns());
        let root_id = root.id();
        let ctx = scope.context(root_id);
        let worker_span = on_fresh_thread(|| {
            let _adopt = adopt(&ctx);
            assert_eq!(TraceContext::current().parent, root_id);
            let span = span("test.adopt_child");
            span.id()
        });
        drop(root);
        let events = scope.finish();
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
}
