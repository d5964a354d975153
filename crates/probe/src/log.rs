//! Structured JSON-lines event logging.
//!
//! Off by default. `SRAM_LOG=path` opens the sink at first use;
//! `SRAM_LOG_LEVEL=debug|info|warn|error` sets the floor (default
//! `info`). One event is one line of JSON:
//!
//! ```text
//! {"ts_ms":1754610000123,"level":"warn","event":"serve.slow_query","latency_ms":812,...}
//! ```
//!
//! The writer is a mutex-guarded `BufWriter` flushed per event —
//! events are for rare, operator-relevant moments (slow queries,
//! degraded health, lifecycle), not per-request chatter; counters and
//! the telemetry ring carry the high-frequency story. When no sink is
//! configured [`enabled`] is one relaxed atomic load, so call sites
//! can guard field construction cheaply.
//!
//! Write successes and failures are counted in `log.events.written` /
//! `log.events.dropped` through the registry but bypassing the probe
//! level gate (the `probe.trace.dropped` pattern): a misconfigured log
//! path must be diagnosable with probes off.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Mutex, Once, PoisonError};
use std::time::SystemTime;

use crate::json::escape_into;

/// Event severity, ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// Diagnostic detail.
    Debug = 0,
    /// Normal operational events.
    Info = 1,
    /// Unexpected but handled conditions.
    Warn = 2,
    /// Failures.
    Error = 3,
}

impl LogLevel {
    /// The wire name (`"debug"`, `"info"`, `"warn"`, `"error"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            LogLevel::Debug => "debug",
            LogLevel::Info => "info",
            LogLevel::Warn => "warn",
            LogLevel::Error => "error",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "debug" | "0" => Some(LogLevel::Debug),
            "info" | "1" => Some(LogLevel::Info),
            "warn" | "warning" | "2" => Some(LogLevel::Warn),
            "error" | "3" => Some(LogLevel::Error),
            _ => None,
        }
    }

    fn from_u8(v: u8) -> Self {
        match v {
            0 => LogLevel::Debug,
            1 => LogLevel::Info,
            2 => LogLevel::Warn,
            _ => LogLevel::Error,
        }
    }
}

/// One typed field value. `Raw` embeds pre-rendered JSON verbatim
/// (used for span trees that already exist as JSON text).
#[derive(Debug, Clone)]
pub enum LogValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (non-finite renders as `null`).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String (escaped).
    Str(String),
    /// Pre-rendered JSON, embedded verbatim. The caller is
    /// responsible for it being valid JSON.
    Raw(String),
}

struct Sink {
    writer: std::io::BufWriter<std::fs::File>,
}

static SINK: Mutex<Option<Sink>> = Mutex::new(None);
static ACTIVE: AtomicBool = AtomicBool::new(false);
static MIN_LEVEL: AtomicU8 = AtomicU8::new(LogLevel::Info as u8);
static INIT: Once = Once::new();

/// Reads `SRAM_LOG` / `SRAM_LOG_LEVEL` once. Called lazily by
/// [`enabled`] and [`log_event`]; call it directly to force the env
/// read at a known point.
pub fn init_from_env() {
    INIT.call_once(|| {
        if let Some(level) = crate::env_var!("SRAM_LOG_LEVEL").get() {
            if let Some(level) = LogLevel::parse(&level) {
                MIN_LEVEL.store(level as u8, Ordering::Relaxed);
            }
        }
        if let Some(path) = crate::env_var!("SRAM_LOG").get() {
            let path = path.trim();
            if !path.is_empty() {
                let _ = open(Path::new(path));
            }
        }
    });
}

fn open(path: &Path) -> std::io::Result<()> {
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let mut sink = SINK.lock().unwrap_or_else(PoisonError::into_inner);
    *sink = Some(Sink {
        writer: std::io::BufWriter::new(file),
    });
    ACTIVE.store(true, Ordering::Relaxed);
    Ok(())
}

/// The current minimum level.
#[must_use]
fn min_level() -> LogLevel {
    LogLevel::from_u8(MIN_LEVEL.load(Ordering::Relaxed))
}

/// `true` when an event at `level` would be written — one atomic load
/// on the fast (unconfigured) path.
#[must_use]
pub fn enabled(level: LogLevel) -> bool {
    init_from_env();
    ACTIVE.load(Ordering::Relaxed) && level >= min_level()
}

fn render_line(level: LogLevel, event: &str, fields: &[(&str, LogValue)]) -> String {
    let ts_ms = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64);
    let mut line = String::with_capacity(96);
    let _ = write!(line, "{{\"ts_ms\":{ts_ms},\"level\":\"{}\",", level.name());
    line.push_str("\"event\":\"");
    escape_into(&mut line, event);
    line.push('"');
    for (key, value) in fields {
        line.push_str(",\"");
        escape_into(&mut line, key);
        line.push_str("\":");
        match value {
            LogValue::U64(v) => {
                let _ = write!(line, "{v}");
            }
            LogValue::I64(v) => {
                let _ = write!(line, "{v}");
            }
            LogValue::F64(v) => {
                if v.is_finite() {
                    let _ = write!(line, "{v:e}");
                } else {
                    line.push_str("null");
                }
            }
            LogValue::Bool(v) => {
                let _ = write!(line, "{v}");
            }
            LogValue::Str(s) => {
                line.push('"');
                escape_into(&mut line, s);
                line.push('"');
            }
            LogValue::Raw(json) => line.push_str(json),
        }
    }
    line.push_str("}\n");
    line
}

/// Writes one structured event if a sink is configured and `level`
/// clears the floor. Never blocks request progress on log I/O errors:
/// failures increment `log.events.dropped` and the event is lost.
pub fn log_event(level: LogLevel, event: &str, fields: &[(&str, LogValue)]) {
    if !enabled(level) {
        return;
    }
    let line = render_line(level, event, fields);
    let mut sink = SINK.lock().unwrap_or_else(PoisonError::into_inner);
    let Some(s) = sink.as_mut() else {
        return;
    };
    let ok = s.writer.write_all(line.as_bytes()).is_ok() && s.writer.flush().is_ok();
    drop(sink);
    if ok {
        crate::probe_handle!(counter "log.events.written").inc();
    } else {
        crate::probe_handle!(counter "log.events.dropped").inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_and_parse() {
        assert!(LogLevel::Debug < LogLevel::Info);
        assert!(LogLevel::Warn < LogLevel::Error);
        assert_eq!(LogLevel::parse("WARN"), Some(LogLevel::Warn));
        assert_eq!(LogLevel::parse("bogus"), None);
        assert_eq!(LogLevel::from_u8(9), LogLevel::Error);
        assert_eq!(LogLevel::Info.name(), "info");
    }

    #[test]
    fn render_line_is_json_per_field_kind() {
        let line = render_line(
            LogLevel::Warn,
            "doc.event\"quoted",
            &[
                ("u", LogValue::U64(7)),
                ("i", LogValue::I64(-3)),
                ("f", LogValue::F64(1.5)),
                ("nan", LogValue::F64(f64::NAN)),
                ("b", LogValue::Bool(true)),
                ("s", LogValue::Str("a\nb".into())),
                ("raw", LogValue::Raw("{\"x\":1}".into())),
            ],
        );
        assert!(line.ends_with("}\n"), "{line}");
        assert!(line.contains("\"level\":\"warn\""), "{line}");
        assert!(line.contains("\"event\":\"doc.event\\\"quoted\""), "{line}");
        assert!(line.contains("\"u\":7"), "{line}");
        assert!(line.contains("\"i\":-3"), "{line}");
        assert!(line.contains("\"f\":1.5e0"), "{line}");
        assert!(line.contains("\"nan\":null"), "{line}");
        assert!(line.contains("\"b\":true"), "{line}");
        assert!(line.contains("\"s\":\"a\\nb\""), "{line}");
        assert!(line.contains("\"raw\":{\"x\":1}"), "{line}");
        assert!(line.contains("\"ts_ms\":"), "{line}");
    }

    #[test]
    fn sink_roundtrip_and_level_floor() {
        let dir = std::env::temp_dir().join(format!(
            "sram_log_test_{}_{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::SystemTime::UNIX_EPOCH)
                .map_or(0, |d| d.as_nanos())
        ));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("events.jsonl");

        init_from_env(); // so a set `SRAM_LOG` cannot reopen a sink later
        open(&path).expect("open sink");
        MIN_LEVEL.store(LogLevel::Info as u8, Ordering::Relaxed);
        assert!(enabled(LogLevel::Info));
        assert!(!enabled(LogLevel::Debug));

        log_event(LogLevel::Debug, "doc.below_floor", &[]);
        log_event(LogLevel::Info, "doc.kept", &[("n", LogValue::U64(1))]);
        ACTIVE.store(false, Ordering::Relaxed);
        drop(SINK.lock().unwrap_or_else(PoisonError::into_inner).take());
        assert!(!enabled(LogLevel::Error));

        let text = std::fs::read_to_string(&path).expect("log file");
        assert!(!text.contains("doc.below_floor"), "{text}");
        assert!(text.contains("\"event\":\"doc.kept\",\"n\":1"), "{text}");
        // Each line parses as a balanced JSON object.
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
