//! The `gen-check` layer probe: one trace file through the library calls
//! `linrv check` makes, each timed on its own.
//!
//! `decode` reads the trace with `TraceReader`; `batch` decides the full
//! history with `StrategyChecker::check_routed`; `stream` pushes the events
//! through a `StreamingChecker` with the stride `linrv check` uses, then
//! finishes it. Each phase prints one JSON line with its interval (ns since
//! the probe started) as soon as it ends, so a probe killed at its deadline
//! still reports the phases it finished.

use linrv::check::specialized::{Route, StrategyChecker};
use linrv::check::stream::{StreamingChecker, DEFAULT_STRIDE};
use linrv::history::{Event, History};
use linrv::spec::{
    CounterSpec, ObjectKind, PriorityQueueSpec, QueueSpec, RegisterSpec, SequentialSpec, SetSpec,
    StackSpec,
};
use linrv::trace::TraceReader;
use std::io::Write;
use std::time::Instant;

/// Prints one phase's line: its name and interval, plus `fields`.
fn emit(origin: Instant, phase: &str, start: Instant, fields: &str) {
    let start_ns = start.duration_since(origin).as_nanos();
    let end_ns = origin.elapsed().as_nanos();
    let mut out = std::io::stdout().lock();
    // The parent reads these lines; a failed write leaves it with fewer.
    let _ = writeln!(
        out,
        "{{\"phase\":\"{phase}\",\"start_ns\":{start_ns},\"end_ns\":{end_ns},{fields}}}"
    );
    let _ = out.flush();
}

fn phases<S: SequentialSpec + Clone>(spec: S, events: Vec<Event>, phase: &str, origin: Instant) {
    match phase {
        "batch" => {
            let mut history = History::new();
            for event in events {
                history.push(event);
            }
            let checker = StrategyChecker::new(spec);
            let start = Instant::now();
            let (verdict, route) = checker.check_routed(&history);
            let route = match route {
                Route::Specialized => "specialized",
                Route::GeneralFallback(_) => "general-fallback",
                Route::General => "general",
                Route::Declined(_) => "declined",
            };
            let member = verdict.is_member();
            emit(
                origin,
                phase,
                start,
                &format!("\"member\":{member},\"route\":\"{route}\""),
            );
        }
        _ => {
            let start = Instant::now();
            let mut checker = StreamingChecker::with_stride(spec, DEFAULT_STRIDE);
            for event in events {
                if checker.push(event).is_some() {
                    break;
                }
            }
            let (_, verdict) = checker.finish();
            let member = verdict.is_member();
            emit(origin, phase, start, &format!("\"member\":{member}"));
        }
    }
}

/// Runs the probe on `path`; `phase` is `batch` or `stream`.
pub fn run(path: &str, phase: &str) -> Result<(), String> {
    if phase != "batch" && phase != "stream" {
        return Err(format!("unknown probe phase {phase} (use batch or stream)"));
    }
    let origin = Instant::now();
    let file = std::fs::File::open(path).map_err(|err| format!("cannot open {path}: {err}"))?;
    let mut reader = TraceReader::new(std::io::BufReader::new(file))
        .map_err(|err| format!("cannot read {path}: {err}"))?;
    let kind = reader.header().kind;
    let mut events = Vec::new();
    while let Some(item) = reader.next_tagged() {
        let (_, event) = item.map_err(|err| format!("cannot read {path}: {err}"))?;
        events.push(event);
    }
    emit(
        origin,
        "decode",
        origin,
        &format!("\"events\":{}", events.len()),
    );
    match kind {
        ObjectKind::Queue => phases(QueueSpec::new(), events, phase, origin),
        ObjectKind::Stack => phases(StackSpec::new(), events, phase, origin),
        ObjectKind::Set => phases(SetSpec::new(), events, phase, origin),
        ObjectKind::PriorityQueue => phases(PriorityQueueSpec::new(), events, phase, origin),
        ObjectKind::Counter => phases(CounterSpec::new(), events, phase, origin),
        ObjectKind::Register => phases(RegisterSpec::new(), events, phase, origin),
        other => return Err(format!("no specialized monitor for kind {other}")),
    }
    Ok(())
}
