//! What one round of an in-process workload measured, printed as one JSON
//! line for `run.py`.
//!
//! A round builds a fresh monitor (or pool), runs one seeded plan through it
//! in a closed loop and takes the final verdict. Each round runs in its own
//! process, so its peak memory is its own.

use crate::cpu;
use crate::spans::{self, Span};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Barrier;
use std::time::Duration;

/// Runs `load(index, part, barrier)` on one thread per part. Each load
/// prepares its client, waits on the barrier, then runs its part. Returns
/// the setup time (process CPU time from `started` until every thread is
/// ready), the timed phase (process CPU time from the barrier until the last
/// thread finished) and each thread's result.
pub fn closed_loop<P: Sync, R: Send>(
    started: Duration,
    parts: &[P],
    load: impl Fn(usize, &P, &Barrier) -> R + Sync,
) -> (Duration, Duration, Vec<R>) {
    let barrier = Barrier::new(parts.len() + 1);
    std::thread::scope(|scope| {
        let threads: Vec<_> = parts
            .iter()
            .enumerate()
            .map(|(index, part)| {
                let (load, barrier) = (&load, &barrier);
                scope.spawn(move || load(index, part, barrier))
            })
            .collect();
        barrier.wait();
        let start = cpu::process();
        let setup = start - started;
        let results = threads
            .into_iter()
            .map(|thread| thread.join().expect("a load thread panicked"))
            .collect();
        (setup, cpu::process() - start, results)
    })
}

/// Phase times are process CPU time and latencies thread CPU time (see
/// [`cpu`]); span intervals are wall-clock time.
#[derive(Default)]
pub struct Round {
    /// Building the monitor or pool and starting the load threads.
    pub setup: Duration,
    /// From releasing the load threads until the last one finished.
    pub timed: Duration,
    /// From the last operation until the final verdict.
    pub verdict: Duration,
    pub attempted: u64,
    pub ok: u64,
    /// Wrong outputs: a rejected operation on a correct object, a wrong
    /// verdict.
    pub wrong: Vec<String>,
    /// Each call's CPU time on the calling thread.
    pub latencies_ns: Vec<u64>,
    /// Layer gauges sampled during a traced round, by name.
    pub gauges: BTreeMap<&'static str, Vec<f64>>,
    pub spans: Vec<Span>,
}

impl Round {
    pub fn gauge(&mut self, name: &'static str, value: f64) {
        self.gauges.entry(name).or_default().push(value);
    }

    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"setup_s\":{:?},\"timed_s\":{:?},\"verdict_s\":{:?},\"attempted\":{},\"ok\":{}",
            self.setup.as_secs_f64(),
            self.timed.as_secs_f64(),
            self.verdict.as_secs_f64(),
            self.attempted,
            self.ok
        );
        let wrong: Vec<String> = self
            .wrong
            .iter()
            .map(|what| format!("\"{}\"", what.replace('\\', "\\\\").replace('"', "\\\"")))
            .collect();
        let _ = write!(out, ",\"wrong\":[{}]", wrong.join(","));
        let latencies: Vec<String> = self.latencies_ns.iter().map(u64::to_string).collect();
        let _ = write!(out, ",\"latencies_ns\":[{}]", latencies.join(","));
        let gauges: Vec<String> = self
            .gauges
            .iter()
            .map(|(name, values)| {
                let values: Vec<String> = values.iter().map(|v| format!("{v:?}")).collect();
                format!("\"{name}\":[{}]", values.join(","))
            })
            .collect();
        let _ = write!(out, ",\"gauges\":{{{}}}", gauges.join(","));
        let _ = write!(out, ",\"spans\":{}}}", spans::to_json(&self.spans));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_render_as_one_json_object() {
        let mut round = Round {
            attempted: 2,
            ok: 1,
            latencies_ns: vec![5, 7],
            wrong: vec!["bad \"x\"".into()],
            ..Round::default()
        };
        round.gauge("queued", 3.0);
        assert_eq!(
            round.to_json(),
            "{\"setup_s\":0.0,\"timed_s\":0.0,\"verdict_s\":0.0,\"attempted\":2,\"ok\":1,\
             \"wrong\":[\"bad \\\"x\\\"\"],\"latencies_ns\":[5,7],\"gauges\":{\"queued\":[3.0]},\
             \"spans\":[]}"
        );
    }
}
