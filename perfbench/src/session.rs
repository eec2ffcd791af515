//! `session-enforce` and `session-observe`: one `Monitor` over an `MsQueue`,
//! two sessions on two threads in a closed loop alternating
//! `enqueue(unique)` / `dequeue()`, then one `monitor.check()`.
//!
//! Untraced rounds go through the typed `Session` API. Traced rounds drive
//! the same operations through the phase functions `Session::apply` runs,
//! reached through `Monitor::as_raw()`, with a span around each call.

use crate::cpu;
use crate::round::{self, Round};
use crate::spans::{self, Recorder, Span};
use crate::util::{self, Rng};
use linrv::prelude::*;
use linrv::raw::core::sketch::sketch_history;
use linrv::raw::{GenLinObject, ProcessId};
use linrv::runtime::impls::MsQueue;
use linrv::spec::typed::queue::{Dequeue, Enqueue};
use linrv::spec::TypedOp;
use std::time::Instant;

/// Sessions per monitor, one thread each.
const SESSIONS: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueCall {
    Enqueue(i64),
    Dequeue,
}

/// The per-session operation sequences of one round: alternating enqueue and
/// dequeue, enqueued values distinct within the round.
pub fn plan(seed: u64, round: u64, total_ops: usize) -> Vec<Vec<QueueCall>> {
    (0..SESSIONS)
        .map(|session| {
            let mut rng = Rng::new(seed, util::stream(round, total_ops, session));
            (0..util::share(total_ops, SESSIONS, session))
                .map(|j| {
                    if j % 2 == 0 {
                        // The low 16 bits make the value unique in the round.
                        let index = (j * SESSIONS + session) as i64;
                        QueueCall::Enqueue((rng.below(1 << 40) as i64) << 16 | index)
                    } else {
                        QueueCall::Dequeue
                    }
                })
                .collect()
        })
        .collect()
}

/// One thread's share of a round.
#[derive(Default)]
struct Share {
    latencies_ns: Vec<u64>,
    ok: u64,
    rejected: u64,
    spans: Vec<Span>,
    view_lens: Vec<f64>,
    tuples: Vec<f64>,
    events: Vec<f64>,
}

type QueueMonitor = Monitor<MsQueue, QueueSpec>;

/// How a thread reaches the monitor: a typed session, or a raw process slot
/// whose phases it calls itself.
enum Client {
    Session(Session<MsQueue, QueueSpec>),
    Raw(ProcessId),
}

/// Typed calls through `Session`: the path users take.
fn session_ops(session: &Session<MsQueue, QueueSpec>, ops: &[QueueCall]) -> Share {
    let mut share = Share {
        latencies_ns: Vec::with_capacity(ops.len()),
        ..Share::default()
    };
    for op in ops {
        let start = cpu::thread();
        let ok = match *op {
            QueueCall::Enqueue(v) => session.enqueue(v).is_ok(),
            QueueCall::Dequeue => session.dequeue().is_ok(),
        };
        share
            .latencies_ns
            .push((cpu::thread() - start).as_nanos() as u64);
        if ok {
            share.ok += 1;
        } else {
            share.rejected += 1;
        }
    }
    share
}

/// The same calls spelled out as the phases `Session::apply` runs, each in a
/// span: announce, call the wrapped object, collect, publish, and in Enforce
/// mode scan, sketch and membership.
fn phase_ops(
    monitor: &QueueMonitor,
    process: ProcessId,
    ops: &[QueueCall],
    epoch: Instant,
    op_base: u64,
) -> Share {
    let raw = monitor.as_raw();
    let (drv, verifier) = (raw.drv(), raw.verifier());
    let enforce = monitor.mode() == Mode::Enforce;
    let mut share = Share::default();
    let mut rec = Recorder::new(epoch);
    for (j, op) in ops.iter().enumerate() {
        let id = op_base + j as u64;
        rec.enter("op", id);
        let wire = match *op {
            QueueCall::Enqueue(v) => Enqueue(v).encode(),
            QueueCall::Dequeue => Dequeue.encode(),
        };
        let announced = rec.time("drv.announce", id, || drv.announce(process, &wire));
        let value = rec.time("runtime.inner", id, || drv.call_inner(&announced));
        let response = rec.time("drv.collect", id, || drv.collect(announced, value));
        share.view_lens.push(response.view.len() as f64);
        rec.time("verifier.publish", id, || {
            verifier.record(process, response.tuple())
        });
        let mut verified = true;
        if enforce {
            let tau = rec.time("verifier.scan", id, || verifier.collect_tuples(process));
            share.tuples.push(tau.len() as f64);
            verified = match rec.time("sketch.build", id, || sketch_history(&tau)) {
                Ok(sketch) => {
                    share.events.push(sketch.len() as f64);
                    rec.time("check.membership", id, || {
                        verifier.object().contains(&sketch)
                    })
                }
                Err(_) => false,
            };
        }
        let decoded = match *op {
            QueueCall::Enqueue(v) => Enqueue(v).decode_response(&response.value).is_ok(),
            QueueCall::Dequeue => Dequeue.decode_response(&response.value).is_ok(),
        };
        rec.exit();
        if verified && decoded {
            share.ok += 1;
        } else {
            share.rejected += 1;
        }
    }
    raw.release(process);
    rec.drain_into(&mut share.spans);
    share
}

/// Runs round `index` of the plan at `ops` operations; `traced` drives the
/// phases with spans instead of the typed session calls.
pub fn round(mode: Mode, seed: u64, index: u64, ops: usize, traced: bool) -> Round {
    let plan = plan(seed, index, ops);
    let started = Instant::now();
    let started_cpu = cpu::process();
    let monitor = Monitor::builder(QueueSpec::new())
        .processes(SESSIONS)
        .mode(mode)
        .build(MsQueue::new());
    let (setup, timed, shares) = round::closed_loop(started_cpu, &plan, |thread, ops, barrier| {
        let client = if traced {
            Client::Raw(monitor.as_raw().register().expect("a slot per session"))
        } else {
            Client::Session(monitor.register().expect("a slot per session"))
        };
        barrier.wait();
        match client {
            Client::Raw(process) => {
                phase_ops(&monitor, process, ops, started, (thread as u64) << 24)
            }
            Client::Session(session) => session_ops(&session, ops),
        }
    });

    let mut round = Round {
        setup,
        timed,
        ..Round::default()
    };
    for mut share in shares {
        round.attempted += share.ok + share.rejected;
        round.ok += share.ok;
        round.latencies_ns.append(&mut share.latencies_ns);
        for (gauge, samples) in [
            ("view_len", &share.view_lens),
            ("tuples", &share.tuples),
            ("events", &share.events),
        ] {
            if !samples.is_empty() {
                round.gauges.entry(gauge).or_default().extend(samples);
            }
        }
        if share.rejected > 0 {
            round.wrong.push(format!(
                "{} operations on a correct MsQueue were rejected",
                share.rejected
            ));
        }
        spans::append(&mut round.spans, share.spans);
    }

    let verdict_started = cpu::process();
    let correct = if traced {
        // `Monitor::check` split into the same three steps.
        let verifier = monitor.as_raw().verifier();
        let mut rec = Recorder::new(started);
        let id = 1 << 23;
        let tau = rec.time("verdict.scan", id, || {
            verifier.collect_tuples(ProcessId::new(0))
        });
        let sketch = rec.time("verdict.sketch", id, || sketch_history(&tau));
        let member = sketch.is_ok_and(|sketch| {
            rec.time("verdict.membership", id, || {
                verifier.object().contains(&sketch)
            })
        });
        rec.drain_into(&mut round.spans);
        member
    } else {
        monitor.check().is_correct()
    };
    round.verdict = cpu::process() - verdict_started;
    if !correct {
        round
            .wrong
            .push("the final verdict on a correct MsQueue is a violation".into());
    }
    round
}
