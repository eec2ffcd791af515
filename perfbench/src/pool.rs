//! `pool-kv`: the accountable key-value shape. A `MonitorPool` of register
//! keys with `PoolBuilder` defaults; closed-loop clients open a session on a
//! uniformly chosen key per request and write a unique value or read. One
//! rigged key's register answers every read with a value nobody wrote. Each
//! round ends with `quiesce()` + `check_all()`, which must flag exactly the
//! rigged key.

use crate::cpu;
use crate::round::{self, Round};
use crate::spans::{self, Recorder, Span};
use crate::util::{self, Rng};
use linrv::history::{OpValue, Operation, ProcessId};
use linrv::runtime::impls::AtomicIntRegister;
use linrv::runtime::ConcurrentObject;
use linrv::spec::ObjectKind;
use linrv_pool::prelude::*;
use std::time::Instant;

/// Register keys in the pool.
const KEYS: u64 = 256;

/// A value no client writes (clients write non-negative values only).
const ROGUE_VALUE: i64 = -1;

/// Load threads and pool checker threads together use the machine's
/// parallelism: half for clients, the rest (at least one) for workers.
pub fn threads() -> (usize, usize) {
    let cores = std::thread::available_parallelism().map_or(2, |n| n.get());
    let clients = (cores / 2).max(1);
    (clients, cores.saturating_sub(clients).max(1))
}

/// The rigged vendor register: correct writes, every read answered with
/// [`ROGUE_VALUE`].
struct RiggedRegister(AtomicIntRegister);

impl ConcurrentObject for RiggedRegister {
    fn kind(&self) -> ObjectKind {
        ObjectKind::Register
    }

    fn apply(&self, process: ProcessId, op: &Operation) -> OpValue {
        if op.kind == "Read" {
            return OpValue::Int(ROGUE_VALUE);
        }
        self.0.apply(process, op)
    }

    fn name(&self) -> String {
        "rigged register".into()
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KvCall {
    Write(u64, i64),
    Read(u64),
}

impl KvCall {
    fn key(self) -> u64 {
        match self {
            KvCall::Write(key, _) | KvCall::Read(key) => key,
        }
    }
}

/// The rigged key and each client's requests for one round. Keys are
/// uniform, half the requests write a value unique in the round, half read;
/// the first client opens with a read of the rigged key, so every round
/// exercises it.
pub fn plan(seed: u64, round: u64, total_ops: usize, clients: usize) -> (u64, Vec<Vec<KvCall>>) {
    let rigged = Rng::new(seed, util::stream(round, total_ops, 0)).below(KEYS);
    let plans = (0..clients)
        .map(|client| {
            let mut rng = Rng::new(seed, util::stream(round, total_ops, client + 1));
            (0..util::share(total_ops, clients, client))
                .map(|j| {
                    if client == 0 && j == 0 {
                        return KvCall::Read(rigged);
                    }
                    let key = rng.below(KEYS);
                    if rng.below(2) == 0 {
                        // The low 20 bits make the value unique in the round.
                        let index = (j * clients + client) as i64;
                        KvCall::Write(key, (rng.below(1 << 40) as i64) << 20 | index)
                    } else {
                        KvCall::Read(key)
                    }
                })
                .collect()
        })
        .collect();
    (rigged, plans)
}

type KvPool = MonitorPool<Box<dyn ConcurrentObject>, RegisterSpec>;

#[derive(Default)]
struct Share {
    latencies_ns: Vec<u64>,
    ok: u64,
    refused: u64,
    spans: Vec<Span>,
    queued: Vec<f64>,
}

/// Outstanding work across the shard queues.
fn queued(pool: &KvPool) -> f64 {
    pool.shard_stats()
        .iter()
        .map(|shard| shard.queued)
        .sum::<u64>() as f64
}

fn call(pool: &KvPool, op: KvCall, mut rec: Option<&mut Recorder>, id: u64) -> bool {
    let session = match rec.as_mut() {
        Some(rec) => rec.time("pool.session", id, || pool.session(op.key())),
        None => pool.session(op.key()),
    };
    let Ok(session) = session else {
        return false;
    };
    let typed = || match op {
        KvCall::Write(_, value) => session.write(value).is_ok(),
        KvCall::Read(_) => session.read().is_ok(),
    };
    match rec {
        Some(rec) => rec.time("pool.op", id, typed),
        None => typed(),
    }
}

fn client(pool: &KvPool, ops: &[KvCall], traced: Option<(Instant, u64)>) -> Share {
    let mut share = Share {
        latencies_ns: Vec::with_capacity(ops.len()),
        ..Share::default()
    };
    let mut rec = traced.map(|(epoch, _)| Recorder::new(epoch));
    for (j, &op) in ops.iter().enumerate() {
        let id = traced.map_or(0, |(_, base)| base) + j as u64;
        let start = cpu::thread();
        let ok = match rec.as_mut() {
            Some(rec) => {
                rec.enter("op", id);
                let ok = call(pool, op, Some(rec), id);
                rec.exit();
                if j % 64 == 0 {
                    share.queued.push(queued(pool));
                }
                ok
            }
            None => call(pool, op, None, id),
        };
        share
            .latencies_ns
            .push((cpu::thread() - start).as_nanos() as u64);
        if ok {
            share.ok += 1;
        } else {
            share.refused += 1;
        }
    }
    if let Some(rec) = rec.as_mut() {
        rec.drain_into(&mut share.spans);
    }
    share
}

/// Runs round `index` of the plan at `ops` operations; `traced` records
/// spans around the pool calls and samples the pool's gauges.
pub fn round(seed: u64, index: u64, ops: usize, traced: bool) -> Round {
    let (clients, workers) = threads();
    let (rigged, plan) = plan(seed, index, ops, clients);
    let started = Instant::now();
    let started_cpu = cpu::process();
    let pool: KvPool = PoolBuilder::new(RegisterSpec::new())
        .workers(workers)
        .sessions_per_object(clients)
        .build(move |key| -> Box<dyn ConcurrentObject> {
            if key == rigged {
                Box::new(RiggedRegister(AtomicIntRegister::new()))
            } else {
                Box::new(AtomicIntRegister::new())
            }
        });
    let (setup, timed, shares) = round::closed_loop(started_cpu, &plan, |thread, ops, barrier| {
        barrier.wait();
        client(
            &pool,
            ops,
            traced.then_some((started, (thread as u64) << 24)),
        )
    });

    let mut round = Round {
        setup,
        timed,
        ..Round::default()
    };
    for mut share in shares {
        round.attempted += share.ok + share.refused;
        round.ok += share.ok;
        round.latencies_ns.append(&mut share.latencies_ns);
        if traced {
            round
                .gauges
                .entry("queued")
                .or_default()
                .extend(&share.queued);
        }
        spans::append(&mut round.spans, share.spans);
    }

    let verdict_started = cpu::process();
    let verdicts = if traced {
        let mut rec = Recorder::new(started);
        let id = 1 << 23;
        rec.time("pool.quiesce", id, || pool.quiesce());
        let verdicts = rec.time("pool.check_all", id, || pool.check_all());
        rec.drain_into(&mut round.spans);
        verdicts
    } else {
        pool.quiesce();
        pool.check_all()
    };
    round.verdict = cpu::process() - verdict_started;
    if traced {
        let stats = pool.stats();
        for (gauge, value) in [
            ("ingested", stats.ingested),
            ("processed", stats.processed),
            ("checks", stats.checks),
            ("steals", stats.steals),
            ("gced", stats.gced_events),
            ("retained", stats.retained_events),
        ] {
            round.gauge(gauge, value as f64);
        }
    }
    let flagged: Vec<u64> = verdicts
        .iter()
        .filter(|(_, verdict)| !verdict.is_correct())
        .map(|(key, _)| *key)
        .collect();
    if flagged != [rigged] {
        round.wrong.push(format!(
            "flagged keys {flagged:?}, expected exactly the rigged key {rigged}"
        ));
    }
    round
}
