//! The in-process half of the benchmark. `perfbench/run.py` is the entry
//! point: it runs each round of `session-enforce`, `session-observe` and
//! `pool-kv` as one call of this binary, and the `gen-check` layer probe.
//!
//! ```text
//! perfbench round session-enforce|session-observe|pool-kv
//!           --seed N --round I --ops OPS --trace 0|1
//!     Run one round and print what it measured as one JSON line.
//! perfbench inputs session-enforce|session-observe|pool-kv
//!           --seed N --round I --ops OPS
//!     Print the round's generated operation plan.
//! perfbench probe FILE batch|stream
//!     Time one trace through the library calls behind `linrv check`.
//! ```

mod cpu;
mod pool;
mod probe;
mod round;
mod session;
mod spans;
mod util;

use linrv::Mode;
use std::collections::HashMap;
use std::process::ExitCode;

/// A round's workload and plan coordinates, from the command line.
struct RoundArgs {
    mode: Option<Mode>,
    seed: u64,
    index: u64,
    ops: usize,
    options: HashMap<String, String>,
}

fn round_args(args: &[String]) -> Result<RoundArgs, String> {
    let (workload, rest) = args.split_first().ok_or("missing workload")?;
    let mode = match workload.as_str() {
        "session-enforce" => Some(Mode::Enforce),
        "session-observe" => Some(Mode::Observe),
        "pool-kv" => None,
        other => return Err(format!("unknown workload {other}")),
    };
    let mut options = HashMap::new();
    let mut iter = rest.iter();
    while let Some(flag) = iter.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag}"))?;
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        options.insert(name.to_string(), value.clone());
    }
    let number = |name: &str| -> Result<u64, String> {
        options
            .get(name)
            .ok_or_else(|| format!("missing --{name}"))?
            .parse()
            .map_err(|_| format!("--{name} needs a whole number"))
    };
    let (seed, index, ops) = (number("seed")?, number("round")?, number("ops")?);
    // Generated values carry the operation's index in their low 16 bits.
    if !(2..=1 << 16).contains(&ops) {
        return Err("--ops must be between 2 and 65536".into());
    }
    Ok(RoundArgs {
        mode,
        seed,
        index,
        ops: ops as usize,
        options,
    })
}

fn run_round(args: &[String]) -> Result<(), String> {
    let RoundArgs {
        mode,
        seed,
        index,
        ops,
        options,
    } = round_args(args)?;
    let traced = match options.get("trace").map(String::as_str) {
        Some("0") => false,
        Some("1") => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    let round = match mode {
        Some(mode) => session::round(mode, seed, index, ops, traced),
        None => pool::round(seed, index, ops, traced),
    };
    println!("{}", round.to_json());
    Ok(())
}

fn print_inputs(args: &[String]) -> Result<(), String> {
    let RoundArgs {
        mode,
        seed,
        index,
        ops,
        ..
    } = round_args(args)?;
    match mode {
        Some(_) => println!("{:?}", session::plan(seed, index, ops)),
        None => println!("{:?}", pool::plan(seed, index, ops, pool::threads().0)),
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("round") => run_round(&args[1..]),
        Some("inputs") => print_inputs(&args[1..]),
        Some("probe") if args.len() == 3 => probe::run(&args[1], &args[2]),
        _ => Err(
            "usage: perfbench round|inputs <workload> --seed N --round I --ops OPS \
                  [--trace 0|1] | perfbench probe FILE batch|stream"
                .into(),
        ),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::from(2)
        }
    }
}
