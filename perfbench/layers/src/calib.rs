//! Host-speed probe of the momsim benchmark.
//!
//! The benchmark's host is a few vCPUs of a shared machine whose speed
//! drifts by tens of percent over minutes, with the load of its other
//! tenants.  `run.py` runs this probe next to every measured operation and
//! divides the operation's time by the probe's, so that a drift of the host
//! cancels out and a change of the program does not: this code uses no
//! crate of the repository and never changes with it.
//!
//! One unit of work mixes what the simulator spends its time on: a
//! decode-and-dispatch interpreter loop, data-dependent branches over a
//! table that fits in L2, a sort, and hash-map inserts and lookups.
//!
//! Usage: perfbench-calib REPS
//!
//! Runs REPS units on one thread, then REPS units on each of two threads at
//! once, and prints two numbers: the median seconds of one unit on one
//! thread, which follows the speed of a vCPU and scales CPU times, and the
//! wall seconds per unit of the two threads, which also follows how much of
//! both vCPUs the host grants and scales the wall times of the benchmark's
//! operations, which keep two threads busy.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Instant;

const TABLE: usize = 1 << 15;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// A register machine running a fixed program: a decode step and a
/// dispatch on the opcode per instruction, as an instruction-set simulator.
fn interpret(seed: u64) -> u64 {
    let program: [(u8, usize, usize); 8] = [
        (0, 0, 1),
        (1, 1, 2),
        (2, 2, 0),
        (3, 3, 1),
        (0, 3, 2),
        (4, 0, 3),
        (1, 2, 3),
        (5, 1, 0),
    ];
    let mut regs = [seed | 1, 7, 11, 13];
    for step in 0..300_000u64 {
        let (op, a, b) = program[(step as usize) & 7];
        regs[a] = match op {
            0 => regs[a].wrapping_add(regs[b]),
            1 => regs[a] ^ regs[b].rotate_left(5),
            2 => regs[a].wrapping_mul(regs[b] | 1),
            3 => regs[a].wrapping_sub(regs[b] >> 3),
            4 => {
                if regs[b] & 1 == 0 {
                    regs[a] >> 1
                } else {
                    regs[a].wrapping_add(step)
                }
            }
            _ => regs[a] ^ step,
        };
    }
    regs.iter().fold(0, |acc, r| acc ^ r)
}

/// Random read-modify-writes over a 256 KiB table, the branch taken
/// depending on the value read.
fn walk(table: &mut [u64], seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut acc = 0u64;
    for _ in 0..200_000 {
        let i = (xorshift(&mut x) as usize) & (TABLE - 1);
        let v = table[i];
        acc = match v & 3 {
            0 => acc.wrapping_add(v >> 3),
            1 => acc ^ v.rotate_left(7),
            _ => acc.wrapping_mul(v | 1),
        };
        table[i] = v.wrapping_add(acc);
    }
    acc
}

fn sort(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut values: Vec<u64> = (0..32_768).map(|_| xorshift(&mut x)).collect();
    values.sort_unstable();
    values[values.len() / 2]
}

fn hash(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut map = HashMap::with_capacity(16_384);
    for i in 0..16_384u64 {
        map.insert(xorshift(&mut x) & 0xffff, i);
    }
    (0..32_768u64).filter_map(|k| map.get(&k)).sum()
}

fn unit(table: &mut [u64], seed: u64) -> u64 {
    interpret(black_box(seed)) ^ walk(table, seed) ^ sort(seed) ^ hash(seed)
}

fn new_table() -> Vec<u64> {
    (0..TABLE as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect()
}

fn median(mut times: Vec<f64>) -> f64 {
    times.sort_by(f64::total_cmp);
    let mid = times.len() / 2;
    if times.len() % 2 == 1 {
        times[mid]
    } else {
        (times[mid - 1] + times[mid]) / 2.0
    }
}

/// Wall seconds per unit with `reps` units on each of two threads.
fn two_threads(reps: usize) -> f64 {
    let start = Arc::new(Barrier::new(3));
    let workers: Vec<_> = (0..2u64)
        .map(|worker| {
            let start = Arc::clone(&start);
            thread::spawn(move || {
                let mut table = new_table();
                // One unit unmeasured: page faults and cold caches.
                black_box(unit(&mut table, worker));
                start.wait();
                for rep in 0..reps as u64 {
                    black_box(unit(&mut table, 100 * (worker + 1) + rep));
                }
            })
        })
        .collect();
    start.wait();
    let began = Instant::now();
    for worker in workers {
        worker.join().expect("probe thread panicked");
    }
    began.elapsed().as_secs_f64() / reps as f64
}

fn main() {
    let reps: usize = match std::env::args().nth(1).and_then(|a| a.parse().ok()) {
        Some(n) if n > 0 => n,
        _ => {
            eprintln!("usage: perfbench-calib REPS");
            std::process::exit(2);
        }
    };
    let mut table = new_table();
    // One unit unmeasured: page faults and cold caches.
    black_box(unit(&mut table, 1));
    let mut times = Vec::with_capacity(reps);
    for rep in 0..reps {
        let start = Instant::now();
        black_box(unit(&mut table, rep as u64 + 2));
        times.push(start.elapsed().as_secs_f64());
    }
    println!("{:.9} {:.9}", median(times), two_threads(reps));
}
