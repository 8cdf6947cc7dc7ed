//! Host-speed calibration.
//!
//! On a shared virtual machine the same task can take twice as long from
//! one minute to the next while a tight arithmetic loop keeps its speed:
//! neighbours contend for the caches and branch predictors that an
//! interpreter leans on. The benchmark therefore times a fixed kernel next
//! to every task and scales the task's time by how much slower than
//! nominal the kernel ran.
//!
//! The kernel is a small bytecode interpreter written here, in the
//! benchmark's own files, so no change to the program can move it: a
//! faster program still reads faster. Its program and data are fixed, not
//! drawn from `--seed`.

use std::hint::black_box;
use std::time::Instant;

/// Host milliseconds [`Calibrator::run_ms`] takes on an uncontended
/// 2-vCPU x86-64 virtual machine: the scale normalised times are given in.
pub const NOMINAL_MS: f64 = 5.7;

/// Instructions per calibration run.
const STEPS: u64 = 3_000_000;
/// Kernel program length and data words (16 KiB of code, 64 KiB of data:
/// the interpreter-sized working set).
const PROGRAM_LEN: usize = 4096;
const DATA_WORDS: usize = 1 << 13;

#[derive(Clone, Copy)]
enum Op {
    Add(u8, u8, u8),
    Mul(u8, u8, u8),
    Load(u8, u8),
    Store(u8, u8),
    JumpIfOdd(u8, u16),
    Xor(u8, u8, u8),
}

/// The calibration kernel and its data.
pub struct Calibrator {
    program: Vec<Op>,
    data: Vec<u64>,
}

impl Calibrator {
    /// Builds the fixed kernel program.
    pub fn new() -> Self {
        let mut x = 12_345u64;
        let program = (0..PROGRAM_LEN)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let (a, b, d) = (
                    (x >> 8) as u8 & 15,
                    (x >> 12) as u8 & 15,
                    (x >> 16) as u8 & 15,
                );
                match x % 6 {
                    0 => Op::Add(d, a, b),
                    1 => Op::Mul(d, a, b),
                    2 => Op::Load(d, a),
                    3 => Op::Store(d, a),
                    4 => Op::JumpIfOdd(a, ((x >> 20) % PROGRAM_LEN as u64) as u16),
                    _ => Op::Xor(d, a, b),
                }
            })
            .collect();
        Self {
            program,
            data: vec![3; DATA_WORDS],
        }
    }

    /// Runs the kernel once; returns its host milliseconds.
    pub fn run_ms(&mut self) -> f64 {
        let start = Instant::now();
        black_box(interpret(&self.program, &mut self.data, black_box(STEPS)));
        start.elapsed().as_secs_f64() * 1e3
    }
}

fn interpret(program: &[Op], data: &mut [u64], steps: u64) -> u64 {
    let mut r = [1u64; 16];
    let mut pc = 0usize;
    let mask = data.len() - 1;
    for _ in 0..steps {
        match program[pc] {
            Op::Add(d, a, b) => r[d as usize] = r[a as usize].wrapping_add(r[b as usize]),
            Op::Mul(d, a, b) => r[d as usize] = r[a as usize].wrapping_mul(r[b as usize]) | 1,
            Op::Xor(d, a, b) => r[d as usize] = r[a as usize] ^ r[b as usize] ^ (pc as u64),
            Op::Load(d, a) => r[d as usize] = data[(r[a as usize] as usize) & mask],
            Op::Store(s, a) => data[(r[a as usize] as usize) & mask] = r[s as usize],
            Op::JumpIfOdd(c, target) => {
                if r[c as usize] & 3 != 0 {
                    pc = target as usize;
                    continue;
                }
            }
        }
        // A power-of-two wrap: a division here would put the divider on
        // the critical path and hide the contention the kernel must feel.
        pc = (pc + 1) & (PROGRAM_LEN - 1);
    }
    r.iter().fold(0, |a, b| a ^ b)
}
