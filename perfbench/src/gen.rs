//! Seeded, pure workload generation.
//!
//! Every input the program receives — prompts, output lengths, the arrival
//! schedule, row-request chain shapes and row data — is a function of
//! `(workload, seed)` only. Each workload draws from its own stream, so the
//! same seed on two workloads still gives unrelated inputs.

/// SplitMix64: small, fast, and fully specified here, so inputs never depend on
/// a library's generator changing.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `stream` of `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Self(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Standard normal (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let u1 = 1.0 - self.unit();
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.range(0, i));
        }
    }

    pub fn tokens(&mut self, len: usize, vocab: usize) -> Vec<u32> {
        (0..len).map(|_| self.range(0, vocab - 1) as u32).collect()
    }
}

const DECODE_LONG_STREAM: u64 = 1;
const CHAT_STREAM: u64 = 2;
const NORM_ROWS_STREAM: u64 = 3;

/// One closed-loop decode session: a prompt and the number of tokens to
/// generate before the slot cancels it and places the next session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionSpec {
    pub prompt: Vec<u32>,
    pub output_len: usize,
}

pub const DECODE_LONG_PROMPT: usize = 64;
pub const DECODE_LONG_OUTPUT: (usize, usize) = (96, 224);

/// The `index`-th session of `decode_long`: a unique 64-token prompt and a
/// 96–224-token output length.
///
/// Output lengths are stratified: each block of 8 consecutive sessions takes
/// one length from each sixteenth-wide stratum of the range, in seeded order.
/// Every seed then offers nearly the same mean context length, so seeds
/// compare on speed, not on how long their sessions happen to be.
pub fn decode_long_session(seed: u64, index: u64, vocab: usize) -> SessionSpec {
    const STRATA: u64 = 8;
    let mut block = Rng::new(
        seed,
        (DECODE_LONG_STREAM << 48) | (1 << 40) | (index / STRATA),
    );
    let mut strata: Vec<usize> = (0..STRATA as usize).collect();
    block.shuffle(&mut strata);
    let width = (DECODE_LONG_OUTPUT.1 - DECODE_LONG_OUTPUT.0 + 1) / STRATA as usize;
    let mut rng = Rng::new(seed, DECODE_LONG_STREAM << 48 | index);
    let prompt = rng.tokens(DECODE_LONG_PROMPT, vocab);
    let low = DECODE_LONG_OUTPUT.0 + strata[(index % STRATA) as usize] * width;
    SessionSpec {
        prompt,
        output_len: rng.range(low, low + width - 1),
    }
}

pub const CHAT_SYSTEM_PROMPTS: usize = 8;
pub const CHAT_SYSTEM_LEN: usize = 64;
pub const CHAT_SUFFIX: (usize, usize) = (8, 24);
pub const CHAT_OUTPUT: (usize, usize) = (8, 32);

/// One open-loop chat request.
#[derive(Debug, Clone, PartialEq)]
pub struct ChatRequest {
    /// When the request is due, seconds after the schedule starts.
    pub due_s: f64,
    /// Which system prompt the request starts with.
    pub system: usize,
    pub prompt: Vec<u32>,
    pub output_len: usize,
}

/// The `chat_shared_prefix` inputs: 8 system prompts and an endless arrival
/// schedule, each request a system prompt plus a unique suffix.
///
/// Arrivals are a Poisson process conditioned on its count per second: every
/// whole second holds exactly `rate_per_s` requests at independent uniform
/// times. Arrivals stay bursty within a second, but a window of whole seconds
/// always offers the same load, so runs with different seeds are comparable.
#[derive(Debug, Clone)]
pub struct ChatSchedule {
    pub system_prompts: Vec<Vec<u32>>,
    rng: Rng,
    rate_per_s: usize,
    vocab: usize,
    second: usize,
    pending: Vec<f64>,
}

impl ChatSchedule {
    pub fn new(seed: u64, rate_per_s: usize, vocab: usize) -> Self {
        let mut rng = Rng::new(seed, CHAT_STREAM << 48);
        let system_prompts = (0..CHAT_SYSTEM_PROMPTS)
            .map(|_| rng.tokens(CHAT_SYSTEM_LEN, vocab))
            .collect();
        Self {
            system_prompts,
            rng,
            rate_per_s,
            vocab,
            second: 0,
            pending: Vec::new(),
        }
    }

    /// A request for system prompt `system` due at `due_s`, drawn from the
    /// schedule's generator.
    pub fn request_for(&mut self, system: usize, due_s: f64) -> ChatRequest {
        let suffix_len = self.rng.range(CHAT_SUFFIX.0, CHAT_SUFFIX.1);
        let mut prompt = self.system_prompts[system].clone();
        prompt.extend(self.rng.tokens(suffix_len, self.vocab));
        ChatRequest {
            due_s,
            system,
            prompt,
            output_len: self.rng.range(CHAT_OUTPUT.0, CHAT_OUTPUT.1),
        }
    }
}

impl Iterator for ChatSchedule {
    type Item = ChatRequest;

    fn next(&mut self) -> Option<ChatRequest> {
        if self.pending.is_empty() {
            let base = self.second as f64;
            self.pending = (0..self.rate_per_s)
                .map(|_| base + self.rng.unit())
                .collect();
            // Latest first, so `pop` yields arrivals in time order.
            self.pending.sort_by(|a, b| b.total_cmp(a));
            self.second += 1;
        }
        let due_s = self.pending.pop()?;
        let system = self.rng.range(0, CHAT_SYSTEM_PROMPTS - 1);
        Some(self.request_for(system, due_s))
    }
}

pub const NORM_CHAINS: usize = 8;
pub const NORM_PARAM_SETS: usize = 4;
pub const NORM_COLS: usize = 4096;
/// Rows per chain: one chain of each count in this range.
pub const NORM_ROWS: (usize, usize) = (1, 8);
/// Distinct N(0, 1) base rows that request data is cut from.
const NORM_BASE_ROWS: usize = 64;

/// One `norm_rows` chain: a fixed row count and one of the γ/β sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainSpec {
    pub rows: usize,
    pub params: usize,
}

/// The `norm_rows` inputs: chain shapes, γ/β sets, and the base rows each
/// request's data is scaled from.
#[derive(Debug, Clone, PartialEq)]
pub struct NormRowsInputs {
    pub chains: Vec<ChainSpec>,
    /// `(gamma, beta)` per parameter set.
    pub params: Vec<(Vec<f32>, Vec<f32>)>,
    base: Vec<f32>,
    seed: u64,
}

impl NormRowsInputs {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed, NORM_ROWS_STREAM << 48);
        // Chains hold 1..=8 rows, and γ/β set k serves the chains of k + 1 and
        // 8 - k rows, so every coalescible pair carries 9 rows. Every seed
        // offers the same work in the same shapes; the seed picks which chain
        // gets which shape and draws the row data.
        let mut order: Vec<usize> = (0..NORM_CHAINS).collect();
        rng.shuffle(&mut order);
        let chains = order
            .into_iter()
            .map(|i| ChainSpec {
                rows: NORM_ROWS.0 + i,
                params: i.min(NORM_CHAINS - 1 - i),
            })
            .collect();
        let params = (0..NORM_PARAM_SETS)
            .map(|_| {
                let gamma = (0..NORM_COLS)
                    .map(|_| (1.0 + 0.1 * rng.normal()) as f32)
                    .collect();
                let beta = (0..NORM_COLS)
                    .map(|_| (0.1 * rng.normal()) as f32)
                    .collect();
                (gamma, beta)
            })
            .collect();
        let base = (0..NORM_BASE_ROWS * NORM_COLS)
            .map(|_| rng.normal() as f32)
            .collect();
        Self {
            chains,
            params,
            base,
            seed,
        }
    }

    /// Row data of request `step` of `chain`: `rows` base rows from a seeded
    /// offset, scaled to the site's ISD (`log_isd`) so skip prediction sees
    /// the depth profile it was calibrated on.
    pub fn request_data(&self, chain: usize, step: u64, log_isd: f64) -> Vec<f32> {
        let rows = self.chains[chain].rows;
        let mut rng = Rng::new(
            self.seed,
            NORM_ROWS_STREAM << 48 | (chain as u64) << 40 | step,
        );
        let first = rng.range(0, NORM_BASE_ROWS - rows);
        let scale = (-log_isd).exp() as f32;
        let shift = (0.05 * rng.normal()) as f32;
        self.base[first * NORM_COLS..(first + rows) * NORM_COLS]
            .iter()
            .map(|&v| v * scale + shift)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_long_sessions_are_pure_and_seeded() {
        let a: Vec<_> = (0..16).map(|i| decode_long_session(7, i, 512)).collect();
        let b: Vec<_> = (0..16).map(|i| decode_long_session(7, i, 512)).collect();
        let c: Vec<_> = (0..16).map(|i| decode_long_session(8, i, 512)).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        for block in a.chunks(8) {
            let mut strata: Vec<usize> = block
                .iter()
                .map(|s| (s.output_len - DECODE_LONG_OUTPUT.0) / 16)
                .collect();
            strata.sort_unstable();
            assert_eq!(strata, (0..8).collect::<Vec<_>>());
        }
        for s in &a {
            assert_eq!(s.prompt.len(), DECODE_LONG_PROMPT);
            assert!((DECODE_LONG_OUTPUT.0..=DECODE_LONG_OUTPUT.1).contains(&s.output_len));
            assert!(s.prompt.iter().all(|&t| t < 512));
        }
        // Prompts are unique, so decode_long shares no prefix.
        for (i, x) in a.iter().enumerate() {
            assert!(a[i + 1..].iter().all(|y| y.prompt[..16] != x.prompt[..16]));
        }
    }

    #[test]
    fn chat_schedule_is_pure_and_seeded() {
        let a: Vec<_> = ChatSchedule::new(3, 50, 512).take(120).collect();
        let b: Vec<_> = ChatSchedule::new(3, 50, 512).take(120).collect();
        let c: Vec<_> = ChatSchedule::new(4, 50, 512).take(120).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let schedule = ChatSchedule::new(3, 50, 512);
        for (r, prev) in a.iter().skip(1).zip(&a) {
            assert!(r.due_s >= prev.due_s);
            assert_eq!(
                &r.prompt[..CHAT_SYSTEM_LEN],
                &schedule.system_prompts[r.system][..]
            );
            let suffix = r.prompt.len() - CHAT_SYSTEM_LEN;
            assert!((CHAT_SUFFIX.0..=CHAT_SUFFIX.1).contains(&suffix));
            assert!((CHAT_OUTPUT.0..=CHAT_OUTPUT.1).contains(&r.output_len));
        }
        // Every whole second offers exactly `rate` requests.
        for second in 0..2 {
            let n = a
                .iter()
                .filter(|r| r.due_s.floor() as usize == second)
                .count();
            assert_eq!(n, 50);
        }
    }

    #[test]
    fn norm_rows_inputs_are_pure_and_seeded() {
        let a = NormRowsInputs::new(11);
        assert_eq!(a, NormRowsInputs::new(11));
        assert_ne!(a.chains, NormRowsInputs::new(12).chains);
        assert_eq!(a.request_data(3, 9, 0.5), a.request_data(3, 9, 0.5));
        assert_ne!(a.request_data(3, 9, 0.5), a.request_data(3, 10, 0.5));
        let mut rows: Vec<usize> = a.chains.iter().map(|c| c.rows).collect();
        rows.sort_unstable();
        assert_eq!(rows, (NORM_ROWS.0..=NORM_ROWS.1).collect::<Vec<_>>());
        for set in 0..NORM_PARAM_SETS {
            assert_eq!(a.chains.iter().filter(|c| c.params == set).count(), 2);
        }
        for (c, chain) in a.chains.iter().enumerate() {
            assert_eq!(a.request_data(c, 0, 0.0).len(), chain.rows * NORM_COLS);
        }
        assert_ne!(a.params[0], a.params[1]);
    }
}
