//! The per-process reference engine.
//!
//! Each simulated process runs a small abstract machine: a program counter
//! walking function bodies with loops, Zipf-popular procedure calls that
//! push stack frames (emitting the register-save *write bursts* of the
//! paper's Table 1), and a data stream over stack, hot-global, drifting-heap
//! and shared regions. Deterministic credit controllers keep the
//! instruction/data and read/write mixes on their configured targets.

use std::collections::{BTreeMap, VecDeque};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vrcache_mem::access::AccessKind;
use vrcache_mem::addr::{Asid, VirtAddr};

use super::zipf::Zipf;
use super::{SynthConfigError, WorkloadConfig};

/// Virtual-memory layout of one process.
///
/// The shared segment is mapped at an ASID-dependent base (cross-process
/// synonyms) and additionally at a secondary in-process alias (intra-process
/// synonyms).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessLayout {
    /// Base of the code region.
    pub code_base: u64,
    /// Base of the hot-global region.
    pub global_base: u64,
    /// Base of the heap region.
    pub heap_base: u64,
    /// Initial stack pointer (stack grows down).
    pub stack_top: u64,
    /// Primary virtual base of the shared segment.
    pub shared_base: u64,
    /// Secondary (synonym) virtual base of the shared segment.
    pub shared_alias_base: u64,
}

impl ProcessLayout {
    /// The canonical layout for a process, spreading the shared segment's
    /// virtual placement by ASID so different processes name the same frames
    /// with different virtual addresses.
    pub fn for_asid(asid: Asid) -> Self {
        let slot = (asid.raw() as u64) % 8;
        ProcessLayout {
            code_base: 0x0040_0000,
            // Staggered so the hot global words do not collide with the
            // (page-aligned) code and shared regions in small caches.
            global_base: 0x1000_0540,
            heap_base: 0x2000_0000,
            stack_top: 0x7FFF_FF00,
            shared_base: 0x6000_0000 + slot * 0x0010_0000,
            shared_alias_base: 0x6800_0000 + ((slot + 3) % 8) * 0x0010_0000,
        }
    }
}

/// The writes-per-procedure-call distribution.
///
/// The default approximates the paper's Table 1 (*pops*): bursts of 6–12
/// writes dominate, with a small tail at 16 and a trace amount of 1–5.
#[derive(Debug, Clone)]
pub struct CallBurstWeights {
    entries: Vec<(u32, u64)>,
    total: u64,
}

impl CallBurstWeights {
    /// Builds a distribution from `(writes_per_call, weight)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`SynthConfigError::EmptyBurstWeights`] if `entries` is
    /// empty or all weights are zero.
    pub fn new(entries: Vec<(u32, u64)>) -> Result<Self, SynthConfigError> {
        let total: u64 = entries.iter().map(|(_, w)| w).sum();
        if total == 0 {
            return Err(SynthConfigError::EmptyBurstWeights);
        }
        Ok(CallBurstWeights { entries, total })
    }

    /// Samples a burst length.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        let mut draw = rng.gen_range(0..self.total);
        for (n, w) in &self.entries {
            if draw < *w {
                return *n;
            }
            draw -= w;
        }
        unreachable!("weights sum covered the draw range")
    }
}

impl Default for CallBurstWeights {
    fn default() -> Self {
        // Shape of the paper's Table 1 (counts scaled down).
        CallBurstWeights::try_default().expect("static table has positive weights")
    }
}

impl CallBurstWeights {
    fn try_default() -> Result<Self, SynthConfigError> {
        CallBurstWeights::new(vec![
            (1, 3),
            (2, 2),
            (4, 2),
            (5, 2),
            (6, 4123),
            (7, 1266),
            (8, 1246),
            (9, 2634),
            (10, 797),
            (11, 539),
            (12, 441),
            (16, 43),
        ])
    }
}

#[derive(Debug, Clone, Copy)]
struct Frame {
    ret_pc: u64,
    ret_func_base: u64,
    frame_bytes: u64,
}

const MAX_CALL_DEPTH: usize = 8;
const INSTR_BYTES: u64 = 4;
const WORD_BYTES: u64 = 4;

/// The per-process reference generator.
///
/// Pull references one at a time with [`next_ref`](Self::next_ref); the
/// engine internally steps whole instructions (one fetch plus the data
/// references the credit controller schedules).
#[derive(Debug, Clone)]
pub struct ProcessEngine {
    asid: Asid,
    rng: StdRng,
    layout: ProcessLayout,
    cfg: WorkloadConfig,
    func_zipf: Zipf,
    hot_zipf: Zipf,
    shared_zipf: Zipf,
    burst: CallBurstWeights,

    pc: u64,
    func_base: u64,
    call_stack: Vec<Frame>,
    sp: u64,
    data_credit: f64,
    write_credit: f64,
    heap_window_page: u64,
    heap_refs: u64,
    /// Ring of recently used heap addresses (hot pointers).
    heap_ring: [u64; 4],
    heap_ring_len: usize,
    heap_ring_pos: usize,
    /// A follow-up store scheduled a few instructions ahead (read-modify-
    /// write patterns), spreading inter-write intervals over 2-9 refs.
    write_echo: Option<(u64, u32)>,
    queue: VecDeque<(AccessKind, u64)>,
    call_write_hist: BTreeMap<u32, u64>,
}

impl ProcessEngine {
    /// Creates an engine for `asid`, seeded deterministically from the
    /// workload seed and the ASID.
    ///
    /// # Errors
    ///
    /// Returns a [`SynthConfigError`] if a Zipf exponent or the custom
    /// call-burst distribution in `cfg` is invalid.
    pub fn new(cfg: &WorkloadConfig, asid: Asid) -> Result<Self, SynthConfigError> {
        let layout = ProcessLayout::for_asid(asid);
        let seed = cfg
            .seed
            .wrapping_mul(0x1000_0000_01B3)
            .wrapping_add(asid.raw() as u64 + 1);
        let shared_words = cfg.shared_pages as u64 * cfg.page_size.bytes() / WORD_BYTES;
        Ok(ProcessEngine {
            asid,
            rng: StdRng::seed_from_u64(seed),
            layout,
            func_zipf: Zipf::new(cfg.code_funcs.max(1) as u64, cfg.func_zipf_s)?,
            hot_zipf: Zipf::new(cfg.hot_words.max(1) as u64, cfg.hot_zipf_s)?,
            shared_zipf: Zipf::new(shared_words.max(1), cfg.shared_zipf_s)?,
            burst: match cfg.call_burst_weights.as_ref() {
                Some(w) => CallBurstWeights::new(w.clone())?,
                None => CallBurstWeights::default(),
            },
            pc: layout.code_base,
            func_base: layout.code_base,
            call_stack: Vec::new(),
            sp: layout.stack_top,
            data_credit: 0.0,
            write_credit: 0.0,
            heap_window_page: 0,
            heap_refs: 0,
            heap_ring: [0; 4],
            heap_ring_len: 0,
            heap_ring_pos: 0,
            write_echo: None,
            queue: VecDeque::new(),
            cfg: cfg.clone(),
            call_write_hist: BTreeMap::new(),
        })
    }

    /// The process this engine models.
    pub fn asid(&self) -> Asid {
        self.asid
    }

    /// The process's memory layout.
    pub fn layout(&self) -> ProcessLayout {
        self.layout
    }

    /// Ground-truth histogram of writes-per-procedure-call emitted so far
    /// (used to validate the Table 1 analyzer).
    pub fn call_write_histogram(&self) -> &BTreeMap<u32, u64> {
        &self.call_write_hist
    }

    /// Produces the next memory reference of this process.
    pub fn next_ref(&mut self) -> (AccessKind, VirtAddr) {
        loop {
            if let Some((kind, addr)) = self.queue.pop_front() {
                return (kind, VirtAddr::new(addr));
            }
            self.step_instruction();
        }
    }

    fn push_ifetch(&mut self, addr: u64) {
        self.queue.push_back((AccessKind::InstrFetch, addr));
        self.data_credit += self.cfg.data_per_instr;
    }

    fn push_data(&mut self, kind: AccessKind, addr: u64) {
        debug_assert!(kind.is_data());
        self.queue.push_back((kind, addr));
        self.data_credit -= 1.0;
        self.write_credit += self.cfg.write_frac;
        if kind.is_write() {
            self.write_credit -= 1.0;
        }
    }

    fn step_instruction(&mut self) {
        self.push_ifetch(self.pc);
        if let Some((addr, delay)) = self.write_echo {
            if delay == 0 {
                self.write_echo = None;
                self.push_data(AccessKind::DataWrite, addr);
            } else {
                self.write_echo = Some((addr, delay - 1));
            }
        }
        let roll: f64 = self.rng.gen();
        let p_call = self.cfg.p_call;
        let p_ret = p_call; // balance calls and returns on average
        if roll < p_call && self.call_stack.len() < MAX_CALL_DEPTH {
            self.do_call();
        } else if roll < p_call + p_ret && !self.call_stack.is_empty() {
            self.do_return();
        } else if roll < p_call + p_ret + self.cfg.p_loop {
            let dist = self.rng.gen_range(1..=self.cfg.loop_len_max.max(1)) as u64;
            self.pc = self
                .pc
                .saturating_sub(dist * INSTR_BYTES)
                .max(self.func_base);
        } else {
            self.pc += INSTR_BYTES;
            if self.pc >= self.func_base + self.cfg.func_bytes {
                self.pc = self.func_base;
            }
        }
        // Drain the data-reference credit accumulated by fetches.
        while self.data_credit >= 1.0 {
            let want_write = self.write_credit >= 1.0;
            let kind = if want_write {
                AccessKind::DataWrite
            } else {
                AccessKind::DataRead
            };
            let addr = self.sample_data_addr();
            self.push_data(kind, addr);
            // Stores cluster (multi-word updates): a write often drags one
            // or two neighbours along. The credit controller compensates
            // with longer write-free stretches, keeping the overall mix on
            // target while making inter-write intervals short — the
            // phenomenon of the paper's Table 2.
            if want_write && self.rng.gen::<f64>() < 0.30 {
                let extra = self.rng.gen_range(1..=2u64);
                for j in 1..=extra {
                    self.push_data(AccessKind::DataWrite, addr + j * WORD_BYTES);
                }
            }
            if want_write && self.write_echo.is_none() && self.rng.gen::<f64>() < 0.35 {
                let delay = self.rng.gen_range(0..=4);
                self.write_echo = Some((addr + self.rng.gen_range(1..=4) * WORD_BYTES, delay));
            }
        }
    }

    fn do_call(&mut self) {
        let n_writes = self.burst.sample(&mut self.rng);
        *self.call_write_hist.entry(n_writes).or_insert(0) += 1;
        let frame_bytes = (n_writes as u64 * WORD_BYTES + 32 + 7) & !7;
        // Guard against (very unlikely) stack exhaustion in long runs.
        if self.sp < self.layout.stack_top - 0x10_0000 {
            self.sp = self.layout.stack_top;
            self.call_stack.clear();
        }
        self.sp -= frame_bytes;
        let callee = self.func_zipf.sample(&mut self.rng);
        // Function entries are staggered so prologues spread over cache
        // sets instead of all landing at page-aligned addresses.
        let callee_base = self.layout.code_base + callee * self.cfg.func_bytes + (callee % 64) * 64;
        let old_base = self.func_base;
        self.call_stack.push(Frame {
            ret_pc: self.pc + INSTR_BYTES,
            ret_func_base: old_base,
            frame_bytes,
        });
        self.func_base = callee_base;
        self.pc = self.func_base;
        // Register-save prologue: like the VAX CALLS microcode, a single
        // instruction performs the whole burst of consecutive stack writes
        // (this is what makes the paper's Table 2 interval-1 entries large).
        self.push_ifetch(self.pc);
        for j in 0..n_writes as u64 {
            self.push_data(AccessKind::DataWrite, self.sp + j * WORD_BYTES);
        }
        self.pc += INSTR_BYTES;
    }

    fn do_return(&mut self) {
        let frame = self.call_stack.pop().expect("checked nonempty");
        // Restore loads from the frame being popped.
        for j in 0..2u64 {
            self.push_data(AccessKind::DataRead, self.sp + j * WORD_BYTES);
        }
        self.sp += frame.frame_bytes;
        self.pc = frame.ret_pc;
        self.func_base = frame.ret_func_base;
    }

    fn sample_data_addr(&mut self) -> u64 {
        let cfg = &self.cfg;
        let roll: f64 = self.rng.gen();
        if roll < cfg.p_shared {
            let word = self.shared_zipf.sample(&mut self.rng);
            let base = if self.rng.gen::<f64>() < cfg.p_synonym_alias {
                self.layout.shared_alias_base
            } else {
                self.layout.shared_base
            };
            base + word * WORD_BYTES
        } else if roll < cfg.p_shared + cfg.p_stack {
            self.sp + self.rng.gen_range(0..32) * WORD_BYTES
        } else if roll < cfg.p_shared + cfg.p_stack + cfg.p_global {
            self.layout.global_base + self.hot_zipf.sample(&mut self.rng) * WORD_BYTES
        } else {
            self.heap_refs += 1;
            if self.cfg.drift_period > 0 && self.heap_refs.is_multiple_of(self.cfg.drift_period) {
                let span = cfg.heap_pages.saturating_sub(cfg.working_set_pages).max(1) as u64;
                self.heap_window_page = (self.heap_window_page + 1) % span;
            }
            let page_bytes = cfg.page_size.bytes();
            // Hot-pointer locality: most heap references re-touch one of a
            // handful of live pointers (with small jitter, occasionally
            // advancing it — an array walk); the rest jump somewhere fresh
            // in the working-set window.
            if self.heap_ring_len > 0 && self.rng.gen::<f64>() < cfg.heap_repeat {
                let idx = self.rng.gen_range(0..self.heap_ring_len);
                if self.rng.gen::<f64>() < 0.12 {
                    // Advance the pointer: sequential structure walk.
                    self.heap_ring[idx] += self.rng.gen_range(1..=4) * WORD_BYTES;
                }
                let jitter = self.rng.gen_range(0..4) * WORD_BYTES;
                (self.heap_ring[idx] + jitter).max(self.layout.heap_base)
            } else {
                let page = self.heap_window_page
                    + self.rng.gen_range(0..cfg.working_set_pages.max(1)) as u64;
                let offset = self.rng.gen_range(0..page_bytes / WORD_BYTES) * WORD_BYTES;
                let addr = self.layout.heap_base + page * page_bytes + offset;
                if self.heap_ring_len < self.heap_ring.len() {
                    self.heap_ring[self.heap_ring_len] = addr;
                    self.heap_ring_len += 1;
                } else {
                    self.heap_ring[self.heap_ring_pos] = addr;
                    self.heap_ring_pos = (self.heap_ring_pos + 1) % self.heap_ring.len();
                }
                addr
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> WorkloadConfig {
        WorkloadConfig {
            total_refs: 10_000,
            ..WorkloadConfig::default()
        }
    }

    fn run_engine(cfg: &WorkloadConfig, n: usize) -> Vec<(AccessKind, VirtAddr)> {
        let mut e = ProcessEngine::new(cfg, Asid::new(1)).unwrap();
        (0..n).map(|_| e.next_ref()).collect()
    }

    #[test]
    fn layout_varies_shared_base_by_asid() {
        let a = ProcessLayout::for_asid(Asid::new(1));
        let b = ProcessLayout::for_asid(Asid::new(2));
        assert_ne!(a.shared_base, b.shared_base);
        assert_ne!(a.shared_base, a.shared_alias_base);
        assert_eq!(a.code_base, b.code_base);
    }

    #[test]
    fn burst_weights_sample_in_support() {
        let w = CallBurstWeights::default();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..500 {
            let n = w.sample(&mut rng);
            assert!((1..=16).contains(&n));
        }
    }

    #[test]
    fn empty_burst_weights_is_typed_error() {
        assert_eq!(
            CallBurstWeights::new(vec![]).unwrap_err(),
            SynthConfigError::EmptyBurstWeights
        );
        assert_eq!(
            CallBurstWeights::new(vec![(4, 0), (8, 0)]).unwrap_err(),
            SynthConfigError::EmptyBurstWeights
        );
    }

    #[test]
    fn bad_engine_config_is_typed_error() {
        let mut cfg = small_cfg();
        cfg.func_zipf_s = -1.0;
        assert!(matches!(
            ProcessEngine::new(&cfg, Asid::new(1)),
            Err(SynthConfigError::ZipfBadTheta(_))
        ));
        let mut cfg = small_cfg();
        cfg.call_burst_weights = Some(vec![]);
        assert_eq!(
            ProcessEngine::new(&cfg, Asid::new(1)).unwrap_err(),
            SynthConfigError::EmptyBurstWeights
        );
    }

    #[test]
    fn engine_is_deterministic() {
        let cfg = small_cfg();
        let a = run_engine(&cfg, 1000);
        let b = run_engine(&cfg, 1000);
        assert_eq!(a, b);
    }

    #[test]
    fn mix_converges_to_targets() {
        let cfg = small_cfg();
        let refs = run_engine(&cfg, 60_000);
        let instr = refs.iter().filter(|(k, _)| k.is_instruction()).count() as f64;
        let data = refs.iter().filter(|(k, _)| k.is_data()).count() as f64;
        let writes = refs.iter().filter(|(k, _)| k.is_write()).count() as f64;
        let data_per_instr = data / instr;
        let write_frac = writes / data;
        assert!(
            (data_per_instr - cfg.data_per_instr).abs() < 0.05,
            "data/instr {data_per_instr} vs target {}",
            cfg.data_per_instr
        );
        assert!(
            (write_frac - cfg.write_frac).abs() < 0.02,
            "write frac {write_frac} vs target {}",
            cfg.write_frac
        );
    }

    #[test]
    fn emits_call_bursts() {
        let mut cfg = small_cfg();
        cfg.p_call = 0.05; // force frequent calls
        let mut e = ProcessEngine::new(&cfg, Asid::new(3)).unwrap();
        for _ in 0..20_000 {
            e.next_ref();
        }
        let hist = e.call_write_histogram();
        assert!(!hist.is_empty(), "no calls recorded");
        let six_plus: u64 = hist.iter().filter(|(n, _)| **n >= 6).map(|(_, c)| c).sum();
        let total: u64 = hist.values().sum();
        assert!(
            six_plus as f64 / total as f64 > 0.9,
            "most calls should save >= 6 registers"
        );
    }

    #[test]
    fn custom_burst_weights_are_honored() {
        let mut cfg = small_cfg();
        cfg.p_call = 0.05;
        cfg.call_burst_weights = Some(vec![(3, 1)]); // every call saves 3
        let mut e = ProcessEngine::new(&cfg, Asid::new(4)).unwrap();
        for _ in 0..10_000 {
            e.next_ref();
        }
        let hist = e.call_write_histogram();
        assert!(!hist.is_empty());
        assert!(
            hist.keys().all(|n| *n == 3),
            "only 3-write bursts: {hist:?}"
        );
    }

    #[test]
    fn addresses_stay_in_user_range() {
        let cfg = small_cfg();
        for (_, va) in run_engine(&cfg, 30_000) {
            assert!(va.raw() < 0x8000_0000, "address {va} out of range");
        }
    }

    #[test]
    fn shared_accesses_use_both_aliases() {
        let mut cfg = small_cfg();
        cfg.p_shared = 0.5;
        cfg.p_synonym_alias = 0.4;
        let layout = ProcessLayout::for_asid(Asid::new(1));
        let refs = run_engine(&cfg, 30_000);
        let primary = refs
            .iter()
            .filter(|(k, a)| {
                k.is_data()
                    && a.raw() >= layout.shared_base
                    && a.raw() < layout.shared_base + 0x10_0000
            })
            .count();
        let alias = refs
            .iter()
            .filter(|(k, a)| {
                k.is_data()
                    && a.raw() >= layout.shared_alias_base
                    && a.raw() < layout.shared_alias_base + 0x10_0000
            })
            .count();
        assert!(primary > 0, "no primary shared accesses");
        assert!(alias > 0, "no alias shared accesses");
        assert!(primary > alias, "primary should dominate");
    }

    #[test]
    fn heap_window_drifts() {
        let mut cfg = small_cfg();
        cfg.p_stack = 0.0;
        cfg.p_global = 0.0;
        cfg.p_shared = 0.0;
        cfg.drift_period = 100;
        let refs = run_engine(&cfg, 50_000);
        let heap_base = ProcessLayout::for_asid(Asid::new(1)).heap_base;
        let pages: std::collections::BTreeSet<u64> = refs
            .iter()
            .filter(|(k, _)| k.is_data())
            .map(|(_, a)| (a.raw() - heap_base) / cfg.page_size.bytes())
            .collect();
        assert!(
            pages.len() > cfg.working_set_pages as usize + 4,
            "window never drifted: only {} pages touched",
            pages.len()
        );
    }
}
