//! Inter-write-interval histograms (the paper's Tables 2 and 3).
//!
//! Table 2 measures, under a write-through first-level cache, how many
//! references apart successive level-one→level-two writes are: with
//! write-through every processor write goes down a level, so the interval
//! between successive *data writes of one CPU* is the quantity of interest.
//! Short intervals mean a single write buffer cannot hide the latency —
//! which is the paper's argument for write-back.
//!
//! The same histogram type is reused by the simulator for Table 3, where
//! the events are *write-backs* out of a write-back V-cache instead.

use core::fmt;
use serde::{Deserialize, Serialize};
use vrcache_mem::access::CpuId;

use crate::record::TraceEvent;
use crate::trace::Trace;

/// A bucketed interval histogram matching the paper's rows
/// (`1, 2, ..., 9, "10 and larger"`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct IntervalHistogram {
    /// `counts[i]` holds intervals of length `i + 1`, for `i < 9`.
    counts: [u64; 9],
    /// Intervals of length 10 or larger.
    ten_and_larger: u64,
    /// Number of events observed (one more than the number of intervals,
    /// per stream, roughly).
    events: u64,
}

impl IntervalHistogram {
    /// Records that an event happened `interval` references after the
    /// previous one (must be >= 1).
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn record(&mut self, interval: u64) {
        assert!(interval >= 1, "intervals are 1-based");
        if interval <= 9 {
            self.counts[(interval - 1) as usize] += 1;
        } else {
            self.ten_and_larger += 1;
        }
    }

    /// Notes one event (for the `events` bookkeeping).
    pub fn note_event(&mut self) {
        self.events += 1;
    }

    /// The interval clock: notes an event at reference `now`, records
    /// its distance from the previous event at `*last` (clamped to 1, as
    /// a bulk retirement can land several events on one reference) and
    /// advances `*last` to `now`.
    pub fn note_event_at(&mut self, last: &mut Option<u64>, now: u64) {
        self.note_event();
        if let Some(prev) = last.replace(now) {
            self.record((now - prev).max(1));
        }
    }

    /// The count for interval length `interval` (1–9), or for the
    /// "10 and larger" bucket if `interval >= 10`.
    pub fn count(&self, interval: u64) -> u64 {
        if interval == 0 {
            0
        } else if interval <= 9 {
            self.counts[(interval - 1) as usize]
        } else {
            self.ten_and_larger
        }
    }

    /// Total number of recorded intervals.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.ten_and_larger
    }

    /// Number of events observed.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Fraction of intervals that are shorter than 10 — the "need several
    /// buffers" signal the paper reads off Table 2.
    pub fn short_frac(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.counts.iter().sum::<u64>() as f64 / self.total() as f64
        }
    }
}

impl fmt::Display for IntervalHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "| interval | count |")?;
        writeln!(f, "|---|---|")?;
        for i in 0..9 {
            writeln!(f, "| {} | {} |", i + 1, self.counts[i])?;
        }
        write!(f, "| 10 and larger | {} |", self.ten_and_larger)
    }
}

/// Computes the inter-write interval histogram of `trace` for one CPU over
/// a window of `snapshot_refs` of that CPU's references (the paper uses a
/// 411,237-reference snapshot). Intervals count that CPU's references
/// between successive data writes.
///
/// # Example
///
/// ```
/// use vrcache_mem::access::CpuId;
/// use vrcache_trace::analysis::inter_write_intervals;
/// use vrcache_trace::presets::TracePreset;
///
/// let trace = TracePreset::Pops.generate_scaled(0.01);
/// let hist = inter_write_intervals(&trace, CpuId::new(0), 8_000);
/// assert!(hist.total() > 0);
/// ```
pub fn inter_write_intervals(trace: &Trace, cpu: CpuId, snapshot_refs: u64) -> IntervalHistogram {
    let mut hist = IntervalHistogram::default();
    let mut refs_seen = 0u64;
    let mut last_write_at: Option<u64> = None;
    for e in trace.iter() {
        let a = match e {
            TraceEvent::Access(a) if a.cpu == cpu => a,
            _ => continue,
        };
        refs_seen += 1;
        if refs_seen > snapshot_refs {
            break;
        }
        if a.kind.is_write() {
            hist.note_event_at(&mut last_write_at, refs_seen);
        }
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::MemAccess;
    use vrcache_mem::access::AccessKind;
    use vrcache_mem::addr::{Asid, PhysAddr, VirtAddr};
    use vrcache_mem::page::PageSize;

    fn ev(cpu: u16, kind: AccessKind) -> TraceEvent {
        TraceEvent::Access(MemAccess {
            cpu: CpuId::new(cpu),
            asid: Asid::new(1),
            kind,
            vaddr: VirtAddr::new(0),
            paddr: PhysAddr::new(0),
        })
    }

    #[test]
    fn record_and_bucket() {
        let mut h = IntervalHistogram::default();
        h.record(1);
        h.record(9);
        h.record(10);
        h.record(500);
        assert_eq!(h.count(1), 1);
        assert_eq!(h.count(9), 1);
        assert_eq!(h.count(10), 2);
        assert_eq!(h.count(99), 2, "large intervals share the last bucket");
        assert_eq!(h.total(), 4);
        assert!((h.short_frac() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn interval_clock_clamps_and_advances() {
        let mut h = IntervalHistogram::default();
        let mut last = None;
        h.note_event_at(&mut last, 4); // first event: no interval yet
        h.note_event_at(&mut last, 4); // same reference: clamped to 1
        h.note_event_at(&mut last, 16);
        assert_eq!((h.events(), h.total()), (3, 2));
        assert_eq!((h.count(1), h.count(12)), (1, 1));
        assert_eq!(last, Some(16));
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn zero_interval_panics() {
        IntervalHistogram::default().record(0);
    }

    #[test]
    fn intervals_from_synthetic_stream() {
        // cpu0 stream: W R W R R W  => intervals 2 and 3.
        let events = vec![
            ev(0, AccessKind::DataWrite),
            ev(0, AccessKind::DataRead),
            ev(0, AccessKind::DataWrite),
            ev(1, AccessKind::DataWrite), // other cpu: ignored
            ev(0, AccessKind::DataRead),
            ev(0, AccessKind::DataRead),
            ev(0, AccessKind::DataWrite),
        ];
        let t = Trace::new("t", 2, PageSize::SIZE_4K, events);
        let h = inter_write_intervals(&t, CpuId::new(0), 100);
        assert_eq!(h.count(2), 1);
        assert_eq!(h.count(3), 1);
        assert_eq!(h.total(), 2);
        assert_eq!(h.events(), 3);
    }

    #[test]
    fn snapshot_limits_window() {
        let events: Vec<_> = (0..20).map(|_| ev(0, AccessKind::DataWrite)).collect();
        let t = Trace::new("t", 1, PageSize::SIZE_4K, events);
        let h = inter_write_intervals(&t, CpuId::new(0), 5);
        assert_eq!(h.events(), 5);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn display_renders_paper_rows() {
        let mut h = IntervalHistogram::default();
        h.record(1);
        h.record(12);
        let s = h.to_string();
        assert!(s.contains("| 1 | 1 |"));
        assert!(s.contains("| 10 and larger | 1 |"));
    }

    #[test]
    fn call_bursts_make_short_intervals_dominate() {
        // A pops-like stream must show the Table 2 phenomenon: many
        // interval-1 writes from call bursts.
        let t = crate::presets::TracePreset::Pops.generate_scaled(0.02);
        let h = inter_write_intervals(&t, CpuId::new(0), 10_000);
        assert!(h.count(1) > 0, "no back-to-back writes found");
        assert!(h.short_frac() > 0.3, "short intervals should be common");
    }
}
