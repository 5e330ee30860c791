//! The in-memory trace container and its summary statistics.

use core::fmt;
use serde::{Deserialize, Serialize};
use vrcache_mem::access::AccessKind;
use vrcache_mem::page::PageSize;

use crate::record::TraceEvent;

/// A complete multiprocessor trace.
///
/// Traces are generated once (or decoded from the binary format) and then
/// replayed — possibly many times — against different cache hierarchies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    name: String,
    cpus: u16,
    page_size: PageSize,
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Wraps a pre-built event sequence.
    pub fn new(
        name: impl Into<String>,
        cpus: u16,
        page_size: PageSize,
        events: Vec<TraceEvent>,
    ) -> Self {
        Trace {
            name: name.into(),
            cpus,
            page_size,
            events,
        }
    }

    /// The trace's name (e.g. `"pops"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of processors the trace was captured on.
    pub fn cpus(&self) -> u16 {
        self.cpus
    }

    /// The page size translations were generated under.
    pub fn page_size(&self) -> PageSize {
        self.page_size
    }

    /// The event sequence.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events (references + context switches).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates over the events.
    pub fn iter(&self) -> std::slice::Iter<'_, TraceEvent> {
        self.events.iter()
    }

    /// Computes the trace characteristics reported in the paper's Table 5.
    pub fn summary(&self) -> TraceSummary {
        let mut s = TraceSummary::new(self.name.clone(), self.cpus);
        for e in &self.events {
            s.record(e);
        }
        s
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a TraceEvent;
    type IntoIter = std::slice::Iter<'a, TraceEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

/// Per-trace characteristics — one row of the paper's Table 5.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceSummary {
    /// Trace name.
    pub name: String,
    /// Number of CPUs.
    pub cpus: u16,
    /// Total memory references.
    pub total_refs: u64,
    /// Instruction fetches.
    pub instr_count: u64,
    /// Data reads.
    pub data_reads: u64,
    /// Data writes.
    pub data_writes: u64,
    /// Context switches.
    pub context_switches: u64,
}

impl TraceSummary {
    /// The summary of a trace with no events yet.
    pub fn new(name: impl Into<String>, cpus: u16) -> Self {
        TraceSummary {
            name: name.into(),
            cpus,
            ..TraceSummary::default()
        }
    }

    /// Counts one event — the fold [`Trace::summary`] runs, exposed so a
    /// streamed trace can be summarized without materializing it.
    pub fn record(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::Access(a) => {
                self.total_refs += 1;
                match a.kind {
                    AccessKind::InstrFetch => self.instr_count += 1,
                    AccessKind::DataRead => self.data_reads += 1,
                    AccessKind::DataWrite => self.data_writes += 1,
                }
            }
            TraceEvent::ContextSwitch { .. } => self.context_switches += 1,
        }
    }

    /// Data references (reads + writes).
    pub fn data_refs(&self) -> u64 {
        self.data_reads + self.data_writes
    }

    /// Fraction of data references that are writes.
    pub fn write_frac(&self) -> f64 {
        if self.data_refs() == 0 {
            0.0
        } else {
            self.data_writes as f64 / self.data_refs() as f64
        }
    }
}

impl fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} cpus, {} refs ({} instr, {} read, {} write), {} context switches",
            self.name,
            self.cpus,
            self.total_refs,
            self.instr_count,
            self.data_reads,
            self.data_writes,
            self.context_switches
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::MemAccess;
    use vrcache_mem::access::CpuId;
    use vrcache_mem::addr::{Asid, PhysAddr, VirtAddr};

    fn acc(kind: AccessKind) -> TraceEvent {
        TraceEvent::Access(MemAccess {
            cpu: CpuId::new(0),
            asid: Asid::new(1),
            kind,
            vaddr: VirtAddr::new(0),
            paddr: PhysAddr::new(0),
        })
    }

    #[test]
    fn summary_counts_by_kind() {
        let events = vec![
            acc(AccessKind::InstrFetch),
            acc(AccessKind::DataRead),
            acc(AccessKind::DataRead),
            acc(AccessKind::DataWrite),
            TraceEvent::ContextSwitch {
                cpu: CpuId::new(0),
                from: Asid::new(1),
                to: Asid::new(2),
            },
        ];
        let t = Trace::new("t", 1, PageSize::SIZE_4K, events);
        let s = t.summary();
        assert_eq!(s.total_refs, 4);
        assert_eq!(s.instr_count, 1);
        assert_eq!(s.data_reads, 2);
        assert_eq!(s.data_writes, 1);
        assert_eq!(s.context_switches, 1);
        assert_eq!(s.data_refs(), 3);
        assert!((s.write_frac() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new("e", 2, PageSize::SIZE_4K, vec![]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.summary().write_frac(), 0.0);
        assert_eq!(t.cpus(), 2);
        assert_eq!(t.name(), "e");
    }

    #[test]
    fn iteration_matches_events() {
        let t = Trace::new("i", 1, PageSize::SIZE_4K, vec![acc(AccessKind::DataRead)]);
        assert_eq!(t.iter().count(), 1);
        assert_eq!((&t).into_iter().count(), 1);
        assert_eq!(t.events().len(), 1);
    }

    #[test]
    fn summary_display() {
        let t = Trace::new(
            "demo",
            4,
            PageSize::SIZE_4K,
            vec![acc(AccessKind::DataWrite)],
        );
        let s = t.summary().to_string();
        assert!(s.contains("demo"));
        assert!(s.contains("4 cpus"));
    }
}
