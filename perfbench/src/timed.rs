//! Thin timing wrappers around the calls the traced pass measures:
//! `CacheHierarchy::access`, `snoop` and `context_switch`, and
//! `SystemBus::issue`.
//!
//! The workspace's hot-path lint fans every `.access(..)`, `.snoop(..)`
//! and `.issue(..)` call out to every method of that name, so these
//! wrappers join the linted hot set. They therefore contain no
//! allocation site: every call folds into fixed fields, and the last
//! [`SPAN_CAP`] call durations land in fixed arrays that the driver loop
//! reads back (and resets) around a sampled reference. Time is read only
//! through `criterion::time_fn`, the workspace's one sanctioned clock.

use std::time::Duration;

use criterion::time_fn;
use vrcache::bus_api::{BusRequest, BusResponse, SnoopReply, SystemBus};
use vrcache::events::HierarchyEvents;
use vrcache::hierarchy::{AccessOutcome, BlockPresence, CacheHierarchy};
use vrcache::invariant::InvariantViolation;
use vrcache_bus::oracle::{CoherenceViolation, VersionOracle};
use vrcache_bus::txn::BusTransaction;
use vrcache_cache::geometry::BlockId;
use vrcache_cache::stats::CacheStats;
use vrcache_cache::write_buffer::WriteBufferStats;
use vrcache_mem::access::CpuId;
use vrcache_mem::addr::{Asid, Vpn};
use vrcache_trace::record::MemAccess;

/// Call durations kept per hierarchy between two resets by the driver.
pub const SPAN_CAP: usize = 64;

/// Sums, counts and the recent-call log of one timed call site.
#[derive(Debug, Clone, Copy)]
pub struct CallLog {
    /// Total time inside the call.
    pub time: Duration,
    /// Number of calls.
    pub calls: u64,
    /// Durations of the first [`SPAN_CAP`] calls since the last reset.
    pub recent: [Duration; SPAN_CAP],
    /// How many entries of `recent` are filled.
    pub logged: usize,
}

impl CallLog {
    const EMPTY: CallLog = CallLog {
        time: Duration::ZERO,
        calls: 0,
        recent: [Duration::ZERO; SPAN_CAP],
        logged: 0,
    };
}

/// Folds one call of duration `took` into `log`.
fn fold_call(log: &mut CallLog, took: Duration) {
    log.time += took;
    log.calls += 1;
    if log.logged < SPAN_CAP {
        log.recent[log.logged] = took;
        log.logged += 1;
    }
}

/// A hierarchy whose `access`, `snoop` and `context_switch` are timed.
/// Every other method delegates untimed.
pub struct TimedHier {
    inner: Box<dyn CacheHierarchy>,
    /// `access` calls, bus time included.
    pub access: CallLog,
    /// `issue` calls made on the bus from inside this hierarchy's accesses.
    pub issue: CallLog,
    /// `snoop` calls this hierarchy serviced.
    pub snoop: CallLog,
    /// `context_switch` calls.
    pub switch: CallLog,
}

impl TimedHier {
    /// Wraps `inner` with all sums at zero.
    pub fn wrap(inner: Box<dyn CacheHierarchy>) -> TimedHier {
        TimedHier {
            inner,
            access: CallLog::EMPTY,
            issue: CallLog::EMPTY,
            snoop: CallLog::EMPTY,
            switch: CallLog::EMPTY,
        }
    }

    /// Empties the recent-call logs (sums and counts are kept).
    pub fn reset_recent(&mut self) {
        self.access.logged = 0;
        self.issue.logged = 0;
        self.snoop.logged = 0;
        self.switch.logged = 0;
    }
}

/// The bus handed to the wrapped hierarchy: times each `issue` into the
/// issuing hierarchy's [`CallLog`].
struct TimedBus<'a> {
    inner: &'a mut dyn SystemBus,
    log: &'a mut CallLog,
}

impl SystemBus for TimedBus<'_> {
    fn issue(&mut self, request: BusRequest) -> BusResponse {
        let inner = &mut *self.inner;
        let (response, took) = time_fn(|| inner.issue(request));
        fold_call(self.log, took);
        response
    }
}

impl CacheHierarchy for TimedHier {
    fn access(
        &mut self,
        access: &MemAccess,
        bus: &mut dyn SystemBus,
        oracle: &mut VersionOracle,
    ) -> Result<AccessOutcome, CoherenceViolation> {
        let inner = &mut self.inner;
        let mut timed = TimedBus {
            inner: bus,
            log: &mut self.issue,
        };
        let (outcome, took) = time_fn(|| inner.access(access, &mut timed, oracle));
        fold_call(&mut self.access, took);
        outcome
    }

    fn context_switch(&mut self, from: Asid, to: Asid) {
        let inner = &mut self.inner;
        let ((), took) = time_fn(|| inner.context_switch(from, to));
        fold_call(&mut self.switch, took);
    }

    fn tlb_shootdown(&mut self, asid: Asid, vpn: Vpn, bus: &mut dyn SystemBus) -> u32 {
        self.inner.tlb_shootdown(asid, vpn, bus)
    }

    fn snoop(&mut self, txn: &BusTransaction) -> SnoopReply {
        let inner = &mut self.inner;
        let (reply, took) = time_fn(|| inner.snoop(txn));
        fold_call(&mut self.snoop, took);
        reply
    }

    fn coh_presence(&self, block: BlockId) -> BlockPresence {
        self.inner.coh_presence(block)
    }

    fn cpu(&self) -> CpuId {
        self.inner.cpu()
    }

    fn l1_stats(&self) -> CacheStats {
        self.inner.l1_stats()
    }

    fn l1_split_stats(&self) -> Option<(CacheStats, CacheStats)> {
        self.inner.l1_split_stats()
    }

    fn l2_stats(&self) -> CacheStats {
        self.inner.l2_stats()
    }

    fn events(&self) -> &HierarchyEvents {
        self.inner.events()
    }

    fn write_buffer_stats(&self) -> WriteBufferStats {
        self.inner.write_buffer_stats()
    }

    fn check_invariants(&self) -> Result<(), InvariantViolation> {
        self.inner.check_invariants()
    }
}
