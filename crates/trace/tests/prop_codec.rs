//! Property tests for the binary trace codec: arbitrary event sequences
//! round-trip, arbitrary byte soup never panics the decoder, and reading
//! through the refill window in arbitrary pieces changes nothing.

use std::io::{self, Read};

use proptest::prelude::*;
use vrcache_mem::access::{AccessKind, CpuId};
use vrcache_mem::addr::{Asid, PhysAddr, VirtAddr};
use vrcache_mem::page::PageSize;
use vrcache_trace::codec::{decode, encode, CodecError, Decoder, WINDOW_BYTES};
use vrcache_trace::record::{MemAccess, TraceEvent};
use vrcache_trace::trace::Trace;

fn event_strategy() -> impl Strategy<Value = TraceEvent> {
    prop_oneof![
        8 => (any::<u16>(), any::<u16>(), 0u8..3, any::<u64>(), any::<u64>()).prop_map(
            |(cpu, asid, kind, va, pa)| {
                let kind = match kind {
                    0 => AccessKind::InstrFetch,
                    1 => AccessKind::DataRead,
                    _ => AccessKind::DataWrite,
                };
                TraceEvent::Access(MemAccess {
                    cpu: CpuId::new(cpu),
                    asid: Asid::new(asid),
                    kind,
                    vaddr: VirtAddr::new(va),
                    paddr: PhysAddr::new(pa),
                })
            }
        ),
        1 => (any::<u16>(), any::<u16>(), any::<u16>()).prop_map(|(cpu, from, to)| {
            TraceEvent::ContextSwitch {
                cpu: CpuId::new(cpu),
                from: Asid::new(from),
                to: Asid::new(to),
            }
        }),
    ]
}

/// A reader that hands out its bytes a few at a time: each `read`
/// returns the next of `steps` (1..=N) bytes, cycling.
struct Trickle<'a> {
    bytes: &'a [u8],
    steps: &'a [usize],
    reads: usize,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let step = self.steps[self.reads % self.steps.len()];
        self.reads += 1;
        let n = step.min(buf.len()).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// Everything a decode yields: the events before the first error, and
/// that error (its event index is the events' length).
type Outcome = (Vec<TraceEvent>, Option<CodecError>);

/// Decodes `bytes` through the slice decoder, one event at a time.
fn slice_outcome(bytes: &[u8]) -> Result<Outcome, CodecError> {
    let mut events = Vec::new();
    for item in Decoder::new(bytes)? {
        match item {
            Ok(event) => events.push(event),
            Err(e) => return Ok((events, Some(e))),
        }
    }
    Ok((events, None))
}

/// Decodes `bytes` read in `steps`-sized pieces, `batch` events a call.
fn windowed_outcome(bytes: &[u8], steps: &[usize], batch: usize) -> Result<Outcome, CodecError> {
    let source = Trickle {
        bytes,
        steps,
        reads: 0,
    };
    let mut d = Decoder::from_reader(source, bytes.len() as u64)?;
    let mut events = Vec::new();
    loop {
        let before = events.len();
        if let Err(e) = d.read_into(&mut events, batch) {
            return Ok((events, Some(e)));
        }
        if events.len() - before < batch {
            return Ok((events, None));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn windowed_reader_matches_slice_decode(
        events in proptest::collection::vec(event_strategy(), 1..64),
        steps in proptest::collection::vec(1usize..=97, 1..6),
        batch in 1usize..5000,
        damage in 0u8..4,
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
        tail in proptest::collection::vec(any::<u8>(), 1..8),
    ) {
        // Repeat the events until the encoding spans three windows, so
        // refills land mid-event.
        let one = encode(&Trace::new("w", 2, PageSize::SIZE_4K, events.clone())).len();
        let copies = 3 * WINDOW_BYTES / one + 1;
        let all: Vec<TraceEvent> = (0..copies).flat_map(|_| events.iter().copied()).collect();
        let mut bytes = encode(&Trace::new("w", 2, PageSize::SIZE_4K, all.clone())).to_vec();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        match damage {
            0 => {}
            1 => bytes.truncate(pos),
            2 => bytes.extend_from_slice(&tail),
            _ => bytes[pos] ^= flip,
        }
        let windowed = windowed_outcome(&bytes, &steps, batch);
        let slice = slice_outcome(&bytes);
        prop_assert_eq!(&windowed, &slice);
        // Refills are invisible: an intact stream decodes whole, a cut
        // one is a prefix of it ending in `Truncated`, extra bytes come
        // after all of it.
        match (damage, &windowed) {
            (0, _) => prop_assert_eq!(&windowed, &Ok((all, None))),
            (1, Ok((events, error))) => {
                prop_assert_eq!(error, &Some(CodecError::Truncated));
                prop_assert_eq!(&events[..], &all[..events.len()]);
            }
            (1, Err(header)) => prop_assert_eq!(header, &CodecError::Truncated),
            (2, _) => prop_assert_eq!(
                &windowed,
                &Ok((all, Some(CodecError::Corrupt("trailing bytes"))))
            ),
            _ => {}
        }
        // And `decode` agrees.
        let expected = slice.and_then(|(events, error)| error.map_or(Ok(events), Err));
        prop_assert_eq!(decode(&bytes).map(|t| t.events().to_vec()), expected);
    }
}

proptest! {
    #[test]
    fn round_trip_any_events(
        name in "[a-z]{0,12}",
        cpus in 1u16..16,
        events in proptest::collection::vec(event_strategy(), 0..200),
    ) {
        let t = Trace::new(name, cpus, PageSize::SIZE_4K, events);
        let encoded = encode(&t);
        let back = decode(&encoded).unwrap();
        prop_assert_eq!(back.name(), t.name());
        prop_assert_eq!(back.cpus(), t.cpus());
        prop_assert_eq!(back.events(), t.events());
    }

    #[test]
    fn decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode(&bytes); // must return, never panic
    }

    #[test]
    fn truncations_always_yield_typed_error(
        events in proptest::collection::vec(event_strategy(), 0..50),
        cut_frac in 0.0f64..1.0,
    ) {
        // Strictly truncating a valid encoding must surface as a typed
        // CodecError — there are no trailing pad bytes, so every proper
        // prefix loses header or event content.
        let t = Trace::new("t", 2, PageSize::SIZE_4K, events);
        let bytes = encode(&t);
        let cut = (((bytes.len() - 1) as f64) * cut_frac) as usize;
        prop_assert!(decode(&bytes[..cut]).is_err(), "cut at {} decoded", cut);
    }

    #[test]
    fn trailing_bytes_are_always_corrupt(
        events in proptest::collection::vec(event_strategy(), 0..50),
        tail in proptest::collection::vec(any::<u8>(), 1..16),
    ) {
        // Whatever follows the last declared event is rejected, so no
        // valid stream is a prefix of another valid stream.
        let t = Trace::new("t", 2, PageSize::SIZE_4K, events);
        let mut bytes = encode(&t).to_vec();
        bytes.extend_from_slice(&tail);
        prop_assert_eq!(
            decode(&bytes),
            Err(vrcache_trace::codec::CodecError::Corrupt("trailing bytes"))
        );
    }

    #[test]
    fn decoder_never_panics_on_single_flip(
        events in proptest::collection::vec(event_strategy(), 1..30),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        // A bit flip may be masked (e.g. inside an address payload it
        // just decodes a different trace), so the contract is "typed
        // result, never panic" — exercised simply by returning.
        let t = Trace::new("t", 2, PageSize::SIZE_4K, events);
        let mut bytes = encode(&t).to_vec();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= flip;
        let _ = decode(&bytes);
    }

    #[test]
    fn streaming_decoder_never_panics_on_garbage(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        if let Ok(d) = Decoder::new(&bytes) {
            for item in d {
                let _ = item; // each yielded Result is typed, never a panic
            }
        }
    }

    #[test]
    fn streaming_decoder_surfaces_truncation(
        events in proptest::collection::vec(event_strategy(), 1..50),
        cut_frac in 0.0f64..1.0,
    ) {
        let t = Trace::new("t", 2, PageSize::SIZE_4K, events);
        let bytes = encode(&t);
        let cut = (((bytes.len() - 1) as f64) * cut_frac) as usize;
        match Decoder::new(&bytes[..cut]) {
            Err(_) => {} // header or event-count cut caught up front
            Ok(d) => {
                // The count check in new() bounds remaining by the
                // buffer, so a surviving header means the cut landed
                // inside the event stream: iteration must end in a
                // typed error, never a panic.
                let results: Vec<_> = d.collect();
                prop_assert!(
                    results.last().is_none_or(|r| r.is_err()),
                    "cut at {} iterated cleanly",
                    cut
                );
            }
        }
    }

    #[test]
    fn streaming_decoder_never_panics_on_single_flip(
        events in proptest::collection::vec(event_strategy(), 1..30),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let t = Trace::new("t", 2, PageSize::SIZE_4K, events);
        let mut bytes = encode(&t).to_vec();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= flip;
        if let Ok(d) = Decoder::new(&bytes) {
            for item in d {
                let _ = item;
            }
        }
    }
}
