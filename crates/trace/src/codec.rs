//! A compact binary trace format.
//!
//! Generated traces can be serialized once and replayed many times (or
//! shipped between machines) without regenerating. Version 2 frames each
//! event as one header byte plus LEB128 varints, with every address
//! stored as a delta from the previous address of its stream; the paper's
//! presets take about 5 bytes per event.
//!
//! ```text
//! file   := "VRTR" | version:u16 (= 2) | cpus:u16 (> 0) | page_bytes:u64
//!         | name_len:u16 | name:utf8 | event_count:u64 | event*
//!
//! event  := head:u8 [cpu:varint] body
//!   head bit 0    tag: 0 = access, 1 = context switch
//!   head bits 1-2 access kind (0 instr fetch, 1 data read, 2 data write)
//!   head bit 3    access only: asid:varint follows (the slot's asid changed)
//!   head bits 4-7 cpu slot: the cpu id if below 15; 15 escapes, and the
//!                 cpu:varint that follows holds the id
//!   (bits 1-3 are zero in a switch head)
//!
//! access := [asid:varint] vaddr_delta:zvarint paddr_delta:zvarint
//! switch := from:varint to:varint           (the slot's asid becomes `to`)
//!
//! varint  := unsigned LEB128, at most 10 bytes
//! zvarint := varint of the zigzag-encoded wrapping difference
//! ```
//!
//! The buffer ends with the last declared event: bytes left over after
//! `event_count` events are [`CodecError::Corrupt`]`("trailing bytes")`,
//! so a count corrupted downward cannot replay a silent prefix.
//!
//! Integers in the file header are little-endian. The delta state starts
//! at zero: every cpu slot has a current asid, and every (cpu slot,
//! instruction / data) stream has a previous virtual and a previous
//! physical address. A vaddr is a delta from the previous vaddr of its
//! stream and a paddr from the previous paddr, so the two address spaces
//! never mix. Version 1 files (fixed-width, 22 bytes per access) are
//! rejected with [`CodecError::UnsupportedVersion`]; regenerate them with
//! `vrsim gen`.
//!
//! The [`Decoder`] reads any [`Read`] source, a file as well as a buffer,
//! through a fixed 64 KiB window that it refills only when less than one
//! maximal event encoding is left, so replay memory does not grow with
//! the trace. A read that fails is [`CodecError::Io`].

use core::fmt;
use std::io::{self, Read};

use bytes::{BufMut, Bytes};
use vrcache_mem::access::{AccessKind, CpuId};
use vrcache_mem::addr::{Asid, PhysAddr, VirtAddr};
use vrcache_mem::page::PageSize;

use crate::record::{MemAccess, TraceEvent};
use crate::trace::Trace;

const MAGIC: &[u8; 4] = b"VRTR";
const VERSION: u16 = 2;
/// Bytes of the fixed-width header fields around the name.
const HEADER_BYTES: usize = 4 + 2 + 2 + 8 + 2 + 8;
/// Head byte: set for a context switch, clear for an access.
const TAG_SWITCH: u8 = 0x01;
/// Head byte, access: the asid varint follows.
const ASID_FOLLOWS: u8 = 0x08;
/// Head byte: the bits a context switch must leave clear.
const SWITCH_RESERVED: u8 = 0x0e;
/// The cpu slot that escapes to an explicit cpu varint.
const ESCAPE: u8 = 15;
/// Cpu slots: ids 0..15 plus the escape slot.
const SLOTS: usize = 16;
/// The longest LEB128 encoding of a `u64`.
const MAX_VARINT_BYTES: usize = 10;
/// The shortest event: a head byte and two one-byte varints.
const MIN_EVENT_BYTES: usize = 3;
/// The most bytes the parser reads for one event: a head byte and four
/// varints (cpu, asid and both deltas; a switch reads fewer). With this
/// many bytes in the window the parser never runs off its end; once the
/// source has ended the window is all there is, so a `Truncated` from
/// the parser always means the input really ended.
const MAX_EVENT_BYTES: usize = 1 + 4 * MAX_VARINT_BYTES;
/// The size of the fixed refill window a [`Decoder`] reads its source
/// through.
pub const WINDOW_BYTES: usize = 64 * 1024;

/// Errors from [`decode`] and [`Decoder`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// The buffer does not start with the `VRTR` magic.
    BadMagic,
    /// The format version is not supported.
    UnsupportedVersion(u16),
    /// The buffer ended before the declared content did.
    Truncated,
    /// A header field, event head, varint or field value was invalid.
    Corrupt(&'static str),
    /// Reading the input failed.
    Io(io::ErrorKind),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "missing VRTR magic"),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported trace version {v}"),
            CodecError::Truncated => write!(f, "trace buffer ended early"),
            CodecError::Corrupt(what) => write!(f, "corrupt trace field: {what}"),
            CodecError::Io(kind) => write!(f, "reading the trace failed: {kind}"),
        }
    }
}

impl std::error::Error for CodecError {}

fn kind_to_u8(k: AccessKind) -> u8 {
    match k {
        AccessKind::InstrFetch => 0,
        AccessKind::DataRead => 1,
        AccessKind::DataWrite => 2,
    }
}

fn kind_from_u8(v: u8) -> Option<AccessKind> {
    match v {
        0 => Some(AccessKind::InstrFetch),
        1 => Some(AccessKind::DataRead),
        2 => Some(AccessKind::DataWrite),
        _ => None,
    }
}

/// The head-byte cpu slot of `cpu`.
fn slot_of(cpu: CpuId) -> u8 {
    u8::try_from(cpu.raw()).map_or(ESCAPE, |c| c.min(ESCAPE))
}

/// The address stream of an access: its cpu slot, split into the
/// instruction and the data stream.
fn stream(slot: u8, kind: AccessKind) -> usize {
    2 * usize::from(slot) + usize::from(kind == AccessKind::InstrFetch)
}

fn zigzag(delta: u64) -> u64 {
    (delta << 1) ^ ((delta as i64 >> 63) as u64)
}

fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

/// The delta state the encoder and the decoder keep in step: each cpu
/// slot's current asid, and each stream's previous addresses.
#[derive(Debug, Default)]
struct Streams {
    asid: [Asid; SLOTS],
    vaddr: [VirtAddr; 2 * SLOTS],
    paddr: [PhysAddr; 2 * SLOTS],
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn put_event(out: &mut Vec<u8>, streams: &mut Streams, event: &TraceEvent) {
    let cpu = event.cpu();
    let slot = slot_of(cpu);
    let s = usize::from(slot);
    match *event {
        TraceEvent::Access(a) => {
            let asid_changed = streams.asid[s] != a.asid;
            out.push(
                (slot << 4)
                    | if asid_changed { ASID_FOLLOWS } else { 0 }
                    | (kind_to_u8(a.kind) << 1),
            );
            if slot == ESCAPE {
                put_varint(out, u64::from(cpu.raw()));
            }
            if asid_changed {
                put_varint(out, u64::from(a.asid.raw()));
                streams.asid[s] = a.asid;
            }
            let st = stream(slot, a.kind);
            put_varint(out, zigzag(a.vaddr.distance_from(streams.vaddr[st])));
            put_varint(out, zigzag(a.paddr.distance_from(streams.paddr[st])));
            streams.vaddr[st] = a.vaddr;
            streams.paddr[st] = a.paddr;
        }
        TraceEvent::ContextSwitch { from, to, .. } => {
            out.push((slot << 4) | TAG_SWITCH);
            if slot == ESCAPE {
                put_varint(out, u64::from(cpu.raw()));
            }
            put_varint(out, u64::from(from.raw()));
            put_varint(out, u64::from(to.raw()));
            streams.asid[s] = to;
        }
    }
}

/// Serializes a trace to its binary form.
///
/// # Example
///
/// ```
/// use vrcache_trace::codec::{decode, encode};
/// use vrcache_trace::presets::TracePreset;
///
/// # fn main() -> Result<(), vrcache_trace::codec::CodecError> {
/// let t = TracePreset::Thor.generate_scaled(0.002);
/// let bytes = encode(&t);
/// let back = decode(&bytes)?;
/// assert_eq!(back.events(), t.events());
/// # Ok(())
/// # }
/// ```
pub fn encode(trace: &Trace) -> Bytes {
    let name = trace.name().as_bytes();
    let mut out = Vec::with_capacity(HEADER_BYTES + name.len() + trace.len() * 6);
    out.put_slice(MAGIC);
    out.put_u16_le(VERSION);
    out.put_u16_le(trace.cpus());
    out.put_u64_le(trace.page_size().bytes());
    out.put_u16_le(name.len() as u16);
    out.put_slice(name);
    out.put_u64_le(trace.len() as u64);
    let mut streams = Streams::default();
    for e in trace {
        put_event(&mut out, &mut streams, e);
    }
    Bytes::from(out)
}

/// Parses a binary trace produced by [`encode`]: collects a [`Decoder`]
/// over the buffer.
///
/// # Errors
///
/// Returns a [`CodecError`] on bad magic, an unsupported version, a
/// truncated buffer, or invalid field values.
pub fn decode(buf: &[u8]) -> Result<Trace, CodecError> {
    Decoder::new(buf)?.into_trace()
}

/// A streaming decoder: reads its source through a fixed-size refill
/// window and yields events without materializing the whole trace, so a
/// stored trace of any length replays in bounded memory. The one parser
/// of the format: a buffer ([`Decoder::new`]) is just a source like a
/// file ([`Decoder::from_reader`]), and [`decode`] collects it. Events
/// come one at a time from the [`Iterator`], or a batch at a time from
/// [`Decoder::read_into`].
///
/// # Example
///
/// ```
/// use vrcache_trace::codec::{encode, Decoder};
/// use vrcache_trace::presets::TracePreset;
///
/// # fn main() -> Result<(), vrcache_trace::codec::CodecError> {
/// let t = TracePreset::Thor.generate_scaled(0.002);
/// let bytes = encode(&t);
/// let mut decoder = Decoder::new(&bytes)?;
/// assert_eq!(decoder.cpus(), t.cpus());
/// let events: Result<Vec<_>, _> = decoder.by_ref().collect();
/// assert_eq!(events?, t.events());
/// # Ok(())
/// # }
/// ```
pub struct Decoder<R> {
    source: R,
    /// `window[pos..end]` is read from the source but not yet parsed.
    window: Box<[u8]>,
    pos: usize,
    end: usize,
    /// The source has reported its end.
    exhausted: bool,
    name: String,
    cpus: u16,
    page: PageSize,
    remaining: u64,
    streams: Streams,
    failed: bool,
}

impl<'a> Decoder<&'a [u8]> {
    /// Parses the header of an in-memory trace and positions the decoder
    /// at the first event.
    ///
    /// # Errors
    ///
    /// As [`Decoder::from_reader`].
    pub fn new(buf: &'a [u8]) -> Result<Self, CodecError> {
        Decoder::from_reader(buf, buf.len() as u64)
    }
}

impl<R: Read> Decoder<R> {
    /// Parses the header read from `source`, which holds `len` bytes in
    /// all (a file's length), and positions the decoder at the first
    /// event.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] for a bad header, including a cpu count
    /// of zero and an event count that `len` bytes cannot hold, and for a
    /// failed read.
    pub fn from_reader(source: R, len: u64) -> Result<Self, CodecError> {
        let mut d = Decoder {
            source,
            window: vec![0; WINDOW_BYTES].into_boxed_slice(),
            pos: 0,
            end: 0,
            exhausted: false,
            name: String::new(),
            cpus: 0,
            page: PageSize::SIZE_4K,
            remaining: 0,
            streams: Streams::default(),
            failed: false,
        };
        if d.array::<4>()? != *MAGIC {
            return Err(CodecError::BadMagic);
        }
        let version = u16::from_le_bytes(d.array()?);
        if version != VERSION {
            return Err(CodecError::UnsupportedVersion(version));
        }
        d.cpus = u16::from_le_bytes(d.array()?);
        if d.cpus == 0 {
            return Err(CodecError::Corrupt("cpu count"));
        }
        d.page = PageSize::new(u64::from_le_bytes(d.array()?))
            .map_err(|_| CodecError::Corrupt("page size"))?;
        let name_len = usize::from(u16::from_le_bytes(d.array()?));
        // The name may outgrow the window: copy it out piece by piece.
        let mut name = Vec::with_capacity(name_len);
        while name.len() < name_len {
            d.ensure(1)?;
            let piece = (name_len - name.len()).min(d.end - d.pos);
            if piece == 0 {
                return Err(CodecError::Truncated);
            }
            name.extend_from_slice(&d.window[d.pos..d.pos + piece]);
            d.pos += piece;
        }
        d.name = String::from_utf8(name).map_err(|_| CodecError::Corrupt("name"))?;
        d.remaining = u64::from_le_bytes(d.array()?);
        // Every event occupies at least MIN_EVENT_BYTES, so a count the
        // rest of the input cannot hold is certainly truncated.
        let body = len.saturating_sub((HEADER_BYTES + name_len) as u64);
        if d.remaining > body / MIN_EVENT_BYTES as u64 {
            return Err(CodecError::Truncated);
        }
        Ok(d)
    }

    /// The trace's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of CPUs.
    pub fn cpus(&self) -> u16 {
        self.cpus
    }

    /// The page size the trace was generated under.
    pub fn page_size(&self) -> PageSize {
        self.page
    }

    /// Events not yet yielded.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Appends the next events to `out`, up to `max`: fewer only when the
    /// stream ends.
    ///
    /// # Errors
    ///
    /// The first [`CodecError`] of the stream: the events before it stay
    /// appended, and the decoder yields nothing after it.
    pub fn read_into(&mut self, out: &mut Vec<TraceEvent>, max: usize) -> Result<(), CodecError> {
        if self.failed {
            return Ok(());
        }
        let result = self.parse_into(out, max);
        self.failed = result.is_err();
        result
    }

    /// Collects the rest of the stream into a [`Trace`].
    ///
    /// # Errors
    ///
    /// The first [`CodecError`] of the stream.
    pub fn into_trace(mut self) -> Result<Trace, CodecError> {
        // The header check bounds the count by the input length, so a
        // corrupt count cannot request an outsized allocation here.
        let mut events = Vec::with_capacity(self.remaining as usize);
        self.read_into(&mut events, usize::MAX)?;
        Ok(Trace::new(self.name, self.cpus, self.page, events))
    }

    fn parse_into(&mut self, out: &mut Vec<TraceEvent>, mut max: usize) -> Result<(), CodecError> {
        while max > 0 {
            if self.remaining == 0 {
                return self.end_of_events();
            }
            self.ensure(MAX_EVENT_BYTES)?;
            // Parse while the window surely holds the next event whole,
            // without going back to the source in between.
            let mut cursor = Cursor {
                buf: &self.window[self.pos..self.end],
            };
            let batch = self.remaining.min(max as u64);
            let mut parsed = 0;
            let result = loop {
                if parsed == batch || (cursor.buf.len() < MAX_EVENT_BYTES && !self.exhausted) {
                    break Ok(());
                }
                match cursor.next_event(&mut self.streams) {
                    Ok(event) => out.push(event),
                    Err(e) => break Err(e),
                }
                parsed += 1;
            };
            self.pos = self.end - cursor.buf.len();
            self.remaining -= parsed;
            max -= parsed as usize;
            result?;
        }
        Ok(())
    }

    /// The next declared event; the count must not be spent.
    #[inline]
    fn step(&mut self) -> Result<TraceEvent, CodecError> {
        self.ensure(MAX_EVENT_BYTES)?;
        let mut cursor = Cursor {
            buf: &self.window[self.pos..self.end],
        };
        let event = cursor.next_event(&mut self.streams)?;
        self.pos = self.end - cursor.buf.len();
        self.remaining -= 1;
        Ok(event)
    }

    /// Checks that the input ends with the last declared event.
    fn end_of_events(&mut self) -> Result<(), CodecError> {
        self.ensure(1)?;
        if self.pos == self.end {
            Ok(())
        } else {
            Err(CodecError::Corrupt("trailing bytes"))
        }
    }

    /// Refills the window when fewer than `want` unparsed bytes remain
    /// and the source may hold more.
    #[inline]
    fn ensure(&mut self, want: usize) -> Result<(), CodecError> {
        if self.end - self.pos < want && !self.exhausted {
            self.refill()
        } else {
            Ok(())
        }
    }

    /// Moves the unparsed bytes to the front of the window and reads
    /// until the window is full or the source ends.
    fn refill(&mut self) -> Result<(), CodecError> {
        self.window.copy_within(self.pos..self.end, 0);
        self.end -= self.pos;
        self.pos = 0;
        while self.end < self.window.len() {
            match Read::read(&mut self.source, &mut self.window[self.end..]) {
                Ok(0) => {
                    self.exhausted = true;
                    break;
                }
                Ok(n) => self.end += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(CodecError::Io(e.kind())),
            }
        }
        Ok(())
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        self.ensure(N)?;
        let bytes = *self.window[self.pos..self.end]
            .first_chunk::<N>()
            .ok_or(CodecError::Truncated)?;
        self.pos += N;
        Ok(bytes)
    }
}

impl<R> fmt::Debug for Decoder<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Decoder")
            .field("name", &self.name)
            .field("cpus", &self.cpus)
            .field("remaining", &self.remaining)
            .field("failed", &self.failed)
            .finish_non_exhaustive()
    }
}

impl<R: Read> Iterator for Decoder<R> {
    type Item = Result<TraceEvent, CodecError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        let item = if self.remaining == 0 {
            Err(self.end_of_events().err()?)
        } else {
            self.step()
        };
        self.failed = item.is_err();
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.failed {
            (0, Some(0))
        } else {
            // One more item if bytes may outlast the declared events.
            let more = self.pos < self.end || !self.exhausted;
            (0, Some(self.remaining as usize + usize::from(more)))
        }
    }
}

/// The slice parser: reads event fields off the front of `buf`.
struct Cursor<'b> {
    buf: &'b [u8],
}

impl Cursor<'_> {
    #[inline]
    fn varint(&mut self) -> Result<u64, CodecError> {
        // Most deltas fit in one byte.
        if let [byte @ 0..=0x7f, rest @ ..] = self.buf {
            self.buf = rest;
            return Ok(u64::from(*byte));
        }
        self.long_varint()
    }

    fn long_varint(&mut self) -> Result<u64, CodecError> {
        let mut value = 0u64;
        for (i, &byte) in self.buf.iter().take(MAX_VARINT_BYTES).enumerate() {
            value |= u64::from(byte & 0x7f) << (7 * i);
            if byte < 0x80 {
                // The tenth byte holds bit 63 only.
                if i == MAX_VARINT_BYTES - 1 && byte > 1 {
                    break;
                }
                self.buf = &self.buf[i + 1..];
                return Ok(value);
            }
        }
        if self.buf.len() < MAX_VARINT_BYTES {
            Err(CodecError::Truncated)
        } else {
            Err(CodecError::Corrupt("overlong varint"))
        }
    }

    fn varint_u16(&mut self, what: &'static str) -> Result<u16, CodecError> {
        u16::try_from(self.varint()?).map_err(|_| CodecError::Corrupt(what))
    }

    fn next_event(&mut self, streams: &mut Streams) -> Result<TraceEvent, CodecError> {
        let [head, rest @ ..] = self.buf else {
            return Err(CodecError::Truncated);
        };
        let head = *head;
        self.buf = rest;
        let slot = head >> 4;
        let s = usize::from(slot);
        let cpu = if slot == ESCAPE {
            CpuId::new(self.varint_u16("cpu")?)
        } else {
            CpuId::new(u16::from(slot))
        };
        if head & TAG_SWITCH != 0 {
            if head & SWITCH_RESERVED != 0 {
                return Err(CodecError::Corrupt("switch head"));
            }
            let from = Asid::new(self.varint_u16("asid")?);
            let to = Asid::new(self.varint_u16("asid")?);
            streams.asid[s] = to;
            return Ok(TraceEvent::ContextSwitch { cpu, from, to });
        }
        let kind = kind_from_u8((head >> 1) & 0x3).ok_or(CodecError::Corrupt("access kind"))?;
        if head & ASID_FOLLOWS != 0 {
            streams.asid[s] = Asid::new(self.varint_u16("asid")?);
        }
        let st = stream(slot, kind);
        let vaddr = streams.vaddr[st].offset(unzigzag(self.varint()?));
        let paddr = streams.paddr[st].offset(unzigzag(self.varint()?));
        streams.vaddr[st] = vaddr;
        streams.paddr[st] = paddr;
        Ok(TraceEvent::Access(MemAccess {
            cpu,
            asid: streams.asid[s],
            kind,
            vaddr,
            paddr,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{generate, WorkloadConfig};

    fn small_trace() -> Trace {
        generate(&WorkloadConfig {
            total_refs: 2_000,
            cpus: 2,
            context_switches: 3,
            ..WorkloadConfig::default()
        })
    }

    #[test]
    fn round_trip_preserves_everything() {
        let t = small_trace();
        let encoded = encode(&t);
        let back = decode(&encoded).unwrap();
        assert_eq!(back.name(), t.name());
        assert_eq!(back.cpus(), t.cpus());
        assert_eq!(back.page_size(), t.page_size());
        assert_eq!(back.events(), t.events());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode(&small_trace()).to_vec();
        bytes[0] = b'X';
        assert_eq!(decode(&bytes), Err(CodecError::BadMagic));
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = encode(&small_trace()).to_vec();
        bytes[4] = 0xFF;
        assert!(matches!(
            decode(&bytes),
            Err(CodecError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn truncation_rejected() {
        let bytes = encode(&small_trace());
        for cut in [3, 10, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} should fail");
        }
    }

    /// Offset of the first event: the fixed header fields plus the name.
    fn first_event_at(t: &Trace) -> usize {
        HEADER_BYTES + t.name().len()
    }

    #[test]
    fn corrupt_kind_rejected() {
        let t = small_trace();
        assert!(!t.events()[0].is_context_switch());
        let mut bytes = encode(&t).to_vec();
        bytes[first_event_at(&t)] |= 0b110;
        assert_eq!(decode(&bytes), Err(CodecError::Corrupt("access kind")));
    }

    #[test]
    fn version_one_header_is_unsupported() {
        let mut bytes = encode(&small_trace()).to_vec();
        bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
        assert_eq!(decode(&bytes), Err(CodecError::UnsupportedVersion(1)));
        assert_eq!(
            Decoder::new(&bytes).err(),
            Some(CodecError::UnsupportedVersion(1))
        );
    }

    #[test]
    fn zero_cpu_header_rejected() {
        let mut bytes = encode(&small_trace()).to_vec();
        bytes[6..8].copy_from_slice(&0u16.to_le_bytes());
        assert_eq!(
            Decoder::new(&bytes).err(),
            Some(CodecError::Corrupt("cpu count"))
        );
        assert_eq!(decode(&bytes), Err(CodecError::Corrupt("cpu count")));
    }

    /// A one-event trace whose event is an access head followed by `tail`.
    fn one_access_with(tail: &[u8]) -> Vec<u8> {
        let t = Trace::new("v", 1, PageSize::SIZE_4K, vec![]);
        let mut bytes = encode(&t).to_vec();
        let count_at = bytes.len() - 8;
        bytes[count_at..].copy_from_slice(&1u64.to_le_bytes());
        bytes.push(0x00);
        bytes.extend_from_slice(tail);
        bytes
    }

    #[test]
    fn overlong_varint_is_corrupt() {
        let corrupt = Err(CodecError::Corrupt("overlong varint"));
        // Eleven bytes, every one with the continuation bit set.
        assert_eq!(decode(&one_access_with(&[0xff; 11])), corrupt);
        // Ten bytes whose last one carries more than bit 63.
        let mut wide = [0xff; 10];
        wide[9] = 0x02;
        assert_eq!(
            decode(&one_access_with(&[&wide[..], &[0]].concat())),
            corrupt
        );
        // The widest legal varint still decodes: u64::MAX, then a zero.
        let mut max = [0xff; 10];
        max[9] = 0x01;
        let trace = decode(&one_access_with(&[&max[..], &[0]].concat())).unwrap();
        let access = trace.events()[0].access().copied().unwrap();
        assert_eq!(access.vaddr, VirtAddr::new(0).offset(unzigzag(u64::MAX)));
        // A varint cut short by the end of the buffer is truncated.
        assert_eq!(
            decode(&one_access_with(&[0x80, 0x80])),
            Err(CodecError::Truncated)
        );
    }

    #[test]
    fn zigzag_round_trips_the_extremes() {
        for d in [
            0,
            1,
            u64::MAX,
            1 << 63,
            (1 << 63) - 1,
            4,
            4u64.wrapping_neg(),
        ] {
            assert_eq!(unzigzag(zigzag(d)), d);
        }
        // Small steps either way stay small.
        assert_eq!(zigzag(4), 8);
        assert_eq!(zigzag(4u64.wrapping_neg()), 7);
    }

    #[test]
    fn escaped_cpus_round_trip() {
        let acc = |cpu: u16, va: u64| {
            TraceEvent::Access(MemAccess {
                cpu: CpuId::new(cpu),
                asid: Asid::new(cpu),
                kind: AccessKind::DataWrite,
                vaddr: VirtAddr::new(va),
                paddr: PhysAddr::new(va ^ 0xf000),
            })
        };
        let events = vec![
            acc(14, 0x100),
            acc(15, 0x200),
            acc(16, 0x300),
            acc(u16::MAX, u64::MAX),
            TraceEvent::ContextSwitch {
                cpu: CpuId::new(300),
                from: Asid::new(300),
                to: Asid::new(7),
            },
            acc(300, 0),
        ];
        let t = Trace::new("wide", 2, PageSize::SIZE_4K, events);
        assert_eq!(decode(&encode(&t)).unwrap(), t);
    }

    #[test]
    fn pops_encodes_under_six_bytes_per_event() {
        let t = crate::presets::TracePreset::Pops.generate_scaled(0.01);
        let per_event = encode(&t).len() as f64 / t.len() as f64;
        assert!(per_event <= 6.0, "{per_event:.2} B/event");
    }

    #[test]
    fn empty_trace_round_trips() {
        let t = Trace::new("empty", 1, PageSize::SIZE_4K, vec![]);
        let back = decode(&encode(&t)).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.name(), "empty");
    }

    #[test]
    fn streaming_decoder_matches_batch_decode() {
        let t = small_trace();
        let bytes = encode(&t);
        let mut d = Decoder::new(&bytes).unwrap();
        assert_eq!(d.name(), t.name());
        assert_eq!(d.cpus(), t.cpus());
        assert_eq!(d.page_size(), t.page_size());
        assert_eq!(d.remaining() as usize, t.len());
        let events: Vec<_> = d.by_ref().map(|r| r.unwrap()).collect();
        assert_eq!(events, t.events());
        assert_eq!(d.remaining(), 0);
        assert!(d.next().is_none());
    }

    #[test]
    fn streaming_decoder_stops_at_first_error() {
        let t = small_trace();
        let mut bytes = encode(&t).to_vec();
        let cut = bytes.len() - 5;
        bytes.truncate(cut);
        // Header parse may still succeed (count > remaining is caught).
        match Decoder::new(&bytes) {
            Err(CodecError::Truncated) => {}
            Ok(d) => {
                let results: Vec<_> = d.collect();
                assert!(results.last().unwrap().is_err(), "must surface the cut");
                // After the first error the iterator fuses.
                assert!(results.iter().filter(|r| r.is_err()).count() == 1);
            }
            Err(e) => panic!("unexpected: {e}"),
        }
    }

    #[test]
    fn trailing_bytes_after_the_declared_count_are_corrupt() {
        let t = small_trace();
        let bytes = encode(&t).to_vec();
        let count_at = first_event_at(&t) - 8;
        let corrupt = CodecError::Corrupt("trailing bytes");
        let trailing = Err(corrupt.clone());
        // A count lowered by one leaves the last event's bytes over.
        let mut short = bytes.clone();
        short[count_at..count_at + 8].copy_from_slice(&(t.len() as u64 - 1).to_le_bytes());
        assert_eq!(decode(&short), trailing);
        let mut d = Decoder::new(&short).unwrap();
        assert_eq!(d.size_hint(), (0, Some(t.len())));
        let results: Vec<_> = d.by_ref().collect();
        assert_eq!(results.len(), t.len());
        assert!(results[..t.len() - 1].iter().all(Result::is_ok));
        assert_eq!(results[t.len() - 1], Err(corrupt));
        assert_eq!(d.size_hint(), (0, Some(0)));
        assert!(d.next().is_none(), "the decoder fuses after the error");
        // One stray byte after an intact stream, and after an empty one.
        let mut padded = bytes.clone();
        padded.push(0);
        assert_eq!(decode(&padded), trailing);
        let mut empty = encode(&Trace::new("e", 1, PageSize::SIZE_4K, vec![])).to_vec();
        empty.push(0);
        assert_eq!(decode(&empty), trailing);
        // The exact stream still decodes. Until the last event is read
        // the hint cannot rule out trailing bytes; then it is exact.
        let mut d = Decoder::new(&bytes).unwrap();
        assert_eq!(d.size_hint(), (0, Some(t.len() + 1)));
        assert_eq!(d.by_ref().count(), t.len());
        assert_eq!(d.size_hint(), (0, Some(0)));
    }

    /// A reader that records the largest buffer it is asked to fill.
    struct Probe<'a> {
        bytes: &'a [u8],
        widest: usize,
        reads: usize,
    }

    impl io::Read for Probe<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.widest = self.widest.max(buf.len());
            self.reads += 1;
            self.bytes.read(buf)
        }
    }

    /// A trace more than twenty windows long: wide address strides give
    /// every access multi-byte varints.
    fn long_trace() -> Trace {
        let events = (0..200_000u64)
            .map(|i| {
                TraceEvent::Access(MemAccess {
                    cpu: CpuId::new((i % 3) as u16),
                    asid: Asid::new(1),
                    kind: AccessKind::DataRead,
                    vaddr: VirtAddr::new(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
                    paddr: PhysAddr::new(i << 12),
                })
            })
            .collect();
        Trace::new("long", 3, PageSize::SIZE_4K, events)
    }

    #[test]
    fn the_window_never_grows_on_a_trace_many_windows_long() {
        let t = long_trace();
        let bytes = encode(&t);
        assert!(bytes.len() > 20 * WINDOW_BYTES, "{} bytes", bytes.len());
        let probe = Probe {
            bytes: &bytes,
            widest: 0,
            reads: 0,
        };
        let mut d = Decoder::from_reader(probe, bytes.len() as u64).unwrap();
        let mut events = Vec::new();
        let mut chunk = Vec::new();
        loop {
            chunk.clear();
            d.read_into(&mut chunk, 4096).unwrap();
            assert_eq!(d.window.len(), WINDOW_BYTES);
            assert!(d.source.widest <= WINDOW_BYTES, "{}", d.source.widest);
            if chunk.is_empty() {
                break;
            }
            events.extend_from_slice(&chunk);
        }
        assert_eq!(events, t.events());
        assert!(d.source.reads > 20, "{} reads", d.source.reads);
    }

    #[test]
    fn a_failed_read_is_a_typed_error_and_fuses() {
        struct Broken;
        impl io::Read for Broken {
            fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
                Err(io::ErrorKind::PermissionDenied.into())
            }
        }
        let err = Decoder::from_reader(Broken, 100).unwrap_err();
        assert_eq!(err, CodecError::Io(io::ErrorKind::PermissionDenied));
        assert!(err.to_string().contains("permission denied"), "{err}");
        // A read that fails mid-stream, windows after the header.
        let t = long_trace();
        let bytes = encode(&t);
        let half = bytes.len() / 2;
        let mut d =
            Decoder::from_reader((&bytes[..half]).chain(Broken), bytes.len() as u64).unwrap();
        let mut events = Vec::new();
        let err = d.read_into(&mut events, usize::MAX).unwrap_err();
        assert_eq!(err, CodecError::Io(io::ErrorKind::PermissionDenied));
        assert!(!events.is_empty() && events.len() < t.len());
        assert_eq!(events, t.events()[..events.len()]);
        assert!(d.next().is_none(), "the decoder fuses after the error");
    }

    #[test]
    fn error_display() {
        assert_eq!(CodecError::BadMagic.to_string(), "missing VRTR magic");
        assert!(CodecError::UnsupportedVersion(9).to_string().contains('9'));
        assert!(CodecError::Corrupt("x").to_string().contains('x'));
        assert!(CodecError::Truncated.to_string().contains("early"));
    }
}
