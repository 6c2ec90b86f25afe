//! Spans recorded by the benchmark around its calls into each layer.
//!
//! One span is `(kind, start, end, parent, episode)`. The parent of an
//! episode's `work`/`arrive`/`region`/`wait` spans is that episode's span
//! on the same participant, so spans of one episode share its id and a
//! layer's self time is its span minus its children. Buffers are
//! allocated before timing starts and written out after it ends.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// What a span covers; the span's name in the trace file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Episode,
    Work,
    Arrive,
    Region,
    Wait,
    Poll,
    Join,
    Leave,
    GuestArrive,
    GuestWait,
    Spawn,
    Send,
    Encode,
    Decode,
    Sample,
    Parse,
    Compile,
    Build,
    Run,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Episode => "episode",
            Kind::Work => "work",
            Kind::Arrive => "arrive",
            Kind::Region => "region",
            Kind::Wait => "wait",
            Kind::Poll => "poll",
            Kind::Join => "join",
            Kind::Leave => "leave",
            Kind::GuestArrive => "guest_arrive",
            Kind::GuestWait => "guest_wait",
            Kind::Spawn => "spawn",
            Kind::Send => "send",
            Kind::Encode => "encode",
            Kind::Decode => "decode",
            Kind::Sample => "sample",
            Kind::Parse => "parse",
            Kind::Compile => "compile",
            Kind::Build => "build",
            Kind::Run => "run",
        }
    }
}

/// `parent` of a span that has none.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub kind: Kind,
    /// Index of the causing span in the same buffer, or [`NO_PARENT`].
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub episode: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Nanoseconds since the process first asked: one origin for every
/// participant and pass, so all spans of a trace file share a time line.
pub fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One participant's spans, in the order they were opened.
#[derive(Debug, Clone, Default)]
pub struct SpanBuf {
    /// Participant id (thread or task); the `tid` of the trace file.
    pub tid: u32,
    pub spans: Vec<Span>,
    /// Spans not recorded because the buffer was full.
    pub dropped: u64,
}

/// A participant's recorder. `Rec<false>` is the untraced pass: every
/// method compiles to nothing, so both passes run the same source.
#[derive(Debug)]
pub struct Rec<const ON: bool> {
    buf: SpanBuf,
    /// Most spans the buffer holds.
    capacity: usize,
}

impl<const ON: bool> Rec<ON> {
    /// A recorder holding at most `capacity` spans (none when `ON` is
    /// false). The buffer is written once here, so its pages are resident
    /// before timing starts, and it never grows: recording neither
    /// allocates nor page-faults.
    pub fn new(tid: u32, capacity: usize) -> Self {
        let mut spans = Vec::new();
        if ON {
            let blank = Span {
                kind: Kind::Episode,
                parent: NO_PARENT,
                start_ns: 0,
                end_ns: 0,
                episode: 0,
            };
            spans.resize(capacity, blank);
            spans.clear();
        }
        Rec {
            buf: SpanBuf {
                tid,
                spans,
                dropped: 0,
            },
            capacity,
        }
    }

    #[inline]
    pub fn now(&self) -> u64 {
        if ON {
            now_ns()
        } else {
            0
        }
    }

    #[inline]
    pub fn push(&mut self, kind: Kind, start_ns: u64, end_ns: u64, parent: u32, episode: u64) {
        if !ON {
            return;
        }
        if self.buf.spans.len() == self.capacity {
            self.buf.dropped += 1;
            return;
        }
        self.buf.spans.push(Span {
            kind,
            parent,
            start_ns,
            end_ns,
            episode,
        });
    }

    /// Opens a span now and returns its index, the `parent` of the spans
    /// recorded until [`Rec::close`].
    #[inline]
    pub fn open(&mut self, kind: Kind, parent: u32, episode: u64) -> u32 {
        if !ON {
            return NO_PARENT;
        }
        if self.buf.spans.len() == self.capacity {
            self.buf.dropped += 1;
            return NO_PARENT;
        }
        let now = self.now();
        self.push(kind, now, now, parent, episode);
        (self.buf.spans.len() - 1) as u32
    }

    #[inline]
    pub fn close(&mut self, index: u32) {
        if ON && index != NO_PARENT {
            self.buf.spans[index as usize].end_ns = now_ns();
        }
    }

    /// Records `f` as one span.
    #[inline]
    pub fn timed<T>(&mut self, kind: Kind, parent: u32, episode: u64, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let value = f();
        let end = self.now();
        self.push(kind, start, end, parent, episode);
        value
    }

    pub fn finish(self) -> SpanBuf {
        self.buf
    }
}

/// Durations in ns of every span of `kind`.
pub fn durations(bufs: &[SpanBuf], kind: Kind) -> Vec<f64> {
    bufs.iter()
        .flat_map(|b| &b.spans)
        .filter(|s| s.kind == kind)
        .map(|s| s.duration_ns() as f64)
        .collect()
}

/// Self time of each span of `buf`: its duration minus the part of it
/// that its child spans cover. Children of one participant do not overlap
/// each other, so their clipped durations add.
pub fn self_times(buf: &SpanBuf) -> Vec<u64> {
    let mut own: Vec<u64> = buf.spans.iter().map(Span::duration_ns).collect();
    for child in &buf.spans {
        if child.parent == NO_PARENT {
            continue;
        }
        let parent = &buf.spans[child.parent as usize];
        let start = child.start_ns.max(parent.start_ns);
        let end = child.end_ns.min(parent.end_ns);
        let covered = end.saturating_sub(start);
        let slot = &mut own[child.parent as usize];
        *slot = slot.saturating_sub(covered);
    }
    own
}

/// Writes the first `limit` spans of each buffer as Chrome-trace JSON
/// (`chrome://tracing`, Perfetto): complete events with µs timestamps,
/// `args.episode` and `args.parent` (index within the same `tid`).
pub fn write_chrome(path: &Path, bufs: &[SpanBuf], limit: usize) -> std::io::Result<()> {
    let mut out = String::from("[");
    let mut first = true;
    for buf in bufs {
        for (index, s) in buf.spans.iter().take(limit).enumerate() {
            if !first {
                out.push(',');
            }
            first = false;
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"index\":{index},\"parent\":{parent},\"episode\":{}}}}}",
                s.kind.name(),
                buf.tid,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                s.episode
            )
            .expect("writing to a String cannot fail");
        }
    }
    out.push_str("\n]\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: Kind, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            kind,
            parent,
            start_ns,
            end_ns,
            episode: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let buf = SpanBuf {
            tid: 0,
            spans: vec![
                span(Kind::Episode, NO_PARENT, 100, 200),
                span(Kind::Work, 0, 105, 145),
                span(Kind::Arrive, 0, 145, 150),
                span(Kind::Wait, 0, 150, 190),
                // A grandchild lowers its parent's self time only.
                span(Kind::Poll, 3, 160, 170),
                // A child that overruns its parent is clipped to it.
                span(Kind::Region, 0, 195, 230),
            ],
            dropped: 0,
        };
        assert_eq!(self_times(&buf), vec![10, 40, 5, 30, 10, 35]);
    }

    #[test]
    fn untraced_recorder_records_nothing() {
        let mut rec = Rec::<false>::new(0, 16);
        let p = rec.open(Kind::Episode, NO_PARENT, 0);
        assert_eq!(p, NO_PARENT);
        assert_eq!(rec.timed(Kind::Work, p, 0, || 7), 7);
        rec.close(p);
        let buf = rec.finish();
        assert!(buf.spans.is_empty());
        assert_eq!(buf.dropped, 0);
    }

    #[test]
    fn traced_recorder_nests_and_drops_when_full() {
        let mut rec = Rec::<true>::new(3, 2);
        let p = rec.open(Kind::Episode, NO_PARENT, 9);
        rec.timed(Kind::Arrive, p, 9, || ());
        rec.timed(Kind::Wait, p, 9, || ());
        rec.close(p);
        let buf = rec.finish();
        assert_eq!(buf.spans.len(), 2);
        assert_eq!(buf.dropped, 1);
        assert_eq!(buf.spans[1].parent, 0);
        assert_eq!(buf.spans[1].episode, 9);
        assert!(buf.spans[0].end_ns >= buf.spans[1].end_ns);
        assert_eq!(durations(&[buf], Kind::Arrive).len(), 1);
    }
}
