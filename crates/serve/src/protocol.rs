//! The serve wire protocol: length-prefixed JSON frames.
//!
//! Each frame is a 4-byte big-endian payload length followed by that
//! many bytes of UTF-8 JSON (one [`Request`] or [`Response`]). The
//! framing is symmetric, std-only, and transport-agnostic: the same
//! functions drive TCP and Unix-domain streams, on the server and the
//! client alike. Frames larger than [`MAX_FRAME`] are rejected before
//! allocation, and a frame's buffer grows only with the bytes received,
//! so a corrupt or hostile peer cannot make the server reserve memory
//! it never sends.

use crate::engine::EngineStats;
use crate::scheduler::ShedReason;
use crate::slo::MetricsFrame;
use crate::tenant::{TenantRequest, TenantStatus};
use serde::{Deserialize, Serialize};
use std::io::{self, Read, Write};

/// Upper bound on a frame payload (16 MiB).
pub const MAX_FRAME: usize = 16 << 20;

/// Most a frame reader reserves before the body's bytes arrive (64 KiB).
const FRAME_RESERVE: usize = 64 << 10;

/// Client → server messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Submit a tenant for admission.
    Submit(TenantRequest),
    /// Query a tenant's status.
    Status {
        /// The tenant id returned by `Admitted`.
        id: u64,
    },
    /// Fetch a tenant's routed telemetry.
    Telemetry {
        /// The tenant id returned by `Admitted`.
        id: u64,
    },
    /// Fetch aggregate server counters.
    Stats,
    /// Fetch the full SLO metrics frame: engine stats, the aggregate
    /// snapshot, and one snapshot per tenant (DESIGN.md §15).
    Metrics,
    /// Fetch the Prometheus text exposition of the metrics frame,
    /// rendered server-side so any scraper-shaped client needs no
    /// knowledge of the snapshot schema.
    Exposition,
    /// Stop the server after replying `Bye`.
    Shutdown,
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// The tenant was admitted under this id.
    Admitted {
        /// Server-assigned tenant id.
        id: u64,
    },
    /// The tenant was shed; nothing was queued.
    Shed {
        /// Why the tenant was rejected.
        reason: ShedReason,
    },
    /// A tenant's status.
    Status(TenantStatus),
    /// A tenant's telemetry (empty string = none routed yet).
    Telemetry {
        /// The queried tenant id.
        id: u64,
        /// The tenant's accumulated JSONL.
        jsonl: String,
    },
    /// Aggregate server counters.
    Stats(EngineStats),
    /// The full SLO metrics frame.
    Metrics(MetricsFrame),
    /// The Prometheus text exposition.
    Exposition {
        /// Prometheus text-format body.
        text: String,
    },
    /// The queried tenant id was never admitted.
    NotFound {
        /// The unknown id.
        id: u64,
    },
    /// The request could not be handled.
    Error {
        /// Human-readable cause.
        msg: String,
    },
    /// Acknowledges `Shutdown`; the connection closes after this.
    Bye,
}

/// Why the server refused a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RefusedClass {
    /// The payload is not well-formed JSON ([`serde_json::Category::Syntax`]).
    Syntax,
    /// Well-formed JSON that is not a [`Request`] ([`serde_json::Category::Data`]).
    Data,
    /// Nested deeper than [`serde_json::MAX_DEPTH`] ([`serde_json::Category::Depth`]).
    Depth,
    /// No payload could be read: a torn frame, a length over
    /// [`MAX_FRAME`], or a payload that is not UTF-8. The connection is
    /// dropped.
    Framing,
}

impl RefusedClass {
    /// Every class, in exposition order.
    pub(crate) const ALL: [RefusedClass; 4] = [
        RefusedClass::Syntax,
        RefusedClass::Data,
        RefusedClass::Depth,
        RefusedClass::Framing,
    ];

    /// The Prometheus `class` label.
    pub(crate) fn name(self) -> &'static str {
        match self {
            RefusedClass::Syntax => "syntax",
            RefusedClass::Data => "data",
            RefusedClass::Depth => "depth",
            RefusedClass::Framing => "framing",
        }
    }

    /// The class of a [`decode`] error.
    pub(crate) fn of_decode(e: &io::Error) -> RefusedClass {
        let json = e
            .get_ref()
            .and_then(|e| e.downcast_ref::<serde_json::Error>());
        match json.map(serde_json::Error::classify) {
            Some(serde_json::Category::Data) => RefusedClass::Data,
            Some(serde_json::Category::Depth) => RefusedClass::Depth,
            Some(serde_json::Category::Syntax) | None => RefusedClass::Syntax,
        }
    }

    /// The class of a [`read_frame`] error, if it is one the frame
    /// caused (a transport failure such as a reset is not counted).
    pub(crate) fn of_read(e: &io::Error) -> Option<RefusedClass> {
        matches!(
            e.kind(),
            io::ErrorKind::UnexpectedEof | io::ErrorKind::InvalidData
        )
        .then_some(RefusedClass::Framing)
    }
}

/// Frames the server refused, by class. Decode failures are
/// answered with [`Response::Error`]; framing failures drop the
/// connection. Carried by the `Stats` and `Metrics` replies and exposed
/// as `rsp_serve_refused_frames_total{class=...}`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RefusedFrames {
    /// Payloads that are not well-formed JSON.
    pub syntax: u64,
    /// Well-formed JSON that is not a request.
    pub data: u64,
    /// Payloads nested past the JSON reader's depth cap.
    pub depth: u64,
    /// Torn frames, lengths over [`MAX_FRAME`] and non-UTF-8 payloads.
    pub framing: u64,
}

impl RefusedFrames {
    /// Count one refused frame.
    pub(crate) fn count(&mut self, class: RefusedClass) {
        match class {
            RefusedClass::Syntax => self.syntax += 1,
            RefusedClass::Data => self.data += 1,
            RefusedClass::Depth => self.depth += 1,
            RefusedClass::Framing => self.framing += 1,
        }
    }

    /// The count for one class.
    pub(crate) fn get(&self, class: RefusedClass) -> u64 {
        match class {
            RefusedClass::Syntax => self.syntax,
            RefusedClass::Data => self.data,
            RefusedClass::Depth => self.depth,
            RefusedClass::Framing => self.framing,
        }
    }

    /// Add another tally into this one.
    pub(crate) fn add(&mut self, other: RefusedFrames) {
        self.syntax += other.syntax;
        self.data += other.data;
        self.depth += other.depth;
        self.framing += other.framing;
    }
}

/// Write one frame: 4-byte BE length, then the JSON payload.
///
/// Header and payload go out in one `write_all` from one buffer: two
/// small writes on a TCP stream let Nagle's algorithm hold the payload
/// until the peer's delayed ACK of the header, tens of milliseconds per
/// round trip.
pub fn write_frame<W: Write, T: Serialize>(w: &mut W, msg: &T) -> io::Result<()> {
    let body = serde_json::to_string(msg)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    if body.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {} bytes exceeds MAX_FRAME", body.len()),
        ));
    }
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&(body.len() as u32).to_be_bytes());
    frame.extend_from_slice(body.as_bytes());
    w.write_all(&frame)?;
    w.flush()
}

/// Read one frame's payload. `Ok(None)` on clean EOF at a frame
/// boundary; errors on torn frames, oversized lengths, or bad UTF-8.
///
/// The body buffer grows with the bytes that arrive, from at most 64 KiB
/// up front: a header alone cannot make the reader reserve a
/// [`MAX_FRAME`] buffer.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<String>> {
    let mut header = [0u8; 4];
    let mut got = 0;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside frame header",
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME"),
        ));
    }
    let mut body = Vec::with_capacity(len.min(FRAME_RESERVE));
    r.take(len as u64).read_to_end(&mut body)?;
    if body.len() < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "EOF inside frame body",
        ));
    }
    String::from_utf8(body)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))
}

/// Decode a frame payload into a message. The error wraps the
/// [`serde_json::Error`], so its category stays readable.
pub fn decode<T: Deserialize>(text: &str) -> io::Result<T> {
    serde_json::from_str(text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_workloads::{StreamSpec, SynthSpec, UnitMix};

    fn sample_requests() -> Vec<Request> {
        let spec = StreamSpec::synth("s", SynthSpec::new("s", UnitMix::INT_HEAVY, 3), 1000);
        vec![
            Request::Submit(TenantRequest::new(spec)),
            Request::Status { id: 7 },
            Request::Telemetry { id: 7 },
            Request::Stats,
            Request::Metrics,
            Request::Exposition,
            Request::Shutdown,
        ]
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut buf = Vec::new();
        for req in sample_requests() {
            write_frame(&mut buf, &req).unwrap();
        }
        let mut r = &buf[..];
        for want in sample_requests() {
            let text = read_frame(&mut r).unwrap().unwrap();
            let got: Request = decode(&text).unwrap();
            assert_eq!(got, want);
        }
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn responses_round_trip() {
        let responses = vec![
            Response::Admitted { id: 3 },
            Response::Shed {
                reason: ShedReason::QueueFull,
            },
            Response::Telemetry {
                id: 3,
                jsonl: "{\"cycle\":1}\n".into(),
            },
            Response::Stats(EngineStats::default()),
            Response::Metrics(MetricsFrame::default()),
            Response::Exposition {
                text: "# TYPE rsp_serve_tick gauge\nrsp_serve_tick 0\n".into(),
            },
            Response::NotFound { id: 9 },
            Response::Error { msg: "nope".into() },
            Response::Bye,
        ];
        let mut buf = Vec::new();
        for r in &responses {
            write_frame(&mut buf, r).unwrap();
        }
        let mut rd = &buf[..];
        for want in &responses {
            let text = read_frame(&mut rd).unwrap().unwrap();
            let got: Response = decode(&text).unwrap();
            assert_eq!(&got, want);
        }
    }

    /// A writer that takes every buffer whole and counts the calls.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_frame_sends_header_and_body_in_one_write() {
        for req in sample_requests() {
            let mut w = CountingWriter::default();
            write_frame(&mut w, &req).unwrap();
            assert_eq!(w.writes, 1, "{req:?}");
            let text = read_frame(&mut &w.bytes[..]).unwrap().unwrap();
            assert_eq!(decode::<Request>(&text).unwrap(), req);
        }
    }

    #[test]
    fn torn_and_oversized_frames_error() {
        // Torn header.
        let mut r: &[u8] = &[0, 0];
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        // Torn body.
        let mut buf = Vec::new();
        write_frame(&mut buf, &Request::Stats).unwrap();
        buf.truncate(buf.len() - 1);
        let mut r = &buf[..];
        assert!(read_frame(&mut r).is_err());
        // Oversized length prefix rejected before allocation.
        let huge = (MAX_FRAME as u32 + 1).to_be_bytes();
        let mut r = &huge[..];
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn refused_frames_classify_by_cause() {
        let deep = format!("{}{}", "[".repeat(200), "]".repeat(200));
        for (text, want) in [
            ("{\"Submit\":", RefusedClass::Syntax),
            ("{\"Bogus\":1}", RefusedClass::Data),
            (deep.as_str(), RefusedClass::Depth),
        ] {
            let e = decode::<Request>(text).unwrap_err();
            assert_eq!(RefusedClass::of_decode(&e), want, "{text:.20}");
        }
        let torn = read_frame(&mut &[0u8, 0][..]).unwrap_err();
        assert_eq!(RefusedClass::of_read(&torn), Some(RefusedClass::Framing));
        let not_utf8 = [0, 0, 0, 1, 0xff];
        let e = read_frame(&mut &not_utf8[..]).unwrap_err();
        assert_eq!(RefusedClass::of_read(&e), Some(RefusedClass::Framing));
        let reset = io::Error::from(io::ErrorKind::ConnectionReset);
        assert_eq!(RefusedClass::of_read(&reset), None, "not the frame's fault");

        let mut tally = RefusedFrames::default();
        for class in RefusedClass::ALL {
            tally.count(class);
        }
        tally.count(RefusedClass::Depth);
        let mut merged = RefusedFrames::default();
        merged.add(tally);
        merged.add(tally);
        assert_eq!((merged.syntax, merged.depth, merged.framing), (2, 4, 2));
    }
}
