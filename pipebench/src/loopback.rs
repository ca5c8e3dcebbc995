//! The loopback path: an in-process `xsq_server::serve` on
//! `127.0.0.1:0` with the default event loop, driven by one wire-v2
//! connection that multiplexes the logical sessions. The generator has
//! two threads: the writer sends documents round-robin across the
//! sessions at their due times, the reader stamps each DOC_OK and
//! checks the document's transcript against
//! `xsq_server::reference_output`.

use std::fmt::Write as _;
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use xsq_core::XsqEngine;
use xsq_server::proto::{op, CONTROL_SESSION, WIRE_V2};
use xsq_server::{read_frame, reference_output, serve, Frame, ServeOptions, ServerHandle};

use crate::openloop::{Plan, Stamps};
use crate::workload::Workload;

pub const SESSIONS: u32 = 8;
pub const CHUNK: usize = 64 * 1024;

/// Per corpus document: the reference client transcript of that
/// document alone (document index 0, running updates included).
pub type Transcripts = Vec<Vec<u8>>;

pub fn reference_transcripts(w: &Workload) -> Result<Transcripts, String> {
    w.docs
        .iter()
        .map(|d| {
            reference_output(XsqEngine::full(), w.queries, std::slice::from_ref(d), true)
                .map(String::into_bytes)
        })
        .collect()
}

pub struct Loopback {
    server: ServerHandle,
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// DOC_OK numbers each session has acknowledged so far.
    acked: Vec<u32>,
    pub wire_in: u64,
    pub wire_out: u64,
    /// SUB → SUB_OK round trips of the set-up, in ns.
    pub sub_rtt_ns: Vec<u64>,
}

fn io_err(e: impl std::fmt::Display) -> String {
    format!("loopback: {e}")
}

impl Loopback {
    /// Bind, connect, negotiate wire v2 and subscribe every session:
    /// everything before the first document can be fed.
    pub fn setup(w: &Workload) -> Result<Loopback, String> {
        let mut opts = ServeOptions::new("127.0.0.1:0");
        opts.idle_timeout = Duration::from_secs(120);
        let server = serve(opts).map_err(io_err)?;
        let stream = TcpStream::connect(server.addr()).map_err(io_err)?;
        stream.set_nodelay(true).map_err(io_err)?;
        // A stuck peer must fail the run, not hang it.
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(io_err)?;
        stream
            .set_write_timeout(Some(Duration::from_secs(60)))
            .map_err(io_err)?;
        let mut lb = Loopback {
            server,
            reader: BufReader::with_capacity(256 * 1024, stream.try_clone().map_err(io_err)?),
            writer: BufWriter::with_capacity(256 * 1024, stream),
            acked: vec![0; SESSIONS as usize],
            wire_in: 0,
            wire_out: 0,
            sub_rtt_ns: Vec::new(),
        };
        lb.send_raw(op::HELLO, &WIRE_V2.to_le_bytes())?;
        lb.writer.flush().map_err(io_err)?;
        let hello = lb.recv()?;
        if hello.op != op::HELLO_OK {
            return Err(format!("expected HELLO_OK, got 0x{:02x}", hello.op));
        }
        let sub = w.queries.join("\n");
        for sid in 0..SESSIONS {
            let t = Instant::now();
            lb.send(sid, op::SUB, sub.as_bytes())?;
            lb.writer.flush().map_err(io_err)?;
            let (got, reply) = lb.recv_v2()?;
            if got != sid || reply.op != op::SUB_OK {
                return Err(format!(
                    "session {sid}: expected SUB_OK, got 0x{:02x}",
                    reply.op
                ));
            }
            lb.sub_rtt_ns.push(t.elapsed().as_nanos() as u64);
        }
        Ok(lb)
    }

    pub fn shutdown(self) {
        let Loopback {
            server,
            reader,
            writer,
            ..
        } = self;
        drop(reader);
        drop(writer);
        server.shutdown();
    }

    fn send_raw(&mut self, opcode: u8, payload: &[u8]) -> Result<(), String> {
        write_frame_v(&mut self.writer, opcode, None, payload).map_err(io_err)?;
        self.wire_out += 5 + payload.len() as u64;
        Ok(())
    }

    fn send(&mut self, sid: u32, opcode: u8, payload: &[u8]) -> Result<(), String> {
        write_frame_v(&mut self.writer, opcode, Some(sid), payload).map_err(io_err)?;
        self.wire_out += 9 + payload.len() as u64;
        Ok(())
    }

    fn recv(&mut self) -> Result<Frame, String> {
        let f = read_frame(&mut self.reader, xsq_server::MAX_FRAME)
            .map_err(io_err)?
            .ok_or("loopback: server closed the connection")?;
        self.wire_in += 5 + f.payload.len() as u64;
        Ok(f)
    }

    fn recv_v2(&mut self) -> Result<(u32, Frame), String> {
        let mut f = self.recv()?;
        split_sid(&mut f)
    }

    /// A STAT reply for one session, or for the whole server through
    /// the control session.
    pub fn stat(&mut self, sid: u32) -> Result<String, String> {
        self.send(sid, op::STAT, &[])?;
        self.writer.flush().map_err(io_err)?;
        let (got, f) = self.recv_v2()?;
        if got != sid || f.op != op::STAT_OK {
            return Err(format!("expected STAT_OK for {sid}, got 0x{:02x}", f.op));
        }
        Ok(String::from_utf8_lossy(&f.payload).into_owned())
    }

    pub fn control_stat(&mut self) -> Result<String, String> {
        self.stat(CONTROL_SESSION)
    }

    /// Send `plan` on this thread while a second thread reads replies.
    pub fn run(
        &mut self,
        w: &Workload,
        oracle: &Transcripts,
        plan: &Plan,
    ) -> Result<Stamps, String> {
        let n = plan.len();
        let mut st = Stamps::new(n);
        let origin = Instant::now();
        let Loopback {
            reader,
            writer,
            acked,
            ..
        } = self;
        let (read_result, write_result) = std::thread::scope(|scope| {
            let rx = scope.spawn(|| read_replies(reader, acked, plan, oracle, origin));
            let tx = write_docs(writer, w, plan, origin, &mut st.send_ns, &mut st.sent_ns);
            (rx.join().expect("reader thread panicked"), tx)
        });
        let wire_out = write_result.map_err(io_err)?;
        let (done, mismatched, wire_in) = read_result?;
        self.wire_out += wire_out;
        self.wire_in += wire_in;
        st.done_ns = done;
        st.mismatched = mismatched;
        Ok(st)
    }
}

fn write_frame_v(
    w: &mut impl Write,
    opcode: u8,
    sid: Option<u32>,
    payload: &[u8],
) -> std::io::Result<()> {
    let prefix = if sid.is_some() { 4 } else { 0 };
    let len = (1 + prefix + payload.len()) as u32;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(&[opcode])?;
    if let Some(sid) = sid {
        w.write_all(&sid.to_le_bytes())?;
    }
    w.write_all(payload)
}

fn split_sid(f: &mut Frame) -> Result<(u32, Frame), String> {
    if f.payload.len() < 4 {
        return Err(format!("v2 reply 0x{:02x} without a session id", f.op));
    }
    let sid = u32::from_le_bytes(f.payload[..4].try_into().expect("4 bytes"));
    Ok((
        sid,
        Frame {
            op: f.op,
            payload: f.payload.split_off(4),
        },
    ))
}

fn now_ns(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

/// The writer: each document at its due time, as FEED chunks and an
/// END-DOC on session `position % SESSIONS`. Returns bytes written.
fn write_docs(
    writer: &mut BufWriter<TcpStream>,
    w: &Workload,
    plan: &Plan,
    origin: Instant,
    send_ns: &mut [u64],
    sent_ns: &mut [u64],
) -> std::io::Result<u64> {
    let mut bytes = 0u64;
    for (i, &d) in plan.docs.iter().enumerate() {
        let now = now_ns(origin);
        if plan.due_ns[i] > now {
            std::thread::sleep(Duration::from_nanos(plan.due_ns[i] - now));
        }
        send_ns[i] = now_ns(origin);
        let sid = i as u32 % SESSIONS;
        for chunk in w.docs[d].chunks(CHUNK) {
            write_frame_v(writer, op::FEED, Some(sid), chunk)?;
            bytes += 9 + chunk.len() as u64;
        }
        write_frame_v(writer, op::END_DOC, Some(sid), &[])?;
        bytes += 9;
        writer.flush()?;
        sent_ns[i] = now_ns(origin);
    }
    Ok(bytes)
}

/// The reader: renders each session's replies in the reference
/// client's format and, at DOC_OK, stamps the document and compares
/// its transcript with the oracle. Returns (done stamps, mismatched
/// documents, bytes read).
fn read_replies(
    reader: &mut BufReader<TcpStream>,
    acked: &mut [u32],
    plan: &Plan,
    oracle: &Transcripts,
    origin: Instant,
) -> Result<(Vec<u64>, u64, u64), String> {
    let n = plan.len();
    let sessions = SESSIONS as usize;
    let mut done = vec![0u64; n];
    let mut next = vec![0usize; sessions];
    let mut results: Vec<String> = vec![String::new(); sessions];
    let mut updates: Vec<String> = vec![String::new(); sessions];
    let mut mismatched = 0u64;
    let mut wire_in = 0u64;
    let mut remaining = n;
    while remaining > 0 {
        let mut frame = read_frame(reader, xsq_server::MAX_FRAME)
            .map_err(io_err)?
            .ok_or("loopback: server closed the connection")?;
        wire_in += 5 + frame.payload.len() as u64;
        let (sid, f) = split_sid(&mut frame)?;
        let s = sid as usize;
        if s >= sessions {
            return Err(format!("reply 0x{:02x} for unknown session {sid}", f.op));
        }
        match f.op {
            op::RESULT if f.payload.len() >= 4 => {
                let id = u32::from_le_bytes(f.payload[..4].try_into().expect("4 bytes"));
                let value = String::from_utf8_lossy(&f.payload[4..]);
                let _ = writeln!(results[s], "0\t{id}\t{value}");
            }
            op::UPDATE if f.payload.len() == 12 => {
                let id = u32::from_le_bytes(f.payload[..4].try_into().expect("4 bytes"));
                let v = f64::from_le_bytes(f.payload[4..].try_into().expect("8 bytes"));
                let _ = writeln!(updates[s], "# running[0:{id}]: {v}");
            }
            op::DOC_OK if f.payload.len() == 4 => {
                let pos = s + sessions * next[s];
                if pos >= n {
                    return Err(format!("session {sid}: DOC_OK beyond the plan"));
                }
                done[pos] = now_ns(origin);
                next[s] += 1;
                let number = u32::from_le_bytes(f.payload[..4].try_into().expect("4 bytes"));
                updates[s].push_str(&results[s]);
                if number != acked[s] || updates[s].as_bytes() != oracle[plan.docs[pos]].as_slice()
                {
                    mismatched += 1;
                }
                acked[s] += 1;
                updates[s].clear();
                results[s].clear();
                remaining -= 1;
            }
            op::ERR => {
                return Err(format!(
                    "session {sid}: server error: {}",
                    String::from_utf8_lossy(&f.payload)
                ))
            }
            other => return Err(format!("session {sid}: unexpected reply 0x{other:02x}")),
        }
    }
    Ok((done, mismatched, wire_in))
}
