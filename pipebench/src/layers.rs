//! The per-layer ladder, timed from outside by calling each crate's
//! public functions over the workload's corpus:
//!
//! | rung | call | per document |
//! |------|------|--------------|
//! | `xml.pull` | `PureParser::run` | whole document |
//! | `xml.push` | `PushParser::push` of 64 KiB chunks, `poll_raw` to exhaustion | whole document |
//! | `qindex.feed` | `QueryIndex::feed` over pre-parsed events, then `finish` | whole document |
//! | `runtime.solo.qN` | `CompiledQuery::runner()` fed the same events | one query |
//! | `session` | `Session::handle_frame` of FEED/END_DOC frames into an in-memory `Outbox` | one span per frame |
//!
//! A round runs every rung once over the corpus, PureParser first, so
//! each rung's time can be given as a ratio to a PureParser pass made
//! in the same loop; that ratio holds steady when the host slows down
//! for seconds at a time, absolute times do not. Rounds alternate
//! between traced (a span per document and rung, and per session
//! frame) and untraced, and the difference in round time between the
//! two is the tracing overhead.

use std::time::Instant;

use xsq_core::{CompiledQuery, CountingSink, QueryId, QueryIndex, QuerySet, QuerySink, XsqEngine};
use xsq_server::proto::op;
use xsq_server::{Frame, Session};
use xsq_xml::{ParsePoll, PureParser, PushParser, SaxEvent, StreamParser};

use crate::loopback::CHUNK;
use crate::trace::{Tracer, NO_PARENT};
use crate::workload::Workload;

/// Counts results and their bytes without keeping them.
#[derive(Default)]
struct Count {
    results: u64,
    bytes: u64,
}

impl QuerySink for Count {
    fn result(&mut self, _id: QueryId, value: &str) {
        self.results += 1;
        self.bytes += value.len() as u64;
    }
}

pub struct Layers {
    events: Vec<Vec<SaxEvent>>,
    frames: Vec<Vec<Frame>>,
    index: QueryIndex,
    solo: Vec<CompiledQuery>,
    push: PushParser,
    session: Session,
    pub counts: Counts,
}

/// Work counts of one pass over the corpus: denominators and the
/// counters a layer change should move.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub events: u64,
    pub bytes: u64,
    pub touches: u64,
    pub groups: u64,
    pub peak_configs: u64,
    pub peak_items: u64,
    pub peak_bytes: u64,
    pub results: u64,
    pub result_bytes: u64,
    pub frames_out: u64,
    pub bytes_out: u64,
}

/// Per-round times, ns, for every rung.
#[derive(Debug, Clone)]
pub struct RoundTimes {
    pub pull: u64,
    pub push: u64,
    pub qindex: u64,
    pub solo: Vec<u64>,
    pub session: u64,
    pub total: u64,
}

fn ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

impl Layers {
    pub fn setup(w: &Workload) -> Result<Layers, String> {
        let events = w
            .docs
            .iter()
            .map(|d| xsq_xml::parse_to_events(d).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let frames = w
            .docs
            .iter()
            .map(|d| {
                let mut f: Vec<Frame> = d
                    .chunks(CHUNK)
                    .map(|c| Frame {
                        op: op::FEED,
                        payload: c.to_vec(),
                    })
                    .collect();
                f.push(Frame {
                    op: op::END_DOC,
                    payload: Vec::new(),
                });
                f
            })
            .collect();
        let engine = XsqEngine::full();
        let set = QuerySet::compile(engine, w.queries)
            .map_err(|(i, e)| format!("query {}: {e}", i + 1))?;
        let solo = w
            .queries
            .iter()
            .map(|q| engine.compile_str(q).map_err(|e| format!("{q}: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        let mut session = Session::new(engine);
        let mut sub_ok = false;
        session.handle_frame(
            &Frame {
                op: op::SUB,
                payload: w.queries.join("\n").into_bytes(),
            },
            &mut |opcode: u8, _: &[u8]| sub_ok = opcode == op::SUB_OK,
        );
        if !sub_ok {
            return Err("in-memory session refused the query set".into());
        }
        let mut layers = Layers {
            events,
            frames,
            index: set.index(),
            solo,
            push: StreamParser::push_mode(),
            session,
            counts: Counts::default(),
        };
        layers.count(w);
        Ok(layers)
    }

    /// Events per corpus document, as the index counts them.
    pub fn doc_events(&self) -> Vec<f64> {
        self.events.iter().map(|e| e.len() as f64).collect()
    }

    /// One untimed pass that takes the work counts.
    fn count(&mut self, w: &Workload) {
        let mut c = Counts {
            bytes: w.bytes(),
            groups: self.index.group_count() as u64,
            ..Counts::default()
        };
        let (events0, touches0) = (self.index.events(), self.index.touches());
        let mut sink = Count::default();
        for doc in &self.events {
            for ev in doc {
                self.index.feed(ev, &mut sink);
            }
            let run = self.index.finish(&mut sink);
            c.peak_configs = c.peak_configs.max(run.memory.peak_configs);
            c.peak_items = c.peak_items.max(run.memory.peak_items);
            c.peak_bytes = c.peak_bytes.max(run.memory.peak_bytes);
        }
        c.events = self.index.events() - events0;
        c.touches = self.index.touches() - touches0;
        c.results = sink.results;
        c.result_bytes = sink.bytes;
        let (mut frames_out, mut bytes_out) = (0u64, 0u64);
        let mut outbox = |_: u8, payload: &[u8]| {
            frames_out += 1;
            bytes_out += 5 + payload.len() as u64;
        };
        for doc in &self.frames {
            for f in doc {
                self.session.handle_frame(f, &mut outbox);
            }
        }
        c.frames_out = frames_out;
        c.bytes_out = bytes_out;
        self.counts = c;
    }

    /// One round over the corpus. With `tr` enabled, each rung's time
    /// is the sum of its spans; otherwise one clock pair per rung.
    pub fn round(&mut self, w: &Workload, tr: &mut Tracer) -> Result<RoundTimes, String> {
        let round_start = Instant::now();
        let traced_before = tr.spans().len();
        let rung = |tr: &mut Tracer,
                    name: &'static str,
                    f: &mut dyn FnMut(&mut Tracer, usize, u32) -> Result<(), String>|
         -> Result<u64, String> {
            let t = Instant::now();
            for d in 0..w.docs.len() {
                let span = tr.open(d as u32, name, NO_PARENT);
                f(tr, d, span)?;
                tr.close(span);
            }
            Ok(ns(t))
        };

        let pull = rung(tr, "xml.pull", &mut |_, d, _| {
            PureParser::run(&w.docs[d][..])
                .map(|_| ())
                .map_err(|e| e.to_string())
        })?;

        let parser = &mut self.push;
        let push = rung(tr, "xml.push", &mut |_, d, _| {
            for chunk in w.docs[d].chunks(CHUNK) {
                parser.push(chunk);
                drain(parser)?;
            }
            parser.finish();
            drain(parser)?;
            parser.reset_push();
            Ok(())
        })?;

        let index = &mut self.index;
        let events = &self.events;
        let mut sink = Count::default();
        let qindex = rung(tr, "qindex.feed", &mut |_, d, _| {
            for ev in &events[d] {
                index.feed(ev, &mut sink);
            }
            index.finish(&mut sink);
            Ok(())
        })?;

        const SOLO: [&str; 8] = [
            "runtime.solo.q0",
            "runtime.solo.q1",
            "runtime.solo.q2",
            "runtime.solo.q3",
            "runtime.solo.q4",
            "runtime.solo.q5",
            "runtime.solo.q6",
            "runtime.solo.q7",
        ];
        let mut solo = Vec::with_capacity(self.solo.len());
        for (qi, query) in self.solo.iter().enumerate() {
            let mut sink = CountingSink::new();
            solo.push(rung(tr, SOLO[qi], &mut |_, d, _| {
                let mut runner = query.runner();
                for ev in &events[d] {
                    runner.feed(ev, &mut sink);
                }
                runner.finish(&mut sink);
                Ok(())
            })?);
        }

        let session = &mut self.session;
        let frames = &self.frames;
        let mut outbox = |_: u8, _: &[u8]| {};
        let session_ns = rung(tr, "session", &mut |tr, d, parent| {
            for f in &frames[d] {
                let span = tr.open(d as u32, "session.frame", parent);
                session.handle_frame(f, &mut outbox);
                tr.close(span);
            }
            Ok(())
        })?;

        let mut times = RoundTimes {
            pull,
            push,
            qindex,
            solo,
            session: session_ns,
            total: ns(round_start),
        };
        if tr.spans().len() > traced_before {
            times.take_from_spans(&tr.spans()[traced_before..]);
        }
        Ok(times)
    }
}

impl RoundTimes {
    /// Replace each rung's clock-pair time by the sum of its spans.
    fn take_from_spans(&mut self, spans: &[crate::trace::Span]) {
        let sum = |name: &str| -> u64 {
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.end_ns - s.start_ns)
                .sum()
        };
        self.pull = sum("xml.pull");
        self.push = sum("xml.push");
        self.qindex = sum("qindex.feed");
        for (qi, t) in self.solo.iter_mut().enumerate() {
            *t = sum(&format!("runtime.solo.q{qi}"));
        }
        self.session = sum("session");
    }
}

fn drain(parser: &mut PushParser) -> Result<(), String> {
    loop {
        match parser.poll_raw().map_err(|e| e.to_string())? {
            ParsePoll::Event(_) => {}
            ParsePoll::NeedMore | ParsePoll::End => return Ok(()),
        }
    }
}
