//! pipebench — the XSQ pipeline benchmark.
//!
//! ```text
//! cargo run --release --manifest-path pipebench/Cargo.toml -- \
//!     --workload inproc-recursive|serve-filter|serve-recursive \
//!     [--seed N] [--seconds S] [--trace 0|1] [--tiny]
//! ```
//!
//! With `--trace 0` a run measures the end-to-end metrics: set-up
//! time, closed-loop MB/s, document latency on an open-loop rate
//! ladder, sustained rate, peak buffered bytes and peak RSS. With
//! `--trace 1` it measures the per-layer ladder (see `layers.rs`) with
//! spans, the loopback transport rung, and the tracing overhead. Every
//! document's output is checked against an oracle: the DOM baseline in
//! process, `xsq_server::reference_output` over loopback. The last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `METRICS.md` says which
//! end-to-end metric each layer metric should move, on which workload.

mod inproc;
mod layers;
mod loopback;
mod openloop;
mod stats;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use inproc::Inproc;
use layers::{Layers, RoundTimes};
use loopback::Loopback;
use openloop::{Plan, Rung, Stamps};
use stats::{median, quantile};
use trace::{Span, Tracer, NO_PARENT};
use workload::{Kind, Workload};
use xsq_core::{QuerySet, XsqEngine};
use xsq_server::stat_field_u64;

/// Claims must also hold on this seed, which tuning never uses.
const HELD_OUT_SEED: u64 = 7919;
const DEFAULT_SEED: u64 = 1;
/// Query-set compiles in a traced run; `setup.compile_ms` is their
/// median.
const COMPILES: usize = 63;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut tiny = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--tiny" => tiny = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        tiny,
    })
}

/// The result line: metrics in print order, each with its unit.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { -1.0 };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pipebench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = Workload::build(args.kind, args.seed, args.tiny);
    let result = if args.trace {
        per_layer(&w, &args)
    } else {
        end_to_end(&w, &args)
    };
    match result {
        Ok(report) => {
            for (name, value, unit) in &report.metrics {
                println!("{name:<36} {value:>16.4} {unit}");
            }
            if report.failed > 0 {
                println!(
                    "error_rate {:.6} ({} of {} documents failed)",
                    report.failed as f64 / report.attempted as f64,
                    report.failed,
                    report.attempted
                );
            }
            println!("{}", report.json());
            if report.failed > 0 {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("pipebench: {}: {e}", w.kind.name());
            ExitCode::from(1)
        }
    }
}

/// The run header: recorded, never asserted.
fn header(w: &Workload, args: &Args, pure_mb_s: f64) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# header {{\"workload\": \"{}\", \"seed\": {}, \"held_out_seed\": {HELD_OUT_SEED}, \
         \"trace\": {}, \"seconds\": {}, \"docs\": {}, \"bytes\": {}, \"queries\": {}, \
         \"nproc\": {nproc}, \"kernel\": \"{}\", \"cpu_features\": \"{}\", \
         \"pure_parser_mb_s\": {pure_mb_s:.2}}}",
        w.kind.name(),
        args.seed,
        u8::from(args.trace),
        args.seconds,
        w.docs.len(),
        w.bytes(),
        w.queries.len(),
        xsq_xml::scan::active_kernel(),
        xsq_xml::scan::cpu_features(),
    );
}

/// One PureParser pass over the corpus, in ns.
fn pure_pass(w: &Workload) -> Result<u64, String> {
    let t = Instant::now();
    for d in &w.docs {
        xsq_xml::PureParser::run(&d[..]).map_err(|e| e.to_string())?;
    }
    Ok(t.elapsed().as_nanos() as u64)
}

/// The system under test in an end-to-end run.
enum Target {
    Inproc(Inproc, inproc::Oracle),
    Loopback(Loopback, loopback::Transcripts),
}

impl Target {
    /// Everything before the first document can be fed; the oracle is
    /// filled in later, and only for the target that serves the run.
    fn setup(w: &Workload) -> Result<Target, String> {
        Ok(if w.loopback {
            Target::Loopback(Loopback::setup(w)?, Vec::new())
        } else {
            Target::Inproc(Inproc::setup(w)?, Vec::new())
        })
    }

    /// Set up a spare target, time it and close it again.
    fn time_setup(w: &Workload) -> Result<f64, String> {
        let t = Instant::now();
        let spare = Target::setup(w)?;
        let secs = t.elapsed().as_secs_f64();
        spare.close();
        Ok(secs)
    }

    fn close(self) {
        if let Target::Loopback(lb, _) = self {
            lb.shutdown();
        }
    }

    fn run(&mut self, w: &Workload, plan: &Plan) -> Result<Stamps, String> {
        match self {
            Target::Inproc(ip, oracle) => ip.run(w, oracle, plan),
            Target::Loopback(lb, oracle) => lb.run(w, oracle, plan),
        }
    }
}

fn end_to_end(w: &Workload, args: &Args) -> Result<Report, String> {
    let budget = args.seconds;
    let mut target = Target::setup(w)?;
    // Set-up is timed again before every closed-loop pass, on a spare
    // target, so that its median spans the host phases of the run.
    let mut setup_s = vec![Target::time_setup(w)?];
    match &mut target {
        Target::Inproc(_, oracle) => *oracle = inproc::dom_oracle(w)?,
        Target::Loopback(_, oracle) => *oracle = loopback::reference_transcripts(w)?,
    }

    let mut report = Report {
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    let mut tally = |st: &Stamps, n: usize| {
        report.attempted += n as u64;
        report.failed += st.mismatched;
    };

    // Each repetition runs closed-loop passes, then one segment of
    // every rung, so host phases lasting seconds spread over all of
    // them. The first closed pass warms up.
    let closed = Plan::closed(w);
    let st = target.run(w, &closed)?;
    tally(&st, closed.len());
    let ladder = w.ladder;
    let mut rungs: [Rung; 3] = Default::default();
    // A burst puts one document in flight on each logical session.
    let bursts = Plan::bursts(w, loopback::SESSIONS as usize);
    let mut best_ns = vec![u64::MAX; bursts.len()];
    let (mut pass_mb_s, mut pure_mb_s) = (Vec::new(), Vec::new());
    let mut first = 0;
    for _ in 0..REPS {
        let until = Instant::now() + Duration::from_secs_f64(budget * CLOSED_SHARE / REPS as f64);
        loop {
            setup_s.push(Target::time_setup(w)?);
            let mut pass_ns = 0;
            for (best, plan) in best_ns.iter_mut().zip(&bursts) {
                let st = target.run(w, plan)?;
                tally(&st, plan.len());
                let ns = st.done_ns.iter().copied().max().unwrap_or(1);
                *best = (*best).min(ns);
                pass_ns += ns;
            }
            pass_mb_s.push(w.bytes() as f64 * 1e3 / pass_ns as f64);
            pure_mb_s.push(w.bytes() as f64 * 1e3 / pure_pass(w)? as f64);
            if Instant::now() >= until {
                break;
            }
        }
        for (i, &rate) in ladder.rates_mb_s.iter().enumerate() {
            let secs = budget * RUNG_SHARE[i] / REPS as f64;
            let plan = Plan::paced(w, rate, secs, first);
            first += plan.len();
            let st = target.run(w, &plan)?;
            tally(&st, plan.len());
            rungs[i].add(&plan, &st, secs);
        }
    }
    header(w, args, median(&pure_mb_s));
    let mb_s = w.bytes() as f64 * 1e3 / best_ns.iter().sum::<u64>() as f64;
    println!(
        "# closed loop: {} passes, MB/s min {:.3} median {:.3} max {:.3}, \
         fastest bursts {mb_s:.3}",
        pass_mb_s.len(),
        quantile(&pass_mb_s, 0.0),
        median(&pass_mb_s),
        quantile(&pass_mb_s, 1.0)
    );
    println!(
        "# setup_s min {:.6} p25 {:.6} median {:.6} p75 {:.6} max {:.6}",
        quantile(&setup_s, 0.0),
        quantile(&setup_s, 0.25),
        median(&setup_s),
        quantile(&setup_s, 0.75),
        quantile(&setup_s, 1.0)
    );

    // Sustained: the highest rung that, with every rung below it, met
    // the p99 limit without a growing backlog.
    let mut sustained = 0.0;
    for (rate, rung) in ladder.rates_mb_s.iter().zip(&rungs) {
        let ok = rung.sustained(ladder.p99_limit_ms);
        println!(
            "# rung {rate} MB/s: {} docs, achieved {:.3} MB/s, p50 {:.3} ms, p90 {:.3} ms, \
             p99 {:.3} ms, best p50 {:.3} ms, gen.lag_p99 {:.3} ms, backlog growth/end {}/{}, {}",
            rung.docs(),
            rung.achieved_mb_s(),
            rung.latency_ms(0.5),
            rung.latency_ms(0.9),
            rung.latency_ms(0.99),
            rung.best_latency_ms(0.5),
            rung.lag_p99_ms(),
            rung.backlog_growth,
            rung.backlog_end,
            if ok { "sustained" } else { "not sustained" }
        );
        if !ok {
            break;
        }
        sustained = rung.achieved_mb_s();
    }
    let nominal = &rungs[ladder.nominal];

    target.close();

    report.put("setup_s", median(&setup_s), "s");
    // Host phases only ever slow a burst or a document down, so their
    // fastest times track the program, not its neighbours.
    report.put("mb_s", mb_s, "MB/s");
    report.put("doc_p50_ms", nominal.best_latency_ms(0.5), "ms");
    report.put("sustained_mb_s", sustained, "MB/s");
    report.put(
        "rss_peak_mb",
        stats::rss_peak_mb().ok_or("no VmHWM in /proc/self/status")?,
        "MB",
    );
    Ok(report)
}

/// Repetitions of (closed passes, one segment per rung) in a run.
const REPS: usize = 4;
/// Share of `--seconds` spent on closed-loop passes, and on each rung
/// of the ladder: most goes to the nominal rung, whose percentiles
/// need the samples.
const CLOSED_SHARE: f64 = 0.4;
const RUNG_SHARE: [f64; 3] = [0.05, 0.45, 0.10];

fn per_layer(w: &Workload, args: &Args) -> Result<Report, String> {
    let origin = Instant::now();
    let mut tr = Tracer::new(origin);
    let mut layers = Layers::setup(w)?;
    let c = layers.counts;

    let compile_ms: Vec<f64> = (0..COMPILES)
        .map(|_| {
            let t = Instant::now();
            let set = QuerySet::compile(XsqEngine::full(), w.queries).map(|s| s.index());
            let ms = t.elapsed().as_secs_f64() * 1e3;
            set.map(|_| ms)
                .map_err(|(i, e)| format!("query {}: {e}", i + 1))
        })
        .collect::<Result<_, _>>()?;

    // Rounds: one warm-up, then alternately untraced and traced.
    layers.round(w, &mut tr)?;
    let until = Instant::now() + Duration::from_secs_f64(args.seconds * LAYER_SHARE);
    let (mut plain, mut traced): (Vec<RoundTimes>, Vec<RoundTimes>) = (Vec::new(), Vec::new());
    while traced.len() < 2 || Instant::now() < until {
        let on = plain.len() > traced.len();
        tr.set_enabled(on);
        let t = layers.round(w, &mut tr)?;
        if on {
            traced.push(t);
        } else {
            plain.push(t);
        }
    }
    tr.set_enabled(false);
    let pure_mb_s: Vec<f64> = plain
        .iter()
        .chain(&traced)
        .map(|t| w.bytes() as f64 * 1e3 / t.pull as f64)
        .collect();
    header(w, args, median(&pure_mb_s));

    let ev = c.events as f64;
    let per_event = |f: &dyn Fn(&RoundTimes) -> u64| -> f64 {
        median(&traced.iter().map(|t| f(t) as f64 / ev).collect::<Vec<_>>())
    };
    let x_pull = |f: &dyn Fn(&RoundTimes) -> u64| -> f64 {
        median(
            &traced
                .iter()
                .map(|t| f(t) as f64 / t.pull as f64)
                .collect::<Vec<_>>(),
        )
    };
    let pull_ns = per_event(&|t| t.pull);
    let session_ns = per_event(&|t| t.session);

    // Transport: loopback service time per document at the lowest
    // ladder rate, less the in-process session time.
    let transcripts = loopback::reference_transcripts(w)?;
    let mut lb = Loopback::setup(w)?;
    let sub_rtt_ms = median(
        &lb.sub_rtt_ns
            .iter()
            .map(|&n| n as f64 / 1e6)
            .collect::<Vec<_>>(),
    );
    let warm = Plan::closed(w);
    let st0 = lb.run(w, &transcripts, &warm)?;
    let (wire_in0, wire_out0) = (lb.wire_in, lb.wire_out);
    let rate = w.ladder.rates_mb_s[0];
    let secs = args.seconds * TRANSPORT_SHARE;
    let plan = Plan::paced(w, rate, secs, 0);
    let rung_start = tr.now_ns();
    let st = lb.run(w, &transcripts, &plan)?;
    let mut rung = Rung::default();
    rung.add(&plan, &st, secs);
    let doc_events: Vec<f64> = layers.doc_events();
    let service: Vec<f64> = (0..plan.len())
        .map(|i| (st.done_ns[i] - plan.due_ns[i]) as f64 / doc_events[plan.docs[i]])
        .collect();
    for i in 0..plan.len() {
        let at = |t: u64| rung_start + t;
        let doc = tr.record(Span {
            id: plan.docs[i] as u32,
            name: "transport.doc",
            start_ns: at(plan.due_ns[i]),
            end_ns: at(st.done_ns[i]),
            parent: NO_PARENT,
        });
        tr.record(Span {
            id: plan.docs[i] as u32,
            name: "gen.write",
            start_ns: at(st.send_ns[i]),
            end_ns: at(st.sent_ns[i]),
            parent: doc,
        });
    }
    let control = lb.control_stat()?;
    let transport_ns = median(&service) - session_ns;
    let (wire_in, wire_out) = (lb.wire_in - wire_in0, lb.wire_out - wire_out0);
    lb.shutdown();

    let mut report = Report {
        attempted: (w.docs.len() + plan.len()) as u64,
        failed: st0.mismatched + st.mismatched,
        metrics: Vec::new(),
    };
    report.put("xml.pull_ns_per_event", pull_ns, "ns");
    report.put("xml.push_ns_per_event", per_event(&|t| t.push), "ns");
    report.put("xml.push_ns_per_event_x_pull", x_pull(&|t| t.push), "ratio");
    report.put("xml.events", ev, "count");
    report.put("xml.bytes", c.bytes as f64, "bytes");
    report.put("qindex.feed_ns_per_event", per_event(&|t| t.qindex), "ns");
    report.put(
        "qindex.feed_ns_per_event_x_pull",
        x_pull(&|t| t.qindex),
        "ratio",
    );
    report.put("qindex.touches_per_event", c.touches as f64 / ev, "ratio");
    report.put("qindex.groups", c.groups as f64, "count");
    const SOLO: [(&str, &str); 6] = [
        (
            "runtime.solo_ns_per_event.q0",
            "runtime.solo_ns_per_event.q0_x_pull",
        ),
        (
            "runtime.solo_ns_per_event.q1",
            "runtime.solo_ns_per_event.q1_x_pull",
        ),
        (
            "runtime.solo_ns_per_event.q2",
            "runtime.solo_ns_per_event.q2_x_pull",
        ),
        (
            "runtime.solo_ns_per_event.q3",
            "runtime.solo_ns_per_event.q3_x_pull",
        ),
        (
            "runtime.solo_ns_per_event.q4",
            "runtime.solo_ns_per_event.q4_x_pull",
        ),
        (
            "runtime.solo_ns_per_event.q5",
            "runtime.solo_ns_per_event.q5_x_pull",
        ),
    ];
    for (qi, (name, ratio)) in SOLO.iter().enumerate() {
        report.put(name, per_event(&|t| t.solo[qi]), "ns");
        report.put(ratio, x_pull(&|t| t.solo[qi]), "ratio");
    }
    report.put("runtime.peak_configs", c.peak_configs as f64, "count");
    report.put("buffers.peak_items", c.peak_items as f64, "count");
    report.put("buffers.peak_bytes", c.peak_bytes as f64, "bytes");
    report.put("sink.results", c.results as f64, "count");
    report.put("sink.result_bytes", c.result_bytes as f64, "bytes");
    report.put("session.ns_per_event", session_ns, "ns");
    report.put(
        "session.ns_per_event_x_pull",
        x_pull(&|t| t.session),
        "ratio",
    );
    report.put("session.frames_out", c.frames_out as f64, "count");
    report.put("session.bytes_out", c.bytes_out as f64, "bytes");
    report.put("transport.ns_per_event", transport_ns, "ns");
    report.put(
        "transport.ns_per_event_x_pull",
        transport_ns / pull_ns,
        "ratio",
    );
    report.put("transport.wire_bytes_in", wire_out as f64, "bytes");
    report.put("transport.wire_bytes_out", wire_in as f64, "bytes");
    report.put(
        "transport.queue_depth_hwm",
        stat_field_u64(&control, "queue_depth_hwm").unwrap_or(0) as f64,
        "count",
    );
    report.put("gen.lag_p99_ms", rung.lag_p99_ms(), "ms");
    report.put("gen.backlog_end", rung.backlog_end as f64, "count");
    report.put("setup.compile_ms", median(&compile_ms), "ms");
    report.put("setup.sub_rtt_ms", sub_rtt_ms, "ms");
    let total = |v: &[RoundTimes]| median(&v.iter().map(|t| t.total as f64).collect::<Vec<_>>());
    report.put(
        "trace.overhead_pct",
        (total(&traced) / total(&plain) - 1.0) * 100.0,
        "%",
    );
    report.put("trace.spans", tr.spans().len() as f64, "count");

    for (name, total_ns, self_ns) in tr.totals() {
        println!("# span {name:<20} total {total_ns:>14} ns  self {self_ns:>14} ns");
    }
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-{}.jsonl", w.kind.name(), args.seed));
    tr.write_jsonl(&out)
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!("# spans written to {}", out.display());
    Ok(report)
}

/// Shares of `--seconds` in a traced run: layer rounds, then the
/// loopback transport rung.
const LAYER_SHARE: f64 = 0.7;
const TRANSPORT_SHARE: f64 = 0.2;
