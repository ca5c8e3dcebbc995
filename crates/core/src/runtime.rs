//! The HPDT runtime (§4.3): configurations, transitions, buffer actions.
//!
//! A *configuration* is a `(state, depth-vector)` pair plus, for
//! whole-element output, the item currently being serialized. The
//! nondeterministic runtime (XSQ-F) keeps a set of configurations: every
//! arc whose label, depth discipline, and guard accept the event fires,
//! each producing a successor; configurations that match nothing simply
//! ignore the event (the paper's rule).
//!
//! The runner pays only for arcs that change something. Arcs are looked
//! up per (state, event kind) in the HPDT's candidate plan
//! ([`crate::arcs`]), which leaves out plain `//` self-loops — their
//! configurations persist through every begin event instead. The set is
//! kept strictly sorted, and an event's consumed configurations and new
//! successors are applied to it in place; an event that changes nothing
//! leaves it untouched.
//!
//! A predicate decided true retires its NA twin. When a configuration
//! enters a BPDT's TRUE state, the configuration at the same BPDT's NA
//! state with the same depth vector and item leaves the set at the end
//! of that event, after every action of the event has run; and no
//! successor may enter the NA state while that TRUE configuration is
//! live. Without this, a `//` step after the predicate keeps the NA
//! configuration alive through the witness, and everything below the
//! element is matched twice: buffered and finally cleared on the NA
//! side, output on the TRUE side. Dropping the NA side changes no
//! result (DESIGN.md, "Retiring the NA twin"):
//!
//! * The TRUE state's child BPDT is built from the same step templates
//!   as the NA state's, so it accepts the same events and anchors the
//!   same items (items are shared per event), routed as after a flush.
//! * TRUE is absorbing until the element's own end tag.
//! * The resolving arc has already flushed or uploaded every entry of
//!   the BPDT's own queue under the depth vector, so the NA side's final
//!   clear would find only entries its own children add later.
//! * The witness is a direct child or the element's own text, so every
//!   configuration of the NA side's children has closed by the end of
//!   the resolving event.
//!
//! Two orderings matter:
//!
//! * Within one input event, matched arcs execute **deepest layer first**,
//!   so that an inner element's upload lands in an ancestor's queue before
//!   that ancestor's own flush/clear runs on the same event (this is why
//!   Fig. 8 resolves `[child]` on `</child>`).
//! * Result emission is globally ordered by the item store (document
//!   order), independent of when predicates resolve.
//!
//! The deterministic fast path (XSQ-NC, §6.2) runs the same machinery but
//! stops scanning a state's arcs at the first match whenever the builder
//! proved the state deterministic — the paper's "XSQ-NC can stop searching
//! after it finds one match".
//!
//! The runtime state lives in [`RunnerCore`], which borrows the compiled
//! [`Hpdt`] only for the duration of each call — that is what lets the
//! multi-query index own `Arc<Hpdt>`s and runner states side by side with
//! no self-referential borrows. [`Runner`] is the single-query facade
//! that pairs a core with one `&Hpdt` for the classic borrowed API.

use xsq_xml::{RawEvent, SaxEvent};
use xsq_xpath::Output;

use crate::aggregate::Aggregator;
use crate::arcs::{Action, Disposition, StateId, ValueSource};
use crate::buffers::QueueSet;
use crate::build::Hpdt;
use crate::depth_vector::DepthVector;
use crate::items::{ItemId, ItemStore};
use crate::report::MemoryStats;
use crate::sink::{IgnoreTags, Sink, TaggedSink};
use crate::trace::TraceStep;

/// One runtime configuration.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct Config {
    state: StateId,
    dv: DepthVector,
    /// Open element item being serialized (whole-element output only).
    item: Option<ItemId>,
}

/// Statistics of one completed run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// SAX events processed (including the document brackets).
    pub events: u64,
    /// Results emitted (for aggregations: 1 per aggregation query, the
    /// final value).
    pub results: u64,
    /// Peak memory held by the engine.
    pub memory: MemoryStats,
}

/// The runtime state of one HPDT evaluation, decoupled from the compiled
/// automaton: every method takes the `Hpdt` as a parameter, so callers
/// decide how the automaton is owned (plain borrow in [`Runner`],
/// `Arc<Hpdt>` in the multi-query index).
///
/// Results leave through a [`TaggedSink`]; for an ordinary single-query
/// HPDT every result carries tag 0, while a merged multi-query HPDT tags
/// each result with the index of its originating query in `hpdt.merged`.
pub struct RunnerCore {
    /// When false (XSQ-NC), deterministic states stop at the first match.
    scan_all_mode: bool,
    /// Mirror of `hpdt.buffered`: when false, buffer-necessity analysis
    /// proved no action ever enqueues, so no queues are allocated and the
    /// flush/upload/clear actions (which still exist on some arcs) are
    /// statically known no-ops.
    buffered: bool,
    configs: Vec<Config>,
    items: ItemStore,
    queues: QueueSet,
    /// Per-tag aggregation state (`aggs[t]` is `Some` iff `merged[t]` is
    /// an aggregation query).
    aggs: Vec<Option<Aggregator>>,
    agg_count: usize,
    ordinal: u64,
    events: u64,
    results: u64,
    peak_configs: usize,
    /// Per-queue capacity to pre-reserve, from a static `Items(K)` bound
    /// (0 = no hint). Re-applied on every reset.
    queue_hint: usize,
    // Scratch buffers reused across events (the hot loop allocates
    // nothing on the no-match and single-match paths, and nothing on the
    // match path either once capacities have warmed up).
    scratch_matches: Vec<Match>,
    /// Indices of the configurations an event consumed, ascending.
    scratch_dropped: Vec<u32>,
    /// Successor configurations derived by an event.
    scratch_born: Vec<Config>,
    /// NA configurations whose TRUE twin an event entered.
    scratch_retired: Vec<Config>,
    scratch_ser: String,
}

/// One fired (configuration, arc) pair of the current event.
#[derive(Debug, Clone, Copy)]
struct Match {
    /// [`crate::arcs::arc_order`] of the arc.
    order: u32,
    /// Index of the configuration in the (sorted) set.
    ci: u32,
    /// Index of the arc in the configuration's state.
    arc: u32,
    /// The arc leaves the configuration as it was (`arcs::Cand::stays`).
    stays: bool,
    /// The arc's queue slots (`arcs::Cand::queues`).
    queues: u32,
}

/// Apply one event to the strictly sorted configuration set in place:
/// remove the configurations at the ascending indices in `dropped` and
/// insert the successors in `born`. Only the tail past the first change
/// moves. Returns whether the set changed — a successor already in the
/// set adds nothing, and one that re-derives a dropped configuration
/// keeps it.
///
/// The NA twin rule (see the module docs) applies last: every
/// configuration in `retired` leaves the set, whether it was there or
/// was just derived, and a successor at an NA state whose TRUE twin
/// (`yields_to`) stays in the set with the same depth vector and item is
/// discarded.
fn apply_step(
    set: &mut Vec<Config>,
    dropped: &mut Vec<u32>,
    born: &mut Vec<Config>,
    retired: &[Config],
    yields_to: impl Fn(StateId) -> Option<StateId>,
) -> bool {
    born.sort_unstable();
    born.dedup();
    born.retain(|b| match set.binary_search(b) {
        Ok(i) => {
            if let Ok(d) = dropped.binary_search(&(i as u32)) {
                dropped.remove(d);
            }
            false
        }
        Err(_) => true,
    });
    if !retired.is_empty() {
        let before = dropped.len();
        dropped.extend(
            retired
                .iter()
                .filter_map(|r| set.binary_search(r).ok().map(|i| i as u32)),
        );
        if dropped.len() > before {
            dropped.sort_unstable();
            dropped.dedup();
        }
        born.retain(|b| !retired.contains(b));
    }
    // A TRUE twin born this event retired the successor above already,
    // so only the set is searched here.
    born.retain(|b| {
        let Some(t) = yields_to(b.state) else {
            return true;
        };
        let twin = set.binary_search_by(|c| (c.state, &c.dv, c.item).cmp(&(t, &b.dv, b.item)));
        !matches!(twin, Ok(i) if dropped.binary_search(&(i as u32)).is_err())
    });
    if dropped.is_empty() && born.is_empty() {
        return false;
    }
    if let Some(&first) = dropped.first() {
        let mut gone = dropped.iter().peekable();
        let mut w = first as usize;
        for r in first as usize..set.len() {
            if gone.next_if(|&&d| d as usize == r).is_none() {
                set.swap(w, r);
                w += 1;
            }
        }
        set.truncate(w);
    }
    // Merge the (sorted) successors in from the back.
    let mut i = set.len();
    set.resize_with(i + born.len(), Config::default);
    let mut w = set.len();
    while let Some(b) = born.last() {
        w -= 1;
        if i > 0 && set[i - 1] > *b {
            i -= 1;
            set.swap(w, i);
        } else {
            set[w] = born.pop().expect("loop condition");
        }
    }
    true
}

/// Ceiling on the per-queue pre-size hint: a pathological DTD can prove
/// a huge-but-finite bound, and reserving it eagerly would trade the
/// allocation win for a memory loss.
const QUEUE_HINT_CAP: usize = 1024;

fn make_aggs(hpdt: &Hpdt) -> (Vec<Option<Aggregator>>, usize) {
    let aggs: Vec<Option<Aggregator>> = hpdt
        .merged
        .iter()
        .map(|q| match &q.output {
            Output::Aggregate(f) => Some(Aggregator::new(*f)),
            _ => None,
        })
        .collect();
    let count = aggs.iter().filter(|a| a.is_some()).count();
    (aggs, count)
}

impl RunnerCore {
    /// Create runtime state for a compiled HPDT. `scan_all_mode` selects
    /// the nondeterministic (XSQ-F) arc scan; pass `false` only for
    /// closure-free queries (XSQ-NC).
    pub fn new(hpdt: &Hpdt, scan_all_mode: bool) -> Self {
        let (aggs, agg_count) = make_aggs(hpdt);
        RunnerCore {
            scan_all_mode,
            buffered: hpdt.buffered,
            configs: vec![Config {
                state: hpdt.start,
                dv: DepthVector::new(),
                item: None,
            }],
            items: ItemStore::new(),
            queues: QueueSet::new(if hpdt.buffered { hpdt.bpdt_count } else { 0 }),
            aggs,
            agg_count,
            ordinal: 0,
            events: 0,
            results: 0,
            peak_configs: 1,
            queue_hint: 0,
            scratch_matches: Vec::new(),
            scratch_dropped: Vec::new(),
            scratch_born: Vec::new(),
            scratch_retired: Vec::new(),
            scratch_ser: String::new(),
        }
    }

    /// Pre-size every queue to `per_queue` entries, now and after every
    /// [`Self::reset`] — the engine passes a statically proven `Items(K)`
    /// bound here so bounded queries never re-allocate mid-stream. A hint
    /// of 0 clears it.
    pub fn set_queue_hint(&mut self, per_queue: usize) {
        self.queue_hint = per_queue.min(QUEUE_HINT_CAP);
        self.queues.reserve(self.queue_hint);
    }

    /// Reset to the start state for a fresh document, keeping the
    /// allocated scratch buffers (multi-document feeds).
    pub fn reset(&mut self, hpdt: &Hpdt) {
        self.configs.clear();
        self.configs.push(Config {
            state: hpdt.start,
            dv: DepthVector::new(),
            item: None,
        });
        self.items.reset();
        self.buffered = hpdt.buffered;
        self.queues
            .reset(if hpdt.buffered { hpdt.bpdt_count } else { 0 });
        if self.queue_hint > 0 {
            self.queues.reserve(self.queue_hint);
        }
        // Reset the aggregators in place when the shape still matches
        // this HPDT (the usual multi-document reuse); rebuilding is only
        // needed when the caller swapped automata under the core.
        let shape_ok = self.aggs.len() == hpdt.merged.len()
            && self
                .aggs
                .iter()
                .zip(&hpdt.merged)
                .all(|(a, q)| a.is_some() == matches!(q.output, Output::Aggregate(_)));
        if shape_ok {
            for (agg, q) in self.aggs.iter_mut().zip(&hpdt.merged) {
                if let (Some(agg), Output::Aggregate(f)) = (agg, &q.output) {
                    agg.reset(*f);
                }
            }
        } else {
            let (aggs, agg_count) = make_aggs(hpdt);
            self.aggs = aggs;
            self.agg_count = agg_count;
        }
        self.ordinal = 0;
        self.results = 0;
        // The config high-water mark is per-document, like the item and
        // queue peaks the fresh stores reset above; without this a
        // reused runner reports the previous document's peak.
        self.peak_configs = 1;
    }

    /// Process one owned SAX event — convenience wrapper over
    /// [`Self::feed_raw`] for callers holding `SaxEvent`s (tests, stored
    /// event sequences).
    pub fn feed(&mut self, hpdt: &Hpdt, event: &SaxEvent, sink: &mut dyn TaggedSink) -> bool {
        self.feed_raw(hpdt, &event.as_raw(), sink)
    }

    /// Process one borrowed SAX event, pushing any newly determined
    /// results into the sink. Returns `true` iff the configuration set
    /// changed (a configuration left it or a new one entered it) — the
    /// dispatch index uses this to know when a runner's frontier may need
    /// re-indexing. An event that only fires self-loops (closure descent,
    /// text output) returns `false`. This is the zero-copy hot path: an
    /// event no arc accepts performs no heap allocation.
    pub fn feed_raw(
        &mut self,
        hpdt: &Hpdt,
        event: &RawEvent<'_>,
        sink: &mut dyn TaggedSink,
    ) -> bool {
        self.feed_traced(hpdt, event, sink, None)
    }

    /// [`Self::feed_raw`] with an optional execution tracer (`--trace`;
    /// see [`crate::trace`]). Zero cost when `tracer` is `None`. Returns
    /// `true` iff the configuration set changed.
    pub fn feed_traced(
        &mut self,
        hpdt: &Hpdt,
        event: &RawEvent<'_>,
        sink: &mut dyn TaggedSink,
        tracer: Option<&mut dyn FnMut(TraceStep)>,
    ) -> bool {
        self.ordinal += 1;
        self.events += 1;
        self.items.begin_event(self.ordinal);

        // Phase 1: find every (configuration, arc) match among the
        // candidates the plan files under the configuration's state and
        // the event's kind and tag. Plain `//` loops are not candidates:
        // their configurations persist through every begin event (see
        // `arcs::ArcPlan`). A configuration is consumed when an arc that
        // moves it fires and neither a persist bit nor a staying arc
        // keeps it.
        let mut matches = std::mem::take(&mut self.scratch_matches);
        let mut dropped = std::mem::take(&mut self.scratch_dropped);
        matches.clear();
        dropped.clear();
        let plan = hpdt.plan();
        let (kind, tag) = crate::arcs::event_kind(event);
        // The set is sorted by state, so configurations sharing a state
        // are adjacent and share one lookup.
        let mut looked_up: Option<StateId> = None;
        let (mut cands, mut persist, mut arcs, mut stop_early) = (&[][..], false, &[][..], false);
        for (ci, cfg) in self.configs.iter().enumerate() {
            if looked_up != Some(cfg.state) {
                looked_up = Some(cfg.state);
                (cands, persist) = plan.candidates(cfg.state, kind, tag);
                arcs = &hpdt.arcs[cfg.state as usize];
                stop_early = !self.scan_all_mode && !hpdt.scan_all[cfg.state as usize];
            }
            let (mut moved, mut kept) = (false, persist);
            for c in cands {
                let arc = &arcs[c.arc as usize];
                if arc.label_matches(event, &cfg.dv) && arc.guard_passes(event) {
                    matches.push(Match {
                        order: c.order,
                        ci: ci as u32,
                        arc: c.arc,
                        stays: c.stays,
                        queues: c.queues,
                    });
                    moved |= !c.stays;
                    kept |= c.stays;
                    if stop_early {
                        break;
                    }
                }
            }
            if moved && !kept {
                dropped.push(ci as u32);
            }
        }
        if tracer.is_some() {
            self.trace_persisted_loops(hpdt, event, &mut matches);
        }
        if matches.is_empty() {
            // Every configuration ignores the event (the common case on
            // data the query does not touch): nothing moves.
            self.scratch_matches = matches;
            self.scratch_dropped = dropped;
            self.drain(sink);
            if let Some(tracer) = tracer {
                self.emit_trace(event, Vec::new(), tracer);
            }
            return false;
        }

        // Phase 2: execute matches deepest-layer-first (uploads from a
        // closing inner element precede the enclosing flush/clear on the
        // same event); within a layer, value production → flush/upload →
        // clear (see `arcs::arc_order`). The `(ci, arc)` tail keeps the
        // order deterministic.
        matches.sort_unstable_by_key(|m| (m.order, m.ci, m.arc));

        // Trace steps are materialized only when a tracer is attached;
        // the untraced path never touches `FiredArc`.
        let mut fired: Option<Vec<crate::trace::FiredArc>> =
            tracer.is_some().then(|| Vec::with_capacity(matches.len()));
        let cur = std::mem::take(&mut self.configs);
        let mut born = std::mem::take(&mut self.scratch_born);
        let mut retired = std::mem::take(&mut self.scratch_retired);
        born.clear();
        retired.clear();
        for m in &matches {
            let cfg = &cur[m.ci as usize];
            let arc = &hpdt.arcs[cfg.state as usize][m.arc as usize];
            // Depth-vector discipline (§4.3): real transitions push the
            // depth of a begin event and pop at an end event; self-loops
            // and text events leave the vector unchanged. Actions see the
            // "inside" vector — after the push, before the pop.
            let changes = arc.changes_state(cfg.state);
            let mut dv = cfg.dv.clone();
            if changes {
                match event {
                    RawEvent::StartDocument => dv.push_mut(0),
                    RawEvent::Begin { depth, .. } => dv.push_mut(*depth),
                    _ => {}
                }
            }
            if let Some(fired) = fired.as_mut() {
                fired.push(crate::trace::fired_arc(arc, cfg.state, &dv));
            }
            let mut new_item = cfg.item;
            for (i, action) in arc.actions.iter().enumerate() {
                let queues = plan.queue_slots(m.queues, i);
                self.execute(
                    action,
                    queues,
                    arc.owner.layer,
                    event,
                    &dv,
                    cfg.item,
                    &mut new_item,
                );
            }
            if !m.stays {
                if changes && matches!(event, RawEvent::End { .. } | RawEvent::EndDocument) {
                    dv.pop_mut();
                }
                if let Some(na) = plan.retires(arc.target) {
                    retired.push(Config {
                        state: na,
                        dv: dv.clone(),
                        item: new_item,
                    });
                }
                born.push(Config {
                    state: arc.target,
                    dv,
                    item: new_item,
                });
            }
        }
        self.configs = cur;
        let changed = apply_step(&mut self.configs, &mut dropped, &mut born, &retired, |s| {
            plan.yields_to(s)
        });
        if changed {
            self.peak_configs = self.peak_configs.max(self.configs.len());
        }
        self.scratch_matches = matches;
        self.scratch_dropped = dropped;
        self.scratch_born = born;
        self.scratch_retired = retired;
        debug_assert!(
            self.configs.windows(2).all(|w| w[0] < w[1]),
            "configuration set must stay strictly sorted and duplicate-free"
        );

        // Phase 3: emit whatever is now determined, in document order.
        self.drain(sink);

        // Quiescent-point recycling: when every item produced so far has
        // left the store (emitted or dead), no queue entry holds a
        // reference, and no configuration is mid-serialization, all
        // outstanding `ItemId`s are spent — the store's arena can be
        // reused wholesale. On per-record streams this point recurs at
        // every record boundary, which is what keeps the matching steady
        // state allocation-free.
        if self.items.recyclable() && self.configs.iter().all(|c| c.item.is_none()) {
            self.items.recycle();
        }

        if let Some(tracer) = tracer {
            self.emit_trace(event, fired.unwrap_or_default(), tracer);
        }
        changed
    }

    /// With a tracer attached, list the plain `//` loops the plan keeps
    /// out of Phase 1 as firings: they accept the event exactly when
    /// `label_matches` says so, stay put, and run no actions, so adding
    /// them changes nothing but the trace.
    #[cold]
    fn trace_persisted_loops(&self, hpdt: &Hpdt, event: &RawEvent<'_>, matches: &mut Vec<Match>) {
        for (ci, cfg) in self.configs.iter().enumerate() {
            for (ai, arc) in hpdt.arcs[cfg.state as usize].iter().enumerate() {
                if hpdt.plan().omits(arc, cfg.state) && arc.label_matches(event, &cfg.dv) {
                    matches.push(Match {
                        order: crate::arcs::arc_order(arc),
                        ci: ci as u32,
                        arc: ai as u32,
                        stays: true,
                        queues: 0,
                    });
                }
            }
        }
    }

    #[cold]
    fn emit_trace(
        &mut self,
        event: &RawEvent<'_>,
        fired: Vec<crate::trace::FiredArc>,
        tracer: &mut dyn FnMut(TraceStep),
    ) {
        tracer(TraceStep {
            ordinal: self.ordinal,
            event: event.to_string(),
            fired,
            configs_after: self.configs.len(),
            buffered_after: self.queues.live_entries(),
        });
    }

    /// Run one action of an arc owned by a layer-`layer` BPDT. `queues`
    /// is `(own, addressed)` from [`crate::arcs::ArcPlan::queue_slots`].
    #[allow(clippy::too_many_arguments)]
    fn execute(
        &mut self,
        action: &Action,
        (own, addressed): (usize, usize),
        layer: u16,
        event: &RawEvent<'_>,
        inside_dv: &DepthVector,
        current_item: Option<ItemId>,
        new_item: &mut Option<ItemId>,
    ) {
        let prefix = layer as usize + 1;
        match action {
            // The three pure buffer operations are no-ops when nothing
            // ever enqueues (`!self.buffered` — no queues are allocated).
            Action::FlushSelf => {
                if self.buffered {
                    self.queues
                        .flush_matching(own, inside_dv, prefix, &mut self.items);
                }
            }
            Action::UploadSelf(_) => {
                if self.buffered {
                    self.queues
                        .upload_matching(own, addressed, inside_dv, prefix);
                }
            }
            Action::ClearSelf => {
                if self.buffered {
                    self.queues
                        .clear_matching(own, inside_dv, prefix, &mut self.items);
                }
            }
            Action::Emit { source, to, tag } => {
                let value: Option<&str> = match source {
                    ValueSource::Text => match event {
                        RawEvent::Text { text, .. } => Some(text),
                        _ => None,
                    },
                    ValueSource::Attr(a) => event.attribute_sym(*a),
                    ValueSource::Unit => Some("1"),
                };
                if let Some(v) = value {
                    let item = self.items.anchor(*tag, v, true);
                    self.route(item, to, addressed, inside_dv);
                }
            }
            Action::ElementStart { to, tag } => {
                self.scratch_ser.clear();
                xsq_xml::writer::write_raw_event_into(event, &mut self.scratch_ser);
                let item = self.items.anchor(*tag, &self.scratch_ser, false);
                *new_item = Some(item);
                self.route(item, to, addressed, inside_dv);
            }
            Action::ElementAppend => {
                if let Some(item) = current_item {
                    self.scratch_ser.clear();
                    xsq_xml::writer::write_raw_event_into(event, &mut self.scratch_ser);
                    self.items.append(item, &self.scratch_ser);
                }
            }
            Action::ElementEnd => {
                if let Some(item) = current_item {
                    if !self.items.is_closed(item) {
                        self.scratch_ser.clear();
                        xsq_xml::writer::write_raw_event_into(event, &mut self.scratch_ser);
                        self.items.append(item, &self.scratch_ser);
                        self.items.close(item);
                    }
                    *new_item = None;
                }
            }
        }
    }

    /// Send a produced item where `to` says; `queue` is the slot of the
    /// queue a buffered disposition names.
    fn route(&mut self, item: ItemId, to: &Disposition, queue: usize, inside_dv: &DepthVector) {
        match to {
            Disposition::Direct => self.items.mark_output(item),
            Disposition::OwnQueue | Disposition::Queue(_) => {
                self.queues.enqueue(queue, item, inside_dv, &mut self.items)
            }
        }
    }

    fn drain(&mut self, sink: &mut dyn TaggedSink) {
        let aggs = &mut self.aggs;
        let results = &mut self.results;
        self.items.drain(|tag, v| {
            if let Some(Some(agg)) = aggs.get_mut(tag as usize) {
                agg.add(v);
            } else {
                *results += 1;
                sink.result(tag, v);
            }
        });
        if self.agg_count > 0 {
            for (t, agg) in aggs.iter_mut().enumerate() {
                if let Some(agg) = agg {
                    if agg.take_dirty() {
                        sink.aggregate_update(t as u32, agg.current());
                    }
                }
            }
        }
    }

    /// Finish the stream: resolve stragglers, emit the aggregation
    /// results, and return run statistics. For complete documents
    /// (`EndDocument` was fed) there are never stragglers — the paper's
    /// invariant that all buffers resolve by the closing tag of the
    /// outermost queried element. The core stays usable (call
    /// [`Self::reset`] for the next document).
    pub fn finish(&mut self, sink: &mut dyn TaggedSink) -> RunStats {
        let aggs = &mut self.aggs;
        let results = &mut self.results;
        self.items.finish(|tag, v| {
            if let Some(Some(agg)) = aggs.get_mut(tag as usize) {
                agg.add(v);
            } else {
                *results += 1;
                sink.result(tag, v);
            }
        });
        if self.agg_count > 0 {
            for (t, agg) in self.aggs.iter().enumerate() {
                if let Some(agg) = agg {
                    sink.result(t as u32, &agg.render());
                    self.results += 1;
                }
            }
        }
        RunStats {
            events: self.events,
            results: self.results,
            memory: self.memory(),
        }
    }

    /// Current memory accounting.
    pub fn memory(&self) -> MemoryStats {
        MemoryStats {
            peak_bytes: (self.items.peak_bytes()
                + self.queues.peak_entries() * std::mem::size_of::<crate::buffers::Entry>())
                as u64,
            peak_items: self.items.peak_live_items() as u64,
            peak_buffered_items: self.queues.peak_entries() as u64,
            peak_configs: self.peak_configs as u64,
            resident_structure_bytes: 0,
        }
    }

    /// Buffered references right now (diagnostics; must be 0 after
    /// `EndDocument`).
    pub fn buffered_entries(&self) -> usize {
        self.queues.live_entries()
    }

    /// Live configurations right now.
    pub fn config_count(&self) -> usize {
        self.configs.len()
    }

    /// The states of the live configurations, ascending and
    /// deduplicated — the frontier the dispatch index derives a runner's
    /// event interest from. The set is kept sorted by state first, so a
    /// dedup suffices.
    pub fn frontier_states(&self, out: &mut Vec<StateId>) {
        out.clear();
        out.extend(self.configs.iter().map(|c| c.state));
        out.dedup();
    }

    /// The running aggregate value of query `tag`, if it aggregates.
    pub fn aggregate_value(&self, tag: u32) -> Option<f64> {
        self.aggs
            .get(tag as usize)
            .and_then(|a| a.as_ref())
            .map(|a| a.current())
    }

    /// Events fed so far.
    pub fn events(&self) -> u64 {
        self.events
    }
}

/// An incremental evaluator: feed it SAX events, results stream out of
/// the sink as soon as the paper's semantics allow. The single-query
/// facade over [`RunnerCore`].
pub struct Runner<'q> {
    hpdt: &'q Hpdt,
    core: RunnerCore,
    /// Optional execution tracer (`--trace`; see [`crate::trace`]).
    tracer: Option<&'q mut dyn FnMut(TraceStep)>,
}

impl<'q> Runner<'q> {
    /// Create a runner over a compiled HPDT. `scan_all_mode` selects the
    /// nondeterministic (XSQ-F) arc scan; pass `false` only for
    /// closure-free queries (XSQ-NC).
    pub fn new(hpdt: &'q Hpdt, scan_all_mode: bool) -> Self {
        Runner {
            hpdt,
            core: RunnerCore::new(hpdt, scan_all_mode),
            tracer: None,
        }
    }

    /// Reset the runner to its start state for a fresh document,
    /// keeping the allocated scratch buffers (multi-document feeds).
    pub fn reset(&mut self) {
        self.core.reset(self.hpdt);
    }

    /// Install an execution tracer: it receives one [`TraceStep`] per
    /// input event (the Example 5-style walkthrough). Zero cost when
    /// unset.
    pub fn set_tracer(&mut self, tracer: &'q mut dyn FnMut(TraceStep)) {
        self.tracer = Some(tracer);
    }

    /// Pre-size the queues from a static `Items(K)` bound (see
    /// [`RunnerCore::set_queue_hint`]).
    pub fn set_queue_hint(&mut self, per_queue: usize) {
        self.core.set_queue_hint(per_queue);
    }

    /// Process one owned SAX event, pushing any newly determined results
    /// into the sink.
    pub fn feed(&mut self, event: &SaxEvent, sink: &mut dyn Sink) {
        self.feed_raw(&event.as_raw(), sink);
    }

    /// Process one borrowed SAX event — the zero-copy hot path for
    /// callers driving [`xsq_xml::StreamParser::next_raw`].
    pub fn feed_raw(&mut self, event: &RawEvent<'_>, sink: &mut dyn Sink) {
        let mut tagged = IgnoreTags(sink);
        let tracer: Option<&mut dyn FnMut(TraceStep)> = self.tracer.as_mut().map(|t| &mut **t as _);
        self.core.feed_traced(self.hpdt, event, &mut tagged, tracer);
    }

    /// Finish the stream: resolve stragglers, emit the aggregation
    /// result, and return run statistics.
    pub fn finish(mut self, sink: &mut dyn Sink) -> RunStats {
        self.core.finish(&mut IgnoreTags(sink))
    }

    /// Current memory accounting.
    pub fn memory(&self) -> MemoryStats {
        self.core.memory()
    }

    /// Buffered references right now (diagnostics; must be 0 after
    /// `EndDocument`).
    pub fn buffered_entries(&self) -> usize {
        self.core.buffered_entries()
    }

    /// Live configurations right now.
    pub fn config_count(&self) -> usize {
        self.core.config_count()
    }

    /// The running aggregate value, if this is an aggregation query.
    pub fn aggregate_value(&self) -> Option<f64> {
        self.core.aggregate_value(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_hpdt;
    use crate::sink::VecSink;
    use xsq_xpath::parse_query;

    fn run(query: &str, doc: &str) -> Vec<String> {
        let hpdt = build_hpdt(&parse_query(query).unwrap()).unwrap();
        let mut runner = Runner::new(&hpdt, true);
        let mut sink = VecSink::new();
        let events = xsq_xml::parse_to_events(doc.as_bytes()).unwrap();
        for e in &events {
            runner.feed(e, &mut sink);
        }
        assert_eq!(runner.buffered_entries(), 0, "buffers must drain");
        runner.finish(&mut sink);
        sink.results
    }

    #[test]
    fn simple_path_text() {
        assert_eq!(
            run("/a/b/text()", "<a><b>one</b><c><b>no</b></c><b>two</b></a>"),
            ["one", "two"]
        );
    }

    #[test]
    fn predicate_buffers_until_decided() {
        // Value arrives before the deciding year element.
        assert_eq!(
            run(
                "/pub[year=2002]/name/text()",
                "<pub><name>N</name><year>2002</year></pub>"
            ),
            ["N"]
        );
        assert_eq!(
            run(
                "/pub[year=2002]/name/text()",
                "<pub><name>N</name><year>1999</year></pub>"
            ),
            Vec::<String>::new()
        );
    }

    #[test]
    fn closure_matches_all_depths() {
        assert_eq!(
            run(
                "//b/text()",
                "<a><b>1</b><c><b>2</b><d><b>3</b></d></c></a>"
            ),
            ["1", "2", "3"]
        );
    }

    #[test]
    fn recursive_closure_no_duplicates() {
        // <b> nested in <b>: //b//c must return c once per distinct c.
        assert_eq!(run("//b//c/text()", "<a><b><b><c>x</c></b></b></a>"), ["x"]);
    }

    #[test]
    fn attribute_output() {
        assert_eq!(
            run("/a/b/@id", r#"<a><b id="1"/><b/><b id="3"/></a>"#),
            ["1", "3"]
        );
    }

    #[test]
    fn count_aggregation() {
        assert_eq!(run("//b/count()", "<a><b/><c><b/></c></a>"), ["2"]);
    }

    #[test]
    fn sum_aggregation() {
        assert_eq!(
            run(
                "//price/sum()",
                "<a><price>1.5</price><price>2.5</price></a>"
            ),
            ["4"]
        );
    }

    #[test]
    fn element_output() {
        assert_eq!(
            run("/a/b", r#"<a><b id="1"><c>x</c></b></a>"#),
            [r#"<b id="1"><c>x</c></b>"#]
        );
    }

    #[test]
    fn deterministic_mode_matches_full_mode() {
        let q = "/pub[year=2002]/book[price<11]/author/text()";
        let doc = "<pub><book><price>10</price><author>A</author></book>\
                   <book><price>14</price><author>B</author></book>\
                   <year>2002</year></pub>";
        let hpdt = build_hpdt(&parse_query(q).unwrap()).unwrap();
        assert!(hpdt.deterministic);
        let events = xsq_xml::parse_to_events(doc.as_bytes()).unwrap();
        let mut outs = Vec::new();
        for scan_all in [true, false] {
            let mut runner = Runner::new(&hpdt, scan_all);
            let mut sink = VecSink::new();
            for e in &events {
                runner.feed(e, &mut sink);
            }
            runner.finish(&mut sink);
            outs.push(sink.results);
        }
        assert_eq!(outs[0], outs[1]);
        assert_eq!(outs[0], ["A"]);
    }

    #[test]
    fn streaming_results_appear_before_document_end() {
        let hpdt = build_hpdt(&parse_query("/a/b/text()").unwrap()).unwrap();
        let mut runner = Runner::new(&hpdt, true);
        let mut sink = VecSink::new();
        let events = xsq_xml::parse_to_events(b"<a><b>early</b><c/></a>").unwrap();
        // Feed only through </b>.
        for e in &events[..5] {
            runner.feed(e, &mut sink);
        }
        assert_eq!(sink.results, ["early"]);
    }

    #[test]
    fn running_aggregate_updates_stream() {
        let hpdt = build_hpdt(&parse_query("//b/count()").unwrap()).unwrap();
        let mut runner = Runner::new(&hpdt, true);
        let mut sink = VecSink::new();
        for e in xsq_xml::parse_to_events(b"<a><b/><b/><b/></a>").unwrap() {
            runner.feed(&e, &mut sink);
        }
        runner.finish(&mut sink);
        assert_eq!(sink.updates, vec![1.0, 2.0, 3.0]);
        assert_eq!(sink.results, ["3"]);
    }

    #[test]
    fn core_feed_reports_whether_the_configuration_set_changed() {
        let hpdt = build_hpdt(&parse_query("/a/b/text()").unwrap()).unwrap();
        let mut core = RunnerCore::new(&hpdt, true);
        let mut sink = crate::sink::TaggedVecSink::new();
        let events = xsq_xml::parse_to_events(b"<a><z>skip</z><b>hit</b></a>").unwrap();
        let mut changed = Vec::new();
        for e in &events {
            changed.push(core.feed(&hpdt, e, &mut sink));
        }
        // The brackets and the <a>, <b> begin/end events move the
        // configuration; <z> and its text match nothing, and the text of
        // <b> fires only the emitting self-loop, which leaves it in place.
        let (t, f) = (true, false);
        assert_eq!(changed, [t, t, f, f, f, t, f, t, t, t]);
        assert_eq!(sink.of(0), ["hit"]);
    }

    #[test]
    fn closure_descent_leaves_the_configuration_set_in_place() {
        let hpdt = build_hpdt(&parse_query("//b//c/text()").unwrap()).unwrap();
        let mut core = RunnerCore::new(&hpdt, true);
        let mut sink = crate::sink::TaggedVecSink::new();
        let doc = b"<a><x><y/></x><b><x><c>1</c></x></b></a>";
        let events = xsq_xml::parse_to_events(doc).unwrap();
        let mut changed = Vec::new();
        for e in &events[..7] {
            changed.push(core.feed(&hpdt, e, &mut sink));
        }
        // <x>, <y> below the `//` anchor only fire the persisted loop.
        assert!(!changed[2] && !changed[3], "{changed:?}");
        // <b> enters the second step; the first step's config persists.
        assert!(changed[6]);
        assert_eq!(core.config_count(), 2);
        for e in &events[7..] {
            core.feed(&hpdt, e, &mut sink);
        }
        assert_eq!(sink.of(0), ["1"]);
    }

    #[test]
    fn apply_step_keeps_the_set_sorted_and_reports_real_changes() {
        let c = |state, depths: &[u32]| Config {
            state,
            dv: DepthVector::from_depths(depths),
            item: None,
        };
        let base = vec![c(1, &[0]), c(2, &[0, 1]), c(2, &[0, 2]), c(5, &[0, 1, 3])];
        let run = |dropped: &[u32], born: Vec<Config>| {
            let mut set = base.clone();
            let changed = apply_step(
                &mut set,
                &mut dropped.to_vec(),
                &mut born.clone(),
                &[],
                |_| None,
            );
            let mut want: Vec<Config> = base
                .iter()
                .enumerate()
                .filter(|(i, _)| !dropped.contains(&(*i as u32)))
                .map(|(_, x)| x.clone())
                .chain(born)
                .collect();
            want.sort();
            want.dedup();
            assert_eq!(set, want);
            changed
        };
        assert!(!run(&[], vec![]));
        assert!(!run(&[], vec![c(2, &[0, 2])]), "already present");
        assert!(!run(&[1], vec![c(2, &[0, 1])]), "re-derived");
        assert!(run(&[0, 3], vec![]));
        assert!(run(
            &[],
            vec![c(0, &[]), c(3, &[0]), c(9, &[0]), c(3, &[0])]
        ));
        assert!(run(&[1, 2], vec![c(2, &[0, 1, 4]), c(6, &[0])]));
    }

    #[test]
    fn apply_step_retires_na_twins_and_suppresses_their_reentry() {
        let c = |state, depths: &[u32]| Config {
            state,
            dv: DepthVector::from_depths(depths),
            item: None,
        };
        // State 2 is an NA state whose TRUE twin is state 4.
        let yields_to = |s: StateId| (s == 2).then_some(4);
        let step = |set: &[Config], dropped: &[u32], born: &[Config], retired: &[Config]| {
            let mut set = set.to_vec();
            let changed = apply_step(
                &mut set,
                &mut dropped.to_vec(),
                &mut born.to_vec(),
                retired,
                yields_to,
            );
            (set, changed)
        };
        // A retiree in the set is removed, and that alone is a change.
        let base = [c(1, &[0]), c(2, &[0, 2]), c(4, &[0, 3])];
        let (set, changed) = step(&base, &[], &[], &[c(2, &[0, 2])]);
        assert!(changed);
        assert_eq!(set, [c(1, &[0]), c(4, &[0, 3])]);
        // The usual case: the witness moves to TRUE on the same event.
        let (set, changed) = step(
            &[c(1, &[0]), c(2, &[0, 2]), c(3, &[0, 2, 3])],
            &[2],
            &[c(4, &[0, 2])],
            &[c(2, &[0, 2])],
        );
        assert!(changed);
        assert_eq!(set, [c(1, &[0]), c(4, &[0, 2])]);
        // A retiree derived on the same event never enters.
        let (set, _) = step(
            &base,
            &[],
            &[c(2, &[0, 5]), c(4, &[0, 5])],
            &[c(2, &[0, 5])],
        );
        assert_eq!(
            set,
            [c(1, &[0]), c(2, &[0, 2]), c(4, &[0, 3]), c(4, &[0, 5])]
        );
        // Re-entry into NA while the TRUE twin is live is suppressed...
        let (set, changed) = step(&base, &[], &[c(2, &[0, 3])], &[]);
        assert!(!changed);
        assert_eq!(set, base);
        // ...but not when the twin leaves on the same event, nor at
        // another depth vector.
        let (set, _) = step(&base, &[2], &[c(2, &[0, 3])], &[]);
        assert_eq!(set, [c(1, &[0]), c(2, &[0, 2]), c(2, &[0, 3])]);
        let (set, _) = step(&base, &[], &[c(2, &[0, 4])], &[]);
        assert_eq!(
            set,
            [c(1, &[0]), c(2, &[0, 2]), c(2, &[0, 4]), c(4, &[0, 3])]
        );
    }

    #[test]
    fn a_resolved_predicate_retires_its_na_twin() {
        // The `--trace` golden: after `</year>` only the TRUE side of the
        // outer `pub` is left at (0,2); the NA side ($2) has retired.
        let doc = include_bytes!("../../../tests/golden/trace_closure_recursive.xml");
        let hpdt =
            build_hpdt(&parse_query("//pub[year]//book[@id]/title/text()").unwrap()).unwrap();
        let (na, t) = (2, 4);
        assert!(hpdt.na_twins.contains(&(na, t)), "{:?}", hpdt.na_twins);
        let mut core = RunnerCore::new(&hpdt, true);
        let mut sink = crate::sink::TaggedVecSink::new();
        let events = xsq_xml::parse_to_events(doc).unwrap();
        let outer = DepthVector::from_depths(&[0, 2]);
        let at_outer = |core: &RunnerCore| -> Vec<StateId> {
            core.configs
                .iter()
                .filter(|c| c.dv == outer)
                .map(|c| c.state)
                .collect()
        };
        // <root>, <lib>, <pub>, <year>, 2002
        for e in &events[..5] {
            core.feed(&hpdt, e, &mut sink);
        }
        assert_eq!(at_outer(&core), [na]);
        // </year>: the witness resolves; the change is reported.
        assert!(core.feed(&hpdt, &events[5], &mut sink));
        assert_eq!(at_outer(&core), [t]);
        assert_eq!(core.config_count(), 2);
        for e in &events[6..] {
            core.feed(&hpdt, e, &mut sink);
        }
        core.finish(&mut sink);
        assert_eq!(sink.of(0), ["T1", "T2", "T4"]);
        assert_eq!(core.buffered_entries(), 0);
    }

    #[test]
    fn core_reset_supports_multiple_documents() {
        let hpdt = build_hpdt(&parse_query("//b/count()").unwrap()).unwrap();
        let mut core = RunnerCore::new(&hpdt, true);
        for _ in 0..2 {
            let mut sink = crate::sink::TaggedVecSink::new();
            for e in xsq_xml::parse_to_events(b"<a><b/><b/></a>").unwrap() {
                core.feed(&hpdt, &e, &mut sink);
            }
            core.finish(&mut sink);
            assert_eq!(sink.of(0), ["2"]);
            core.reset(&hpdt);
        }
    }

    #[test]
    fn merged_hpdt_tags_results_by_query() {
        use crate::build::build_merged_hpdt;
        let queries: Vec<_> = ["/a/b/text()", "/a/b/@id", "/a/c/text()"]
            .iter()
            .map(|q| parse_query(q).unwrap())
            .collect();
        let hpdt = build_merged_hpdt(&queries).unwrap();
        let mut core = RunnerCore::new(&hpdt, true);
        let mut sink = crate::sink::TaggedVecSink::new();
        let doc = br#"<a><b id="7">x</b><c>y</c></a>"#;
        for e in xsq_xml::parse_to_events(doc).unwrap() {
            core.feed(&hpdt, &e, &mut sink);
        }
        core.finish(&mut sink);
        assert_eq!(sink.of(0), ["x"]);
        assert_eq!(sink.of(1), ["7"]);
        assert_eq!(sink.of(2), ["y"]);
    }
}
