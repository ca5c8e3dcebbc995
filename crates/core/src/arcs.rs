//! States, transition arcs, labels, guards, and actions of the HPDT.
//!
//! A transition arc stores (paper §3.4) the input-symbol pattern it
//! matches, an optional predicate guard evaluated against the event, the
//! new state, and the buffer/output operations to perform. Special labels
//! implement the closure machinery: `//` self-loops that accept any begin
//! event, closure entry arcs (the paper's `=`-marked arcs) that accept
//! their tag at any depth, and the catchall `*̄` that accepts any event
//! strictly below the current anchor (used for whole-element output).

use std::collections::HashMap;

use xsq_xml::{RawEvent, Sym};
use xsq_xpath::{Comparison, FnTest};

use crate::depth_vector::DepthVector;
use crate::ids::BpdtId;

/// Index of a state in the HPDT's state table.
pub type StateId = u32;

/// Role a state plays inside its BPDT (for dumps and invariant checks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateRole {
    /// The HPDT's global start state (START of the root BPDT).
    Start,
    /// A TRUE state: the BPDT's predicate is known true.
    True,
    /// An NA state: the predicate has not been evaluated yet.
    Na,
    /// Inside the predicate's witness child (between `<child>` and
    /// `</child>` of the begin-event-triggered categories).
    Witness,
}

/// Static information about a state.
#[derive(Debug, Clone)]
pub struct StateInfo {
    /// The BPDT that owns the state. (START states belong to the parent
    /// BPDT; the states listed here are the owned ones plus the root's.)
    pub owner: BpdtId,
    pub role: StateRole,
}

/// Tag pattern on begin/end/text labels. Names are interned at query
/// compile time, so matching an event tag is a single `u32` compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NamePat {
    Name(Sym),
    /// `*` — any tag.
    Any,
}

impl NamePat {
    #[inline]
    pub fn matches(&self, tag: Sym) -> bool {
        match self {
            NamePat::Name(n) => *n == tag,
            NamePat::Any => true,
        }
    }
}

/// What events an arc accepts, including the depth discipline of §4.3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArcLabel {
    /// The document-start event (consumed by the root BPDT, Fig. 12).
    StartDoc,
    /// The document-end event.
    EndDoc,
    /// A begin event of a *child* of the current anchor:
    /// `e.d == dv.top() + 1`.
    BeginChild(NamePat),
    /// A closure entry arc (the paper's `=`-marked transitions): a begin
    /// event with matching tag at **any** depth below the anchor
    /// (`e.d > dv.top()`).
    BeginAnyDepth(NamePat),
    /// The `//` self-loop on a closure step's START state: any begin
    /// event, no state or depth-vector change.
    ClosureSelfLoop,
    /// An end event at the anchor depth: `e.d == dv.top()`.
    End(NamePat),
    /// A text event of the anchor element itself: `e.d == dv.top()`.
    TextSelf(NamePat),
    /// A text event of a direct child: `e.d == dv.top() + 1` with the
    /// child's tag.
    TextChild(NamePat),
    /// The catchall `*̄`: any event with `e.d > dv.top()` (strict
    /// descendants of the anchor). Used for whole-element output.
    Catchall,
}

/// A predicate guard evaluated against the matched event. A failing guard
/// means the arc does not fire (the paper: "if f evaluates to false, it
/// does nothing").
#[derive(Debug, Clone, PartialEq)]
pub enum Guard {
    /// On a begin event: the named attribute exists and (if present)
    /// satisfies the comparison.
    Attr { name: Sym, cmp: Option<Comparison> },
    /// On a text event: the content satisfies the comparison (`None`
    /// means any text, for bare `[text()]`).
    Text { cmp: Option<Comparison> },
    /// On a begin event: the named attribute exists and satisfies a
    /// function test (`contains`, `starts-with`, …). Category-1 timing.
    AttrFn { name: Sym, test: FnTest },
    /// On a text event: the content satisfies a function test.
    /// Category-2 timing.
    TextFn { test: FnTest },
}

/// Where a freshly produced result value is routed (the disposition is
/// fixed at compile time from the leaf BPDT's id, §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Every predicate on this path is known true: send to output
    /// directly (mark the item as "output" immediately, §4.3).
    Direct,
    /// The leaf's own predicate is still undecided: buffer in the leaf
    /// BPDT's own queue.
    OwnQueue,
    /// The leaf's predicate is true but an ancestor's is not: buffer in
    /// the queue of the nearest undecided ancestor (the upload target).
    Queue(BpdtId),
}

/// The value extracted for a result item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValueSource {
    /// The text of the current text event (`text()` output, `sum()`…).
    Text,
    /// An attribute of the current begin event (`@attr` output).
    Attr(Sym),
    /// The constant `1` anchored at the begin event (`count()`).
    Unit,
}

/// Buffer and output operations attached to an arc. `Self` refers to the
/// BPDT owning the arc.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Predicate resolved true and every ancestor predicate is true:
    /// mark all depth-matching items in this BPDT's queue as output.
    FlushSelf,
    /// Predicate resolved true but an ancestor is undecided: move the
    /// depth-matching items to the target BPDT's queue.
    UploadSelf(BpdtId),
    /// Predicate resolved false (end event from the NA side): drop the
    /// depth-matching items from this BPDT's queue.
    ClearSelf,
    /// Produce a result value from the current event, attributed to the
    /// query `tag` (0 for single-query HPDTs; the member index in a
    /// merged multi-query HPDT, where different leaves emit for
    /// different queries).
    Emit {
        source: ValueSource,
        to: Disposition,
        tag: u32,
    },
    /// Whole-element output: open a new element item at the begin event
    /// of the matched element (serializing the begin tag into it).
    ElementStart { to: Disposition, tag: u32 },
    /// Whole-element output: append the current event to the
    /// configuration's open element item.
    ElementAppend,
    /// Whole-element output: append the end tag and close the item.
    ElementEnd,
}

/// One transition arc.
#[derive(Debug, Clone)]
pub struct Arc {
    pub label: ArcLabel,
    pub guard: Option<Guard>,
    pub target: StateId,
    /// Layer of the owning BPDT. Within one input event, matched arcs are
    /// executed deepest-layer-first so that uploads from closing inner
    /// elements arrive in an ancestor's queue *before* the ancestor's own
    /// flush/clear on the same event (cf. Fig. 8 placing the upload on
    /// `</child>`).
    pub owner_layer: u16,
    /// The BPDT owning this arc (whose queue `*Self` actions address).
    pub owner: BpdtId,
    pub actions: Vec<Action>,
}

impl Arc {
    /// Does this arc accept `event` for a configuration whose depth
    /// vector is `dv`? (Guards are evaluated separately.) Tag checks are
    /// `u32` compares on interned symbols.
    #[inline]
    pub fn label_matches(&self, event: &RawEvent<'_>, dv: &DepthVector) -> bool {
        use RawEvent as E;
        match (&self.label, event) {
            (ArcLabel::StartDoc, E::StartDocument) => true,
            (ArcLabel::EndDoc, E::EndDocument) => true,
            (ArcLabel::BeginChild(pat), E::Begin { name, depth, .. }) => {
                *depth == dv.top() + 1 && pat.matches(*name)
            }
            (ArcLabel::BeginAnyDepth(pat), E::Begin { name, depth, .. }) => {
                *depth > dv.top() && pat.matches(*name)
            }
            (ArcLabel::ClosureSelfLoop, E::Begin { depth, .. }) => *depth > dv.top(),
            (ArcLabel::End(pat), E::End { name, depth }) => {
                *depth == dv.top() && pat.matches(*name)
            }
            (ArcLabel::TextSelf(pat), E::Text { element, depth, .. }) => {
                *depth == dv.top() && pat.matches(*element)
            }
            (ArcLabel::TextChild(pat), E::Text { element, depth, .. }) => {
                *depth == dv.top() + 1 && pat.matches(*element)
            }
            (ArcLabel::Catchall, e) => e.depth() > dv.top(),
            _ => false,
        }
    }

    /// Evaluate the guard against the event (label already matched).
    #[inline]
    pub fn guard_passes(&self, event: &RawEvent<'_>) -> bool {
        match &self.guard {
            None => true,
            Some(Guard::Attr { name, cmp }) => match event.attribute_sym(*name) {
                None => false,
                Some(v) => cmp.as_ref().is_none_or(|c| c.eval(v)),
            },
            Some(Guard::Text { cmp }) => match event {
                RawEvent::Text { text, .. } => cmp.as_ref().is_none_or(|c| c.eval(text)),
                _ => false,
            },
            Some(Guard::AttrFn { name, test }) => match event.attribute_sym(*name) {
                None => false,
                Some(v) => test.eval(v),
            },
            Some(Guard::TextFn { test }) => match event {
                RawEvent::Text { text, .. } => test.eval(text),
                _ => false,
            },
        }
    }

    /// True when firing this arc changes the configuration's state (the
    /// paper's dv rules only apply to real transitions: `s' ≠ s`).
    pub fn changes_state(&self, source: StateId) -> bool {
        self.target != source
    }

    /// Execution priority among arcs of the *same layer* fired by the
    /// same input event: value production must run before the flush or
    /// upload that would release it (an event can be both the witness
    /// and the value, e.g. `//a[text()=2]/text()`), and flush/upload must
    /// run before a clear that would otherwise drop the same entries
    /// (witness-true and NA-side configurations resolving on one end
    /// event).
    pub fn priority(&self) -> u8 {
        let mut p = 1;
        for a in &self.actions {
            match a {
                Action::Emit { .. } | Action::ElementStart { .. } => return 0,
                Action::ClearSelf => p = 2,
                _ => {}
            }
        }
        p
    }
}

/// Event kinds the candidate plan is keyed by (and, for the first
/// three, the query index's inverted dispatch).
pub(crate) const KIND_BEGIN: usize = 0;
pub(crate) const KIND_END: usize = 1;
pub(crate) const KIND_TEXT: usize = 2;
const KIND_START_DOC: usize = 3;
const KIND_END_DOC: usize = 4;
const KINDS: usize = 5;

/// The plan key of an event: its kind and, for element events, its tag.
#[inline]
pub(crate) fn event_kind(event: &RawEvent<'_>) -> (usize, Option<Sym>) {
    match event {
        RawEvent::Begin { name, .. } => (KIND_BEGIN, Some(*name)),
        RawEvent::End { name, .. } => (KIND_END, Some(*name)),
        RawEvent::Text { element, .. } => (KIND_TEXT, Some(*element)),
        RawEvent::StartDocument => (KIND_START_DOC, None),
        RawEvent::EndDocument => (KIND_END_DOC, None),
    }
}

/// The event kinds a label can accept, as a bit set over `KIND_*`, and
/// the tag it requires (`None` for wildcards, loops, catchalls and the
/// document brackets). `label_matches` makes the tag compare a necessary
/// condition, so a named label is only a candidate for its own tag.
fn label_kinds(label: &ArcLabel) -> (u8, Option<Sym>) {
    let named = |p: &NamePat| match p {
        NamePat::Name(s) => Some(*s),
        NamePat::Any => None,
    };
    match label {
        ArcLabel::StartDoc => (1 << KIND_START_DOC, None),
        ArcLabel::EndDoc => (1 << KIND_END_DOC, None),
        ArcLabel::BeginChild(p) | ArcLabel::BeginAnyDepth(p) => (1 << KIND_BEGIN, named(p)),
        ArcLabel::ClosureSelfLoop => (1 << KIND_BEGIN, None),
        ArcLabel::End(p) => (1 << KIND_END, named(p)),
        ArcLabel::TextSelf(p) | ArcLabel::TextChild(p) => (1 << KIND_TEXT, named(p)),
        // Document events sit at depth 0, never below an anchor.
        ArcLabel::Catchall => (1 << KIND_BEGIN | 1 << KIND_END | 1 << KIND_TEXT, None),
    }
}

/// An action-free, guard-free `//` loop on `state`: firing it derives
/// the configuration it fired from, unchanged.
fn is_plain_loop(arc: &Arc, state: usize) -> bool {
    arc.label == ArcLabel::ClosureSelfLoop
        && arc.guard.is_none()
        && arc.actions.is_empty()
        && arc.target as usize == state
}

/// Can the plain `//` loops of `state` leave its begin slot? Only when
/// every other arc that accepts some begin event accepts nothing the
/// loop does not: begin events strictly below the anchor. This is probed
/// through `label_matches` itself rather than read off the label enum,
/// so a future label that accepts begin events at or above the anchor
/// keeps its state's loops in the plan.
fn loops_persist(outgoing: &[Arc], state: usize) -> bool {
    if !outgoing.iter().any(|a| is_plain_loop(a, state)) {
        return false;
    }
    // Any tag will do where the label tests none.
    static PROBE_TAG: std::sync::OnceLock<Sym> = std::sync::OnceLock::new();
    let any = *PROBE_TAG.get_or_init(|| Sym::intern("*"));
    let probe_dv = DepthVector::from_depths(&[0, 3]);
    let begin = |name, depth| RawEvent::Begin {
        name,
        attributes: &[],
        depth,
    };
    outgoing.iter().all(|arc| {
        let (kinds, tag) = label_kinds(&arc.label);
        if is_plain_loop(arc, state) {
            // The loop itself must accept every begin below the anchor.
            [4, 5, 64]
                .iter()
                .all(|&d| arc.label_matches(&begin(any, d), &probe_dv))
        } else {
            kinds & 1 << KIND_BEGIN == 0
                || (0..=probe_dv.top())
                    .all(|d| !arc.label_matches(&begin(tag.unwrap_or(any), d), &probe_dv))
        }
    })
}

/// The queues an action addresses: whether it touches its owner's
/// queue, and the other BPDT whose queue it writes (an upload's target,
/// an enqueue's destination).
fn queues_of(action: &Action) -> (bool, Option<BpdtId>) {
    match action {
        Action::FlushSelf | Action::ClearSelf => (true, None),
        Action::UploadSelf(target) => (true, Some(*target)),
        Action::Emit { to, .. } | Action::ElementStart { to, .. } => match to {
            Disposition::OwnQueue => (true, None),
            Disposition::Queue(id) => (false, Some(*id)),
            Disposition::Direct => (false, None),
        },
        Action::ElementAppend | Action::ElementEnd => (false, None),
    }
}

/// Execution order among arcs fired by one event (see `Arc::priority`
/// and the layer note on `Arc::owner_layer`): deepest layer first, then
/// value production, flush/upload, clear. Smaller runs first.
pub(crate) fn arc_order(arc: &Arc) -> u32 {
    ((u16::MAX - arc.owner_layer) as u32) << 8 | arc.priority() as u32
}

/// One candidate arc of a (state, event kind) slot, with what the
/// runtime's execution phase needs precomputed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cand {
    /// Index into the state's arc list.
    pub(crate) arc: u32,
    /// [`arc_order`] of the arc.
    pub(crate) order: u32,
    /// Firing leaves the configuration exactly as it was: a self-loop
    /// that neither opens nor closes an element item. The configuration
    /// survives and no successor is derived; only the actions run.
    pub(crate) stays: bool,
    /// Where the arc's queue slots start in `ArcPlan::queues` (see
    /// [`ArcPlan::queue_slots`]).
    pub(crate) queues: u32,
}

/// A state's part in its BPDT's `(NA, TRUE)` pair (`Hpdt::na_twins`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Twin {
    Unpaired,
    /// A TRUE state: entering it retires the configuration at this NA
    /// state with the same depth vector and item.
    Retires(StateId),
    /// An NA state: a configuration may not enter it while the one at
    /// this TRUE state with the same depth vector and item is live.
    YieldsTo(StateId),
}

/// Where one (state, event kind) slot's candidates live.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Range of `ArcPlan::keys` holding this slot's tags, sorted.
    keys: (u32, u32),
    /// Range of `ArcPlan::cands` for an event whose tag has no key here
    /// (or that has no tag): the arcs with no tag test.
    rest: (u32, u32),
    /// Begin slots only: the state's plain `//` loops were left out, and
    /// its configurations survive every begin event.
    persist: bool,
}

/// Candidate arcs per (state, event kind), built once per compiled HPDT
/// (see `Hpdt::plan`) and shared by every runner of it. For an event with tag `t`, a slot
/// yields one contiguous run: the arcs testing for `t` merged with the
/// arcs that test no tag, in ascending arc order. A state with one
/// named arc per merged query (the N=512 frontier) therefore costs a
/// binary search plus the arcs that can match, and a small state the
/// same single slice walk.
///
/// In scan-all states the begin slot omits plain `//` loops (action-free,
/// guard-free closure self-loops) and sets `persist` instead: such a loop
/// only re-derives its configuration, and [`loops_persist`] checks that it
/// accepts every begin event any other arc of the state accepts, so
/// "the configuration survives every begin event" says the same thing
/// without probing the loop on every event.
///
/// The plan also resolves what the runtime would otherwise look up per
/// action or per successor: the dense queue slot every buffer action
/// addresses, and each state's part in its BPDT's `(NA, TRUE)` pair.
#[derive(Debug)]
pub(crate) struct ArcPlan {
    /// `slots[state * KINDS + kind]`.
    slots: Vec<Slot>,
    /// `(tag, start, end)`: the candidate range of `cands` for that tag.
    keys: Vec<(Sym, u32, u32)>,
    cands: Vec<Cand>,
    /// Per arc with actions: its owner's queue slot, then one slot per
    /// action (see [`Self::queue_slots`]).
    queues: Vec<u32>,
    /// Per state.
    twins: Vec<Twin>,
}

/// Queue slot of an action that addresses no queue.
const NO_QUEUE: u32 = u32::MAX;

impl ArcPlan {
    /// Build the plan for a transition function. `scan_all` is the
    /// per-state flag of [`crate::build::Hpdt::scan_all`]: only states
    /// that never stop at a first match may drop their loops.
    /// `queue_index` and `na_twins` are the HPDT's fields of those names.
    ///
    /// # Panics
    ///
    /// If a buffer action addresses a BPDT with no queue slot, which
    /// [`crate::analyze::verify`] reports as `queue-index-missing`.
    pub(crate) fn build(
        arcs: &[Vec<Arc>],
        scan_all: &[bool],
        queue_index: &HashMap<BpdtId, usize>,
        na_twins: &[(StateId, StateId)],
    ) -> ArcPlan {
        let arc_count: usize = arcs.iter().map(Vec::len).sum();
        let mut plan = ArcPlan {
            slots: Vec::with_capacity(arcs.len() * KINDS),
            keys: Vec::with_capacity(arc_count),
            cands: Vec::with_capacity(2 * arc_count),
            queues: Vec::new(),
            twins: vec![Twin::Unpaired; arcs.len()],
        };
        for &(na, t) in na_twins {
            plan.twins[t as usize] = Twin::Retires(na);
            plan.twins[na as usize] = Twin::YieldsTo(t);
        }
        let slot_of = |id: BpdtId| {
            *queue_index
                .get(&id)
                .expect("a buffer action addresses a registered queue") as u32
        };
        // Per arc of the current state: the kinds it is a candidate
        // for (none for an omitted loop), its tag, and its candidate.
        let mut meta: Vec<(u8, Option<Sym>, Cand)> = Vec::new();
        let mut named: Vec<(Sym, u32)> = Vec::new();
        let mut rest: Vec<u32> = Vec::new();
        for (s, outgoing) in arcs.iter().enumerate() {
            let persist = scan_all.get(s).copied().unwrap_or(false) && loops_persist(outgoing, s);
            meta.clear();
            let mut present = 0u8;
            for (ai, arc) in outgoing.iter().enumerate() {
                let (mut kinds, tag) = label_kinds(&arc.label);
                if persist && is_plain_loop(arc, s) {
                    kinds = 0;
                }
                present |= kinds;
                let stays = arc.target as usize == s
                    && !arc
                        .actions
                        .iter()
                        .any(|a| matches!(a, Action::ElementStart { .. } | Action::ElementEnd));
                let cand = Cand {
                    arc: ai as u32,
                    order: arc_order(arc),
                    stays,
                    queues: plan.queues.len() as u32,
                };
                if !arc.actions.is_empty() {
                    let own = if arc.actions.iter().any(|a| queues_of(a).0) {
                        slot_of(arc.owner)
                    } else {
                        NO_QUEUE
                    };
                    plan.queues.push(own);
                    for action in &arc.actions {
                        plan.queues.push(match queues_of(action) {
                            (_, Some(other)) => slot_of(other),
                            (true, None) => own,
                            (false, None) => NO_QUEUE,
                        });
                    }
                }
                meta.push((kinds, tag, cand));
            }
            for kind in 0..KINDS {
                let keys_start = plan.keys.len() as u32;
                let rest_start = plan.cands.len() as u32;
                named.clear();
                rest.clear();
                if present & 1 << kind != 0 {
                    for (ai, &(kinds, tag, _)) in meta.iter().enumerate() {
                        match tag {
                            _ if kinds & 1 << kind == 0 => {}
                            Some(t) => named.push((t, ai as u32)),
                            None => rest.push(ai as u32),
                        }
                    }
                    named.sort_unstable();
                    plan.cands
                        .extend(rest.iter().map(|&ai| meta[ai as usize].2));
                    for run in named.chunk_by(|a, b| a.0 == b.0) {
                        // Merge two ascending runs of arc indices.
                        let start = plan.cands.len() as u32;
                        let (mut i, mut j) = (0, 0);
                        while i < run.len() || j < rest.len() {
                            let ai = if j == rest.len() || (i < run.len() && run[i].1 < rest[j]) {
                                i += 1;
                                run[i - 1].1
                            } else {
                                j += 1;
                                rest[j - 1]
                            };
                            plan.cands.push(meta[ai as usize].2);
                        }
                        plan.keys.push((run[0].0, start, plan.cands.len() as u32));
                    }
                }
                plan.slots.push(Slot {
                    keys: (keys_start, plan.keys.len() as u32),
                    rest: (rest_start, rest_start + rest.len() as u32),
                    persist: persist && kind == KIND_BEGIN,
                });
            }
        }
        plan
    }

    #[inline]
    fn slot(&self, state: StateId, kind: usize) -> &Slot {
        &self.slots[state as usize * KINDS + kind]
    }

    /// The candidate arcs of `state` for an event of `kind` with `tag`,
    /// in ascending arc order, and whether the state's configurations
    /// survive the event whatever fires (`Slot::persist`).
    #[inline]
    pub(crate) fn candidates(
        &self,
        state: StateId,
        kind: usize,
        tag: Option<Sym>,
    ) -> (&[Cand], bool) {
        let slot = self.slot(state, kind);
        let keys = &self.keys[slot.keys.0 as usize..slot.keys.1 as usize];
        let (lo, hi) = match tag.map(|t| keys.binary_search_by_key(&t, |k| k.0)) {
            Some(Ok(i)) => (keys[i].1, keys[i].2),
            _ => slot.rest,
        };
        (&self.cands[lo as usize..hi as usize], slot.persist)
    }

    /// The queue slots of the arc whose candidate carries `queues`, for
    /// its action `action`: `(own, addressed)`, the owner's slot and the
    /// slot that action addresses — the upload target, an enqueue's
    /// destination, or the owner's own for flush and clear. Only valid
    /// for an action that addresses a queue.
    #[inline]
    pub(crate) fn queue_slots(&self, queues: u32, action: usize) -> (usize, usize) {
        let at = queues as usize;
        (
            self.queues[at] as usize,
            self.queues[at + 1 + action] as usize,
        )
    }

    /// The NA state whose configuration a configuration entering the
    /// TRUE state `state` retires, if `state` is a paired TRUE state.
    #[inline]
    pub(crate) fn retires(&self, state: StateId) -> Option<StateId> {
        match self.twins[state as usize] {
            Twin::Retires(na) => Some(na),
            _ => None,
        }
    }

    /// The TRUE state whose live configuration keeps one from entering
    /// the NA state `state`, if `state` is a paired NA state.
    #[inline]
    pub(crate) fn yields_to(&self, state: StateId) -> Option<StateId> {
        match self.twins[state as usize] {
            Twin::YieldsTo(t) => Some(t),
            _ => None,
        }
    }

    /// Is `arc` a plain `//` loop this plan leaves out of `state`'s begin
    /// slot? (The tracer lists these firings; the runtime never probes
    /// them.)
    pub(crate) fn omits(&self, arc: &Arc, state: StateId) -> bool {
        self.slot(state, KIND_BEGIN).persist && is_plain_loop(arc, state as usize)
    }

    /// What `state` can react to among events of `kind`: the tags with a
    /// candidate run of their own, and whether any arc accepts every tag
    /// (a non-empty `rest`). This is the dispatch index's interest.
    pub(crate) fn interest(
        &self,
        state: StateId,
        kind: usize,
    ) -> (impl Iterator<Item = Sym> + '_, bool) {
        let slot = self.slot(state, kind);
        let keys = &self.keys[slot.keys.0 as usize..slot.keys.1 as usize];
        (keys.iter().map(|k| k.0), slot.rest.0 != slot.rest.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsq_xml::{Attribute, SaxEvent};
    use xsq_xpath::value::XPathValue;
    use xsq_xpath::{CmpOp, Comparison};

    fn begin(name: &str, depth: u32) -> SaxEvent {
        SaxEvent::Begin {
            name: name.into(),
            attributes: vec![Attribute::new("id", "5")],
            depth,
        }
    }

    fn text(element: &str, content: &str, depth: u32) -> SaxEvent {
        SaxEvent::Text {
            element: element.into(),
            text: content.into(),
            depth,
        }
    }

    fn end(name: &str, depth: u32) -> SaxEvent {
        SaxEvent::End {
            name: name.into(),
            depth,
        }
    }

    fn arc(label: ArcLabel) -> Arc {
        Arc {
            label,
            guard: None,
            target: 1,
            owner_layer: 0,
            owner: BpdtId::ROOT,
            actions: vec![],
        }
    }

    fn matches(a: &Arc, ev: &SaxEvent, dv: &DepthVector) -> bool {
        a.label_matches(&ev.as_raw(), dv)
    }

    fn passes(a: &Arc, ev: &SaxEvent) -> bool {
        a.guard_passes(&ev.as_raw())
    }

    #[test]
    fn begin_child_requires_exact_depth() {
        let a = arc(ArcLabel::BeginChild(NamePat::Name("book".into())));
        let dv = DepthVector::from_depths(&[0, 1]);
        assert!(matches(&a, &begin("book", 2), &dv));
        assert!(!matches(&a, &begin("book", 3), &dv));
        assert!(!matches(&a, &begin("pub", 2), &dv));
    }

    #[test]
    fn begin_any_depth_accepts_deeper_descendants() {
        let a = arc(ArcLabel::BeginAnyDepth(NamePat::Name("book".into())));
        let dv = DepthVector::from_depths(&[0, 1]);
        assert!(matches(&a, &begin("book", 2), &dv));
        assert!(matches(&a, &begin("book", 7), &dv));
        assert!(!matches(&a, &begin("book", 1), &dv));
    }

    #[test]
    fn closure_self_loop_accepts_any_begin_below() {
        let a = arc(ArcLabel::ClosureSelfLoop);
        let dv = DepthVector::from_depths(&[0, 3]);
        assert!(matches(&a, &begin("anything", 4), &dv));
        assert!(matches(&a, &begin("x", 9), &dv));
        assert!(!matches(&a, &begin("x", 3), &dv));
        assert!(!matches(&a, &text("x", "t", 5), &dv));
    }

    #[test]
    fn text_self_vs_text_child_depths() {
        let dv = DepthVector::from_depths(&[0, 2]);
        let self_arc = arc(ArcLabel::TextSelf(NamePat::Name("year".into())));
        let child_arc = arc(ArcLabel::TextChild(NamePat::Name("year".into())));
        assert!(matches(&self_arc, &text("year", "2002", 2), &dv));
        assert!(!matches(&self_arc, &text("year", "2002", 3), &dv));
        assert!(matches(&child_arc, &text("year", "2002", 3), &dv));
        assert!(!matches(&child_arc, &text("other", "2002", 3), &dv));
    }

    #[test]
    fn catchall_matches_strict_descendants_of_any_kind() {
        let a = arc(ArcLabel::Catchall);
        let dv = DepthVector::from_depths(&[0, 1]);
        assert!(matches(&a, &begin("x", 2), &dv));
        assert!(matches(&a, &text("x", "t", 2), &dv));
        assert!(matches(&a, &end("x", 2), &dv));
        // The anchor's own events are not descendants.
        assert!(!matches(&a, &text("a", "t", 1), &dv));
        assert!(!matches(&a, &end("a", 1), &dv));
    }

    #[test]
    fn attr_guard_checks_existence_and_comparison() {
        let mut a = arc(ArcLabel::BeginChild(NamePat::Any));
        a.guard = Some(Guard::Attr {
            name: "id".into(),
            cmp: None,
        });
        assert!(passes(&a, &begin("b", 1)));
        a.guard = Some(Guard::Attr {
            name: "id".into(),
            cmp: Some(Comparison {
                op: CmpOp::Le,
                rhs: XPathValue::number(10.0),
            }),
        });
        assert!(passes(&a, &begin("b", 1))); // id=5 <= 10
        a.guard = Some(Guard::Attr {
            name: "missing".into(),
            cmp: None,
        });
        assert!(!passes(&a, &begin("b", 1)));
    }

    #[test]
    fn text_guard_evaluates_content() {
        let mut a = arc(ArcLabel::TextSelf(NamePat::Any));
        a.guard = Some(Guard::Text {
            cmp: Some(Comparison {
                op: CmpOp::Gt,
                rhs: XPathValue::number(2000.0),
            }),
        });
        assert!(passes(&a, &text("year", "2002", 1)));
        assert!(!passes(&a, &text("year", "1999", 1)));
        assert!(!passes(&a, &begin("year", 1)));
    }

    #[test]
    fn end_label_matches_at_anchor_depth() {
        let a = arc(ArcLabel::End(NamePat::Name("pub".into())));
        let dv = DepthVector::from_depths(&[0, 1]);
        assert!(matches(&a, &end("pub", 1), &dv));
        assert!(!matches(&a, &end("pub", 2), &dv));
    }

    /// The plan of a transition function with no buffers and no pairs.
    fn plan_of(arcs: &[Vec<Arc>], scan_all: &[bool]) -> ArcPlan {
        ArcPlan::build(arcs, scan_all, &HashMap::new(), &[])
    }

    /// The plan's candidates for `ev` on state 0 of `outgoing`.
    fn plan_candidates(plan: &ArcPlan, ev: &SaxEvent) -> (Vec<u32>, bool) {
        let raw = ev.as_raw();
        let (kind, tag) = event_kind(&raw);
        let (cands, persist) = plan.candidates(0, kind, tag);
        (cands.iter().map(|c| c.arc).collect(), persist)
    }

    #[test]
    fn plan_candidates_cover_every_arc_a_linear_scan_fires() {
        // A frontier-like state: many named begin arcs plus wildcard and
        // document arcs. Every arc a linear scan could fire must be a
        // candidate, in ascending arc order.
        let mut outgoing = Vec::new();
        for i in 0..10 {
            outgoing.push(arc(ArcLabel::BeginChild(NamePat::Name(
                format!("t{i}").as_str().into(),
            ))));
        }
        outgoing.push(arc(ArcLabel::BeginChild(NamePat::Any)));
        outgoing.push(arc(ArcLabel::End(NamePat::Name("t3".into()))));
        outgoing.push(arc(ArcLabel::TextChild(NamePat::Name("t3".into()))));
        outgoing.push(arc(ArcLabel::Catchall));
        outgoing.push(arc(ArcLabel::StartDoc));
        let plan = plan_of(std::slice::from_ref(&outgoing), &[true]);

        let events = [
            begin("t3", 2),
            begin("t7", 2),
            begin("unknown", 2),
            end("t3", 2),
            text("t3", "v", 2),
            SaxEvent::StartDocument,
            SaxEvent::EndDocument,
        ];
        let dv = DepthVector::from_depths(&[0, 1]);
        for ev in &events {
            let (got, persist) = plan_candidates(&plan, ev);
            assert!(!persist, "no loop, nothing persists");
            for (ai, a) in outgoing.iter().enumerate() {
                if matches(a, ev, &dv) {
                    assert!(got.contains(&(ai as u32)), "missing arc {ai} for {ev:?}");
                }
            }
            assert!(got.windows(2).all(|w| w[0] < w[1]), "order for {ev:?}");
        }
        // A named arc is a candidate for its own tag only.
        let (got, _) = plan_candidates(&plan, &begin("unknown", 2));
        assert_eq!(got, [10, 13], "wildcard begin and catchall only");
    }

    #[test]
    fn plain_loops_leave_scan_all_begin_slots_and_set_persist() {
        let self_loop = |mut a: Arc| {
            a.target = 0;
            a
        };
        let outgoing = vec![
            self_loop(arc(ArcLabel::ClosureSelfLoop)),
            arc(ArcLabel::BeginAnyDepth(NamePat::Name("b".into()))),
            arc(ArcLabel::End(NamePat::Name("a".into()))),
        ];
        let plan = plan_of(std::slice::from_ref(&outgoing), &[true]);
        assert_eq!(plan_candidates(&plan, &begin("b", 3)), (vec![1], true));
        assert_eq!(plan_candidates(&plan, &begin("zz", 3)), (vec![], true));
        // Persist is a begin-slot bit only.
        assert_eq!(plan_candidates(&plan, &end("a", 1)), (vec![2], false));
        let mut probe = Vec::new();
        for ev in [begin("b", 3), begin("zz", 3)] {
            probe.push(
                outgoing.iter().any(|a| {
                    plan.omits(a, 0) && matches(a, &ev, &DepthVector::from_depths(&[0, 1]))
                }),
            );
        }
        assert_eq!(probe, [true, true], "the tracer still sees the loop fire");

        // A state that may stop at its first match keeps the loop.
        let plan = plan_of(std::slice::from_ref(&outgoing), &[false]);
        assert_eq!(plan_candidates(&plan, &begin("zz", 3)), (vec![0], false));

        // Guarded or action-bearing loops are not plain: they stay.
        for tweak in [
            |a: &mut Arc| {
                a.guard = Some(Guard::Attr {
                    name: "id".into(),
                    cmp: None,
                })
            },
            |a: &mut Arc| a.actions.push(Action::ElementAppend),
        ] {
            let mut outgoing = outgoing.clone();
            tweak(&mut outgoing[0]);
            let plan = plan_of(std::slice::from_ref(&outgoing), &[true]);
            assert_eq!(plan_candidates(&plan, &begin("zz", 3)), (vec![0], false));
        }
    }

    #[test]
    fn persist_requires_every_begin_arc_to_stay_below_the_anchor() {
        // Every label the builder emits passes the probe...
        for label in [
            ArcLabel::BeginChild(NamePat::Any),
            ArcLabel::BeginAnyDepth(NamePat::Name("b".into())),
            ArcLabel::Catchall,
        ] {
            let mut lp = arc(ArcLabel::ClosureSelfLoop);
            lp.target = 0;
            assert!(loops_persist(&[lp, arc(label.clone())], 0), "{label:?}");
        }
        // ...and a loop that is not a self-loop cannot persist anything.
        assert!(!loops_persist(&[arc(ArcLabel::ClosureSelfLoop)], 0));
    }

    #[test]
    fn stays_marks_self_loops_that_keep_the_item() {
        let mut append = arc(ArcLabel::Catchall);
        append.target = 0;
        append.actions.push(Action::ElementAppend);
        let mut close = append.clone();
        close.label = ArcLabel::TextSelf(NamePat::Any);
        close.actions = vec![Action::ElementEnd];
        let moving = arc(ArcLabel::TextChild(NamePat::Any));
        let plan = plan_of(&[vec![append, close, moving]], &[true]);
        let raw = text("x", "t", 2);
        let (kind, tag) = event_kind(&raw.as_raw());
        let stays: Vec<bool> = plan
            .candidates(0, kind, tag)
            .0
            .iter()
            .map(|c| c.stays)
            .collect();
        assert_eq!(stays, [true, false, false]);
    }
}
