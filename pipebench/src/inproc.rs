//! The in-process path: `QuerySet` → `QueryIndex`, pull parser, one
//! thread, checked per query against the DOM baseline.

use std::time::Instant;

use xsq_baselines::SaxonLike;
use xsq_core::{QueryId, QueryIndex, QuerySet, QuerySink, XPathEngine, XsqEngine};

use crate::openloop::{Plan, Stamps};
use crate::workload::Workload;

/// Per document, per query: the DOM baseline's results.
pub type Oracle = Vec<Vec<Vec<String>>>;

pub fn dom_oracle(w: &Workload) -> Result<Oracle, String> {
    w.docs
        .iter()
        .map(|doc| {
            w.queries
                .iter()
                .map(|q| {
                    SaxonLike
                        .run(q, doc)
                        .map(|r| r.results)
                        .map_err(|e| format!("DOM baseline on {q}: {e}"))
                })
                .collect()
        })
        .collect()
}

/// Collects one document's results per query into one text arena, so
/// the timed path allocates nothing once warm.
struct Collect {
    text: String,
    spans: Vec<Vec<(usize, usize)>>,
}

impl QuerySink for Collect {
    fn result(&mut self, id: QueryId, value: &str) {
        let start = self.text.len();
        self.text.push_str(value);
        self.spans[id.0 as usize].push((start, self.text.len()));
    }
}

impl Collect {
    fn clear(&mut self) {
        self.text.clear();
        self.spans.iter_mut().for_each(Vec::clear);
    }

    fn matches(&self, want: &[Vec<String>]) -> bool {
        self.spans.len() == want.len()
            && self.spans.iter().zip(want).all(|(got, want)| {
                got.len() == want.len()
                    && got
                        .iter()
                        .zip(want)
                        .all(|(&(a, b), w)| &self.text[a..b] == w)
            })
    }
}

pub struct Inproc {
    index: QueryIndex,
    sink: Collect,
}

impl Inproc {
    /// Compile the query set and build its index: everything before
    /// the first document can be fed.
    pub fn setup(w: &Workload) -> Result<Inproc, String> {
        let set = QuerySet::compile(XsqEngine::full(), w.queries)
            .map_err(|(i, e)| format!("query {} ({}): {e}", i + 1, w.queries[i]))?;
        Ok(Inproc {
            index: set.index(),
            sink: Collect {
                text: String::new(),
                spans: vec![Vec::new(); w.queries.len()],
            },
        })
    }

    /// Run one document; false when its output differs from the oracle.
    fn run_doc(&mut self, doc: &[u8], want: &[Vec<String>]) -> Result<bool, String> {
        self.sink.clear();
        self.index
            .run_document(doc, &mut self.sink)
            .map_err(|e| e.to_string())?;
        Ok(self.sink.matches(want))
    }

    /// Run a plan on this thread: a document that comes due while the
    /// previous one is in service waits for it, as it would in a
    /// single-threaded consumer.
    pub fn run(&mut self, w: &Workload, oracle: &Oracle, plan: &Plan) -> Result<Stamps, String> {
        let mut st = Stamps::new(plan.len());
        let origin = Instant::now();
        for (i, &d) in plan.docs.iter().enumerate() {
            let now = origin.elapsed().as_nanos() as u64;
            let idle = plan.due_ns[i] > now;
            if idle {
                std::thread::sleep(std::time::Duration::from_nanos(plan.due_ns[i] - now));
            }
            let start = origin.elapsed().as_nanos() as u64;
            let ok = self.run_doc(&w.docs[d], &oracle[d])?;
            let end = origin.elapsed().as_nanos() as u64;
            // A document that came due while its predecessor ran was
            // queued on time: only oversleeping counts as generator lag.
            st.send_ns[i] = if idle { start } else { plan.due_ns[i] };
            st.sent_ns[i] = st.send_ns[i];
            st.done_ns[i] = end;
            if !ok {
                st.mismatched += 1;
            }
        }
        Ok(st)
    }
}
