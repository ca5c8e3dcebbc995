//! Runner equivalence on recursive data: the XSQ-F runtime, run solo and
//! grouped inside a `QueryIndex`, and XSQ-NC wherever the query compiles
//! to a deterministic HPDT, must return exactly what the DOM baseline
//! (`SaxonLike`) returns — same values, same document order.
//!
//! Documents are seeded and hermetic: `xmlgen` recursive documents
//! (`pub` in `pub`, nested 4–7 levels) and small random trees over a tag
//! pool in which `pub` nests in `pub` and `book` in `book`, plus two
//! hand-written trees. A failure names its seed; replay one case with
//! `RUNNER_EQUIV_SEED=<seed> cargo test --test runner_equivalence`.

use xsq::baselines::SaxonLike;
use xsq::datagen::xmlgen::{self, XmlGenParams};
use xsq::engine::{build_hpdt, Runner, VecSink, XPathEngine};
use xsq::{QueryIndex, VecQuerySink, XsqEngine};
use xsq_datagen::rng::StdRng;

/// Closure, predicate, element-output, attribute and aggregate queries.
const QUERIES: &[&str] = &[
    "//a//a/text()",
    "//pub[year]//book[@id]/title/text()",
    "//book",
    "//b[@x]//c/text()",
    "//pub//pub/year/text()",
    "//book//book/title/text()",
    "//pub[year]/book/@id",
    "//pub/book[price]/title/text()",
    "//book[title]//title/text()",
    "/site/pub/book/title/text()",
    "//a[b]//c",
    "//b/@x",
    "//book/count()",
    "//price/sum()",
    "//a[c=3]/b/text()",
    "//*/c/text()",
    // A predicate decided true beside a live NA twin: the twin retires.
    "//pub[year=3]//title/text()",
    "//pub[year]",
    "//pub[year]//book/count()",
    "//a[text()=2]//c/text()",
    "//b[c=3]//b/text()",
    "//a[b@x]//c/text()",
    "//a[b@x=2]//a",
    "//pub[year]//book[title]//price/text()",
    "//a[c]//a[b]//c/text()",
    "//a[c=1]//b[text()=2]/text()",
];

const TAGS: &[&str] = &["a", "b", "c", "pub", "book", "year", "title", "price"];

/// A random tree of at most `depth` levels below `tag`.
fn tree(rng: &mut StdRng, tag: &str, depth: u32, out: &mut String) {
    out.push('<');
    out.push_str(tag);
    for attr in ["id", "x"] {
        if rng.gen_bool(0.4) {
            out.push_str(&format!(" {attr}=\"{}\"", rng.gen_range(0..5u32)));
        }
    }
    out.push('>');
    let children = if depth == 0 {
        0
    } else {
        rng.gen_range(0..4u32)
    };
    for _ in 0..children {
        if rng.gen_bool(0.3) {
            out.push_str(&rng.gen_range(0..6u32).to_string());
        }
        let child = TAGS[rng.gen_range(0..TAGS.len())];
        tree(rng, child, depth - 1, out);
    }
    if rng.gen_bool(0.5) {
        out.push_str(&rng.gen_range(0..6u32).to_string());
    }
    out.push_str("</");
    out.push_str(tag);
    out.push('>');
}

/// The document for one seed: even seeds are xmlgen documents, odd
/// seeds random trees.
fn document(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    if seed.is_multiple_of(2) {
        xmlgen::generate(
            XmlGenParams {
                nested_levels: rng.gen_range(4..=7u32),
                max_repeats: 3,
                seed,
            },
            3_000,
        )
    } else {
        let mut out = String::new();
        let depth = rng.gen_range(4..=7u32);
        tree(&mut rng, "site", depth, &mut out);
        out
    }
}

const HAND_SHAPED: &[&str] = &[
    "<site><pub><year>2002</year><book id=\"1\"><title>T1</title>\
     <book id=\"2\"><title>T2</title><price>3</price></book></book>\
     <pub><book><title>T3</title><book id=\"4\"><title>T4</title></book></book>\
     <year>1999</year></pub></pub><pub><book id=\"5\"><title>T5</title></book></pub></site>",
    "<site><a><a x=\"1\"><b x=\"2\"><c>1</c><a><c>3</c><b>B</b></a></b>\
     <a><a>deep</a></a></a><b>no</b><c>3</c></a><b x=\"0\"><b><c>2</c></b></b></site>",
];

fn solo(query: &str, doc: &[u8], scan_all: bool) -> Vec<String> {
    let hpdt =
        build_hpdt(&xsq::xpath::parse_query(query).expect("query parses")).expect("query compiles");
    let mut runner = Runner::new(&hpdt, scan_all);
    let mut sink = VecSink::new();
    for event in xsq::xml::parse_to_events(doc).expect("document parses") {
        runner.feed(&event, &mut sink);
    }
    assert_eq!(runner.buffered_entries(), 0, "buffers drain by </root>");
    runner.finish(&mut sink);
    sink.results
}

fn deterministic(query: &str) -> bool {
    build_hpdt(&xsq::xpath::parse_query(query).expect("query parses"))
        .expect("query compiles")
        .deterministic
}

/// Check every runner against the DOM baseline on one document.
fn check(doc: &str, context: &str) {
    let bytes = doc.as_bytes();
    let mut index = QueryIndex::new(XsqEngine::full());
    let ids = index.subscribe_group(QUERIES).expect("queries subscribe");
    let mut grouped = VecQuerySink::new();
    index.run_document(bytes, &mut grouped).expect("index run");
    for (q, id) in QUERIES.iter().zip(&ids) {
        let expected = SaxonLike.run(q, bytes).expect("DOM baseline runs").results;
        let got = solo(q, bytes, true);
        assert_eq!(got, expected, "solo XSQ-F on {q} ({context})\n{doc}");
        let got: Vec<String> = grouped.of(*id).iter().map(|s| s.to_string()).collect();
        assert_eq!(got, expected, "QueryIndex on {q} ({context})\n{doc}");
        if deterministic(q) {
            let got = solo(q, bytes, false);
            assert_eq!(got, expected, "XSQ-NC on {q} ({context})\n{doc}");
        }
    }
}

#[test]
fn runners_agree_with_the_dom_baseline_on_seeded_recursive_documents() {
    let seeds: Vec<u64> = match std::env::var("RUNNER_EQUIV_SEED") {
        Ok(s) => vec![s.parse().expect("RUNNER_EQUIV_SEED is a u64")],
        Err(_) => (0..96).collect(),
    };
    for seed in seeds {
        check(&document(seed), &format!("replay seed {seed}"));
    }
}

#[test]
fn runners_agree_with_the_dom_baseline_on_hand_shaped_trees() {
    for (i, doc) in HAND_SHAPED.iter().enumerate() {
        check(doc, &format!("hand-shaped tree {i}"));
    }
}

#[test]
fn the_query_set_covers_both_runtimes() {
    // Keep the XSQ-NC leg meaningful: some queries are deterministic.
    assert!(QUERIES.iter().any(|q| deterministic(q)));
    assert!(QUERIES.iter().any(|q| !deterministic(q)));
}
