//! Push-based incremental parsing: network chunks in, events out.
//!
//! The pull parser ([`StreamParser`]) asks its [`BufRead`] for bytes
//! whenever it wants some — fine for files, wrong for sockets, where
//! bytes arrive in chunks that split tokens, multi-byte UTF-8 sequences
//! and the CDATA `]]>` terminator at arbitrary boundaries. The tokenizer
//! is resumable (see [`crate::parser`]): when its buffer runs dry
//! mid-token it keeps its partial-token state and picks up from there.
//! So inverting the flow takes no grammar here, only a queue:
//!
//! * [`ChunkBuf`] is a [`BufRead`] the *caller* appends to: a plain
//!   append-and-compact byte queue that never looks at the bytes.
//! * [`PushParser`] (= `StreamParser<ChunkBuf>`) adds the push surface:
//!   [`push`](StreamParser::push) appends a chunk,
//!   [`poll_raw`](StreamParser::poll_raw) pulls events until it reports
//!   [`ParsePoll::NeedMore`](crate::ParsePoll::NeedMore), and
//!   [`finish`](StreamParser::finish) marks end-of-input so the final
//!   token and well-formedness checks run.
//!
//! Push and pull differ only in what an empty buffer means, so a
//! document fed in 1-byte chunks produces the event stream — and the
//! errors — of a whole-buffer parse, and every pushed byte is examined
//! once. The chunked differential tests pin that equivalence.
//!
//! Memory is bounded by the largest single token (held in the
//! tokenizer's scratch buffers) plus the unconsumed part of the chunks
//! pushed since the last poll.

use std::io::{BufRead, Read};

use crate::parser::{ParserOptions, StreamParser};

/// Compact once the consumed prefix passes this size (or the buffer is
/// fully drained, which is free).
const COMPACT_THRESHOLD: usize = 4096;

/// The push parser's input: a growable byte queue that [`push`](Self::push)
/// appends to and the tokenizer drains through [`BufRead`].
#[derive(Debug, Default)]
pub struct ChunkBuf {
    data: Vec<u8>,
    /// Read position of the consumer side.
    pos: usize,
}

impl ChunkBuf {
    /// Append a chunk, first dropping the consumed prefix: free when
    /// fully drained, amortized otherwise.
    fn push(&mut self, chunk: &[u8]) {
        if self.pos == self.data.len() {
            self.data.clear();
            self.pos = 0;
        } else if self.pos >= COMPACT_THRESHOLD {
            self.data.drain(..self.pos);
            self.pos = 0;
        }
        self.data.extend_from_slice(chunk);
    }

    /// Rearm for a new input stream, keeping the allocation.
    fn clear(&mut self) {
        self.data.clear();
        self.pos = 0;
    }

    /// Bytes appended but not yet consumed by the parser.
    fn buffered(&self) -> usize {
        self.data.len() - self.pos
    }
}

impl Read for ChunkBuf {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.buffered().min(buf.len());
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

impl BufRead for ChunkBuf {
    #[inline]
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        Ok(&self.data[self.pos..])
    }

    #[inline]
    fn consume(&mut self, amt: usize) {
        self.pos += amt;
        debug_assert!(self.pos <= self.data.len());
    }
}

/// A push-fed [`StreamParser`]: bytes go in through
/// [`push`](StreamParser::push), events come out through
/// [`poll_raw`](StreamParser::poll_raw).
///
/// ```
/// use xsq_xml::{ParsePoll, RawEvent, StreamParser};
///
/// let mut p = StreamParser::push_mode();
/// // A chunk boundary in the middle of a tag, a UTF-8 sequence, …
/// p.push(b"<a><b>caf\xc3");
/// let mut names = Vec::new();
/// loop {
///     match p.poll_raw().unwrap() {
///         ParsePoll::Event(RawEvent::Begin { name, .. }) => names.push(name.to_string()),
///         ParsePoll::Event(_) => {}
///         ParsePoll::NeedMore => break,
///         ParsePoll::End => unreachable!(),
///     }
/// }
/// assert_eq!(names, ["a", "b"]);
/// p.push(b"\xa9</b></a>");
/// p.finish();
/// let mut texts = Vec::new();
/// loop {
///     match p.poll_raw().unwrap() {
///         ParsePoll::Event(RawEvent::Text { text, .. }) => texts.push(text.to_string()),
///         ParsePoll::Event(_) => {}
///         ParsePoll::NeedMore => unreachable!("input is finished"),
///         ParsePoll::End => break,
///     }
/// }
/// assert_eq!(texts, ["café"]);
/// ```
pub type PushParser = StreamParser<ChunkBuf>;

impl StreamParser<ChunkBuf> {
    /// A push-fed parser with default options.
    pub fn push_mode() -> PushParser {
        Self::push_mode_with_options(ParserOptions::default())
    }

    /// A push-fed parser with explicit options.
    pub fn push_mode_with_options(options: ParserOptions) -> PushParser {
        let mut parser = StreamParser::with_options(ChunkBuf::default(), options);
        parser.soft_input = true;
        parser
    }

    /// Append a chunk of the document. Chunks may split anything —
    /// tags, multi-byte UTF-8 sequences, entity references, `]]>` —
    /// at any byte boundary.
    pub fn push(&mut self, chunk: &[u8]) {
        self.reader.push(chunk);
    }

    /// Signal end of input. After this, [`poll_raw`](Self::poll_raw)
    /// never reports [`crate::ParsePoll::NeedMore`]: it drains the
    /// remaining events, reports the errors a truncated document
    /// deserves, and ends with [`crate::ParsePoll::End`].
    pub fn finish(&mut self) {
        self.soft_input = false;
    }

    /// Rearm for the next document of the session, keeping every warmed
    /// scratch buffer, the interned-name cache, and the chunk buffer's
    /// allocation — the push-mode analogue of
    /// [`reset_with`](Self::reset_with).
    pub fn reset_push(&mut self) {
        self.reader.clear();
        self.reset();
        self.soft_input = true;
    }

    /// Bytes pushed but not yet consumed by the tokenizer.
    pub fn buffered(&self) -> usize {
        self.reader.buffered()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;
    use crate::event::SaxEvent;
    use crate::{parse_to_events, ParsePoll};

    /// Drive a push parser over `doc` in `chunk`-byte pieces, polling
    /// to exhaustion between pushes, and collect owned events.
    fn push_parse(doc: &[u8], chunk: usize) -> crate::Result<Vec<SaxEvent>> {
        let mut parser = StreamParser::push_mode();
        let mut events = Vec::new();
        for piece in doc.chunks(chunk.max(1)) {
            parser.push(piece);
            loop {
                match parser.poll_raw()? {
                    ParsePoll::Event(ev) => events.push(ev.to_owned()),
                    ParsePoll::NeedMore => break,
                    ParsePoll::End => return Ok(events),
                }
            }
        }
        parser.finish();
        loop {
            match parser.poll_raw()? {
                ParsePoll::Event(ev) => events.push(ev.to_owned()),
                ParsePoll::NeedMore => unreachable!("NeedMore after finish"),
                ParsePoll::End => return Ok(events),
            }
        }
    }

    /// Push-parsing at every chunk size must equal one-shot parsing —
    /// the same events, or the same error down to its message, offset
    /// and context. (Miri, being orders of magnitude slower, runs a few
    /// sizes.)
    fn assert_push_equivalent(doc: &str) {
        let whole = parse_to_events(doc.as_bytes()).map_err(|e| e.to_string());
        let sizes: Vec<usize> = if cfg!(miri) {
            vec![1, 2, 3, 7, 16, doc.len().max(1)]
        } else {
            (1..=doc.len().max(1)).collect()
        };
        for chunk in sizes {
            let pushed = push_parse(doc.as_bytes(), chunk).map_err(|e| e.to_string());
            assert_eq!(whole, pushed, "chunk {chunk} diverged on {doc:?}");
        }
    }

    #[test]
    fn tokens_split_at_every_boundary() {
        assert_push_equivalent("<a x=\"1\" y='2'><b>hi &amp; bye</b><c/>tail</a>");
    }

    #[test]
    fn multibyte_utf8_split_across_pushes() {
        assert_push_equivalent("<doc lang=\"日本語\"><t>héllo § — ünïcode</t><t>末尾🚀</t></doc>");
    }

    #[test]
    fn cdata_terminator_split_across_pushes() {
        assert_push_equivalent("<doc><![CDATA[a]b]]x]]]><t>after</t><![CDATA[]]]]><t>b</t></doc>");
    }

    #[test]
    fn crlf_and_entities_split_across_pushes() {
        assert_push_equivalent("<a v=\"two\r\nwords\">x\r\ny&#13;&amp;z\rw</a>");
    }

    #[test]
    fn comments_pis_doctype_split_across_pushes() {
        assert_push_equivalent(
            "<?xml version=\"1.0\"?><!DOCTYPE a [ <!ELEMENT a (#PCDATA)> ]>\
             <a><!-- c --- comment -->t<?pi d?></a>",
        );
    }

    #[test]
    fn angle_bracket_inside_attribute_value_does_not_end_the_tag() {
        assert_push_equivalent("<a v=\"x > y\"><b w='>>'/></a>");
    }

    #[test]
    fn malformed_documents_error_identically() {
        for doc in [
            "<a><b></a></b>",
            "<a></a></b>",
            "<a><b>",
            "hello<a/>",
            "<a/><b/>",
            "",
            "<a id=1/>",
            "<a><!-- oops</a>",
            "<a>&bogus;</a>",
        ] {
            assert_push_equivalent(doc);
        }
    }

    #[test]
    fn every_truncation_point_errors_identically() {
        // Cutting a document after every byte leaves the tokenizer in
        // each of its resume states when input ends; push must report
        // the pull parser's error there, whatever the chunking.
        let doc = "<?xml version=\"1.0\"?><!DOCTYPE a [<!ENTITY e \"]>\">]>\
                   <a x = 'v&amp;w' y=\"1\"><b/>t&lt;<![CDATA[c]]]><!-- k --><?p q?></a >";
        for cut in (0..=doc.len()).step_by(if cfg!(miri) { 13 } else { 1 }) {
            assert_push_equivalent(&doc[..cut]);
        }
    }

    #[test]
    fn needmore_until_token_completes() {
        let mut p = StreamParser::push_mode();
        p.push(b"<roo");
        // StartDocument is available immediately; the half tag is not.
        assert!(matches!(p.poll_raw().unwrap(), ParsePoll::Event(_)));
        assert!(matches!(p.poll_raw().unwrap(), ParsePoll::NeedMore));
        p.push(b"t>");
        let ParsePoll::Event(ev) = p.poll_raw().unwrap() else {
            panic!("expected Begin after tag completes");
        };
        assert_eq!(ev.name().map(|s| s.to_string()), Some("root".into()));
        assert!(matches!(p.poll_raw().unwrap(), ParsePoll::NeedMore));
        p.push(b"</root>");
        p.finish();
        assert!(matches!(p.poll_raw().unwrap(), ParsePoll::Event(_))); // </root>
        assert!(matches!(p.poll_raw().unwrap(), ParsePoll::Event(_))); // EndDocument
        assert!(matches!(p.poll_raw().unwrap(), ParsePoll::End));
    }

    #[test]
    fn text_held_until_markup_arrives() {
        // A text run is decoded only when its terminating `<` shows up,
        // so a split entity or UTF-8 tail is never half-decoded.
        let mut p = StreamParser::push_mode();
        p.push(b"<a>x &am");
        p.poll_raw().unwrap(); // StartDocument
        p.poll_raw().unwrap(); // <a>
        assert!(matches!(p.poll_raw().unwrap(), ParsePoll::NeedMore));
        p.push(b"p; y<");
        assert!(matches!(p.poll_raw().unwrap(), ParsePoll::NeedMore));
        p.push(b"/a>");
        let ParsePoll::Event(crate::RawEvent::Text { text, .. }) = p.poll_raw().unwrap() else {
            panic!("expected the complete text run");
        };
        assert_eq!(text, "x & y");
    }

    #[test]
    fn truncated_document_errors_on_finish() {
        let mut p = StreamParser::push_mode();
        p.push(b"<a><b>unclosed");
        while let ParsePoll::Event(_) = p.poll_raw().unwrap() {}
        p.finish();
        let err = loop {
            match p.poll_raw() {
                Ok(ParsePoll::Event(_)) => continue,
                Ok(other) => panic!("expected error, got {other:?}"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, Error::UnclosedElements { .. }));
    }

    #[test]
    fn next_raw_on_starved_push_parser_is_an_error_not_eof() {
        let mut p = StreamParser::push_mode();
        p.push(b"<a><b");
        p.next_raw().unwrap(); // StartDocument
        p.next_raw().unwrap(); // <a>
        assert!(matches!(p.next_raw(), Err(Error::UnexpectedEof { .. })));
    }

    #[test]
    fn reset_push_reuses_parser_across_documents() {
        let mut p = StreamParser::push_mode();
        let doc = b"<a x=\"1\"><b>one</b></a>";
        let mut runs = Vec::new();
        for _ in 0..3 {
            let mut events = Vec::new();
            for piece in doc.chunks(2) {
                p.push(piece);
                while let ParsePoll::Event(ev) = p.poll_raw().unwrap() {
                    events.push(ev.to_owned());
                }
            }
            p.finish();
            loop {
                match p.poll_raw().unwrap() {
                    ParsePoll::Event(ev) => events.push(ev.to_owned()),
                    ParsePoll::End => break,
                    ParsePoll::NeedMore => unreachable!(),
                }
            }
            runs.push(events);
            p.reset_push();
        }
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[1], runs[2]);
        assert_eq!(runs[0], parse_to_events(doc).unwrap());
    }

    #[test]
    fn reset_push_recovers_mid_document() {
        let mut p = StreamParser::push_mode();
        p.push(b"<a><b>half a doc");
        while let ParsePoll::Event(_) = p.poll_raw().unwrap() {}
        p.reset_push();
        p.push(b"<c/>");
        p.finish();
        let mut names = Vec::new();
        while let ParsePoll::Event(ev) = p.poll_raw().unwrap() {
            if let Some(n) = ev.name() {
                names.push(n.to_string());
            }
        }
        assert_eq!(names, ["c", "c"]);
    }

    #[test]
    fn buffered_reports_unconsumed_bytes_and_partial_tokens_survive() {
        let mut p = StreamParser::push_mode();
        p.push(b"<a>");
        while let ParsePoll::Event(_) = p.poll_raw().unwrap() {}
        assert_eq!(p.buffered(), 0);
        p.push(b"text without markup yet");
        assert_eq!(p.buffered(), 23);
        // Many tokens pushed and consumed after it; the held text run
        // must come out intact.
        let mut texts = Vec::new();
        let mut drain = |p: &mut PushParser| loop {
            match p.poll_raw().unwrap() {
                ParsePoll::Event(crate::RawEvent::Text { text, .. }) => {
                    texts.push(text.to_string())
                }
                ParsePoll::Event(_) => {}
                _ => break,
            }
        };
        for _ in 0..2048 {
            p.push(b"<x/>");
            drain(&mut p);
        }
        p.push(b"</a>");
        p.finish();
        drain(&mut p);
        assert_eq!(texts, ["text without markup yet"]);
    }

    #[test]
    fn compaction_keeps_unconsumed_bytes() {
        // Stop polling part-way through a large chunk so the next push
        // finds a consumed prefix past the compaction threshold.
        let mut doc = b"<a>".to_vec();
        for i in 0..2048 {
            doc.extend_from_slice(format!("<x i='{i}'/>").as_bytes());
        }
        doc.extend_from_slice(b"</a>");
        let (head, tail) = doc.split_at(doc.len() / 2);
        let mut p = StreamParser::push_mode();
        let mut events = Vec::new();
        p.push(head);
        while p.buffered() > head.len() - COMPACT_THRESHOLD {
            let ParsePoll::Event(ev) = p.poll_raw().unwrap() else {
                panic!("head holds more than the threshold in whole tokens");
            };
            events.push(ev.to_owned());
        }
        p.push(tail);
        p.finish();
        while let ParsePoll::Event(ev) = p.poll_raw().unwrap() {
            events.push(ev.to_owned());
        }
        assert_eq!(events, parse_to_events(&doc).unwrap());
    }
}
