//! Streaming-boundary differential test (ISSUE: spec-conformance PR).
//!
//! Feeds documents through chunked readers of every chunk size so that
//! every hazard the tokenizer handles statefully — multi-byte UTF-8
//! sequences, the CDATA `]]>` terminator, and `\r\n` line endings that
//! must normalize to a single `\n` — gets split across `fill_buf`
//! refills, and asserts the event stream is identical to a
//! whole-buffer parse.
//!
//! The same corpus doubles as the conformance oracle for the push API:
//! every document is also fed through [`StreamParser::push`] in the same
//! chunk sizes, polling between pushes, and must yield the identical
//! event stream (or identical error) again. Push chunks that end
//! mid-token leave the tokenizer in a resume state; the linear-work test
//! at the bottom checks it never rescans a partial token.

use std::io::{BufRead, Read};

use xsq_xml::{parse_to_events, ParsePoll, PushParser, SaxEvent, StreamParser};

/// A reader that yields at most `chunk` bytes per `fill_buf` call.
struct Chunked<'a> {
    data: &'a [u8],
    pos: usize,
    chunk: usize,
}

impl Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.chunk).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

impl BufRead for Chunked<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        let end = (self.pos + self.chunk).min(self.data.len());
        Ok(&self.data[self.pos..end])
    }
    fn consume(&mut self, amt: usize) {
        self.pos += amt;
    }
}

fn parse_chunked(data: &[u8], chunk: usize) -> Result<Vec<SaxEvent>, String> {
    let mut parser = StreamParser::new(Chunked {
        data,
        pos: 0,
        chunk,
    });
    let mut out = Vec::new();
    while let Some(ev) = parser.next_event().map_err(|e| e.to_string())? {
        out.push(ev);
    }
    Ok(out)
}

/// Push-feed the document in `chunk`-byte pieces, polling to
/// exhaustion between pushes.
fn parse_pushed(data: &[u8], chunk: usize) -> Result<Vec<SaxEvent>, String> {
    let mut parser = StreamParser::push_mode();
    let mut out = Vec::new();
    let mut drain = |p: &mut PushParser| -> Result<(), String> {
        while let ParsePoll::Event(ev) = p.poll_raw().map_err(|e| e.to_string())? {
            out.push(ev.to_owned());
        }
        Ok(())
    };
    for piece in data.chunks(chunk) {
        parser.push(piece);
        drain(&mut parser)?;
    }
    parser.finish();
    drain(&mut parser)?;
    Ok(out)
}

/// The chunk sizes every document is fed at: all of them (Miri runs a
/// few, the interpreter being orders of magnitude slower).
fn chunk_sizes(len: usize) -> Vec<usize> {
    if cfg!(miri) {
        vec![1, 3, 7]
    } else {
        (1..=len.max(1)).collect()
    }
}

/// Every chunk size must produce the outcome of a whole-buffer parse —
/// the same events, or the same error down to its message, offset and
/// context — through the pull parser over a starving reader *and*
/// through the push API. Returns the one-shot outcome.
fn same_outcome_at_every_chunk_size(doc: &str) -> Result<Vec<SaxEvent>, String> {
    let whole = parse_to_events(doc.as_bytes()).map_err(|e| e.to_string());
    for chunk in chunk_sizes(doc.len()) {
        let chunked = parse_chunked(doc.as_bytes(), chunk);
        assert_eq!(chunked, whole, "chunk size {chunk} diverged for {doc:?}");
        let pushed = parse_pushed(doc.as_bytes(), chunk);
        assert_eq!(pushed, whole, "push chunk {chunk} diverged for {doc:?}");
    }
    whole
}

/// A well-formed document parses to the same events at every chunk size.
fn assert_boundary_independent(doc: &str) -> Vec<SaxEvent> {
    same_outcome_at_every_chunk_size(doc).unwrap_or_else(|e| panic!("{doc:?}: {e}"))
}

#[test]
fn multibyte_utf8_split_across_refills() {
    // 2-, 3- and 4-byte UTF-8 sequences in text, CDATA and attribute
    // values: a 1-byte chunk splits every one of them mid-sequence.
    assert_boundary_independent(
        "<doc lang=\"日本語\"><t>héllo § — ünïcode</t>\
         <![CDATA[emoji 🚀 and ｆｕｌｌｗｉｄｔｈ]]><t>末尾</t></doc>",
    );
}

#[test]
fn cdata_terminator_split_across_refills() {
    // `]]>` straddles refill boundaries at every offset; lone `]` and
    // `]]` inside the section must not terminate it early.
    assert_boundary_independent(
        "<doc><![CDATA[a]b]]x]]]><t>after</t>\
         <![CDATA[]]]]><t>brackets</t></doc>",
    );
}

#[test]
fn crlf_split_across_refills() {
    // `\r\n` pairs in text, CDATA and attribute values with the CR and
    // LF landing in different refills must still collapse to one
    // newline (XML 1.0 §2.11) / one space (§3.3.3).
    assert_boundary_independent(
        "<doc a=\"x\r\ny\rz\"><t>line1\r\nline2\rline3</t>\
         <![CDATA[raw\r\ncdata\r]]></doc>",
    );
}

#[test]
fn entity_references_split_across_refills() {
    // `&amp;` and numeric character references cut mid-reference.
    assert_boundary_independent(
        "<doc a=\"p &amp; q &#10; r\"><t>&lt;tag&gt; &#x1F680; &apos;</t></doc>",
    );
}

#[test]
fn combined_hazards_one_document() {
    // All of the above in one document, plus tags/comments/PIs that
    // themselves straddle boundaries.
    assert_boundary_independent(
        "<?xml version=\"1.0\"?><!-- ünïcode — comment -->\
         <pub year=\"2002\r\n2003\"><book id=\"1\"><name>日本\r\nLanguage</name>\
         <![CDATA[x]]y\r\nz🚀]]><price>10.5</price></book><?pi data?></pub>",
    );
}

#[test]
fn doctype_brackets_inside_literals_comments_and_pis() {
    // A `>`, `[` or `]` inside a quoted literal, a comment or a PI does
    // not end the declaration or its internal subset.
    let plain = parse_to_events(b"<a/>").unwrap();
    for doc in [
        "<!DOCTYPE a SYSTEM \"x>y.dtd\"><a/>",
        "<!DOCTYPE a [<!ENTITY e \"]>\">]><a/>",
        "<!DOCTYPE a [<!ATTLIST a v CDATA \"[\">]><a/>",
        "<!DOCTYPE a [<!-- ] > -->]><a/>",
        "<!DOCTYPE a [<?pi ]> ?>]><a/>",
        "<!DOCTYPE a PUBLIC '-//x//y' \"z'>\" [<!ENTITY e 'a\"]'>]><a/>",
    ] {
        assert_eq!(assert_boundary_independent(doc), plain, "{doc:?}");
    }
}

#[test]
fn brackets_in_content_that_never_spell_the_cdata_end_parse() {
    // Only a literal `]]>` in character data is an error: `]` runs that
    // an entity, a CR, markup or a CDATA section interrupts are content,
    // and so is `]]>` inside an attribute value or a CDATA section.
    let text = |doc: &str| -> String {
        assert_boundary_independent(doc)
            .iter()
            .filter_map(|e| match e {
                SaxEvent::Text { text, .. } => Some(text.as_str()),
                _ => None,
            })
            .collect()
    };
    assert_eq!(text("<a>]]</a>"), "]]");
    assert_eq!(text("<a>]>] ]></a>"), "]>] ]>");
    assert_eq!(text("<a>]]&gt;</a>"), "]]>");
    assert_eq!(text("<a>]]\r></a>"), "]]\n>");
    assert_eq!(text("<a>]]<!-- -->></a>"), "]]>");
    assert_eq!(text("<a>]<![CDATA[]]]]>></a>"), "]]]>");
    assert_eq!(text("<a x=']]>'>]</a>"), "]");
}

#[test]
fn malformed_documents_error_identically_at_every_chunk_size() {
    for doc in [
        "<a><b></a></b>",
        "<a></a></b>",
        "<a><b>",
        "hello<a/>",
        "<a/><b/>",
        "",
        "  ",
        "<a id=1/>",
        "<a id></a>",
        "<a id=></a>",
        "<a id='<'/>",
        "<a id='1'/ >",
        "<a><></a>",
        "<a></a x>",
        "<a><!-- oops</a>",
        "<a><!-x--></a>",
        "<a><![CDATX[x]]></a>",
        "<![CDATA[x]]><a/>",
        "<a><![CDATA[never closed]]</a>",
        "<a><?pi never closed</a>",
        "<!DOCTYPE a [<!ENTITY e \"]>\"><a/>",
        "<a>&bogus;</a>",
        "<a>\u{e9}&#xZZ;</a>",
        "<a>x</a>trailing",
        "<a x='\u{1F680}'",
        "<a><",
        "<a></a",
        // `]]>` in content (XML 1.0 §2.4), split at every offset.
        "<a>x]]>y</a>",
        "<a>]]></a>",
        "<a>x]]]>y</a>",
        "<a>&amp;]]></a>",
        "<a>\r\n]]>\r</a>",
        "<a><![CDATA[ok]]>]]></a>",
    ] {
        assert!(
            same_outcome_at_every_chunk_size(doc).is_err(),
            "{doc:?} parsed"
        );
    }
}

/// One construct of 256 KiB, pushed a byte at a time, must parse to the
/// one-shot events. Each push ends mid-token, so a tokenizer that
/// rescanned a partial token from its start would make ~3×10¹⁰ byte
/// visits per construct and not finish; resuming makes it linear.
#[test]
fn one_byte_pushes_through_huge_tokens_are_linear() {
    let n = if cfg!(miri) { 1 << 10 } else { 256 << 10 };
    let filler = |unit: &str| unit.repeat(n / unit.len());
    let docs = [
        format!("<a v=\"{}\"/>", filler("x &amp; y\r\n")),
        format!("<a><!--{}--></a>", filler("c - > ")),
        format!("<a><![CDATA[{}]]></a>", filler("d ] ]> ")),
        format!("<a><?pi {}?></a>", filler("e ? > ")),
        format!(
            "<!DOCTYPE a [{}]><a/>",
            filler("<!ENTITY e \"]>\"><!-- ] --><?p ]>?>")
        ),
        format!("<a>{}</a>", filler("t &lt; \u{e9}\r\n")),
    ];
    for doc in &docs {
        let whole = parse_to_events(doc.as_bytes()).map_err(|e| e.to_string());
        assert!(whole.is_ok(), "{}: {whole:?}", &doc[..40]);
        assert_eq!(parse_pushed(doc.as_bytes(), 1), whole, "{}", &doc[..40]);
    }
}
