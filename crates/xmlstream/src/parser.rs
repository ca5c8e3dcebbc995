//! The streaming tokenizer: bytes in, depth-extended SAX events out.
//!
//! [`StreamParser`] reads from any [`BufRead`] and never materializes the
//! document: memory use is bounded by the size of a single token (one tag
//! or one run of character data). Well-formedness is enforced with the tag
//! stack exactly as the paper's "simple PDA" (§3.1) does: every end event
//! must match the top of the stack.
//!
//! The primary interface is [`StreamParser::next_raw`], which lends out a
//! [`RawEvent`] borrowing the parser's scratch buffers — element names are
//! interned [`Sym`]s, attribute storage and the text accumulator are
//! reused across events, and delimiter scanning runs the runtime-dispatched
//! SIMD kernels ([`crate::scan`]). In steady state (all names interned,
//! buffers grown to the document's token sizes) pulling an event performs
//! **zero heap allocations**. [`StreamParser::next_event`] is the owned
//! convenience wrapper for consumers that retain events.
//!
//! The tokenizer is **resumable**: its position inside the current token
//! is an explicit state (`Tok`), and the bytes of a partial token
//! already taken (a name, an attribute value, a text or CDATA run) wait
//! in the scratch buffers. An empty `fill_buf` therefore means one of two
//! things, and only there do pull and push differ: end of input (pull,
//! or push after [`finish`](StreamParser::finish)), or "nothing buffered
//! yet" (push), where [`StreamParser::poll_raw`] returns
//! [`ParsePoll::NeedMore`] and the next call continues from the same
//! state. No byte is examined twice, whatever the chunking.

use std::collections::VecDeque;
use std::io::BufRead;

use crate::entities::decode_into;
use crate::error::{Error, Result};
use crate::event::{Attribute, RawEvent, SaxEvent};
use crate::scan;
use crate::symbol::Sym;

/// Configuration for [`StreamParser`].
#[derive(Debug, Clone)]
pub struct ParserOptions {
    /// Drop text events consisting only of whitespace (indentation between
    /// elements). The engines in this reproduction never match on
    /// whitespace-only text, and skipping it is what SAX-based systems in
    /// the paper's study effectively do. Default: `true`.
    pub skip_whitespace_text: bool,
}

impl Default for ParserOptions {
    fn default() -> Self {
        ParserOptions {
            skip_whitespace_text: true,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DocState {
    /// Nothing emitted yet.
    Init,
    /// `StartDocument` emitted, document element not yet seen.
    BeforeRoot,
    /// Inside the document element.
    InRoot,
    /// Document element closed; only misc content allowed.
    AfterRoot,
    /// `EndDocument` emitted.
    Done,
}

/// Outcome of one non-blocking pull on a parser whose input may be
/// incomplete (see [`crate::PushParser`]). Ordinary pull parsers
/// over a [`BufRead`] never observe `NeedMore`: an empty `fill_buf`
/// means end of input for them.
#[derive(Debug)]
pub enum ParsePoll<'a> {
    /// The next event.
    Event(RawEvent<'a>),
    /// The buffered input ends mid-construct and more may be pushed;
    /// nothing was lost — poll again after the next push (or after
    /// end-of-input is signalled).
    NeedMore,
    /// `EndDocument` has already been delivered.
    End,
}

/// What one [`StreamParser::advance`] call achieved.
enum Advance {
    /// Events were queued or the document ended.
    Progress,
    /// Soft input ran dry (push mode only); the token state is kept.
    Starved,
}

/// A parsed-but-not-yet-delivered event descriptor. `Copy`-small: the
/// variable-size payloads (attributes, text) stay in the parser's scratch
/// buffers and are attached when the descriptor is materialized as a
/// [`RawEvent`].
#[derive(Debug, Clone, Copy)]
enum Pending {
    EndDocument,
    /// Attributes are `attrs[..attrs_len]` at materialization time.
    Begin {
        name: Sym,
        depth: u32,
    },
    End {
        name: Sym,
        depth: u32,
    },
    /// Text payload is `text_out` at materialization time.
    Text {
        element: Sym,
        depth: u32,
    },
}

/// Where the tokenizer stands inside the current token. Offsets the
/// error messages need live beside it in the parser (`tok_start`,
/// `value_start`), and the bytes of a partial name, attribute value,
/// text run or CDATA run in `scratch`. A start tag's element goes onto
/// the open-element stack as soon as its name is read.
#[derive(Debug, Clone, Copy)]
enum Tok {
    /// Between tokens.
    Idle,
    /// In a character-data run; `amp`/`cr` record whether the bytes
    /// taken so far hold a `&` / `\r`, and `brackets` how many `]` they
    /// end with (up to 2: the start of a forbidden `]]>`).
    Text { amp: bool, cr: bool, brackets: u8 },
    /// Consumed `<`.
    Lt,
    /// Reading a start tag's element name.
    StartName,
    /// Inside a start tag, between attributes.
    Attrs,
    /// Consumed the `/` of `/>`.
    SelfClose,
    /// Reading an attribute name.
    AttrName,
    /// After an attribute name, expecting `=`.
    AttrEq(Sym),
    /// After `name=`, expecting the opening quote.
    AttrQuote(Sym),
    /// Inside an attribute value delimited by `quote`.
    AttrValue { name: Sym, quote: u8 },
    /// Reading an end tag's name.
    EndName,
    /// After an end tag's name, expecting `>`.
    EndClose(Sym),
    /// Consumed `<!`.
    Bang,
    /// Matching `marker` (`--` or `[CDATA[`) after `<!`; `matched` bytes
    /// of it are confirmed.
    Marker {
        marker: &'static [u8],
        matched: usize,
    },
    /// Skipping a comment or processing-instruction body.
    Skip(Terminator),
    /// Inside a CDATA section; `brackets` counts the trailing run of `]`
    /// seen but not yet copied (they may start the `]]>` terminator).
    Cdata { brackets: usize },
    /// Skipping a `<!DOCTYPE …>` (or other) declaration.
    Decl(DeclScan),
}

/// A streaming, pull-based XML parser.
///
/// ```
/// use xsq_xml::{StreamParser, SaxEvent};
///
/// let mut p = StreamParser::new(&b"<a x=\"1\"><b>hi</b></a>"[..]);
/// let mut names = Vec::new();
/// while let Some(ev) = p.next_event().unwrap() {
///     if let SaxEvent::Begin { name, depth, .. } = &ev {
///         names.push(format!("{name}@{depth}"));
///     }
/// }
/// assert_eq!(names, ["a@1", "b@2"]);
/// ```
pub struct StreamParser<R: BufRead> {
    /// The input; the push layer appends to its chunk buffer.
    pub(crate) reader: R,
    offset: u64,
    options: ParserOptions,
    /// When true (push mode), an empty `fill_buf` means "no more bytes
    /// buffered *yet*" rather than end of input: [`Self::poll_raw`]
    /// reports [`ParsePoll::NeedMore`] instead of finishing the
    /// document. Flipped off when the push layer signals end-of-input.
    pub(crate) soft_input: bool,
    state: DocState,
    /// Resume point inside the current token.
    tok: Tok,
    /// Offset of the current token's first byte (the `<` of markup, the
    /// first byte of a text run).
    tok_start: u64,
    /// Offset of the current attribute value's first byte.
    value_start: u64,
    /// Open-element stack; `stack.len()` is the current depth. Each entry
    /// carries the interned name's `&'static str` so closing-tag checks
    /// compare raw bytes without touching the symbol table.
    stack: Vec<(Sym, &'static str)>,
    /// Event descriptors parsed but not yet handed out (a markup token can
    /// yield a pending text event plus the tag's own event, or Begin+End
    /// for `<a/>`). At most `[Text, Begin, End]` — the scratch buffers
    /// they reference stay untouched until the queue drains.
    pending: VecDeque<Pending>,
    /// Accumulated character data awaiting a flush.
    text_acc: String,
    /// Payload of the pending `Text` descriptor (swapped from `text_acc`
    /// at flush so both buffers keep their capacity).
    text_out: String,
    /// Attribute storage for the pending `Begin`; the live prefix is
    /// `attrs[..attrs_len]`. Slots beyond `attrs_len` keep their `String`
    /// capacity for reuse by the next tag.
    attrs: Vec<Attribute>,
    attrs_len: usize,
    /// Scratch buffer for raw token bytes.
    scratch: Vec<u8>,
    /// Lock-free fast path for [`Sym::intern`]: names this parser has
    /// already resolved. Documents repeat a tiny tag vocabulary millions
    /// of times; hitting this FNV map skips the symbol table's read lock
    /// entirely. Keys are the table's leaked `&'static str`s, so misses
    /// allocate nothing here either.
    sym_cache: std::collections::HashMap<&'static str, Sym, crate::symbol::FnvBuild>,
    /// One-entry memo in front of `sym_cache`: the last name resolved.
    /// Record-shaped documents repeat the same tag in runs, so a single
    /// byte compare often replaces the FNV hash + map probe. Interned
    /// symbols are process-global, so the memo survives `reset` safely.
    last_name: Option<(&'static str, Sym)>,
}

impl<R: BufRead> StreamParser<R> {
    /// Create a parser with default options.
    pub fn new(reader: R) -> Self {
        Self::with_options(reader, ParserOptions::default())
    }

    /// Create a parser with explicit options.
    pub fn with_options(reader: R, options: ParserOptions) -> Self {
        StreamParser {
            reader,
            offset: 0,
            options,
            soft_input: false,
            state: DocState::Init,
            tok: Tok::Idle,
            tok_start: 0,
            value_start: 0,
            stack: Vec::new(),
            pending: VecDeque::new(),
            text_acc: String::new(),
            text_out: String::new(),
            attrs: Vec::new(),
            attrs_len: 0,
            scratch: Vec::new(),
            sym_cache: std::collections::HashMap::default(),
            last_name: None,
        }
    }

    /// Current byte offset in the input.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Rearm the parser for a new document, keeping every warmed scratch
    /// buffer and the interned-name cache. Returns the old reader.
    ///
    /// A long-lived consumer (one worker of the sharded multi-document
    /// driver, a socket server handling documents back to back) parses
    /// thousands of documents on one thread; constructing a fresh parser
    /// each time would re-grow the text/attribute/token buffers and
    /// re-resolve every tag name through the global symbol table. After
    /// the first few documents of a corpus this method restores the
    /// zero-allocation steady state immediately.
    pub fn reset_with(&mut self, reader: R) -> R {
        let old = std::mem::replace(&mut self.reader, reader);
        self.reset();
        old
    }

    /// Rearm the parser for a new document on the *same* reader (see
    /// [`reset_with`](Self::reset_with) for what is kept). The push
    /// layer uses this to reuse one parser across the documents of a
    /// session after clearing its chunk buffer.
    pub fn reset(&mut self) {
        self.offset = 0;
        self.state = DocState::Init;
        self.tok = Tok::Idle;
        self.stack.clear();
        self.pending.clear();
        self.text_acc.clear();
        self.text_out.clear();
        self.attrs_len = 0;
    }

    /// Pull the next event as an owned [`SaxEvent`], or `Ok(None)` after
    /// `EndDocument`. Allocates for attribute lists and text payloads;
    /// hot loops should prefer [`next_raw`](Self::next_raw).
    pub fn next_event(&mut self) -> Result<Option<SaxEvent>> {
        Ok(self.next_raw()?.map(|ev| ev.to_owned()))
    }

    /// Pull the next event as a zero-copy [`RawEvent`] borrowing the
    /// parser's scratch buffers, or `Ok(None)` after `EndDocument`. The
    /// returned view is invalidated by the next call.
    ///
    /// Requires final input (an empty `fill_buf` is end of document);
    /// push-fed parsers must use [`poll_raw`](Self::poll_raw) until
    /// end-of-input has been signalled.
    pub fn next_raw(&mut self) -> Result<Option<RawEvent<'_>>> {
        let offset = self.offset;
        match self.poll_raw()? {
            ParsePoll::Event(ev) => Ok(Some(ev)),
            ParsePoll::End => Ok(None),
            ParsePoll::NeedMore => Err(Error::UnexpectedEof {
                offset,
                context: "push-mode input not finished (use poll_raw)",
            }),
        }
    }

    /// Pull the next event without treating an empty buffer as end of
    /// input: in push mode a starved parser reports
    /// [`ParsePoll::NeedMore`] and resumes cleanly after more bytes are
    /// pushed. For ordinary pull parsers this behaves like
    /// [`next_raw`](Self::next_raw) (`NeedMore` never occurs).
    pub fn poll_raw(&mut self) -> Result<ParsePoll<'_>> {
        loop {
            if let Some(p) = self.pending.pop_front() {
                return Ok(ParsePoll::Event(self.materialize(p)));
            }
            match self.state {
                DocState::Init => {
                    self.state = DocState::BeforeRoot;
                    return Ok(ParsePoll::Event(RawEvent::StartDocument));
                }
                DocState::Done => return Ok(ParsePoll::End),
                _ => {
                    // A tag can starve after flushing the text before it;
                    // that text is deliverable now.
                    if let Advance::Starved = self.advance()? {
                        if self.pending.is_empty() {
                            return Ok(ParsePoll::NeedMore);
                        }
                    }
                }
            }
        }
    }

    /// Attach the scratch-buffer payloads to a pending descriptor.
    fn materialize(&self, p: Pending) -> RawEvent<'_> {
        match p {
            Pending::EndDocument => RawEvent::EndDocument,
            Pending::Begin { name, depth } => RawEvent::Begin {
                name,
                attributes: &self.attrs[..self.attrs_len],
                depth,
            },
            Pending::End { name, depth } => RawEvent::End { name, depth },
            Pending::Text { element, depth } => RawEvent::Text {
                element,
                text: &self.text_out,
                depth,
            },
        }
    }

    /// Run the tokenizer until at least one event lands in `pending` (or
    /// the document ends), or until soft input runs dry. Only runs when
    /// `pending` is empty, so the scratch buffers it overwrites are no
    /// longer referenced.
    ///
    /// Each state is a method that consumes what it can and, when its
    /// construct is done, calls the next state's method directly; they
    /// return `true` once the token is complete. A state whose buffer
    /// comes back empty either parks itself in `tok` and returns `false`
    /// (soft input), or treats it as end of input and reports its
    /// construct truncated. Only a parked token needs a dispatch on `tok`.
    ///
    /// The tag states and the byte helpers they share are
    /// `#[inline(always)]`: left as separate calls they made the pull
    /// tokenizer up to 1.7× slower per event on tag-dense input.
    #[inline(always)]
    fn advance(&mut self) -> Result<Advance> {
        if !matches!(self.tok, Tok::Idle) {
            if !self.resume()? {
                return Ok(Advance::Starved);
            }
            self.tok = Tok::Idle;
        }
        loop {
            if !self.pending.is_empty() {
                return Ok(Advance::Progress);
            }
            self.tok_start = self.offset;
            let done = match self.peek_byte()? {
                None if self.soft_input => return Ok(Advance::Starved),
                None => {
                    self.end_of_input()?;
                    return Ok(Advance::Progress);
                }
                Some(b'<') => {
                    self.bump(1);
                    self.lt()?
                }
                Some(_) => {
                    self.scratch.clear();
                    self.text(false, false, 0)?
                }
            };
            if !done {
                return Ok(Advance::Starved);
            }
        }
    }

    /// Continue the token parked in `tok`; `true` once it is complete.
    fn resume(&mut self) -> Result<bool> {
        match self.tok {
            Tok::Idle => Ok(true),
            Tok::Text { amp, cr, brackets } => self.text(amp, cr, brackets),
            Tok::Lt => self.lt(),
            Tok::StartName => self.start_name(),
            Tok::Attrs => self.attrs(),
            Tok::SelfClose => self.self_close(),
            Tok::AttrName => Ok(self.attr_name()? && self.attrs()?),
            Tok::AttrEq(name) => Ok(self.attr_eq(name)? && self.attrs()?),
            Tok::AttrQuote(name) => Ok(self.attr_quote(name)? && self.attrs()?),
            Tok::AttrValue { name, quote } => Ok(self.attr_value(name, quote)? && self.attrs()?),
            Tok::EndName => self.end_name(),
            Tok::EndClose(name) => self.end_close(name),
            Tok::Bang => self.bang(),
            Tok::Marker { marker, matched } => self.marker(marker, matched),
            Tok::Skip(term) => self.skip(term),
            Tok::Decl(decl) => self.decl(decl),
            Tok::Cdata { brackets } => self.cdata(brackets),
        }
    }

    /// Soft input ran dry in state `at`: resume there after the next push.
    fn park(&mut self, at: Tok) -> bool {
        self.tok = at;
        false
    }

    /// A character-data run; `amp`/`cr`/`brackets` describe the bytes
    /// taken so far (see [`Tok::Text`]). Ends before the next `<` or at
    /// end of input.
    #[inline(always)]
    fn text(&mut self, mut amp: bool, mut cr: bool, mut brackets: u8) -> Result<bool> {
        if !self.take_text_run(&mut amp, &mut cr, &mut brackets)? && self.soft_input {
            return Ok(self.park(Tok::Text { amp, cr, brackets }));
        }
        self.finish_text(amp, cr)?;
        Ok(true)
    }

    /// After `<`.
    #[inline(always)]
    fn lt(&mut self) -> Result<bool> {
        match self.peek_byte()? {
            None if self.soft_input => Ok(self.park(Tok::Lt)),
            None => Err(self.eof("markup after '<'")),
            Some(b'/') => {
                self.bump(1);
                self.flush_text();
                self.scratch.clear();
                self.end_name()
            }
            Some(b'!') => {
                self.bump(1);
                self.bang()
            }
            Some(b'?') => {
                self.bump(1);
                self.skip(Terminator::PI)
            }
            Some(_) => {
                self.flush_text();
                self.scratch.clear();
                self.start_name()
            }
        }
    }

    /// A start tag's element name, into `scratch`.
    #[inline(always)]
    fn start_name(&mut self) -> Result<bool> {
        if !self.take_until(|b| !is_name_byte(b))? && self.soft_input {
            return Ok(self.park(Tok::StartName));
        }
        let tag = self.resolve_scratch_name()?;
        match self.state {
            DocState::BeforeRoot => self.state = DocState::InRoot,
            DocState::InRoot => {}
            DocState::AfterRoot => {
                return Err(Error::MultipleRoots {
                    offset: self.tok_start,
                    tag: tag.1.to_string(),
                })
            }
            _ => unreachable!("start tag in state {:?}", self.state),
        }
        self.stack.push(tag);
        self.attrs_len = 0;
        self.attrs()
    }

    /// Inside a start tag, between attributes.
    #[inline(always)]
    fn attrs(&mut self) -> Result<bool> {
        loop {
            match self.peek_past_whitespace()? {
                None if self.soft_input => return Ok(self.park(Tok::Attrs)),
                None => return Err(self.eof("start tag")),
                Some(b'>') => {
                    self.bump(1);
                    self.finish_start_tag(false);
                    return Ok(true);
                }
                Some(b'/') => {
                    self.bump(1);
                    return self.self_close();
                }
                Some(_) => {
                    self.scratch.clear();
                    if !self.attr_name()? {
                        return Ok(false);
                    }
                }
            }
        }
    }

    /// After the `/` of `/>`.
    #[inline(always)]
    fn self_close(&mut self) -> Result<bool> {
        match self.peek_byte()? {
            None if self.soft_input => Ok(self.park(Tok::SelfClose)),
            Some(b'>') => {
                self.bump(1);
                self.finish_start_tag(true);
                Ok(true)
            }
            _ => Err(self.syntax("expected '>' after '/'")),
        }
    }

    /// An attribute, from its name (into `scratch`) through its value's
    /// closing quote; `true` once the attribute is stored.
    fn attr_name(&mut self) -> Result<bool> {
        if !self.take_until(|b| !is_name_byte(b))? && self.soft_input {
            return Ok(self.park(Tok::AttrName));
        }
        let name = self.resolve_scratch_name()?.0;
        self.attr_eq(name)
    }

    fn attr_eq(&mut self, name: Sym) -> Result<bool> {
        match self.peek_past_whitespace()? {
            None if self.soft_input => Ok(self.park(Tok::AttrEq(name))),
            Some(b'=') => {
                self.bump(1);
                self.attr_quote(name)
            }
            _ => Err(self.syntax(format!("attribute '{name}' missing '='"))),
        }
    }

    fn attr_quote(&mut self, name: Sym) -> Result<bool> {
        match self.peek_past_whitespace()? {
            None if self.soft_input => Ok(self.park(Tok::AttrQuote(name))),
            Some(quote @ (b'"' | b'\'')) => {
                self.bump(1);
                self.value_start = self.offset;
                self.scratch.clear();
                self.attr_value(name, quote)
            }
            _ => Err(self.syntax(format!("attribute '{name}' value must be quoted"))),
        }
    }

    fn attr_value(&mut self, name: Sym, quote: u8) -> Result<bool> {
        if !self.take_until_with(|buf| scan::find_byte2(buf, quote, b'<'))? {
            if self.soft_input {
                return Ok(self.park(Tok::AttrValue { name, quote }));
            }
            return Err(self.eof("attribute value"));
        }
        if self.peek_byte()? != Some(quote) {
            return Err(Error::syntax(
                self.value_start,
                "'<' not allowed in attribute value",
            ));
        }
        self.bump(1);
        self.push_attribute(name)?;
        Ok(true)
    }

    /// An end tag's name, into `scratch`.
    #[inline(always)]
    fn end_name(&mut self) -> Result<bool> {
        if !self.take_until(|b| !is_name_byte(b))? && self.soft_input {
            return Ok(self.park(Tok::EndName));
        }
        // Well-formed XML closes the innermost open element, whose symbol
        // sits on top of the stack: one byte compare against its cached
        // name resolves the tag without hashing or a table lookup.
        let name = match self.stack.last().copied() {
            Some((open, open_name)) if self.scratch.as_slice() == open_name.as_bytes() => open,
            _ => self.resolve_scratch_name()?.0,
        };
        self.end_close(name)
    }

    #[inline(always)]
    fn end_close(&mut self, name: Sym) -> Result<bool> {
        match self.peek_past_whitespace()? {
            None if self.soft_input => Ok(self.park(Tok::EndClose(name))),
            None => Err(self.eof("closing tag")),
            Some(b'>') => {
                self.bump(1);
                self.close_element(name)?;
                Ok(true)
            }
            Some(_) => Err(self.syntax("junk in closing tag")),
        }
    }

    /// After `<!`: a comment, a CDATA section, or a declaration.
    fn bang(&mut self) -> Result<bool> {
        match self.peek_byte()? {
            None if self.soft_input => Ok(self.park(Tok::Bang)),
            Some(b'-') => self.marker(b"--", 0),
            Some(b'[') => self.marker(b"[CDATA[", 0),
            _ => self.decl(DeclScan::default()),
        }
    }

    /// Match the rest of `marker` (`--` or `[CDATA[`), `matched` bytes of
    /// which are confirmed, then enter the comment or CDATA section.
    fn marker(&mut self, marker: &'static [u8], mut matched: usize) -> Result<bool> {
        while matched < marker.len() {
            match self.peek_byte()? {
                None if self.soft_input => return Ok(self.park(Tok::Marker { marker, matched })),
                Some(b) if b == marker[matched] => {
                    self.bump(1);
                    matched += 1;
                }
                found => {
                    // The offending byte is consumed before the error is
                    // reported.
                    if found.is_some() {
                        self.bump(1);
                    }
                    return Err(Error::syntax(
                        self.offset,
                        format!("malformed declaration (expected byte {matched} of marker)"),
                    ));
                }
            }
        }
        if marker == b"--" {
            return self.skip(Terminator::COMMENT);
        }
        if self.state != DocState::InRoot {
            return Err(Error::ContentOutsideRoot {
                offset: self.tok_start,
            });
        }
        self.scratch.clear();
        self.cdata(0)
    }

    /// A comment or processing-instruction body.
    fn skip(&mut self, mut term: Terminator) -> Result<bool> {
        if !self.skip_through(term.context(), |buf| term.feed(buf))? {
            return Ok(self.park(Tok::Skip(term)));
        }
        Ok(true)
    }

    /// A `<!DOCTYPE …>` (or other) declaration.
    fn decl(&mut self, mut decl: DeclScan) -> Result<bool> {
        if !self.skip_through("declaration", |buf| decl.feed(buf))? {
            return Ok(self.park(Tok::Decl(decl)));
        }
        Ok(true)
    }

    /// A CDATA section whose pending `]` run is `brackets` long. The body
    /// is copied a bulk run at a time (everything up to the next `]`),
    /// then runs of consecutive `]` are counted: a `>` arriving with two
    /// or more pending brackets terminates the section, with any brackets
    /// beyond the final two restored as literal content.
    fn cdata(&mut self, mut brackets: usize) -> Result<bool> {
        loop {
            if brackets == 0 {
                if !self.take_until_with(|buf| scan::find_byte(buf, b']'))? {
                    break;
                }
                self.bump(1);
                brackets = 1;
            }
            match self.peek_byte()? {
                None => break,
                Some(b']') => {
                    self.bump(1);
                    brackets += 1;
                }
                Some(b'>') if brackets >= 2 => {
                    self.bump(1);
                    let keep = self.scratch.len() + brackets - 2;
                    self.scratch.resize(keep, b']');
                    self.finish_cdata()?;
                    return Ok(true);
                }
                Some(_) => {
                    // All pending brackets were literal content.
                    let keep = self.scratch.len() + brackets;
                    self.scratch.resize(keep, b']');
                    brackets = 0;
                }
            }
        }
        if self.soft_input {
            return Ok(self.park(Tok::Cdata { brackets }));
        }
        Err(self.eof("CDATA section"))
    }

    /// CDATA content is raw character data (no entity decoding).
    fn finish_cdata(&mut self) -> Result<()> {
        normalize_line_endings(&mut self.scratch);
        let raw = std::str::from_utf8(&self.scratch)
            .map_err(|_| Error::syntax(self.tok_start, "invalid UTF-8 in CDATA"))?;
        self.text_acc.push_str(raw);
        Ok(())
    }

    /// Finish the character-data run in `scratch`, decoding it into the
    /// text accumulator. `amp`/`cr` say whether the run holds any `&` or
    /// `\r`: the run scan already noted them, so the normalization and
    /// entity-decode passes are skipped outright for the overwhelming
    /// majority of runs instead of each paying its own gating scan.
    fn finish_text(&mut self, amp: bool, cr: bool) -> Result<()> {
        if cr {
            normalize_line_endings(&mut self.scratch);
        }
        let start = self.tok_start;
        let raw = std::str::from_utf8(&self.scratch)
            .map_err(|_| Error::syntax(start, "invalid UTF-8 in character data"))?;
        if self.state != DocState::InRoot {
            if raw.chars().all(char::is_whitespace) {
                return Ok(());
            }
            return Err(Error::ContentOutsideRoot { offset: start });
        }
        // Entity references decode straight into the accumulator —
        // `raw` borrows `scratch`, a disjoint field from `text_acc`.
        if !amp {
            self.text_acc.push_str(raw);
        } else {
            decode_into(raw, start, &mut self.text_acc)?;
        }
        Ok(())
    }

    /// Emit any buffered text as a `Text` event.
    #[inline(always)]
    fn flush_text(&mut self) {
        if self.text_acc.is_empty() {
            return;
        }
        let keep = !self.options.skip_whitespace_text || !is_all_whitespace(&self.text_acc);
        if keep && !self.stack.is_empty() {
            let element = self.stack.last().expect("in root").0;
            let depth = self.stack.len() as u32;
            // Swap instead of clone: `text_out` is free once `pending`
            // drained, and both buffers keep their capacity.
            self.text_out.clear();
            std::mem::swap(&mut self.text_acc, &mut self.text_out);
            self.pending.push_back(Pending::Text { element, depth });
        } else {
            self.text_acc.clear();
        }
    }

    /// The start tag on top of the stack is complete: queue its `Begin`
    /// (and `End` for `<name/>`).
    #[inline(always)]
    fn finish_start_tag(&mut self, self_closing: bool) {
        let name = self.stack.last().expect("pushed when its name was read").0;
        let depth = self.stack.len() as u32;
        self.pending.push_back(Pending::Begin { name, depth });
        if self_closing {
            self.stack.pop();
            self.pending.push_back(Pending::End { name, depth });
            if self.stack.is_empty() {
                self.state = DocState::AfterRoot;
            }
        }
    }

    /// `</name>` is complete — it must match the innermost open element.
    #[inline(always)]
    fn close_element(&mut self, name: Sym) -> Result<()> {
        match self.stack.pop() {
            None => Err(Error::UnbalancedClose {
                offset: self.tok_start,
                tag: name.as_str().to_string(),
            }),
            Some((open, _)) if open != name => Err(Error::TagMismatch {
                offset: self.tok_start,
                expected: open.as_str().to_string(),
                found: name.as_str().to_string(),
            }),
            Some(_) => {
                let depth = self.stack.len() as u32 + 1;
                self.pending.push_back(Pending::End { name, depth });
                if self.stack.is_empty() {
                    self.state = DocState::AfterRoot;
                }
                Ok(())
            }
        }
    }

    /// The value in `scratch` of attribute `name` is complete: normalize
    /// and decode it into the reusable `attrs` buffer.
    fn push_attribute(&mut self, name: Sym) -> Result<()> {
        let value_start = self.value_start;
        normalize_attr_whitespace(&mut self.scratch);
        let raw = std::str::from_utf8(&self.scratch)
            .map_err(|_| Error::syntax(value_start, "invalid UTF-8 in attribute value"))?;
        // Reuse the slot (and its value's capacity) past the live prefix
        // if one exists; decode straight into it.
        if self.attrs_len == self.attrs.len() {
            self.attrs.push(Attribute {
                name,
                value: String::new(),
            });
        }
        let slot = &mut self.attrs[self.attrs_len];
        slot.name = name;
        slot.value.clear();
        if scan::find_byte(raw.as_bytes(), b'&').is_none() {
            slot.value.push_str(raw);
        } else {
            decode_into(raw, value_start, &mut slot.value)?;
        }
        self.attrs_len += 1;
        Ok(())
    }

    /// Resolve the name sitting in `scratch` through the parser-local
    /// cache, returning the symbol together with the table's interned
    /// `&'static str` (so callers never pay a table lookup for it).
    /// Interning allocates only the first time a name is seen
    /// process-wide.
    fn resolve_scratch_name(&mut self) -> Result<(Sym, &'static str)> {
        if self.scratch.is_empty() {
            return Err(self.syntax("expected a name"));
        }
        if let Some((name, sym)) = self.last_name {
            if self.scratch.as_slice() == name.as_bytes() {
                return Ok((sym, name));
            }
        }
        let raw = std::str::from_utf8(&self.scratch)
            .map_err(|_| Error::syntax(self.tok_start, "invalid UTF-8 in name"))?;
        if let Some((&name, &sym)) = self.sym_cache.get_key_value(raw) {
            self.last_name = Some((name, sym));
            return Ok((sym, name));
        }
        let sym = Sym::intern(raw);
        let name = sym.as_str();
        self.sym_cache.insert(name, sym);
        self.last_name = Some((name, sym));
        Ok((sym, name))
    }

    /// End of input: verify balance and emit `EndDocument`.
    fn end_of_input(&mut self) -> Result<()> {
        if !self.stack.is_empty() {
            return Err(Error::UnclosedElements {
                offset: self.offset,
                open: self.stack.iter().map(|&(_, n)| n.to_string()).collect(),
            });
        }
        if self.state == DocState::BeforeRoot {
            return Err(self.eof("document element"));
        }
        self.state = DocState::Done;
        self.pending.push_back(Pending::EndDocument);
        Ok(())
    }

    /// The input ended inside `context`.
    #[cold]
    fn eof(&self, context: &'static str) -> Error {
        Error::UnexpectedEof {
            offset: self.offset,
            context,
        }
    }

    /// A syntax error in the current markup token.
    #[cold]
    fn syntax(&self, message: impl Into<String>) -> Error {
        Error::syntax(self.tok_start, message)
    }

    // ---- byte-level helpers -------------------------------------------

    /// Consume `n` buffered bytes.
    #[inline(always)]
    fn bump(&mut self, n: usize) {
        self.reader.consume(n);
        self.offset += n as u64;
    }

    /// Bulk-append input bytes into `scratch` until `stop` matches (the
    /// stopping byte is left unconsumed). Returns `false` if the buffered
    /// input ran out first. Scans whole `fill_buf` slices instead of
    /// byte-at-a-time. Used for names, where the stop set is a
    /// predicate; the delimiter hot paths go through the kernels.
    #[inline(always)]
    fn take_until(&mut self, stop: impl Fn(u8) -> bool) -> Result<bool> {
        self.take_until_with(|buf| buf.iter().position(|&b| stop(b)))
    }

    #[inline(always)]
    fn take_until_with(&mut self, find: impl Fn(&[u8]) -> Option<usize>) -> Result<bool> {
        loop {
            let buf = self
                .reader
                .fill_buf()
                .map_err(|e| Error::io(self.offset, e))?;
            if buf.is_empty() {
                return Ok(false);
            }
            let found = find(buf);
            let n = found.unwrap_or(buf.len());
            self.scratch.extend_from_slice(&buf[..n]);
            self.bump(n);
            if found.is_some() {
                return Ok(true);
            }
        }
    }

    /// Discard input through the end that `feed`, a resumable skip
    /// scanner, finds (`Some(n)`: the end is `buf[n - 1]`). Returns
    /// `false` if soft input ran dry first; at end of input the
    /// construct named by `context` is truncated.
    fn skip_through(
        &mut self,
        context: &'static str,
        mut feed: impl FnMut(&[u8]) -> Option<usize>,
    ) -> Result<bool> {
        loop {
            let buf = self
                .reader
                .fill_buf()
                .map_err(|e| Error::io(self.offset, e))?;
            if buf.is_empty() {
                if self.soft_input {
                    return Ok(false);
                }
                return Err(self.eof(context));
            }
            let len = buf.len();
            match feed(buf) {
                Some(n) => {
                    self.bump(n);
                    return Ok(true);
                }
                None => self.bump(len),
            }
        }
    }

    #[inline(always)]
    fn peek_byte(&mut self) -> Result<Option<u8>> {
        let buf = self
            .reader
            .fill_buf()
            .map_err(|e| Error::io(self.offset, e))?;
        Ok(buf.first().copied())
    }

    /// Skip whitespace, then peek at the next byte.
    #[inline(always)]
    fn peek_past_whitespace(&mut self) -> Result<Option<u8>> {
        // Inside tags the next byte is rarely whitespace: one peek settles
        // the common case before the general scan.
        match self.peek_byte()? {
            Some(b) if !b.is_ascii_whitespace() => return Ok(Some(b)),
            _ => {}
        }
        loop {
            let buf = self
                .reader
                .fill_buf()
                .map_err(|e| Error::io(self.offset, e))?;
            match buf.iter().position(|b| !b.is_ascii_whitespace()) {
                Some(run) => {
                    let b = buf[run];
                    self.bump(run);
                    return Ok(Some(b));
                }
                None if buf.is_empty() => return Ok(None),
                None => {
                    let len = buf.len();
                    self.bump(len);
                }
            }
        }
    }

    /// Bulk-append character data into `scratch` until the next `<` (left
    /// unconsumed), noting whether any `&` or `\r` was seen along the way.
    /// Returns `false` if the buffered input ran out first. One fused
    /// [`scan::classify_run`] pass settles the run boundary *and* the
    /// flags that decide whether the line-ending normalization and
    /// entity-decode passes can be skipped. It also stops at every `]`:
    /// `brackets` counts the `]` the run ends with, so a `>` right after
    /// two of them — `]]>`, even split across pushes — is the error XML
    /// 1.0 §2.4 asks for.
    fn take_text_run(
        &mut self,
        saw_amp: &mut bool,
        saw_cr: &mut bool,
        brackets: &mut u8,
    ) -> Result<bool> {
        loop {
            let buf = self
                .reader
                .fill_buf()
                .map_err(|e| Error::io(self.offset, e))?;
            if buf.is_empty() {
                return Ok(false);
            }
            let mut consumed = 0usize;
            let mut stop = false;
            loop {
                let rest = &buf[consumed..];
                let n = scan::classify_run(rest);
                if n > 0 {
                    if *brackets == 2 && rest[0] == b'>' {
                        return Err(Error::CdataEndInContent {
                            offset: self.offset + consumed as u64 - 2,
                        });
                    }
                    *brackets = 0;
                }
                if n == rest.len() {
                    consumed = buf.len();
                    break;
                }
                match rest[n] {
                    b'<' => {
                        consumed += n;
                        stop = true;
                        break;
                    }
                    b'&' => (*saw_amp, *brackets) = (true, 0),
                    b'\r' => (*saw_cr, *brackets) = (true, 0),
                    _ => *brackets = (*brackets + 1).min(2),
                }
                consumed += n + 1;
            }
            self.scratch.extend_from_slice(&buf[..consumed]);
            self.bump(consumed);
            if stop {
                return Ok(true);
            }
        }
    }
}

/// Progress toward a comment's `-->` or a processing instruction's `?>`:
/// `min` repeats of `marker` followed by `>`. The kernels bulk-skip to
/// each candidate marker; only the short marker run itself is inspected
/// per byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Terminator {
    marker: u8,
    min: u8,
    /// Length of the marker run just seen (capped at `min`).
    run: u8,
}

impl Terminator {
    const COMMENT: Terminator = Terminator {
        marker: b'-',
        min: 2,
        run: 0,
    };
    const PI: Terminator = Terminator {
        marker: b'?',
        min: 1,
        run: 0,
    };

    fn context(self) -> &'static str {
        if self.marker == b'-' {
            "comment"
        } else {
            "processing instruction"
        }
    }

    /// Scan `buf`: `Some(n)` if the terminator's `>` is `buf[n - 1]`,
    /// `None` if `buf` ran out first (progress is kept).
    fn feed(&mut self, buf: &[u8]) -> Option<usize> {
        let mut i = 0;
        while i < buf.len() {
            if self.run == 0 {
                i += scan::find_byte(&buf[i..], self.marker)? + 1;
                self.run = 1;
                continue;
            }
            let b = buf[i];
            i += 1;
            if b == self.marker {
                self.run = (self.run + 1).min(self.min);
            } else if b == b'>' && self.run >= self.min {
                self.run = 0;
                return Some(i);
            } else {
                self.run = 0;
            }
        }
        None
    }
}

/// Bytes that can change a declaration scan outside literals, comments
/// and PIs.
static DECL_BYTE: [bool; 256] = {
    let mut table = [false; 256];
    let mut i = 0;
    while i < 6 {
        table[b"\"'[]><"[i] as usize] = true;
        i += 1;
    }
    table
};

/// Skips a `<!DOCTYPE …>` (or other `<!…>`) declaration, fed from just
/// after its `<!`. The declaration ends at the first `>` outside the
/// internal subset's brackets, where `>`, `[` and `]` inside quoted
/// literals (`SYSTEM "x>y.dtd"`, `<!ENTITY e "]>">`), comments and
/// processing instructions do not count. Resumable across chunks.
///
/// This is the one scan of that grammar: the tokenizer skips
/// declarations with it and [`crate::dtd::extract_from_document`] finds
/// the internal subset with it.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct DeclScan {
    /// Internal-subset bracket nesting.
    depth: i32,
    mode: DeclMode,
    /// Bytes scanned before the current [`feed`](Self::feed) call.
    fed: usize,
    /// Scan offsets of the internal subset's `[` and of its closing `]`.
    open: Option<usize>,
    close: Option<usize>,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum DeclMode {
    #[default]
    Body,
    /// Inside a literal delimited by this quote.
    Quoted(u8),
    /// Consumed `<`, `<!` or `<!-`: a comment or PI may be opening.
    Lt,
    LtBang,
    LtBangDash,
    /// Inside a comment or PI.
    Skip(Terminator),
}

impl DeclScan {
    /// Scan `buf`: `Some(n)` if the declaration's closing `>` is
    /// `buf[n - 1]`, `None` if `buf` ran out first (progress is kept).
    pub(crate) fn feed(&mut self, buf: &[u8]) -> Option<usize> {
        let mut i = 0;
        let end = loop {
            if i == buf.len() {
                break None;
            }
            match self.mode {
                DeclMode::Body => {
                    let Some(j) = buf[i..].iter().position(|&b| DECL_BYTE[b as usize]) else {
                        i = buf.len();
                        continue;
                    };
                    let at = i + j;
                    i = at + 1;
                    match buf[at] {
                        b'<' => self.mode = DeclMode::Lt,
                        b'[' => {
                            self.depth += 1;
                            if self.depth == 1 {
                                self.open = Some(self.fed + at);
                            }
                        }
                        b']' => {
                            self.depth -= 1;
                            if self.depth == 0 {
                                self.close = Some(self.fed + at);
                            }
                        }
                        b'>' if self.depth <= 0 => break Some(i),
                        b'>' => {}
                        quote => self.mode = DeclMode::Quoted(quote),
                    }
                }
                DeclMode::Quoted(quote) => match scan::find_byte(&buf[i..], quote) {
                    Some(j) => {
                        i += j + 1;
                        self.mode = DeclMode::Body;
                    }
                    None => i = buf.len(),
                },
                // A byte that opens no comment or PI is rescanned as body.
                DeclMode::Lt => match buf[i] {
                    b'!' => {
                        i += 1;
                        self.mode = DeclMode::LtBang;
                    }
                    b'?' => {
                        i += 1;
                        self.mode = DeclMode::Skip(Terminator::PI);
                    }
                    _ => self.mode = DeclMode::Body,
                },
                DeclMode::LtBang | DeclMode::LtBangDash if buf[i] != b'-' => {
                    self.mode = DeclMode::Body;
                }
                DeclMode::LtBang => {
                    self.mode = DeclMode::LtBangDash;
                    i += 1;
                }
                DeclMode::LtBangDash => {
                    self.mode = DeclMode::Skip(Terminator::COMMENT);
                    i += 1;
                }
                DeclMode::Skip(mut term) => match term.feed(&buf[i..]) {
                    Some(n) => {
                        i += n;
                        self.mode = DeclMode::Body;
                    }
                    None => {
                        i = buf.len();
                        self.mode = DeclMode::Skip(term);
                    }
                },
            }
        };
        self.fed += i;
        end
    }

    /// Scan offsets of the internal subset's contents (between its `[`
    /// and closing `]`), once both have been seen.
    pub(crate) fn subset(&self) -> Option<std::ops::Range<usize>> {
        Some(self.open? + 1..self.close?)
    }
}

/// Byte-class table for name scanning: a single indexed load per byte
/// beats re-evaluating the whitespace + delimiter predicate in the
/// name loop, which runs twice per element (tag name, closing name)
/// plus once per attribute.
static NAME_BYTE: [bool; 256] = build_name_byte_table();

const fn build_name_byte_table() -> [bool; 256] {
    let mut table = [false; 256];
    let mut i = 0usize;
    while i < 256 {
        let b = i as u8;
        let ws = matches!(b, b' ' | b'\t' | b'\n' | b'\r' | 0x0c);
        let delim = matches!(b, b'>' | b'/' | b'=' | b'<' | b'"' | b'\'');
        table[i] = !ws && !delim;
        i += 1;
    }
    table
}

fn is_name_byte(b: u8) -> bool {
    NAME_BYTE[b as usize]
}

/// XML 1.0 §2.11: `\r\n` and bare `\r` become `\n` in character data.
/// Runs on the raw bytes of one accumulated run (names and markup never
/// contain `\r`), before entity decoding so `&#13;` stays a literal CR.
/// In-place compaction; a run with no `\r` — the overwhelming majority —
/// costs one SWAR scan and no writes.
fn normalize_line_endings(buf: &mut Vec<u8>) {
    let Some(first) = scan::find_byte(buf, b'\r') else {
        return;
    };
    let len = buf.len();
    let (mut r, mut w) = (first, first);
    while r < len {
        let b = buf[r];
        r += 1;
        if b == b'\r' {
            buf[w] = b'\n';
            if r < len && buf[r] == b'\n' {
                r += 1;
            }
        } else {
            buf[w] = b;
        }
        w += 1;
    }
    buf.truncate(w);
}

/// XML 1.0 §3.3.3 (CDATA-type attributes): after line-ending
/// normalization, every literal whitespace character in an attribute
/// value becomes a single space — so `\r\n` collapses to one space, and
/// `\t`/`\n`/`\r` each become one. Character references (`&#10;`, `&#9;`)
/// are exempt: they decode after this pass and stay literal.
fn normalize_attr_whitespace(buf: &mut Vec<u8>) {
    let Some(first) = scan::find_byte3(buf, b'\t', b'\r', b'\n') else {
        return;
    };
    let len = buf.len();
    let (mut r, mut w) = (first, first);
    while r < len {
        let b = buf[r];
        r += 1;
        match b {
            b'\r' => {
                buf[w] = b' ';
                if r < len && buf[r] == b'\n' {
                    r += 1;
                }
            }
            b'\t' | b'\n' => buf[w] = b' ',
            _ => buf[w] = b,
        }
        w += 1;
    }
    buf.truncate(w);
}

/// Whitespace-only test with a byte-wise ASCII fast path; the `chars()`
/// pass only runs when a non-ASCII-whitespace byte shows up (it could
/// still be Unicode whitespace, which `char::is_whitespace` accepts).
fn is_all_whitespace(s: &str) -> bool {
    s.bytes().all(|b| b.is_ascii_whitespace()) || s.chars().all(char::is_whitespace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_to_events;

    fn events(input: &str) -> Vec<SaxEvent> {
        parse_to_events(input.as_bytes()).unwrap()
    }

    fn err(input: &str) -> Error {
        parse_to_events(input.as_bytes()).unwrap_err()
    }

    #[test]
    fn simple_document() {
        let evs = events("<a><b>hi</b></a>");
        assert_eq!(evs[0], SaxEvent::StartDocument);
        assert_eq!(
            evs[1],
            SaxEvent::Begin {
                name: "a".into(),
                attributes: vec![],
                depth: 1
            }
        );
        assert_eq!(
            evs[3],
            SaxEvent::Text {
                element: "b".into(),
                text: "hi".into(),
                depth: 2
            }
        );
        assert_eq!(evs[6], SaxEvent::EndDocument);
    }

    #[test]
    fn raw_events_match_owned_events() {
        let doc = b"<a id=\"1\"><b>hi &amp; bye</b><c x='2' y='3'/></a>";
        let owned = parse_to_events(doc).unwrap();
        let mut p = StreamParser::new(&doc[..]);
        let mut raws = Vec::new();
        while let Some(ev) = p.next_raw().unwrap() {
            raws.push(ev.to_owned());
        }
        assert_eq!(owned, raws);
    }

    #[test]
    fn raw_text_borrows_scratch() {
        let mut p = StreamParser::new(&b"<a>hello</a>"[..]);
        p.next_raw().unwrap(); // StartDocument
        p.next_raw().unwrap(); // <a>
        let ev = p.next_raw().unwrap().unwrap();
        let RawEvent::Text { element, text, .. } = ev else {
            panic!("expected text, got {ev}");
        };
        assert_eq!(element, "a");
        assert_eq!(text, "hello");
    }

    #[test]
    fn attributes_are_decoded() {
        let evs = events(r#"<a id="1" name='x &amp; y'/>"#);
        let SaxEvent::Begin { attributes, .. } = &evs[1] else {
            panic!("expected begin");
        };
        assert_eq!(attributes[0], Attribute::new("id", "1"));
        assert_eq!(attributes[1], Attribute::new("name", "x & y"));
        // Self-closing yields an immediate end event at the same depth.
        assert_eq!(
            evs[2],
            SaxEvent::End {
                name: "a".into(),
                depth: 1
            }
        );
    }

    #[test]
    fn attribute_buffer_is_reused_not_leaked_across_tags() {
        // Second tag has fewer attributes than the first: the stale third
        // slot must not resurface.
        let evs = events(r#"<a p="1" q="2" r="3"><b s="4"/></a>"#);
        let SaxEvent::Begin { attributes, .. } = &evs[1] else {
            panic!();
        };
        assert_eq!(attributes.len(), 3);
        let SaxEvent::Begin {
            name, attributes, ..
        } = &evs[2]
        else {
            panic!();
        };
        assert_eq!(*name, "b");
        assert_eq!(attributes.len(), 1);
        assert_eq!(attributes[0], Attribute::new("s", "4"));
    }

    #[test]
    fn whitespace_only_text_is_skipped_by_default() {
        let evs = events("<a>\n  <b>x</b>\n</a>");
        assert!(evs
            .iter()
            .filter(|e| e.is_text())
            .all(|e| matches!(e, SaxEvent::Text { text, .. } if text == "x")));
    }

    #[test]
    fn whitespace_text_kept_when_requested() {
        let opts = ParserOptions {
            skip_whitespace_text: false,
        };
        let mut p = StreamParser::with_options(&b"<a> <b>x</b></a>"[..], opts);
        let mut texts = Vec::new();
        while let Some(ev) = p.next_event().unwrap() {
            if let SaxEvent::Text { text, .. } = ev {
                texts.push(text);
            }
        }
        assert_eq!(texts, vec![" ".to_string(), "x".to_string()]);
    }

    #[test]
    fn text_entities_are_decoded() {
        let evs = events("<a>1 &lt; 2 &amp;&amp; 3 &gt; 2</a>");
        let SaxEvent::Text { text, .. } = &evs[2] else {
            panic!()
        };
        assert_eq!(text, "1 < 2 && 3 > 2");
    }

    #[test]
    fn cdata_is_raw_text_and_coalesces() {
        let evs = events("<a>x<![CDATA[<not-a-tag> & raw]]>y</a>");
        let SaxEvent::Text { text, .. } = &evs[2] else {
            panic!()
        };
        assert_eq!(text, "x<not-a-tag> & rawy");
    }

    #[test]
    fn crlf_and_bare_cr_normalize_to_lf_in_text() {
        // XML 1.0 §2.11: the three line-ending spellings are one.
        let evs = events("<a>line1\r\nline2\rline3\nline4</a>");
        let SaxEvent::Text { text, .. } = &evs[2] else {
            panic!()
        };
        assert_eq!(text, "line1\nline2\nline3\nline4");
    }

    #[test]
    fn crlf_normalizes_in_cdata() {
        let evs = events("<a><![CDATA[x\r\ny\rz]]></a>");
        let SaxEvent::Text { text, .. } = &evs[2] else {
            panic!()
        };
        assert_eq!(text, "x\ny\nz");
    }

    #[test]
    fn char_ref_cr_stays_literal() {
        // §2.11 normalizes the input stream, not decoded references.
        let evs = events("<a>x&#13;y&#xD;&#10;z</a>");
        let SaxEvent::Text { text, .. } = &evs[2] else {
            panic!()
        };
        assert_eq!(text, "x\ry\r\nz");
    }

    #[test]
    fn crlf_only_text_is_whitespace_skipped() {
        let evs = events("<a>\r\n  <b>x</b>\r\n</a>");
        assert!(evs
            .iter()
            .filter(|e| e.is_text())
            .all(|e| matches!(e, SaxEvent::Text { text, .. } if text == "x")));
    }

    #[test]
    fn attribute_whitespace_normalizes_to_spaces() {
        // XML 1.0 §3.3.3: literal tab/CR/LF become spaces (one per \r\n
        // pair, since line-ending normalization runs first).
        let evs = events("<a v=\"a\tb\nc\rd\r\ne\"/>");
        let SaxEvent::Begin { attributes, .. } = &evs[1] else {
            panic!()
        };
        assert_eq!(attributes[0], Attribute::new("v", "a b c d e"));
    }

    #[test]
    fn attribute_char_refs_stay_literal_whitespace() {
        let evs = events("<a v='x&#10;y&#9;z&#13;'/>");
        let SaxEvent::Begin { attributes, .. } = &evs[1] else {
            panic!()
        };
        assert_eq!(attributes[0], Attribute::new("v", "x\ny\tz\r"));
    }

    #[test]
    fn wrapped_attribute_equality_predicate_shape() {
        // The conformance bug this fixes: a value wrapped across lines
        // must compare equal to its single-space spelling.
        let evs = events("<a v=\"two\r\nwords\"/>");
        let SaxEvent::Begin { attributes, .. } = &evs[1] else {
            panic!()
        };
        assert_eq!(attributes[0].value, "two words");
    }

    #[test]
    fn comments_and_pis_are_skipped() {
        let evs = events("<?xml version=\"1.0\"?><!-- c --><a><!-- inner -->t<?pi d?></a>");
        assert_eq!(evs.len(), 5);
        let SaxEvent::Text { text, .. } = &evs[2] else {
            panic!()
        };
        assert_eq!(text, "t");
    }

    #[test]
    fn doctype_with_internal_subset_is_skipped() {
        let evs = events("<!DOCTYPE a [ <!ELEMENT a (#PCDATA)> ]><a>x</a>");
        assert_eq!(evs.len(), 5);
    }

    #[test]
    fn depths_follow_nesting() {
        let evs = events("<a><b><c/></b><b/></a>");
        let depths: Vec<(Option<String>, u32)> = evs
            .iter()
            .map(|e| (e.name().map(String::from), e.depth()))
            .collect();
        assert_eq!(
            depths,
            vec![
                (None, 0),
                (Some("a".into()), 1),
                (Some("b".into()), 2),
                (Some("c".into()), 3),
                (Some("c".into()), 3),
                (Some("b".into()), 2),
                (Some("b".into()), 2),
                (Some("b".into()), 2),
                (Some("a".into()), 1),
                (None, 0),
            ]
        );
    }

    #[test]
    fn mismatched_close_is_detected() {
        assert!(matches!(err("<a><b></a></b>"), Error::TagMismatch { .. }));
    }

    #[test]
    fn unbalanced_close_is_detected() {
        assert!(matches!(err("<a></a></b>"), Error::UnbalancedClose { .. }));
    }

    #[test]
    fn unclosed_elements_detected_at_eof() {
        assert!(matches!(err("<a><b>"), Error::UnclosedElements { .. }));
    }

    #[test]
    fn content_outside_root_is_rejected() {
        assert!(matches!(err("hello<a/>"), Error::ContentOutsideRoot { .. }));
        assert!(matches!(
            err("<a/>trailing"),
            Error::ContentOutsideRoot { .. }
        ));
    }

    #[test]
    fn multiple_roots_are_rejected() {
        assert!(matches!(err("<a/><b/>"), Error::MultipleRoots { .. }));
    }

    #[test]
    fn empty_input_is_rejected() {
        assert!(matches!(err(""), Error::UnexpectedEof { .. }));
        assert!(matches!(err("   \n "), Error::UnexpectedEof { .. }));
    }

    #[test]
    fn bad_attribute_syntax_is_rejected() {
        assert!(matches!(err("<a id=1/>"), Error::Syntax { .. }));
        assert!(matches!(err("<a id></a>"), Error::Syntax { .. }));
    }

    #[test]
    fn unterminated_comment_is_rejected() {
        assert!(matches!(
            err("<a><!-- oops</a>"),
            Error::UnexpectedEof { .. }
        ));
    }

    #[test]
    fn cdata_end_in_content_is_rejected_at_its_first_bracket() {
        assert_eq!(err("<a>x]]>y</a>"), Error::CdataEndInContent { offset: 4 });
        assert_eq!(err("<a>]]]></a>"), Error::CdataEndInContent { offset: 4 });
    }

    #[test]
    fn offsets_advance() {
        let mut p = StreamParser::new(&b"<a>x</a>"[..]);
        while p.next_event().unwrap().is_some() {}
        assert_eq!(p.offset(), 8);
    }

    #[test]
    fn reset_with_reuses_a_parser_across_documents() {
        let mut p = StreamParser::new(&b"<a x=\"1\"><b>one</b></a>"[..]);
        let mut first = Vec::new();
        while let Some(ev) = p.next_event().unwrap() {
            first.push(ev);
        }
        // Rearm mid-state too: abandon a half-read document cleanly.
        p.reset_with(&b"<a><b>ignored"[..]);
        p.next_raw().unwrap();
        p.next_raw().unwrap();
        p.reset_with(&b"<a x=\"1\"><b>one</b></a>"[..]);
        let mut second = Vec::new();
        while let Some(ev) = p.next_event().unwrap() {
            second.push(ev);
        }
        assert_eq!(first, second);
        assert_eq!(p.offset(), 23);
    }

    #[test]
    fn mixed_content_produces_multiple_text_events() {
        let evs = events("<a>one<b/>two</a>");
        let texts: Vec<&str> = evs
            .iter()
            .filter_map(|e| match e {
                SaxEvent::Text { text, .. } => Some(text.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(texts, vec!["one", "two"]);
    }

    #[test]
    fn deeply_nested_document_parses() {
        let mut doc = String::new();
        for _ in 0..200 {
            doc.push_str("<d>");
        }
        doc.push('x');
        for _ in 0..200 {
            doc.push_str("</d>");
        }
        let evs = events(&doc);
        let max_depth = evs.iter().map(|e| e.depth()).max().unwrap();
        assert_eq!(max_depth, 200);
    }
}
