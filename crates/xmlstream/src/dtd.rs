//! A DTD reader: element declarations, content models, and the
//! parent→child graph.
//!
//! The XSQ paper leaves schema awareness as future work ("it is an
//! interesting topic to automatically incorporate schema information, if
//! available, into the system for optimization", §5) and cites Choi's
//! survey that 35 of 60 real DTDs are *recursive* — the property that
//! makes closures expensive. This module parses the `<!ELEMENT …>`
//! declarations of a DTD (standalone text or a DOCTYPE internal subset)
//! into two views the optimizers in `xsq-core` build on:
//!
//! * the flattened child *graph* — "which tags may appear (anywhere)
//!   inside which", so `(a, (b | c)*, d?)` reads as the set
//!   `{a, b, c, d}`; this drives closure-elimination and reachability;
//! * the structured [`ContentModel`] — sequencing, choice, and the
//!   `?`/`*`/`+` repetition suffixes, so the same declaration also
//!   answers *how many* `b` children one parent instance may hold
//!   ([`Dtd::max_count`]) and how many it must ([`Dtd::min_count`]);
//!   these multiplicities are what the static memory-bound analyzer
//!   (Koch et al.'s FluX line of buffer minimization) interprets.
//!
//! Conditional sections (`<![INCLUDE[…]]>` / `<![IGNORE[…]]>`, XML 1.0
//! §3.4 without parameter entities) are honored, mixed content
//! (`(#PCDATA | a | b)*`) parses into [`ContentModel::Mixed`], and every
//! malformed declaration is a positioned [`Error`] — never a panic.

use std::collections::{BTreeMap, BTreeSet};

use crate::error::{Error, Result};
use crate::parser::DeclScan;

/// An occurrence count read off a content model: either a concrete
/// maximum or "no static limit" (a `*`/`+` repetition on the path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Occurs {
    Bounded(u64),
    Unbounded,
}

impl Occurs {
    pub const ZERO: Occurs = Occurs::Bounded(0);
    pub const ONE: Occurs = Occurs::Bounded(1);

    pub fn is_zero(&self) -> bool {
        *self == Occurs::ZERO
    }

    pub fn is_bounded(&self) -> bool {
        matches!(self, Occurs::Bounded(_))
    }

    /// Saturating sum (sequence composition: counts add).
    pub fn plus(self, other: Occurs) -> Occurs {
        match (self, other) {
            (Occurs::Bounded(a), Occurs::Bounded(b)) => Occurs::Bounded(a.saturating_add(b)),
            _ => Occurs::Unbounded,
        }
    }

    /// Saturating product (repetition composition: counts multiply).
    /// Zero annihilates even `Unbounded`: a child that cannot occur in
    /// the body occurs zero times however often the body repeats.
    pub fn times(self, other: Occurs) -> Occurs {
        match (self, other) {
            (Occurs::Bounded(0), _) | (_, Occurs::Bounded(0)) => Occurs::ZERO,
            (Occurs::Bounded(a), Occurs::Bounded(b)) => Occurs::Bounded(a.saturating_mul(b)),
            _ => Occurs::Unbounded,
        }
    }

    /// Pointwise maximum (choice composition: the worse branch wins).
    pub fn join(self, other: Occurs) -> Occurs {
        match (self, other) {
            (Occurs::Bounded(a), Occurs::Bounded(b)) => Occurs::Bounded(a.max(b)),
            _ => Occurs::Unbounded,
        }
    }
}

impl std::fmt::Display for Occurs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Occurs::Bounded(n) => write!(f, "{n}"),
            Occurs::Unbounded => write!(f, "unbounded"),
        }
    }
}

/// A repetition suffix on a name or group: nothing, `?`, `*`, or `+`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rep {
    One,
    Opt,
    Star,
    Plus,
}

impl Rep {
    pub fn max_occurs(self) -> Occurs {
        match self {
            Rep::One | Rep::Opt => Occurs::ONE,
            Rep::Star | Rep::Plus => Occurs::Unbounded,
        }
    }

    pub fn min_occurs(self) -> u64 {
        match self {
            Rep::One | Rep::Plus => 1,
            Rep::Opt | Rep::Star => 0,
        }
    }

    fn suffix(self) -> &'static str {
        match self {
            Rep::One => "",
            Rep::Opt => "?",
            Rep::Star => "*",
            Rep::Plus => "+",
        }
    }
}

/// One content particle: a name or a parenthesized group, with its
/// repetition suffix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Particle {
    Name(String, Rep),
    /// `(a, b, c)` — all in order.
    Seq(Vec<Particle>, Rep),
    /// `(a | b | c)` — exactly one.
    Choice(Vec<Particle>, Rep),
}

impl Particle {
    fn rep(&self) -> Rep {
        match self {
            Particle::Name(_, r) | Particle::Seq(_, r) | Particle::Choice(_, r) => *r,
        }
    }

    fn collect_names(&self, out: &mut BTreeSet<String>) {
        match self {
            Particle::Name(n, _) => {
                out.insert(n.clone());
            }
            Particle::Seq(items, _) | Particle::Choice(items, _) => {
                for p in items {
                    p.collect_names(out);
                }
            }
        }
    }

    /// Most instances of `tag` one expansion of this particle can hold.
    pub fn max_occurs(&self, tag: &str) -> Occurs {
        let inner = match self {
            Particle::Name(n, _) => {
                if n == tag {
                    Occurs::ONE
                } else {
                    Occurs::ZERO
                }
            }
            Particle::Seq(items, _) => items
                .iter()
                .fold(Occurs::ZERO, |acc, p| acc.plus(p.max_occurs(tag))),
            Particle::Choice(items, _) => items
                .iter()
                .fold(Occurs::ZERO, |acc, p| acc.join(p.max_occurs(tag))),
        };
        inner.times(self.rep().max_occurs())
    }

    /// Fewest instances of `tag` every expansion of this particle must
    /// hold (the always-true witness for `[tag]` existence predicates).
    pub fn min_occurs(&self, tag: &str) -> u64 {
        let inner = match self {
            Particle::Name(n, _) => u64::from(n == tag),
            Particle::Seq(items, _) => items
                .iter()
                .fold(0u64, |acc, p| acc.saturating_add(p.min_occurs(tag))),
            Particle::Choice(items, _) => {
                items.iter().map(|p| p.min_occurs(tag)).min().unwrap_or(0)
            }
        };
        inner.saturating_mul(self.rep().min_occurs())
    }

    /// Most *element children of any tag* one expansion can hold — the
    /// fan-out that bounds how many text runs interleave inside a parent.
    pub fn max_children(&self) -> Occurs {
        let inner = match self {
            Particle::Name(_, _) => Occurs::ONE,
            Particle::Seq(items, _) => items
                .iter()
                .fold(Occurs::ZERO, |acc, p| acc.plus(p.max_children())),
            Particle::Choice(items, _) => items
                .iter()
                .fold(Occurs::ZERO, |acc, p| acc.join(p.max_children())),
        };
        inner.times(self.rep().max_occurs())
    }
}

impl std::fmt::Display for Particle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Particle::Name(n, r) => write!(f, "{n}{}", r.suffix()),
            Particle::Seq(items, r) => {
                write!(f, "(")?;
                for (i, p) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, "){}", r.suffix())
            }
            Particle::Choice(items, r) => {
                write!(f, "(")?;
                for (i, p) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, " | ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, "){}", r.suffix())
            }
        }
    }
}

/// A declared element's content model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContentModel {
    /// `EMPTY` — no content at all.
    Empty,
    /// `ANY` — any declared element, any number of times.
    Any,
    /// `(#PCDATA)` or `(#PCDATA | a | …)*` — text freely interleaved
    /// with the named elements (each may repeat without limit).
    Mixed(BTreeSet<String>),
    /// An element-content particle.
    Children(Particle),
}

impl std::fmt::Display for ContentModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContentModel::Empty => write!(f, "EMPTY"),
            ContentModel::Any => write!(f, "ANY"),
            ContentModel::Mixed(names) if names.is_empty() => write!(f, "(#PCDATA)"),
            ContentModel::Mixed(names) => {
                write!(f, "(#PCDATA")?;
                for n in names {
                    write!(f, " | {n}")?;
                }
                write!(f, ")*")
            }
            ContentModel::Children(p) => write!(f, "{p}"),
        }
    }
}

/// A parsed DTD: for each declared element, its content model and the
/// flattened set of child element tags the model allows.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Dtd {
    children: BTreeMap<String, BTreeSet<String>>,
    models: BTreeMap<String, ContentModel>,
}

impl Dtd {
    /// Parse DTD text: every `<!ELEMENT name (content)>` declaration is
    /// read, conditional sections are honored (`INCLUDE` bodies parse,
    /// `IGNORE` bodies are skipped), and other declarations (`ATTLIST`,
    /// `ENTITY`, comments, PIs) are skipped.
    pub fn parse(text: &str) -> Result<Dtd> {
        let mut dtd = Dtd::default();
        dtd.scan(text, 0, text.len())?;
        Ok(dtd)
    }

    /// Parse the region `text[start..end]`; offsets in errors are
    /// absolute into `text` (conditional-section bodies recurse here).
    fn scan(&mut self, text: &str, start: usize, end: usize) -> Result<()> {
        let bytes = text.as_bytes();
        let mut i = start;
        while i < end {
            match bytes[i] {
                b'<' if text[i..end].starts_with("<!--") => {
                    i = text[i..end].find("-->").map(|j| i + j + 3).ok_or(
                        Error::UnexpectedEof {
                            offset: i as u64,
                            context: "DTD comment",
                        },
                    )?;
                }
                b'<' if text[i..end].starts_with("<![") => {
                    // Conditional section: `<![ KEYWORD [ body ]]>`.
                    let kw_end = text[i + 3..end].find('[').ok_or(Error::UnexpectedEof {
                        offset: i as u64,
                        context: "conditional section keyword",
                    })?;
                    let keyword = text[i + 3..i + 3 + kw_end].trim();
                    let body_start = i + 3 + kw_end + 1;
                    let body_end =
                        find_section_close(text, body_start, end).ok_or(Error::UnexpectedEof {
                            offset: i as u64,
                            context: "conditional section",
                        })?;
                    match keyword {
                        "INCLUDE" => self.scan(text, body_start, body_end)?,
                        "IGNORE" => {}
                        other => {
                            return Err(Error::syntax(
                                i as u64,
                                format!(
                                    "conditional section keyword must be INCLUDE or IGNORE, \
                                     got \"{other}\""
                                ),
                            ));
                        }
                    }
                    i = body_end + 3;
                }
                b'<' if text[i..end].starts_with("<!ELEMENT") => {
                    let decl_end = text[i..end].find('>').ok_or(Error::UnexpectedEof {
                        offset: i as u64,
                        context: "ELEMENT declaration",
                    })?;
                    let body_at = i + "<!ELEMENT".len();
                    self.read_element(&text[body_at..i + decl_end], body_at as u64)?;
                    i += decl_end + 1;
                }
                b'<' => {
                    // Some other declaration or PI: skip to '>'.
                    i = text[i..end]
                        .find('>')
                        .map(|j| i + j + 1)
                        .ok_or(Error::UnexpectedEof {
                            offset: i as u64,
                            context: "DTD declaration",
                        })?;
                }
                _ => i += 1,
            }
        }
        Ok(())
    }

    /// Parse one declaration body (`name content-model`) starting at
    /// absolute byte `offset`.
    fn read_element(&mut self, body: &str, offset: u64) -> Result<()> {
        let mut p = ModelCursor::new(body, offset);
        p.skip_ws();
        let name = p
            .name()
            .ok_or_else(|| Error::syntax(p.pos(), "ELEMENT declaration without a name"))?;
        p.skip_ws();
        let model = p.content_model()?;
        p.skip_ws();
        if !p.at_end() {
            return Err(Error::syntax(
                p.pos(),
                "unexpected trailing characters after the content model",
            ));
        }
        self.insert_model(name, model);
        Ok(())
    }

    fn insert_model(&mut self, name: String, model: ContentModel) {
        let mut kids = BTreeSet::new();
        match &model {
            ContentModel::Empty | ContentModel::Any => {}
            ContentModel::Mixed(names) => kids.extend(names.iter().cloned()),
            ContentModel::Children(p) => p.collect_names(&mut kids),
        }
        let entry = self.children.entry(name.clone()).or_default();
        let duplicate = self.models.contains_key(&name);
        entry.extend(kids);
        if duplicate {
            // Repeated declarations (illegal per spec, tolerated here)
            // merge their child sets; the structured model degrades to
            // the conservative "any of them, any number of times".
            let merged = entry.clone();
            self.models.insert(name, conservative_model(&merged));
        } else {
            self.models.insert(name, model);
        }
    }

    /// Build a DTD directly from edges (tests, programmatic schemas).
    /// Edges carry no multiplicity, so each child set reads as the
    /// conservative `(a | b | …)*` — any child, any number of times.
    pub fn from_edges(edges: &[(&str, &[&str])]) -> Dtd {
        let mut dtd = Dtd::default();
        for (parent, kids) in edges {
            let entry = dtd.children.entry(parent.to_string()).or_default();
            entry.extend(kids.iter().map(|s| s.to_string()));
            let merged = entry.clone();
            dtd.models
                .insert(parent.to_string(), conservative_model(&merged));
        }
        dtd
    }

    /// Declared element names.
    pub fn elements(&self) -> impl Iterator<Item = &str> {
        self.children.keys().map(String::as_str)
    }

    /// Direct children allowed inside `tag` (empty if undeclared).
    pub fn children_of(&self, tag: &str) -> impl Iterator<Item = &str> {
        self.children
            .get(tag)
            .into_iter()
            .flat_map(|s| s.iter().map(String::as_str))
    }

    /// Is `tag` declared at all?
    pub fn declares(&self, tag: &str) -> bool {
        self.children.contains_key(tag)
    }

    /// The structured content model of `tag`, if declared.
    pub fn model_of(&self, tag: &str) -> Option<&ContentModel> {
        self.models.get(tag)
    }

    /// Most `child` elements one `parent` instance may directly hold.
    /// Undeclared parents answer `Unbounded` — no declaration, no claim.
    pub fn max_count(&self, parent: &str, child: &str) -> Occurs {
        match self.models.get(parent) {
            None => Occurs::Unbounded,
            Some(ContentModel::Empty) => Occurs::ZERO,
            Some(ContentModel::Any) => {
                if self.declares(child) {
                    Occurs::Unbounded
                } else {
                    Occurs::ZERO
                }
            }
            Some(ContentModel::Mixed(names)) => {
                if names.contains(child) {
                    Occurs::Unbounded
                } else {
                    Occurs::ZERO
                }
            }
            Some(ContentModel::Children(p)) => p.max_occurs(child),
        }
    }

    /// Fewest `child` elements every valid `parent` instance must hold.
    /// Only element-content models can prove a minimum; everything else
    /// (including undeclared parents) answers 0.
    pub fn min_count(&self, parent: &str, child: &str) -> u64 {
        match self.models.get(parent) {
            Some(ContentModel::Children(p)) => p.min_occurs(child),
            _ => 0,
        }
    }

    /// Most element children (of any tag) one `parent` instance may
    /// hold — bounds how many text runs its character data can split
    /// into (runs ≤ children + 1; markup that emits no events, like
    /// comments and CDATA, coalesces and does not split a run).
    pub fn max_child_elements(&self, parent: &str) -> Occurs {
        match self.models.get(parent) {
            None => Occurs::Unbounded,
            Some(ContentModel::Empty) => Occurs::ZERO,
            Some(ContentModel::Any) => Occurs::Unbounded,
            Some(ContentModel::Mixed(names)) => {
                if names.is_empty() {
                    Occurs::ZERO
                } else {
                    Occurs::Unbounded
                }
            }
            Some(ContentModel::Children(p)) => p.max_children(),
        }
    }

    /// Every tag reachable *strictly below* `tag` (transitive closure of
    /// the child relation).
    pub fn descendants_of(&self, tag: &str) -> BTreeSet<String> {
        let mut seen = BTreeSet::new();
        let mut work: Vec<&str> = self.children_of(tag).collect();
        while let Some(t) = work.pop() {
            if seen.insert(t.to_string()) {
                work.extend(self.children_of(t));
            }
        }
        seen
    }

    /// Tags reachable at depth ≥ 2 below `tag` (descendants of its
    /// children) — the test for `//t ≡ /t` rewrites.
    pub fn deep_descendants_of(&self, tag: &str) -> BTreeSet<String> {
        let mut deep = BTreeSet::new();
        for child in self.children_of(tag) {
            deep.extend(self.descendants_of(child));
        }
        deep
    }

    /// Is the schema recursive — can some element contain itself at any
    /// depth? (Choi's survey: 35 of 60 real DTDs are.)
    pub fn is_recursive(&self) -> bool {
        self.children
            .keys()
            .any(|t| self.descendants_of(t).contains(t))
    }

    /// Elements that never occur as anyone's child: document-element
    /// candidates.
    pub fn root_candidates(&self) -> BTreeSet<String> {
        let mut all: BTreeSet<String> = self.children.keys().cloned().collect();
        for kids in self.children.values() {
            for k in kids {
                all.remove(k);
            }
        }
        all
    }
}

/// The `(a | b | …)*` model used where multiplicity is unknown
/// (edge-built DTDs, merged duplicate declarations).
fn conservative_model(kids: &BTreeSet<String>) -> ContentModel {
    if kids.is_empty() {
        ContentModel::Mixed(BTreeSet::new())
    } else {
        ContentModel::Children(Particle::Choice(
            kids.iter()
                .map(|k| Particle::Name(k.clone(), Rep::One))
                .collect(),
            Rep::Star,
        ))
    }
}

/// Find the `]]>` closing the section whose body starts at `from`,
/// skipping over nested `<![ … ]]>` sections.
fn find_section_close(text: &str, from: usize, end: usize) -> Option<usize> {
    let mut depth = 1usize;
    let mut i = from;
    while i < end {
        let rest = &text[i..end];
        if rest.starts_with("<![") {
            depth += 1;
            i += 3;
        } else if rest.starts_with("]]>") {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
            i += 3;
        } else {
            // Advance one byte; both delimiters are pure ASCII, so a
            // mid-UTF-8 position can never match the prefixes above.
            i += 1;
        }
    }
    None
}

fn is_name_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':')
}

/// A cursor over one declaration body, tracking absolute offsets for
/// positioned errors.
struct ModelCursor<'a> {
    bytes: &'a [u8],
    text: &'a str,
    i: usize,
    base: u64,
}

impl<'a> ModelCursor<'a> {
    fn new(text: &'a str, base: u64) -> Self {
        ModelCursor {
            bytes: text.as_bytes(),
            text,
            i: 0,
            base,
        }
    }

    fn pos(&self) -> u64 {
        self.base + self.i as u64
    }

    fn at_end(&self) -> bool {
        self.i >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.i).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b) if b.is_ascii_whitespace()) {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn name(&mut self) -> Option<String> {
        let start = self.i;
        while matches!(self.peek(), Some(b) if is_name_byte(b)) {
            self.i += 1;
        }
        if self.i == start {
            None
        } else {
            Some(self.text[start..self.i].to_string())
        }
    }

    fn rep(&mut self) -> Rep {
        match self.peek() {
            Some(b'?') => {
                self.i += 1;
                Rep::Opt
            }
            Some(b'*') => {
                self.i += 1;
                Rep::Star
            }
            Some(b'+') => {
                self.i += 1;
                Rep::Plus
            }
            _ => Rep::One,
        }
    }

    fn content_model(&mut self) -> Result<ContentModel> {
        match self.peek() {
            Some(b'(') => {}
            _ => {
                let at = self.pos();
                return match self.name().as_deref() {
                    Some("EMPTY") => Ok(ContentModel::Empty),
                    Some("ANY") => Ok(ContentModel::Any),
                    Some(other) => Err(Error::syntax(
                        at,
                        format!("content model must be EMPTY, ANY, or a group, got \"{other}\""),
                    )),
                    None => Err(Error::syntax(at, "missing content model")),
                };
            }
        }
        // Peek past "( S?" for #PCDATA without consuming: mixed content
        // has its own shape.
        let save = self.i;
        self.i += 1; // '('
        self.skip_ws();
        if self.text[self.i..].starts_with("#PCDATA") {
            self.i += "#PCDATA".len();
            return self.mixed_tail();
        }
        self.i = save;
        let particle = self.group()?;
        Ok(ContentModel::Children(particle))
    }

    /// After `( S? #PCDATA`: either `S? )` or `( … | name )* `.
    fn mixed_tail(&mut self) -> Result<ContentModel> {
        let mut names = BTreeSet::new();
        loop {
            self.skip_ws();
            if self.eat(b')') {
                if names.is_empty() {
                    // `(#PCDATA)` — a trailing `*` is legal too.
                    self.eat(b'*');
                    return Ok(ContentModel::Mixed(names));
                }
                if !self.eat(b'*') {
                    return Err(Error::syntax(
                        self.pos(),
                        "mixed content with element names must end in \")*\"",
                    ));
                }
                return Ok(ContentModel::Mixed(names));
            }
            if !self.eat(b'|') {
                return Err(Error::syntax(
                    self.pos(),
                    "expected \"|\" or \")\" in mixed content",
                ));
            }
            self.skip_ws();
            let at = self.pos();
            match self.name() {
                Some(n) => {
                    names.insert(n);
                }
                None => {
                    return Err(Error::syntax(at, "expected an element name after \"|\""));
                }
            }
        }
    }

    /// A parenthesized group: `( cp (sep cp)* )` with one separator kind.
    fn group(&mut self) -> Result<Particle> {
        let open_at = self.pos();
        if !self.eat(b'(') {
            return Err(Error::syntax(open_at, "expected \"(\""));
        }
        self.skip_ws();
        let first = self.cp()?;
        self.skip_ws();
        let mut items = vec![first];
        let mut sep: Option<u8> = None;
        loop {
            match self.peek() {
                Some(b')') => {
                    self.i += 1;
                    let rep = self.rep();
                    return Ok(match sep {
                        Some(b'|') => Particle::Choice(items, rep),
                        _ => Particle::Seq(items, rep),
                    });
                }
                Some(b @ (b'|' | b',')) => {
                    if sep.is_some_and(|s| s != b) {
                        return Err(Error::syntax(
                            self.pos(),
                            "a group mixes \",\" and \"|\" separators",
                        ));
                    }
                    sep = Some(b);
                    self.i += 1;
                    self.skip_ws();
                    items.push(self.cp()?);
                    self.skip_ws();
                }
                Some(_) => {
                    return Err(Error::syntax(
                        self.pos(),
                        "expected \",\", \"|\", or \")\" in a content group",
                    ));
                }
                None => {
                    return Err(Error::UnexpectedEof {
                        offset: open_at,
                        context: "content-model group",
                    });
                }
            }
        }
    }

    /// One content particle: a name or nested group, plus repetition.
    fn cp(&mut self) -> Result<Particle> {
        if self.peek() == Some(b'(') {
            return self.group();
        }
        let at = self.pos();
        if self.text[self.i..].starts_with("#PCDATA") {
            return Err(Error::syntax(
                at,
                "#PCDATA is only allowed first in a mixed-content group",
            ));
        }
        match self.name() {
            Some(n) => {
                let rep = self.rep();
                Ok(Particle::Name(n, rep))
            }
            None => Err(Error::syntax(at, "expected an element name or \"(\"")),
        }
    }
}

/// Extract and parse the internal DTD subset of a document's `DOCTYPE`
/// declaration, if any: `<!DOCTYPE name [ …subset… ]>`.
pub fn extract_from_document(input: &[u8]) -> Option<Dtd> {
    let start = input.windows(9).position(|w| w == b"<!DOCTYPE")?;
    // The tokenizer's own declaration scan finds the subset's end, so a
    // `]` inside a literal, comment or PI cannot cut the subset short.
    let body = &input[start + 2..];
    let mut scan = DeclScan::default();
    scan.feed(body)?;
    Dtd::parse(std::str::from_utf8(&body[scan.subset()?]).ok()?).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    const PUB_DTD: &str = r#"
        <!-- bibliography schema -->
        <!ELEMENT pub (year?, (book | pub)*)>
        <!ELEMENT book (name, author*, price*)>
        <!ELEMENT name (#PCDATA)>
        <!ELEMENT author (#PCDATA)>
        <!ELEMENT price (#PCDATA)>
        <!ELEMENT year (#PCDATA)>
        <!ATTLIST book id CDATA #IMPLIED>
    "#;

    #[test]
    fn parses_element_declarations() {
        let dtd = Dtd::parse(PUB_DTD).unwrap();
        let kids: Vec<&str> = dtd.children_of("pub").collect();
        assert_eq!(kids, ["book", "pub", "year"]);
        let kids: Vec<&str> = dtd.children_of("book").collect();
        assert_eq!(kids, ["author", "name", "price"]);
        assert!(dtd.declares("name"));
        assert_eq!(dtd.children_of("name").count(), 0);
    }

    #[test]
    fn keywords_are_not_children() {
        let dtd =
            Dtd::parse("<!ELEMENT a (#PCDATA | b)*> <!ELEMENT e EMPTY> <!ELEMENT x ANY>").unwrap();
        assert_eq!(dtd.children_of("a").collect::<Vec<_>>(), ["b"]);
        assert_eq!(dtd.children_of("e").count(), 0);
        assert_eq!(dtd.children_of("x").count(), 0);
        assert_eq!(dtd.model_of("e"), Some(&ContentModel::Empty));
        assert_eq!(dtd.model_of("x"), Some(&ContentModel::Any));
    }

    #[test]
    fn multiplicities_are_read_off_the_model() {
        let dtd = Dtd::parse(PUB_DTD).unwrap();
        // (year?, (book | pub)*): at most one year, unbounded books.
        assert_eq!(dtd.max_count("pub", "year"), Occurs::ONE);
        assert_eq!(dtd.max_count("pub", "book"), Occurs::Unbounded);
        assert_eq!(dtd.max_count("pub", "name"), Occurs::ZERO);
        // (name, author*, price*): exactly one name, required.
        assert_eq!(dtd.max_count("book", "name"), Occurs::ONE);
        assert_eq!(dtd.min_count("book", "name"), 1);
        assert_eq!(dtd.min_count("book", "author"), 0);
        assert_eq!(dtd.min_count("pub", "year"), 0);
        // #PCDATA leaves hold no element children.
        assert_eq!(dtd.max_child_elements("name"), Occurs::ZERO);
        assert_eq!(dtd.max_child_elements("pub"), Occurs::Unbounded);
    }

    #[test]
    fn nested_groups_with_repetition_parse() {
        let dtd = Dtd::parse(
            "<!ELEMENT r ((a, b?)+ , (c | (d, e))*, f)>\
             <!ELEMENT a EMPTY> <!ELEMENT b EMPTY> <!ELEMENT c EMPTY>\
             <!ELEMENT d EMPTY> <!ELEMENT e EMPTY> <!ELEMENT f EMPTY>",
        )
        .unwrap();
        assert_eq!(
            dtd.children_of("r").collect::<Vec<_>>(),
            ["a", "b", "c", "d", "e", "f"]
        );
        assert_eq!(dtd.max_count("r", "a"), Occurs::Unbounded); // inside +
        assert_eq!(dtd.max_count("r", "f"), Occurs::ONE);
        assert_eq!(dtd.min_count("r", "a"), 1); // (a, b?)+ guarantees one a
        assert_eq!(dtd.min_count("r", "b"), 0);
        assert_eq!(dtd.min_count("r", "f"), 1);
        assert_eq!(dtd.min_count("r", "d"), 0); // choice branch
    }

    #[test]
    fn choice_and_seq_multiplicities_compose() {
        let dtd = Dtd::parse("<!ELEMENT r (a, (a | b), a?)> <!ELEMENT a EMPTY> <!ELEMENT b EMPTY>")
            .unwrap();
        // a: 1 (seq) + 1 (choice branch) + 1 (opt) = 3.
        assert_eq!(dtd.max_count("r", "a"), Occurs::Bounded(3));
        assert_eq!(dtd.min_count("r", "a"), 1); // the choice may pick b
        assert_eq!(dtd.max_count("r", "b"), Occurs::ONE);
        assert_eq!(dtd.max_child_elements("r"), Occurs::Bounded(3));
    }

    #[test]
    fn mixed_content_edge_cases() {
        // Bare #PCDATA, with and without the redundant star.
        for decl in ["<!ELEMENT t (#PCDATA)>", "<!ELEMENT t (#PCDATA)*>"] {
            let dtd = Dtd::parse(decl).unwrap();
            assert_eq!(
                dtd.model_of("t"),
                Some(&ContentModel::Mixed(BTreeSet::new()))
            );
        }
        // Mixed with names requires the closing ")*".
        let err = Dtd::parse("<!ELEMENT t (#PCDATA | a)>").unwrap_err();
        assert!(err.to_string().contains(")*"), "{err}");
        // #PCDATA not first is an error with a position.
        assert!(Dtd::parse("<!ELEMENT t (a | #PCDATA)*>").is_err());
        // Whitespace inside the group is fine.
        let dtd = Dtd::parse("<!ELEMENT t ( #PCDATA | a | b )*>").unwrap();
        assert_eq!(dtd.children_of("t").collect::<Vec<_>>(), ["a", "b"]);
        assert_eq!(dtd.max_count("t", "a"), Occurs::Unbounded);
    }

    #[test]
    fn conditional_sections_include_and_ignore() {
        let dtd = Dtd::parse(
            "<![INCLUDE[ <!ELEMENT a (b)> ]]>\
             <![ IGNORE [ <!ELEMENT a (broken > ]]>\
             <!ELEMENT b (#PCDATA)>",
        )
        .unwrap();
        assert_eq!(dtd.children_of("a").collect::<Vec<_>>(), ["b"]);
        assert!(dtd.declares("b"));
        // Nested sections resolve to the matching close.
        let dtd = Dtd::parse("<![IGNORE[ <![INCLUDE[ <!ELEMENT x (y)> ]]> ]]> <!ELEMENT z EMPTY>")
            .unwrap();
        assert!(!dtd.declares("x"));
        assert!(dtd.declares("z"));
        // Unknown keyword and unterminated section are positioned errors.
        assert!(Dtd::parse("<![MAYBE[ <!ELEMENT a (b)> ]]>").is_err());
        assert!(Dtd::parse("<![INCLUDE[ <!ELEMENT a (b)>").is_err());
    }

    #[test]
    fn malformed_models_error_with_positions() {
        for bad in [
            "<!ELEMENT a (b,, c)>",
            "<!ELEMENT a (b | c, d)>",
            "<!ELEMENT a (b c)>",
            "<!ELEMENT a FOO>",
            "<!ELEMENT a>",
            "<!ELEMENT a (b) junk>",
            "<!ELEMENT (b)>",
        ] {
            let err = Dtd::parse(bad).unwrap_err();
            // Every rejection names a byte offset.
            assert!(err.to_string().contains("byte"), "{bad}: {err}");
        }
    }

    #[test]
    fn reachability_and_recursion() {
        let dtd = Dtd::parse(PUB_DTD).unwrap();
        let desc = dtd.descendants_of("pub");
        assert!(desc.contains("author") && desc.contains("pub"));
        assert!(dtd.is_recursive());

        let flat = Dtd::from_edges(&[("r", &["a", "b"]), ("a", &["c"])]);
        assert!(!flat.is_recursive());
        assert_eq!(
            flat.descendants_of("r"),
            ["a", "b", "c"].iter().map(|s| s.to_string()).collect()
        );
    }

    #[test]
    fn edge_built_dtds_are_conservative_about_counts() {
        let dtd = Dtd::from_edges(&[("r", &["a"]), ("a", &[])]);
        assert_eq!(dtd.max_count("r", "a"), Occurs::Unbounded);
        assert_eq!(dtd.min_count("r", "a"), 0);
        assert_eq!(dtd.max_count("undeclared", "a"), Occurs::Unbounded);
        assert_eq!(dtd.min_count("undeclared", "a"), 0);
    }

    #[test]
    fn deep_descendants_exclude_direct_only_children() {
        let dtd = Dtd::from_edges(&[("r", &["a"]), ("a", &["b"]), ("b", &[])]);
        // 'a' is a direct child of r and nothing deeper re-introduces it.
        let deep = dtd.deep_descendants_of("r");
        assert!(deep.contains("b"));
        assert!(!deep.contains("a"));
    }

    #[test]
    fn root_candidates_are_unparented_elements() {
        let dtd = Dtd::parse(PUB_DTD).unwrap();
        // pub occurs as its own child, so nothing is unparented except…
        assert!(dtd.root_candidates().is_empty());
        let flat = Dtd::from_edges(&[("r", &["a"]), ("a", &[])]);
        assert_eq!(flat.root_candidates().len(), 1);
        assert!(flat.root_candidates().contains("r"));
    }

    #[test]
    fn unterminated_declarations_error() {
        assert!(Dtd::parse("<!ELEMENT a (b").is_err());
        assert!(Dtd::parse("<!-- never closed").is_err());
    }

    #[test]
    fn occurs_arithmetic() {
        use Occurs::*;
        assert_eq!(Bounded(2).plus(Bounded(3)), Bounded(5));
        assert_eq!(Bounded(2).plus(Unbounded), Unbounded);
        assert_eq!(Bounded(2).times(Bounded(3)), Bounded(6));
        assert_eq!(Occurs::ZERO.times(Unbounded), Occurs::ZERO);
        assert_eq!(Unbounded.times(Bounded(2)), Unbounded);
        assert_eq!(Bounded(2).join(Bounded(3)), Bounded(3));
        assert_eq!(Bounded(u64::MAX).plus(Bounded(1)), Bounded(u64::MAX));
    }

    #[test]
    fn extracts_internal_subset_from_a_document() {
        let doc = br#"<?xml version="1.0"?>
            <!DOCTYPE r [
              <!ELEMENT r (a*)>
              <!ELEMENT a (#PCDATA)>
            ]>
            <r><a>x</a></r>"#;
        let dtd = extract_from_document(doc).expect("subset present");
        assert_eq!(dtd.children_of("r").collect::<Vec<_>>(), ["a"]);
        assert!(extract_from_document(b"<r/>").is_none());
        assert!(extract_from_document(b"<!DOCTYPE r SYSTEM \"x.dtd\"><r/>").is_none());
    }

    #[test]
    fn subset_end_skips_brackets_in_literals_comments_and_pis() {
        // The subset ends at the `]` the tokenizer's own scan finds, not
        // at the first `]` byte; a `[` in the system literal opens nothing.
        let doc = br#"<!DOCTYPE r SYSTEM "x[.dtd" [
              <!ELEMENT r (a*)>
              <!-- ] -->
              <?pi ]> ?>
              <!ATTLIST r v CDATA "]">
              <!ELEMENT a (#PCDATA)>
            ]><r/>"#;
        let dtd = extract_from_document(doc).expect("subset present");
        assert_eq!(dtd.children_of("r").collect::<Vec<_>>(), ["a"]);
        assert!(dtd.declares("a"));
        assert!(extract_from_document(b"<!DOCTYPE r [<!ELEMENT r EMPTY>").is_none());
    }
}
