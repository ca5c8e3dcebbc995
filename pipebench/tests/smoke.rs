//! Tiny-scale smoke of every workload in `BENCHMARK.json`: each run
//! finishes in seconds, its outputs match the oracles, and its result
//! line carries exactly the metrics `BENCHMARK.json` names, each with
//! its declared unit.
//!
//! Run with `cargo test --release --manifest-path pipebench/Cargo.toml`.

use std::collections::BTreeMap;
use std::process::Command;

/// A minimal JSON value, enough for `BENCHMARK.json` and result lines.
#[derive(Debug, Clone)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("{key}: not an object: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected {} at {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key is not a string")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k}");
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b'}' => return Json::Obj(m),
                        c => panic!("unexpected {} in object", c as char),
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(a);
                }
                loop {
                    a.push(self.value());
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b']' => return Json::Arr(a),
                        c => panic!("unexpected {} in array", c as char),
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "escapes are not expected here");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).unwrap())
            }
            b't' | b'f' | b'n' => {
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return v;
                    }
                }
                panic!("bad literal at {}", self.i)
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
            }
        }
    }
}

fn parse(text: &str) -> Json {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, text.len(), "trailing bytes after JSON value");
    v
}

fn benchmark() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

/// Run one tiny workload and check its result line against the
/// metric list of `section` (`end_to_end` or `per_layer`).
fn check(workload: &str, trace: u8, section: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_pipebench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--tiny",
        ])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("pipebench runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let result = parse(stdout.lines().last().expect("a result line"));
    assert!(
        matches!(result.get("correct"), Json::Bool(true)),
        "{workload}: outputs differ from the oracle"
    );
    assert!(result.get("attempted").num() >= 1.0);
    assert_eq!(result.get("failed").num(), 0.0);
    let Json::Obj(metrics) = result.get("metrics") else {
        panic!("metrics is not an object")
    };
    let spec = benchmark();
    let names: Vec<&str> = spec
        .get(section)
        .arr()
        .iter()
        .map(|m| m.get("name").str())
        .collect();
    for m in spec.get(section).arr() {
        let name = m.get("name").str();
        let got = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: {name} not printed"));
        assert_eq!(
            got.get("unit").str(),
            m.get("unit").str(),
            "{workload}: unit of {name}"
        );
        assert!(
            got.get("value").num().is_finite(),
            "{workload}: {name} is not a number"
        );
        assert!(
            stdout.contains(name),
            "{workload}: {name} missing from the table"
        );
    }
    for name in metrics.keys() {
        assert!(
            names.contains(&name.as_str()),
            "{workload}: {name} is not in BENCHMARK.json {section}"
        );
    }
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let spec = benchmark();
    let workloads: Vec<String> = spec
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str().to_string())
        .collect();
    assert_eq!(
        workloads,
        ["inproc-recursive", "serve-filter", "serve-recursive"]
    );
    for w in &workloads {
        check(w, 0, "end_to_end");
        check(w, 1, "per_layer");
    }
}

#[test]
fn setup_s_is_declared_as_the_contract_requires() {
    let spec = benchmark();
    let setup = spec
        .get("end_to_end")
        .arr()
        .iter()
        .find(|m| m.get("name").str() == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!(setup.get("unit").str(), "s");
    assert_eq!(setup.get("better").str(), "lower");
    let bound = setup.get("bound").num();
    for m in spec.get("end_to_end").arr() {
        assert!(
            m.get("bound").num() <= bound,
            "setup_s must carry the largest bound"
        );
        assert!(m.get("bound").num() <= 0.25);
    }
}

#[test]
fn a_bad_argument_exits_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_pipebench"))
        .args(["--workload", "no-such-workload"])
        .output()
        .expect("pipebench runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
