//! The JSONL wire protocol of the `qc-serve` front-end.
//!
//! One request per line, one response per line. The vendored `serde` is a
//! minimal stand-in without generic deserialization, so this module
//! hand-rolls the tiny subset of JSON the protocol needs: *flat* objects
//! of string/number/bool values on the way in, and fully escaped objects
//! (with string arrays) on the way out. A malformed line never panics —
//! it decodes to a typed [`RpoError::InvalidInput`] that the front-end
//! turns into an error response.
//!
//! Request fields:
//!
//! ```text
//! {"id": "r1", "qasm": "OPENQASM 2.0; ...", "backend": "melbourne",
//!  "flow": "rpo" | "preset", "level": 3, "seed": 7, "deadline_ms": 500}
//! {"op": "drain"}      — stop admission, finish in-flight, report, exit
//! {"op": "metrics"}    — counters snapshot without stopping
//! ```
//!
//! Circuits travel as OpenQASM 2.0 (the workspace's canonical text
//! format); backends by name: `melbourne`, `almaden`, `rochester`,
//! `linear:<n>`, `full:<n>`.

use crate::service::{DrainReport, MetricsSnapshot, ServeFlow, ServeRequest, ServeResponse};
use qc_backends::Backend;
use qc_circuit::qasm::from_qasm;
use qc_circuit::RpoError;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Duration;

/// A scalar JSON value, as far as the request protocol needs.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// A string literal (escapes resolved).
    Str(String),
    /// Any JSON number.
    Num(f64),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
}

impl JsonValue {
    /// The string payload, if this is a [`JsonValue::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an exact non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }
}

fn bad(msg: impl Into<String>) -> RpoError {
    RpoError::InvalidInput(msg.into())
}

/// Parses one flat JSON object (string/number/bool/null values only).
pub fn parse_flat_object(line: &str) -> Result<HashMap<String, JsonValue>, RpoError> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.expect(b'{')?;
    let mut map = HashMap::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        let _ = p.next();
        return Ok(map);
    }
    loop {
        p.skip_ws();
        let key = p.string()?;
        p.skip_ws();
        p.expect(b':')?;
        p.skip_ws();
        let value = p.value()?;
        map.insert(key, value);
        p.skip_ws();
        match p.next() {
            Some(b',') => continue,
            Some(b'}') => break,
            _ => return Err(bad("expected ',' or '}' in request object")),
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(bad("trailing bytes after request object"));
    }
    Ok(map)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), RpoError> {
        if self.next() == Some(want) {
            Ok(())
        } else {
            Err(bad(format!("expected '{}'", want as char)))
        }
    }

    fn string(&mut self) -> Result<String, RpoError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next() {
                None => return Err(bad("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.next() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .next()
                                .and_then(|b| (b as char).to_digit(16))
                                .ok_or_else(|| bad("bad \\u escape"))?;
                            code = code * 16 + d;
                        }
                        // Surrogate pairs are not needed by this protocol;
                        // unpaired surrogates map to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(bad("bad escape in string")),
                },
                Some(b) if b < 0x20 => return Err(bad("control byte in string")),
                Some(b) => {
                    // Re-assemble UTF-8 multibyte sequences byte-for-byte:
                    // the input is a &str, so the bytes are valid UTF-8.
                    let start = self.pos - 1;
                    let len = match b {
                        _ if b < 0x80 => 1,
                        _ if b >> 5 == 0b110 => 2,
                        _ if b >> 4 == 0b1110 => 3,
                        _ => 4,
                    };
                    self.pos = start + len;
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| bad("invalid UTF-8 in string"))?,
                    );
                }
            }
        }
    }

    fn value(&mut self) -> Result<JsonValue, RpoError> {
        match self.peek() {
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => {
                let start = self.pos;
                while matches!(
                    self.peek(),
                    Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                ) {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .filter(|n| n.is_finite())
                    .map(JsonValue::Num)
                    .ok_or_else(|| bad("malformed number"))
            }
            _ => Err(bad("expected a scalar JSON value")),
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, RpoError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(bad(format!("expected '{word}'")))
        }
    }
}

/// Escapes `s` as the inside of a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn string_array(items: impl IntoIterator<Item = String>) -> String {
    let inner: Vec<String> = items
        .into_iter()
        .map(|s| format!("\"{}\"", escape_json(&s)))
        .collect();
    format!("[{}]", inner.join(","))
}

/// One decoded input line.
#[derive(Debug)]
pub enum WireMsg {
    /// A transpile request.
    Request(ServeRequest),
    /// `{"op": "drain"}`.
    Drain,
    /// `{"op": "metrics"}`.
    Metrics,
    /// `{"op": "breakers"}` reports the local open-breaker labels;
    /// `{"op": "breakers", "open": "A,B"}` first force-opens the named
    /// breakers (the gossip push), then reports. The label list is a
    /// comma-joined string because request objects are flat — the parser
    /// accepts no arrays on the way in.
    Breakers {
        /// Comma-joined labels to force-open before reporting, if any.
        open: Option<String>,
    },
    /// `{"op": "entry", "key": "<32 hex>"}` — fetch the framed cache
    /// record for a key (the router's replication read). Keys travel as
    /// hex strings: they are 128-bit and would not survive the f64
    /// number path.
    Entry {
        /// The content cache key.
        key: u128,
    },
    /// `{"op": "replicate", "record": "<hex>"}` — admit a framed cache
    /// record pushed from a peer shard (the router's replication write).
    Replicate {
        /// The framed record bytes ([`crate::persist::encode_record`]).
        record: Vec<u8>,
    },
}

/// Lower-hex encoding (the wire form of record bytes).
pub fn encode_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        let _ = write!(out, "{b:02x}");
    }
    out
}

/// Decodes lower/upper hex back to bytes.
pub fn decode_hex(s: &str) -> Result<Vec<u8>, RpoError> {
    let bytes = s.as_bytes();
    if !bytes.len().is_multiple_of(2) {
        return Err(bad("odd-length hex string"));
    }
    let digit = |b: u8| (b as char).to_digit(16).ok_or_else(|| bad("bad hex digit"));
    let mut out = Vec::with_capacity(bytes.len() / 2);
    for pair in bytes.chunks_exact(2) {
        out.push((digit(pair[0])? * 16 + digit(pair[1])?) as u8);
    }
    Ok(out)
}

/// Resolves a backend name (`melbourne`, `almaden`, `rochester`,
/// `linear:<n>`, `full:<n>`).
pub fn resolve_backend(name: &str) -> Result<Backend, RpoError> {
    match name {
        "melbourne" => Ok(Backend::melbourne()),
        "almaden" => Ok(Backend::almaden()),
        "rochester" => Ok(Backend::rochester()),
        _ => {
            let parse_n = |spec: &str| {
                spec.parse::<usize>()
                    .ok()
                    .filter(|n| (1..=64).contains(n))
                    .ok_or_else(|| bad(format!("bad backend qubit count in '{name}'")))
            };
            if let Some(n) = name.strip_prefix("linear:") {
                Ok(Backend::linear(parse_n(n)?))
            } else if let Some(n) = name.strip_prefix("full:") {
                Ok(Backend::fully_connected(parse_n(n)?))
            } else {
                Err(bad(format!("unknown backend '{name}'")))
            }
        }
    }
}

/// Decodes one request line. Never panics; malformed input becomes
/// [`RpoError::InvalidInput`].
pub fn decode_line(line: &str) -> Result<WireMsg, RpoError> {
    let map = parse_flat_object(line)?;
    if let Some(op) = map.get("op").and_then(JsonValue::as_str) {
        return match op {
            "drain" => Ok(WireMsg::Drain),
            "metrics" => Ok(WireMsg::Metrics),
            "breakers" => Ok(WireMsg::Breakers {
                open: map
                    .get("open")
                    .and_then(JsonValue::as_str)
                    .map(str::to_string),
            }),
            "entry" => {
                let key = map
                    .get("key")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| bad("missing 'key' field"))?;
                let key = u128::from_str_radix(key.trim_start_matches("0x"), 16)
                    .map_err(|_| bad("bad 'key' hex"))?;
                Ok(WireMsg::Entry { key })
            }
            "replicate" => {
                let record = map
                    .get("record")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| bad("missing 'record' field"))?;
                Ok(WireMsg::Replicate {
                    record: decode_hex(record)?,
                })
            }
            other => Err(bad(format!("unknown op '{other}'"))),
        };
    }
    let id = map
        .get("id")
        .and_then(JsonValue::as_str)
        .unwrap_or("")
        .to_string();
    let qasm = map
        .get("qasm")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| bad("missing 'qasm' field"))?;
    let circuit = from_qasm(qasm).map_err(|e| bad(format!("qasm parse failed: {e:?}")))?;
    let backend = resolve_backend(
        map.get("backend")
            .and_then(JsonValue::as_str)
            .unwrap_or("melbourne"),
    )?;
    let level = map
        .get("level")
        .map(|v| v.as_u64().ok_or_else(|| bad("bad 'level'")))
        .transpose()?
        .unwrap_or(3)
        .min(3) as u8;
    let flow = match map.get("flow").and_then(JsonValue::as_str).unwrap_or("rpo") {
        "rpo" => ServeFlow::Rpo,
        "preset" => ServeFlow::Preset { level },
        other => return Err(bad(format!("unknown flow '{other}'"))),
    };
    let seed = map
        .get("seed")
        .map(|v| v.as_u64().ok_or_else(|| bad("bad 'seed'")))
        .transpose()?
        .unwrap_or(0);
    let deadline = map
        .get("deadline_ms")
        .map(|v| v.as_u64().ok_or_else(|| bad("bad 'deadline_ms'")))
        .transpose()?
        .map(Duration::from_millis);
    Ok(WireMsg::Request(ServeRequest {
        id,
        circuit,
        backend,
        flow,
        seed,
        deadline,
    }))
}

/// The wire tag for an error variant.
pub fn error_kind(e: &RpoError) -> &'static str {
    match e {
        RpoError::InvalidInput(_) => "invalid_input",
        RpoError::PassFailed { .. } => "pass_failed",
        RpoError::BudgetExceeded { .. } => "budget_exceeded",
        RpoError::Numeric { .. } => "numeric",
        RpoError::Overloaded { .. } => "overloaded",
        RpoError::Shed { .. } => "shed",
        RpoError::Internal(_) => "internal",
    }
}

/// Encodes a response as one JSON line (no trailing newline).
pub fn encode_response(resp: &ServeResponse) -> String {
    match &resp.result {
        Ok(ok) => {
            let quarantined =
                string_array(ok.degradation.quarantined.iter().map(|q| q.pass.clone()));
            let budget_hits = string_array(
                ok.degradation
                    .budget_hits
                    .iter()
                    .map(|h| h.kind.to_string()),
            );
            let final_map: Vec<String> = ok.final_map.iter().map(|q| q.to_string()).collect();
            format!(
                concat!(
                    "{{\"id\":\"{id}\",\"status\":\"ok\",\"cache\":\"{cache}\",",
                    "\"retries\":{retries},\"retried_after\":{retried},",
                    "\"breaker_disabled\":{breaker},\"degraded\":{degraded},",
                    "\"quarantined\":{quarantined},\"budget_hits\":{budget_hits},",
                    "\"predisabled\":{predisabled},\"verified\":{verified},",
                    "\"compile_ns\":{compile_ns},\"total_ns\":{total_ns},",
                    "\"final_map\":[{final_map}],\"qasm\":\"{qasm}\"}}"
                ),
                id = escape_json(&resp.id),
                cache = ok.cache.as_str(),
                retries = ok.retries,
                retried = string_array(ok.retried_after.iter().cloned()),
                breaker = string_array(ok.breaker_disabled.iter().cloned()),
                degraded = !ok.degradation.is_clean(),
                quarantined = quarantined,
                budget_hits = budget_hits,
                predisabled = string_array(ok.degradation.predisabled.iter().cloned()),
                verified = ok.verified,
                compile_ns = ok.compile_nanos,
                total_ns = ok.total_nanos,
                final_map = final_map.join(","),
                qasm = escape_json(&ok.qasm),
            )
        }
        Err(e) => format!(
            "{{\"id\":\"{}\",\"status\":\"error\",\"kind\":\"{}\",\"message\":\"{}\"}}",
            escape_json(&resp.id),
            error_kind(e),
            escape_json(&e.to_string()),
        ),
    }
}

/// Encodes a metrics snapshot as one JSON line.
pub fn encode_metrics(m: &MetricsSnapshot) -> String {
    format!(
        concat!(
            "{{\"status\":\"metrics\",\"served_ok\":{},\"served_err\":{},",
            "\"compiles\":{},\"cache_warm\":{},\"coalesced\":{},",
            "\"shed_overloaded\":{},\"shed_drain\":{},\"shed_deadline\":{},",
            "\"retries\":{},\"degraded\":{},\"integrity_checks\":{},",
            "\"integrity_failures\":{},\"handler_panics\":{},\"breaker_trips\":{},",
            "\"persist_appends\":{},\"persist_errors\":{},\"persist_restored\":{},",
            "\"replicated_entries\":{},\"compactions\":{},\"replay_entries\":{}}}"
        ),
        m.served_ok,
        m.served_err,
        m.compiles,
        m.cache_warm,
        m.coalesced,
        m.shed_overloaded,
        m.shed_drain,
        m.shed_deadline,
        m.retries,
        m.degraded,
        m.integrity_checks,
        m.integrity_failures,
        m.handler_panics,
        m.breaker_trips,
        m.persist_appends,
        m.persist_errors,
        m.persist_restored,
        m.replicated_entries,
        m.compactions,
        m.replay_entries,
    )
}

/// Encodes the reply to `{"op":"entry"}`: the framed record as hex when
/// the key is cached, `found:false` otherwise.
pub fn encode_entry_response(record: Option<&[u8]>) -> String {
    match record {
        Some(bytes) => format!(
            "{{\"status\":\"entry\",\"found\":true,\"record\":\"{}\"}}",
            encode_hex(bytes)
        ),
        None => "{\"status\":\"entry\",\"found\":false,\"record\":\"\"}".to_string(),
    }
}

/// Encodes an `{"op":"entry"}` request line for `key`.
pub fn encode_entry_request(key: u128) -> String {
    format!("{{\"op\":\"entry\",\"key\":\"{key:032x}\"}}")
}

/// Encodes an `{"op":"replicate"}` push line carrying a framed record.
pub fn encode_replicate_request(record: &[u8]) -> String {
    format!(
        "{{\"op\":\"replicate\",\"record\":\"{}\"}}",
        encode_hex(record)
    )
}

/// Encodes the reply to `{"op":"replicate"}` — whether the record was
/// newly admitted (`false` = already cached, still a success).
pub fn encode_replicate_response(admitted: bool) -> String {
    format!("{{\"status\":\"replicated\",\"admitted\":{admitted}}}")
}

/// Encodes a breaker-state report as one JSON line. The `open` field is
/// the comma-joined open/half-open labels — the same flat shape the
/// gossip push request uses, so a router can feed one shard's report
/// straight into another shard's request.
pub fn encode_breakers<S: AsRef<str>>(open: &[S]) -> String {
    let joined: Vec<&str> = open.iter().map(AsRef::as_ref).collect();
    format!(
        "{{\"status\":\"breakers\",\"open\":\"{}\"}}",
        escape_json(&joined.join(","))
    )
}

/// Encodes the drain report as one JSON line.
pub fn encode_drain_report(r: &DrainReport) -> String {
    let breakers = string_array(
        r.breakers
            .iter()
            .map(|(label, trips)| format!("{label}:{trips}")),
    );
    let quarantines: usize = r.passes.iter().map(|(_, t)| t.quarantined).sum();
    format!(
        "{{\"status\":\"drained\",\"metrics\":{},\"pass_quarantines\":{},\"open_breakers\":{}}}",
        encode_metrics(&r.metrics),
        quarantines,
        breakers,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_circuit::Circuit;

    #[test]
    fn parses_a_request_line() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        let qasm = qc_circuit::qasm::to_qasm(&c).unwrap();
        let line = format!(
            "{{\"id\": \"r1\", \"qasm\": \"{}\", \"backend\": \"linear:4\", \"flow\": \"preset\", \"level\": 2, \"seed\": 9, \"deadline_ms\": 250}}",
            escape_json(&qasm)
        );
        let WireMsg::Request(req) = decode_line(&line).unwrap() else {
            panic!("expected request");
        };
        assert_eq!(req.id, "r1");
        assert_eq!(req.circuit.num_qubits(), 2);
        assert_eq!(req.backend.name(), "linear_4");
        assert_eq!(req.flow, ServeFlow::Preset { level: 2 });
        assert_eq!(req.seed, 9);
        assert_eq!(req.deadline, Some(Duration::from_millis(250)));
    }

    #[test]
    fn ops_decode() {
        assert!(matches!(
            decode_line("{\"op\": \"drain\"}").unwrap(),
            WireMsg::Drain
        ));
        assert!(matches!(
            decode_line("{\"op\": \"metrics\"}").unwrap(),
            WireMsg::Metrics
        ));
        assert!(matches!(
            decode_line("{\"op\": \"breakers\"}").unwrap(),
            WireMsg::Breakers { open: None }
        ));
        let WireMsg::Breakers { open: Some(open) } =
            decode_line("{\"op\": \"breakers\", \"open\": \"A,B\"}").unwrap()
        else {
            panic!("expected a gossip push");
        };
        assert_eq!(open, "A,B");
    }

    #[test]
    fn breaker_report_feeds_back_into_the_parser() {
        let line = encode_breakers(&["Optimize1qGates", "QPO"]);
        let map = parse_flat_object(&line).unwrap();
        assert_eq!(map.get("status").unwrap().as_str().unwrap(), "breakers");
        assert_eq!(
            map.get("open").unwrap().as_str().unwrap(),
            "Optimize1qGates,QPO"
        );
        assert_eq!(
            encode_breakers::<&str>(&[]),
            "{\"status\":\"breakers\",\"open\":\"\"}"
        );
    }

    #[test]
    fn replication_ops_round_trip() {
        let key = 0xdead_beef_0123_4567_89ab_cdef_0011_2233u128;
        let WireMsg::Entry { key: back } = decode_line(&encode_entry_request(key)).unwrap() else {
            panic!("expected entry op");
        };
        assert_eq!(back, key);

        let record: Vec<u8> = (0..=255u8).collect();
        let WireMsg::Replicate { record: back } =
            decode_line(&encode_replicate_request(&record)).unwrap()
        else {
            panic!("expected replicate op");
        };
        assert_eq!(back, record);

        let resp = encode_entry_response(Some(&record));
        let map = parse_flat_object(&resp).unwrap();
        assert_eq!(map.get("status").unwrap().as_str().unwrap(), "entry");
        assert_eq!(
            decode_hex(map.get("record").unwrap().as_str().unwrap()).unwrap(),
            record
        );
        assert!(encode_entry_response(None).contains("\"found\":false"));
        assert!(encode_replicate_response(true).contains("\"admitted\":true"));
    }

    #[test]
    fn bad_replication_lines_are_typed_errors() {
        for line in [
            "{\"op\": \"entry\"}",
            "{\"op\": \"entry\", \"key\": \"zz\"}",
            "{\"op\": \"entry\", \"key\": 12}",
            "{\"op\": \"replicate\"}",
            "{\"op\": \"replicate\", \"record\": \"abc\"}",
            "{\"op\": \"replicate\", \"record\": \"xy\"}",
        ] {
            match decode_line(line) {
                Err(RpoError::InvalidInput(_)) => {}
                other => panic!("line {line:?} decoded to {other:?}"),
            }
        }
    }

    #[test]
    fn malformed_lines_become_typed_errors() {
        for line in [
            "",
            "not json",
            "{",
            "{\"qasm\": 3}",
            "{\"id\": \"x\"}",
            "{\"qasm\": \"garbage\"}",
            "{\"qasm\": \"OPENQASM 2.0;\", \"backend\": \"nosuch\"}",
            "{\"op\": \"reboot\"}",
            "{\"qasm\": \"x\", \"deadline_ms\": -5}",
        ] {
            match decode_line(line) {
                Err(RpoError::InvalidInput(_)) => {}
                other => panic!("line {line:?} decoded to {other:?}"),
            }
        }
    }

    #[test]
    fn escaping_round_trips() {
        let nasty = "a\"b\\c\nd\te\r\u{1}é";
        let line = format!("{{\"id\": \"{}\", \"op\": \"drain\"}}", escape_json(nasty));
        // Object with both id and op: op wins, but the string must parse.
        let map = parse_flat_object(&line).unwrap();
        assert_eq!(map.get("id").unwrap().as_str().unwrap(), nasty);
    }
}
