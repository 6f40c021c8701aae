//! The one JSON-lines codec of the workspace.
//!
//! Everything this reproduction persists or serves is flat JSON, one
//! object per line: serve requests and response rows, the sweep result
//! cache, event traces, progress frames, and the entries of
//! `BENCH_*.json` artifacts. The workspace is dependency-free by design,
//! so there is no serde; this module holds the pieces those formats
//! share:
//!
//! - [`escape_json`] — the string escaper every writer uses;
//! - [`parse_flat_object`] / [`read_object_at`] — the strict flat-object
//!   reader: values are strings, numbers, booleans or null, and nested
//!   objects, arrays, duplicate keys and trailing garbage are errors;
//! - [`seal`] / [`open`] — checksummed-line framing: a sealed line ends
//!   in a `"c"` field holding a SplitMix64-folded checksum of the text
//!   before it, so a damaged file is detected line by line;
//! - [`walk_file`] — one reader for sealed files: validation, the
//!   stream checksum ([`fold`]) and torn-tail recovery;
//! - [`mix`] — the SplitMix64 output mixer, re-exported for crates that
//!   do not depend on `cdmm-trace`.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fs;
use std::iter::Peekable;
use std::path::Path;
use std::str::CharIndices;

pub use cdmm_trace::synth::mix;
use cdmm_trace::synth::GAMMA;

/// Escapes a string for embedding in a JSON value.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// One scalar JSON value the flat schema accepts.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar {
    /// A string, unescaped.
    Str(String),
    /// Numbers keep their raw text; fields parse them into the width
    /// they need.
    Num(String),
    /// `true` or `false`.
    Bool(bool),
    /// `null`.
    Null,
}

type Chars<'a> = Peekable<CharIndices<'a>>;

fn skip_ws(chars: &mut Chars<'_>) {
    while matches!(chars.peek(), Some((_, c)) if c.is_ascii_whitespace()) {
        chars.next();
    }
}

fn parse_string(chars: &mut Chars<'_>) -> Result<String, String> {
    match chars.next() {
        Some((_, '"')) => {}
        other => return Err(format!("expected string, found {other:?}")),
    }
    let mut out = String::new();
    loop {
        match chars.next() {
            None => return Err("unterminated string".into()),
            Some((_, '"')) => return Ok(out),
            Some((_, '\\')) => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, '/')) => out.push('/'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 't')) => out.push('\t'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, 'b')) => out.push('\u{8}'),
                Some((_, 'f')) => out.push('\u{c}'),
                Some((_, 'u')) => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        let d = chars
                            .next()
                            .and_then(|(_, c)| c.to_digit(16))
                            .ok_or("bad \\u escape")?;
                        code = code * 16 + d;
                    }
                    out.push(char::from_u32(code).ok_or("bad \\u codepoint")?);
                }
                other => return Err(format!("bad escape {other:?}")),
            },
            Some((_, c)) => out.push(c),
        }
    }
}

/// Reads one flat JSON object (`{"k":v,...}`) starting at byte `at` of
/// `text` (leading whitespace allowed), handing each field to `field`
/// in text order. Returns the byte offset just past the closing brace;
/// whatever follows is the caller's.
///
/// Nested values are rejected; duplicate keys are the caller's to
/// detect (`field` may return an error, which aborts the read).
pub fn read_object_at(
    text: &str,
    at: usize,
    mut field: impl FnMut(String, Scalar) -> Result<(), String>,
) -> Result<usize, String> {
    let rest = text.get(at..).ok_or("offset is not a character boundary")?;
    let mut chars = rest.char_indices().peekable();
    skip_ws(&mut chars);
    match chars.next() {
        Some((_, '{')) => {}
        _ => return Err("request is not a JSON object".into()),
    }
    skip_ws(&mut chars);
    if let Some((i, '}')) = chars.peek() {
        return Ok(at + i + 1);
    }
    loop {
        skip_ws(&mut chars);
        let key = parse_string(&mut chars).map_err(|e| format!("key: {e}"))?;
        skip_ws(&mut chars);
        match chars.next() {
            Some((_, ':')) => {}
            _ => return Err(format!("missing ':' after \"{key}\"")),
        }
        skip_ws(&mut chars);
        let value = match chars.peek() {
            Some((_, '"')) => Scalar::Str(parse_string(&mut chars)?),
            Some((_, '{')) | Some((_, '[')) => {
                return Err(format!("field \"{key}\": nested values are not supported"))
            }
            Some((start, _)) => {
                let start = *start;
                let mut end = rest.len();
                while let Some((i, c)) = chars.peek() {
                    if matches!(c, ',' | '}') || c.is_ascii_whitespace() {
                        end = *i;
                        break;
                    }
                    chars.next();
                }
                match &rest[start..end] {
                    "true" => Scalar::Bool(true),
                    "false" => Scalar::Bool(false),
                    "null" => Scalar::Null,
                    n if n.parse::<f64>().is_ok() => Scalar::Num(n.to_string()),
                    other => return Err(format!("field \"{key}\": bad value `{other}`")),
                }
            }
            None => return Err("truncated object".into()),
        };
        field(key, value)?;
        skip_ws(&mut chars);
        match chars.next() {
            Some((_, ',')) => continue,
            Some((i, '}')) => return Ok(at + i + 1),
            other => return Err(format!("expected ',' or '}}', found {other:?}")),
        }
    }
}

/// Scans one flat JSON object line into a field map. Rejects nesting,
/// duplicate keys, and trailing garbage.
pub fn parse_flat_object(line: &str) -> Result<BTreeMap<String, Scalar>, String> {
    let mut fields = BTreeMap::new();
    let end = read_object_at(line, 0, |key, value| match fields.entry(key) {
        Entry::Vacant(slot) => {
            slot.insert(value);
            Ok(())
        }
        Entry::Occupied(slot) => Err(format!("duplicate field \"{}\"", slot.key())),
    })?;
    if let Some(c) = line[end..].chars().find(|c| !c.is_ascii_whitespace()) {
        return Err(format!("trailing garbage `{c}` after object"));
    }
    Ok(fields)
}

/// A string field; absent and `null` read as `None`.
pub fn get_str(fields: &BTreeMap<String, Scalar>, key: &str) -> Result<Option<String>, String> {
    match fields.get(key) {
        None | Some(Scalar::Null) => Ok(None),
        Some(Scalar::Str(s)) => Ok(Some(s.clone())),
        Some(other) => Err(format!("field \"{key}\" must be a string, got {other:?}")),
    }
}

/// A non-negative integer field; absent and `null` read as `None`.
pub fn get_u64(fields: &BTreeMap<String, Scalar>, key: &str) -> Result<Option<u64>, String> {
    match fields.get(key) {
        None | Some(Scalar::Null) => Ok(None),
        Some(Scalar::Num(n)) => n
            .parse::<u64>()
            .map(Some)
            .map_err(|_| format!("field \"{key}\" must be a non-negative integer, got `{n}`")),
        Some(other) => Err(format!("field \"{key}\" must be a number, got {other:?}")),
    }
}

/// A boolean field; absent and `null` read as `None`.
pub fn get_bool(fields: &BTreeMap<String, Scalar>, key: &str) -> Result<Option<bool>, String> {
    match fields.get(key) {
        None | Some(Scalar::Null) => Ok(None),
        Some(Scalar::Bool(b)) => Ok(Some(*b)),
        Some(other) => Err(format!("field \"{key}\" must be a boolean, got {other:?}")),
    }
}

/// SplitMix64-folded checksum over a text's bytes and length.
fn checksum(text: &str) -> u64 {
    let mut h = mix(0x7ACE_0BE5_EED5_11E5);
    for chunk in text.as_bytes().chunks(8) {
        let mut buf = [0u8; 8];
        buf[..chunk.len()].copy_from_slice(chunk);
        h = mix(h ^ u64::from_le_bytes(buf).wrapping_mul(GAMMA));
    }
    mix(h ^ text.len() as u64)
}

/// The member that separates a sealed line's payload from its checksum.
const SEAL: &str = ",\"c\":\"";

/// Frames a payload — an object's text up to, not including, its
/// closing brace — as a checksummed line (no trailing newline): the
/// payload, then `,"c":"<16 hex digits>"}`.
pub fn seal(payload: &str) -> String {
    format!("{payload}{SEAL}{:016x}\"}}", checksum(payload))
}

/// Checks a line framed by [`seal`]; returns its payload when the
/// checksum matches, `None` for any damage.
pub fn open(line: &str) -> Option<&str> {
    let cut = line.rfind(SEAL)?;
    let hex = line[cut + SEAL.len()..].strip_suffix("\"}")?;
    if hex.len() != 16 || !hex.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
        return None;
    }
    let payload = &line[..cut];
    (u64::from_str_radix(hex, 16).ok()? == checksum(payload)).then_some(payload)
}

/// Folds one written line into a rolling stream checksum — a compact,
/// deterministic fingerprint of a whole file of lines.
pub fn fold(stream: u64, line: &str) -> u64 {
    mix(stream ^ checksum(line))
}

/// How [`walk_file`] treats a line its `accept` test rejects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Damage {
    /// Any damaged line is an error naming its line number; the string
    /// says what a line of the file is (`"trace line"`).
    Reject(&'static str),
    /// Damage is tolerated only as a torn tail — the suffix a crash
    /// mid-append leaves. A damaged line followed by a valid one is
    /// mid-file corruption, and an error: the reader must never
    /// silently resurrect a file whose interior rotted.
    TornTail,
}

/// What [`walk_file`] read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Walk {
    /// Lines `accept` took.
    pub valid: u64,
    /// Damaged lines after the last valid one (always 0 under
    /// [`Damage::Reject`]).
    pub torn: u64,
    /// [`fold`] over every valid line, in file order.
    pub stream: u64,
}

/// Reads a file of lines, testing each non-blank one with `accept`
/// (typically [`open`] plus a schema-prefix check) and treating damage
/// as `damage` says.
pub fn walk_file(
    path: &Path,
    accept: impl Fn(&str) -> bool,
    damage: Damage,
) -> Result<Walk, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut walk = Walk {
        valid: 0,
        torn: 0,
        stream: 0,
    };
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        if !accept(line) {
            if let Damage::Reject(what) = damage {
                return Err(format!(
                    "{}:{}: damaged {what}: {line}",
                    path.display(),
                    i + 1
                ));
            }
            walk.torn += 1;
        } else if walk.torn > 0 {
            return Err(format!(
                "{}:{}: valid line after {} damaged line(s): mid-file corruption",
                path.display(),
                i + 1,
                walk.torn
            ));
        } else {
            walk.valid += 1;
            walk.stream = fold(walk.stream, line);
        }
    }
    Ok(walk)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdmm_trace::synth::SplitMix64;

    /// Characters the escaper must get right: quotes, backslashes,
    /// every control character, and multi-byte text.
    const ALPHABET: &[char] = &[
        '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{8}', '\u{c}', '\u{1f}', '\u{7f}',
        ' ', 'a', 'Z', '0', '{', '}', '[', ']', ',', ':', 'é', 'ß', 'λ', '中', '😀',
    ];

    fn random_string(rng: &mut SplitMix64) -> String {
        let len = rng.below(24) as usize;
        (0..len)
            .map(|_| ALPHABET[rng.below(ALPHABET.len() as u64) as usize])
            .collect()
    }

    /// A random flat object payload (no closing brace).
    fn random_payload(rng: &mut SplitMix64) -> String {
        let mut payload = String::from("{\"v\":1");
        for i in 0..rng.below(6) {
            let key = format!("{}{i}", random_string(rng));
            let value = match rng.below(4) {
                0 => format!("\"{}\"", escape_json(&random_string(rng))),
                1 => rng.next_u64().to_string(),
                2 => (rng.below(2) == 1).to_string(),
                _ => "null".to_string(),
            };
            payload.push_str(&format!(",\"{}\":{value}", escape_json(&key)));
        }
        payload
    }

    #[test]
    fn escaped_strings_survive_the_reader() {
        let mut rng = SplitMix64::new(0x1E5C_A9E5);
        for _ in 0..2_000 {
            let s = random_string(&mut rng);
            let line = format!("{{\"s\":\"{}\"}}", escape_json(&s));
            assert!(!line.contains('\n'), "escaped text stays on one line");
            let fields = parse_flat_object(&line).expect(&line);
            assert_eq!(get_str(&fields, "s"), Ok(Some(s)), "{line}");
        }
    }

    #[test]
    fn every_byte_flip_of_a_sealed_line_is_caught() {
        let mut rng = SplitMix64::new(0x5EA1_F11B);
        for _ in 0..20 {
            let payload = random_payload(&mut rng);
            let line = seal(&payload);
            assert_eq!(open(&line), Some(payload.as_str()));
            let original = parse_flat_object(&line).expect(&line);
            let bytes = line.as_bytes();
            for pos in 0..bytes.len() {
                for mask in 1..=255u8 {
                    let mut flipped = bytes.to_vec();
                    flipped[pos] ^= mask;
                    // A change that breaks UTF-8 fails the read before
                    // the codec sees it.
                    let Ok(flipped) = String::from_utf8(flipped) else {
                        continue;
                    };
                    if open(&flipped).is_some() {
                        assert_eq!(
                            parse_flat_object(&flipped).as_ref(),
                            Ok(&original),
                            "byte {pos} ^ {mask:#x} of {line}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn seal_matches_the_event_line_framing() {
        let line = seal("{\"v\":1,\"at\":0,\"ev\":\"degraded\"");
        assert!(line.starts_with("{\"v\":1,\"at\":0,\"ev\":\"degraded\",\"c\":\""));
        assert!(line.ends_with("\"}"));
        assert_eq!(open("{\"v\":1,\"c\":\"zz\"}"), None);
        let upper = line.to_uppercase();
        assert_eq!(open(&upper), None, "only lowercase hex is a seal");
    }

    #[test]
    fn read_object_at_starts_mid_text_and_reports_the_end() {
        let text = "[ {\"id\": \"a\", \"n\": 1.5}, {\"id\": \"b\"} ]";
        let mut seen = Vec::new();
        let end = read_object_at(text, 1, |k, v| {
            seen.push((k, v));
            Ok(())
        })
        .expect("first object");
        assert_eq!(&text[end..end + 1], ",");
        assert_eq!(
            seen,
            vec![
                ("id".to_string(), Scalar::Str("a".into())),
                ("n".to_string(), Scalar::Num("1.5".into())),
            ]
        );
        let end = read_object_at(text, end + 1, |_, _| Ok(())).expect("second object");
        assert_eq!(text[end..].trim(), "]");
    }

    #[test]
    fn malformed_objects_are_rejected() {
        for (line, needle) in [
            ("not json", "not a JSON object"),
            (r#"{"id":"x","nested":{"a":1}}"#, "nested"),
            (r#"{"id":"x","list":[1]}"#, "nested"),
            (r#"{"id":"x","id":"y"}"#, "duplicate"),
            (r#"{"id":"x"} extra"#, "trailing"),
            (r#"{"id":"x","n":12abc}"#, "bad value"),
            (r#"{"id":"x""#, "expected ','"),
            (r#"{"id":"x\q"}"#, "bad escape"),
            (r#"{"id":"unterminated}"#, "unterminated"),
        ] {
            let err = parse_flat_object(line).expect_err(line);
            assert!(
                err.contains(needle),
                "`{line}` → `{err}` (wanted `{needle}`)"
            );
        }
    }

    #[test]
    fn typed_getters_check_the_scalar_kind() {
        let f = parse_flat_object(r#"{"s":"x","n":7,"b":true,"z":null,"neg":-4}"#).expect("parses");
        assert_eq!(get_str(&f, "s"), Ok(Some("x".into())));
        assert_eq!(get_u64(&f, "n"), Ok(Some(7)));
        assert_eq!(get_bool(&f, "b"), Ok(Some(true)));
        assert_eq!(get_str(&f, "z"), Ok(None));
        assert_eq!(get_u64(&f, "missing"), Ok(None));
        assert!(get_u64(&f, "neg").unwrap_err().contains("non-negative"));
        assert!(get_str(&f, "n").unwrap_err().contains("must be a string"));
        assert!(get_bool(&f, "s").unwrap_err().contains("must be a boolean"));
    }

    #[test]
    fn walker_validates_folds_and_recovers_a_torn_tail() {
        let dir = std::env::temp_dir().join(format!("cdmm-jsonl-walk-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("lines.jsonl");
        let lines: Vec<String> = (0..3)
            .map(|i| seal(&format!("{{\"v\":1,\"i\":{i}")))
            .collect();
        let stream = lines.iter().fold(0, |s, l| fold(s, l));
        let valid = |l: &str| open(l).is_some();

        fs::write(&path, format!("{}\n\n", lines.join("\n"))).expect("write");
        let walk = walk_file(&path, valid, Damage::Reject("line")).expect("clean file");
        assert_eq!((walk.valid, walk.torn, walk.stream), (3, 0, stream));

        let torn = &lines[2][..lines[2].len() / 2];
        fs::write(&path, format!("{}\n{}\n{torn}", lines[0], lines[1])).expect("write");
        let err = walk_file(&path, valid, Damage::Reject("line")).expect_err("strict");
        assert!(err.contains(":3: damaged line"), "{err}");
        let walk = walk_file(&path, valid, Damage::TornTail).expect("torn tail");
        assert_eq!((walk.valid, walk.torn), (2, 1));

        fs::write(&path, format!("{}\n{torn}\n{}", lines[0], lines[2])).expect("write");
        let err = walk_file(&path, valid, Damage::TornTail).expect_err("interior rot");
        assert!(err.contains("mid-file corruption"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }
}
