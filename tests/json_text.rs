//! Property tests for the JSON text the protocol reads (`cq-serve`
//! request lines, `cq-trace` NDJSON, `cq-cluster` responses).
//!
//! `Json::parse` is a hand-written recursive-descent parser, so two
//! things must hold on any input:
//!
//! - **it never panics**: not on arbitrary bytes (read lossily as UTF-8),
//!   not on any truncation of a valid document, and not on nesting past
//!   its depth limit of 128 levels, which must be an error rather than a
//!   stack overflow;
//! - **`parse ∘ render` is the identity** on generated values: every
//!   variant, integers over the whole `i64` range and above it up to
//!   `u64::MAX` (`Json::Uint`), non-integral finite
//!   floats, strings with quotes, backslashes, control characters and
//!   astral-plane characters, nested arrays and objects with repeated
//!   keys. (A float with an integral value renders as an integer and a
//!   non-finite one as `null`; `render_edges_are_documented` pins both.)

use cqbounds::engine::Json;
use proptest::prelude::*;

/// The nesting the parser accepts (`MAX_PARSE_DEPTH` in `json.rs`).
const MAX_DEPTH: usize = 128;

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 ^ (self.0 >> 29)
    }

    fn below(&mut self, n: usize) -> usize {
        ((self.next() >> 16) % n as u64) as usize
    }
}

const CHARS: [char; 14] = [
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\u{1}', '\u{1f}', 'é', '→', '😀',
];

fn string(rng: &mut Lcg) -> String {
    (0..rng.below(8))
        .map(|_| {
            if rng.below(4) == 0 {
                // Any scalar value of the basic plane but the surrogates.
                char::from_u32(rng.below(0xd800) as u32).unwrap()
            } else {
                CHARS[rng.below(CHARS.len())]
            }
        })
        .collect()
}

/// A random value at most `depth` levels deep.
fn value(rng: &mut Lcg, depth: usize) -> Json {
    let kinds = if depth == 0 { 6 } else { 8 };
    match rng.below(kinds) {
        0 => Json::Null,
        1 => Json::Bool(rng.below(2) == 1),
        2 => Json::Int(rng.next() as i64 >> rng.below(64)),
        3 => {
            let x = f64::from_bits(rng.next());
            let x = if x.is_finite() && x.fract() != 0.0 {
                x
            } else {
                (rng.below(1000) as f64 + 0.5) / 8.0
            };
            Json::Float(x)
        }
        4 => Json::Str(string(rng)),
        5 => Json::Uint(rng.next() | 1 << 63),
        6 => Json::Arr((0..rng.below(4)).map(|_| value(rng, depth - 1)).collect()),
        _ => Json::Obj(
            (0..rng.below(4))
                .map(|_| {
                    let key = if rng.below(3) == 0 {
                        "k".to_owned()
                    } else {
                        string(rng)
                    };
                    (key, value(rng, depth - 1))
                })
                .collect(),
        ),
    }
}

/// `depth` nested arrays and objects around `null`.
fn nested(depth: usize, seed: u64) -> String {
    let mut rng = Lcg(seed);
    let mut open = String::new();
    let mut close = String::new();
    for _ in 0..depth {
        if rng.below(2) == 0 {
            open.push('[');
            close.insert(0, ']');
        } else {
            open.push_str("{\"k\":");
            close.insert(0, '}');
        }
    }
    open + "null" + &close
}

proptest! {
    /// Generated values render to text that parses back to them.
    #[test]
    fn parse_inverts_render(seed in any::<u64>()) {
        let v = value(&mut Lcg(seed), 4);
        let text = v.render();
        let back = Json::parse(&text);
        prop_assert!(back.as_ref() == Ok(&v), "{:?} from {}", back, text);
    }

    /// Arbitrary bytes, read as the lossy UTF-8 a reader would pass on,
    /// never panic the parser.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = Json::parse(&String::from_utf8_lossy(&bytes));
    }

    /// Arbitrary text, and arbitrary text after a valid prefix, never
    /// panic the parser.
    #[test]
    fn arbitrary_text_never_panics(seed in any::<u64>(), text in ".{0,120}") {
        let _ = Json::parse(&text);
        let prefix = value(&mut Lcg(seed), 3).render();
        let _ = Json::parse(&(prefix + &text));
    }

    /// Every truncation of a valid document parses or fails cleanly; a
    /// truncated array, object or string is an error.
    #[test]
    fn truncations_never_panic(seed in any::<u64>()) {
        let v = value(&mut Lcg(seed), 4);
        let text = v.render();
        for end in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
            let cut = Json::parse(&text[..end]);
            if matches!(v, Json::Arr(_) | Json::Obj(_) | Json::Str(_)) {
                prop_assert!(cut.is_err(), "{:?} parsed from {:?}", cut, &text[..end]);
            }
        }
    }

    /// Nesting up to the limit parses; past it, up to four times as
    /// deep, it is an error and not a stack overflow.
    #[test]
    fn nesting_past_the_limit_is_an_error(seed in any::<u64>(), extra in 1usize..(3 * MAX_DEPTH)) {
        prop_assert!(Json::parse(&nested(MAX_DEPTH, seed)).is_ok());
        let deep = Json::parse(&nested(MAX_DEPTH + extra, seed));
        prop_assert!(deep.is_err(), "depth {} parsed", MAX_DEPTH + extra);
    }
}

#[test]
fn render_edges_are_documented() {
    // Integral floats render as integers, non-finite ones as null.
    assert_eq!(Json::Float(2.0).render(), "2");
    assert_eq!(Json::parse("2"), Ok(Json::Int(2)));
    assert_eq!(Json::Float(f64::NAN).render(), "null");
    // Integers past u64 degrade to floats instead of failing.
    assert_eq!(
        Json::parse("18446744073709551616"),
        Ok(Json::Float(18446744073709551616.0))
    );
    // The limit is exact, for arrays and objects alike.
    assert!(Json::parse(&nested(MAX_DEPTH, 1)).is_ok());
    assert!(Json::parse(&nested(MAX_DEPTH + 1, 1)).is_err());
    assert!(Json::parse(&nested(MAX_DEPTH + 1, 2)).is_err());
}

/// A 2 MiB string of ASCII runs, 2–4-byte UTF-8, every escape and
/// `\u` surrogate pairs decodes to the value built alongside its text,
/// and `render ∘ parse` round-trips it. Parsing is linear in the text;
/// a scan that rereads the rest of the line per character would take
/// minutes here.
#[test]
fn long_strings_parse_in_linear_time() {
    // (JSON text, decoded text) pieces.
    const PIECES: [(&str, &str); 18] = [
        ("plain ASCII run ", "plain ASCII run "),
        ("x", "x"),
        ("é", "é"),
        ("→", "→"),
        ("😀", "😀"),
        ("\\\"", "\""),
        ("\\\\", "\\"),
        ("\\/", "/"),
        ("\\b", "\u{8}"),
        ("\\f", "\u{c}"),
        ("\\n", "\n"),
        ("\\r", "\r"),
        ("\\t", "\t"),
        ("\\u00e9", "é"),
        ("\\u0001", "\u{1}"),
        ("\\u2192", "→"),
        ("\\ud83e\\udd80", "🦀"),
        ("\\uD83D\\uDE00", "😀"),
    ];
    let mut rng = Lcg(0x10ad);
    let (mut text, mut expected) = (String::from("{\"id\":7,\"query\":\""), String::new());
    while text.len() < 2 << 20 {
        let (json, decoded) = PIECES[rng.below(PIECES.len())];
        text.push_str(json);
        expected.push_str(decoded);
    }
    text.push_str("\"}");

    let parsed = Json::parse(&text).expect("valid document");
    assert_eq!(parsed.get("id"), Some(&Json::Int(7)));
    assert!(parsed.get("query").and_then(Json::as_str) == Some(expected.as_str()));
    let rendered = parsed.render();
    assert!(Json::parse(&rendered) == Ok(parsed));
}
