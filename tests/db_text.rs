//! Property tests for the database text format (`relation NAME` blocks
//! of whitespace-separated tuples, read by `cq-analyze --db`).
//!
//! `parse_database` interns fields as it streams them and resolves a
//! block's relation once. The reference below reads the same text the
//! plain way, one line at a time through `Database::insert_named`, and
//! both must agree: the same relations, arities, symbol ids, rows in
//! first-occurrence order and `render_database` bytes, or an error on
//! the same line. Generated texts mix comments (also right after a
//! value), blank lines, every kind of separator `split_whitespace`
//! knows (ASCII tab, VT, FF, CR and space, and U+0085, U+00A0, U+2028
//! and U+3000), LF and CRLF line ends, a last line with or without its
//! newline, split and repeated blocks, duplicate rows and the errors
//! the format has (a header without one name, a tuple before any
//! header, an arity that changes). A large seeded text grows the
//! symbol table through many sizes with names that share long
//! prefixes. Arbitrary text must never make the parser panic.

use cqbounds::relation::{parse_database, render_database, Database};
use proptest::prelude::*;

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, options: &[&'a str]) -> &'a str {
        options[self.below(options.len())]
    }
}

const NAMES: [&str; 4] = ["R", "S", "edge", "T2"];
const VALUES: [&str; 7] = ["a", "b", "c", "1", "é", "relations", "x→y"];
const SPACE: [&str; 11] = [
    " ", "\t", "  ", " \t ", "\u{a0}", "\u{85}", "\u{2028}", "\u{3000}", "\x0b", "\x0c", "\r",
];

/// The whitespace-separated fields of `line` before any `#`.
fn fields(line: &str) -> Vec<&str> {
    let code = match line.find('#') {
        Some(p) => &line[..p],
        None => line,
    };
    code.split_whitespace().collect()
}

/// The database `text` describes, built line by line with
/// `insert_named`, or the 1-based line of the first error.
fn reference(text: &str) -> Result<Database, usize> {
    let mut db = Database::new();
    // (relation name, arity of the current block once it has a tuple)
    let mut block: Option<(String, Option<usize>)> = None;
    for (i, line) in text.lines().enumerate() {
        let f = fields(line);
        match f.as_slice() {
            [] => {}
            ["relation", name] => block = Some((name.to_string(), None)),
            ["relation", ..] => return Err(i + 1),
            values => {
                let Some((name, arity)) = block.as_mut() else {
                    return Err(i + 1);
                };
                let expected = arity.or(db.relation(name).map(|r| r.arity()));
                if expected.is_some_and(|a| a != values.len()) {
                    return Err(i + 1);
                }
                *arity = Some(values.len());
                db.insert_named(name, values);
            }
        }
    }
    Ok(db)
}

/// Appends one generated line. `block` is the index in [`NAMES`] of
/// the current header's relation, and `arity` each relation's width.
fn line(rng: &mut Lcg, arity: &[usize; 4], block: &mut usize, out: &mut String) {
    let gap = |rng: &mut Lcg| rng.pick(&SPACE);
    match rng.below(20) {
        0 => out.push_str(&format!("# {}", rng.pick(&VALUES))),
        1 => out.push_str(rng.pick(&["", " ", "\t", "  # only a comment"])),
        2..=4 => {
            let lead = if rng.below(4) == 0 { gap(rng) } else { "" };
            *block = rng.below(NAMES.len());
            out.push_str(&format!("{lead}relation{}{}", gap(rng), NAMES[*block]));
            if rng.below(4) == 0 {
                out.push_str(&format!("{}# header", gap(rng)));
            }
        }
        5 if rng.below(4) == 0 => {
            let names = if rng.below(2) == 0 { "" } else { "R S" };
            out.push_str(&format!("relation{}{names}", gap(rng)));
        }
        _ => {
            // A tuple of the block's width, now and then of another.
            let width = if rng.below(40) == 0 {
                1 + rng.below(3)
            } else {
                arity[*block]
            };
            for k in 0..width {
                if k > 0 {
                    out.push_str(gap(rng));
                }
                out.push_str(rng.pick(&VALUES));
            }
            match rng.below(12) {
                0 | 1 => out.push_str(&format!("{}#{}", gap(rng), rng.pick(&VALUES))),
                2 => out.push_str(&format!("#{}", rng.pick(&VALUES))),
                _ => {}
            }
        }
    }
    out.push_str(if rng.below(10) == 0 { "\r\n" } else { "\n" });
}

/// A text of up to 60 lines; every relation keeps one width except
/// where a line deliberately breaks it.
fn generated(seed: u64) -> String {
    let mut rng = Lcg(seed);
    let arity = [1 + rng.below(3), 1 + rng.below(3), 2, 1 + rng.below(5)];
    let mut block = 0;
    let mut text = String::new();
    if rng.below(8) != 0 {
        text.push_str("relation R\n");
    }
    for _ in 0..rng.below(60) {
        line(&mut rng, &arity, &mut block, &mut text);
    }
    if rng.below(4) == 0 {
        text.pop(); // the last line without its `\n`
    }
    text
}

/// Everything the two databases must share, rendered text included.
/// Rows are compared as `(symbol id, name)` pairs; every symbol of a
/// parsed database occurs in a row, so this pins the symbol ids too.
fn assert_same(parsed: &Database, expected: &Database) -> Result<(), TestCaseError> {
    let names = |db: &Database| -> Vec<(String, usize)> {
        db.relations()
            .map(|r| (r.name().to_owned(), r.arity()))
            .collect()
    };
    prop_assert_eq!(names(parsed), names(expected));
    prop_assert_eq!(parsed.symbols().len(), expected.symbols().len());
    let rows = |db: &Database| -> Vec<Vec<Vec<(u32, String)>>> {
        db.relations()
            .map(|r| {
                r.iter()
                    .map(|row| {
                        row.iter()
                            .map(|&v| (v.id(), db.symbols().name(v).to_owned()))
                            .collect()
                    })
                    .collect()
            })
            .collect()
    };
    let (got, want) = (rows(parsed), rows(expected));
    prop_assert!(got == want, "rows {:?} vs {:?}", got, want);
    prop_assert_eq!(render_database(parsed), render_database(expected));
    Ok(())
}

proptest! {
    /// Generated texts parse exactly as the line-by-line reference
    /// reads them, and a parsed database renders to text that parses
    /// back to the same bytes.
    #[test]
    fn parser_agrees_with_line_by_line_reference(seed in any::<u64>()) {
        let text = generated(seed);
        match (parse_database(&text), reference(&text)) {
            (Ok(parsed), Ok(expected)) => {
                assert_same(&parsed, &expected)?;
                let rendered = render_database(&parsed);
                let again = parse_database(&rendered).expect("rendered text parses");
                prop_assert_eq!(render_database(&again), rendered);
            }
            (Err(e), Err(line)) => prop_assert!(e.line == line, "{} vs line {} on {:?}", e, line, text),
            (got, want) => prop_assert!(
                false,
                "parser {:?} vs reference {:?} on {:?}",
                got.map(|_| ()),
                want.map(|_| ()),
                text
            ),
        }
    }

    /// Arbitrary text never panics the parser; an error names a line of
    /// the text.
    #[test]
    fn arbitrary_text_never_panics(text in ".{0,300}") {
        if let Err(e) = parse_database(&text) {
            prop_assert!(e.line >= 1 && e.line <= text.lines().count(), "{}", e);
        }
    }

    /// Arbitrary bytes spliced into a generated text never panic it.
    #[test]
    fn corrupted_text_never_panics(seed in any::<u64>(), noise in ".{1,12}") {
        let mut text = generated(seed);
        let mut rng = Lcg(seed ^ 0x5eed);
        let mut at = rng.below(text.len() + 1);
        while !text.is_char_boundary(at) {
            at -= 1;
        }
        text.insert_str(at, &noise);
        let _ = parse_database(&text);
    }
}

/// The generator reaches both outcomes and each kind of error often
/// enough for the comparison to mean something (2,000 seeds give about
/// 900 databases, 440 header errors, 190 tuples before a header and
/// 470 arity errors).
#[test]
fn generator_covers_successes_and_each_error() {
    let (mut ok, mut header, mut orphan, mut arity) = (0, 0, 0, 0);
    for seed in 0..2000u64 {
        let text = generated(seed);
        match parse_database(&text) {
            Ok(_) => ok += 1,
            Err(e) if e.message.contains("name") => header += 1,
            Err(e) if e.message.contains("before any") => orphan += 1,
            Err(e) if e.message.contains("arity") => arity += 1,
            Err(e) => panic!("unexpected error {e}"),
        }
    }
    for (what, n) in [
        ("successes", ok),
        ("header errors", header),
        ("tuples before a header", orphan),
        ("arity errors", arity),
    ] {
        assert!(n >= 50, "{what}: {n} of 2000");
    }
}

/// A large seeded text against the reference: 21,990 distinct names,
/// so the symbol table grows through every size up to 32,768 slots.
/// Names run from 1 to 39 bytes, half of them past 8, in groups that
/// share their first 8, 16 or 34 bytes and differ only at the end;
/// some are not ASCII, and separators come from the whole pool.
#[test]
fn large_text_with_long_shared_prefixes_agrees_with_reference() {
    const STEMS: [&str; 6] = [
        "",
        "k",
        "shared_8",
        "shared_prefix_16",
        "é→x",
        "a-considerably-longer-shared-stem-",
    ];
    let mut rng = Lcg(0x1a7e_5eed);
    let name = |i: usize| format!("{}{i}", STEMS[i % STEMS.len()]);
    let mut text = String::from("relation wide\n");
    for row in 0..16_000usize {
        if row == 8_000 {
            text.push_str("relation pair # second block\r\n");
        }
        let width = if row < 8_000 { 3 } else { 2 };
        for k in 0..width {
            if k > 0 {
                text.push_str(rng.pick(&SPACE));
            }
            // Mostly names in order, now and then one from anywhere.
            let i = if rng.below(4) == 0 {
                rng.below(24_000)
            } else {
                (row * 3 + k) / 2
            };
            text.push_str(&name(i));
        }
        text.push_str(if rng.below(3) == 0 { "\r\n" } else { "\n" });
    }
    let parsed = parse_database(&text).expect("the text parses");
    let expected = reference(&text).expect("the reference reads it");
    assert!(
        parsed.symbols().len() >= 20_000,
        "{}",
        parsed.symbols().len()
    );
    assert_same(&parsed, &expected).unwrap();
}
