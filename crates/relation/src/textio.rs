//! A small text format for database instances.
//!
//! One relation block per `relation NAME` header line, then one tuple per
//! line with whitespace-separated values; `#` comments and blank lines
//! ignored:
//!
//! ```text
//! # employees
//! relation emp
//! e1 d1
//! e2 d1
//!
//! relation dept
//! d1 e1
//! ```
//!
//! Exactly:
//!
//! - lines end at `\n`; a `\r` before it is whitespace like any other, so
//!   CRLF text reads as LF text, and the last line needs no newline;
//! - a line's first `#` starts a comment running to the line's end, even
//!   inside a value (`a#b` is the value `a`);
//! - fields are separated by runs of the chars `char::is_whitespace`
//!   accepts: tab, LF, VT, FF, CR and space among ASCII, and the Unicode
//!   `White_Space` chars beyond it (U+0085, U+00A0, U+1680, U+2000 to
//!   U+200A, U+2028, U+2029, U+202F, U+205F and U+3000); every other
//!   char is part of a value.
//!
//! These are the fields of `str::lines`, cut at `#` and split by
//! `str::split_whitespace`, which the parser finds in one pass over the
//! bytes.
//!
//! Used by the `cq-analyze --db` flag so the paper's bounds can be
//! checked against user-supplied data, and by tests that want readable
//! fixtures.

use crate::database::Database;
use crate::relation::Relation;
use crate::schema::Schema;
use crate::symbol::{SymbolTable, Value};
use cq_util::FxHashMap;
use std::fmt;

/// Error parsing a database text file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbParseError {
    /// 1-based line number.
    pub line: usize,
    /// Problem description.
    pub message: String,
}

impl fmt::Display for DbParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for DbParseError {}

/// Parses the text format into a [`Database`].
///
/// A line whose first field is `relation` is a header and must name
/// exactly one relation. Every other nonblank line is a tuple of the
/// current block's relation, interned field by field as it is read; the
/// relation is created at its first tuple (a header without tuples adds
/// nothing), and the rows of a relation split over several blocks keep
/// their order in the text. Symbol ids follow the order in which values
/// first occur. Errors name the 1-based line they are on.
pub fn parse_database(text: &str) -> Result<Database, DbParseError> {
    let mut symbols = SymbolTable::new();
    // Each relation's schema and rows, flat and duplicates included,
    // deduplicated once all are read.
    let mut relations: Vec<(Schema, Vec<Value>)> = Vec::new();
    let mut by_name: FxHashMap<&str, usize> = FxHashMap::default();
    // The current block: its relation name and, from its first tuple
    // on, the relation's index in `relations`.
    let mut block: Option<(&str, Option<usize>)> = None;
    let mut fields: Vec<(usize, usize)> = Vec::new();
    let (mut at, mut line) = (0, 0);
    while at < text.len() {
        line += 1;
        at = split_line(text, at, &mut fields);
        let Some(&(start, end)) = fields.first() else {
            continue;
        };
        let error = |message: String| DbParseError { line, message };
        if &text[start..end] == "relation" {
            match fields[1..] {
                [(start, end)] => block = Some((&text[start..end], None)),
                [] => return Err(error("relation header without a name".into())),
                [(start, _), .., (_, end)] => {
                    let names = &text[start..end];
                    return Err(error(format!("bad relation name {names:?}")));
                }
            }
            continue;
        }
        let Some((name, ref mut index)) = block else {
            return Err(error("tuple before any `relation NAME` header".into()));
        };
        let width = fields.len();
        let ri = match *index {
            Some(ri) => {
                let arity = relations[ri].0.arity();
                if arity != width {
                    return Err(error(format!(
                        "tuple arity {width} does not match {name}'s arity {arity}"
                    )));
                }
                ri
            }
            None => {
                let ri = *by_name.entry(name).or_insert_with(|| {
                    relations.push((Schema::new(name, width), Vec::new()));
                    relations.len() - 1
                });
                let was = relations[ri].0.arity();
                if was != width {
                    return Err(error(format!(
                        "relation {name} re-declared with arity {width} (was {was})"
                    )));
                }
                *index = Some(ri);
                ri
            }
        };
        relations[ri].1.extend(
            fields
                .iter()
                .map(|&(start, end)| symbols.intern(&text[start..end])),
        );
    }
    let mut db = Database::new();
    *db.symbols_mut() = symbols;
    for (schema, rows) in relations {
        db.add_relation(Relation::from_rows(schema, rows));
    }
    Ok(db)
}

/// Puts the byte ranges of the fields of the line starting at `at` into
/// `fields`, and returns where the next line starts.
///
/// A line ends at `\n` or the end of the text, its code at the first
/// `#`, and fields are separated by runs of the chars
/// `char::is_whitespace` accepts. ASCII bytes are classed directly; a
/// byte from `0x80` up leads a multi-byte char, which is decoded and
/// tested whole, so `at` only ever stops on char boundaries.
fn split_line(text: &str, mut at: usize, fields: &mut Vec<(usize, usize)>) -> usize {
    let bytes = text.as_bytes();
    fields.clear();
    let mut start = at;
    let code_end = loop {
        // Printable ASCII but `#`: the bulk of the values, skipped in a
        // tight loop; every other byte is classed below.
        while bytes
            .get(at)
            .is_some_and(|&b| b != b'#' && (b'!'..=b'~').contains(&b))
        {
            at += 1;
        }
        let Some(&b) = bytes.get(at) else {
            break at;
        };
        let gap = match b {
            b'\n' | b'#' => break at,
            b'\t'..=b'\r' | b' ' => 1,
            0x80.. => {
                let c = text[at..].chars().next().expect("a char starts here");
                if !c.is_whitespace() {
                    at += c.len_utf8();
                    continue;
                }
                c.len_utf8()
            }
            _ => {
                at += 1;
                continue;
            }
        };
        if at > start {
            fields.push((start, at));
        }
        at += gap;
        start = at;
    };
    if code_end > start {
        fields.push((start, code_end));
    }
    match bytes[code_end..].iter().position(|&b| b == b'\n') {
        Some(newline) => code_end + newline + 1,
        None => bytes.len(),
    }
}

/// Renders a database in the same text format (round-trips through
/// [`parse_database`]).
pub fn render_database(db: &Database) -> String {
    let mut out = String::new();
    for rel in db.relations() {
        out.push_str(&format!("relation {}\n", rel.name()));
        for row in rel.iter() {
            let names: Vec<&str> = row.iter().map(|&v| db.symbols().name(v)).collect();
            out.push_str(&names.join(" "));
            out.push('\n');
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_basic() {
        let db = parse_database(
            "# comment\nrelation R\na b\nc d  # trailing comment\n\nrelation S\nx\n",
        )
        .unwrap();
        assert_eq!(db.relation("R").unwrap().len(), 2);
        assert_eq!(db.relation("R").unwrap().arity(), 2);
        assert_eq!(db.relation("S").unwrap().len(), 1);
    }

    #[test]
    fn duplicate_tuples_deduplicated() {
        let db = parse_database("relation R\na b\na b\n").unwrap();
        assert_eq!(db.relation("R").unwrap().len(), 1);
    }

    #[test]
    fn relation_blocks_can_be_split() {
        let db = parse_database("relation R\na b\nrelation S\nx y\nrelation R\nc d\n").unwrap();
        assert_eq!(db.relation("R").unwrap().len(), 2);
    }

    #[test]
    fn errors_reported_with_line_numbers() {
        let err = parse_database("a b\n").unwrap_err();
        assert_eq!(err.line, 1);
        let err = parse_database("relation R\na b\nc\n").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("arity"));
        let err = parse_database("relation bad name\n").unwrap_err();
        assert!(err.message.contains("bad relation name"));
    }

    /// `relation` followed by any whitespace starts a header, so a tab
    /// after it no longer turns the header into a tuple.
    #[test]
    fn header_is_the_first_field() {
        let db = parse_database("relation R\na b\nrelation\tS\nx\n").unwrap();
        assert_eq!(db.relation("R").unwrap().len(), 1);
        assert_eq!(db.relation("S").unwrap().len(), 1);
        assert_eq!(db.relation("S").unwrap().arity(), 1);
        let db = parse_database("  relation \t T  # trailing\nx y\n").unwrap();
        assert_eq!(db.relation("T").unwrap().arity(), 2);
        // a value merely starting with `relation` is data
        let db = parse_database("relation R\nrelations x\n").unwrap();
        assert_eq!(db.relation("R").unwrap().len(), 1);
    }

    #[test]
    fn header_needs_exactly_one_name() {
        let err = parse_database("relation R\na b\nrelation\n").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("without a name"), "{err}");
        let err = parse_database("relation R\na b\n\nrelation # comment\n").unwrap_err();
        assert_eq!(err.line, 4);
        let err = parse_database("relation R\na b\nrelation\tS T\n").unwrap_err();
        assert_eq!(err.line, 3);
        assert_eq!(err.message, "bad relation name \"S T\"");
    }

    #[test]
    fn rows_keep_text_order_across_blocks() {
        let db = parse_database("relation R\nb a\nrelation S\nx\nrelation R\na b\nb a\n").unwrap();
        let r = db.relation("R").unwrap();
        let names: Vec<Vec<&str>> = r
            .iter()
            .map(|row| row.iter().map(|&v| db.symbols().name(v)).collect())
            .collect();
        assert_eq!(names, [["b", "a"], ["a", "b"]]);
        assert_eq!(db.symbols().lookup("x").map(Value::id), Some(2));
    }

    #[test]
    fn arity_conflict_across_blocks() {
        let err = parse_database("relation R\na b\nrelation R\nc\n").unwrap_err();
        assert!(err.message.contains("arity"), "{err}");
    }

    #[test]
    fn round_trip() {
        let db = parse_database("relation R\na b\nc d\n\nrelation S\nx\n").unwrap();
        let text = render_database(&db);
        let db2 = parse_database(&text).unwrap();
        assert_eq!(db2.relation("R").unwrap().len(), 2);
        assert_eq!(db2.relation("S").unwrap().len(), 1);
        assert_eq!(render_database(&db2), text);
    }

    #[test]
    fn empty_input_is_empty_database() {
        let db = parse_database("").unwrap();
        assert_eq!(db.num_relations(), 0);
    }
}
