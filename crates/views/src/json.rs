//! An owned JSON value with the merge combinators the paper's §3.3
//! gives as "natural interpretations" of `·` and `+R` (Example 3.5).
//!
//! This is intentionally *not* a general-purpose JSON library: the
//! union/join combinators are part of the citation model itself
//! ("One natural interpretation of · is simply the union of the
//! records ... A different choice of · 'joins' the records, i.e.
//! factors out common elements"), so the representation is tuned for
//! them — objects keep insertion order (citations read like the
//! paper's examples), arrays used as *sets* deduplicate.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};

/// An owned JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Integer number (citations use ids and counts).
    Int(i64),
    /// Floating-point number.
    Float(f64),
    /// String.
    Str(String),
    /// Array. Combinators treat arrays as sets (dedup, order kept).
    Array(Vec<Json>),
    /// Object with insertion-ordered fields.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Shorthand string constructor.
    pub fn str(s: impl Into<String>) -> Self {
        Json::Str(s.into())
    }

    /// An empty object.
    pub fn object() -> Self {
        Json::Object(Vec::new())
    }

    /// Build an object from `(key, value)` pairs.
    pub fn from_pairs<I, K>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (K, Json)>,
        K: Into<String>,
    {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Field lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Insert or replace a field (objects only; no-op otherwise).
    pub fn set(&mut self, key: impl Into<String>, value: Json) {
        if let Json::Object(fields) = self {
            let key = key.into();
            match fields.iter_mut().find(|(k, _)| *k == key) {
                Some((_, v)) => *v = value,
                None => fields.push((key, value)),
            }
        }
    }

    /// Is this `null`?
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Structural equality up to object-field order and array order
    /// (citations assembled along different paths may enumerate
    /// fields differently).
    pub fn equivalent(&self, other: &Json) -> bool {
        self.canonical() == other.canonical()
    }

    /// Canonical form: object fields sorted by key, arrays sorted by
    /// rendered form and deduplicated.
    pub fn canonical(&self) -> Json {
        match self {
            Json::Array(items) => {
                let mut canon: Vec<Json> = items.iter().map(Json::canonical).collect();
                canon.sort_by_cached_key(Json::to_compact);
                canon.dedup();
                Json::Array(canon)
            }
            Json::Object(fields) => {
                let mut canon: Vec<(String, Json)> = fields
                    .iter()
                    .map(|(k, v)| (k.clone(), v.canonical()))
                    .collect();
                canon.sort_by(|a, b| a.0.cmp(&b.0));
                Json::Object(canon)
            }
            other => other.clone(),
        }
    }

    /// Compact serialization (no whitespace).
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty serialization with 2-space indentation.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    /// Approximate size in bytes of the compact serialization —
    /// the "size of the resulting citation" measured by experiment E3.
    pub fn size_bytes(&self) -> usize {
        self.to_compact().len()
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(x) => {
                let _ = write!(out, "{x:?}");
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                        if indent.is_none() {
                            out.push(' ');
                        }
                    }
                    newline_indent(out, indent, depth + 1);
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Json::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                        if indent.is_none() {
                            out.push(' ');
                        }
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..(width * depth) {
            out.push(' ');
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_compact())
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::str(s)
    }
}

impl From<i64> for Json {
    fn from(i: i64) -> Self {
        Json::Int(i)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

impl From<fgc_relation::Value> for Json {
    fn from(v: fgc_relation::Value) -> Self {
        use fgc_relation::Value;
        match v {
            Value::Null => Json::Null,
            Value::Bool(b) => Json::Bool(b),
            Value::Int(i) => Json::Int(i),
            Value::Float(x) => Json::Float(x),
            Value::Str(s) => Json::Str(s.to_string()),
        }
    }
}

// ---------------------------------------------------------------------
// The Example 3.5 combinators
// ---------------------------------------------------------------------

/// `·`/`+R` as **union of records**: collect the operands into a set
/// (array) of records. Flattens nested unions and deduplicates, so
/// the operation is associative, commutative, and idempotent.
///
/// This is [`union_all`] of the two operands, at the same cost:
/// linear in their total record bytes. Folding it over k operands
/// re-reads the accumulator at every step, so use [`union_all`] there.
pub fn union_records(a: &Json, b: &Json) -> Json {
    union_all([a, b])
}

/// Union of records over any number of operands, in one pass.
///
/// Every operand is flattened (arrays are record sets, nested ones
/// included; `Null` is the empty citation and contributes nothing),
/// then each record is kept at its first occurrence unless an earlier
/// kept record has an `==` canonical form ([`Json::canonical`]). The
/// result is `Null` for no records, the record itself for one, and an
/// `Array` otherwise.
///
/// The result is identical, byte for byte, to the left fold of
/// [`union_records`] from `Null` over the same operands. Each record's
/// canonical form is computed and hashed once, so the cost is linear
/// in the total record bytes (plus sorting the arrays inside each
/// record), where the pairwise fold over k records costs O(k²)
/// canonical forms.
pub fn union_all<'a>(operands: impl IntoIterator<Item = &'a Json>) -> Json {
    let mut records = Vec::new();
    for operand in operands {
        collect_records(operand, &mut records);
    }
    // kept canonical forms bucketed by hash; a hash hit counts only if
    // it is `==`, which a NaN-bearing record never is
    let mut seen: HashMap<u64, Vec<Json>> = HashMap::new();
    let mut kept: Vec<Json> = Vec::new();
    for record in records {
        let canon = record.canonical();
        let mut hasher = DefaultHasher::new();
        hash_canonical(&canon, &mut hasher);
        let bucket = seen.entry(hasher.finish()).or_default();
        if !bucket.contains(&canon) {
            bucket.push(canon);
            kept.push(record.clone());
        }
    }
    match kept.len() {
        0 => Json::Null, // the empty citation is the neutral element
        1 => kept.pop().expect("non-empty"),
        _ => Json::Array(kept),
    }
}

fn collect_records<'a>(j: &'a Json, out: &mut Vec<&'a Json>) {
    match j {
        // Null is the empty citation: it contributes nothing, whether
        // it appears as an operand or as an array element. Arrays are
        // record sets and flatten recursively, so `[]` ≡ Null and the
        // union is associative and closed on its own output.
        Json::Null => {}
        Json::Array(items) => {
            for item in items {
                collect_records(item, out);
            }
        }
        other => out.push(other),
    }
}

/// Hash consistent with `==`: values that are `==` hash alike. Floats
/// hash by bits after `+ 0.0`, which turns `-0.0` (`== 0.0`) into
/// `0.0`; NaN equals nothing, so its hash is unconstrained.
fn hash_canonical(j: &Json, h: &mut DefaultHasher) {
    std::mem::discriminant(j).hash(h);
    match j {
        Json::Null => {}
        Json::Bool(b) => b.hash(h),
        Json::Int(i) => i.hash(h),
        Json::Float(x) => (x + 0.0).to_bits().hash(h),
        Json::Str(s) => s.hash(h),
        Json::Array(items) => {
            items.len().hash(h);
            for item in items {
                hash_canonical(item, h);
            }
        }
        Json::Object(fields) => {
            fields.len().hash(h);
            for (k, v) in fields {
                k.hash(h);
                hash_canonical(v, h);
            }
        }
    }
}

/// `·`/`+R` as **join**: "factors out common elements". Two objects
/// merge field-wise — shared keys merge recursively; equal scalars
/// collapse; arrays union; genuinely conflicting scalars widen into
/// an array (set) of both. Non-objects fall back to union semantics.
pub fn join_records(a: &Json, b: &Json) -> Json {
    match (a, b) {
        (Json::Null, x) | (x, Json::Null) => x.clone(),
        (Json::Object(fa), Json::Object(fb)) => {
            let mut fields: Vec<(String, Json)> = fa.clone();
            for (k, vb) in fb {
                match fields.iter_mut().find(|(fk, _)| fk == k) {
                    Some((_, va)) => {
                        *va = join_field(va, vb);
                    }
                    None => fields.push((k.clone(), vb.clone())),
                }
            }
            Json::Object(fields)
        }
        (Json::Array(_), _) | (_, Json::Array(_)) => union_records(a, b),
        (x, y) if x == y => x.clone(),
        _ => union_records(a, b),
    }
}

/// Merge two values sitting under the same object key.
fn join_field(a: &Json, b: &Json) -> Json {
    match (a, b) {
        (x, y) if x == y => x.clone(),
        (Json::Null, x) | (x, Json::Null) => x.clone(),
        (Json::Array(_), _) | (_, Json::Array(_)) => union_records(a, b),
        (Json::Object(_), Json::Object(_)) => join_records(a, b),
        _ => union_records(a, b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn calcitonin_committee() -> Json {
        Json::from_pairs([
            ("ID", Json::str("11")),
            ("Name", Json::str("Calcitonin")),
            (
                "Committee",
                Json::Array(vec![Json::str("Hay"), Json::str("Poyner")]),
            ),
        ])
    }

    fn calcitonin_contributors() -> Json {
        Json::from_pairs([
            ("ID", Json::str("11")),
            ("Name", Json::str("Calcitonin")),
            ("Text", Json::str("The calcitonin peptide family")),
            (
                "Contributors",
                Json::Array(vec![Json::str("Brown"), Json::str("Smith")]),
            ),
        ])
    }

    #[test]
    fn compact_serialization_matches_paper_style() {
        let c = calcitonin_committee();
        assert_eq!(
            c.to_compact(),
            r#"{"ID": "11", "Name": "Calcitonin", "Committee": ["Hay", "Poyner"]}"#
        );
    }

    #[test]
    fn pretty_serialization_indents() {
        let c = Json::from_pairs([("a", Json::Int(1))]);
        assert_eq!(c.to_pretty(), "{\n  \"a\": 1\n}");
    }

    #[test]
    fn string_escaping() {
        let s = Json::str("a\"b\\c\nd");
        assert_eq!(s.to_compact(), r#""a\"b\\c\nd""#);
    }

    #[test]
    fn example_3_5_union_interpretation() {
        // union of the two Calcitonin records: a set of both records
        let u = union_records(&calcitonin_committee(), &calcitonin_contributors());
        match &u {
            Json::Array(items) => {
                assert_eq!(items.len(), 2);
                assert_eq!(items[0], calcitonin_committee());
                assert_eq!(items[1], calcitonin_contributors());
            }
            other => panic!("expected array, got {other}"),
        }
    }

    #[test]
    fn example_3_5_join_interpretation() {
        // join factors out ID and Name
        let j = join_records(&calcitonin_committee(), &calcitonin_contributors());
        let expected = Json::from_pairs([
            ("ID", Json::str("11")),
            ("Name", Json::str("Calcitonin")),
            (
                "Committee",
                Json::Array(vec![Json::str("Hay"), Json::str("Poyner")]),
            ),
            ("Text", Json::str("The calcitonin peptide family")),
            (
                "Contributors",
                Json::Array(vec![Json::str("Brown"), Json::str("Smith")]),
            ),
        ]);
        assert_eq!(j, expected);
    }

    #[test]
    fn example_3_5_plus_r_join_merges_committees() {
        // {ID, Name, Committee: [Hay, Poyner]} +R {ID, Committee: [Brown], Contributors: [Smith]}
        let a = calcitonin_committee();
        let b = Json::from_pairs([
            ("ID", Json::str("11")),
            ("Committee", Json::Array(vec![Json::str("Brown")])),
            ("Contributors", Json::Array(vec![Json::str("Smith")])),
        ]);
        let merged = join_records(&a, &b);
        assert_eq!(
            merged.get("Committee"),
            Some(&Json::Array(vec![
                Json::str("Hay"),
                Json::str("Poyner"),
                Json::str("Brown")
            ]))
        );
        assert_eq!(
            merged.get("Contributors"),
            Some(&Json::Array(vec![Json::str("Smith")]))
        );
        assert_eq!(merged.get("Name"), Some(&Json::str("Calcitonin")));
    }

    #[test]
    fn union_is_idempotent_and_flattens() {
        let a = calcitonin_committee();
        let u1 = union_records(&a, &a);
        assert_eq!(u1, a); // single record stays a record
        let u2 = union_records(&union_records(&a, &calcitonin_contributors()), &a);
        match u2 {
            Json::Array(items) => assert_eq!(items.len(), 2),
            other => panic!("expected array, got {other}"),
        }
    }

    #[test]
    fn union_with_null_is_identity() {
        let a = calcitonin_committee();
        assert_eq!(union_records(&a, &Json::Null), a);
        assert_eq!(union_records(&Json::Null, &a), a);
        assert_eq!(join_records(&Json::Null, &a), a);
    }

    #[test]
    fn union_all_collapses_signed_zeros() {
        // 0.0 == -0.0, so they are one record and the first one stays
        let pos = Json::from_pairs([("x", Json::Float(0.0))]);
        let neg = Json::from_pairs([("x", Json::Float(-0.0))]);
        assert_eq!(union_all([&pos, &neg]).to_compact(), r#"{"x": 0.0}"#);
        assert_eq!(union_all([&neg, &pos]).to_compact(), r#"{"x": -0.0}"#);
        let zeros = [Json::Float(-0.0), Json::Float(0.0), Json::Float(-0.0)];
        assert_eq!(union_all(&zeros).to_compact(), "-0.0");
    }

    #[test]
    fn union_all_keeps_every_nan_record() {
        // NaN != NaN, so a NaN-bearing record is never a duplicate
        let nan = Json::from_pairs([("x", Json::Float(f64::NAN))]);
        let u = union_all([&nan, &nan, &Json::Float(f64::NAN)]);
        assert_eq!(u.to_compact(), r#"[{"x": NaN}, {"x": NaN}, NaN]"#);
        assert_eq!(
            union_records(&u, &nan).to_compact().matches("NaN").count(),
            4
        );
    }

    #[test]
    fn union_all_flattens_like_union_records() {
        let (a, b) = (calcitonin_committee(), calcitonin_contributors());
        let nested = Json::Array(vec![
            Json::Null,
            Json::Array(vec![b.clone(), Json::Array(vec![a.clone()])]),
            Json::Null,
        ]);
        let operands = [
            Json::Null,
            nested,
            a.clone(),
            Json::Array(vec![]),
            b.clone(),
        ];
        let pairwise = operands
            .iter()
            .fold(Json::Null, |acc, x| union_records(&acc, x));
        assert_eq!(union_all(&operands), pairwise);
        assert_eq!(pairwise, Json::Array(vec![b, a]));
        let empty = [
            Json::Null,
            Json::Array(vec![Json::Null, Json::Array(vec![])]),
        ];
        assert_eq!(union_all(&empty), Json::Null);
        assert_eq!(union_all(&[] as &[Json]), Json::Null);
    }

    #[test]
    fn join_conflicting_scalars_widen_to_set() {
        let a = Json::from_pairs([("Owner", Json::str("Harmar"))]);
        let b = Json::from_pairs([("Owner", Json::str("Davenport"))]);
        let j = join_records(&a, &b);
        assert_eq!(
            j.get("Owner"),
            Some(&Json::Array(vec![
                Json::str("Harmar"),
                Json::str("Davenport")
            ]))
        );
    }

    #[test]
    fn equivalence_ignores_field_and_array_order() {
        let a = Json::from_pairs([
            ("x", Json::Int(1)),
            ("y", Json::Array(vec![Json::Int(1), Json::Int(2)])),
        ]);
        let b = Json::from_pairs([
            ("y", Json::Array(vec![Json::Int(2), Json::Int(1)])),
            ("x", Json::Int(1)),
        ]);
        assert!(a.equivalent(&b));
        assert_ne!(a, b); // plain equality is order-sensitive
    }

    #[test]
    fn get_and_set() {
        let mut o = Json::object();
        o.set("a", Json::Int(1));
        o.set("a", Json::Int(2));
        assert_eq!(o.get("a"), Some(&Json::Int(2)));
        assert_eq!(o.get("b"), None);
        assert_eq!(Json::Int(3).get("a"), None);
    }

    #[test]
    fn size_bytes_reflects_compactness() {
        let single = calcitonin_committee();
        let unioned = union_records(&single, &calcitonin_contributors());
        assert!(unioned.size_bytes() > single.size_bytes());
    }

    #[test]
    fn from_value_conversions() {
        use fgc_relation::Value;
        assert_eq!(Json::from(Value::str("x")), Json::str("x"));
        assert_eq!(Json::from(Value::Int(3)), Json::Int(3));
        assert_eq!(Json::from(Value::Null), Json::Null);
    }
}
