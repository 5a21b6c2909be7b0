//! A global, deterministic string interner.
//!
//! Every widget-facing string (`tag`/`label`/`name`/`value`/`placeholder`/
//! `options`) is stored as a [`Sym`] — a `u32` handle into a process-wide
//! table of leaked `&'static str`s. Equal strings always intern to the same
//! id and distinct strings never alias, so widget comparison is an integer
//! compare.
//!
//! Determinism contract: ids are assigned in first-intern order, which is
//! deterministic for a single-threaded driver and *stable enough* for every
//! in-process use (ids never cross a process boundary — serde writes the
//! resolved string, never the id, and `frame_hash` folds string bytes, not
//! ids, so all byte-compared artifacts are interner-blind). The table
//! mutex's compute-inside-lock discipline makes the *aggregate* counters
//! deterministic even under a multi-worker fleet: each unique string is a
//! miss exactly once, so merged totals are a pure function of the seeds.

use std::collections::HashMap;
use std::fmt;
use std::ops::Deref;
use std::sync::{Mutex, OnceLock};

use eclair_trace::perf;
use serde::{Deserialize, Serialize, Value};

/// Interned string handle. `Copy`, 4 bytes, derefs to the string it names.
///
/// Equality between two `Sym`s is an id compare; equality against `str` /
/// `String` compares contents. `Ord` compares contents so sorted output
/// never depends on intern order.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sym(u32);

struct Interner {
    map: HashMap<&'static str, u32>,
    strings: Vec<&'static str>,
}

fn table() -> &'static Mutex<Interner> {
    static TABLE: OnceLock<Mutex<Interner>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut map = HashMap::new();
        map.insert("", 0u32);
        Mutex::new(Interner {
            map,
            strings: vec![""],
        })
    })
}

/// Intern `s`, returning its stable handle. Repeated calls with equal
/// strings return the same `Sym`; distinct strings never share one.
pub fn intern(s: &str) -> Sym {
    let mut t = table().lock().expect("interner poisoned");
    if let Some(&id) = t.map.get(s) {
        perf::record(|c| c.intern_hits += 1);
        return Sym(id);
    }
    let id = u32::try_from(t.strings.len()).expect("interner overflow");
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    t.strings.push(leaked);
    t.map.insert(leaked, id);
    let size = t.strings.len() as u64;
    perf::record(|c| {
        c.intern_misses += 1;
        c.intern_table_size = c.intern_table_size.max(size);
    });
    Sym(id)
}

/// Number of distinct strings interned so far in this process.
pub fn table_size() -> usize {
    table().lock().expect("interner poisoned").strings.len()
}

impl Sym {
    /// The empty string's handle (id 0, pre-interned).
    pub const EMPTY: Sym = Sym(0);

    /// Resolve to the interned string.
    pub fn as_str(self) -> &'static str {
        let t = table().lock().expect("interner poisoned");
        t.strings[self.0 as usize]
    }
}

impl Default for Sym {
    fn default() -> Self {
        Sym::EMPTY
    }
}

impl Deref for Sym {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Sym {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Self {
        intern(s)
    }
}

impl From<&String> for Sym {
    fn from(s: &String) -> Self {
        intern(s)
    }
}

impl From<String> for Sym {
    fn from(s: String) -> Self {
        intern(&s)
    }
}

impl From<&Sym> for Sym {
    fn from(s: &Sym) -> Self {
        *s
    }
}

impl From<Sym> for String {
    fn from(s: Sym) -> Self {
        s.as_str().to_owned()
    }
}

impl PartialEq<str> for Sym {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Sym {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for Sym {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<Sym> for str {
    fn eq(&self, other: &Sym) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<Sym> for &str {
    fn eq(&self, other: &Sym) -> bool {
        *self == other.as_str()
    }
}

impl PartialEq<Sym> for String {
    fn eq(&self, other: &Sym) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialOrd for Sym {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Sym {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.0 == other.0 {
            std::cmp::Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

// Serde writes the resolved string, never the id: intern ids are assigned
// in first-intern order and must not leak into any serialized artifact.
impl Serialize for Sym {
    fn to_value(&self) -> Value {
        Value::Str(self.as_str().to_owned())
    }
}

impl Deserialize for Sym {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        match v {
            Value::Str(s) => Ok(intern(s)),
            other => Err(serde::Error::custom(format!(
                "Sym: expected string, got {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_strings_intern_to_the_same_sym() {
        let a = intern("submit-order");
        let owned = String::from("submit-order");
        let b = intern(&owned);
        assert_eq!(a, b);
        assert_eq!(a.0, b.0);
        assert_eq!(a.as_str(), "submit-order");
    }

    #[test]
    fn distinct_strings_never_alias() {
        let a = intern("alpha-unique-x");
        let b = intern("beta-unique-x");
        assert_ne!(a, b);
        assert_ne!(a.0, b.0);
    }

    #[test]
    fn empty_is_id_zero_and_default() {
        assert_eq!(intern(""), Sym::EMPTY);
        assert_eq!(Sym::default().0, 0);
        assert!(Sym::default().is_empty());
    }

    #[test]
    fn content_comparisons_against_plain_strings() {
        let s = intern("Save changes");
        assert_eq!(s, "Save changes");
        assert_eq!("Save changes", s);
        assert_eq!(s, "Save changes".to_owned());
        assert!(s.to_lowercase() == "save changes"); // Deref methods work.
    }

    #[test]
    fn ord_is_by_content_not_intern_order() {
        let z = intern("zzz-ord-test");
        let a = intern("aaa-ord-test");
        assert!(a < z, "content order, despite z interning first");
    }

    #[test]
    fn serde_round_trips_the_string_not_the_id() {
        let s = intern("serde-round-trip");
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(json, "\"serde-round-trip\"");
        let back: Sym = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
