//! A global, deterministic string interner.
//!
//! Every widget-facing string (`tag`/`label`/`name`/`value`/`placeholder`/
//! `options`) is stored as a [`Sym`]: the leaked `&'static str` itself,
//! held in a process-wide table. Equal strings always intern to the same
//! allocation and distinct strings never alias, so resolving a `Sym` is a
//! field read and `Sym == Sym` is an address compare.
//!
//! Each thread keeps a front table of the strings it has already seen, so
//! an intern hit never touches the global table's lock; only a thread's
//! first sight of a string takes it. Addresses never cross a process
//! boundary: serde writes the string, `frame_hash` folds string bytes and
//! `Ord` compares contents, so all byte-compared artifacts are
//! interner-blind. The counters stay deterministic under a multi-worker
//! fleet: every call counts one hit or one miss, and each unique string
//! is a miss exactly once (under the global lock), so merged totals are a
//! pure function of the seeds.

use std::cell::RefCell;
use std::collections::HashSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::{LazyLock, Mutex};

use eclair_trace::perf;
use serde::{Deserialize, Serialize, Value};

/// Interned string handle. `Copy`, derefs to the string it names.
///
/// Equality and hashing between `Sym`s use the string's address; equality
/// against `str` / `String` compares contents. `Ord` compares contents so
/// sorted output never depends on where a string was allocated.
#[derive(Clone, Copy)]
pub struct Sym(&'static str);

/// Every string interned in this process, pre-seeded with `""`.
static TABLE: LazyLock<Mutex<HashSet<&'static str>>> =
    LazyLock::new(|| Mutex::new(HashSet::from([Sym::EMPTY.0])));

thread_local! {
    /// The strings this thread has interned: a subset of [`TABLE`].
    static FRONT: RefCell<HashSet<&'static str>> = RefCell::new(HashSet::new());
}

/// Intern `s`, returning its stable handle. Repeated calls with equal
/// strings return the same `Sym`; distinct strings never share one.
pub fn intern(s: &str) -> Sym {
    if let Some(hit) = FRONT.with(|f| f.borrow().get(s).copied()) {
        perf::record(|c| c.intern_hits += 1);
        return Sym(hit);
    }
    let sym = intern_global(s);
    FRONT.with(|f| f.borrow_mut().insert(sym.0));
    sym
}

/// The global table behind a front-table miss.
fn intern_global(s: &str) -> Sym {
    let mut t = TABLE.lock().expect("interner poisoned");
    if let Some(&hit) = t.get(s) {
        perf::record(|c| c.intern_hits += 1);
        return Sym(hit);
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    t.insert(leaked);
    let size = t.len() as u64;
    perf::record(|c| {
        c.intern_misses += 1;
        c.intern_table_size = c.intern_table_size.max(size);
    });
    Sym(leaked)
}

/// Number of distinct strings interned so far in this process.
pub fn table_size() -> usize {
    TABLE.lock().expect("interner poisoned").len()
}

impl Sym {
    /// The empty string's handle (pre-interned).
    pub const EMPTY: Sym = Sym("");

    /// Resolve to the interned string.
    pub fn as_str(self) -> &'static str {
        self.0
    }

    /// The identity of the string: its address. Interned strings are
    /// unique, so equal addresses mean equal strings. An empty string
    /// has no address of its own (two `""` literals may differ), so every
    /// empty `Sym` is identity 0.
    fn addr(self) -> usize {
        if self.0.is_empty() {
            0
        } else {
            self.0.as_ptr() as usize
        }
    }
}

impl PartialEq for Sym {
    fn eq(&self, other: &Self) -> bool {
        self.addr() == other.addr()
    }
}

impl Eq for Sym {}

impl Hash for Sym {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.addr());
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
        if self == other {
            std::cmp::Ordering::Equal
        } else {
            self.0.cmp(other.0)
        }
    }
}

// Serde writes the string, never its address: addresses differ from run to
// run and must not leak into any serialized artifact.
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
        assert!(std::ptr::eq(a.0, b.0), "one allocation per string");
        assert_eq!(a.as_str(), "submit-order");
    }

    #[test]
    fn distinct_strings_never_alias() {
        let a = intern("alpha-unique-x");
        let b = intern("beta-unique-x");
        assert_ne!(a, b);
        assert_ne!(a.addr(), b.addr());
    }

    #[test]
    fn empty_is_identity_zero_and_default() {
        assert_eq!(intern(""), Sym::EMPTY);
        assert_eq!(Sym::default().addr(), 0);
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
    fn serde_round_trips_the_string_not_the_address() {
        let s = intern("serde-round-trip");
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(json, "\"serde-round-trip\"");
        let back: Sym = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
