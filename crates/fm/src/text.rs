//! Lexical similarity for the simulated language head.
//!
//! The simulated FM "understands" a description like *"the Invite member
//! button"* by comparing its tokens with the text it perceives on screen.
//! This is deliberately shallow — token overlap with light normalization —
//! because the failure modes the paper documents (two buttons with the same
//! label, an icon with no label at all) survive any amount of lexical
//! cleverness.
//!
//! Every comparison runs on a [`Text`]: a string lowercased, split into
//! tokens and stems, and collected into chars once. A caller that compares
//! one string with many (SOP inference scores every candidate against every
//! new text) prepares each string once instead of once per pair; the free
//! functions prepare both sides and compare once. Edit distance has two
//! exact paths: Myers' bit-vector algorithm when the shorter string has at
//! most 64 chars, and a single-row DP for longer strings, the only path
//! that can take them. The hit counts, lengths and distances are the same
//! integers the allocate-per-call formulation computed, so every score is
//! bit-identical to it; the tests keep that formulation as a reference.

/// A string prepared once for repeated comparison.
#[derive(Debug, Clone)]
pub struct Text {
    /// Char count of the original string; lowercasing can change it
    /// ("İ" lowercases to two chars).
    len: usize,
    lower: String,
    tokens: Vec<Token>,
    chars: Vec<char>,
}

/// A token's byte span in [`Text::lower`]; its stem is the prefix of the
/// span that ends at `stem_end`.
#[derive(Debug, Clone, Copy)]
struct Token {
    start: usize,
    end: usize,
    stem_end: usize,
}

impl Token {
    /// Crude suffix stripping ("saved"/"saving"/"saves" → "sav"), enough
    /// for confirmation-text ↔ button-label agreement. `token` is already
    /// lowercase, and lowercasing is idempotent, so the stem is a prefix.
    fn new(lower: &str, start: usize, end: usize) -> Self {
        let token = &lower[start..end];
        let stem_len = ["ing", "ed", "es", "s", "e"]
            .iter()
            .filter_map(|suffix| token.strip_suffix(suffix))
            .map(str::len)
            .find(|&len| len >= 3)
            .unwrap_or(token.len());
        Token {
            start,
            end,
            stem_end: start + stem_len,
        }
    }
}

impl Text {
    /// Prepare `text`: lowercase it, then find its tokens, their stems and
    /// its chars in one pass over the lowercase string.
    pub fn new(text: &str) -> Self {
        let lower = text.to_lowercase();
        let mut tokens = Vec::new();
        let mut chars = Vec::with_capacity(lower.len());
        let mut start = None;
        for (i, c) in lower.char_indices() {
            chars.push(c);
            match (c.is_alphanumeric(), start) {
                (true, None) => start = Some(i),
                (false, Some(s)) => {
                    tokens.push(Token::new(&lower, s, i));
                    start = None;
                }
                _ => {}
            }
        }
        if let Some(s) = start {
            tokens.push(Token::new(&lower, s, lower.len()));
        }
        Text {
            len: text.chars().count(),
            lower,
            tokens,
            chars,
        }
    }

    /// The lowercase string.
    pub fn lower(&self) -> &str {
        &self.lower
    }

    /// Lowercase alphanumeric tokens, in order.
    pub fn tokens(&self) -> impl ExactSizeIterator<Item = &str> + Clone {
        self.tokens.iter().map(|t| &self.lower[t.start..t.end])
    }

    fn stems(&self) -> impl ExactSizeIterator<Item = &str> + Clone {
        self.tokens.iter().map(|t| &self.lower[t.start..t.stem_end])
    }

    /// Dice-style overlap between token bags in [0, 1].
    pub fn overlap(&self, other: &Text) -> f64 {
        dice(self.tokens(), other.tokens())
    }

    /// Dice overlap over stemmed tokens ("You saved the product" ↔ "Save").
    pub fn stem_overlap(&self, other: &Text) -> f64 {
        dice(self.stems(), other.stems())
    }

    /// Similarity robust to a few corrupted characters: max of token
    /// overlap and normalized edit similarity.
    pub fn fuzzy(&self, other: &Text) -> f64 {
        let max_len = self.len.max(other.len);
        if max_len == 0 {
            return 1.0;
        }
        let e = 1.0 - levenshtein(&self.chars, &other.chars) as f64 / max_len as f64;
        self.overlap(other).max(e)
    }
}

/// `2·hits / (|a| + |b|)`, where `hits` is the size of the bags' multiset
/// intersection: each distinct token, counted at its first occurrence in
/// `a`, hits min(count in `a`, count in `b`) times.
fn dice<'a>(
    a: impl ExactSizeIterator<Item = &'a str> + Clone,
    b: impl ExactSizeIterator<Item = &'a str> + Clone,
) -> f64 {
    let (na, nb) = (a.len(), b.len());
    if na == 0 || nb == 0 {
        return 0.0;
    }
    let hits: usize = a
        .clone()
        .enumerate()
        .filter(|&(i, t)| !a.clone().take(i).any(|u| u == t))
        .map(|(i, t)| {
            let in_a = a.clone().skip(i).filter(|&u| u == t).count();
            in_a.min(b.clone().filter(|&u| u == t).count())
        })
        .sum();
    2.0 * hits as f64 / (na + nb) as f64
}

/// Lowercase alphanumeric tokens.
pub fn tokens(text: &str) -> Vec<String> {
    Text::new(text).tokens().map(str::to_string).collect()
}

/// Dice-style overlap between token bags in [0, 1].
pub fn overlap(a: &str, b: &str) -> f64 {
    Text::new(a).overlap(&Text::new(b))
}

/// Dice overlap over stemmed tokens ("You saved the product" ↔ "Save").
pub fn stem_overlap(a: &str, b: &str) -> f64 {
    Text::new(a).stem_overlap(&Text::new(b))
}

/// Whether `needle`'s tokens all appear in `hay`.
pub fn contains_all(hay: &str, needle: &str) -> bool {
    let hay = Text::new(hay);
    Text::new(needle)
        .tokens()
        .all(|t| hay.tokens().any(|h| h == t))
}

/// Levenshtein distance (for OCR-noise-tolerant comparisons).
pub fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    levenshtein(&a, &b)
}

/// Similarity robust to a few corrupted characters: max of token overlap
/// and normalized edit similarity.
pub fn fuzzy_similarity(a: &str, b: &str) -> f64 {
    Text::new(a).fuzzy(&Text::new(b))
}

/// Exact Levenshtein distance between two char sequences.
fn levenshtein(a: &[char], b: &[char]) -> usize {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.is_empty() {
        long.len()
    } else if short == long {
        0
    } else if short.len() <= 64 {
        myers(short, long)
    } else {
        single_row_dp(short, long)
    }
}

/// Myers' bit-vector edit distance (Myers 1999, in Hyyrö's formulation)
/// for a pattern of 1..=64 chars. Bit `i` of `pv`/`mv` says the DP
/// column's vertical delta at pattern row `i` is +1/−1; each text char
/// advances the column in a fixed number of word operations, and `score`
/// tracks the column's last row.
fn myers(pattern: &[char], text: &[char]) -> usize {
    debug_assert!((1..=64).contains(&pattern.len()));
    let mut ascii_peq = [0u64; 128];
    for (i, &c) in pattern.iter().enumerate() {
        if c.is_ascii() {
            ascii_peq[c as usize] |= 1 << i;
        }
    }
    let peq = |c: char| {
        if c.is_ascii() {
            ascii_peq[c as usize]
        } else {
            pattern
                .iter()
                .enumerate()
                .filter(|&(_, &p)| p == c)
                .fold(0u64, |m, (i, _)| m | 1 << i)
        }
    };
    let last = 1u64 << (pattern.len() - 1);
    let (mut pv, mut mv, mut score) = (!0u64, 0u64, pattern.len());
    for &c in text {
        let eq = peq(c);
        let xv = eq | mv;
        let xh = ((eq & pv).wrapping_add(pv) ^ pv) | eq;
        let ph = mv | !(xh | pv);
        let mh = pv & xh;
        if ph & last != 0 {
            score += 1;
        } else if mh & last != 0 {
            score -= 1;
        }
        // Row 0 of the DP is 0, 1, 2, …: every horizontal delta there is +1.
        let ph = (ph << 1) | 1;
        let mh = mh << 1;
        pv = mh | !(xv | ph);
        mv = ph & xv;
    }
    score
}

/// The O(n·m) Levenshtein DP over one row of `short.len() + 1` cells.
fn single_row_dp(short: &[char], long: &[char]) -> usize {
    let mut row: Vec<usize> = (0..=short.len()).collect();
    for (i, cl) in long.iter().enumerate() {
        let mut diag = row[0];
        row[0] = i + 1;
        for (j, cs) in short.iter().enumerate() {
            let up = row[j + 1];
            row[j + 1] = (up + 1).min(row[j] + 1).min(diag + usize::from(cl != cs));
            diag = up;
        }
    }
    row[short.len()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The allocate-per-call formulation `Text` replaced, kept as the
    /// oracle every prepared score must match bit for bit.
    mod reference {
        pub fn tokens(text: &str) -> Vec<String> {
            text.to_lowercase()
                .split(|c: char| !c.is_alphanumeric())
                .filter(|t| !t.is_empty())
                .map(str::to_string)
                .collect()
        }

        fn dice(ta: &[String], tb: &[String]) -> f64 {
            if ta.is_empty() || tb.is_empty() {
                return 0.0;
            }
            let mut remaining: Vec<&String> = tb.iter().collect();
            let mut hits = 0usize;
            for t in ta {
                if let Some(pos) = remaining.iter().position(|r| *r == t) {
                    remaining.swap_remove(pos);
                    hits += 1;
                }
            }
            2.0 * hits as f64 / (ta.len() + tb.len()) as f64
        }

        pub fn overlap(a: &str, b: &str) -> f64 {
            dice(&tokens(a), &tokens(b))
        }

        fn stem(token: &str) -> String {
            let t = token.to_lowercase();
            for suffix in ["ing", "ed", "es", "s", "e"] {
                if let Some(stripped) = t.strip_suffix(suffix) {
                    if stripped.len() >= 3 {
                        return stripped.to_string();
                    }
                }
            }
            t
        }

        pub fn stem_overlap(a: &str, b: &str) -> f64 {
            let ta: Vec<String> = tokens(a).iter().map(|t| stem(t)).collect();
            let tb: Vec<String> = tokens(b).iter().map(|t| stem(t)).collect();
            dice(&ta, &tb)
        }

        pub fn contains_all(hay: &str, needle: &str) -> bool {
            let hay_tokens = tokens(hay);
            tokens(needle).iter().all(|t| hay_tokens.contains(t))
        }

        pub fn edit_distance(a: &str, b: &str) -> usize {
            let a: Vec<char> = a.chars().collect();
            let b: Vec<char> = b.chars().collect();
            if a.is_empty() {
                return b.len();
            }
            if b.is_empty() {
                return a.len();
            }
            let mut prev: Vec<usize> = (0..=b.len()).collect();
            let mut cur = vec![0usize; b.len() + 1];
            for (i, ca) in a.iter().enumerate() {
                cur[0] = i + 1;
                for (j, cb) in b.iter().enumerate() {
                    let cost = usize::from(ca != cb);
                    cur[j + 1] = (prev[j + 1] + 1).min(cur[j] + 1).min(prev[j] + cost);
                }
                std::mem::swap(&mut prev, &mut cur);
            }
            prev[b.len()]
        }

        pub fn fuzzy_similarity(a: &str, b: &str) -> f64 {
            let o = overlap(a, b);
            let max_len = a.chars().count().max(b.chars().count());
            if max_len == 0 {
                return 1.0;
            }
            let e =
                1.0 - edit_distance(&a.to_lowercase(), &b.to_lowercase()) as f64 / max_len as f64;
            o.max(e)
        }
    }

    /// Every prepared score, token list and distance equals the reference.
    fn assert_matches_reference(a: &str, b: &str) {
        let (ta, tb) = (Text::new(a), Text::new(b));
        assert_eq!(ta.tokens().collect::<Vec<_>>(), reference::tokens(a));
        assert_eq!(tokens(a), reference::tokens(a));
        let pairs = [
            ("fuzzy", ta.fuzzy(&tb), reference::fuzzy_similarity(a, b)),
            ("overlap", ta.overlap(&tb), reference::overlap(a, b)),
            (
                "stem_overlap",
                ta.stem_overlap(&tb),
                reference::stem_overlap(a, b),
            ),
            (
                "fuzzy_similarity",
                fuzzy_similarity(a, b),
                reference::fuzzy_similarity(a, b),
            ),
        ];
        for (name, got, want) in pairs {
            assert_eq!(got.to_bits(), want.to_bits(), "{name}({a:?}, {b:?})");
        }
        assert_eq!(
            contains_all(a, b),
            reference::contains_all(a, b),
            "contains_all({a:?}, {b:?})"
        );
        let (ca, cb): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
        let want = reference::edit_distance(a, b);
        assert_eq!(levenshtein(&ca, &cb), want, "levenshtein({a:?}, {b:?})");
        assert_eq!(single_row_dp(&ca, &cb), want, "dp({a:?}, {b:?})");
        if (1..=64).contains(&ca.len().min(cb.len())) {
            let (short, long) = if ca.len() <= cb.len() {
                (&ca, &cb)
            } else {
                (&cb, &ca)
            };
            assert_eq!(myers(short, long), want, "myers({a:?}, {b:?})");
        }
    }

    /// A char drawn mostly from a small alphabet (so tokens, stems and
    /// edits collide often), sometimes from all of Unicode.
    fn any_char((pick, code): (u32, u32)) -> char {
        const ALPHABET: &[char] = &[
            'a', 'b', 'd', 'e', 'g', 'i', 'n', 's', 'E', 'S', ' ', ' ', '-', '1', 'é', 'İ', 'Σ',
            'σ', 'ς', 'ß',
        ];
        if pick == 0 {
            char::from_u32(code).unwrap_or('\u{fffd}')
        } else {
            ALPHABET[code as usize % ALPHABET.len()]
        }
    }

    proptest! {
        #[test]
        fn prepared_kernel_is_bit_identical_to_the_reference(
            strings in proptest::collection::vec(
                proptest::collection::vec((0u32..4, 0u32..0x11_0000).prop_map(any_char), 0..131)
                    .prop_map(String::from_iter),
                2..9,
            ),
        ) {
            for a in &strings {
                for b in &strings {
                    assert_matches_reference(a, b);
                }
            }
        }
    }

    #[test]
    fn pinned_edge_cases_match_the_reference() {
        let mut cases: Vec<String> = ["", "İ", "i", "İstanbul", "ΟΔΟΣ", "οδος", "ΣΑΣ ΟΔΟΣ x"]
            .into_iter()
            .map(String::from)
            .collect();
        for n in [63, 64, 65] {
            cases.push("ab".repeat(n).chars().take(n).collect());
            cases.push("ba".repeat(n).chars().take(n).collect());
            cases.push(format!(
                "{}İ",
                "x ".repeat(n).chars().take(n - 1).collect::<String>()
            ));
        }
        for a in &cases {
            for b in &cases {
                assert_matches_reference(a, b);
            }
        }
        // "İ" lowercases to two chars ("i" and a combining dot, which also
        // splits the token); `max_len` still counts the original one.
        assert_eq!(fuzzy_similarity("İx", "ix"), 0.5);
    }

    /// `Token::new` takes a stem as a prefix of the lowercase token, which
    /// holds only because lowercasing a lowercased char changes nothing.
    #[test]
    fn lowercasing_is_idempotent_so_stems_are_prefixes() {
        for c in (0..=0x10_FFFF).filter_map(char::from_u32) {
            let lower: String = c.to_lowercase().collect();
            assert_eq!(lower.to_lowercase(), lower, "{c:?}");
        }
    }

    #[test]
    fn overlap_basics() {
        assert_eq!(overlap("Invite member", "Invite member"), 1.0);
        assert!(overlap("Invite member", "the Invite member button") > 0.5);
        assert_eq!(overlap("", "x"), 0.0);
        assert!(overlap("Delete project", "New issue") < 0.1);
    }

    #[test]
    fn contains_all_tokens() {
        assert!(contains_all(
            "Click the 'Save changes' button",
            "save changes"
        ));
        assert!(!contains_all("Click Save", "save changes"));
    }

    #[test]
    fn edit_distance_known_values() {
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("abc", "abc"), 0);
    }

    #[test]
    fn fuzzy_tolerates_ocr_noise() {
        // 'Settings' OCR'd as 'Setting5'.
        assert!(fuzzy_similarity("Settings", "Setting5") > 0.8);
        assert!(fuzzy_similarity("Settings", "Dashboard") < 0.5);
    }

    #[test]
    fn fuzzy_of_empty_is_one() {
        assert_eq!(fuzzy_similarity("", ""), 1.0);
    }
}
