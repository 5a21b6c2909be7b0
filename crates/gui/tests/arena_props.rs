//! Property tests for the GUI core: the string interner and the layout
//! walk.
//!
//! 1. **Interner determinism** — equal strings always intern to the same
//!    [`Sym`] and hash equally, distinct strings never alias, every empty
//!    `Sym` is the same one, and serde round-trips the *string* (addresses
//!    must never leak into artifacts).
//! 2. **Relayout is a pure function of the serialized page** — after any
//!    sequence of widget mutations and subtree removals, [`Page::relayout`]
//!    of the page and of its `serde_json` round trip produce byte-identical
//!    pages and frames: no layout input lives outside what serializes.

use std::hash::{BuildHasher, RandomState};

use eclair_gui::{intern, Page, PageBuilder, Sym, WidgetId};
use proptest::prelude::*;

proptest! {
    #[test]
    fn interner_round_trips_and_never_aliases(
        strings in proptest::collection::vec("[a-z0-9 _-]{0,24}", 1..30),
    ) {
        let syms: Vec<Sym> = strings.iter().map(|s| intern(s)).collect();
        for (s, sym) in strings.iter().zip(&syms) {
            prop_assert_eq!(sym.as_str(), s.as_str());
            // Re-interning is idempotent: same handle, forever.
            prop_assert_eq!(intern(s), *sym);
        }
        let hasher = RandomState::new();
        for i in 0..strings.len() {
            for j in 0..strings.len() {
                prop_assert_eq!(
                    strings[i] == strings[j],
                    syms[i] == syms[j],
                    "content equality and handle equality must coincide"
                );
                if syms[i] == syms[j] {
                    prop_assert_eq!(hasher.hash_one(syms[i]), hasher.hash_one(syms[j]));
                }
            }
        }
    }

    #[test]
    fn interner_serde_writes_the_string_not_the_address(s in "[a-zA-Z0-9 ./-]{0,24}") {
        let sym = intern(&s);
        let json = serde_json::to_string(&sym).unwrap();
        prop_assert_eq!(&json, &serde_json::to_string(&s).unwrap());
        let back: Sym = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, sym);
    }
}

#[test]
fn every_empty_sym_is_the_same_sym() {
    let hasher = RandomState::new();
    for empty in [intern(""), Sym::default(), Sym::from("")] {
        assert_eq!(empty, Sym::EMPTY);
        assert_eq!(hasher.hash_one(empty), hasher.hash_one(Sym::EMPTY));
        assert!(empty.is_empty());
    }
    assert_ne!(intern("x"), Sym::EMPTY);
}

/// A page with enough structure for mutations to matter: nested sections,
/// a form, a row (horizontal flow), and leaf text.
fn build_page() -> Page {
    let mut b = PageBuilder::new("Props", "/props");
    b.heading(1, "Layout proptest");
    b.section(|b| {
        b.text("intro text");
        b.form("form-a", |b| {
            b.text_input("name", "Name", "your name");
            b.text_input("email", "Email", "you@example.com");
            b.checkbox("subscribe", "Subscribe", false);
            b.button("save", "Save");
        });
    });
    b.section(|b| {
        b.row(|b| {
            b.button("one", "One");
            b.button("two", "Two");
            b.button("three", "Three");
        });
        b.text("footer text");
    });
    b.finish()
}

/// Non-root ids whose slot still holds a widget (mutation candidates).
/// Only the root and tombstoned slots have no parent.
fn live_ids(p: &Page) -> Vec<WidgetId> {
    (0..p.len() as u32)
        .map(WidgetId)
        .filter(|&id| p.get(id).parent.is_some())
        .collect()
}

proptest! {
    #[test]
    fn relayout_is_a_pure_function_of_the_serialized_page(
        ops in proptest::collection::vec((0u8..4, 0usize..64, 0usize..8), 0..10),
    ) {
        let mut page = build_page();
        for (kind, pick, payload) in ops {
            let candidates = live_ids(&page);
            if candidates.is_empty() {
                break;
            }
            let id = candidates[pick % candidates.len()];
            match kind {
                0 => page.get_mut(id).value = format!("v{payload}").into(),
                1 => page.get_mut(id).label = format!("relabeled {payload}").into(),
                2 => {
                    let vis = !page.get(id).visible;
                    page.get_mut(id).visible = vis;
                }
                _ => {
                    page.remove_subtree(id);
                }
            }
            let mut twin: Page =
                serde_json::from_str(&serde_json::to_string(&page).unwrap()).unwrap();
            page.relayout();
            twin.relayout();
            // Byte equivalence after *every* step, not just at the end:
            // an intermediate divergence that later self-corrects would
            // still have served a wrong frame.
            prop_assert_eq!(page.content_height, twin.content_height);
            let fa = page.screenshot_at(0);
            let fb = twin.screenshot_at(0);
            prop_assert_eq!(fa.frame_hash(), fb.frame_hash());
            prop_assert_eq!(&fa, &fb);
            prop_assert_eq!(
                serde_json::to_string(&page).unwrap(),
                serde_json::to_string(&twin).unwrap()
            );
        }
    }
}
