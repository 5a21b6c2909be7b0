//! The model's internal scene parse.
//!
//! When a screenshot enters the context window, the model's vision tower
//! produces an internal representation of "what is on screen". We model it
//! as a list of [`PerceivedElement`]s — geometry, coarse visual class,
//! OCR'd text — with profile-conditioned misses, jitter, and reading noise.
//! Everything downstream (grounding, action suggestion, validation) reasons
//! over the percept, never over the ground-truth page.

use rand::Rng;
use serde::{Deserialize, Serialize};

use eclair_gui::{Rect, Screenshot, VisualClass};
use eclair_vision::ocr::{read_item, Acuity};

use crate::profile::ModelProfile;
use crate::text::Text;

/// One element as the model perceives it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerceivedElement {
    /// Where the model believes the element is (viewport coords, jittered).
    pub rect: Rect,
    /// Visual class (as rendered; the model cannot see HTML tags).
    pub visual: VisualClass,
    /// Text as read by the model (OCR noise applied).
    pub text: String,
    /// Whether the element renders grayed out (disabled *look*).
    pub grayed: bool,
    /// Emphasized rendering: bold headings, primary buttons, *checked*
    /// check/radio glyphs — all visually distinct states.
    pub emphasis: bool,
    /// Index of the source paint item (oracle-only; graders use it).
    pub source_index: usize,
}

impl PerceivedElement {
    /// Whether the element looks interactive (what a model infers from
    /// visual affordances alone).
    pub fn looks_interactive(&self) -> bool {
        matches!(
            self.visual,
            VisualClass::BoxButton
                | VisualClass::TextLink
                | VisualClass::InputBox
                | VisualClass::CheckGlyph
                | VisualClass::RadioGlyph
                | VisualClass::IconGlyph
        )
    }
}

/// The model's parse of one frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenePercept {
    /// URL read from the browser chrome (models can read this reliably).
    pub url: String,
    /// Perceived elements, paint order preserved.
    pub elements: Vec<PerceivedElement>,
    /// Whether a caret bar was visible in this frame (focus is otherwise
    /// unobservable — the §4.3.1 integrity-constraint bottleneck).
    pub caret_seen: bool,
    /// Whether a modal-looking panel overlays the page.
    pub modal_seen: bool,
}

impl ScenePercept {
    /// Elements that look interactive.
    pub fn interactive(&self) -> impl Iterator<Item = &PerceivedElement> {
        self.elements.iter().filter(|e| e.looks_interactive())
    }

    /// All perceived text joined (for goal checks on confirmation screens).
    pub fn full_text(&self) -> String {
        self.elements
            .iter()
            .filter(|e| !e.text.is_empty())
            .map(|e| e.text.as_str())
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Best-matching element for a text description (fuzzy), if any scores
    /// above `min_sim`.
    pub fn best_match(&self, description: &str, min_sim: f64) -> Option<(usize, f64)> {
        let description = Text::new(description);
        let mut best: Option<(usize, f64)> = None;
        for (i, e) in self.elements.iter().enumerate() {
            if e.text.is_empty() {
                continue;
            }
            let s = Text::new(&e.text).fuzzy(&description);
            if s >= min_sim && best.map(|(_, bs)| s > bs).unwrap_or(true) {
                best = Some((i, s));
            }
        }
        best
    }
}

/// Run the vision tower over a screenshot.
pub fn perceive<R: Rng>(shot: &Screenshot, profile: &ModelProfile, rng: &mut R) -> ScenePercept {
    assert!(
        profile.multimodal,
        "text-only model '{}' cannot perceive screenshots",
        profile.name
    );
    let acuity = Acuity::new(profile.ocr_acuity);
    let mut elements = Vec::with_capacity(shot.items.len());
    let mut caret_seen = false;
    let mut modal_seen = false;
    for (idx, item) in shot.items.iter().enumerate() {
        match item.visual {
            VisualClass::CaretBar => {
                caret_seen = true;
                continue;
            }
            VisualClass::PanelEdge
                // A wide text-free panel edge reads as a modal. Only
                // hairline dividers are excluded by height — short dialogs
                // (a single line plus a button) are still dialogs.
                if item.rect.w >= 300 && item.rect.h > 12 && item.text.is_empty() => {
                    modal_seen = true;
                }
            _ => {}
        }
        let recall = profile.percept_recall(item.rect.size_bucket());
        if !rng.gen_bool(recall) {
            continue; // the model simply does not register this element
        }
        let jitter = profile.percept_jitter_px;
        let rect = if jitter > 0 {
            Rect {
                x: item.rect.x + rng.gen_range(-jitter..=jitter),
                y: item.rect.y + rng.gen_range(-jitter..=jitter),
                w: (item.rect.w as i32 + rng.gen_range(-jitter..=jitter)).max(4) as u32,
                h: (item.rect.h as i32 + rng.gen_range(-jitter..=jitter)).max(4) as u32,
            }
        } else {
            item.rect
        };
        let text = if item.visual == VisualClass::IconGlyph {
            // Glyph identity, not text: recognized only by GUI-literate
            // models (CogAgent reads a gear as "settings"; GPT-4 usually
            // sees an unlabeled pictograph).
            if rng.gen_bool(profile.icon_literacy) {
                item.text.to_string()
            } else {
                String::new()
            }
        } else {
            read_item(item, acuity, rng)
        };
        elements.push(PerceivedElement {
            rect,
            visual: item.visual,
            text,
            grayed: item.grayed,
            emphasis: item.emphasis,
            source_index: idx,
        });
    }
    ScenePercept {
        url: shot.url.clone(),
        elements,
        caret_seen,
        modal_seen,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eclair_gui::PageBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn shot() -> Screenshot {
        let mut b = PageBuilder::new("p", "/p");
        b.heading(1, "Inbox");
        b.button("compose", "Compose message");
        b.icon_button("bell", "Notifications");
        b.text_input("search", "Search", "find mail");
        b.finish().screenshot_at(0)
    }

    #[test]
    fn oracle_percept_is_lossless() {
        let s = shot();
        let mut rng = StdRng::seed_from_u64(1);
        let p = perceive(&s, &ModelProfile::oracle(), &mut rng);
        assert_eq!(p.elements.len(), s.items.len());
        assert!(p.full_text().contains("Compose message"));
        assert!(!p.caret_seen);
    }

    #[test]
    fn percept_loses_small_elements_sometimes() {
        let s = shot();
        let mut profile = ModelProfile::gpt4v();
        profile.percept_recall_small = 0.3;
        let mut missed = 0;
        for seed in 0..60 {
            let mut rng = StdRng::seed_from_u64(seed);
            let p = perceive(&s, &profile, &mut rng);
            if !p
                .elements
                .iter()
                .any(|e| e.visual == VisualClass::IconGlyph)
            {
                missed += 1;
            }
        }
        assert!(missed > 20, "icon should often vanish: {missed}/60");
    }

    #[test]
    fn best_match_finds_button() {
        let s = shot();
        let mut rng = StdRng::seed_from_u64(2);
        let p = perceive(&s, &ModelProfile::oracle(), &mut rng);
        let (idx, sim) = p.best_match("the Compose message button", 0.3).unwrap();
        assert!(p.elements[idx].text.contains("Compose"));
        assert!(sim > 0.5);
        assert!(p.best_match("nonexistent widget", 0.6).is_none());
    }

    #[test]
    #[should_panic(expected = "cannot perceive")]
    fn text_only_model_panics_on_images() {
        let s = shot();
        let mut rng = StdRng::seed_from_u64(3);
        perceive(&s, &ModelProfile::gpt4_text(), &mut rng);
    }

    #[test]
    fn caret_detection() {
        use eclair_gui::{PaintItem, Rect};
        let mut s = shot();
        s.items.push(PaintItem {
            rect: Rect::new(100, 100, 2, 20),
            visual: VisualClass::CaretBar,
            text: eclair_gui::Sym::EMPTY,
            emphasis: false,
            grayed: false,
        });
        let mut rng = StdRng::seed_from_u64(4);
        let p = perceive(&s, &ModelProfile::oracle(), &mut rng);
        assert!(p.caret_seen);
    }

    #[test]
    fn deterministic_under_seed() {
        let s = shot();
        let a = perceive(&s, &ModelProfile::gpt4v(), &mut StdRng::seed_from_u64(9));
        let b = perceive(&s, &ModelProfile::gpt4v(), &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }
}
