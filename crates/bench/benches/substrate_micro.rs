//! Micro-benchmarks over the substrates: layout, rendering, diffing,
//! detection, perception, text similarity, and a single grounding call —
//! the per-step costs every experiment above is built from.

use criterion::{criterion_group, criterion_main, Criterion};
use eclair_core::execute::ground::{ground_click, GroundView, GroundingStrategy};
use eclair_fm::text::{edit_distance, fuzzy_similarity, Text};
use eclair_fm::{FmModel, ModelProfile};
use eclair_gui::PageBuilder;
use eclair_sites::Site;
use eclair_vision::detector::YoloNasSim;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn busy_page() -> eclair_gui::Page {
    let mut b = PageBuilder::new("bench", "/bench");
    b.heading(1, "Benchmark page");
    for i in 0..12 {
        b.row(|b| {
            b.link(format!("l{i}"), format!("Item row {i}"));
            b.button(format!("b{i}"), format!("Action {i}"));
            b.icon_button(format!("i{i}"), format!("Icon {i}"));
        });
        b.text(format!("Row {i} body text for visual density"));
    }
    b.finish()
}

fn bench_substrates(c: &mut Criterion) {
    let page = busy_page();
    c.bench_function("gui/layout_relayout", |b| {
        let mut p = page.clone();
        b.iter(|| {
            p.relayout();
            black_box(p.content_height)
        })
    });
    c.bench_function("gui/screenshot_render", |b| {
        b.iter(|| black_box(page.screenshot_at(0)))
    });
    let shot = page.screenshot_at(0);
    let shot2 = page.screenshot_at(20);
    c.bench_function("vision/diff", |b| {
        b.iter(|| black_box(eclair_vision::diff::diff(&shot, &shot2)))
    });
    c.bench_function("vision/detector", |b| {
        let det = YoloNasSim::default();
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| black_box(det.detect(&shot, &mut rng)))
    });
    c.bench_function("fm/perceive", |b| {
        let mut model = FmModel::new(ModelProfile::gpt4v(), 1);
        b.iter(|| black_box(model.perceive(&shot)))
    });
    // Two short UI labels, as SOP inference compares them: each free call
    // prepares both strings, a prepared pair only compares.
    let (label, toast) = ("Create issue", "Issue created successfully");
    c.bench_function("fm/fuzzy_similarity", |b| {
        b.iter(|| black_box(fuzzy_similarity(black_box(label), black_box(toast))))
    });
    c.bench_function("fm/text_fuzzy_prepared", |b| {
        let (label, toast) = (Text::new(label), Text::new(toast));
        b.iter(|| black_box(black_box(&label).fuzzy(black_box(&toast))))
    });
    // Both sides longer than 64 chars: the DP path.
    let long_a = "Row 7 body text for visual density, rendered twice to pass the word size";
    let long_b = "Row 9 body text for visual density, re-rendered twice to pass the word size";
    c.bench_function("fm/edit_distance_long", |b| {
        b.iter(|| black_box(edit_distance(black_box(long_a), black_box(long_b))))
    });
    c.bench_function("core/ground_click_som_html", |b| {
        let mut model = FmModel::new(ModelProfile::gpt4v(), 2);
        b.iter(|| {
            let view = GroundView {
                shot: &shot,
                page: Some(&page),
                scroll_y: 0,
            };
            black_box(ground_click(
                &mut model,
                GroundingStrategy::SomHtml,
                &view,
                "the 'Action 5' button",
            ))
        })
    });
    c.bench_function("sites/launch_gitlab", |b| {
        b.iter(|| black_box(Site::Gitlab.launch().url()))
    });
}

criterion_group!(benches, bench_substrates);
criterion_main!(benches);
