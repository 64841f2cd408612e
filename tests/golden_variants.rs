//! Golden persistence test over the **full experiment grid's** model
//! roster: every defense variant the full grid trains must survive
//! save → load → infer **bit-identically** — the restored model's test
//! accuracy equals the original's with exact `f32` equality — and the
//! accuracies themselves are pinned to a checked-in golden file, so a
//! format change that silently perturbs restored weights cannot hide.
//!
//! Each pin also carries a 64-bit FNV-1a hash of the variant's trained
//! network bytes (`sequential_to_bytes`), so a change to training that
//! moves a single weight by one rounding fails here even when the test
//! accuracy does not move.
//!
//! Regenerate after an *intentional* numeric or format change with:
//!
//! ```bash
//! BLURNET_BLESS=1 cargo test --test golden_variants
//! ```

use std::path::PathBuf;

use blurnet::experiments::grid::ExperimentGrid;
use blurnet::{ModelZoo, Scale};
use blurnet_defenses::{model_from_bytes, model_to_bytes};
use blurnet_nn::persist::sequential_to_bytes;
use blurnet_tensor::persist::fnv1a;
use serde::{Deserialize, Serialize};

const SEED: u64 = 7;

/// One pinned variant: its label, exact test accuracy and the FNV-1a hash
/// of its trained network bytes (hex, so the JSON stays exact).
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct VariantPin {
    label: String,
    accuracy: f32,
    network_fnv1a: String,
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("variant_persistence.json")
}

#[test]
fn every_full_grid_variant_roundtrips_bit_identically() {
    let scale = Scale::Smoke;
    let grid = ExperimentGrid::full(scale);

    // The full grid's model roster, deduped in grid order.
    let mut roster = Vec::new();
    for spec in grid.cells() {
        let defense = spec.required_defense(scale);
        if !roster.iter().any(|d: &_| d == &defense) {
            roster.push(defense);
        }
    }
    assert!(roster.len() >= 10, "the full grid trains many variants");

    let mut zoo = ModelZoo::new(scale, SEED).expect("zoo builds");
    let batch = zoo.dataset().test_batch().expect("test batch");
    let mut pins = Vec::with_capacity(roster.len());
    for defense in &roster {
        let mut original = zoo.get_or_train(defense).expect("variant trains");
        let bytes = model_to_bytes(&original).expect("variant serializes");
        let mut restored = model_from_bytes(&bytes).expect("variant deserializes");
        assert_eq!(restored.defense(), original.defense());

        // Re-serialization is canonical: identical bytes straight back
        // out (before any inference advances the smoothing RNG).
        assert_eq!(
            model_to_bytes(&restored).expect("re-serializes"),
            bytes,
            "{}: serialization is not canonical",
            defense.label()
        );

        // Exact equality, not a tolerance: the restored network (and, for
        // randomized smoothing, its restored RNG position) must classify
        // the whole test set identically to the in-memory original.
        let a = original.accuracy(&batch).expect("original accuracy");
        let b = restored.accuracy(&batch).expect("restored accuracy");
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{}: save→load→infer diverged ({a} vs {b})",
            defense.label()
        );
        pins.push(VariantPin {
            label: defense.label(),
            accuracy: a,
            network_fnv1a: format!("{:016x}", fnv1a(&sequential_to_bytes(original.network()))),
        });
    }

    let path = golden_path();
    if std::env::var_os("BLURNET_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir has a parent"))
            .expect("create golden dir");
        let json = serde_json::to_string(&pins).expect("pins serialize");
        std::fs::write(&path, json).expect("write golden file");
        eprintln!("blessed {}", path.display());
        return;
    }

    let golden_json = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run BLURNET_BLESS=1 cargo test --test golden_variants",
            path.display()
        )
    });
    let golden: Vec<VariantPin> = serde_json::from_str(&golden_json).expect("golden parses");
    assert_eq!(
        pins, golden,
        "full-grid variant accuracies drifted from the golden persistence values"
    );
}
