//! Cross-crate integration tests: train → attack → defend → evaluate,
//! exercising the same paths the paper's experiments use, at smoke scale.

use blurnet::experiments::{table1, table2};
use blurnet::{ModelZoo, Scale};
use blurnet_attacks::{PgdAttack, PgdConfig, Rp2Attack, Rp2Config};
use blurnet_data::{DatasetConfig, SignDataset, STOP_CLASS_ID};
use blurnet_defenses::{train_defended_model, DefenseKind};
use blurnet_tensor::Tensor;
use blurnet_test_support::smoke_train_config;

#[test]
fn baseline_learns_above_chance_accuracy() {
    let dataset = SignDataset::generate(&DatasetConfig::smoke(), 7).unwrap();
    let model =
        train_defended_model(&DefenseKind::Baseline, &dataset, &smoke_train_config(4)).unwrap();
    let accuracy = model.training_report().test_accuracy;
    // 18 classes -> chance is ~5.6%. Even a few smoke epochs should beat it
    // by a wide margin on the synthetic dataset.
    assert!(
        accuracy > 0.3,
        "baseline accuracy {accuracy} should be well above chance"
    );
}

#[test]
fn rp2_succeeds_against_the_baseline_and_stays_on_the_sticker() {
    let dataset = SignDataset::generate(&DatasetConfig::smoke(), 7).unwrap();
    let mut model =
        train_defended_model(&DefenseKind::Baseline, &dataset, &smoke_train_config(4)).unwrap();
    let attack = Rp2Attack::new(Rp2Config {
        iterations: 60,
        ..Rp2Config::default()
    })
    .unwrap();
    let image = dataset.stop_eval_images()[0].clone();
    let clean_pred = model.classify_one(&image).unwrap();
    let result = attack.generate(model.network(), &image, 12).unwrap();
    // The perturbation must be confined to the sticker mask and valid range.
    assert!(result.adversarial.min().unwrap() >= 0.0);
    assert!(result.adversarial.max().unwrap() <= 1.0);
    let changed_pixels = result
        .perturbation
        .data()
        .iter()
        .filter(|v| v.abs() > 1e-6)
        .count();
    assert!(changed_pixels > 0, "attack must actually perturb the sign");
    assert!(
        (changed_pixels as f32) < 0.25 * result.perturbation.len() as f32,
        "perturbation must stay localized"
    );
    // The attack should at least degrade the classifier's view of the sign:
    // either the prediction changes or the stop-sign confidence drops.
    let adv_pred = model.classify_one(&result.adversarial).unwrap();
    let loss_first = result.loss_trace.first().copied().unwrap();
    let loss_last = result.loss_trace.last().copied().unwrap();
    assert!(
        adv_pred != clean_pred || loss_last < loss_first,
        "attack had no effect at all (pred {clean_pred} -> {adv_pred}, loss {loss_first} -> {loss_last})"
    );
}

#[test]
fn feature_map_blur_reduces_transfer_attack_success() {
    // The core Table I claim at smoke scale: transferring baseline
    // adversarial examples to a 5x5 feature-map-filtered victim succeeds
    // no more often than against the baseline itself.
    let mut zoo = ModelZoo::new(Scale::Smoke, 7).unwrap();
    let result = table1::run(&mut zoo).unwrap();
    let baseline_asr = result.rows[0].attack_success_rate;
    let feature5_asr = result
        .rows
        .iter()
        .find(|r| r.defense == "5x5 filter on L1 maps")
        .unwrap()
        .attack_success_rate;
    assert!(
        feature5_asr <= baseline_asr,
        "feature-map filtering should not increase transfer success \
         (baseline {baseline_asr}, filtered {feature5_asr})"
    );
}

#[test]
fn white_box_row_has_consistent_statistics() {
    let mut zoo = ModelZoo::new(Scale::Smoke, 7).unwrap();
    let row = table2::run_defense(&mut zoo, &DefenseKind::TotalVariation { alpha: 1e-4 }).unwrap();
    assert!((0.0..=1.0).contains(&row.legitimate_accuracy));
    assert!((0.0..=1.0).contains(&row.average_success_rate));
    assert!(row.worst_success_rate >= row.average_success_rate - 1e-6);
    assert!(row.l2_dissimilarity >= 0.0 && row.l2_dissimilarity < 2.0);
}

#[test]
fn pgd_is_stronger_than_rp2_under_its_own_threat_model() {
    // Table IV's point: the unconstrained pixel adversary succeeds at least
    // as often as the sticker-constrained one against the same model.
    let dataset = SignDataset::generate(&DatasetConfig::smoke(), 9).unwrap();
    let model =
        train_defended_model(&DefenseKind::Baseline, &dataset, &smoke_train_config(4)).unwrap();
    let images: Vec<Tensor> = dataset.stop_eval_images()[..3].to_vec();
    let labels = vec![STOP_CLASS_ID; images.len()];

    let pgd = PgdAttack::new(PgdConfig {
        epsilon: 0.06,
        step_size: 0.02,
        steps: 8,
        random_start: false,
    })
    .unwrap();
    let pgd_eval = pgd.evaluate(model.network(), &images, &labels).unwrap();

    let rp2 = Rp2Attack::new(Rp2Config {
        iterations: 20,
        ..Rp2Config::default()
    })
    .unwrap();
    let rp2_eval = rp2.evaluate(model.network(), &images, 12).unwrap();
    assert!(
        pgd_eval.success_rate + 1e-6 >= rp2_eval.success_rate,
        "PGD ({}) should be at least as successful as RP2 ({}) on the undefended model",
        pgd_eval.success_rate,
        rp2_eval.success_rate
    );
}

#[test]
fn trained_models_serialize_and_keep_their_predictions() {
    let dataset = SignDataset::generate(&DatasetConfig::tiny(), 11).unwrap();
    let mut model =
        train_defended_model(&DefenseKind::Baseline, &dataset, &smoke_train_config(1)).unwrap();
    let image = dataset.stop_eval_images()[0].clone();
    let before = model.classify_one(&image).unwrap();
    let bytes = model.network().to_bytes().unwrap();
    let restored = blurnet_nn::Sequential::from_bytes(&bytes).unwrap();
    let after = restored
        .predict_batch(&Tensor::stack(&[image]).unwrap())
        .unwrap()[0];
    assert_eq!(before, after);
}
