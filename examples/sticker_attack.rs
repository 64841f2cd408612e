//! Anatomy of the RP2 sticker attack: generate a masked, printable,
//! transform-robust perturbation against one stop sign and inspect where
//! its energy lands in the frequency domain (the paper's Figures 1–2).
//!
//! ```sh
//! cargo run --release --example sticker_attack
//! ```

use blurnet::{ModelZoo, Scale};
use blurnet_attacks::{l2_dissimilarity, Rp2Attack, Rp2Config};
use blurnet_data::{mask_coverage, sticker_mask, StickerLayout, STOP_CLASS_ID};
use blurnet_defenses::DefenseKind;
use blurnet_signal::high_frequency_ratio;
use blurnet_tensor::Tensor;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut zoo = ModelZoo::new(Scale::Smoke, 21)?;
    let mut baseline = zoo.get_or_train(&DefenseKind::Baseline)?;
    let stop_sign = zoo.dataset().stop_eval_images()[0].clone();

    // The threat model: the attacker may only touch the sign through a
    // sticker mask.
    let size = zoo.dataset().image_size();
    let mask = sticker_mask(size, size, StickerLayout::TwoBars)?;
    println!(
        "sticker mask covers {:.1}% of the image",
        mask_coverage(&mask) * 100.0
    );

    let attack = Rp2Attack::new(Rp2Config {
        iterations: 60,
        lambda: 0.002,
        ..Rp2Config::default()
    })?;
    let target = 17; // yield
    let result = attack.generate(baseline.network(), &stop_sign, target)?;

    let clean_pred = baseline.classify_one(&stop_sign)?;
    let adv_pred = baseline.classify_one(&result.adversarial)?;
    println!(
        "prediction: clean = class {clean_pred} (stop = {STOP_CLASS_ID}), adversarial = class {adv_pred} (target = {target})"
    );
    println!(
        "attack loss went from {:.3} to {:.3} over {} iterations",
        result.loss_trace.first().copied().unwrap_or(f32::NAN),
        result.loss_trace.last().copied().unwrap_or(f32::NAN),
        result.loss_trace.len()
    );
    println!(
        "L2 dissimilarity: {:.3}",
        l2_dissimilarity(&stop_sign, &result.adversarial)?
    );

    // Where does the perturbation's energy live? Mostly above the Nyquist
    // half-radius — exactly what the feature-map blur removes.
    let gray_pert: Tensor = result
        .perturbation
        .channel(0)?
        .add(&result.perturbation.channel(1)?)?
        .add(&result.perturbation.channel(2)?)?
        .scale(1.0 / 3.0);
    if gray_pert.l2_norm() > 0.0 {
        println!(
            "high-frequency energy fraction of the perturbation: {:.3}",
            high_frequency_ratio(&gray_pert, 0.5)?
        );
    }
    Ok(())
}
