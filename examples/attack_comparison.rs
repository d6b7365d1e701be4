//! Compares the SAT-attack hardness of the three locking families at equal
//! key-gate counts: XOR/XNOR key gates, MUX locking with decoys, and the
//! paper's LUT-based obfuscation.
//!
//! ```text
//! cargo run --release -p bench --example attack_comparison
//! ```

use attack::{attack_locked, AttackConfig};
use obfuscate::{lock_random, overhead::overhead, SchemeKind};
use std::error::Error;
use synth::GeneratorConfig;

fn main() -> Result<(), Box<dyn Error>> {
    let base = synth::generate(&GeneratorConfig::new("demo", 16, 8, 180).with_seed(3));
    println!("base circuit: {base}");
    println!(
        "\n{:<12} {:>6} {:>9} {:>7} {:>12} {:>12} {:>9}",
        "scheme", "gates", "key bits", "DIPs", "work", "synth sec", "area x"
    );

    let schemes = [
        SchemeKind::XorLock,
        SchemeKind::MuxLock,
        SchemeKind::LutLock { lut_size: 2 },
        SchemeKind::LutLock { lut_size: 4 },
    ];
    for scheme in schemes {
        for gates in [4usize, 8] {
            let locked = lock_random(&base, scheme, gates, 17)?;
            let config = AttackConfig {
                work_budget: Some(200_000_000),
                ..AttackConfig::default()
            };
            let result = attack_locked(&locked, &config)?;
            let verified = result
                .key()
                .map(|k| locked.verify_key(k))
                .transpose()?
                .unwrap_or(false);
            println!(
                "{:<12} {:>6} {:>9} {:>7} {:>12} {:>12.4} {:>9.2}{}",
                scheme.to_string(),
                gates,
                locked.key_len(),
                result.iterations,
                result.runtime.work,
                result.runtime.seconds(),
                overhead(&locked).area_factor(),
                if verified { "" } else { "  (budget)" }
            );
        }
    }
    println!(
        "\nLUT locking buys far more SAT hardness per locked gate than XOR \
         locking — at a much higher area cost (the paper's motivating trade-off)."
    );
    Ok(())
}
