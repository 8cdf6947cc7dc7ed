//! Attack gallery: run the paper's attack classes against every protection
//! scheme on the simulated CPU and print the outcome matrix.
//!
//! ```text
//! cargo run --release --example rop_gallery
//! ```

use pacstack::attacks::rop::{run_attack, WriteTarget};
use pacstack::attacks::victim::VictimError;
use pacstack::attacks::{gadget, reuse};
use pacstack::compiler::Scheme;

fn main() -> Result<(), VictimError> {
    println!("Return-address overwrite (classic ROP, §2.1):");
    for scheme in Scheme::ALL {
        let outcome = run_attack(scheme, WriteTarget::SavedReturnAddress)?;
        println!("  {scheme:<28} {outcome}");
    }

    println!("\nLinear stack overflow (what canaries are for):");
    for scheme in Scheme::ALL {
        let outcome = run_attack(scheme, WriteTarget::LinearOverflow)?;
        println!("  {scheme:<28} {outcome}");
    }

    println!("\nShadow-stack overwrite (location leaked):");
    for scheme in [Scheme::ShadowCallStack, Scheme::PacStack] {
        let outcome = run_attack(scheme, WriteTarget::ShadowStackTop)?;
        println!("  {scheme:<28} {outcome}");
    }

    println!("\nSigned-return-address reuse at equal SP (§2.2.1, Listing 6):");
    for scheme in [Scheme::PacRet, Scheme::PacStackNomask, Scheme::PacStack] {
        let result = reuse::run_reuse(scheme, true)?;
        println!("  {scheme:<28} {} ({} emits)", result.outcome, result.emits);
    }

    println!("\nTail-call signing gadget (§6.3.1, Listings 7–8):");
    for scheme in [Scheme::PacStackNomask, Scheme::PacStack] {
        let outcome = gadget::tail_call_gadget_attack(scheme)?;
        println!("  {scheme:<28} {outcome}");
    }

    println!("\nLegend: hijacked = adversary gadget ran; crashed = attack detected");
    println!("        (process killed); ineffective = write changed nothing.");
    Ok(())
}
