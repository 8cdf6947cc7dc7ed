//! The `pac*` / `aut*` / `xpac` / `pacga` operations.

use crate::{PaKey, PaKeys, VaLayout};
use pacstack_telemetry as telemetry;
use std::error::Error;
use std::fmt;

/// Telemetry counter name for PAC computations under one key register.
/// Static strings keep the hot path allocation-free when recording.
fn pac_compute_counter(key: PaKey) -> &'static str {
    match key {
        PaKey::Ia => "pauth_pac_computes_total{key=\"IA\"}",
        PaKey::Ib => "pauth_pac_computes_total{key=\"IB\"}",
        PaKey::Da => "pauth_pac_computes_total{key=\"DA\"}",
        PaKey::Db => "pauth_pac_computes_total{key=\"DB\"}",
        PaKey::Ga => "pauth_pac_computes_total{key=\"GA\"}",
    }
}

/// How `aut*` reports a verification failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AuthFailure {
    /// Pre-ARMv8.6 behaviour: strip the PAC, flip the error bit, and let the
    /// invalid pointer fault when it is eventually translated.
    #[default]
    ErrorBit,
    /// ARMv8.6-A `FPAC`: fault immediately inside `aut*`.
    Fault,
}

/// Verification failed.
///
/// Carries the *corrupted* pointer `aut*` produced (error-bit mode) so a CPU
/// model can continue executing until the pointer is used, exactly as real
/// hardware does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AuthError {
    /// The pointer with its PAC stripped and the key-specific error bit set.
    pub corrupted: u64,
    /// Which key the failed authentication used.
    pub key: PaKey,
}

impl fmt::Display for AuthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pointer authentication failed for key {}; corrupted pointer {:#018x}",
            self.key, self.corrupted
        )
    }
}

impl Error for AuthError {}

/// The PA functional unit: computes, inserts and verifies PACs for a given
/// address-space layout.
///
/// Stateless with respect to keys — the key set is passed per operation, as
/// the key registers belong to the (modelled) kernel.
///
/// # Examples
///
/// ```
/// use pacstack_pauth::{PaKey, PaKeys, PointerAuth, VaLayout};
///
/// let pa = PointerAuth::new(VaLayout::default());
/// let keys = PaKeys::from_seed(0);
/// let signed = pa.pac(&keys, PaKey::Ib, 0x40_0000, 0);
/// assert_eq!(pa.aut(&keys, PaKey::Ib, signed, 0), Ok(0x40_0000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointerAuth {
    layout: VaLayout,
    failure: AuthFailure,
}

impl PointerAuth {
    /// Creates a PA unit with pre-ARMv8.6 (error-bit) failure semantics.
    pub fn new(layout: VaLayout) -> Self {
        Self {
            layout,
            failure: AuthFailure::ErrorBit,
        }
    }

    /// Creates a PA unit with the given failure mode.
    pub fn with_failure(layout: VaLayout, failure: AuthFailure) -> Self {
        Self { layout, failure }
    }

    /// The pointer layout this unit was configured with.
    pub fn layout(&self) -> VaLayout {
        self.layout
    }

    /// The failure mode this unit was configured with.
    pub fn failure(&self) -> AuthFailure {
        self.failure
    }

    /// The PAC width in bits (`b` in the paper's analysis).
    pub fn pac_bits(&self) -> u32 {
        self.layout.pac_bits()
    }

    /// Computes the raw truncated MAC `H_K(pointer, modifier)` as a compact
    /// `pac_bits()`-wide value, without embedding it in a pointer.
    ///
    /// This is the function the paper's security analysis treats as a random
    /// oracle. The pointer's PAC field is ignored (the MAC is computed over
    /// the canonical address), so the result depends only on the address
    /// bits, tag and modifier.
    pub fn compute_pac(&self, keys: &PaKeys, key: PaKey, pointer: u64, modifier: u64) -> u64 {
        if telemetry::enabled() {
            telemetry::counter(pac_compute_counter(key), 1);
        }
        let mac = keys.cipher(key).encrypt(self.strip(pointer), modifier);
        mac & ((1u64 << self.layout.pac_bits()) - 1)
    }

    /// Computes two MACs under one key and one modifier, `(H_K(a, modifier),
    /// H_K(b, modifier))`: exactly `(compute_pac(.., a, ..), compute_pac(..,
    /// b, ..))`, counted as two PAC computes.
    ///
    /// Both blocks go through one [`Qarma64::encrypt_pair`] pass, which
    /// derives the modifier's tweak schedule once and runs the two cipher
    /// states side by side. The masked authenticated call stack takes its
    /// MAC `H_K(ret, aret)` and its pad `H_K(0, aret)` this way.
    ///
    /// [`Qarma64::encrypt_pair`]: pacstack_qarma::Qarma64::encrypt_pair
    ///
    /// # Examples
    ///
    /// ```
    /// use pacstack_pauth::{PaKey, PaKeys, PointerAuth, VaLayout};
    ///
    /// let pa = PointerAuth::new(VaLayout::default());
    /// let keys = PaKeys::from_seed(0);
    /// let (mac, pad) = pa.compute_pac_pair(&keys, PaKey::Ia, 0x40_1000, 0, 7);
    /// assert_eq!(mac, pa.compute_pac(&keys, PaKey::Ia, 0x40_1000, 7));
    /// assert_eq!(pad, pa.compute_pac(&keys, PaKey::Ia, 0, 7));
    /// ```
    pub fn compute_pac_pair(
        &self,
        keys: &PaKeys,
        key: PaKey,
        a: u64,
        b: u64,
        modifier: u64,
    ) -> (u64, u64) {
        if telemetry::enabled() {
            telemetry::counter(pac_compute_counter(key), 2);
        }
        let (ca, cb) = keys
            .cipher(key)
            .encrypt_pair(self.strip(a), self.strip(b), modifier);
        let field = (1u64 << self.layout.pac_bits()) - 1;
        (ca & field, cb & field)
    }

    /// `pacia`/`pacib`/... — inserts a PAC into the pointer's high bits.
    ///
    /// If the pointer's extension bits are already corrupt (for example the
    /// output of a failed `aut*`), the PAC is computed for the corrected
    /// pointer and the well-known bit *p* of the PAC is flipped, mirroring
    /// the architectural behaviour that the Project Zero signing gadget
    /// abuses (paper §6.3.1).
    pub fn pac(&self, keys: &PaKeys, key: PaKey, pointer: u64, modifier: u64) -> u64 {
        self.sign_with_pac(self.compute_pac(keys, key, pointer, modifier), pointer)
    }

    /// The insertion half of `pac*`, given an already computed PAC value —
    /// the entry point for callers (the CPU's PAC memo cache) that obtained
    /// the MAC elsewhere. `pac()` is exactly `sign_with_pac(compute_pac(..))`.
    pub fn sign_with_pac(&self, pac: u64, pointer: u64) -> u64 {
        let signed = self.layout.insert_pac(self.strip(pointer), pac);
        if self.layout.is_canonical(pointer) {
            signed
        } else {
            signed ^ self.layout.poison_bit()
        }
    }

    /// Whether everything outside the PAC field is canonical — the condition
    /// under which a correct PAC value makes `aut*` succeed.
    fn non_pac_bits_canonical(&self, pointer: u64) -> bool {
        (pointer & !self.layout.pac_mask()) == self.strip(pointer)
    }

    /// `xpaci`/`xpacd` — strips the PAC, restoring the canonical pointer.
    pub fn strip(&self, pointer: u64) -> u64 {
        self.layout.canonical(pointer & !self.layout.pac_mask())
    }

    /// `autia`/`autib`/... — verifies the PAC.
    ///
    /// On success, returns the stripped (usable) pointer.
    ///
    /// # Errors
    ///
    /// On failure returns [`AuthError`]. In [`AuthFailure::ErrorBit`] mode the
    /// error carries the corrupted pointer the instruction would produce; a
    /// CPU model should continue and fault only when that pointer is used. In
    /// [`AuthFailure::Fault`] mode the caller should fault immediately.
    pub fn aut(
        &self,
        keys: &PaKeys,
        key: PaKey,
        pointer: u64,
        modifier: u64,
    ) -> Result<u64, AuthError> {
        self.verify_with_pac(self.compute_pac(keys, key, pointer, modifier), pointer, key)
    }

    /// The comparison half of `aut*`, given the expected PAC value — the
    /// entry point for callers (the CPU's PAC memo cache) that obtained the
    /// MAC elsewhere. `aut()` is exactly `verify_with_pac(compute_pac(..))`.
    ///
    /// # Errors
    ///
    /// Returns [`AuthError`] exactly as [`PointerAuth::aut`] does.
    pub fn verify_with_pac(
        &self,
        expected: u64,
        pointer: u64,
        key: PaKey,
    ) -> Result<u64, AuthError> {
        if self.layout.extract_pac(pointer) == expected && self.non_pac_bits_canonical(pointer) {
            Ok(self.strip(pointer))
        } else {
            Err(AuthError {
                corrupted: self
                    .layout
                    .corrupt(self.strip(pointer), key.is_instruction()),
                key,
            })
        }
    }

    /// `pacga` — the generic MAC: returns `H_GA(x, y)` in the upper 32 bits
    /// of the result, lower 32 bits zero, as the architecture specifies.
    pub fn pacga(&self, keys: &PaKeys, x: u64, y: u64) -> u64 {
        if telemetry::enabled() {
            telemetry::counter("pauth_pacga_total", 1);
        }
        keys.cipher(PaKey::Ga).encrypt(x, y) & 0xFFFF_FFFF_0000_0000
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use pacstack_qarma::{reference, Sigma};

    fn unit() -> (PointerAuth, PaKeys) {
        (PointerAuth::new(VaLayout::default()), PaKeys::from_seed(99))
    }

    const PTR: u64 = 0x0000_0040_1234_5678;

    #[test]
    fn sign_verify_round_trip() {
        let (pa, keys) = unit();
        let signed = pa.pac(&keys, PaKey::Ia, PTR, 1234);
        assert_eq!(pa.aut(&keys, PaKey::Ia, signed, 1234), Ok(PTR));
    }

    #[test]
    fn wrong_modifier_fails() {
        let (pa, keys) = unit();
        let signed = pa.pac(&keys, PaKey::Ia, PTR, 1234);
        let err = pa.aut(&keys, PaKey::Ia, signed, 4321).unwrap_err();
        assert_eq!(err.key, PaKey::Ia);
        assert!(!pa.layout().is_canonical(err.corrupted));
    }

    #[test]
    fn wrong_key_fails() {
        let (pa, keys) = unit();
        let signed = pa.pac(&keys, PaKey::Ia, PTR, 0);
        assert!(pa.aut(&keys, PaKey::Ib, signed, 0).is_err());
    }

    #[test]
    fn different_process_keys_fail() {
        let (pa, keys) = unit();
        let other = PaKeys::from_seed(100);
        let signed = pa.pac(&keys, PaKey::Ia, PTR, 0);
        assert!(pa.aut(&other, PaKey::Ia, signed, 0).is_err());
    }

    #[test]
    fn tampered_address_fails() {
        let (pa, keys) = unit();
        let signed = pa.pac(&keys, PaKey::Ia, PTR, 0);
        assert!(pa.aut(&keys, PaKey::Ia, signed ^ 4, 0).is_err());
    }

    #[test]
    fn strip_removes_pac() {
        let (pa, keys) = unit();
        let signed = pa.pac(&keys, PaKey::Ia, PTR, 7);
        assert_eq!(pa.strip(signed), PTR);
    }

    #[test]
    fn unsigned_pointer_with_zero_pac_verifies_only_if_mac_is_zero() {
        // A raw pointer's PAC field is zero; verification succeeds only in
        // the 2^-b case where the true MAC is zero too.
        let (pa, keys) = unit();
        let ok = pa.aut(&keys, PaKey::Ia, PTR, 0).is_ok();
        assert_eq!(ok, pa.compute_pac(&keys, PaKey::Ia, PTR, 0) == 0);
    }

    #[test]
    fn signing_corrupted_pointer_poisons_pac_bit_p() {
        // The Project Zero gadget (paper §6.3.1, Listing 7): aut on a forged
        // pointer corrupts it; a subsequent pac yields the correct PAC with
        // bit p flipped.
        let (pa, keys) = unit();
        let forged = VaLayout::default().insert_pac(PTR, 0xBEEF);
        let err = pa.aut(&keys, PaKey::Ia, forged, 0).unwrap_err();
        let resigned = pa.pac(&keys, PaKey::Ia, err.corrupted, 0);
        let genuine = pa.pac(&keys, PaKey::Ia, PTR, 0);
        assert_eq!(resigned ^ genuine, pa.layout().poison_bit());
        // Flipping bit p back recovers a valid signed pointer — the gadget.
        assert_eq!(
            pa.aut(&keys, PaKey::Ia, resigned ^ pa.layout().poison_bit(), 0),
            Ok(PTR)
        );
    }

    #[test]
    fn resigning_a_signed_pointer_poisons() {
        // An already-signed pointer has non-canonical extension bits, so
        // pac* computes the same PAC but flips bit p — there is no way to
        // "re-sign" without first stripping.
        let (pa, keys) = unit();
        let signed = pa.pac(&keys, PaKey::Ia, PTR, 5);
        if !pa.layout().is_canonical(signed) {
            assert_eq!(
                pa.pac(&keys, PaKey::Ia, signed, 5),
                signed ^ pa.layout().poison_bit()
            );
        }
        // Stripping first recovers clean signing.
        assert_eq!(pa.pac(&keys, PaKey::Ia, pa.strip(signed), 5), signed);
    }

    #[test]
    fn pacga_returns_upper_32_bits() {
        let (pa, keys) = unit();
        let mac = pa.pacga(&keys, 0x1234, 0x5678);
        assert_eq!(mac & 0xFFFF_FFFF, 0);
        assert_ne!(mac, 0);
        // Deterministic and input-sensitive.
        assert_eq!(mac, pa.pacga(&keys, 0x1234, 0x5678));
        assert_ne!(mac, pa.pacga(&keys, 0x1235, 0x5678));
    }

    /// `compute_pac` through the cell-based QARMA oracle, with the key
    /// schedule re-derived per call.
    fn reference_pac(
        pa: &PointerAuth,
        keys: &PaKeys,
        key: PaKey,
        pointer: u64,
        modifier: u64,
    ) -> u64 {
        let layout = pa.layout();
        let canonical = layout.canonical(pointer & !layout.pac_mask());
        let mac = reference::encrypt(keys.key(key), Sigma::Sigma1, 7, canonical, modifier);
        mac & ((1u64 << layout.pac_bits()) - 1)
    }

    fn assert_pac_matches_reference(pa: &PointerAuth, keys: &PaKeys, what: &str) {
        for i in 0..32u64 {
            let ptr = PTR.wrapping_add(i * 40);
            let modifier = i.wrapping_mul(0x9E37_79B9);
            for key in PaKey::ALL {
                assert_eq!(
                    pa.compute_pac(keys, key, ptr, modifier),
                    reference_pac(pa, keys, key, ptr, modifier),
                    "{key} diverged at i={i} on {what}"
                );
            }
            let ga = reference::encrypt(keys.key(PaKey::Ga), Sigma::Sigma1, 7, ptr, modifier);
            assert_eq!(
                pa.pacga(keys, ptr, modifier),
                ga & 0xFFFF_FFFF_0000_0000,
                "pacga diverged at i={i} on {what}"
            );
        }
    }

    #[test]
    fn cached_cipher_pac_matches_reference_pac() {
        // The scheduled-cipher fast path and the rebuild-per-call reference
        // cipher are the same MAC, for `pac*`/`aut*` and `pacga` alike —
        // the invariant the whole key-set layer rests on — on fresh,
        // cloned and re-keyed key sets.
        let (pa, keys) = unit();
        assert_pac_matches_reference(&pa, &keys, "fresh keys");
        let mut rekeyed = keys.clone();
        assert_pac_matches_reference(&pa, &rekeyed, "a clone");
        for (n, key) in PaKey::ALL.into_iter().enumerate() {
            let n = n as u64;
            rekeyed.set_key(key, pacstack_qarma::Key128::new(0xC0DE ^ n, 0xF00D ^ n));
        }
        assert_pac_matches_reference(&pa, &rekeyed, "re-keyed keys");
        assert_pac_matches_reference(&pa, &rekeyed.clone(), "a clone of re-keyed keys");
    }

    #[test]
    fn set_key_takes_effect_on_the_cached_path() {
        // A key write must change the MACs immediately — no stale cipher.
        let (pa, mut keys) = unit();
        let before = pa.compute_pac(&keys, PaKey::Ia, PTR, 7);
        keys.set_key(PaKey::Ia, pacstack_qarma::Key128::new(0xFEED, 0xBEEF));
        let after = pa.compute_pac(&keys, PaKey::Ia, PTR, 7);
        assert_ne!(before, after);
        assert_eq!(after, reference_pac(&pa, &keys, PaKey::Ia, PTR, 7));
    }

    #[test]
    fn pac_pair_equals_two_single_pacs() {
        let keys = PaKeys::from_seed(5);
        for layout in [VaLayout::default(), VaLayout::new(48, false)] {
            let pa = PointerAuth::new(layout);
            for i in 0..32u64 {
                // Signed, non-canonical and null pointers: the pair strips
                // its inputs exactly as `compute_pac` does.
                let a = pa.pac(&keys, PaKey::Ia, PTR + i * 8, i) ^ (i << 60);
                let b = if i % 2 == 0 { 0 } else { !a };
                let modifier = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                for key in [PaKey::Ia, PaKey::Db] {
                    assert_eq!(
                        pa.compute_pac_pair(&keys, key, a, b, modifier),
                        (
                            pa.compute_pac(&keys, key, a, modifier),
                            pa.compute_pac(&keys, key, b, modifier)
                        ),
                        "{layout} {key} i={i}"
                    );
                }
            }
        }
    }

    #[test]
    fn pac_bits_matches_layout() {
        let (pa, _) = unit();
        assert_eq!(pa.pac_bits(), 16);
    }

    #[test]
    fn compute_pac_fits_in_field() {
        let (pa, keys) = unit();
        for i in 0..64 {
            let pac = pa.compute_pac(&keys, PaKey::Ia, PTR + i * 4, i);
            assert!(pac < (1 << 16));
        }
    }
}
