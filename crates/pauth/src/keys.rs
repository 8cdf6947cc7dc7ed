//! The five PA key registers and their management.
//!
//! The architecture provides two instruction keys (`IA`, `IB`), two data keys
//! (`DA`, `DB`) and one generic key (`GA`). On Linux ≥ 5.0 the kernel owns
//! the key registers at EL1, generates fresh keys for a process on `exec`,
//! and user space (EL0) cannot read or write them — the property the
//! PACStack adversary model relies on.

use pacstack_qarma::{Key128, Qarma64};
use pacstack_telemetry as telemetry;
use rand::Rng;
use std::fmt;

/// Selects one of the five architectural PA keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PaKey {
    /// Instruction key A (`APIAKey_EL1`) — used by `pacia`/`autia`; the key
    /// PACStack signs return addresses with.
    Ia,
    /// Instruction key B (`APIBKey_EL1`).
    Ib,
    /// Data key A (`APDAKey_EL1`).
    Da,
    /// Data key B (`APDBKey_EL1`).
    Db,
    /// Generic key (`APGAKey_EL1`) — used by `pacga`.
    Ga,
}

impl PaKey {
    /// All five keys, in register order.
    pub const ALL: [PaKey; 5] = [PaKey::Ia, PaKey::Ib, PaKey::Da, PaKey::Db, PaKey::Ga];

    /// Whether this is one of the two instruction keys.
    pub fn is_instruction(self) -> bool {
        matches!(self, PaKey::Ia | PaKey::Ib)
    }

    fn index(self) -> usize {
        match self {
            PaKey::Ia => 0,
            PaKey::Ib => 1,
            PaKey::Da => 2,
            PaKey::Db => 3,
            PaKey::Ga => 4,
        }
    }
}

impl fmt::Display for PaKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            PaKey::Ia => "IA",
            PaKey::Ib => "IB",
            PaKey::Da => "DA",
            PaKey::Db => "DB",
            PaKey::Ga => "GA",
        };
        f.write_str(name)
    }
}

/// One process's set of five 128-bit PA keys, each held as its scheduled
/// QARMA7-64-σ1 cipher.
///
/// A key register and its cipher are one value: [`PaKeys::generate`] and
/// [`PaKeys::set_key`] schedule every key they write, and
/// [`PaKeys::cipher`] is a plain index. The schedule is four words per key
/// (see [`Qarma64`]), so building all five costs less than the lazy
/// first-use cache this replaced, and the whole set is small enough to copy
/// with every `Cpu` clone. Corrupted keys go through the same route — a
/// glitched register yields a real (wrong) cipher, which is what preserves
/// `Fault::KeyFault` attribution downstream.
///
/// # Examples
///
/// ```
/// use pacstack_pauth::{PaKey, PaKeys};
///
/// let keys = PaKeys::from_seed(1);
/// assert_ne!(keys.key(PaKey::Ia), keys.key(PaKey::Ib));
/// // fork() shares keys; exec() regenerates them.
/// let child = keys.clone();
/// assert_eq!(child.key(PaKey::Ia), keys.key(PaKey::Ia));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PaKeys {
    ciphers: [Qarma64; 5],
}

impl PaKeys {
    /// Generates five fresh keys from the given randomness source, as the
    /// kernel does on `exec`, and schedules their ciphers.
    ///
    /// Telemetry counts this as one keygen and five cipher rebuilds:
    /// `pauth_cipher_rebuilds_total` counts key registers (re-)keyed.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let mut next = || Qarma64::recommended(Key128::new(rng.gen(), rng.gen()));
        let ciphers = [next(), next(), next(), next(), next()];
        if telemetry::enabled() {
            telemetry::counter("pauth_keygens_total", 1);
            telemetry::counter("pauth_cipher_rebuilds_total", 5);
        }
        Self { ciphers }
    }

    /// Generates keys deterministically from a seed — convenient for tests
    /// and reproducible experiments.
    pub fn from_seed(seed: u64) -> Self {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Self::generate(&mut rng)
    }

    /// Returns the 128-bit value of one key register.
    pub fn key(&self, key: PaKey) -> Key128 {
        self.cipher(key).key()
    }

    /// Replaces one key register (kernel-only operation in the model) and
    /// schedules its cipher.
    pub fn set_key(&mut self, key: PaKey, value: Key128) {
        if telemetry::enabled() {
            telemetry::counter("pauth_key_writes_total", 1);
            telemetry::counter("pauth_cipher_rebuilds_total", 1);
        }
        self.ciphers[key.index()] = Qarma64::recommended(value);
    }

    /// The scheduled cipher of one key register.
    #[inline]
    pub fn cipher(&self, key: PaKey) -> &Qarma64 {
        &self.ciphers[key.index()]
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn generated_keys_are_distinct() {
        let keys = PaKeys::from_seed(42);
        for (i, a) in PaKey::ALL.iter().enumerate() {
            for b in &PaKey::ALL[i + 1..] {
                assert_ne!(keys.key(*a), keys.key(*b), "{a} == {b}");
            }
        }
    }

    #[test]
    fn seeding_is_deterministic() {
        assert_eq!(PaKeys::from_seed(7), PaKeys::from_seed(7));
        assert_ne!(PaKeys::from_seed(7), PaKeys::from_seed(8));
    }

    #[test]
    fn set_key_replaces_only_target() {
        let mut keys = PaKeys::from_seed(1);
        let old_ib = keys.key(PaKey::Ib);
        keys.set_key(PaKey::Ia, Key128::new(1, 2));
        assert_eq!(keys.key(PaKey::Ia), Key128::new(1, 2));
        assert_eq!(keys.key(PaKey::Ib), old_ib);
    }

    fn assert_coherent(keys: &PaKeys, what: &str) {
        for key in PaKey::ALL {
            assert_eq!(
                *keys.cipher(key),
                Qarma64::recommended(keys.key(key)),
                "{key} incoherent on {what}"
            );
            assert_eq!(keys.cipher(key).key(), keys.key(key), "{key} on {what}");
        }
    }

    #[test]
    fn ciphers_stay_coherent_with_keys() {
        let fresh = PaKeys::from_seed(3);
        assert_coherent(&fresh, "fresh keys");
        assert_coherent(&fresh.clone(), "a clone");
        for key in PaKey::ALL {
            let mut rekeyed = fresh.clone();
            let value = Key128::new(0xAA ^ key.index() as u64, 0xBB);
            rekeyed.set_key(key, value);
            assert_eq!(*rekeyed.cipher(key), Qarma64::recommended(value), "{key}");
            assert_coherent(&rekeyed, &format!("set_key({key})"));
            for other in PaKey::ALL.into_iter().filter(|&k| k != key) {
                assert_eq!(
                    rekeyed.cipher(other),
                    fresh.cipher(other),
                    "{key} moved {other}"
                );
            }
        }
        // The writes re-keyed only the copies they were made on.
        assert_eq!(fresh, PaKeys::from_seed(3));
    }

    #[test]
    fn key_set_stays_small_enough_to_copy_per_trial() {
        // Every `Cpu` clone a chaos trial makes copies the key set.
        assert!(
            std::mem::size_of::<PaKeys>() <= 512,
            "PaKeys is {} bytes",
            std::mem::size_of::<PaKeys>()
        );
    }

    #[test]
    fn equality_follows_the_key_registers() {
        let mut a = PaKeys::from_seed(5);
        let b = PaKeys::from_seed(5);
        let ia = a.key(PaKey::Ia);
        a.set_key(PaKey::Ia, ia);
        assert_eq!(a, b);
        a.set_key(PaKey::Ia, Key128::new(9, 9));
        assert_ne!(a, b);
    }

    #[test]
    fn instruction_key_classification() {
        assert!(PaKey::Ia.is_instruction());
        assert!(PaKey::Ib.is_instruction());
        assert!(!PaKey::Da.is_instruction());
        assert!(!PaKey::Ga.is_instruction());
    }
}
