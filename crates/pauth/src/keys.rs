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
use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

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

/// One process's set of five 128-bit PA keys.
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
#[derive(Debug, Clone)]
pub struct PaKeys {
    keys: [Key128; 5],
    /// One QARMA7-64-σ1 instance per key register, scheduled (encryption
    /// direction only) the first time [`PaKeys::cipher`] asks for it and
    /// emptied by every write to that register. Most processes only ever
    /// use IA (plus GA for `pacga`), so the other slots are never built.
    /// `OnceLock` keeps `&PaKeys` shareable across worker threads, and a
    /// clone carries whatever slots are already filled. Corrupted keys go
    /// through the same route — a glitched register yields a real (wrong)
    /// cipher, which is what preserves `Fault::KeyFault` attribution
    /// downstream.
    ciphers: [OnceLock<Qarma64>; 5],
}

// Identity is the architectural register contents alone: the ciphers are a
// pure function of the keys, filled in lazily.
impl PartialEq for PaKeys {
    fn eq(&self, other: &Self) -> bool {
        self.keys == other.keys
    }
}

impl Eq for PaKeys {}

impl Hash for PaKeys {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.keys.hash(state);
    }
}

impl PaKeys {
    /// Generates five fresh keys from the given randomness source, as the
    /// kernel does on `exec`. No cipher is scheduled yet.
    ///
    /// Telemetry counts this as one keygen and five cipher rebuilds:
    /// `pauth_cipher_rebuilds_total` counts cipher slots (re-)keyed, not
    /// schedules built, so it does not depend on which keys are used.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let mut keys = [Key128::default(); 5];
        for key in &mut keys {
            *key = Key128::new(rng.gen(), rng.gen());
        }
        if telemetry::enabled() {
            telemetry::counter("pauth_keygens_total", 1);
            telemetry::counter("pauth_cipher_rebuilds_total", 5);
        }
        Self {
            keys,
            ciphers: Default::default(),
        }
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
        self.keys[key.index()]
    }

    /// Replaces one key register (kernel-only operation in the model) and
    /// empties its cipher slot; the next [`PaKeys::cipher`] call for that
    /// register schedules the new key.
    pub fn set_key(&mut self, key: PaKey, value: Key128) {
        if telemetry::enabled() {
            telemetry::counter("pauth_key_writes_total", 1);
            telemetry::counter("pauth_cipher_rebuilds_total", 1);
        }
        self.keys[key.index()] = value;
        self.ciphers[key.index()].take();
    }

    /// The scheduled cipher for one key register — always coherent with
    /// [`PaKeys::key`]: it is scheduled from the current key on first use,
    /// and every key write empties the slot.
    #[inline]
    pub fn cipher(&self, key: PaKey) -> &Qarma64 {
        match self.ciphers[key.index()].get() {
            Some(cipher) => cipher,
            None => self.schedule(key),
        }
    }

    /// The first-use path of [`PaKeys::cipher`], kept out of line so the
    /// hot path stays one load and one branch.
    #[cold]
    #[inline(never)]
    fn schedule(&self, key: PaKey) -> &Qarma64 {
        self.ciphers[key.index()].get_or_init(|| Qarma64::recommended(self.key(key)))
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
        }
    }

    #[test]
    fn lazy_ciphers_stay_coherent_with_keys() {
        let fresh = PaKeys::from_seed(3);
        let cloned_before_use = fresh.clone();
        assert_coherent(&fresh, "fresh keys");
        assert_coherent(&cloned_before_use, "a clone taken before first use");
        let cloned_after_use = fresh.clone();
        assert_coherent(&cloned_after_use, "a clone taken after first use");

        let mut rekeyed = fresh.clone();
        rekeyed.set_key(PaKey::Da, Key128::new(0xAA, 0xBB));
        assert_eq!(rekeyed.cipher(PaKey::Da).key(), Key128::new(0xAA, 0xBB));
        assert_coherent(&rekeyed, "set_key on a scheduled slot");
        // The write re-keyed only the copy it was made on.
        assert_eq!(fresh.cipher(PaKey::Da).key(), fresh.key(PaKey::Da));
    }

    #[test]
    fn concurrent_first_use_agrees() {
        let keys = PaKeys::from_seed(17);
        let ciphers: Vec<Vec<Qarma64>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| PaKey::ALL.map(|key| *keys.cipher(key)).to_vec()))
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for per_thread in &ciphers {
            assert_eq!(per_thread, &ciphers[0]);
        }
        assert_coherent(&keys, "keys first used from four threads");
    }

    #[test]
    fn equality_ignores_cipher_slots() {
        let mut a = PaKeys::from_seed(5);
        let b = PaKeys::from_seed(5);
        // Schedule a's ciphers and rewrite an identical value: the slots
        // change state, identity must not.
        assert_coherent(&a, "a");
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
