//! Virtual-address layout: where the PAC lives inside a 64-bit pointer.
//!
//! On AArch64 a pointer's usable address occupies the low `VA_SIZE` bits.
//! Bit 55 selects the upper (kernel) or lower (user) address range and is
//! always preserved. If address tagging (top-byte ignore) is enabled, bits
//! 63–56 carry the tag and are also excluded from the PAC. Everything left —
//! bits 54 down to `VA_SIZE` — is the PAC field.

use std::fmt;

/// Bit that selects the upper/lower virtual-address range.
const SELECT_BIT: u32 = 55;

/// Describes the pointer bit layout for one address-space configuration.
///
/// The default matches the PACStack paper's evaluation platform: a Linux
/// kernel with `VA_SIZE = 39` and address tagging enabled, leaving a 16-bit
/// PAC.
///
/// # Examples
///
/// ```
/// use pacstack_pauth::VaLayout;
///
/// assert_eq!(VaLayout::default().pac_bits(), 16);
/// assert_eq!(VaLayout::new(48, false).pac_bits(), 15);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VaLayout {
    va_size: u32,
    tagged: bool,
}

impl VaLayout {
    /// Creates a layout with the given virtual-address size and tagging mode.
    ///
    /// # Panics
    ///
    /// Panics unless `36 <= va_size <= 52` (the architectural range) and the
    /// resulting PAC field is at least one bit wide.
    pub fn new(va_size: u32, tagged: bool) -> Self {
        assert!(
            (36..=52).contains(&va_size),
            "VA_SIZE must be within 36..=52, got {va_size}"
        );
        let layout = Self { va_size, tagged };
        assert!(layout.pac_bits() >= 1, "layout leaves no room for a PAC");
        layout
    }

    /// The Linux-default layout the paper assumes: `VA_SIZE = 39`, tagging on.
    pub fn linux_default() -> Self {
        Self::new(39, true)
    }

    /// The virtual-address size in bits.
    pub fn va_size(&self) -> u32 {
        self.va_size
    }

    /// Whether address tagging (top-byte ignore) is enabled.
    pub fn tagged(&self) -> bool {
        self.tagged
    }

    /// Index of the highest PAC bit (54 with tagging, 63 without).
    fn pac_top(&self) -> u32 {
        if self.tagged {
            SELECT_BIT - 1
        } else {
            63
        }
    }

    /// Width of the PAC field's low run, `[VA_SIZE, 54]`, below the select bit.
    fn low_bits(&self) -> u32 {
        SELECT_BIT - self.va_size
    }

    /// The low run's width as a right-aligned mask.
    fn low_mask(&self) -> u64 {
        (1u64 << self.low_bits()) - 1
    }

    /// The PAC bits above the select bit, `[56, 63]`, right-aligned: all
    /// eight without tagging, none with it (the tag owns them).
    fn high_mask(&self) -> u64 {
        if self.tagged {
            0
        } else {
            0xFF
        }
    }

    /// Number of bits available for the PAC.
    ///
    /// With tagging: bits 54..VA_SIZE. Without: bits 63..VA_SIZE minus the
    /// reserved select bit 55.
    pub fn pac_bits(&self) -> u32 {
        self.low_bits() + self.high_mask().count_ones()
    }

    /// Bit mask covering the PAC field.
    ///
    /// # Examples
    ///
    /// ```
    /// use pacstack_pauth::VaLayout;
    ///
    /// // Tagged VA_SIZE=39: PAC occupies bits 54..=39.
    /// assert_eq!(VaLayout::default().pac_mask(), 0x007f_ff80_0000_0000);
    /// ```
    pub fn pac_mask(&self) -> u64 {
        (self.low_mask() << self.va_size) | (self.high_mask() << (SELECT_BIT + 1))
    }

    /// Mask covering the address bits proper.
    pub fn address_mask(&self) -> u64 {
        (1u64 << self.va_size) - 1
    }

    /// Extracts the PAC field as a compact `pac_bits()`-wide integer.
    ///
    /// The field is one or two contiguous runs of bits: `[VA_SIZE, 54]`,
    /// then `[56, 63]` when tagging is off. The compact value holds the low
    /// run in its low bits and the high run right above it.
    pub fn extract_pac(&self, pointer: u64) -> u64 {
        let low = (pointer >> self.va_size) & self.low_mask();
        let high = (pointer >> (SELECT_BIT + 1)) & self.high_mask();
        low | (high << self.low_bits())
    }

    /// Spreads a compact PAC value into the PAC field of a pointer. Bits of
    /// `pac` at or above `pac_bits()` are ignored.
    pub fn insert_pac(&self, pointer: u64, pac: u64) -> u64 {
        let low = (pac & self.low_mask()) << self.va_size;
        let high = ((pac >> self.low_bits()) & self.high_mask()) << (SELECT_BIT + 1);
        (pointer & !self.pac_mask()) | low | high
    }

    /// The extension bits a canonical pointer must carry: all-zero or all-one
    /// copies of the select bit.
    pub fn canonical(&self, pointer: u64) -> u64 {
        let base = pointer & self.address_mask();
        if pointer & (1u64 << SELECT_BIT) != 0 {
            // Upper range: extension bits (and tag, if untagged) are ones.
            let ext = !self.address_mask();
            let ext = if self.tagged {
                ext & !(0xFFu64 << 56)
            } else {
                ext
            };
            base | ext | (pointer & if self.tagged { 0xFFu64 << 56 } else { 0 })
        } else {
            base | (pointer & if self.tagged { 0xFFu64 << 56 } else { 0 })
        }
    }

    /// Whether the pointer's extension bits are canonical (i.e. it would
    /// translate successfully, PAC field aside).
    pub fn is_canonical(&self, pointer: u64) -> bool {
        self.canonical(pointer) == pointer
    }

    /// Returns `pointer` made invalid by flipping the PA *error bit* for the
    /// given key family, as `aut*` does on verification failure.
    ///
    /// The architecture encodes which key failed in bits 62/61 (or 54/53 in
    /// tagged configurations); any use of the result faults at translation.
    pub fn corrupt(&self, pointer: u64, instruction_key: bool) -> u64 {
        let bit = if instruction_key {
            self.pac_top()
        } else {
            self.pac_top() - 1
        };
        self.canonical(pointer) ^ (1u64 << bit)
    }

    /// The well-known PAC bit `p` that `pac*` flips when signing a pointer
    /// whose extension bits are corrupt (§6.3.1 of the PACStack paper).
    pub fn poison_bit(&self) -> u64 {
        1u64 << self.pac_top()
    }
}

impl Default for VaLayout {
    fn default() -> Self {
        Self::linux_default()
    }
}

impl fmt::Display for VaLayout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "VA_SIZE={} {} ({}-bit PAC)",
            self.va_size,
            if self.tagged { "tagged" } else { "untagged" },
            self.pac_bits()
        )
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn default_matches_paper() {
        let layout = VaLayout::default();
        assert_eq!(layout.va_size(), 39);
        assert!(layout.tagged());
        assert_eq!(layout.pac_bits(), 16);
    }

    #[test]
    fn untagged_48_bit_layout() {
        let layout = VaLayout::new(48, false);
        assert_eq!(layout.pac_bits(), 15);
        // Bits 63..48 minus bit 55.
        assert_eq!(layout.pac_mask(), 0xFF7F_0000_0000_0000);
    }

    #[test]
    fn pac_mask_excludes_select_bit() {
        for (va, tagged) in [(39, true), (39, false), (48, true), (48, false)] {
            let layout = VaLayout::new(va, tagged);
            assert_eq!(
                layout.pac_mask() & (1u64 << 55),
                0,
                "va={va} tagged={tagged}"
            );
            assert_eq!(layout.pac_mask().count_ones(), layout.pac_bits());
        }
    }

    #[test]
    fn extract_insert_round_trip() {
        let layout = VaLayout::default();
        let ptr = 0x0000_0012_3456_7890u64;
        for pac in [0u64, 1, 0xFFFF, 0xA5A5] {
            let signed = layout.insert_pac(ptr, pac);
            assert_eq!(
                layout.extract_pac(signed),
                pac & ((1 << layout.pac_bits()) - 1)
            );
            assert_eq!(signed & layout.address_mask(), ptr & layout.address_mask());
        }
    }

    #[test]
    fn canonical_lower_range_pointer_is_unchanged() {
        let layout = VaLayout::default();
        let ptr = 0x0000_0040_1234_5678u64;
        assert!(layout.is_canonical(ptr));
        assert_eq!(layout.canonical(ptr), ptr);
    }

    #[test]
    fn pointer_with_pac_is_not_canonical() {
        let layout = VaLayout::default();
        let ptr = layout.insert_pac(0x1234_5678, 0xBEEF);
        assert!(!layout.is_canonical(ptr));
    }

    #[test]
    fn corrupt_makes_pointer_non_canonical() {
        let layout = VaLayout::default();
        let ptr = 0x0000_0040_1234_5678u64;
        let bad = layout.corrupt(ptr, true);
        assert!(!layout.is_canonical(bad));
        assert_ne!(bad, ptr);
        // Instruction and data keys corrupt different bits.
        assert_ne!(layout.corrupt(ptr, true), layout.corrupt(ptr, false));
    }

    #[test]
    fn tag_byte_survives_canonicalisation_when_tagged() {
        let layout = VaLayout::default();
        let ptr = 0xAB00_0040_1234_5678u64;
        assert_eq!(layout.canonical(ptr) >> 56, 0xAB);
    }

    #[test]
    #[should_panic(expected = "VA_SIZE")]
    fn rejects_out_of_range_va_size() {
        let _ = VaLayout::new(30, true);
    }
}
