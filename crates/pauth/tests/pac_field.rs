//! Pins the shift-and-mask PAC field code of [`VaLayout`] against the
//! bit-by-bit loops it replaced, on every architectural layout.

use pacstack_pauth::VaLayout;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The former `pac_mask`: bits `[VA_SIZE, top]` minus the select bit 55,
/// with `top` 54 when tagged and 63 when not.
fn oracle_mask(layout: VaLayout) -> u64 {
    let top = if layout.tagged() { 54 } else { 63 };
    let below_top = ((1u128 << (top + 1)) - 1) as u64;
    below_top & !((1u64 << layout.va_size()) - 1) & !(1u64 << 55)
}

/// The former `extract_pac`: walks the field bit by bit, low to high.
fn oracle_extract(layout: VaLayout, pointer: u64) -> u64 {
    let mask = oracle_mask(layout);
    let mut pac = 0u64;
    let mut out_bit = 0;
    for bit in layout.va_size()..64 {
        if mask & (1u64 << bit) != 0 {
            pac |= ((pointer >> bit) & 1) << out_bit;
            out_bit += 1;
        }
    }
    pac
}

/// The former `insert_pac`: fills the field bit by bit, low to high.
fn oracle_insert(layout: VaLayout, pointer: u64, pac: u64) -> u64 {
    let mask = oracle_mask(layout);
    let mut result = pointer & !mask;
    let mut in_bit = 0;
    for bit in layout.va_size()..64 {
        if mask & (1u64 << bit) != 0 {
            result |= ((pac >> in_bit) & 1) << bit;
            in_bit += 1;
        }
    }
    result
}

/// All 34 layouts: `VA_SIZE` 36..=52, tagged and untagged.
fn all_layouts() -> impl Iterator<Item = VaLayout> {
    (36..=52).flat_map(|va| [VaLayout::new(va, true), VaLayout::new(va, false)])
}

/// Random pointers and PAC values, plus the all-zero and all-one words. Half
/// of the PAC values are full 64-bit words, so most carry bits above
/// `pac_bits()`; the other half fit the field.
fn samples(layout: VaLayout, rng: &mut StdRng) -> Vec<(u64, u64)> {
    let field = (1u64 << layout.pac_bits()) - 1;
    let mut out = vec![(0, 0), (u64::MAX, u64::MAX), (0, u64::MAX), (u64::MAX, 0)];
    out.extend((0..2_000).map(|i| {
        let pac: u64 = rng.gen();
        (rng.gen(), if i % 2 == 0 { pac } else { pac & field })
    }));
    out
}

#[test]
fn field_code_matches_the_bit_by_bit_oracle_on_every_layout() {
    let mut rng = StdRng::seed_from_u64(0x5ACF_1E1D);
    let mut layouts = 0;
    for layout in all_layouts() {
        layouts += 1;
        assert_eq!(layout.pac_mask(), oracle_mask(layout), "{layout}");
        assert_eq!(
            layout.pac_mask().count_ones(),
            layout.pac_bits(),
            "{layout}"
        );
        for (pointer, pac) in samples(layout, &mut rng) {
            assert_eq!(
                layout.extract_pac(pointer),
                oracle_extract(layout, pointer),
                "extract {layout} pointer={pointer:#018x}"
            );
            assert_eq!(
                layout.insert_pac(pointer, pac),
                oracle_insert(layout, pointer, pac),
                "insert {layout} pointer={pointer:#018x} pac={pac:#x}"
            );
        }
    }
    assert_eq!(layouts, 34);
}

#[test]
fn extract_inverts_insert_up_to_the_field_width() {
    let mut rng = StdRng::seed_from_u64(0x00F1_E1D2);
    for layout in all_layouts() {
        let field = (1u64 << layout.pac_bits()) - 1;
        for (pointer, pac) in samples(layout, &mut rng) {
            let signed = layout.insert_pac(pointer, pac);
            assert_eq!(
                layout.extract_pac(signed),
                pac & field,
                "{layout} pointer={pointer:#018x} pac={pac:#x}"
            );
            assert_eq!(
                signed & !layout.pac_mask(),
                pointer & !layout.pac_mask(),
                "{layout}: bits outside the field moved"
            );
        }
    }
}
