//! Golden output bits of the kernel-IR interpreter, shared by the
//! interpreter differential tests.
//!
//! `tests/golden/interp_hashes.txt` pins, per `<entry> <program>` key,
//! the FNV-1a hash of the exact f64 bits the interpreter produced when
//! the file was captured. A tolerance check against the reference
//! contraction would accept a reordered sum; these hashes do not, so any
//! change to the interpreter's evaluation order shows up here by name.

use cogent::tensor::DenseTensor;

const GOLDEN: &str = include_str!("../golden/interp_hashes.txt");

/// FNV-1a 64-bit over the little-endian bits of every element, in
/// storage order.
fn output_hash(t: &DenseTensor<f64>) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in t.as_slice() {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// Asserts that `got` carries exactly the golden output bits recorded
/// for `entry` and `program`.
pub fn assert_golden_bits(entry: &str, program: &str, got: &DenseTensor<f64>) {
    let want = GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let mut fields = l.split_whitespace();
            let key = (fields.next()?, fields.next()?);
            (key == (entry, program)).then(|| fields.next()).flatten()
        });
    let got = output_hash(got);
    assert_eq!(
        want,
        Some(got.as_str()),
        "{entry} {program}: interpreter output bits differ from tests/golden/interp_hashes.txt"
    );
}
