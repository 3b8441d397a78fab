//! Self-describing page payloads.
//!
//! Every page the benchmark writes carries its LPID, its version and its
//! length in a 16-byte header, followed by a fill derived from
//! `(lpid, version)`. Any page read back can therefore be checked without
//! keeping a copy of what was written: a torn, misplaced or stale page
//! fails [`check`] or reports an out-of-range version.

use eleos::Lpid;

/// Header bytes at the front of every stamped page.
pub const HEADER: usize = 16;

/// SplitMix64 finaliser: a cheap, well-mixed hash of one word.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn fill_word(lpid: Lpid, ver: u32) -> [u8; 8] {
    mix(lpid ^ (u64::from(ver) << 40)).to_le_bytes()
}

/// Build the payload of version `ver` of `lpid`, `len` bytes long.
pub fn stamp(lpid: Lpid, ver: u32, len: usize) -> Vec<u8> {
    assert!(len >= HEADER, "stamped pages need at least {HEADER} bytes");
    let mut page = vec![0u8; len];
    page[..8].copy_from_slice(&lpid.to_le_bytes());
    page[8..12].copy_from_slice(&ver.to_le_bytes());
    page[12..16].copy_from_slice(&(len as u32).to_le_bytes());
    let w = fill_word(lpid, ver);
    for chunk in page[HEADER..].chunks_mut(8) {
        chunk.copy_from_slice(&w[..chunk.len()]);
    }
    page
}

/// Check that `page` is an intact stamped page of `lpid`; return its
/// version.
pub fn check(lpid: Lpid, page: &[u8]) -> Result<u32, String> {
    if page.len() < HEADER {
        return Err(format!(
            "lpid {lpid}: {}-byte page is shorter than its header",
            page.len()
        ));
    }
    let got_lpid = u64::from_le_bytes(page[..8].try_into().expect("header slice"));
    let ver = u32::from_le_bytes(page[8..12].try_into().expect("header slice"));
    let len = u32::from_le_bytes(page[12..16].try_into().expect("header slice")) as usize;
    if got_lpid != lpid {
        return Err(format!("lpid {lpid}: page is stamped for lpid {got_lpid}"));
    }
    if len != page.len() {
        return Err(format!(
            "lpid {lpid}: stamped length {len}, read {}",
            page.len()
        ));
    }
    let w = fill_word(lpid, ver);
    let intact = page[HEADER..]
        .chunks(8)
        .all(|chunk| chunk == &w[..chunk.len()]);
    if !intact {
        return Err(format!("lpid {lpid}: fill of version {ver} is corrupt"));
    }
    Ok(ver)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_round_trips_and_detects_damage() {
        let p = stamp(7, 3, 1001);
        assert_eq!(check(7, &p), Ok(3));
        assert!(check(8, &p).is_err());
        let mut torn = p.clone();
        torn[500] ^= 1;
        assert!(check(7, &torn).is_err());
        assert!(check(7, &p[..1000]).is_err());
    }
}
