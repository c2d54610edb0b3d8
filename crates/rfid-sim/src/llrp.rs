//! A compact LLRP-flavoured wire format for tag report streams.
//!
//! The paper's implementation collects readings over the Low Level
//! Reader Protocol (LLRP, §4). We implement the subset that matters for
//! replay and storage: an `RO_ACCESS_REPORT`-style message carrying a
//! sequence of fixed-layout `TagReportData` records. The framing follows
//! LLRP conventions (big-endian, version-tagged header, message length
//! covering the whole frame) without dragging in the full TLV zoo.
//!
//! Record layout (24 bytes, big-endian):
//!
//! | field      | type | units                        |
//! |------------|------|------------------------------|
//! | epc        | u64  | truncated EPC                |
//! | t_us       | u64  | microseconds since session 0 |
//! | antenna    | u16  | port index                   |
//! | rssi_cdbm  | i16  | centi-dBm                    |
//! | phase_cnt  | u16  | 2π/65536 steps               |
//! | channel    | u16  | FCC channel index            |

use crate::TagReport;

/// LLRP protocol version field (1, as in LLRP 1.0/1.1 headers).
pub const LLRP_VERSION: u8 = 1;
/// Message type used for report frames (RO_ACCESS_REPORT = 61).
pub const MSG_RO_ACCESS_REPORT: u16 = 61;
/// Header: version/type (2) + length (4) + message id (4).
pub const HEADER_LEN: usize = 10;
/// Bytes per tag report record.
pub const RECORD_LEN: usize = 24;
/// Largest frame we accept: 16 Ki records (~384 KiB) plus the header.
/// Several seconds of reports at the reader's maximum rate fit with an
/// order of magnitude to spare; the header's u32 length field can claim
/// up to 4 GiB, and a hostile or corrupted length must never be able to
/// size an allocation.
pub const MAX_FRAME_LEN: usize = HEADER_LEN + 16_384 * RECORD_LEN;

/// Errors from decoding a report frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Frame shorter than a header.
    Truncated,
    /// Header length field disagrees with the buffer.
    LengthMismatch {
        /// Length claimed by the header.
        claimed: usize,
        /// Actual buffer length.
        actual: usize,
    },
    /// Unsupported version or message type.
    BadHeader,
    /// Payload is not a whole number of records.
    RaggedPayload,
    /// Header claims a frame larger than [`MAX_FRAME_LEN`] — rejected
    /// before any allocation is sized from it.
    Oversized {
        /// Length claimed by the header.
        claimed: usize,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "frame shorter than LLRP header"),
            DecodeError::LengthMismatch { claimed, actual } => {
                write!(f, "header claims {claimed} bytes, buffer has {actual}")
            }
            DecodeError::BadHeader => write!(f, "unsupported LLRP version or message type"),
            DecodeError::RaggedPayload => write!(f, "payload is not a whole number of records"),
            DecodeError::Oversized { claimed } => {
                write!(f, "header claims {claimed} bytes, limit is {MAX_FRAME_LEN}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Encode a report stream as one RO_ACCESS_REPORT frame.
///
/// Callers framing live streams should stay under [`MAX_FRAME_LEN`]
/// (16 Ki records); [`decode_report`] rejects anything larger.
pub fn encode_report(reports: &[TagReport], message_id: u32) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + reports.len() * RECORD_LEN);
    // Version (3 bits) + message type (13 bits), as LLRP packs them.
    let ver_type: u16 = (u16::from(LLRP_VERSION) << 10) | MSG_RO_ACCESS_REPORT;
    buf.extend_from_slice(&ver_type.to_be_bytes());
    let total = (HEADER_LEN + reports.len() * RECORD_LEN) as u32;
    buf.extend_from_slice(&total.to_be_bytes());
    buf.extend_from_slice(&message_id.to_be_bytes());
    for r in reports {
        buf.extend_from_slice(&r.epc.to_be_bytes());
        let t_us = (r.t * 1e6).round().clamp(0.0, u64::MAX as f64) as u64;
        buf.extend_from_slice(&t_us.to_be_bytes());
        buf.extend_from_slice(&(r.antenna as u16).to_be_bytes());
        let rssi_cdbm = (r.rssi_dbm * 100.0).round().clamp(-32768.0, 32767.0) as i16;
        buf.extend_from_slice(&rssi_cdbm.to_be_bytes());
        let phase_cnt =
            ((r.phase_rad / std::f64::consts::TAU * 65536.0).round() as u32 % 65536) as u16;
        buf.extend_from_slice(&phase_cnt.to_be_bytes());
        buf.extend_from_slice(&(r.channel as u16).to_be_bytes());
    }
    buf
}

/// Decode an RO_ACCESS_REPORT frame back into reports (plus message id).
pub fn decode_report(buf: &[u8]) -> Result<(u32, Vec<TagReport>), DecodeError> {
    if buf.len() < HEADER_LEN {
        return Err(DecodeError::Truncated);
    }
    let ver_type = u16::from_be_bytes([buf[0], buf[1]]);
    let version = (ver_type >> 10) as u8;
    let msg_type = ver_type & 0x03FF;
    if version != LLRP_VERSION || msg_type != MSG_RO_ACCESS_REPORT {
        return Err(DecodeError::BadHeader);
    }
    let claimed = u32::from_be_bytes([buf[2], buf[3], buf[4], buf[5]]) as usize;
    if claimed > MAX_FRAME_LEN {
        return Err(DecodeError::Oversized { claimed });
    }
    if claimed != buf.len() {
        return Err(DecodeError::LengthMismatch { claimed, actual: buf.len() });
    }
    let message_id = u32::from_be_bytes([buf[6], buf[7], buf[8], buf[9]]);
    let payload = &buf[HEADER_LEN..];
    if !payload.len().is_multiple_of(RECORD_LEN) {
        return Err(DecodeError::RaggedPayload);
    }
    let mut reports = Vec::with_capacity(payload.len() / RECORD_LEN);
    for rec in payload.chunks_exact(RECORD_LEN) {
        let epc = u64::from_be_bytes(rec[0..8].try_into().expect("8 bytes"));
        let t_us = u64::from_be_bytes(rec[8..16].try_into().expect("8 bytes"));
        let antenna = u16::from_be_bytes([rec[16], rec[17]]) as usize;
        let rssi_cdbm = i16::from_be_bytes([rec[18], rec[19]]);
        let phase_cnt = u16::from_be_bytes([rec[20], rec[21]]);
        let channel = u16::from_be_bytes([rec[22], rec[23]]) as usize;
        reports.push(TagReport {
            t: t_us as f64 / 1e6,
            antenna,
            rssi_dbm: f64::from(rssi_cdbm) / 100.0,
            phase_rad: f64::from(phase_cnt) / 65536.0 * std::f64::consts::TAU,
            channel,
            epc,
        });
    }
    Ok((message_id, reports))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_reports() -> Vec<TagReport> {
        vec![
            TagReport {
                t: 0.000001,
                antenna: 0,
                rssi_dbm: -40.5,
                phase_rad: 1.25,
                channel: 24,
                epc: 0xE280_1160_6000_0001,
            },
            TagReport {
                t: 1.5,
                antenna: 3,
                rssi_dbm: -63.0,
                phase_rad: 6.1,
                channel: 0,
                epc: 0xE280_1160_6000_0001,
            },
        ]
    }

    #[test]
    fn round_trip_preserves_reports_within_wire_precision() {
        let reports = sample_reports();
        let frame = encode_report(&reports, 42);
        let (id, decoded) = decode_report(&frame).unwrap();
        assert_eq!(id, 42);
        assert_eq!(decoded.len(), reports.len());
        for (a, b) in reports.iter().zip(&decoded) {
            assert_eq!(a.antenna, b.antenna);
            assert_eq!(a.channel, b.channel);
            assert_eq!(a.epc, b.epc);
            assert!((a.t - b.t).abs() < 1e-6);
            assert!((a.rssi_dbm - b.rssi_dbm).abs() < 0.005 + 1e-12);
            assert!((a.phase_rad - b.phase_rad).abs() < std::f64::consts::TAU / 65536.0);
        }
    }

    #[test]
    fn empty_report_round_trips() {
        let frame = encode_report(&[], 7);
        assert_eq!(frame.len(), HEADER_LEN);
        let (id, decoded) = decode_report(&frame).unwrap();
        assert_eq!(id, 7);
        assert!(decoded.is_empty());
    }

    #[test]
    fn truncated_frame_is_rejected() {
        assert_eq!(decode_report(&[0; 5]), Err(DecodeError::Truncated));
    }

    #[test]
    fn length_mismatch_is_rejected() {
        let mut frame = encode_report(&sample_reports(), 1);
        frame.push(0);
        assert!(matches!(
            decode_report(&frame),
            Err(DecodeError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn ragged_payload_is_rejected() {
        let mut frame = encode_report(&sample_reports(), 1);
        // Chop one byte off a record and fix up the header length.
        frame.truncate(frame.len() - 1);
        let total = frame.len() as u32;
        frame[2..6].copy_from_slice(&total.to_be_bytes());
        assert_eq!(decode_report(&frame), Err(DecodeError::RaggedPayload));
    }

    #[test]
    fn wrong_message_type_is_rejected() {
        let mut frame = encode_report(&[], 1);
        let ver_type: u16 = (u16::from(LLRP_VERSION) << 10) | 30;
        frame[0..2].copy_from_slice(&ver_type.to_be_bytes());
        assert_eq!(decode_report(&frame), Err(DecodeError::BadHeader));
    }

    #[test]
    fn error_messages_render() {
        let e = DecodeError::LengthMismatch { claimed: 10, actual: 11 };
        assert!(e.to_string().contains("10"));
        let e = DecodeError::Oversized { claimed: 1 << 30 };
        assert!(e.to_string().contains("limit"));
    }

    #[test]
    fn oversized_length_claim_is_rejected_before_any_allocation() {
        // A tiny buffer whose header claims 4 GiB: must fail Oversized,
        // not LengthMismatch, and certainly not size anything from it.
        let mut frame = encode_report(&[], 1);
        frame[2..6].copy_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(
            decode_report(&frame),
            Err(DecodeError::Oversized { claimed: u32::MAX as usize })
        );
        // Largest accepted claim is exactly MAX_FRAME_LEN.
        let mut frame = encode_report(&[], 1);
        frame[2..6].copy_from_slice(&((MAX_FRAME_LEN + 1) as u32).to_be_bytes());
        assert_eq!(
            decode_report(&frame),
            Err(DecodeError::Oversized { claimed: MAX_FRAME_LEN + 1 })
        );
    }

    /// Property sweep: mutate valid frames every way the wire can —
    /// bit flips, truncation, garbage extension, length-field and
    /// header patches, random noise — and require that decode either
    /// returns a clean `Ok` or a `DecodeError`. No panics (the sweep
    /// would abort), and no allocation sized beyond what the actual
    /// buffer can hold.
    #[test]
    fn decode_survives_mutated_frames() {
        use rf_core::rng::{derive_seed_indexed, rng_from_seed};

        let base_reports: Vec<TagReport> = (0..40)
            .map(|i| TagReport {
                t: i as f64 * 0.013,
                antenna: i % 2,
                rssi_dbm: -45.0 + (i % 9) as f64,
                phase_rad: (i as f64 * 0.41).rem_euclid(std::f64::consts::TAU),
                channel: i % 16,
                epc: 0xE280_0000 + i as u64,
            })
            .collect();
        let valid = encode_report(&base_reports, 99);

        for case in 0..2000u64 {
            let mut rng = rng_from_seed(derive_seed_indexed(0x11F0, "llrp.mutate", case));
            let mut frame = valid.clone();
            match rng.gen_index(6) {
                // Flip 1–8 random bytes anywhere (header or payload).
                0 => {
                    for _ in 0..(1 + rng.gen_index(8)) {
                        let i = rng.gen_index(frame.len());
                        frame[i] ^= 1 << rng.gen_index(8);
                    }
                }
                // Truncate to a random prefix.
                1 => frame.truncate(rng.gen_index(frame.len() + 1)),
                // Append 1–64 garbage bytes.
                2 => {
                    for _ in 0..(1 + rng.gen_index(64)) {
                        frame.push((rng.next_u64() & 0xFF) as u8);
                    }
                }
                // Patch the length field with an arbitrary u32.
                3 => {
                    let claim = (rng.next_u64() & 0xFFFF_FFFF) as u32;
                    frame[2..6].copy_from_slice(&claim.to_be_bytes());
                }
                // Patch the version/type word.
                4 => {
                    let vt = (rng.next_u64() & 0xFFFF) as u16;
                    frame[0..2].copy_from_slice(&vt.to_be_bytes());
                }
                // Pure noise of random length (0–2·frame).
                5 => {
                    let n = rng.gen_index(2 * valid.len() + 1);
                    frame = (0..n).map(|_| (rng.next_u64() & 0xFF) as u8).collect();
                }
                _ => unreachable!(),
            }
            match decode_report(&frame) {
                Ok((_, reports)) => {
                    // Any accepted frame's record count must be backed
                    // by actual buffer bytes — nothing header-sized.
                    assert!(reports.len() <= frame.len() / RECORD_LEN);
                }
                Err(e) => {
                    // Errors must render without panicking too.
                    let _ = e.to_string();
                }
            }
        }
    }
}
