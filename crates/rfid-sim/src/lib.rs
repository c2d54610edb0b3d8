//! # rfid-sim — EPC Gen2 UHF RFID reader/tag simulator
//!
//! Replaces the paper's ImpinJ Speedway R420 + Avery Dennison tag with a
//! protocol-level simulation. The tracking algorithms consume exactly
//! what LLRP delivers from real hardware — timestamped
//! `(antenna, RSSI, phase, channel)` tuples — so everything above this
//! crate is hardware-agnostic:
//!
//! * [`modulation`] — the Gen2 uplink encodings (FM0, Miller m = 2/4/8)
//!   with their link frequencies, bit durations and SNR→BER behaviour.
//! * [`gen2`] — inventory-round timing: Query/QueryRep/ACK exchanges,
//!   the Q-algorithm slot counter, and the resulting read rate (~100 Hz
//!   aggregate, as the paper states).
//! * [`reader`] — the reader: multiplexes antenna ports, runs inventory
//!   rounds against the `rf-physics` channel, applies measurement noise
//!   and ImpinJ-style quantization (RSSI in 0.5 dB steps, phase in
//!   12-bit steps), and emits [`TagReport`]s.
//! * [`llrp`] — a compact LLRP-flavoured wire encoding of tag reports
//!   (RO_ACCESS_REPORT), so report streams can be serialized/replayed.
//! * [`faults`] — deterministic fault injection (burst dropouts, port
//!   outages, duplication, bounded reordering, clock jitter/drift,
//!   per-channel phase steps) for degradation testing; an identity
//!   [`faults::FaultPlan`] is a provable no-op.
//! * [`chaos`] — deterministic chaos plans (shard kills at swept cut
//!   points, checkpoint corruption, stalled drains) plus the
//!   byte-corruption model, for the crash/soak harness over the
//!   serving fleet.
//! * [`traffic`] — deterministic synthetic *fleet* workloads (diurnal
//!   arrival cycles, flash crowds, heavy-tail write durations, session
//!   churn) for exercising the serving layers at scale.
//! * [`tracking`] — the [`TrajectoryTracker`] trait implemented by
//!   `polardraw-core` and the `baselines` crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod faults;
pub mod gen2;
pub mod llrp;
pub mod modulation;
pub mod reader;
pub mod session;
pub mod tracking;
pub mod traffic;

pub use faults::{FaultInjector, FaultLog, FaultPlan};
pub use modulation::ModulationScheme;
pub use reader::{Reader, ReaderConfig};
pub use tracking::TrajectoryTracker;


/// One successful tag interrogation, as delivered by LLRP.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TagReport {
    /// Timestamp, seconds since session start.
    pub t: f64,
    /// Reader antenna port (0-based).
    pub antenna: usize,
    /// Received signal strength, dBm (quantized).
    pub rssi_dbm: f64,
    /// Backscatter phase, radians in `[0, 2π)` (quantized).
    pub phase_rad: f64,
    /// FCC channel index in use for this read.
    pub channel: usize,
    /// Tag EPC (truncated to 64 bits for compactness).
    pub epc: u64,
}

impl rf_core::json::ToJson for TagReport {
    fn to_json(&self) -> rf_core::Json {
        rf_core::Json::obj([
            ("t", rf_core::Json::Num(self.t)),
            ("antenna", rf_core::Json::Num(self.antenna as f64)),
            ("rssi_dbm", rf_core::Json::Num(self.rssi_dbm)),
            ("phase_rad", rf_core::Json::Num(self.phase_rad)),
            ("channel", rf_core::Json::Num(self.channel as f64)),
            // EPCs use the full 64 bits; JSON numbers are f64 and would
            // lose precision past 2^53, so carry the EPC as hex text.
            ("epc", rf_core::Json::str(format!("{:016x}", self.epc))),
        ])
    }
}

impl rf_core::json::FromJson for TagReport {
    fn from_json(v: &rf_core::Json) -> Result<TagReport, rf_core::JsonError> {
        let epc_text = v.get("epc").and_then(rf_core::Json::as_str).ok_or_else(|| {
            rf_core::JsonError { message: "TagReport: missing `epc`".to_string(), offset: 0 }
        })?;
        let epc = u64::from_str_radix(epc_text, 16).map_err(|_| rf_core::JsonError {
            message: format!("TagReport: bad epc `{epc_text}`"),
            offset: 0,
        })?;
        Ok(TagReport {
            t: v.req_f64("t")?,
            antenna: v.req_usize("antenna")?,
            rssi_dbm: v.req_f64("rssi_dbm")?,
            phase_rad: v.req_f64("phase_rad")?,
            channel: v.req_usize("channel")?,
            epc,
        })
    }
}

/// Split a report stream per antenna port, preserving order.
pub fn split_by_antenna(reports: &[TagReport], n_antennas: usize) -> Vec<Vec<TagReport>> {
    let mut out = vec![Vec::new(); n_antennas];
    for r in reports {
        if r.antenna < n_antennas {
            out[r.antenna].push(*r);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(t: f64, antenna: usize) -> TagReport {
        TagReport { t, antenna, rssi_dbm: -40.0, phase_rad: 1.0, channel: 24, epc: 0xAB }
    }

    #[test]
    fn split_by_antenna_partitions_in_order() {
        let reports = vec![report(0.0, 0), report(0.01, 1), report(0.02, 0), report(0.03, 1)];
        let split = split_by_antenna(&reports, 2);
        assert_eq!(split[0].len(), 2);
        assert_eq!(split[1].len(), 2);
        assert!(split[0][0].t < split[0][1].t);
    }

    #[test]
    fn split_ignores_out_of_range_ports() {
        let reports = vec![report(0.0, 5)];
        let split = split_by_antenna(&reports, 2);
        assert!(split[0].is_empty() && split[1].is_empty());
    }

    #[test]
    fn tag_report_round_trips_through_json_with_full_epc() {
        use rf_core::json::{FromJson, ToJson};
        let r = TagReport {
            t: 1.2345,
            antenna: 1,
            rssi_dbm: -43.5,
            phase_rad: 3.25,
            channel: 17,
            epc: 0xE280_1160_6000_0001, // > 2^53: would not survive as an f64
        };
        let back =
            TagReport::from_json(&rf_core::Json::parse(&r.to_json().to_json_string()).unwrap())
                .unwrap();
        assert_eq!(back, r);
    }
}
