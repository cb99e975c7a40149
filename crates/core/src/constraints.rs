//! System resource constraints (§IV-A) and the derived target compression
//! ratio for online mode (§IV-C1).

use serde::{Deserialize, Serialize};

/// Bits per uncompressed double data point.
pub const BITS_PER_POINT: f64 = 64.0;

/// Hard resource constraints an AdaEdge deployment runs under.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Constraints {
    /// Signal ingestion rate in data points per second (hard: no
    /// back-pressure on sensors).
    pub ingest_points_per_sec: f64,
    /// Network egress bandwidth in bits per second (`None` = offline).
    pub bandwidth_bits_per_sec: Option<f64>,
    /// Local storage budget in bytes (`None` = unbounded).
    pub storage_budget_bytes: Option<usize>,
    /// Points per segment (fixed-size segmentation, §III-B).
    pub segment_points: usize,
}

impl Constraints {
    /// Online-mode constraints: an egress link and an ingestion rate.
    pub fn online(
        ingest_points_per_sec: f64,
        bandwidth_bits_per_sec: f64,
        segment_points: usize,
    ) -> Self {
        Self {
            ingest_points_per_sec,
            bandwidth_bits_per_sec: Some(bandwidth_bits_per_sec),
            storage_budget_bytes: None,
            segment_points,
        }
    }

    /// Offline-mode constraints: a storage budget, no egress.
    pub fn offline(
        ingest_points_per_sec: f64,
        storage_budget_bytes: usize,
        segment_points: usize,
    ) -> Self {
        Self {
            ingest_points_per_sec,
            bandwidth_bits_per_sec: None,
            storage_budget_bytes: Some(storage_budget_bytes),
            segment_points,
        }
    }

    /// The provisional target compression ratio `R = B / (64 × I)`
    /// (§IV-C1), ignoring packet-header overhead as the paper does.
    /// `None` when there is no bandwidth constraint; capped at 1.0 when
    /// the link is faster than the raw stream.
    pub fn target_ratio(&self) -> Option<f64> {
        self.bandwidth_bits_per_sec.map(|b| {
            let raw_bits = BITS_PER_POINT * self.ingest_points_per_sec;
            (b / raw_bits).min(1.0)
        })
    }
}

/// Named network profiles used in Figure 3's capacity lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NetworkProfile {
    /// 2G-class link (~0.1 Mbps).
    TwoG,
    /// 3G-class link (~2 Mbps).
    ThreeG,
    /// 4G-class link (~100 Mbps, LTE-A).
    FourG,
    /// 5G-class link (~500 Mbps).
    FiveG,
    /// Local WiFi (~1 Gbps).
    Wifi,
}

impl NetworkProfile {
    /// Nominal bandwidth in bits per second.
    pub fn bits_per_sec(self) -> f64 {
        match self {
            NetworkProfile::TwoG => 0.1e6,
            NetworkProfile::ThreeG => 2.0e6,
            NetworkProfile::FourG => 100.0e6,
            NetworkProfile::FiveG => 500.0e6,
            NetworkProfile::Wifi => 1.0e9,
        }
    }

    /// Bandwidth in megabytes per second (Figure 3's unit).
    pub fn mb_per_sec(self) -> f64 {
        self.bits_per_sec() / 8.0 / 1e6
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            NetworkProfile::TwoG => "2G",
            NetworkProfile::ThreeG => "3G",
            NetworkProfile::FourG => "4G",
            NetworkProfile::FiveG => "5G",
            NetworkProfile::Wifi => "WiFi",
        }
    }

    /// All profiles, ascending bandwidth.
    pub const ALL: [NetworkProfile; 5] = [
        NetworkProfile::TwoG,
        NetworkProfile::ThreeG,
        NetworkProfile::FourG,
        NetworkProfile::FiveG,
        NetworkProfile::Wifi,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_ratio_derivation() {
        // 1 M points/s of doubles = 64 Mbit/s raw; a 6.4 Mbit/s link
        // demands a 0.1 ratio.
        let c = Constraints::online(1_000_000.0, 6.4e6, 1000);
        assert!((c.target_ratio().unwrap() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn generous_link_caps_at_one() {
        let c = Constraints::online(1000.0, 1e9, 1000);
        assert_eq!(c.target_ratio(), Some(1.0));
    }

    #[test]
    fn offline_has_no_target_ratio() {
        let c = Constraints::offline(1000.0, 10 << 20, 1000);
        assert_eq!(c.target_ratio(), None);
        assert_eq!(c.storage_budget_bytes, Some(10 << 20));
    }

    #[test]
    fn network_profiles_ascend() {
        let mut prev = 0.0;
        for p in NetworkProfile::ALL {
            assert!(p.bits_per_sec() > prev);
            prev = p.bits_per_sec();
        }
        assert!((NetworkProfile::FourG.mb_per_sec() - 12.5).abs() < 1e-9);
    }

    #[test]
    fn paper_example_4ghz_signal() {
        // Figure 3: 4 M points/s double signal = 32 MB/s raw. Under 3G
        // (0.25 MB/s) even strong lossless (~0.3) cannot fit; the required
        // ratio is ~0.0078.
        let c = Constraints::online(4_000_000.0, NetworkProfile::ThreeG.bits_per_sec(), 1000);
        let r = c.target_ratio().unwrap();
        assert!(r < 0.01, "3G ratio {r}");
        // Under 4G the required ratio is within reach of the stronger
        // lossless encodings (Sprintz/BUFF achieve ≈0.27 on CBF).
        let c4 = Constraints::online(4_000_000.0, NetworkProfile::FourG.bits_per_sec(), 1000);
        let r4 = c4.target_ratio().unwrap();
        assert!(r4 > 0.25 && r4 < 0.5, "4G ratio {r4}");
    }
}
