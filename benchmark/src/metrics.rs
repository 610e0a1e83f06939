//! The metric catalog: every name the benchmark prints, with its unit and
//! direction. `BENCHMARK.json` lists the same names; a test keeps the two
//! in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may get worse before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Measured by the untraced run. Every workload reports every one: the
/// packet-path metrics come from the run's packet-path segment and the
/// request-path metrics from its request-path segment (README, "Two
/// segments per run").
pub const END_TO_END: &[MetricDef] = &[
    e2e("delivered_pps", "1/s", Higher, 0.25),
    e2e("path_latency_p50_us", "us", Lower, 0.25),
    e2e("gateway_pps", "1/s", Higher, 0.25),
    e2e("router_hop_pps", "1/s", Higher, 0.25),
    e2e("goodput_gbps", "Gbit/s", Higher, 0.25),
    e2e("requests_per_s", "1/s", Higher, 0.25),
    e2e("setup_latency_p50_us", "us", Lower, 0.25),
    e2e("renew_latency_p50_us", "us", Lower, 0.25),
    e2e("gc_pause_p50_ms", "ms", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
];

/// Measured by the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    layer("dataplane.gateway.ns_per_pkt", "ns", Lower),
    layer("dataplane.router.ns_per_pkt_hop", "ns", Lower),
    layer("dataplane.router.hop0_ns_per_pkt", "ns", Lower),
    layer("dataplane.gateway.install_ns", "ns", Lower),
    layer("dataplane.crypto_cache.sigma_hit_ratio", "ratio", Higher),
    layer("dataplane.crypto_cache.evictions", "count", Lower),
    layer("dataplane.gateway.forwarded", "count", Higher),
    layer("dataplane.gateway.rate_limited", "count", Lower),
    layer("dataplane.gateway.rejected", "count", Lower),
    layer("dataplane.router.drops.bad_hvf", "count", Lower),
    layer("dataplane.router.drops.parse", "count", Lower),
    layer("dataplane.router.drops.expired", "count", Lower),
    layer("dataplane.router.drops.stale", "count", Lower),
    layer("dataplane.router.drops.duplicate", "count", Lower),
    layer("dataplane.router.drops.blocked", "count", Lower),
    layer("dataplane.router.drops.shaped", "count", Lower),
    layer("crypto.aes_blocks_per_pkt.gateway", "count", Lower),
    layer("crypto.aes_blocks_per_pkt.router", "count", Lower),
    layer("crypto.key_expansions_per_pkt.router", "count", Lower),
    layer("crypto.cmac_1block_ns", "ns", Lower),
    layer("crypto.key_expand_ns", "ns", Lower),
    layer("crypto.aead_seal_open_ns", "ns", Lower),
    layer("wire.parse_ns", "ns", Lower),
    layer("wire.build_ns", "ns", Lower),
    layer("wire.hop_auth_ns", "ns", Lower),
    layer("wire.eer_hvf_ns", "ns", Lower),
    layer("monitor.token_bucket_ns", "ns", Lower),
    layer("monitor.transit_ns", "ns", Lower),
    layer("monitor.replay_false_dup", "count", Lower),
    layer("qdisc.admit_ns", "ns", Lower),
    layer("qdisc.rate_limited", "count", Lower),
    layer("qdisc.host_capped", "count", Lower),
    layer("dataplane.gateway.unexplained_ns", "ns", Lower),
    layer("dataplane.router.unexplained_ns", "ns", Lower),
    layer("telemetry.dp_overhead_ratio", "ratio", Lower),
    layer("telemetry.snapshot_ns", "ns", Lower),
    layer("host.open_ns", "ns", Lower),
    layer("host.tick_ns_per_flow", "ns", Lower),
    layer("host.send_ns", "ns", Lower),
    layer("topology.find_paths_ns", "ns", Lower),
    layer("ctrl.setup_eer_ns", "ns", Lower),
    layer("ctrl.renew_eer_ns", "ns", Lower),
    layer("ctrl.setup_segr_ns", "ns", Lower),
    layer("ctrl.renew_segr_ns", "ns", Lower),
    layer("ctrl.activate_segr_ns", "ns", Lower),
    layer("ctrl.teardown_segr_ns", "ns", Lower),
    layer("ctrl.admission.admit_ns", "ns", Lower),
    layer("ctrl.admission.remove_ns", "ns", Lower),
    layer("ctrl.timeline.range_add_ns", "ns", Lower),
    layer("ctrl.timeline.range_max_ns", "ns", Lower),
    layer("ctrl.gc_ns", "ns", Lower),
    layer("ctrl.gc_scanned", "count", Lower),
    layer("ctrl.gc_expired", "count", Higher),
    layer("ctrl.admitted", "count", Higher),
    layer("ctrl.refused", "count", Lower),
    layer("ctrl.store.live_segrs", "count", Higher),
    layer("ctrl.store.live_eers", "count", Higher),
    layer("chain.burst_p99_us", "us", Lower),
    layer("cp.setup_p99_us", "us", Lower),
    layer("cp.renew_p99_us", "us", Lower),
    layer("cp.gc_pause_max_ms", "ms", Lower),
    layer("ring.send_recv_ns", "ns", Lower),
    layer("trace.overhead_ratio", "ratio", Lower),
];

/// What a run prints: the per-layer metrics when traced, the end-to-end
/// ones otherwise.
pub fn catalog(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// The five workloads, with the reason each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "dp-short-hot",
        "4-AS path, 64 B, 1,024 reservations inside the sigma-cache: fixed per-packet cost dominates, crypto least",
    ),
    (
        "dp-long-cold",
        "16-AS path, 64 B, 32,768 reservations (8x the sigma-cache): MAC per hop and the router miss path dominate",
    ),
    (
        "dp-attack-mix",
        "4-AS path, IMIX, 50% legit / 10% over-rate / 40% hostile frames: drop paths, policing, monitor and qdisc do the work",
    ),
    (
        "cp-flow-churn",
        "sample_two_isd, FlowManager opens flows over 5 ASes, renews each once: the whole host-request path at the steady setup:renewal ratio",
    ),
    (
        "cp-segr-loaded",
        "chain of 3 ASes with 100,000 live SegRs, mixed setup/advance/renew/teardown/refusal: store and timeline at scale, crypto minor",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let mut seen = HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(m.unit.len() <= 16, "{}", m.unit);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for (name, why) in WORKLOADS {
            assert!(valid_name(name) && seen.insert(name), "{name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128 && WORKLOADS.len() <= 8);
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower));
    }
}
