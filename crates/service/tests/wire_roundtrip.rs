//! Property suite for the `arbodomd` wire protocol: arbitrary job specs,
//! requests, and responses must satisfy the full [`Wire`] conformance
//! contract (round-trip, exact consumption, truncation rejection), and
//! corrupted frames must be rejected.

use arbodom_congest::assert_wire_conformance;
use arbodom_graph::weights::WeightModel;
use arbodom_scenarios::quality::RefKind;
use arbodom_scenarios::{Algorithm, Family};
use arbodom_service::protocol::{
    decode_payload, encode_payload, read_frame, write_frame, PROTOCOL_V3,
};
use arbodom_service::{
    CacheStats, DeltaSpec, GraphSource, JobResult, JobSpec, RepairStats, Request, Response,
    ServerLimits, ServiceError, SessionPolicy, SessionUpdate,
};
use proptest::prelude::*;

/// SplitMix64 over a per-case seed: one u64 from the harness fans out
/// into a whole structured value.
struct Gen(u64);

impl Gen {
    fn u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.u64()) * u128::from(bound)) >> 64) as u64
    }

    fn usize(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    fn bool(&mut self) -> bool {
        self.u64() & 1 == 1
    }

    /// A finite, sign-balanced f64 (NaN would break `PartialEq`-based
    /// round-trip checks; the protocol itself ships raw bits).
    fn f64(&mut self) -> f64 {
        (self.u64() >> 11) as f64 / (1u64 << 53) as f64 * 2e6 - 1e6
    }

    fn string(&mut self) -> String {
        let len = self.usize(12);
        (0..len)
            .map(|_| {
                // Mixed ASCII and multi-byte code points.
                const CHARS: &[char] = &['a', 'z', '0', '-', '_', 'α', 'Δ', '⊕', ' '];
                CHARS[self.usize(CHARS.len())]
            })
            .collect()
    }

    fn weight_model(&mut self) -> WeightModel {
        match self.below(5) {
            0 => WeightModel::Unit,
            1 => {
                let lo = 1 + self.below(100);
                WeightModel::Uniform {
                    lo,
                    hi: lo + self.below(1000),
                }
            }
            2 => WeightModel::Exponential {
                max_exp: self.below(30) as u32,
            },
            3 => WeightModel::DegreeCorrelated,
            _ => WeightModel::InverseDegree,
        }
    }

    fn family(&mut self) -> Family {
        match self.below(10) {
            0 => Family::ForestUnion {
                alpha: 1 + self.usize(8),
                keep: self.f64().abs() % 1.0,
            },
            1 => Family::PrefAttach {
                m_per_node: 1 + self.usize(5),
            },
            2 => Family::PlantedDs {
                k_per_mille: 1 + self.usize(200),
                extra_per_node: self.usize(4),
            },
            3 => Family::Grid2d { torus: self.bool() },
            4 => Family::Gnp {
                avg_degree: self.f64().abs() % 16.0,
            },
            5 => Family::RandomTree,
            6 => Family::RandomPlanar {
                diag_p: self.f64().abs() % 1.0,
            },
            7 => Family::KTree {
                k: 1 + self.usize(6),
            },
            8 => Family::PowerLawCapped {
                exponent: 1.5 + self.f64().abs() % 2.0,
                cap: 1 + self.usize(8),
            },
            _ => Family::UnitDisk {
                avg_degree: self.f64().abs() % 12.0,
            },
        }
    }

    fn algorithm(&mut self) -> Algorithm {
        match self.below(4) {
            0 => Algorithm::Weighted { eps: self.f64() },
            1 => Algorithm::UnknownDelta { eps: self.f64() },
            2 => Algorithm::Randomized {
                t: 1 + self.usize(8),
            },
            _ => Algorithm::General {
                k: 1 + self.usize(8),
            },
        }
    }

    fn graph_source(&mut self) -> GraphSource {
        match self.below(4) {
            0 => {
                let n = self.below(50) as u32;
                let edges = (0..self.usize(20))
                    .map(|_| (self.below(1 << 20) as u32, self.below(1 << 20) as u32))
                    .collect();
                let weights = self
                    .bool()
                    .then(|| (0..self.usize(10)).map(|_| self.u64()).collect());
                GraphSource::Inline { n, edges, weights }
            }
            1 => GraphSource::Generator {
                family: self.family(),
                n: self.below(1 << 24) as u32,
                weights: self.weight_model(),
                seed: self.u64(),
            },
            2 => GraphSource::ScenarioCell {
                name: self.string(),
                size_idx: self.below(8) as u32,
                weight_idx: self.below(8) as u32,
                loss_idx: self.below(8) as u32,
                seed_idx: self.u64(),
            },
            _ => GraphSource::Session { id: self.u64() },
        }
    }

    fn delta_spec(&mut self) -> DeltaSpec {
        let edges = |g: &mut Gen| {
            (0..g.usize(8))
                .map(|_| (g.below(1 << 20) as u32, g.below(1 << 20) as u32))
                .collect()
        };
        DeltaSpec {
            inserts: edges(self),
            deletes: edges(self),
        }
    }

    fn session_policy(&mut self) -> SessionPolicy {
        if self.bool() {
            SessionPolicy::Repair
        } else {
            SessionPolicy::Resolve
        }
    }

    fn repair_stats(&mut self) -> RepairStats {
        RepairStats {
            repaired: self.bool(),
            added: self.u64(),
            removed: self.u64(),
            undominated_before: self.u64(),
            drift_estimate: self.f64(),
            batches_since_solve: self.u64(),
            chain: self.u64(),
        }
    }

    fn session_update(&mut self) -> SessionUpdate {
        SessionUpdate {
            result: self.job_result(),
            repair: self.repair_stats(),
        }
    }

    fn job_spec(&mut self) -> JobSpec {
        JobSpec {
            source: self.graph_source(),
            algorithm: self.bool().then(|| self.algorithm()),
            seed: self.u64(),
            return_members: self.bool(),
        }
    }

    fn job_result(&mut self) -> JobResult {
        JobResult {
            n: self.u64(),
            m: self.u64(),
            max_degree: self.u64(),
            alpha: self.u64(),
            graph_digest: self.u64(),
            ds_size: self.u64(),
            ds_weight: self.u64(),
            valid: self.bool(),
            undominated: self.u64(),
            reference: [RefKind::Exact, RefKind::Planted, RefKind::PackingLb][self.usize(3)],
            opt_estimate: self.f64(),
            ratio: self.f64(),
            guarantee: self.f64(),
            within_guarantee: self.bool(),
            flagged: self.bool(),
            rounds: self.u64(),
            round_budget: self.u64(),
            messages: self.u64(),
            total_bits: self.u64(),
            max_message_bits: self.u64(),
            budget_violations: self.u64(),
            dropped_messages: self.u64(),
            members: self
                .bool()
                .then(|| (0..self.usize(16)).map(|_| self.u64() as u32).collect()),
        }
    }

    fn request(&mut self) -> Request {
        match self.below(10) {
            0 => Request::Ping,
            1 => Request::Batch((0..self.usize(4)).map(|_| self.job_spec()).collect()),
            2 => Request::Stats,
            3 => Request::Shutdown,
            4 => Request::Open(self.job_spec()),
            5 => Request::Mutate {
                session: self.u64(),
                delta: self.delta_spec(),
                policy: self.session_policy(),
            },
            6 => Request::Resolve {
                session: self.u64(),
            },
            7 => Request::Release {
                session: self.u64(),
            },
            8 => Request::Metrics,
            _ => Request::Hello,
        }
    }

    fn server_limits(&mut self) -> ServerLimits {
        ServerLimits {
            workers: self.u64(),
            max_pending_jobs: self.u64(),
            max_pending_bytes: self.u64(),
            per_conn_inflight: self.u64(),
            idle_timeout_ms: self.u64(),
            max_frame_len: self.u64(),
            max_batch_jobs: self.u64(),
        }
    }

    fn response(&mut self) -> Response {
        match self.below(13) {
            0 => Response::Pong,
            1 => Response::Job {
                index: self.below(1 << 16) as u32,
                outcome: if self.bool() {
                    Ok(self.job_result())
                } else {
                    Err(self.string())
                },
            },
            2 => Response::BatchDone {
                jobs: self.below(1 << 16) as u32,
            },
            3 => Response::Stats(CacheStats {
                entries: self.u64(),
                capacity: self.u64(),
                bytes: self.u64(),
                hits: self.u64(),
                misses: self.u64(),
                evictions: self.u64(),
                sessions: self.u64(),
                session_bytes: self.u64(),
                session_evictions: self.u64(),
            }),
            4 => Response::ShuttingDown,
            5 => Response::Error(self.string()),
            6 => Response::Session {
                id: self.u64(),
                outcome: if self.bool() {
                    Ok(self.job_result())
                } else {
                    Err(self.string())
                },
            },
            7 => Response::Mutated {
                id: self.u64(),
                outcome: if self.bool() {
                    Ok(self.session_update())
                } else {
                    Err(self.string())
                },
            },
            8 => Response::Released {
                id: self.u64(),
                existed: self.bool(),
            },
            9 => Response::MetricsReport(self.string()),
            10 => Response::UnsupportedVersion {
                got: self.u64() as u8,
                supported: self.u64() as u8,
            },
            11 => Response::Overloaded {
                retry_after_ms: self.u64(),
                queue_depth: self.u64(),
            },
            _ => Response::Limits(self.server_limits()),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn job_specs_conform(seed: u64) {
        assert_wire_conformance(&Gen(seed).job_spec());
    }

    #[test]
    fn requests_conform(seed: u64) {
        assert_wire_conformance(&Gen(seed).request());
    }

    #[test]
    fn responses_conform(seed: u64) {
        assert_wire_conformance(&Gen(seed).response());
    }

    #[test]
    fn bad_leading_tags_are_rejected(seed: u64) {
        // Overwrite the leading tag byte with every invalid value: the
        // decoder must error, never mis-route.
        let mut payload = encode_payload(&Gen(seed).request());
        for tag in 10..=u8::MAX {
            payload[0] = tag;
            prop_assert!(decode_payload::<Request>(&payload).is_err());
        }
        let mut payload = encode_payload(&Gen(seed).response());
        for tag in 13..=u8::MAX {
            payload[0] = tag;
            prop_assert!(decode_payload::<Response>(&payload).is_err());
        }
    }

    #[test]
    fn trailing_garbage_is_rejected(seed: u64) {
        let mut gen = Gen(seed);
        let mut payload = encode_payload(&gen.request());
        payload.push(gen.u64() as u8);
        prop_assert!(decode_payload::<Request>(&payload).is_err());
    }

    #[test]
    fn frames_roundtrip_any_version_byte(seed: u64) {
        // Framing is version-agnostic by design: the *connection* layer
        // decides what to do with the byte, so read_frame must faithfully
        // return whatever version the writer stamped — including ones no
        // server speaks.
        let mut gen = Gen(seed);
        let version = gen.u64() as u8;
        let payload = encode_payload(&gen.request());
        let mut buf = Vec::new();
        write_frame(&mut buf, version, &payload).unwrap();
        let (got_version, got_payload) = read_frame(&mut buf.as_slice()).unwrap();
        prop_assert_eq!(got_version, version);
        prop_assert_eq!(got_payload, payload);
    }

    #[test]
    fn truncated_frames_are_errors_at_every_cut(seed: u64) {
        // Cut a well-formed frame at every byte boundary: an empty read
        // is a clean close, everything else must error — never hang,
        // never yield a phantom message.
        let mut gen = Gen(seed);
        let payload = encode_payload(&gen.request());
        let mut buf = Vec::new();
        write_frame(&mut buf, PROTOCOL_V3, &payload).unwrap();
        for keep in 0..buf.len() {
            let err = read_frame(&mut &buf[..keep]).unwrap_err();
            if keep == 0 {
                prop_assert!(matches!(err, ServiceError::Closed));
            } else {
                prop_assert!(matches!(err, ServiceError::Io(_)));
            }
        }
    }
}

#[test]
fn empty_payload_is_rejected() {
    assert!(decode_payload::<Request>(&[]).is_err());
    assert!(decode_payload::<Response>(&[]).is_err());
}

#[test]
fn corrupt_interior_bool_is_rejected() {
    // JobSpec ends with ... algorithm-presence bool, seed varint, members
    // bool; smash the trailing bool to a non-0/1 byte.
    let spec = JobSpec::new(GraphSource::Inline {
        n: 3,
        edges: vec![(0, 1)],
        weights: None,
    });
    let mut payload = encode_payload(&spec);
    *payload.last_mut().unwrap() = 7;
    assert!(decode_payload::<JobSpec>(&payload).is_err());
}

#[test]
fn declared_lengths_beyond_the_buffer_are_rejected_without_allocation() {
    // A Batch claiming 2^40 jobs in a 3-byte payload must fail fast on
    // the sequence-length guard, not attempt a huge Vec.
    let payload = [1u8, 0xff, 0xff, 0xff, 0xff, 0x7f];
    assert!(decode_payload::<Request>(&payload).is_err());
}
