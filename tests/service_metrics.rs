//! End-to-end observability: boot a daemon with the simulator side
//! channel on, drive real traffic through a socket, scrape the metrics
//! over the wire, and check the exposition is parseable, structurally
//! sound, and actually populated — request latencies, lifecycle phases,
//! and per-round simulator timings all nonzero.

use arbodom::obs::prom;
use arbodom::scenarios::{quality::RefKind, Family};
use arbodom_service::{
    obs, Client, DeltaSpec, GraphSource, JobSpec, Server, ServerConfig, SessionPolicy,
};

fn spec(n: u32, seed: u64) -> JobSpec {
    JobSpec::new(GraphSource::Generator {
        family: Family::RandomTree,
        n,
        weights: arbodom::graph::weights::WeightModel::Unit,
        seed,
    })
}

#[test]
fn scraped_metrics_reflect_served_traffic() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            sim_obs: true,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Real traffic: a batch of solves (two distinct graphs plus a repeat
    // that should hit the cache), a ping, and a stats call.
    let jobs = vec![spec(60, 1), spec(80, 2), spec(60, 1)];
    let replies = client.submit(&jobs).expect("batch");
    assert!(replies.iter().all(|r| r.is_ok()));
    client.ping().expect("ping");
    let stats = client.stats().expect("stats");
    assert!(stats.hits >= 1, "repeated spec should hit the cache");

    let text = client.metrics().expect("metrics scrape");
    let exp = prom::parse(&text).expect("exposition parses");
    exp.validate_histograms().expect("histograms consistent");

    // Request accounting: the kinds we exercised are counted, with
    // latency histograms carrying the same number of observations.
    for (kind, expected) in [("batch", 1.0), ("ping", 1.0), ("stats", 1.0)] {
        let total = format!("{}{kind}", obs::REQUESTS_TOTAL_PREFIX);
        assert_eq!(exp.value(&total), Some(expected), "{total}");
        let lat_count = format!("{}{kind}_count", obs::REQUEST_NANOS_PREFIX);
        assert_eq!(exp.value(&lat_count), Some(expected), "{lat_count}");
    }
    // ...with nonzero cumulative latency buckets.
    let batch_buckets = format!("{}batch_bucket", obs::REQUEST_NANOS_PREFIX);
    let observed: f64 = exp
        .samples
        .iter()
        .filter(|s| s.name == batch_buckets && s.label("le") == Some("+Inf"))
        .map(|s| s.value)
        .sum();
    assert!(observed >= 1.0, "batch latency buckets must be populated");

    // Lifecycle phases: three jobs went through the solver and the
    // cache; every frame was decoded, encoded, and written.
    assert_eq!(exp.value(obs::JOBS_TOTAL), Some(3.0));
    assert_eq!(exp.value(obs::JOB_ERRORS_TOTAL), Some(0.0));
    let solves = format!("{}_count", obs::SOLVE_NANOS);
    assert_eq!(exp.value(&solves), Some(3.0), "one solve timing per job");
    let lookups = format!("{}_count", obs::CACHE_LOOKUP_NANOS);
    assert_eq!(exp.value(&lookups), Some(3.0), "one cache probe per job");
    for phase in [obs::DECODE_NANOS, obs::ENCODE_NANOS, obs::WRITE_NANOS] {
        let count = exp.value(&format!("{phase}_count")).unwrap_or(0.0);
        assert!(count >= 3.0, "{phase} must time every frame, saw {count}");
    }
    let queue = format!("{}_count", obs::QUEUE_WAIT_NANOS);
    assert_eq!(exp.value(&queue), Some(3.0), "one queue wait per job");

    // The simulator side channel was attached: phase timings and round
    // counters accumulated across the three solves.
    let sim_rounds = exp
        .value(arbodom::congest::obs::SIM_ROUNDS_TOTAL)
        .unwrap_or(0.0);
    assert!(sim_rounds > 0.0, "sim rounds must be counted");
    let round_wall = format!("{}_count", arbodom::congest::obs::SIM_ROUND_NANOS);
    assert_eq!(
        exp.value(&round_wall),
        Some(sim_rounds),
        "one round-wall observation per simulated round"
    );
    let bits = format!("{}_count", arbodom::congest::obs::SIM_MESSAGE_BITS);
    assert!(
        exp.value(&bits).unwrap_or(0.0) > 0.0,
        "message sizes must be observed"
    );

    // Resource gauges mirror the authoritative cache stats at scrape
    // time. The scrape itself ran after `stats`, so the counters it saw
    // are at least what the Stats reply reported.
    assert_eq!(exp.value(obs::CACHE_ENTRIES), Some(stats.entries as f64));
    assert!(exp.value(obs::CACHE_HITS).unwrap_or(0.0) >= stats.hits as f64);

    // The in-process render surface agrees with the wire scrape on
    // monotone counters (timings keep moving, so compare a counter).
    let direct = server.metrics_prometheus();
    let direct_exp = prom::parse(&direct).expect("direct render parses");
    assert!(direct_exp.value(obs::JOBS_TOTAL) >= Some(3.0));

    server.shutdown();
}

#[test]
fn reference_counters_say_which_reference_each_reply_used() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    // A tree is accounted against the exact forest DP; a 300-node union
    // of three spanning trees has cycles and is past the branch-and-bound
    // size limit, so it falls back to the packing lower bound.
    let forest_union = JobSpec::new(GraphSource::Generator {
        family: Family::ForestUnion {
            alpha: 3,
            keep: 1.0,
        },
        n: 300,
        weights: arbodom::graph::weights::WeightModel::Unit,
        seed: 5,
    });
    let replies = client.submit(&[spec(60, 1), forest_union]).expect("batch");
    let references: Vec<RefKind> = replies
        .iter()
        .map(|r| r.as_ref().expect("job ok").reference)
        .collect();
    assert_eq!(references, [RefKind::Exact, RefKind::PackingLb]);

    let reference_count = |client: &mut Client, kind: &str| {
        let exp = prom::parse(&client.metrics().expect("scrape")).expect("parses");
        let name = format!("{}{kind}", obs::QUALITY_REFERENCE_TOTAL_PREFIX);
        exp.value(&name).unwrap_or_else(|| panic!("{name} missing"))
    };
    assert_eq!(reference_count(&mut client, "exact"), 1.0);
    assert_eq!(reference_count(&mut client, "packing_lb"), 1.0);
    assert_eq!(reference_count(&mut client, "planted"), 0.0);

    // The session path counts too: opening on a tree is one exact
    // accounting, and each mutation reply (even an empty batch's) is
    // another.
    let (id, opened) = client.open(&spec(40, 7)).expect("open");
    assert_eq!(opened.reference, RefKind::Exact);
    let empty = DeltaSpec {
        inserts: vec![],
        deletes: vec![],
    };
    let update = client
        .mutate(id, &empty, SessionPolicy::Repair)
        .expect("mutate");
    assert_eq!(update.result.reference, RefKind::Exact);
    assert_eq!(reference_count(&mut client, "exact"), 3.0);
    server.shutdown();
}

#[test]
fn sim_obs_defaults_off_and_scrape_still_works() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let replies = client.submit(&[spec(40, 3)]).expect("batch");
    assert!(replies[0].is_ok());
    let exp = prom::parse(&client.metrics().expect("scrape")).expect("parses");
    exp.validate_histograms().expect("consistent");
    // Service-layer metrics are always on...
    assert_eq!(exp.value(obs::JOBS_TOTAL), Some(1.0));
    // ...but no simulator metric is even *registered* without the flag:
    // the default run pays the side channel nothing, not even names.
    assert_eq!(exp.value(arbodom::congest::obs::SIM_ROUNDS_TOTAL), None);
    assert!(
        exp.with_prefix("sim_").next().is_none(),
        "no sim_* samples expected"
    );
    server.shutdown();
}
